//! Pre-decoded ("threaded-code") functional execution.
//!
//! [`Interp::step_info`] re-decodes every instruction through a
//! 500-plus-line match and reports its effects through a [`StepInfo`]
//! struct that the warming driver then re-matches. For the sampled
//! simulator's fast-forward phase — millions of instructions per
//! checkpoint schedule — that double dispatch is the wall-clock
//! bottleneck. This module decodes a [`Program`] **once** into a flat
//! array of resolved ops ([`TranslatedProgram`]): immediates folded,
//! register numbers extracted to raw indices, load/store offsets
//! pre-converted to their wrapping `u64` form, access widths reduced to a
//! byte count, and each op's i-cache byte address and 64-byte line id
//! precomputed so per-instruction warming reduces to one integer compare
//! (its execution latency and uop class too, for the timing hooks).
//!
//! [`Interp::run_translated`] then drives the *same* [`Interp`] state from
//! that array. Because it mutates the interpreter's own fields, there is no
//! second architectural state to keep in sync: registers, PC, memory, MSRs,
//! fault delivery, retirement counting and halt behaviour are shared with
//! the reference engine by construction, and the differential suite pins
//! the two engines to `Interp == Interp` equality after every program.
//!
//! Each step's events are delivered through the [`ExecHooks`] trait
//! instead of a materialized [`StepInfo`], statically dispatched, with
//! every callback a no-op by default. It has two clients. The sampled
//! simulator's warmer uses the warming callbacks, which replicate the
//! reference warming order exactly, so cache and predictor state after a
//! translated fast-forward is bit-identical to the interpreted path —
//! including predictor accuracy counters, which participate in checkpoint
//! equality. The blocking in-order core, a timing model over this engine,
//! also uses the timing callbacks (stop, `rdcycle`, multiply/divide,
//! fault, retire) to charge its latencies.
//!
//! [`StepInfo`]: crate::StepInfo

use crate::inst::{AluOp, BranchCond, Inst, Src2, UopClass};
use crate::interp::{Fault, Interp, InterpError};
use crate::program::Program;
use crate::reg::RA;

/// Callbacks invoked by [`Interp::run_translated`] for the executed
/// instruction stream: the warming events of the sampled simulator's
/// fast-forward, and the timing events the blocking in-order core charges
/// its latencies on.
///
/// Every method defaults to a no-op (or to the interpreter's own value);
/// implementors override exactly the events they use. Call order within
/// one step is fixed:
///
/// 1. [`ExecHooks::stop`], before the fetch;
/// 2. [`ExecHooks::inst`];
/// 3. at most one of the control-flow callbacks, [`ExecHooks::mul_div`]
///    or [`ExecHooks::rdcycle`];
/// 4. [`ExecHooks::data`] for a load or store, or [`ExecHooks::fault`] for
///    a faulting one or a faulting `rdmsr`, which ends the step;
/// 5. [`ExecHooks::flush`] for a `clflush`;
/// 6. [`ExecHooks::retire`].
///
/// A faulting step therefore reports `stop`, `inst` and `fault` only: its
/// data access never happened and it does not retire.
pub trait ExecHooks {
    /// Checked before every step, ahead of the fetch; `true` ends the run
    /// there, as an exhausted step budget does.
    #[inline]
    fn stop(&mut self) -> bool {
        false
    }

    /// An instruction at i-cache byte address `iaddr` (64-byte line id
    /// `iline`) executed. Called for **every** fetched step, including
    /// faulting ones; implementors that warm i-caches per line filter on
    /// `iline`.
    #[inline]
    fn inst(&mut self, iaddr: u64, iline: u64) {
        let _ = (iaddr, iline);
    }

    /// A conditional branch at `iaddr` resolved with direction `taken`.
    #[inline]
    fn branch(&mut self, iaddr: u64, taken: bool) {
        let _ = (iaddr, taken);
    }

    /// A direct call executed; `ret_pc` is its fall-through index.
    #[inline]
    fn call(&mut self, ret_pc: usize) {
        let _ = ret_pc;
    }

    /// An indirect call at `iaddr` executed: fall-through `ret_pc`,
    /// resolved target `next_pc`.
    #[inline]
    fn call_ind(&mut self, iaddr: u64, ret_pc: usize, next_pc: usize) {
        let _ = (iaddr, ret_pc, next_pc);
    }

    /// An indirect jump at `iaddr` resolved to `next_pc`.
    #[inline]
    fn jmp_ind(&mut self, iaddr: u64, next_pc: usize) {
        let _ = (iaddr, next_pc);
    }

    /// A return executed.
    #[inline]
    fn ret(&mut self) {}

    /// A multiply, divide or remainder of execution latency `latency`
    /// issued (the ops a power-gated multiply unit serves).
    #[inline]
    fn mul_div(&mut self, latency: u64) {
        let _ = latency;
    }

    /// The value a `rdcycle` reads. The interpreter has no clock, so the
    /// default is `retired`, its retired-instruction count, which keeps
    /// the value deterministic; a timing model returns its cycle.
    #[inline]
    fn rdcycle(&mut self, retired: u64) -> u64 {
        retired
    }

    /// A non-faulting load or store touched byte address `addr`.
    #[inline]
    fn data(&mut self, addr: u64) {
        let _ = addr;
    }

    /// A load, store or `rdmsr` faulted. Called before the fault is
    /// delivered, so also for a fault with no handler.
    #[inline]
    fn fault(&mut self, fault: Fault) {
        let _ = fault;
    }

    /// A `clflush` evicted the line containing `addr`.
    #[inline]
    fn flush(&mut self, addr: u64) {
        let _ = addr;
    }

    /// The instruction retired: `latency` is its execution latency
    /// ([`Inst::exec_latency`]) and `class` its [`UopClass`].
    #[inline]
    fn retire(&mut self, latency: u64, class: UopClass) {
        let _ = (latency, class);
    }
}

/// Hook implementation that warms nothing — pure fast-forwarding.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl ExecHooks for NoHooks {}

/// One pre-decoded operation. Register fields are raw indices (always
/// `< 32` by construction from [`crate::Reg`]), immediates and offsets are
/// pre-folded into the form the execute step consumes.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Li {
        rd: u8,
        imm: u64,
    },
    AluRR {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluRI {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: u64,
    },
    Load {
        rd: u8,
        base: u8,
        off: u64,
        size: u8,
    },
    Store {
        src: u8,
        base: u8,
        off: u64,
        size: u8,
    },
    Branch {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: usize,
    },
    Jmp {
        target: usize,
    },
    JmpInd {
        base: u8,
    },
    Call {
        target: usize,
    },
    CallInd {
        base: u8,
    },
    Ret,
    RdCycle {
        rd: u8,
    },
    RdMsr {
        rd: u8,
        idx: u16,
    },
    ClFlush {
        base: u8,
        off: u64,
    },
    /// `Nop`, `Fence`, `SpecOff` and `SpecOn` — architecturally identical
    /// on the functional path (timing semantics live in the cores).
    Nop,
    Halt,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    /// I-cache byte address of this instruction.
    iaddr: u64,
    /// 64-byte i-cache line id (`iaddr / 64`), precomputed so the warming
    /// driver's per-instruction line check is a single compare.
    iline: u64,
    /// [`Inst::exec_latency`], reported to [`ExecHooks::retire`].
    latency: u32,
    /// [`Inst::class`], reported to [`ExecHooks::retire`].
    class: UopClass,
}

fn translate(inst: Inst) -> OpKind {
    let r = |reg: crate::Reg| reg.index() as u8;
    match inst {
        Inst::Li { rd, imm } => OpKind::Li { rd: r(rd), imm },
        Inst::Alu { op, rd, rs1, src2 } => match src2 {
            Src2::Reg(rs2) => OpKind::AluRR {
                op,
                rd: r(rd),
                rs1: r(rs1),
                rs2: r(rs2),
            },
            Src2::Imm(imm) => OpKind::AluRI {
                op,
                rd: r(rd),
                rs1: r(rs1),
                imm,
            },
        },
        Inst::Load {
            rd,
            base,
            off,
            size,
        } => OpKind::Load {
            rd: r(rd),
            base: r(base),
            off: off as u64,
            size: size.bytes() as u8,
        },
        Inst::Store {
            src,
            base,
            off,
            size,
        } => OpKind::Store {
            src: r(src),
            base: r(base),
            off: off as u64,
            size: size.bytes() as u8,
        },
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => OpKind::Branch {
            cond,
            rs1: r(rs1),
            rs2: r(rs2),
            target,
        },
        Inst::Jmp { target } => OpKind::Jmp { target },
        Inst::JmpInd { base } => OpKind::JmpInd { base: r(base) },
        Inst::Call { target } => OpKind::Call { target },
        Inst::CallInd { base } => OpKind::CallInd { base: r(base) },
        Inst::Ret => OpKind::Ret,
        Inst::RdCycle { rd } => OpKind::RdCycle { rd: r(rd) },
        Inst::RdMsr { rd, idx } => OpKind::RdMsr { rd: r(rd), idx },
        Inst::ClFlush { base, off } => OpKind::ClFlush {
            base: r(base),
            off: off as u64,
        },
        Inst::Fence | Inst::SpecOff | Inst::SpecOn | Inst::Nop => OpKind::Nop,
        Inst::Halt => OpKind::Halt,
    }
}

/// A [`Program`] decoded once into a flat array of resolved ops.
///
/// Construction is `O(text)` and performed once per program; every
/// fast-forward interval then dispatches on the dense [`OpKind`] enum with
/// no per-step re-decode. The translation is positional — op `i`
/// corresponds to instruction index `i` — so the PC semantics of the
/// reference interpreter carry over unchanged.
#[derive(Debug, Clone)]
pub struct TranslatedProgram {
    ops: Vec<Op>,
}

impl TranslatedProgram {
    /// Pre-decode `program`.
    pub fn new(program: &Program) -> TranslatedProgram {
        TranslatedProgram {
            ops: program
                .insts
                .iter()
                .enumerate()
                .map(|(pc, &inst)| {
                    let iaddr = program.inst_addr(pc);
                    Op {
                        kind: translate(inst),
                        iaddr,
                        iline: iaddr / 64,
                        latency: inst.exec_latency() as u32,
                        class: inst.class(),
                    }
                })
                .collect(),
        }
    }

    /// Number of pre-decoded ops (equals the program's text length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the translated text is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Interp {
    #[inline]
    fn reg_idx(&self, r: u8) -> u64 {
        self.regs[(r & 31) as usize]
    }

    #[inline]
    fn set_reg_idx(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[(r & 31) as usize] = v;
        }
    }

    /// Execute up to `max_steps` instructions from the pre-decoded
    /// `tp`, reporting each step's events to `hooks`. Returns the number
    /// of instructions **executed** (faulting steps execute without
    /// retiring, exactly as in [`Interp::step_info`]); stops early on
    /// `Halt` or when [`ExecHooks::stop`] asks to.
    ///
    /// `tp` must be the translation of the program this interpreter runs
    /// (positional PC correspondence is assumed; debug builds assert the
    /// text lengths match). Architectural behaviour — registers, PC,
    /// memory, MSRs, fault delivery, retirement and halt — is bit-exact
    /// with driving [`Interp::step_info`] in a loop, except that `rdcycle`
    /// reads [`ExecHooks::rdcycle`]; the hook call sequence matches the
    /// sampled simulator's reference warming order.
    ///
    /// # Errors
    ///
    /// [`InterpError::PcOutOfRange`] when the PC leaves the text segment
    /// and [`InterpError::UnhandledFault`] when a fault commits with no
    /// registered handler — the same conditions, in the same order, as the
    /// reference engine.
    pub fn run_translated<H: ExecHooks>(
        &mut self,
        tp: &TranslatedProgram,
        max_steps: u64,
        hooks: &mut H,
    ) -> Result<u64, InterpError> {
        debug_assert_eq!(tp.ops.len(), self.program.len(), "translation mismatch");
        let mut executed = 0u64;
        while executed < max_steps && !self.halted && !hooks.stop() {
            let Some(op) = tp.ops.get(self.pc) else {
                return Err(InterpError::PcOutOfRange { pc: self.pc });
            };
            hooks.inst(op.iaddr, op.iline);
            executed += 1;
            let latency = u64::from(op.latency);
            let mut next = self.pc + 1;
            match op.kind {
                OpKind::Li { rd, imm } => self.set_reg_idx(rd, imm),
                OpKind::AluRR { op, rd, rs1, rs2 } => {
                    if matches!(op, AluOp::Mul | AluOp::Div | AluOp::Rem) {
                        hooks.mul_div(latency);
                    }
                    let v = op.apply(self.reg_idx(rs1), self.reg_idx(rs2));
                    self.set_reg_idx(rd, v);
                }
                OpKind::AluRI { op, rd, rs1, imm } => {
                    if matches!(op, AluOp::Mul | AluOp::Div | AluOp::Rem) {
                        hooks.mul_div(latency);
                    }
                    let v = op.apply(self.reg_idx(rs1), imm);
                    self.set_reg_idx(rd, v);
                }
                OpKind::Load {
                    rd,
                    base,
                    off,
                    size,
                } => {
                    let addr = self.reg_idx(base).wrapping_add(off);
                    if self.priv_map.is_privileged(addr) {
                        self.fault(Fault::PrivilegedAccess { addr }, hooks)?;
                        continue;
                    }
                    let v = self.mem.read(addr, u64::from(size));
                    self.set_reg_idx(rd, v);
                    hooks.data(addr);
                }
                OpKind::Store {
                    src,
                    base,
                    off,
                    size,
                } => {
                    let addr = self.reg_idx(base).wrapping_add(off);
                    if self.priv_map.is_privileged(addr) {
                        self.fault(Fault::PrivilegedAccess { addr }, hooks)?;
                        continue;
                    }
                    let v = self.reg_idx(src);
                    self.mem.write(addr, v, u64::from(size));
                    hooks.data(addr);
                }
                OpKind::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let taken = cond.eval(self.reg_idx(rs1), self.reg_idx(rs2));
                    if taken {
                        next = target;
                    }
                    hooks.branch(op.iaddr, taken);
                }
                OpKind::Jmp { target } => next = target,
                OpKind::JmpInd { base } => {
                    next = self.reg_idx(base) as usize;
                    hooks.jmp_ind(op.iaddr, next);
                }
                OpKind::Call { target } => {
                    let ret_pc = self.pc + 1;
                    self.set_reg_idx(RA.index() as u8, ret_pc as u64);
                    next = target;
                    hooks.call(ret_pc);
                }
                OpKind::CallInd { base } => {
                    let t = self.reg_idx(base) as usize;
                    let ret_pc = self.pc + 1;
                    self.set_reg_idx(RA.index() as u8, ret_pc as u64);
                    next = t;
                    hooks.call_ind(op.iaddr, ret_pc, t);
                }
                OpKind::Ret => {
                    next = self.reg_idx(RA.index() as u8) as usize;
                    hooks.ret();
                }
                OpKind::RdCycle { rd } => {
                    let v = hooks.rdcycle(self.retired);
                    self.set_reg_idx(rd, v);
                }
                OpKind::RdMsr { rd, idx } => {
                    if !self.msrs.user_may_read(idx) {
                        self.fault(Fault::PrivilegedMsr { idx }, hooks)?;
                        continue;
                    }
                    let v = self.msrs.read(idx);
                    self.set_reg_idx(rd, v);
                }
                OpKind::ClFlush { base, off } => {
                    let addr = self.reg_idx(base).wrapping_add(off);
                    hooks.flush(addr);
                }
                OpKind::Nop => {}
                OpKind::Halt => {
                    self.halted = true;
                    next = self.pc;
                }
            }
            self.retired += 1;
            self.pc = next;
            hooks.retire(latency, op.class);
        }
        Ok(executed)
    }

    /// Report `fault` to `hooks`, then deliver it.
    #[inline]
    fn fault<H: ExecHooks>(&mut self, fault: Fault, hooks: &mut H) -> Result<(), InterpError> {
        hooks.fault(fault);
        self.deliver_fault(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::genprog::{generate, GenConfig};
    use crate::inst::MemSize;
    use crate::mem::KERNEL_BASE;
    use crate::reg::Reg;

    /// Hook that records the exact event sequence for order pinning.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl ExecHooks for Recorder {
        fn stop(&mut self) -> bool {
            self.events.push("stop".into());
            false
        }
        fn inst(&mut self, iaddr: u64, iline: u64) {
            self.events.push(format!("inst {iaddr:#x} {iline}"));
        }
        fn branch(&mut self, iaddr: u64, taken: bool) {
            self.events.push(format!("branch {iaddr:#x} {taken}"));
        }
        fn call(&mut self, ret_pc: usize) {
            self.events.push(format!("call {ret_pc}"));
        }
        fn call_ind(&mut self, iaddr: u64, ret_pc: usize, next_pc: usize) {
            self.events
                .push(format!("callind {iaddr:#x} {ret_pc} {next_pc}"));
        }
        fn jmp_ind(&mut self, iaddr: u64, next_pc: usize) {
            self.events.push(format!("jmpind {iaddr:#x} {next_pc}"));
        }
        fn ret(&mut self) {
            self.events.push("ret".into());
        }
        fn data(&mut self, addr: u64) {
            self.events.push(format!("data {addr:#x}"));
        }
        fn flush(&mut self, addr: u64) {
            self.events.push(format!("flush {addr:#x}"));
        }
        fn mul_div(&mut self, latency: u64) {
            self.events.push(format!("muldiv {latency}"));
        }
        fn rdcycle(&mut self, retired: u64) -> u64 {
            self.events.push(format!("rdcycle {retired}"));
            retired
        }
        fn fault(&mut self, fault: Fault) {
            self.events.push(format!("fault {fault}"));
        }
        fn retire(&mut self, latency: u64, class: UopClass) {
            self.events.push(format!("retire {latency} {class:?}"));
        }
    }

    /// The fault `inst` would raise in `interp`'s current state, if it is
    /// an instruction that can fault.
    fn fault_of(interp: &Interp, inst: Inst) -> Option<Fault> {
        match inst {
            Inst::Load { base, off, .. } | Inst::Store { base, off, .. } => {
                Some(Fault::PrivilegedAccess {
                    addr: interp.reg(base).wrapping_add(off as u64),
                })
            }
            Inst::RdMsr { idx, .. } => Some(Fault::PrivilegedMsr { idx }),
            _ => None,
        }
    }

    /// The hook sequence the reference warming driver would produce from
    /// `step_info` reports, for differential comparison. The `stop` event
    /// opens every step attempt; the `inst` event fires iff the fetch
    /// succeeds, matching `run_translated` (which reports the instruction
    /// line before executing it, including on handled *and* unhandled
    /// faults, but not on a PC escape).
    #[allow(clippy::type_complexity)]
    fn reference_events(
        program: &Program,
        max_steps: u64,
    ) -> (Interp, Vec<String>, Result<u64, InterpError>) {
        let mut interp = Interp::new(program);
        let mut ev = Vec::new();
        let mut executed = 0u64;
        let res = loop {
            if executed >= max_steps || interp.halted() {
                break Ok(executed);
            }
            ev.push("stop".into());
            let pc = interp.pc();
            let fetched = program.fetch(pc);
            if fetched.is_some() {
                let iaddr = program.inst_addr(pc);
                ev.push(format!("inst {iaddr:#x} {}", iaddr / 64));
            }
            let retired = interp.retired();
            let fault = fetched.and_then(|i| fault_of(&interp, i));
            let info = match interp.step_info() {
                Ok(Some(info)) => info,
                Ok(None) => break Ok(executed),
                Err(e) => {
                    if let InterpError::UnhandledFault(f) = e {
                        ev.push(format!("fault {f}"));
                    }
                    break Err(e);
                }
            };
            executed += 1;
            if info.faulted {
                ev.push(format!("fault {}", fault.expect("a faulting inst")));
                continue;
            }
            match info.inst {
                Inst::Alu {
                    op: AluOp::Mul | AluOp::Div | AluOp::Rem,
                    ..
                } => ev.push(format!("muldiv {}", info.inst.exec_latency())),
                Inst::RdCycle { .. } => ev.push(format!("rdcycle {retired}")),
                Inst::Branch { .. } => {
                    ev.push(format!(
                        "branch {iaddr:#x} {}",
                        info.taken.unwrap_or(false),
                        iaddr = program.inst_addr(info.pc)
                    ));
                }
                Inst::Call { .. } => ev.push(format!("call {}", info.pc + 1)),
                Inst::CallInd { .. } => ev.push(format!(
                    "callind {iaddr:#x} {} {}",
                    info.pc + 1,
                    info.next_pc,
                    iaddr = program.inst_addr(info.pc)
                )),
                Inst::JmpInd { .. } => ev.push(format!(
                    "jmpind {iaddr:#x} {}",
                    info.next_pc,
                    iaddr = program.inst_addr(info.pc)
                )),
                Inst::Ret => ev.push("ret".into()),
                _ => {}
            }
            if let Some(addr) = info.data_addr {
                ev.push(format!("data {addr:#x}"));
            }
            if let Some(addr) = info.flush_addr {
                ev.push(format!("flush {addr:#x}"));
            }
            ev.push(format!(
                "retire {} {:?}",
                info.inst.exec_latency(),
                info.inst.class()
            ));
        };
        (interp, ev, res)
    }

    fn assert_engines_agree(program: &Program, max_steps: u64) {
        let tp = TranslatedProgram::new(program);
        let mut fast = Interp::new(program);
        let mut rec = Recorder::default();
        let fast_res = fast.run_translated(&tp, max_steps, &mut rec);
        let (reference, ref_events, ref_res) = reference_events(program, max_steps);
        assert_eq!(fast, reference, "architectural state diverged");
        assert_eq!(rec.events, ref_events, "warming event stream diverged");
        assert_eq!(fast_res, ref_res, "termination diverged");
    }

    /// The timing fields cost no space: a one-byte access width leaves
    /// room for them in the op's padding.
    #[test]
    fn op_stays_five_words() {
        assert_eq!(std::mem::size_of::<Op>(), 40);
    }

    #[test]
    fn straight_line_program_matches_reference() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 0x1_0000);
        asm.li(Reg::X3, 0xAB);
        asm.st1(Reg::X3, Reg::X2, 5);
        asm.ld1(Reg::X4, Reg::X2, 5);
        asm.clflush(Reg::X2, 5);
        asm.halt();
        assert_engines_agree(&asm.assemble().unwrap(), 1000);
    }

    #[test]
    fn control_flow_and_calls_match_reference() {
        let mut asm = Asm::new();
        let f = asm.new_label();
        let done = asm.new_label();
        asm.li(Reg::X2, 3);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.call(f);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(f);
        asm.addi(Reg::X5, Reg::X5, 7);
        asm.ret();
        asm.bind(done);
        asm.halt();
        assert_engines_agree(&asm.assemble().unwrap(), 10_000);
    }

    #[test]
    fn faulting_load_with_handler_matches_reference() {
        let mut asm = Asm::new();
        let h = asm.new_label();
        asm.fault_handler(h);
        asm.li(Reg::X2, KERNEL_BASE);
        asm.load(Reg::X3, Reg::X2, 0, MemSize::B8);
        asm.halt();
        asm.bind(h);
        asm.li(Reg::X4, 1);
        asm.halt();
        assert_engines_agree(&asm.assemble().unwrap(), 1000);
    }

    #[test]
    fn faulting_msr_read_matches_reference() {
        let mut asm = Asm::new();
        let h = asm.new_label();
        asm.fault_handler(h);
        asm.msr(1, 0x42).msr(2, 0x43).msr_user_ok(2);
        asm.rdmsr(Reg::X5, 2);
        asm.rdmsr(Reg::X6, 1); // faults
        asm.halt();
        asm.bind(h);
        asm.halt();
        assert_engines_agree(&asm.assemble().unwrap(), 1000);
    }

    /// The literal event order of a short run: a multiply, a `rdcycle`, a
    /// privileged load that faults into the handler, a store, a `clflush`
    /// and the halt.
    #[test]
    fn hook_order_is_pinned_including_a_faulting_step() {
        let mut asm = Asm::new();
        let h = asm.new_label();
        asm.fault_handler(h);
        asm.li(Reg::X2, KERNEL_BASE);
        asm.mul(Reg::X3, Reg::X2, Reg::X2);
        asm.rdcycle(Reg::X4);
        asm.load(Reg::X5, Reg::X2, 8, MemSize::B8); // faults
        asm.halt();
        asm.bind(h);
        asm.st8(Reg::X4, Reg::X0, 0x100);
        asm.clflush(Reg::X0, 0x100);
        asm.halt();
        let p = asm.assemble().unwrap();
        let tp = TranslatedProgram::new(&p);
        let mut interp = Interp::new(&p);
        let mut rec = Recorder::default();
        assert_eq!(interp.run_translated(&tp, 100, &mut rec), Ok(7));
        let fault = Fault::PrivilegedAccess {
            addr: KERNEL_BASE + 8,
        };
        let line = p.inst_addr(0) / 64;
        let inst = |pc: usize| format!("inst {:#x} {line}", p.inst_addr(pc));
        let want = [
            "stop".to_string(),
            inst(0),
            "retire 1 Arith".into(),
            "stop".into(),
            inst(1),
            "muldiv 3".into(),
            "retire 3 Arith".into(),
            "stop".into(),
            inst(2),
            "rdcycle 2".into(),
            "retire 1 Serializing".into(),
            "stop".into(),
            inst(3),
            format!("fault {fault}"),
            "stop".into(),
            inst(5),
            "data 0x100".into(),
            "retire 1 Store".into(),
            "stop".into(),
            inst(6),
            "flush 0x100".into(),
            "retire 1 Arith".into(),
            "stop".into(),
            inst(7),
            "retire 1 Serializing".into(),
        ];
        assert_eq!(rec.events, want);
        assert_engines_agree(&p, 100);
    }

    /// A hook that stops after `budget` retirements and reads a clock.
    struct Clock {
        cycle: u64,
        budget: u64,
        retired: u64,
    }

    impl ExecHooks for Clock {
        fn stop(&mut self) -> bool {
            self.retired >= self.budget
        }
        fn rdcycle(&mut self, _retired: u64) -> u64 {
            self.cycle
        }
        fn retire(&mut self, latency: u64, _class: UopClass) {
            self.cycle += latency;
            self.retired += 1;
        }
    }

    #[test]
    fn rdcycle_reads_the_hook_and_stop_ends_the_run_resumably() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 7);
        asm.alui(AluOp::Div, Reg::X3, Reg::X2, 2);
        asm.rdcycle(Reg::X4);
        asm.rdcycle(Reg::X5);
        asm.halt();
        let p = asm.assemble().unwrap();
        let tp = TranslatedProgram::new(&p);
        let mut interp = Interp::new(&p);
        let mut clock = Clock {
            cycle: 100,
            budget: 3,
            retired: 0,
        };
        assert_eq!(interp.run_translated(&tp, 100, &mut clock), Ok(3));
        assert!(!interp.halted());
        assert_eq!(interp.pc(), 3, "stopped before the fourth step");
        assert_eq!(interp.reg(Reg::X4), 125, "li 1 + div 24 cycles");
        clock.budget = u64::MAX;
        assert_eq!(interp.run_translated(&tp, 100, &mut clock), Ok(2));
        assert!(interp.halted());
        assert_eq!(interp.reg(Reg::X5), 126);
        assert_eq!(clock.cycle, 128);
    }

    #[test]
    fn unhandled_fault_is_the_same_error() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, KERNEL_BASE);
        asm.load(Reg::X3, Reg::X2, 0, MemSize::B8);
        asm.halt();
        let p = asm.assemble().unwrap();
        let tp = TranslatedProgram::new(&p);
        let mut fast = Interp::new(&p);
        let err = fast
            .run_translated(&tp, 1000, &mut NoHooks)
            .expect_err("must fault");
        let mut reference = Interp::new(&p);
        let ref_err = reference.run(1000).expect_err("must fault");
        assert_eq!(err, ref_err);
        // The fault is reported before the run ends with it.
        assert_engines_agree(&p, 1000);
    }

    #[test]
    fn pc_out_of_range_is_the_same_error() {
        let mut asm = Asm::new();
        asm.nop();
        let p = asm.assemble().unwrap();
        let tp = TranslatedProgram::new(&p);
        let mut fast = Interp::new(&p);
        assert_eq!(
            fast.run_translated(&tp, 10, &mut NoHooks),
            Err(InterpError::PcOutOfRange { pc: 1 })
        );
        assert_engines_agree(&p, 10);
    }

    #[test]
    fn step_budget_stops_mid_program_resumably() {
        let mut asm = Asm::new();
        let top = asm.here_label();
        asm.addi(Reg::X2, Reg::X2, 1);
        asm.beq(Reg::X0, Reg::X0, top);
        let p = asm.assemble().unwrap();
        let tp = TranslatedProgram::new(&p);
        let mut fast = Interp::new(&p);
        // Drive in uneven chunks; state must track the reference stepping.
        let mut total = 0u64;
        for chunk in [1u64, 3, 2, 10] {
            total += fast.run_translated(&tp, chunk, &mut NoHooks).unwrap();
        }
        let mut reference = Interp::new(&p);
        for _ in 0..total {
            reference.step().unwrap();
        }
        assert_eq!(fast, reference);
    }

    #[test]
    fn halted_interp_executes_nothing() {
        let p = Program::empty();
        let tp = TranslatedProgram::new(&p);
        let mut i = Interp::new(&p);
        assert_eq!(i.run_translated(&tp, 10, &mut NoHooks).unwrap(), 1);
        assert!(i.halted());
        assert_eq!(i.run_translated(&tp, 10, &mut NoHooks).unwrap(), 0);
    }

    #[test]
    fn fuzzed_programs_match_reference() {
        for seed in 0..40u64 {
            let p = generate(seed, GenConfig::default());
            assert_engines_agree(&p, 200_000);
        }
    }
}
