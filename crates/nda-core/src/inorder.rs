//! The blocking in-order baseline (gem5 `TimingSimpleCPU` analogue).
//!
//! One instruction at a time, no speculation of any kind: branches resolve
//! before the next fetch, memory accesses block for their full latency.
//! This is the paper's lower bound — the only pre-NDA execution model known
//! to defeat all 25 documented speculative-execution attacks — and the
//! other end of the performance gap NDA closes 68-96 % of.

use crate::config::SimConfig;
use crate::run::{RunResult, SimError};
use nda_isa::inst::{Src2, UopClass};
use nda_isa::{Fault, Inst, MsrFile, PrivilegeMap, Program, Reg, SparseMem};
use nda_mem::{MemHier, MemHierState};
use nda_stats::{CpiClass, SimStats};

/// The in-order core. Construct with [`InOrderCore::new`], drive with
/// [`InOrderCore::run`].
#[derive(Debug, Clone)]
pub struct InOrderCore {
    cfg: SimConfig,
    program: Program,
    /// Architectural memory.
    pub mem: SparseMem,
    /// Model-specific registers.
    pub msrs: MsrFile,
    priv_map: PrivilegeMap,
    /// Cache/DRAM timing.
    pub hier: MemHier,
    regs: [u64; 32],
    pc: usize,
    cycle: u64,
    halted: bool,
    last_line: Option<u64>,
    /// Cycle the multiply unit last finished (FPU power model).
    fpu_busy_until: Option<u64>,
    /// Statistics for the run.
    pub stats: SimStats,
}

impl InOrderCore {
    /// Build a core with the program loaded.
    pub fn new(cfg: SimConfig, program: &Program) -> InOrderCore {
        let mut mem = SparseMem::new();
        for init in &program.data {
            mem.write_bytes(init.addr, &init.bytes);
        }
        InOrderCore {
            mem,
            msrs: MsrFile::from_program(program),
            priv_map: PrivilegeMap,
            hier: MemHier::new(cfg.mem),
            regs: [0; 32],
            pc: program.entry,
            cycle: 0,
            halted: false,
            last_line: None,
            fpu_busy_until: None,
            stats: SimStats::new(),
            program: program.clone(),
            cfg,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `true` once `Halt` executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Architectural register value.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// All architectural registers.
    pub fn regs(&self) -> [u64; 32] {
        self.regs
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    fn fault(&mut self, f: Fault) -> Result<(), SimError> {
        self.stats.faults += 1;
        match self.program.fault_handler {
            Some(h) => {
                self.pc = h;
                self.last_line = None;
                Ok(())
            }
            None => Err(SimError::UnhandledFault(f)),
        }
    }

    /// Data access that blocks for its full latency; the blocking core can
    /// never exhaust the MSHR file, so refusal retries immediately.
    fn blocking_access(&mut self, addr: u64) -> u64 {
        loop {
            if let Some(acc) = self.hier.access_data(addr, self.cycle) {
                let class = match acc.level {
                    nda_mem::Level::L1 => CpiClass::MemL1,
                    nda_mem::Level::L2 => CpiClass::MemL2,
                    nda_mem::Level::Mem => CpiClass::MemDram,
                };
                self.stats.add_cycles(class, acc.latency);
                return acc.latency;
            }
            self.cycle += 1;
        }
    }

    /// Execute one instruction, advancing the cycle counter by its full
    /// blocking cost.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        let inst = self
            .program
            .fetch(self.pc)
            .ok_or(SimError::PcOutOfRange { pc: self.pc })?;

        // I-fetch: charge the i-cache on line transitions.
        let iaddr = self.program.inst_addr(self.pc);
        let line = iaddr / 64;
        if self.last_line != Some(line) {
            let acc = self.hier.access_inst(iaddr);
            self.cycle += acc.latency;
            self.stats.add_cycles(CpiClass::FrontendFetch, acc.latency);
            self.last_line = Some(line);
        }

        let mut next = self.pc + 1;
        let mut exec_cycles = inst.exec_latency();
        match inst {
            Inst::Li { rd, imm } => self.set_reg(rd, imm),
            Inst::Alu { op, rd, rs1, src2 } => {
                let a = self.reg(rs1);
                let b = match src2 {
                    Src2::Reg(r) => self.reg(r),
                    Src2::Imm(i) => i,
                };
                exec_cycles = op.latency();
                if self.cfg.core.fpu_power_model
                    && matches!(
                        op,
                        nda_isa::AluOp::Mul | nda_isa::AluOp::Div | nda_isa::AluOp::Rem
                    )
                {
                    let awake = self
                        .fpu_busy_until
                        .map(|t| self.cycle.saturating_sub(t) <= self.cfg.core.fpu_power_down_after)
                        .unwrap_or(false);
                    if !awake {
                        exec_cycles += self.cfg.core.fpu_wake_penalty;
                    }
                    self.fpu_busy_until = Some(self.cycle + exec_cycles);
                }
                self.set_reg(rd, op.apply(a, b));
            }
            Inst::Load {
                rd,
                base,
                off,
                size,
            } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                if self.priv_map.is_privileged(addr) {
                    self.cycle += 1;
                    self.bump_issue(1);
                    return self.fault(Fault::PrivilegedAccess { addr });
                }
                let v = self.mem.read(addr, size.bytes());
                exec_cycles += self.blocking_access(addr);
                self.set_reg(rd, v);
            }
            Inst::Store {
                src,
                base,
                off,
                size,
            } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                if self.priv_map.is_privileged(addr) {
                    self.cycle += 1;
                    self.bump_issue(1);
                    return self.fault(Fault::PrivilegedAccess { addr });
                }
                let v = self.reg(src);
                self.mem.write(addr, v, size.bytes());
                exec_cycles += self.blocking_access(addr);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    next = target;
                }
            }
            Inst::Jmp { target } => next = target,
            Inst::JmpInd { base } => next = self.reg(base) as usize,
            Inst::Call { target } => {
                self.set_reg(nda_isa::reg::RA, (self.pc + 1) as u64);
                next = target;
            }
            Inst::CallInd { base } => {
                let t = self.reg(base) as usize;
                self.set_reg(nda_isa::reg::RA, (self.pc + 1) as u64);
                next = t;
            }
            Inst::Ret => next = self.reg(nda_isa::reg::RA) as usize,
            Inst::RdCycle { rd } => {
                let now = self.cycle;
                self.set_reg(rd, now);
            }
            Inst::RdMsr { rd, idx } => {
                if !self.msrs.user_may_read(idx) {
                    self.cycle += 1;
                    self.bump_issue(1);
                    return self.fault(Fault::PrivilegedMsr { idx });
                }
                let v = self.msrs.read(idx);
                self.set_reg(rd, v);
            }
            Inst::ClFlush { base, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                self.hier.flush_line(addr);
            }
            Inst::Fence | Inst::SpecOff | Inst::SpecOn | Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
            }
        }
        self.cycle += exec_cycles;
        self.bump_issue(exec_cycles);
        self.stats.committed_insts += 1;
        self.stats.add_cycles(CpiClass::Commit, 1);
        match inst.class() {
            UopClass::Load | UopClass::LoadLike => self.stats.committed_loads += 1,
            UopClass::Store => self.stats.committed_stores += 1,
            UopClass::Branch => self.stats.committed_branches += 1,
            _ => {}
        }
        if !self.halted {
            self.pc = next;
        }
        Ok(())
    }

    /// Record one issued instruction spanning `cycles` of execution (keeps
    /// the ILP metric <= 1.0 by construction).
    fn bump_issue(&mut self, _cycles: u64) {
        self.stats.issued_insts += 1;
        self.stats.issue_active_cycles += 1;
    }

    /// Run until `Halt` or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        while !self.halted {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit {
                    cycles: self.cycle,
                    snapshot: None,
                });
            }
            self.step()?;
        }
        self.stats.cycles = self.cycle;
        // The in-order machine issues exactly one instruction per "active"
        // window; classify every remaining cycle (non-unit execution
        // latencies) as backend execution so the stack partitions exactly.
        // The blocking model never delays a broadcast: nda-delay stays 0.
        let rem = self.cycle.saturating_sub(self.stats.cpi_stack.total());
        self.stats.add_cycles(CpiClass::BackendExec, rem);
        Ok(self.result())
    }

    /// Snapshot the run result.
    pub fn result(&self) -> RunResult {
        RunResult {
            stats: self.stats,
            mem_stats: self.hier.stats(),
            regs: self.regs,
            halted: self.halted,
            host_ns: 0,
            sampled: None,
        }
    }

    /// Load architectural state and a warmed cache hierarchy from a
    /// sampled-simulation checkpoint (see [`crate::sampled`]). The warmed
    /// lines are written into the core's own cold hierarchy. The blocking
    /// core has no predictors, so the checkpoint's predictor state does not
    /// apply.
    ///
    /// # Panics
    ///
    /// Panics unless the core is freshly constructed (cycle 0), or if the
    /// snapshot does not fit the core's cache geometry.
    pub fn restore_checkpoint(&mut self, interp: &nda_isa::Interp, hier: &MemHierState) {
        assert!(
            self.cycle == 0 && self.stats.committed_insts == 0,
            "checkpoint restore requires a freshly constructed core"
        );
        self.regs = *interp.regs();
        self.pc = interp.pc();
        self.mem = interp.mem.clone();
        self.msrs = interp.msrs.clone();
        let fits = self.hier.restore_state(hier);
        assert!(fits, "checkpoint does not fit the core's cache geometry");
        self.halted = interp.halted();
        self.last_line = None;
    }

    /// Record a cycle-class (used by the shared reporting path; the
    /// in-order model accounts stalls inline instead).
    pub fn record_cycle(&mut self, class: CpiClass) {
        self.stats.record_cycle(class);
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use nda_isa::Asm;

    fn run(asm: &Asm) -> InOrderCore {
        let p = asm.assemble().unwrap();
        let mut c = InOrderCore::new(SimConfig::for_variant(crate::Variant::InOrder), &p);
        c.run(10_000_000).unwrap();
        c
    }

    #[test]
    fn arithmetic() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 40).addi(Reg::X3, Reg::X2, 2).halt();
        let c = run(&asm);
        assert_eq!(c.reg(Reg::X3), 42);
    }

    #[test]
    fn memory_blocks_for_latency() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 0x5_0000);
        asm.ld8(Reg::X3, Reg::X2, 0); // cold miss: 144 cycles
        asm.halt();
        let c = run(&asm);
        assert!(
            c.cycle() > 144,
            "blocking load must pay the full miss ({})",
            c.cycle()
        );
    }

    #[test]
    fn ilp_cannot_exceed_one() {
        let mut asm = Asm::new();
        for i in 0..50 {
            asm.li(Reg::X2, i);
        }
        asm.halt();
        let c = run(&asm);
        assert!(c.stats.ilp() <= 1.0);
    }

    #[test]
    fn branches_have_no_misprediction() {
        let mut asm = Asm::new();
        let done = asm.new_label();
        asm.li(Reg::X2, 50);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        asm.halt();
        let c = run(&asm);
        assert_eq!(c.stats.branch_mispredicts, 0);
        assert_eq!(c.reg(Reg::X2), 0);
    }

    #[test]
    fn fault_with_handler() {
        let mut asm = Asm::new();
        let h = asm.new_label();
        asm.fault_handler(h);
        asm.li(Reg::X2, nda_isa::KERNEL_BASE);
        asm.ld8(Reg::X3, Reg::X2, 0);
        asm.halt();
        asm.bind(h);
        asm.li(Reg::X4, 5);
        asm.halt();
        let c = run(&asm);
        assert_eq!(c.reg(Reg::X4), 5);
        assert_eq!(c.reg(Reg::X3), 0);
        assert_eq!(c.stats.faults, 1);
    }

    #[test]
    fn rdcycle_monotonic() {
        let mut asm = Asm::new();
        asm.rdcycle(Reg::X2);
        asm.rdcycle(Reg::X3);
        asm.halt();
        let c = run(&asm);
        assert!(c.reg(Reg::X3) > c.reg(Reg::X2));
    }
}
