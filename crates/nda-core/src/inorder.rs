//! The blocking in-order baseline (gem5 `TimingSimpleCPU` analogue).
//!
//! One instruction at a time, no speculation of any kind: branches resolve
//! before the next fetch, memory accesses block for their full latency.
//! This is the paper's lower bound — the only pre-NDA execution model known
//! to defeat all 25 documented speculative-execution attacks — and the
//! other end of the performance gap NDA closes 68-96 % of.
//!
//! Like `TimingSimpleCPU`, it is a timing model over shared functional
//! execution: the architectural state is an [`Interp`] stepped by
//! [`Interp::run_translated`], and the core only charges latencies on the
//! [`ExecHooks`] events that engine reports (DESIGN.md §3.6). The ISA
//! semantics therefore live in the interpreter alone.

use crate::config::{CoreConfig, SimConfig};
use crate::run::{RunResult, SimError};
use crate::sampled::interp_err;
use nda_isa::inst::UopClass;
use nda_isa::{ExecHooks, Fault, Interp, Program, Reg, SparseMem, TranslatedProgram};
use nda_mem::{MemHier, MemHierState};
use nda_stats::{CpiClass, SimStats};

/// The in-order core. Construct with [`InOrderCore::new`], drive with
/// [`InOrderCore::run`].
#[derive(Debug, Clone)]
pub struct InOrderCore {
    /// Architectural state: registers, PC, memory, MSRs, halt flag.
    interp: Interp,
    tp: TranslatedProgram,
    /// Cache/DRAM timing.
    pub hier: MemHier,
    clock: Clock,
    /// Statistics for the run.
    pub stats: SimStats,
}

/// The timing state the blocking model keeps besides the hierarchy.
#[derive(Debug, Clone)]
struct Clock {
    cycle: u64,
    /// I-cache line most recently fetched from.
    last_line: Option<u64>,
    /// Cycle the multiply unit last finished (FPU power model).
    fpu_busy_until: Option<u64>,
    core: CoreConfig,
}

/// The [`ExecHooks`] that charge the blocking latencies of the steps
/// that start before cycle `limit`. Every issue spans one "active"
/// cycle however long it executes, which keeps ILP <= 1.0.
struct Timing<'a> {
    clock: &'a mut Clock,
    hier: &'a mut MemHier,
    stats: &'a mut SimStats,
    limit: u64,
}

impl ExecHooks for Timing<'_> {
    #[inline]
    fn stop(&mut self) -> bool {
        self.clock.cycle >= self.limit
    }

    /// Charge the i-cache on line transitions.
    #[inline]
    fn inst(&mut self, iaddr: u64, iline: u64) {
        if self.clock.last_line != Some(iline) {
            let acc = self.hier.access_inst(iaddr);
            self.clock.cycle += acc.latency;
            self.stats.add_cycles(CpiClass::FrontendFetch, acc.latency);
            self.clock.last_line = Some(iline);
        }
    }

    /// A powered-down multiply unit pays the wake penalty first.
    #[inline]
    fn mul_div(&mut self, latency: u64) {
        let c = &mut *self.clock;
        if c.core.fpu_power_model {
            let awake = c
                .fpu_busy_until
                .is_some_and(|t| c.cycle.saturating_sub(t) <= c.core.fpu_power_down_after);
            if !awake {
                c.cycle += c.core.fpu_wake_penalty;
            }
            c.fpu_busy_until = Some(c.cycle + latency);
        }
    }

    #[inline]
    fn rdcycle(&mut self, _retired: u64) -> u64 {
        self.clock.cycle
    }

    /// A data access blocks for its full latency; the blocking core can
    /// never exhaust the MSHR file, so refusal retries immediately.
    #[inline]
    fn data(&mut self, addr: u64) {
        let acc = loop {
            match self.hier.access_data(addr, self.clock.cycle) {
                Some(acc) => break acc,
                None => self.clock.cycle += 1,
            }
        };
        let class = match acc.level {
            nda_mem::Level::L1 => CpiClass::MemL1,
            nda_mem::Level::L2 => CpiClass::MemL2,
            nda_mem::Level::Mem => CpiClass::MemDram,
        };
        self.stats.add_cycles(class, acc.latency);
        self.clock.cycle += acc.latency;
    }

    /// A fault costs one cycle and one issue, and the redirect refetches.
    #[inline]
    fn fault(&mut self, _fault: Fault) {
        self.clock.cycle += 1;
        self.stats.issued_insts += 1;
        self.stats.issue_active_cycles += 1;
        self.stats.faults += 1;
        self.clock.last_line = None;
    }

    #[inline]
    fn flush(&mut self, addr: u64) {
        self.hier.flush_line(addr);
    }

    #[inline]
    fn retire(&mut self, latency: u64, class: UopClass) {
        self.clock.cycle += latency;
        self.stats.issued_insts += 1;
        self.stats.issue_active_cycles += 1;
        self.stats.committed_insts += 1;
        self.stats.add_cycles(CpiClass::Commit, 1);
        match class {
            UopClass::Load | UopClass::LoadLike => self.stats.committed_loads += 1,
            UopClass::Store => self.stats.committed_stores += 1,
            UopClass::Branch => self.stats.committed_branches += 1,
            _ => {}
        }
    }
}

impl InOrderCore {
    /// Build a core with the program loaded.
    pub fn new(cfg: SimConfig, program: &Program) -> InOrderCore {
        InOrderCore {
            interp: Interp::new(program),
            tp: TranslatedProgram::new(program),
            hier: MemHier::new(cfg.mem),
            clock: Clock {
                cycle: 0,
                last_line: None,
                fpu_busy_until: None,
                core: cfg.core,
            },
            stats: SimStats::new(),
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.clock.cycle
    }

    /// `true` once `Halt` executed.
    pub fn halted(&self) -> bool {
        self.interp.halted()
    }

    /// Architectural register value.
    pub fn reg(&self, r: Reg) -> u64 {
        self.interp.reg(r)
    }

    /// All architectural registers.
    pub fn regs(&self) -> [u64; 32] {
        *self.interp.regs()
    }

    /// Architectural memory.
    pub fn mem(&self) -> &SparseMem {
        &self.interp.mem
    }

    /// Execute up to `max_steps` instructions, stopping before a step
    /// that would start at or past cycle `limit`.
    fn advance(&mut self, max_steps: u64, limit: u64) -> Result<(), SimError> {
        let mut timing = Timing {
            clock: &mut self.clock,
            hier: &mut self.hier,
            stats: &mut self.stats,
            limit,
        };
        self.interp
            .run_translated(&self.tp, max_steps, &mut timing)
            .map(drop)
            .map_err(interp_err)
    }

    /// Execute one instruction, advancing the cycle counter by its full
    /// blocking cost.
    ///
    /// # Errors
    ///
    /// [`SimError::PcOutOfRange`] and [`SimError::UnhandledFault`].
    pub fn step(&mut self) -> Result<(), SimError> {
        self.advance(1, u64::MAX)
    }

    /// Run until `Halt` or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        self.advance(u64::MAX, max_cycles)?;
        let cycles = self.clock.cycle;
        if !self.halted() {
            return Err(SimError::CycleLimit {
                cycles,
                snapshot: None,
            });
        }
        self.stats.cycles = cycles;
        // The in-order machine issues exactly one instruction per "active"
        // window; classify every remaining cycle (non-unit execution
        // latencies) as backend execution so the stack partitions exactly.
        // The blocking model never delays a broadcast: nda-delay stays 0.
        let rem = cycles.saturating_sub(self.stats.cpi_stack.total());
        self.stats.add_cycles(CpiClass::BackendExec, rem);
        Ok(self.result())
    }

    /// Snapshot the run result.
    pub fn result(&self) -> RunResult {
        RunResult {
            stats: self.stats,
            mem_stats: self.hier.stats(),
            regs: self.regs(),
            halted: self.halted(),
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
    pub fn restore_checkpoint(&mut self, interp: &Interp, hier: &MemHierState) {
        assert!(
            self.clock.cycle == 0 && self.stats.committed_insts == 0,
            "checkpoint restore requires a freshly constructed core"
        );
        self.interp = interp.clone();
        let fits = self.hier.restore_state(hier);
        assert!(fits, "checkpoint does not fit the core's cache geometry");
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
