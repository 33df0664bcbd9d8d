//! Fault-injection hooks for the differential harness (`nda-verify`).
//!
//! Each injection is a *timing-only* perturbation: it may slow the
//! pipeline down, replay work, or mislead the predictors, but it must
//! never change the architectural result. The harness drives these from a
//! [`run_hooked`](super::core::OooCore::run_hooked) callback and then
//! asserts bit-exact architectural state against the reference
//! interpreter.
//!
//! Why each hook is architecture-preserving:
//!
//! * **Spurious squash** — squashing from any in-flight entry and
//!   redirecting fetch to that entry's own pc replays exactly the path the
//!   front end would have fetched anyway; an older still-unresolved branch
//!   re-resolves (and re-squashes) identically on the replay.
//! * **Predictor corruption** — the BTB, direction predictor and RAS only
//!   steer *speculative* fetch; every misprediction they cause is caught
//!   at branch resolution and squashed.
//! * **Extra memory latency** — applied through
//!   [`MemHier::set_extra_latency`](nda_mem::MemHier::set_extra_latency);
//!   data still arrives, just later.

use super::core::OooCore;

impl OooCore {
    /// Squash from a pseudo-randomly picked in-flight entry (`pick`
    /// selects among the current ROB occupancy) and redirect fetch to that
    /// entry's pc, as a mis-speculation recovery would. Returns `false`
    /// when the ROB is empty and nothing was injected.
    pub fn inject_spurious_squash(&mut self, pick: u64) -> bool {
        let len = self.rob.len() as u64;
        if len == 0 {
            return false;
        }
        let head_seq = self.rob.head().expect("non-empty rob").seq;
        let seq = head_seq + pick % len;
        let pc = self.rob.get(seq).expect("seq within occupancy").pc();
        let now = self.cycle();
        self.squash_from(seq);
        self.fe.redirect(now, pc);
        true
    }

    /// Corrupt one predictor structure: a bogus BTB target, a poisoned
    /// direction-predictor training, or a RAS push/pop. `sel` chooses the
    /// structure, `val` seeds the corrupt values (reduced into range).
    pub fn inject_predictor_corruption(&mut self, sel: u64, val: u64) {
        let len = self.program.len();
        if len == 0 {
            return;
        }
        let pc = (val as usize) % len;
        let addr = self.program.inst_addr(pc);
        match sel % 4 {
            0 => self.fe.btb.update(addr, (val >> 8) as usize % len),
            1 => self.fe.dir.train(addr, val, val & 1 == 1, val & 2 == 2),
            2 => self.fe.ras.push(pc),
            _ => {
                self.fe.ras.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::OooCore;
    use nda_isa::{AluOp, Asm, Interp, Reg};

    fn fib_program() -> nda_isa::Program {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 0).li(Reg::X3, 1).li(Reg::X4, 12);
        let top = asm.here_label();
        asm.alu(AluOp::Add, Reg::X5, Reg::X2, Reg::X3);
        asm.mov(Reg::X2, Reg::X3);
        asm.mov(Reg::X3, Reg::X5);
        asm.subi(Reg::X4, Reg::X4, 1);
        asm.bne(Reg::X4, Reg::X0, top);
        asm.halt();
        asm.assemble().unwrap()
    }

    fn reference_regs(p: &nda_isa::Program) -> [u64; 32] {
        let mut i = Interp::new(p);
        for _ in 0..100_000 {
            if i.halted() {
                break;
            }
            i.step().unwrap();
        }
        let mut out = [0u64; 32];
        for r in Reg::all() {
            out[r.index()] = i.reg(r);
        }
        out
    }

    #[test]
    fn spurious_squashes_preserve_architecture() {
        let p = fib_program();
        let want = reference_regs(&p);
        let mut cfg = SimConfig::ooo();
        cfg.check_invariants = true;
        let mut core = OooCore::new(cfg, &p);
        let mut tick = 0u64;
        // Throttled well below the refetch-to-commit latency: squashing
        // faster than the pipeline can retire is a genuine livelock the
        // forward-progress watchdog (rightly) reports.
        let r = core
            .run_hooked(1_000_000, |c| {
                tick += 1;
                if tick % 50 == 3 {
                    c.inject_spurious_squash(tick.wrapping_mul(0x9e37_79b9));
                }
            })
            .unwrap();
        assert!(r.halted);
        assert_eq!(r.regs, want);
    }

    #[test]
    fn predictor_corruption_preserves_architecture() {
        let p = fib_program();
        let want = reference_regs(&p);
        let mut cfg = SimConfig::ooo();
        cfg.check_invariants = true;
        let mut core = OooCore::new(cfg, &p);
        let mut tick = 0u64;
        let r = core
            .run_hooked(1_000_000, |c| {
                tick += 1;
                if tick % 5 == 1 {
                    c.inject_predictor_corruption(tick, tick.wrapping_mul(0x517c_c1b7_2722_0a95));
                }
            })
            .unwrap();
        assert!(r.halted);
        assert_eq!(r.regs, want);
    }

    #[test]
    fn extra_memory_latency_preserves_architecture() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 0x10_0000).li(Reg::X3, 0).li(Reg::X4, 8);
        let top = asm.here_label();
        asm.store(Reg::X4, Reg::X2, 0, nda_isa::MemSize::B8);
        asm.load(Reg::X5, Reg::X2, 0, nda_isa::MemSize::B8);
        asm.alu(AluOp::Add, Reg::X3, Reg::X3, Reg::X5);
        asm.addi(Reg::X2, Reg::X2, 8);
        asm.subi(Reg::X4, Reg::X4, 1);
        asm.bne(Reg::X4, Reg::X0, top);
        asm.halt();
        let p = asm.assemble().unwrap();
        let want = reference_regs(&p);
        let mut cfg = SimConfig::ooo();
        cfg.check_invariants = true;
        let mut core = OooCore::new(cfg, &p);
        let mut tick = 0u64;
        let r = core
            .run_hooked(1_000_000, |c| {
                tick += 1;
                c.hier
                    .set_extra_latency(if tick.is_multiple_of(3) { 25 } else { 0 });
            })
            .unwrap();
        assert!(r.halted);
        assert_eq!(r.regs, want);
    }
}
