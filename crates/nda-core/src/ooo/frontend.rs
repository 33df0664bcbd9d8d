//! The front end: fetch, predict, and the fetch→dispatch pipe.
//!
//! Fetch follows predictions blindly — including down wrong paths. The
//! queue models the front-end pipeline depth: a micro-op fetched at cycle
//! `t` becomes eligible for dispatch at `t + fetch_to_dispatch`, which is
//! what makes a misprediction cost ~16 cycles end to end (the penalty the
//! paper measures for its BTB covert channel, Fig 5).
//!
//! A micro-op that may mispredict carries no RAS snapshot of its own, only
//! a [`RasSlot`] naming one in the front end's `RasRing`: the snapshots
//! are taken in fetch order and die in the same order (commit releases the
//! oldest, a squash or redirect drops the youngest), so one FIFO holds
//! them all and the fetch queue and ROB entries stay small.

use nda_isa::{Inst, Program};
use nda_mem::{Level, MemHier};
use nda_predict::{Btb, DirPredictor, Ras, RasSnapshot};
use std::collections::VecDeque;

/// A fetched, predicted micro-op waiting to dispatch.
#[derive(Debug, Clone)]
pub struct FetchedUop {
    /// Instruction index.
    pub pc: usize,
    /// The decoded micro-op.
    pub inst: Inst,
    /// Predicted next PC (where fetch went after this).
    pub pred_next: usize,
    /// Cycle at which dispatch may consume this micro-op.
    pub ready_cycle: u64,
    /// Predicted direction (conditional branches only).
    pub pred_taken: bool,
    /// GHR snapshot just before predicting this branch.
    pub ghr_before: u64,
    /// Ring slot of the RAS snapshot taken just after this micro-op's own
    /// push/pop (conditional branches, indirect jumps and calls, returns:
    /// what can mispredict).
    pub ras_after: Option<RasSlot>,
}

/// Names one snapshot in the front end's `RasRing`. Slots count up in
/// fetch order and wrap at `u32::MAX`; at most a ROB plus a fetch buffer
/// of them are live.
pub type RasSlot = u32;

/// The squash-recovery RAS snapshots of the fetched, not yet retired
/// micro-ops that may mispredict, oldest first. Fetch pushes, commit
/// releases the oldest, and a squash or redirect drops the youngest, so
/// the live snapshots are always one contiguous run of slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct RasRing {
    snaps: VecDeque<RasSnapshot>,
    /// Slot of `snaps[0]`.
    base: RasSlot,
}

impl RasRing {
    /// Append the youngest snapshot; returns its slot.
    pub(crate) fn push(&mut self, snap: RasSnapshot) -> RasSlot {
        self.snaps.push_back(snap);
        self.base.wrapping_add(self.snaps.len() as u32 - 1)
    }

    /// The snapshot in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live.
    pub(crate) fn get(&self, slot: RasSlot) -> RasSnapshot {
        self.snaps[slot.wrapping_sub(self.base) as usize]
    }

    /// Release the oldest snapshot, which must be `slot` (its micro-op
    /// retired).
    pub(crate) fn release(&mut self, slot: RasSlot) {
        debug_assert_eq!(slot, self.base, "ras snapshots retire in fetch order");
        self.snaps.pop_front();
        self.base = self.base.wrapping_add(1);
    }

    /// Drop `slot` and every younger snapshot (squash); a no-op for a
    /// slot already dropped.
    pub(crate) fn truncate(&mut self, slot: RasSlot) {
        self.snaps.truncate(slot.wrapping_sub(self.base) as usize);
    }

    /// The live slots, oldest first.
    pub(crate) fn slots(&self) -> impl Iterator<Item = RasSlot> + '_ {
        (0..self.snaps.len() as u32).map(|i| self.base.wrapping_add(i))
    }
}

/// Fetch parameters (subset of the core config the front end needs).
#[derive(Debug, Clone, Copy)]
pub struct FrontEndConfig {
    /// Micro-ops fetched per cycle.
    pub fetch_width: usize,
    /// Fetch→dispatch latency in cycles.
    pub fetch_to_dispatch: u64,
    /// Queue capacity.
    pub fetch_buffer: usize,
}

/// The fetch unit. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct FrontEnd {
    cfg: FrontEndConfig,
    /// Next PC to fetch.
    pub fetch_pc: usize,
    queue: VecDeque<FetchedUop>,
    stall_until: u64,
    /// The i-cache line most recently fetched from (avoids re-charging).
    last_line: Option<u64>,
    /// Direction predictor.
    pub dir: DirPredictor,
    /// Branch target buffer.
    pub btb: Btb,
    /// Return address stack.
    pub ras: Ras,
    /// Snapshots of `ras` for the in-flight micro-ops that may mispredict.
    pub(crate) ras_snaps: RasRing,
}

impl FrontEnd {
    /// A front end starting at `entry`.
    pub fn new(cfg: FrontEndConfig, dir: DirPredictor, btb: Btb, entry: usize) -> FrontEnd {
        FrontEnd {
            cfg,
            fetch_pc: entry,
            queue: VecDeque::with_capacity(cfg.fetch_buffer),
            stall_until: 0,
            last_line: None,
            dir,
            btb,
            ras: Ras::new(),
            ras_snaps: RasRing::default(),
        }
    }

    /// Number of queued micro-ops.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Squash recovery: discard everything fetched (and its RAS
    /// snapshots), restart at `pc` next cycle.
    pub fn redirect(&mut self, now: u64, pc: usize) {
        if let Some(slot) = self.queue.iter().find_map(|u| u.ras_after) {
            self.ras_snaps.truncate(slot);
        }
        self.queue.clear();
        self.fetch_pc = pc;
        self.stall_until = now + 1;
        self.last_line = None;
    }

    /// Pop the next micro-op if its pipeline delay has elapsed.
    pub fn pop_ready(&mut self, now: u64) -> Option<FetchedUop> {
        if self.queue.front().map(|u| u.ready_cycle <= now) == Some(true) {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Peek without consuming (dispatch resource checks).
    pub fn peek_ready(&self, now: u64) -> Option<&FetchedUop> {
        self.queue.front().filter(|u| u.ready_cycle <= now)
    }

    /// The queued micro-ops, oldest first.
    pub(crate) fn queue(&self) -> impl Iterator<Item = &FetchedUop> {
        self.queue.iter()
    }

    /// Run one fetch cycle: predict and enqueue up to `fetch_width`
    /// micro-ops, stopping at a predicted-taken branch, a full buffer, an
    /// i-cache miss, or the end of the text segment.
    pub fn fetch_cycle(&mut self, now: u64, program: &Program, hier: &mut MemHier) {
        if now < self.stall_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.queue.len() >= self.cfg.fetch_buffer {
                break;
            }
            let pc = self.fetch_pc;
            let Some(inst) = program.fetch(pc) else {
                // Ran off the text segment (wrong path, or a program bug a
                // squash will redirect us out of).
                break;
            };
            // I-cache: charge per line transition; a miss stalls fetch.
            let addr = program.inst_addr(pc);
            let line = addr / 64;
            if self.last_line != Some(line) {
                let acc = hier.access_inst(addr);
                if acc.level != Level::L1 {
                    self.stall_until = now + acc.latency;
                    return;
                }
                self.last_line = Some(line);
            }

            let mut uop = FetchedUop {
                pc,
                inst,
                pred_next: pc + 1,
                ready_cycle: now + self.cfg.fetch_to_dispatch,
                pred_taken: false,
                ghr_before: 0,
                ras_after: None,
            };
            let mut redirect_target: Option<usize> = None;
            match inst {
                Inst::Branch { target, .. } => {
                    uop.ghr_before = self.dir.ghr();
                    uop.pred_taken = self.dir.predict(addr);
                    if uop.pred_taken {
                        uop.pred_next = target;
                        redirect_target = Some(target);
                    }
                }
                // Direct jumps resolve at dispatch and never mispredict:
                // no snapshot.
                Inst::Jmp { target } => {
                    uop.pred_next = target;
                    redirect_target = Some(target);
                }
                Inst::Call { target } => {
                    self.ras.push(pc + 1);
                    uop.pred_next = target;
                    redirect_target = Some(target);
                }
                Inst::JmpInd { .. } => {
                    if let Some(t) = self.btb.lookup(addr) {
                        uop.pred_next = t;
                        redirect_target = Some(t);
                    }
                }
                Inst::CallInd { .. } => {
                    self.ras.push(pc + 1);
                    if let Some(t) = self.btb.lookup(addr) {
                        uop.pred_next = t;
                        redirect_target = Some(t);
                    }
                }
                Inst::Ret => {
                    if let Some(t) = self.ras.pop() {
                        uop.pred_next = t;
                        redirect_target = Some(t);
                    }
                }
                _ => {}
            }
            if matches!(
                inst,
                Inst::Branch { .. } | Inst::JmpInd { .. } | Inst::CallInd { .. } | Inst::Ret
            ) {
                uop.ras_after = Some(self.ras_snaps.push(self.ras.snapshot()));
            }
            let taken_redirect = redirect_target.is_some() && uop.pred_next != pc + 1;
            self.queue.push_back(uop);
            if let Some(t) = redirect_target {
                self.fetch_pc = t;
                if taken_redirect {
                    // One taken-branch redirect per cycle.
                    break;
                }
            } else {
                self.fetch_pc = pc + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nda_isa::{Asm, Reg};
    use nda_mem::MemHierConfig;
    use nda_predict::{BtbConfig, Gshare, GshareConfig, PredictorKind};

    fn fe(entry: usize) -> FrontEnd {
        let _ = PredictorKind::Gshare;
        FrontEnd::new(
            FrontEndConfig {
                fetch_width: 4,
                fetch_to_dispatch: 3,
                fetch_buffer: 16,
            },
            DirPredictor::Gshare(Gshare::new(GshareConfig::default())),
            Btb::new(BtbConfig::default()),
            entry,
        )
    }

    fn warm_hier() -> MemHier {
        MemHier::new(MemHierConfig::haswell_like())
    }

    #[test]
    fn straight_line_fetch_respects_pipeline_delay() {
        let mut asm = Asm::new();
        for _ in 0..8 {
            asm.nop();
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut f = fe(0);
        let mut h = warm_hier();
        // Cycle 0: icache cold -> stall, nothing fetched.
        f.fetch_cycle(0, &p, &mut h);
        assert_eq!(f.queued(), 0);
        // After the miss resolves, fetch proceeds.
        let resume = 4 + 40 + 100;
        f.fetch_cycle(resume, &p, &mut h);
        assert_eq!(f.queued(), 4);
        assert!(
            f.pop_ready(resume).is_none(),
            "pipeline delay not yet elapsed"
        );
        assert!(f.pop_ready(resume + 3).is_some());
    }

    #[test]
    fn taken_jmp_redirects_within_cycle() {
        let mut asm = Asm::new();
        let l = asm.new_label();
        asm.jmp(l); // 0
        asm.nop(); // 1 (skipped)
        asm.bind(l);
        asm.halt(); // 2
        let p = asm.assemble().unwrap();
        let mut f = fe(0);
        let mut h = warm_hier();
        f.fetch_cycle(0, &p, &mut h); // cold miss
        f.fetch_cycle(200, &p, &mut h);
        // Only the jmp was fetched this cycle; next fetch starts at 2.
        assert_eq!(f.queued(), 1);
        assert_eq!(f.fetch_pc, 2);
        let u = f.pop_ready(203).unwrap();
        assert_eq!(u.pred_next, 2);
    }

    #[test]
    fn call_ret_pair_predicts_via_ras() {
        let mut asm = Asm::new();
        let func = asm.new_label();
        asm.call(func); // 0 -> 2
        asm.halt(); // 1
        asm.bind(func);
        asm.ret(); // 2 -> predicted 1
        let p = asm.assemble().unwrap();
        let mut f = fe(0);
        let mut h = warm_hier();
        f.fetch_cycle(0, &p, &mut h);
        f.fetch_cycle(200, &p, &mut h); // fetches call, redirects to 2
        f.fetch_cycle(201, &p, &mut h); // fetches ret, predicts 1 via RAS
        let call = f.pop_ready(205).unwrap();
        assert_eq!(call.pred_next, 2);
        let ret = f.pop_ready(206).unwrap();
        assert!(matches!(ret.inst, Inst::Ret));
        assert_eq!(ret.pred_next, 1, "RAS predicted the return");
    }

    #[test]
    fn indirect_without_btb_predicts_fallthrough() {
        let mut asm = Asm::new();
        asm.jmp_ind(Reg::X2); // 0
        asm.nop(); // 1
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut f = fe(0);
        let mut h = warm_hier();
        f.fetch_cycle(0, &p, &mut h);
        f.fetch_cycle(200, &p, &mut h);
        let u = f.pop_ready(210).unwrap();
        assert_eq!(u.pred_next, 1, "BTB miss predicts fall-through");
    }

    #[test]
    fn ras_ring_is_a_fifo_of_slots() {
        let mut ring = RasRing {
            base: u32::MAX - 1,
            ..RasRing::default()
        };
        let mut ras = Ras::new();
        let a = ring.push(ras.snapshot());
        ras.push(7);
        let b = ring.push(ras.snapshot());
        let c = ring.push(ras.snapshot());
        // Slots wrap.
        assert_eq!((a, b, c), (u32::MAX - 1, u32::MAX, 0));
        assert_eq!(ring.get(b), ras.snapshot());
        ring.release(a);
        ring.truncate(c);
        ring.truncate(c); // already dropped: no-op
        assert_eq!(ring.slots().collect::<Vec<_>>(), vec![b]);
        assert_eq!(ring.push(ras.snapshot()), c, "a dropped slot is reused");
    }

    #[test]
    fn redirect_drops_the_queued_ras_snapshots() {
        let mut asm = Asm::new();
        let l = asm.new_label();
        asm.beq(Reg::X2, Reg::X0, l); // 0: snapshot
        asm.nop(); // 1
        asm.bind(l);
        asm.ret(); // 2: snapshot
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut f = fe(0);
        let mut h = warm_hier();
        f.fetch_cycle(0, &p, &mut h);
        f.fetch_cycle(200, &p, &mut h);
        let held: Vec<_> = f.queue().filter_map(|u| u.ras_after).collect();
        assert_eq!(held, vec![0, 1]);
        assert_eq!(f.ras_snaps.slots().collect::<Vec<_>>(), held);
        let branch = f.pop_ready(203).unwrap();
        f.redirect(204, 1);
        // The dispatched branch keeps its snapshot; the queued ret's goes.
        assert_eq!(f.ras_snaps.slots().collect::<Vec<_>>(), vec![0]);
        assert_eq!(branch.ras_after, Some(0));
    }

    #[test]
    fn redirect_clears_queue() {
        let mut asm = Asm::new();
        for _ in 0..6 {
            asm.nop();
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut f = fe(0);
        let mut h = warm_hier();
        f.fetch_cycle(0, &p, &mut h);
        f.fetch_cycle(200, &p, &mut h);
        assert!(f.queued() > 0);
        f.redirect(201, 5);
        assert_eq!(f.queued(), 0);
        assert_eq!(f.fetch_pc, 5);
        // Stalled the redirect cycle itself.
        f.fetch_cycle(201, &p, &mut h);
        assert_eq!(f.queued(), 0);
    }
}
