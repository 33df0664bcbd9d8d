//! End-of-cycle conservation-law checker for the out-of-order core.
//!
//! When [`SimConfig::check_invariants`](crate::SimConfig::check_invariants)
//! is set, [`check`] runs after every simulated cycle and validates the
//! micro-architectural bookkeeping the rest of the model silently relies
//! on:
//!
//! * **Physical-register conservation** — the free list, the committed
//!   architectural map and the in-flight ROB destinations partition the
//!   PRF exactly: every physical register accounted for exactly once.
//! * **ROB order** — sequence numbers are contiguous, every in-flight
//!   source physical register is live (never on the free list), and the
//!   front end's RAS snapshot ring holds exactly the snapshots of the ROB
//!   entries and then the queued micro-ops, in fetch order.
//! * **LSQ order** — the load and store queues are exactly the program-
//!   ordered projections of the ROB's loads and stores.
//! * **IQ consistency** — the issue queue holds exactly the dispatched-
//!   but-unissued, not-yet-complete entries.
//! * **Ready consistency** — each entry's wake-up count is its number of
//!   invisible source slots, each register's waiter list is exactly the
//!   ascending unissued consumers still waiting on it, and the ready list
//!   is exactly the ascending issue-queue entries with none left.
//! * **NDA safety** — a broadcast destination implies the producer
//!   completed, is safe under the active policy, and its register is
//!   visible; visibility always implies readiness (no consumer can
//!   observe an unwritten value — the paper's central guarantee); and the
//!   broadcast queue is exactly the ascending set of completed entries
//!   with a destination that have not broadcast.
//! * **Taint gate** — only in-flight destinations carry a youngest root of
//!   taint, a load roots its own, STT's walk is never cleaner than the
//!   flash rule, and no transmitter issued on a tainted transmit operand.
//!
//! Violations are reported as structured [`InvariantViolation`] values
//! (surfaced as [`SimError::InvariantViolation`](crate::SimError)), never
//! as panics: the differential harness wants a diagnosable error, not an
//! abort.

use super::core::OooCore;
use crate::policy::Defense;
use crate::snapshot::PipelineSnapshot;
use nda_isa::inst::UopClass;
use std::fmt;

/// Which conservation law broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvariantKind {
    /// Free list + committed map + in-flight destinations do not partition
    /// the physical register file.
    PregConservation,
    /// ROB sequence numbers are not contiguous, or an in-flight source
    /// register is on the free list.
    RobOrder,
    /// Load/store queue is not the program-ordered projection of the ROB.
    LsqOrder,
    /// Issue queue disagrees with the ROB's issued/completed bits.
    IqConsistency,
    /// The wake-up bookkeeping (wake-up counts, per-register waiter lists,
    /// the ready list) disagrees with operand visibility.
    ReadyConsistency,
    /// The NDA broadcast discipline was violated (an unsafe or incomplete
    /// instruction made its value visible).
    NdaSafety,
    /// The commit stream diverged from the reference interpreter
    /// (wrong-path instruction retired, or a committed value is wrong).
    CommitDivergence,
    /// The STT/ShadowBinding taint discipline was violated: a transmitting
    /// micro-op issued while its transmit operand was tainted, or the taint
    /// bookkeeping outlived its value or disagrees with the rename-time
    /// roots.
    TaintGate,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::PregConservation => "physical-register conservation",
            InvariantKind::RobOrder => "rob order",
            InvariantKind::LsqOrder => "lsq order",
            InvariantKind::IqConsistency => "issue-queue consistency",
            InvariantKind::ReadyConsistency => "ready-list consistency",
            InvariantKind::NdaSafety => "nda safety",
            InvariantKind::CommitDivergence => "commit divergence",
            InvariantKind::TaintGate => "taint gate",
        };
        f.write_str(s)
    }
}

/// A broken invariant, with enough context to debug it: which law, a
/// human-readable detail string naming the offending registers/entries,
/// and the full pipeline snapshot at the failing cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Cycle at which the violation was detected.
    pub cycle: u64,
    /// Which conservation law broke.
    pub kind: InvariantKind,
    /// What exactly is inconsistent (registers, sequence numbers, values).
    pub detail: String,
    /// Pipeline state at the failing cycle.
    pub snapshot: PipelineSnapshot,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {}: {}\n{}",
            self.cycle, self.kind, self.detail, self.snapshot
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// Validate every invariant; on the first failure, capture a snapshot and
/// return the structured violation.
pub(crate) fn check(core: &mut OooCore) -> Result<(), Box<InvariantViolation>> {
    if let Some((kind, detail)) = find_violation(core) {
        return Err(Box::new(InvariantViolation {
            cycle: core.cycle(),
            kind,
            detail,
            snapshot: core.snapshot(),
        }));
    }
    Ok(())
}

/// The pure part of the checker: scan the core and name the first broken
/// law, if any.
fn find_violation(core: &OooCore) -> Option<(InvariantKind, String)> {
    check_preg_conservation(core)
        .or_else(|| check_rob_order(core))
        .or_else(|| check_lsq_order(core))
        .or_else(|| check_iq_consistency(core))
        .or_else(|| check_ready_consistency(core))
        .or_else(|| check_nda_safety(core))
        .or_else(|| check_taint_gate(core))
}

/// Free list ∪ committed architectural map ∪ in-flight ROB destinations
/// must cover `0..prf.len()` with every register appearing exactly once.
fn check_preg_conservation(core: &OooCore) -> Option<(InvariantKind, String)> {
    let n = core.prf.len();
    // 0 = unseen; otherwise a tag for the first owner seen.
    let mut owner: Vec<&'static str> = vec![""; n];
    let mut claim = |p: usize, who: &'static str| -> Option<String> {
        if p >= n {
            return Some(format!("{who} references p{p} outside the {n}-entry prf"));
        }
        if owner[p].is_empty() {
            owner[p] = who;
            None
        } else {
            Some(format!("p{p} owned by both {} and {who}", owner[p]))
        }
    };
    for p in core.free.iter() {
        if let Some(d) = claim(p as usize, "free list") {
            return Some((InvariantKind::PregConservation, d));
        }
    }
    for r in nda_isa::Reg::all() {
        if let Some(d) = claim(core.committed_preg(r) as usize, "committed map") {
            return Some((
                InvariantKind::PregConservation,
                format!("{d} (committed mapping of {r:?})"),
            ));
        }
    }
    for e in core.rob.iter() {
        if let Some(prd) = e.prd {
            if let Some(d) = claim(prd as usize, "in-flight rob destination") {
                return Some((
                    InvariantKind::PregConservation,
                    format!("{d} (seq {} pc {} `{}`)", e.seq, e.pc, e.inst),
                ));
            }
        }
    }
    if let Some(p) = owner.iter().position(|o| o.is_empty()) {
        return Some((
            InvariantKind::PregConservation,
            format!(
                "p{p} leaked: not free, not architecturally mapped, not an \
                 in-flight destination ({} free, {} in flight)",
                core.free.available(),
                core.rob.len()
            ),
        ));
    }
    None
}

/// ROB entries age-ordered with contiguous sequence numbers, and every
/// in-flight source physical register live (not on the free list).
fn check_rob_order(core: &OooCore) -> Option<(InvariantKind, String)> {
    let free: std::collections::HashSet<_> = core.free.iter().collect();
    let mut prev: Option<u64> = None;
    for e in core.rob.iter() {
        if let Some(p) = prev {
            if e.seq != p + 1 {
                return Some((
                    InvariantKind::RobOrder,
                    format!("seq {} follows seq {p} (non-contiguous rob)", e.seq),
                ));
            }
        }
        prev = Some(e.seq);
        for src in e.src_pregs.iter().flatten() {
            if free.contains(src) {
                return Some((
                    InvariantKind::RobOrder,
                    format!(
                        "seq {} pc {} `{}` reads p{src}, which is on the free list",
                        e.seq, e.pc, e.inst
                    ),
                ));
            }
        }
    }
    let rob_slots = core.rob.iter().filter_map(|e| e.ras_after);
    let want: Vec<_> = rob_slots
        .chain(core.fe.queue().filter_map(|u| u.ras_after))
        .collect();
    let live: Vec<_> = core.fe.ras_snaps.slots().collect();
    (live != want).then(|| {
        let d = format!("ras snapshot slots {live:?} but in-flight micro-ops hold {want:?}");
        (InvariantKind::RobOrder, d)
    })
}

/// `lq`/`sq` must be exactly the ascending sequence numbers of the ROB's
/// loads/stores.
fn check_lsq_order(core: &OooCore) -> Option<(InvariantKind, String)> {
    let want_lq: Vec<u64> = core
        .rob
        .iter()
        .filter(|e| matches!(e.inst.class(), UopClass::Load | UopClass::LoadLike))
        .map(|e| e.seq)
        .collect();
    if core.lq != want_lq {
        return Some((
            InvariantKind::LsqOrder,
            format!("lq {:?} but rob loads are {:?}", core.lq, want_lq),
        ));
    }
    let want_sq: Vec<u64> = core
        .rob
        .iter()
        .filter(|e| e.inst.class() == UopClass::Store)
        .map(|e| e.seq)
        .collect();
    if core.sq != want_sq {
        return Some((
            InvariantKind::LsqOrder,
            format!("sq {:?} but rob stores are {:?}", core.sq, want_sq),
        ));
    }
    None
}

/// The issue queue holds exactly the dispatched-but-unissued, incomplete
/// entries, in age order.
fn check_iq_consistency(core: &OooCore) -> Option<(InvariantKind, String)> {
    let want: Vec<u64> = core
        .rob
        .iter()
        .filter(|e| !e.issued && !e.completed)
        .map(|e| e.seq)
        .collect();
    if core.iq != want {
        return Some((
            InvariantKind::IqConsistency,
            format!("iq {:?} but unissued rob entries are {:?}", core.iq, want),
        ));
    }
    None
}

/// Wake-up: every entry waits on exactly its invisible source slots, each
/// register's waiter list names exactly the unissued consumers waiting on
/// it (ascending, once per slot), and `ready` is exactly the ascending
/// issue-queue entries waiting on nothing.
fn check_ready_consistency(core: &OooCore) -> Option<(InvariantKind, String)> {
    let mut want_waiters = vec![Vec::new(); core.prf.len()];
    let mut want_ready = Vec::new();
    for e in core.rob.iter() {
        let invisible = e.src_pregs.iter().flatten();
        let invisible: Vec<_> = invisible.filter(|&&p| !core.prf.is_visible(p)).collect();
        if usize::from(e.waiting) != invisible.len() {
            let d = format!(
                "seq {} pc {} `{}` waits on {} sources but {} are invisible",
                e.seq,
                e.pc,
                e.inst,
                e.waiting,
                invisible.len()
            );
            return Some((InvariantKind::ReadyConsistency, d));
        }
        if !e.issued && !e.completed {
            for &p in invisible {
                want_waiters[p as usize].push(e.seq);
            }
            if e.waiting == 0 {
                want_ready.push(e.seq);
            }
        }
    }
    if core.ready != want_ready {
        let d = format!(
            "ready {:?} but woken unissued entries are {want_ready:?}",
            core.ready
        );
        return Some((InvariantKind::ReadyConsistency, d));
    }
    let (p, want) = want_waiters
        .iter()
        .enumerate()
        .find(|&(p, want)| core.waiters[p] != *want)?;
    let d = format!(
        "p{p} waiters {:?} but its waiting consumers are {want:?}",
        core.waiters[p]
    );
    Some((InvariantKind::ReadyConsistency, d))
}

/// The paper's central guarantee: a value becomes visible only through a
/// broadcast of a completed, policy-safe producer — and visibility implies
/// readiness (never observe an unwritten register). Safety is monotone for
/// an in-flight entry, so one broadcast earlier is still safe now.
fn check_nda_safety(core: &OooCore) -> Option<(InvariantKind, String)> {
    for e in core.rob.iter() {
        let Some(prd) = e.prd else { continue };
        let visible = core.prf.is_visible(prd);
        let broken = if !e.broadcasted {
            visible.then_some("is visible without a broadcast: the NDA gap is breached")
        } else if !e.completed {
            Some("broadcast before completing")
        } else if !core.is_safe(e) {
            Some("broadcast while unsafe under the active policy")
        } else {
            (!visible).then_some("is marked broadcast but not visible")
        };
        if let Some(what) = broken {
            let at = format!("seq {} pc {} `{}` (p{prd})", e.seq, e.pc, e.inst);
            return Some((InvariantKind::NdaSafety, format!("{at} {what}")));
        }
    }
    for p in 0..core.prf.len() as super::rename::PReg {
        if core.prf.is_visible(p) && !core.prf.is_ready(p) {
            return Some((
                InvariantKind::NdaSafety,
                format!("p{p} visible but never written back"),
            ));
        }
    }
    let pending = core
        .rob
        .iter()
        .filter(|e| e.completed && !e.broadcasted && e.prd.is_some());
    let pending: Vec<u64> = pending.map(|e| e.seq).collect();
    (core.bq != pending).then(|| {
        let d = format!(
            "broadcast queue {:?} but unbroadcast results {pending:?}",
            core.bq
        );
        (InvariantKind::NdaSafety, d)
    })
}

/// The STT/ShadowBinding guarantee: transmitting micro-ops never issue on
/// tainted transmit operands (taint is monotone non-increasing for a live
/// register, so an issued in-flight transmitter with a *currently* tainted
/// transmit source can only mean the gate was bypassed). Taint is bound at
/// rename: a register that is not an in-flight destination has no root of
/// taint and no STT bit (taint drains with the ROB), no root is younger than
/// its value, a load roots its own, and STT's walk never untaints a value
/// the flash rule still taints.
fn check_taint_gate(core: &OooCore) -> Option<(InvariantKind, String)> {
    let fail = |e: &super::rob::RobEntry, what: String| {
        let at = format!("seq {} pc {} `{}`", e.seq, e.pc, e.inst);
        Some((InvariantKind::TaintGate, format!("{at} {what}")))
    };
    let stt_border = match core.cfg.defense {
        Defense::GateTransmit {
            border,
            propagated_untaint: true,
        } => Some(border),
        _ => None,
    };
    let mut in_flight = vec![false; core.prf.len()];
    for e in core.rob.iter() {
        if let Some(prd) = e.prd {
            in_flight[prd as usize] = true;
            let root = core.yrot[prd as usize];
            if root > e.seq || (e.inst.is_load_like() && root != e.seq) {
                return fail(e, format!("has root of taint {root} for p{prd}"));
            }
            // The walk first sees an entry the cycle after its dispatch.
            let walked = e.dispatch_cycle + 1 < core.cycle();
            let flash = stt_border.is_some_and(|b| walked && core.shadow.covers(b, root));
            if flash && !core.tainted(prd) {
                return fail(
                    e,
                    format!("left p{prd} untainted, root {root} in the shadow"),
                );
            }
        }
        let transmit = OooCore::transmit_slot(&e.inst).and_then(|slot| e.src_pregs[slot]);
        if let Some(p) = transmit.filter(|&p| e.issued && core.tainted(p)) {
            return fail(e, format!("issued with tainted transmit operand p{p}"));
        }
    }
    let stale = |p: usize| core.yrot[p] != 0 || core.stt_taint.get(p) == Some(&true);
    let p = (0..in_flight.len()).find(|&p| !in_flight[p] && stale(p))?;
    Some((
        InvariantKind::TaintGate,
        format!("p{p} is not an in-flight destination but keeps its taint"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use nda_isa::{Asm, Reg};

    fn checked_cfg() -> SimConfig {
        let mut cfg = SimConfig::ooo();
        cfg.check_invariants = true;
        cfg
    }

    #[test]
    fn clean_run_passes_every_cycle() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 5);
        for _ in 0..8 {
            asm.alu(nda_isa::AluOp::Add, Reg::X2, Reg::X2, Reg::X2);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let r = crate::run_with_config(checked_cfg(), &p, 100_000).unwrap();
        assert!(r.halted);
        assert_eq!(r.regs[2], 5 << 8);
    }

    #[test]
    fn injected_free_list_leak_is_caught_as_conservation_violation() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 1);
        for _ in 0..32 {
            asm.alu(nda_isa::AluOp::Add, Reg::X3, Reg::X2, Reg::X2);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut core = crate::OooCore::new(checked_cfg(), &p);
        let mut leaked = false;
        let err = core
            .run_hooked(100_000, |c| {
                if !leaked && c.cycle() == 3 {
                    c.debug_inject_free_list_leak();
                    leaked = true;
                }
            })
            .unwrap_err();
        match err {
            crate::SimError::InvariantViolation(v) => {
                assert_eq!(v.kind, InvariantKind::PregConservation);
                assert!(v.detail.contains("leaked"), "detail: {}", v.detail);
            }
            other => panic!("expected InvariantViolation, got {other}"),
        }
    }

    #[test]
    fn entry_dropped_from_ready_is_caught() {
        // While the cold load misses, the adds wait on it and each `li`
        // (no sources) is ready from dispatch.
        let mut asm = Asm::new();
        asm.li(Reg::X2, 0x8000);
        asm.ld8(Reg::X3, Reg::X2, 0);
        for _ in 0..8 {
            asm.alu(nda_isa::AluOp::Add, Reg::X3, Reg::X3, Reg::X3);
            asm.li(Reg::X5, 1);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut core = crate::OooCore::new(checked_cfg(), &p);
        loop {
            assert!(!core.halted(), "never held a woken and a waiting entry");
            core.step_cycle();
            check(&mut core).expect("clean pipeline");
            if !core.ready.is_empty() && core.waiters.iter().any(|w| !w.is_empty()) {
                break;
            }
        }
        core.ready.remove(0);
        let v = check(&mut core).unwrap_err();
        assert_eq!(v.kind, InvariantKind::ReadyConsistency);
        assert!(v.detail.starts_with("ready "), "detail: {}", v.detail);
    }

    #[test]
    fn violation_display_names_kind_and_cycle() {
        let snapshot = crate::PipelineSnapshot {
            cycle: 17,
            last_commit_cycle: 12,
            rob_occupancy: 1,
            rob_capacity: 192,
            head: None,
            iq_ready: 0,
            iq_waiting: 0,
            lq_occupancy: 0,
            sq_occupancy: 0,
            free_pregs: 200,
            fetch_queued: 0,
            mshrs_outstanding: 0,
            stats: nda_stats::SimStats::new(),
        };
        let v = InvariantViolation {
            cycle: 17,
            kind: InvariantKind::NdaSafety,
            detail: "p9 visible without a broadcast".into(),
            snapshot,
        };
        let s = v.to_string();
        assert!(s.contains("cycle 17"));
        assert!(s.contains("nda safety"));
        assert!(s.contains("p9"));
    }
}
