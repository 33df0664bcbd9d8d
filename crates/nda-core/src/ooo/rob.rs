//! Reorder buffer.
//!
//! Each [`RobEntry`] carries two of the paper's three NDA bookkeeping
//! bits, `exec` ([`RobEntry::completed`]) and `bcast`
//! ([`RobEntry::broadcasted`]). The third, `unsafe`, is a compare of the
//! entry's sequence number against this cycle's [`Shadow`], evaluated
//! where it is read. Entries also carry everything squash recovery needs
//! (old rename mappings, the GHR, a slot in the front end's RAS snapshot
//! ring) and everything the LSQ needs (addresses, forwarding sources).

use super::frontend::RasSlot;
use super::rename::PReg;
use crate::policy::Border;
use nda_isa::{Fault, Inst, Reg};
use std::collections::VecDeque;

/// One in-flight micro-op.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global sequence number (monotonic across squashes).
    pub seq: u64,
    /// Instruction index in the program text.
    pub pc: usize,
    /// The decoded micro-op.
    pub inst: Inst,

    /// Architectural destination, if any.
    pub arch_rd: Option<Reg>,
    /// Allocated physical destination.
    pub prd: Option<PReg>,
    /// Previous mapping of `arch_rd` (freed at commit, restored on squash).
    pub old_prd: Option<PReg>,
    /// Positional source physical registers (see `Inst::operands`).
    pub src_pregs: [Option<PReg>; 2],

    /// Cycle the entry entered the ROB.
    pub dispatch_cycle: u64,
    /// `true` once issued to a functional unit.
    pub issued: bool,
    /// Cycle of issue (meaningful once `issued`).
    pub issue_cycle: u64,
    /// Cycle execution will complete (set at issue).
    pub done_cycle: Option<u64>,
    /// The paper's `exec` bit: execution finished, result written back.
    pub completed: bool,
    /// Cycle at which `completed` was set.
    pub complete_cycle: u64,
    /// The paper's `bcast` bit: destination tag broadcast, dependents woken.
    pub broadcasted: bool,
    /// Result value (written to the PRF at completion).
    pub result: u64,

    /// Branch bookkeeping: resolved at execution.
    pub branch_resolved: bool,
    /// Next PC predicted at fetch.
    pub pred_next: usize,
    /// Next PC computed at execution.
    pub actual_next: usize,
    /// Predicted direction (conditional branches).
    pub pred_taken: bool,
    /// Actual direction (conditional branches).
    pub actual_taken: bool,
    /// GHR snapshot taken just before this branch predicted.
    pub ghr_before: u64,
    /// Ring slot of the RAS snapshot taken just after this branch's own
    /// push/pop at fetch, in the front end's `RasRing`.
    pub ras_after: Option<RasSlot>,
    /// Set at resolution if `pred_next != actual_next`.
    pub mispredicted: bool,

    /// Effective address (loads/stores/flushes), set at execution.
    pub mem_addr: Option<u64>,
    /// Access width in bytes.
    pub mem_size: u64,
    /// Store data value, set at execution.
    pub store_data: Option<u64>,
    /// Sequence number of the store this load forwarded from.
    pub forwarded_from: Option<u64>,
    /// Load executed past >= 1 older store with unresolved address
    /// (speculative store bypass happened; Bypass Restriction keys on it).
    pub bypassed_unresolved: bool,
    /// Architectural fault to deliver when this entry reaches commit.
    pub fault: Option<Fault>,

    /// InvisiSpec: load executed as an invisible probe (no cache fill).
    pub is_probe: bool,
    /// InvisiSpec: exposure/validation completes at this cycle.
    pub exposure_done: Option<u64>,

    /// Hierarchy level that serviced this entry's data access (set at
    /// issue for loads/probes; used by the CPI-stack classifier).
    pub mem_level: Option<nda_mem::Level>,

    /// Trace bookkeeping: a `TaintGated` event has been emitted for this
    /// entry (emit once per instance, on the first withheld issue).
    pub taint_gate_traced: bool,

    /// Wake-up count: source slots whose register has not broadcast yet.
    /// Set at dispatch, decremented by each broadcast of a waited-on
    /// register; the entry joins the core's ready list at zero.
    pub waiting: u8,
}

impl RobEntry {
    /// A freshly-dispatched entry.
    pub fn new(seq: u64, pc: usize, inst: Inst, cycle: u64) -> RobEntry {
        RobEntry {
            seq,
            pc,
            inst,
            arch_rd: None,
            prd: None,
            old_prd: None,
            src_pregs: [None, None],
            dispatch_cycle: cycle,
            issued: false,
            issue_cycle: 0,
            done_cycle: None,
            completed: false,
            complete_cycle: 0,
            broadcasted: false,
            result: 0,
            branch_resolved: false,
            pred_next: pc + 1,
            actual_next: pc + 1,
            pred_taken: false,
            actual_taken: false,
            ghr_before: 0,
            ras_after: None,
            mispredicted: false,
            mem_addr: None,
            mem_size: 0,
            store_data: None,
            forwarded_from: None,
            bypassed_unresolved: false,
            fault: None,
            is_probe: false,
            exposure_done: None,
            mem_level: None,
            taint_gate_traced: false,
            waiting: 0,
        }
    }

    /// `true` for an in-flight branch whose outcome is still unknown — the
    /// strict/permissive unsafe border (paper §5.1).
    pub fn is_unresolved_branch(&self) -> bool {
        self.inst.is_branch() && !self.branch_resolved
    }
}

/// The reorder buffer: a bounded FIFO of [`RobEntry`]s addressed by
/// sequence number.
#[derive(Debug, Clone, Default)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// The in-flight branches' sequence numbers, ascending: a ring of the
    /// ROB's capacity, so it never grows.
    branches: VecDeque<u64>,
    /// Index in `branches` past which no branch is known to be resolved.
    unresolved: usize,
}

impl Rob {
    /// An empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            branches: VecDeque::with_capacity(capacity),
            unresolved: 0,
        }
    }

    /// Entries in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Append a dispatched entry.
    ///
    /// # Panics
    ///
    /// Panics if full or if `seq` is not contiguous.
    pub fn push(&mut self, e: RobEntry) {
        assert!(!self.is_full(), "rob overflow");
        if let Some(back) = self.entries.back() {
            assert_eq!(back.seq + 1, e.seq, "non-contiguous rob sequence");
        }
        if e.inst.is_branch() {
            self.branches.push_back(e.seq);
        }
        self.entries.push_back(e);
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        let front = self.entries.front()?.seq;
        self.entries.get(seq.checked_sub(front)? as usize)
    }

    /// Mutable entry by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let front = self.entries.front()?.seq;
        self.entries.get_mut(seq.checked_sub(front)? as usize)
    }

    /// Pop the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        if self.branches.front() == Some(&e.seq) {
            self.branches.pop_front();
            self.unresolved = self.unresolved.saturating_sub(1);
        }
        Some(e)
    }

    /// Pop the youngest entry if `seq >= min_squash` (squash unwinding,
    /// tail first so rename recovery is LIFO).
    pub fn pop_tail_from(&mut self, min_squash: u64) -> Option<RobEntry> {
        if self.entries.back()?.seq < min_squash {
            return None;
        }
        let e = self.entries.pop_back()?;
        if self.branches.back() == Some(&e.seq) {
            self.branches.pop_back();
            self.unresolved = self.unresolved.min(self.branches.len());
        }
        Some(e)
    }

    /// The oldest in-flight branch and the oldest unresolved one
    /// (`u64::MAX` where there is none). The cursor steps over each
    /// resolved branch once; commit and squash clamp it.
    pub(crate) fn branch_borders(&mut self) -> (u64, u64) {
        while let Some(&seq) = self.branches.get(self.unresolved) {
            if self.get(seq).is_some_and(|e| !e.branch_resolved) {
                break;
            }
            self.unresolved += 1;
        }
        let oldest = self.branches.front().copied().unwrap_or(u64::MAX);
        let unresolved = self.branches.get(self.unresolved).copied();
        (oldest, unresolved.unwrap_or(u64::MAX))
    }

    /// Iterate oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

/// The speculation shadow of one cycle: the sequence number of each
/// [`Border`], or `u64::MAX` where nothing casts one. A micro-op is inside
/// a border's shadow iff its sequence number is greater.
///
/// The core computes it once per cycle, right after writeback. Branches
/// resolve and stores complete only in writeback, and squashes happen only
/// in commit and writeback, so every later stage of the cycle sees the
/// borders a fresh ROB walk would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shadow {
    unresolved_branch: u64,
    branch: u64,
    /// The Bypass Restriction predicate: an older store has not completed
    /// (its address is unknown, or it has not yet been checked against
    /// younger loads that bypassed it).
    store: u64,
    head: u64,
}

impl Shadow {
    /// No border at all.
    pub(crate) const NONE: Shadow = Shadow {
        unresolved_branch: u64::MAX,
        branch: u64::MAX,
        store: u64::MAX,
        head: u64::MAX,
    };

    /// The borders of `rob`, whose in-flight stores are `stores`
    /// (ascending sequence numbers).
    pub(crate) fn of(rob: &mut Rob, stores: &[u64]) -> Shadow {
        let (branch, unresolved_branch) = rob.branch_borders();
        Shadow {
            unresolved_branch,
            branch,
            store: stores
                .iter()
                .copied()
                .find(|&s| rob.get(s).is_some_and(|e| !e.completed))
                .unwrap_or(u64::MAX),
            head: rob.head().map_or(u64::MAX, |e| e.seq),
        }
    }

    /// `true` if `seq` is younger than `border`.
    #[inline]
    pub(crate) fn covers(&self, border: Border, seq: u64) -> bool {
        seq > match border {
            Border::UnresolvedBranch => self.unresolved_branch,
            Border::Branch => self.branch,
            Border::Store => self.store,
            Border::Head => self.head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nda_isa::Inst;

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, seq as usize, Inst::Nop, 0)
    }

    #[test]
    fn push_get_pop() {
        let mut r = Rob::new(4);
        r.push(entry(10));
        r.push(entry(11));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(11).unwrap().seq, 11);
        assert!(r.get(9).is_none());
        assert!(r.get(12).is_none());
        assert_eq!(r.pop_head().unwrap().seq, 10);
        assert_eq!(r.get(11).unwrap().seq, 11);
    }

    #[test]
    fn squash_unwinds_tail_first() {
        let mut r = Rob::new(8);
        for s in 0..5 {
            r.push(entry(s));
        }
        let mut squashed = Vec::new();
        while let Some(e) = r.pop_tail_from(3) {
            squashed.push(e.seq);
        }
        assert_eq!(squashed, vec![4, 3]);
        assert_eq!(r.len(), 3);
        // Squash-from-zero empties the ROB (fault delivery).
        while r.pop_tail_from(0).is_some() {}
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "rob overflow")]
    fn overflow_panics() {
        let mut r = Rob::new(1);
        r.push(entry(0));
        r.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_seq_panics() {
        let mut r = Rob::new(4);
        r.push(entry(0));
        r.push(entry(2));
    }

    #[test]
    fn hot_structs_stay_small() {
        // The ROB and fetch queue are walked every cycle: a 192-entry ROB
        // of 240-byte entries is 45 KiB. RAS snapshots (144 bytes each)
        // live in the front end's ring, not here.
        assert!(std::mem::size_of::<RobEntry>() <= 240);
        assert!(std::mem::size_of::<super::super::frontend::FetchedUop>() <= 72);
    }

    #[test]
    fn unresolved_branch_marker() {
        let mut e = RobEntry::new(0, 0, Inst::Jmp { target: 0 }, 0);
        assert!(e.is_unresolved_branch());
        e.branch_resolved = true;
        assert!(!e.is_unresolved_branch());
    }

    #[test]
    fn shadow_borders_come_from_the_oldest_pending_entries() {
        let store = Inst::Store {
            src: Reg::X2,
            base: Reg::X3,
            off: 0,
            size: nda_isa::MemSize::B8,
        };
        let mut r = Rob::new(8);
        r.push(entry(10));
        let mut b = RobEntry::new(11, 11, Inst::Jmp { target: 0 }, 0);
        b.branch_resolved = true;
        r.push(b);
        r.push(RobEntry::new(12, 12, Inst::Jmp { target: 0 }, 0));
        let mut st = RobEntry::new(13, 13, store, 0);
        st.completed = true;
        r.push(st);
        r.push(RobEntry::new(14, 14, store, 0));
        let sh = Shadow::of(&mut r, &[13, 14]);
        // Strictly younger than the border is inside its shadow.
        for (border, seq) in [
            (Border::Head, 10),
            (Border::Branch, 11),
            (Border::UnresolvedBranch, 12),
            (Border::Store, 14),
        ] {
            assert!(!sh.covers(border, seq), "{border:?}");
            assert!(sh.covers(border, seq + 1), "{border:?}");
        }
        assert!(!Shadow::NONE.covers(Border::Head, u64::MAX - 1));
        // Squash and commit clamp the unresolved-branch cursor.
        while r.pop_tail_from(12).is_some() {}
        assert_eq!(r.branch_borders(), (11, u64::MAX));
        r.pop_head();
        r.pop_head();
        assert_eq!(r.branch_borders(), (u64::MAX, u64::MAX));
        r.push(RobEntry::new(12, 12, Inst::Jmp { target: 0 }, 0));
        assert_eq!(r.branch_borders(), (12, 12));
    }
}
