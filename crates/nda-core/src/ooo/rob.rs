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
#[derive(Debug, Clone, PartialEq)]
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
///
/// The entries live in a power-of-two ring of slots, the entry with
/// sequence number `s` in slot `s & mask`. In-flight sequence numbers are
/// contiguous and fewer than the slots, so a lookup is one range compare
/// against the head and one index. The ring grows to its full size as
/// sequence numbers first reach each slot, so building a ROB writes none.
#[derive(Debug, Clone, Default)]
pub struct Rob {
    slots: Vec<RobEntry>,
    mask: u64,
    /// Sequence number of the oldest entry (meaningful while `len > 0`).
    head: u64,
    len: usize,
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
        let slots = capacity.next_power_of_two();
        Rob {
            slots: Vec::with_capacity(slots),
            mask: slots as u64 - 1,
            head: 0,
            len: 0,
            capacity,
            branches: VecDeque::with_capacity(capacity),
            unresolved: 0,
        }
    }

    /// Entries in flight.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Start the entry for a dispatched micro-op in its slot, reset to
    /// [`RobEntry::new`], and hand it back for dispatch to fill in place.
    ///
    /// # Panics
    ///
    /// Panics if full or if `seq` is not contiguous.
    pub fn alloc(&mut self, seq: u64, pc: usize, inst: Inst, cycle: u64) -> &mut RobEntry {
        assert!(!self.is_full(), "rob overflow");
        if self.len == 0 {
            self.head = seq;
        } else {
            assert_eq!(
                self.head + self.len as u64,
                seq,
                "non-contiguous rob sequence"
            );
        }
        if inst.is_branch() {
            self.branches.push_back(seq);
        }
        self.len += 1;
        let at = self.slot(seq);
        if at < self.slots.len() {
            self.slots[at] = RobEntry::new(seq, pc, inst, cycle);
        } else {
            // A slot reached for the first time. A first sequence number
            // past slot 0 also fills the slots below it once (they are
            // dead until the ring wraps onto them).
            self.slots
                .resize(at + 1, RobEntry::new(seq, pc, inst, cycle));
        }
        &mut self.slots[at]
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.get(self.head)
    }

    /// Entry by sequence number.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        if seq.wrapping_sub(self.head) < self.len as u64 {
            Some(&self.slots[self.slot(seq)])
        } else {
            None
        }
    }

    /// Mutable entry by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        if seq.wrapping_sub(self.head) < self.len as u64 {
            let at = self.slot(seq);
            Some(&mut self.slots[at])
        } else {
            None
        }
    }

    /// Retire the oldest entry (commit). The entry stays in its slot,
    /// intact, until a later [`Rob::alloc`] reuses the slot.
    pub fn pop_head(&mut self) -> Option<&RobEntry> {
        let seq = self.head;
        if self.len == 0 {
            return None;
        }
        self.head += 1;
        self.len -= 1;
        if self.branches.front() == Some(&seq) {
            self.branches.pop_front();
            self.unresolved = self.unresolved.saturating_sub(1);
        }
        Some(&self.slots[self.slot(seq)])
    }

    /// Pop the youngest entry if `seq >= min_squash` (squash unwinding,
    /// tail first so rename recovery is LIFO). Like [`Rob::pop_head`], it
    /// leaves the entry in its slot.
    pub fn pop_tail_from(&mut self, min_squash: u64) -> Option<&RobEntry> {
        let tail = self.head + self.len.checked_sub(1)? as u64;
        if tail < min_squash {
            return None;
        }
        self.len -= 1;
        if self.branches.back() == Some(&tail) {
            self.branches.pop_back();
            self.unresolved = self.unresolved.min(self.branches.len());
        }
        Some(&self.slots[self.slot(tail)])
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
        // The live slots are one run that may wrap past the last slot.
        let start = self.slot(self.head);
        let end = start + self.len;
        let (first, wrapped) = if self.len == 0 {
            (&self.slots[..0], 0)
        } else if end <= self.slots.len() {
            (&self.slots[start..end], 0)
        } else {
            (&self.slots[start..], end - self.slots.len())
        };
        first.iter().chain(self.slots[..wrapped].iter())
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

    /// The sequence number of `border`: the micro-ops younger than it are
    /// in its shadow.
    #[inline]
    pub(crate) fn border(&self, border: Border) -> u64 {
        match border {
            Border::UnresolvedBranch => self.unresolved_branch,
            Border::Branch => self.branch,
            Border::Store => self.store,
            Border::Head => self.head,
        }
    }

    /// `true` if `seq` is younger than `border`.
    #[inline]
    pub(crate) fn covers(&self, border: Border, seq: u64) -> bool {
        seq > self.border(border)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nda_isa::Inst;

    /// Dispatch a `Nop` numbered `seq` at pc `seq`.
    fn push(r: &mut Rob, seq: u64) -> &mut RobEntry {
        r.alloc(seq, seq as usize, Inst::Nop, 0)
    }

    #[test]
    fn push_get_pop() {
        let mut r = Rob::new(4);
        push(&mut r, 10);
        push(&mut r, 11);
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
            push(&mut r, s);
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

    /// The live sequence numbers, read through `iter` and through `get`.
    fn live(r: &Rob) -> Vec<u64> {
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        for &s in &seqs {
            assert_eq!(r.get(s).map(|e| e.seq), Some(s));
        }
        seqs
    }

    #[test]
    fn building_the_ring_writes_no_slot() {
        let r = Rob::new(192);
        assert!(r.slots.is_empty());
        assert_eq!(r.slots.capacity(), 256);
        assert_eq!(r.mask, 255);
    }

    #[test]
    fn entries_live_across_the_slot_wrap() {
        let mut r = Rob::new(192);
        for s in 0..192 {
            push(&mut r, s);
        }
        // Commit 150, then dispatch past slot 255 onto slots 0, 1, ...
        for s in 0..150 {
            assert_eq!(r.pop_head().unwrap().seq, s);
        }
        for s in 192..300 {
            push(&mut r, s);
        }
        assert_eq!(r.len(), 150);
        assert_eq!(live(&r), (150..300).collect::<Vec<_>>());
        assert_eq!(r.head().unwrap().seq, 150);
        // Slot 255 and slot 0 hold neighbours.
        assert_eq!(r.get(255).unwrap().seq, 255);
        assert_eq!(r.get(256).unwrap().seq, 256);
        r.get_mut(257).unwrap().pc = 7;
        assert_eq!(r.get(257).unwrap().pc, 7);
        assert_eq!(r.pop_tail_from(299).unwrap().seq, 299);
        assert_eq!(live(&r), (150..299).collect::<Vec<_>>());
    }

    #[test]
    fn squash_to_empty_then_redispatch_reuses_sequence_numbers() {
        // Start past slot 0 and across the wrap.
        let mut r = Rob::new(192);
        for s in 250..262 {
            r.alloc(s, 1, Inst::Jmp { target: 0 }, 0);
        }
        assert_eq!(r.branch_borders(), (250, 250));
        while r.pop_tail_from(250).is_some() {}
        assert!(r.is_empty());
        assert!(r.head().is_none() && r.get(250).is_none());
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.branch_borders(), (u64::MAX, u64::MAX));
        for s in 250..260 {
            r.alloc(s, 2, Inst::Nop, 0);
        }
        assert_eq!(live(&r), (250..260).collect::<Vec<_>>());
        assert!(r.iter().all(|e| e.pc == 2 && e.inst == Inst::Nop));
        assert_eq!(r.branch_borders(), (u64::MAX, u64::MAX));
        // A fault squashes from 0; numbering restarts at slot 0.
        while r.pop_tail_from(0).is_some() {}
        push(&mut r, 0);
        assert_eq!(live(&r), vec![0]);
    }

    #[test]
    fn get_outside_the_live_range_is_none() {
        let mut r = Rob::new(192);
        for s in 40..60 {
            push(&mut r, s);
        }
        r.pop_head();
        let (head, len) = (41, r.len() as u64);
        assert!(r.get(head - 1).is_none());
        assert!(r.get(head).is_some());
        assert!(r.get(head + len - 1).is_some());
        assert!(r.get(head + len).is_none());
        assert!(r.get_mut(head + len).is_none());
        // A number one ring further on names a live slot but no entry.
        assert!(r.get(head + 256).is_none());
        assert!(r.get(u64::MAX).is_none());
        assert!(Rob::new(192).get(0).is_none());
    }

    /// Set fields that dispatch never writes, each to a value a fresh
    /// entry does not hold.
    fn dirty(e: &mut RobEntry) {
        e.fault = Some(nda_isa::Fault::PrivilegedAccess { addr: 0xdead });
        e.exposure_done = Some(9);
        e.forwarded_from = Some(3);
        e.store_data = Some(0xbeef);
        e.taint_gate_traced = true;
        e.waiting = 2;
    }

    #[test]
    fn a_reused_slot_carries_nothing_of_its_previous_occupant() {
        let mut r = Rob::new(192);
        for s in 0..192 {
            dirty(push(&mut r, s));
        }
        while r.pop_head().is_some() {}
        // Sequence numbers 192..256 fill fresh slots; 256.. wrap onto the
        // retired entries' slots 0..128.
        for s in 192..384 {
            r.alloc(s, 1, Inst::Halt, 7);
        }
        for s in 192..384 {
            assert_eq!(r.get(s), Some(&RobEntry::new(s, 1, Inst::Halt, 7)));
        }
        // A squashed sequence number dispatched again starts afresh too.
        dirty(r.get_mut(383).unwrap());
        assert_eq!(r.pop_tail_from(383).map(|e| e.waiting), Some(2));
        r.alloc(383, 4, Inst::Nop, 8);
        assert_eq!(r.get(383), Some(&RobEntry::new(383, 4, Inst::Nop, 8)));
    }

    #[test]
    fn a_retired_head_stays_readable_until_its_slot_is_reused() {
        let mut r = Rob::new(4);
        let e = push(&mut r, 0);
        e.result = 42;
        e.store_data = Some(7);
        push(&mut r, 1);
        let retired = r.pop_head().unwrap();
        assert_eq!((retired.seq, retired.result), (0, 42));
        assert!(r.get(0).is_none());
        // Dispatches into the other slots leave it intact.
        push(&mut r, 2);
        push(&mut r, 3);
        assert_eq!((r.slots[0].seq, r.slots[0].result), (0, 42));
        assert_eq!(r.slots[0].store_data, Some(7));
        // The dispatch that wraps onto its slot resets it.
        push(&mut r, 4);
        assert_eq!(r.slots[0], RobEntry::new(4, 4, Inst::Nop, 0));
    }

    #[test]
    fn full_at_capacity_not_at_the_slot_count() {
        let mut r = Rob::new(192);
        for s in 0..191 {
            push(&mut r, s);
        }
        assert!(!r.is_full());
        push(&mut r, 191);
        assert!(r.is_full());
        assert_eq!(r.len(), 192);
        r.pop_head();
        assert!(!r.is_full());
    }

    #[test]
    #[should_panic(expected = "rob overflow")]
    fn overflow_panics() {
        let mut r = Rob::new(1);
        push(&mut r, 0);
        push(&mut r, 1);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_seq_panics() {
        let mut r = Rob::new(4);
        push(&mut r, 0);
        push(&mut r, 2);
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
        push(&mut r, 10);
        r.alloc(11, 11, Inst::Jmp { target: 0 }, 0).branch_resolved = true;
        r.alloc(12, 12, Inst::Jmp { target: 0 }, 0);
        r.alloc(13, 13, store, 0).completed = true;
        r.alloc(14, 14, store, 0);
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
        r.alloc(12, 12, Inst::Jmp { target: 0 }, 0);
        assert_eq!(r.branch_borders(), (12, 12));
    }
}
