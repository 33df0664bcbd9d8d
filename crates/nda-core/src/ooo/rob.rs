//! Reorder buffer.
//!
//! Each in-flight micro-op is split by access pattern. Its hot
//! [`RobEntry`], one 64-byte cache line, holds what issue, wake-up,
//! writeback, commit and the CPI classifier read every cycle: the
//! sequence number, pc, physical registers, wake-up count, cycle stamps,
//! result and a flag word. The flags carry two of the paper's three NDA
//! bookkeeping bits, `exec` ([`RobEntry::completed`]) and `bcast`
//! ([`RobEntry::broadcasted`]). The third, `unsafe`, is a compare of the
//! entry's sequence number against this cycle's [`Shadow`], evaluated
//! where it is read. The micro-op itself is not copied: its class is
//! pre-decoded into the flags, and the core reads the instruction from
//! the program text by pc.
//!
//! The cold part lives in a parallel array: the branch prediction and
//! outcome, the memory access (address, store data, forwarding source,
//! hierarchy level), the fault and the InvisiSpec exposure cycle. Dispatch
//! resets only the hot line. Each cold field is written by the stage that
//! produces it, and read only through [`Slot`], behind a hot flag that
//! says this occupant wrote it, so a reused slot's old cold bytes are
//! never read.

use super::frontend::{Prediction, RasSlot};
use super::rename::PReg;
use crate::policy::Border;
use nda_isa::inst::UopClass;
use nda_isa::{Fault, Inst, Reg};
use nda_mem::Level;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

/// The bits of [`RobEntry`]'s flag word.
mod flag {
    /// Issued to a functional unit; `done_cycle` is set.
    pub const ISSUED: u16 = 1 << 0;
    /// The paper's `exec` bit; `complete_cycle` is set.
    pub const COMPLETED: u16 = 1 << 1;
    /// The paper's `bcast` bit.
    pub const BROADCAST: u16 = 1 << 2;
    /// A branch whose outcome is known.
    pub const RESOLVED: u16 = 1 << 3;
    /// Pre-decoded class: any control-flow micro-op. The cold prediction
    /// is valid, and the cold outcome once issued or resolved.
    pub const BRANCH: u16 = 1 << 4;
    /// Pre-decoded class: a load or a load-like special-register read.
    pub const LOAD_LIKE: u16 = 1 << 5;
    /// Pre-decoded class: a store.
    pub const STORE: u16 = 1 << 6;
    /// Pre-decoded class: `RdCycle`, `Fence`, `SpecOff`, `SpecOn`, `Halt`.
    pub const SERIAL: u16 = 1 << 7;
    /// InvisiSpec: executed as an invisible probe (no cache fill).
    pub const PROBE: u16 = 1 << 8;
    /// Executed past an older store with an unresolved address.
    pub const BYPASSED: u16 = 1 << 9;
    /// A `TaintGated` trace event has been emitted for this entry.
    pub const GATE_TRACED: u16 = 1 << 10;
    /// The cold memory address and size are valid (store data too, for a
    /// store).
    pub const MEM: u16 = 1 << 11;
    /// The cold forwarding source is valid.
    pub const FORWARDED: u16 = 1 << 12;
    /// The cold fault is valid.
    pub const FAULT: u16 = 1 << 13;
    /// The cold exposure cycle is valid.
    pub const EXPOSED: u16 = 1 << 14;
    /// The cold hierarchy level is valid.
    pub const LEVEL: u16 = 1 << 15;
}

/// The hot part of one in-flight micro-op: one cache line, reset whole by
/// dispatch. See the [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
pub struct RobEntry {
    /// Global sequence number (monotonic across squashes).
    pub seq: u64,
    /// Cycle the entry entered the ROB.
    pub dispatch_cycle: u64,
    /// Cycle execution will complete (meaningful once issued).
    pub done_cycle: u64,
    /// Cycle the entry completed (meaningful once completed).
    pub complete_cycle: u64,
    /// Result value (written to the PRF at completion).
    pub result: u64,
    /// Instruction index in the program text.
    pc: u32,
    /// Allocated physical destination.
    pub prd: Option<PReg>,
    /// Previous mapping of `arch_rd` (freed at commit, restored on squash).
    pub old_prd: Option<PReg>,
    /// Positional source physical registers (see `Inst::operands`).
    pub src_pregs: [Option<PReg>; 2],
    /// Architectural destination, if any.
    pub arch_rd: Option<Reg>,
    /// Wake-up count: source slots whose register has not broadcast yet.
    /// Set at dispatch, decremented by each broadcast of a waited-on
    /// register; the entry joins the core's ready list at zero.
    pub waiting: u8,
    /// [`flag`] bits.
    flags: u16,
}

impl RobEntry {
    /// A freshly-dispatched entry for `inst` at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` does not fit 32 bits.
    pub fn new(seq: u64, pc: usize, inst: Inst, cycle: u64) -> RobEntry {
        let class = match inst.class() {
            UopClass::Arith => 0,
            UopClass::Load | UopClass::LoadLike => flag::LOAD_LIKE,
            UopClass::Store => flag::STORE,
            UopClass::Branch => flag::BRANCH,
            UopClass::Serializing => flag::SERIAL,
        };
        RobEntry {
            seq,
            dispatch_cycle: cycle,
            done_cycle: 0,
            complete_cycle: 0,
            result: 0,
            pc: u32::try_from(pc).expect("instruction index fits 32 bits"),
            prd: None,
            old_prd: None,
            src_pregs: [None, None],
            arch_rd: None,
            waiting: 0,
            flags: class,
        }
    }

    #[inline]
    fn has(&self, bit: u16) -> bool {
        self.flags & bit != 0
    }

    /// Instruction index in the program text.
    #[inline]
    pub fn pc(&self) -> usize {
        self.pc as usize
    }

    /// `true` once issued to a functional unit.
    #[inline]
    pub fn issued(&self) -> bool {
        self.has(flag::ISSUED)
    }

    /// The paper's `exec` bit: execution finished, result written back.
    #[inline]
    pub fn completed(&self) -> bool {
        self.has(flag::COMPLETED)
    }

    /// The paper's `bcast` bit: destination tag broadcast, dependents woken.
    #[inline]
    pub fn broadcasted(&self) -> bool {
        self.has(flag::BROADCAST)
    }

    /// A branch whose outcome is known.
    #[inline]
    pub fn branch_resolved(&self) -> bool {
        self.has(flag::RESOLVED)
    }

    /// Any control-flow micro-op.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.has(flag::BRANCH)
    }

    /// A load or a load-like special-register read.
    #[inline]
    pub fn is_load_like(&self) -> bool {
        self.has(flag::LOAD_LIKE)
    }

    /// A store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.has(flag::STORE)
    }

    /// A serializing micro-op (`RdCycle`, `Fence`, `SpecOff`, `SpecOn`,
    /// `Halt`).
    #[inline]
    pub fn is_serializing(&self) -> bool {
        self.has(flag::SERIAL)
    }

    /// InvisiSpec: the load executed as an invisible probe (no cache fill).
    #[inline]
    pub fn is_probe(&self) -> bool {
        self.has(flag::PROBE)
    }

    /// The load executed past >= 1 older store with an unresolved address
    /// (speculative store bypass happened; Bypass Restriction keys on it).
    #[inline]
    pub fn bypassed_unresolved(&self) -> bool {
        self.has(flag::BYPASSED)
    }

    /// Trace bookkeeping: a `TaintGated` event has been emitted for this
    /// entry (emit once per instance, on the first withheld issue).
    #[inline]
    pub fn taint_gate_traced(&self) -> bool {
        self.has(flag::GATE_TRACED)
    }

    /// `true` for an in-flight branch whose outcome is still unknown — the
    /// strict/permissive unsafe border (paper §5.1).
    #[inline]
    pub fn is_unresolved_branch(&self) -> bool {
        self.flags & (flag::BRANCH | flag::RESOLVED) == flag::BRANCH
    }

    /// Issue: execution completes at `done`.
    #[inline]
    pub(crate) fn set_issued(&mut self, done: u64) {
        self.flags |= flag::ISSUED;
        self.done_cycle = done;
    }

    /// Completion (writeback, or dispatch for what resolves there).
    #[inline]
    pub(crate) fn set_completed(&mut self, cycle: u64) {
        self.flags |= flag::COMPLETED;
        self.complete_cycle = cycle;
    }

    /// The destination tag broadcast (or there was nothing to broadcast).
    #[inline]
    pub(crate) fn set_broadcasted(&mut self) {
        self.flags |= flag::BROADCAST;
    }

    /// The branch's outcome is known.
    #[inline]
    pub(crate) fn set_resolved(&mut self) {
        self.flags |= flag::RESOLVED;
    }

    /// A `TaintGated` event was emitted.
    #[inline]
    pub(crate) fn set_taint_gate_traced(&mut self) {
        self.flags |= flag::GATE_TRACED;
    }
}

/// The cold part of one in-flight micro-op. Its fields are not reset at
/// dispatch; each is valid only behind the [`flag`] bit named on it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cold {
    /// Fetch's prediction, written at dispatch (`BRANCH`).
    pred: Prediction,
    /// Next PC computed at execution, written at issue or, for direct
    /// jumps, at dispatch (`BRANCH` and `ISSUED` or `RESOLVED`).
    actual_next: usize,
    /// Actual direction (as `actual_next`).
    actual_taken: bool,
    /// Hierarchy level that serviced a load, written at issue (`LEVEL`).
    mem_level: Option<Level>,
    /// Effective address and access width, written at issue (`MEM`).
    mem_addr: u64,
    mem_size: u64,
    /// Store data, written at issue (`MEM` on a `STORE`).
    store_data: u64,
    /// The store a load forwarded from, written at issue (`FORWARDED`).
    forwarded_from: u64,
    /// InvisiSpec exposure/validation completes at this cycle, written
    /// by the restriction stage (`EXPOSED`).
    exposure_done: u64,
    /// Architectural fault to deliver at commit, written at issue
    /// (`FAULT`).
    fault: Option<Fault>,
}

/// A read-only view of one in-flight micro-op: its hot entry (which it
/// dereferences to) and the cold fields valid for it. A cold field is
/// loaded only after its hot bit is tested.
#[derive(Debug, Clone, Copy)]
pub struct Slot<'a> {
    hot: &'a RobEntry,
    cold: &'a [Cold],
    at: usize,
}

impl Deref for Slot<'_> {
    type Target = RobEntry;
    #[inline]
    fn deref(&self) -> &RobEntry {
        self.hot
    }
}

impl<'a> Slot<'a> {
    /// The hot entry.
    #[inline]
    pub fn hot(self) -> &'a RobEntry {
        self.hot
    }

    /// The cold part, read only behind the bit that makes a field valid
    /// (indexed, not held by reference, so the load stays behind the test).
    #[inline]
    fn cold(self) -> &'a Cold {
        &self.cold[self.at]
    }

    /// Fetch's prediction (branches only).
    #[inline]
    pub fn prediction(self) -> Option<Prediction> {
        self.hot.is_branch().then(|| self.cold().pred)
    }

    /// Ring slot of the RAS snapshot taken just after this branch's own
    /// push/pop at fetch, in the front end's `RasRing`.
    #[inline]
    pub fn ras_after(self) -> Option<RasSlot> {
        self.prediction().and_then(|p| p.ras_after)
    }

    /// The branch's actual direction and next PC, once executed.
    #[inline]
    pub fn outcome(self) -> Option<(bool, usize)> {
        let known = self.hot.flags & (flag::ISSUED | flag::RESOLVED) != 0;
        (self.hot.is_branch() && known).then(|| {
            let cold = self.cold();
            (cold.actual_taken, cold.actual_next)
        })
    }

    /// Effective address and access width (loads and stores, once issued).
    #[inline]
    pub fn mem(self) -> Option<(u64, u64)> {
        self.hot.has(flag::MEM).then(|| {
            let cold = self.cold();
            (cold.mem_addr, cold.mem_size)
        })
    }

    /// Effective address (loads and stores, once issued).
    #[inline]
    pub fn mem_addr(self) -> Option<u64> {
        self.mem().map(|(addr, _)| addr)
    }

    /// Store data (stores, once issued).
    #[inline]
    pub fn store_data(self) -> Option<u64> {
        let both = flag::MEM | flag::STORE;
        (self.hot.flags & both == both).then(|| self.cold().store_data)
    }

    /// Sequence number of the store this load forwarded from.
    #[inline]
    pub fn forwarded_from(self) -> Option<u64> {
        self.hot
            .has(flag::FORWARDED)
            .then(|| self.cold().forwarded_from)
    }

    /// Architectural fault to deliver when this entry reaches commit.
    #[inline]
    pub fn fault(self) -> Option<Fault> {
        self.hot
            .has(flag::FAULT)
            .then(|| self.cold().fault)
            .flatten()
    }

    /// InvisiSpec: exposure/validation completes at this cycle.
    #[inline]
    pub fn exposure_done(self) -> Option<u64> {
        self.hot
            .has(flag::EXPOSED)
            .then(|| self.cold().exposure_done)
    }

    /// Hierarchy level that serviced this entry's data access (set at
    /// issue for loads and probes; used by the CPI-stack classifier).
    #[inline]
    pub fn mem_level(self) -> Option<Level> {
        self.hot
            .has(flag::LEVEL)
            .then(|| self.cold().mem_level)
            .flatten()
    }
}

/// A mutable view of one in-flight micro-op: its hot entry (which it
/// dereferences to) and setters that write a cold field together with
/// the hot bit that makes it readable.
#[derive(Debug)]
pub struct SlotMut<'a> {
    hot: &'a mut RobEntry,
    cold: &'a mut [Cold],
    at: usize,
}

impl Deref for SlotMut<'_> {
    type Target = RobEntry;
    #[inline]
    fn deref(&self) -> &RobEntry {
        self.hot
    }
}

impl DerefMut for SlotMut<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut RobEntry {
        self.hot
    }
}

impl SlotMut<'_> {
    /// A read-only view.
    #[inline]
    pub fn view(&self) -> Slot<'_> {
        Slot {
            hot: self.hot,
            cold: self.cold,
            at: self.at,
        }
    }

    /// The cold part, for a setter.
    #[inline]
    fn cold(&mut self) -> &mut Cold {
        &mut self.cold[self.at]
    }

    /// Dispatch: fetch's prediction, kept for a branch only.
    #[inline]
    pub(crate) fn set_prediction(&mut self, pred: Prediction) {
        if self.hot.is_branch() {
            self.cold().pred = pred;
        }
    }

    /// Issue (dispatch for a direct jump): the branch's outcome.
    #[inline]
    pub(crate) fn set_outcome(&mut self, taken: bool, next: usize) {
        debug_assert!(self.hot.is_branch());
        let cold = self.cold();
        cold.actual_taken = taken;
        cold.actual_next = next;
    }

    /// Issue: the effective address and access width.
    #[inline]
    pub(crate) fn set_mem(&mut self, addr: u64, size: u64) {
        self.hot.flags |= flag::MEM;
        let cold = self.cold();
        cold.mem_addr = addr;
        cold.mem_size = size;
    }

    /// Issue: a store's data (with its address, [`SlotMut::set_mem`]).
    #[inline]
    pub(crate) fn set_store_data(&mut self, data: u64) {
        debug_assert!(self.hot.is_store());
        self.cold().store_data = data;
    }

    /// Issue: the store a load forwarded from.
    #[inline]
    pub(crate) fn set_forwarded_from(&mut self, seq: u64) {
        self.hot.flags |= flag::FORWARDED;
        self.cold().forwarded_from = seq;
    }

    /// Issue: the fault to deliver at commit.
    #[inline]
    pub(crate) fn set_fault(&mut self, fault: Fault) {
        self.hot.flags |= flag::FAULT;
        self.cold().fault = Some(fault);
    }

    /// Issue: the level that serviced the access.
    #[inline]
    pub(crate) fn set_mem_level(&mut self, level: Level) {
        self.hot.flags |= flag::LEVEL;
        self.cold().mem_level = Some(level);
    }

    /// Issue: the load bypassed an unresolved older store.
    #[inline]
    pub(crate) fn set_bypassed(&mut self) {
        self.hot.flags |= flag::BYPASSED;
    }

    /// Issue: the load executed as an InvisiSpec probe.
    #[inline]
    pub(crate) fn set_probe(&mut self) {
        self.hot.flags |= flag::PROBE;
    }

    /// Restriction stage: the probe's exposure completes at `cycle`.
    #[inline]
    pub(crate) fn set_exposure_done(&mut self, cycle: u64) {
        self.hot.flags |= flag::EXPOSED;
        self.cold().exposure_done = cycle;
    }
}

/// The reorder buffer: a bounded FIFO of in-flight micro-ops addressed by
/// sequence number.
///
/// The entries live in a power-of-two ring of slots, the entry with
/// sequence number `s` in slot `s & mask` of both the hot and the cold
/// array. In-flight sequence numbers are contiguous and fewer than the
/// slots, so a lookup is one range compare against the head and one
/// index. The ring grows to its full size as sequence numbers first reach
/// each slot, so building a ROB writes none.
#[derive(Debug, Clone, Default)]
pub struct Rob {
    slots: Vec<RobEntry>,
    cold: Vec<Cold>,
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
            cold: Vec::with_capacity(slots),
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

    #[inline]
    fn view(&self, at: usize) -> Slot<'_> {
        Slot {
            hot: &self.slots[at],
            cold: &self.cold,
            at,
        }
    }

    #[inline]
    fn view_mut(&mut self, at: usize) -> SlotMut<'_> {
        SlotMut {
            hot: &mut self.slots[at],
            cold: &mut self.cold,
            at,
        }
    }

    /// Start the entry for a dispatched micro-op in its slot: reset the
    /// hot line to [`RobEntry::new`] and hand the slot back for dispatch
    /// to fill in place. The cold part is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if full or if `seq` is not contiguous.
    pub fn alloc(&mut self, seq: u64, pc: usize, inst: Inst, cycle: u64) -> SlotMut<'_> {
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
        let entry = RobEntry::new(seq, pc, inst, cycle);
        if entry.is_branch() {
            self.branches.push_back(seq);
        }
        self.len += 1;
        let at = self.slot(seq);
        if at < self.slots.len() {
            self.slots[at] = entry;
        } else {
            // A slot reached for the first time. A first sequence number
            // past slot 0 also fills the slots below it once (they are
            // dead until the ring wraps onto them).
            self.slots.resize(at + 1, entry);
            self.cold.resize(at + 1, Cold::default());
        }
        self.view_mut(at)
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<Slot<'_>> {
        self.get(self.head)
    }

    /// Entry by sequence number.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<Slot<'_>> {
        if seq.wrapping_sub(self.head) < self.len as u64 {
            Some(self.view(self.slot(seq)))
        } else {
            None
        }
    }

    /// Mutable entry by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<SlotMut<'_>> {
        if seq.wrapping_sub(self.head) < self.len as u64 {
            let at = self.slot(seq);
            Some(self.view_mut(at))
        } else {
            None
        }
    }

    /// Retire the oldest entry (commit). The entry stays in its slot,
    /// intact, until a later [`Rob::alloc`] reuses the slot.
    pub fn pop_head(&mut self) -> Option<Slot<'_>> {
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
        Some(self.view(self.slot(seq)))
    }

    /// Pop the youngest entry if `seq >= min_squash` (squash unwinding,
    /// tail first so rename recovery is LIFO). Like [`Rob::pop_head`], it
    /// leaves the entry in its slot.
    pub fn pop_tail_from(&mut self, min_squash: u64) -> Option<Slot<'_>> {
        let tail = self.head + self.len.checked_sub(1)? as u64;
        if tail < min_squash {
            return None;
        }
        self.len -= 1;
        if self.branches.back() == Some(&tail) {
            self.branches.pop_back();
            self.unresolved = self.unresolved.min(self.branches.len());
        }
        Some(self.view(self.slot(tail)))
    }

    /// The oldest in-flight branch and the oldest unresolved one
    /// (`u64::MAX` where there is none). The cursor steps over each
    /// resolved branch once; commit and squash clamp it.
    pub(crate) fn branch_borders(&mut self) -> (u64, u64) {
        while let Some(&seq) = self.branches.get(self.unresolved) {
            if self.get(seq).is_some_and(|e| !e.branch_resolved()) {
                break;
            }
            self.unresolved += 1;
        }
        let oldest = self.branches.front().copied().unwrap_or(u64::MAX);
        let unresolved = self.branches.get(self.unresolved).copied();
        (oldest, unresolved.unwrap_or(u64::MAX))
    }

    /// Iterate oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = Slot<'_>> {
        (0..self.len as u64).map(move |i| self.view(self.slot(self.head + i)))
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
                .find(|&s| rob.get(s).is_some_and(|e| !e.completed()))
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
    fn push(r: &mut Rob, seq: u64) -> SlotMut<'_> {
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
        assert!(r
            .iter()
            .all(|e| *e.hot() == RobEntry::new(e.seq, 2, Inst::Nop, 0)));
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

    const STORE: Inst = Inst::Store {
        src: Reg::X2,
        base: Reg::X3,
        off: 0,
        size: nda_isa::MemSize::B8,
    };
    const LOAD: Inst = Inst::Load {
        rd: Reg::X4,
        base: Reg::X3,
        off: 8,
        size: nda_isa::MemSize::B4,
    };
    const BRANCH: Inst = Inst::Branch {
        cond: nda_isa::BranchCond::Ne,
        rs1: Reg::X2,
        rs2: Reg::X0,
        target: 3,
    };
    /// A store, a load, a branch and an arithmetic micro-op: between them
    /// they own every cold field.
    const KINDS: [Inst; 4] = [STORE, LOAD, BRANCH, Inst::Nop];

    /// A prediction no fresh entry holds, distinct per `tag`.
    fn prediction(tag: u64) -> Prediction {
        Prediction {
            next: 100 + tag as usize,
            ghr_before: tag,
            ras_after: Some(tag as u32),
            taken: tag.is_multiple_of(2),
        }
    }

    /// Dispatch `inst` as `seq` at pc `seq % 1000`, with fetch's
    /// prediction, as the core does.
    fn dispatch(r: &mut Rob, seq: u64, inst: Inst, cycle: u64) -> SlotMut<'_> {
        let mut e = r.alloc(seq, (seq % 1000) as usize, inst, cycle);
        e.set_prediction(prediction(seq));
        e
    }

    /// Write every field the micro-op's kind lets a later stage write,
    /// hot and cold, each to a value a fresh entry does not hold.
    fn dirty(e: &mut SlotMut<'_>) {
        e.prd = Some(40);
        e.old_prd = Some(41);
        e.arch_rd = Some(Reg::X9);
        e.src_pregs = [Some(42), Some(43)];
        e.waiting = 2;
        e.result = 0xfeed;
        e.set_issued(9);
        e.set_completed(10);
        e.set_broadcasted();
        e.set_taint_gate_traced();
        e.set_bypassed();
        e.set_probe();
        e.set_mem(0x1000, 8);
        e.set_forwarded_from(3);
        e.set_fault(nda_isa::Fault::PrivilegedAccess { addr: 0xdead });
        e.set_mem_level(Level::Mem);
        e.set_exposure_done(11);
        if e.is_branch() {
            e.set_resolved();
            e.set_outcome(true, 77);
        }
        if e.is_store() {
            e.set_store_data(0xbeef);
        }
    }

    /// Every field of `e`, read through the API, is that of a micro-op
    /// `inst` just dispatched as `seq` at `cycle` by [`dispatch`].
    fn assert_fresh(e: Slot<'_>, seq: u64, inst: Inst, cycle: u64) {
        let want = RobEntry::new(seq, (seq % 1000) as usize, inst, cycle);
        assert_eq!(*e.hot(), want, "seq {seq}");
        let pred = inst.is_branch().then(|| prediction(seq));
        assert_eq!(e.prediction(), pred, "seq {seq}");
        assert_eq!(e.ras_after(), pred.and_then(|p| p.ras_after));
        assert_eq!(e.outcome(), None, "seq {seq}");
        assert_eq!(e.mem(), None, "seq {seq}");
        assert_eq!(e.mem_addr(), None);
        assert_eq!(e.store_data(), None, "seq {seq}");
        assert_eq!(e.forwarded_from(), None, "seq {seq}");
        assert_eq!(e.fault(), None, "seq {seq}");
        assert_eq!(e.exposure_done(), None, "seq {seq}");
        assert_eq!(e.mem_level(), None, "seq {seq}");
        assert!(!e.issued() && !e.completed() && !e.broadcasted());
        assert!(!e.is_probe() && !e.bypassed_unresolved() && !e.taint_gate_traced());
        assert_eq!(e.is_unresolved_branch(), inst.is_branch());
    }

    /// `e` still reads as [`dirty`] left it.
    fn assert_dirty(e: Slot<'_>) {
        assert_eq!(
            (e.prd, e.old_prd, e.waiting, e.result),
            (Some(40), Some(41), 2, 0xfeed)
        );
        assert!(e.issued() && e.completed() && e.broadcasted() && e.is_probe());
        assert_eq!(e.mem(), Some((0x1000, 8)));
        assert_eq!(e.forwarded_from(), Some(3));
        assert_eq!(e.exposure_done(), Some(11));
        assert_eq!(e.mem_level(), Some(Level::Mem));
        assert!(e.fault().is_some());
        assert_eq!(e.outcome().is_some(), e.is_branch());
        assert_eq!(e.store_data().is_some(), e.is_store());
    }

    #[test]
    fn a_reused_slot_carries_nothing_of_its_previous_occupant() {
        let mut r = Rob::new(192);
        for s in 0..192 {
            dirty(&mut dispatch(&mut r, s, KINDS[s as usize % 4], 5));
        }
        while r.pop_head().is_some() {}
        // Sequence numbers 192..256 fill fresh slots; 256.. wrap onto the
        // retired entries' slots 0..128, each now holding another kind
        // (slot s held KINDS[s % 4]; seq 256 + s gets KINDS[(s + 1) % 4]).
        let kind = |s: u64| KINDS[(s as usize + 1) % 4];
        for s in 192..384 {
            dispatch(&mut r, s, kind(s), 7);
        }
        for s in 192..384 {
            assert_fresh(r.get(s).unwrap(), s, kind(s), 7);
        }
        // A squashed sequence number dispatched again starts afresh too,
        // as every kind over every kind.
        for (old, new) in KINDS.iter().flat_map(|&a| KINDS.map(|b| (a, b))) {
            while r.pop_tail_from(383).is_some() {}
            dirty(&mut dispatch(&mut r, 383, old, 8));
            assert_dirty(r.pop_tail_from(383).unwrap());
            dispatch(&mut r, 383, new, 9);
            assert_fresh(r.get(383).unwrap(), 383, new, 9);
        }
    }

    #[test]
    fn a_retired_head_stays_readable_until_its_slot_is_reused() {
        let mut r = Rob::new(4);
        dirty(&mut dispatch(&mut r, 0, STORE, 0));
        push(&mut r, 1);
        let retired = r.pop_head().unwrap();
        assert_eq!(retired.seq, 0);
        assert_dirty(retired);
        assert_eq!(retired.store_data(), Some(0xbeef));
        assert!(r.get(0).is_none());
        // Dispatches into the other slots leave it intact.
        push(&mut r, 2);
        push(&mut r, 3);
        assert_eq!(r.view(0).seq, 0);
        assert_dirty(r.view(0));
        // The dispatch that wraps onto its slot resets it.
        dispatch(&mut r, 4, BRANCH, 0);
        assert_fresh(r.view(0), 4, BRANCH, 0);
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
        use std::mem::{align_of, size_of};
        // The hot part of an entry is one cache line: the 256-slot ring is
        // 16 KiB and stays in L1. The cold part is written by the stages
        // that produce it, for the micro-ops that have one; hot and cold
        // together stay below the 240 bytes of the unsplit entry. RAS
        // snapshots (144 bytes each) live in the front end's ring.
        assert_eq!(size_of::<RobEntry>(), 64);
        assert_eq!(align_of::<RobEntry>(), 64);
        assert!(size_of::<RobEntry>() + size_of::<Cold>() <= 240);
        assert_eq!(size_of::<super::super::frontend::FetchedUop>(), 48);
    }

    #[test]
    fn unresolved_branch_marker() {
        let mut e = RobEntry::new(0, 0, Inst::Jmp { target: 0 }, 0);
        assert!(e.is_unresolved_branch());
        e.set_resolved();
        assert!(!e.is_unresolved_branch());
        assert!(!RobEntry::new(0, 0, Inst::Nop, 0).is_unresolved_branch());
    }

    #[test]
    fn the_flags_pre_decode_the_class() {
        for (inst, class) in [
            (STORE, (false, false, true, false)),
            (LOAD, (false, true, false, false)),
            (
                Inst::RdMsr {
                    rd: Reg::X2,
                    idx: 1,
                },
                (false, true, false, false),
            ),
            (BRANCH, (true, false, false, false)),
            (Inst::Ret, (true, false, false, false)),
            (Inst::Fence, (false, false, false, true)),
            (Inst::Halt, (false, false, false, true)),
            (Inst::Nop, (false, false, false, false)),
        ] {
            let e = RobEntry::new(0, 0, inst, 0);
            let got = (
                e.is_branch(),
                e.is_load_like(),
                e.is_store(),
                e.is_serializing(),
            );
            assert_eq!(got, class, "{inst}");
        }
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
        r.alloc(11, 11, Inst::Jmp { target: 0 }, 0).set_resolved();
        r.alloc(12, 12, Inst::Jmp { target: 0 }, 0);
        r.alloc(13, 13, store, 0).set_completed(0);
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
