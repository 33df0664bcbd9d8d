//! Register renaming: physical register file, free list and map table.
//!
//! The PRF separates **ready** (the value has been written back) from
//! **visible** (the producing instruction broadcast its tag). NDA's entire
//! mechanism is the gap between the two: an unsafe instruction writes back
//! (`ready`) but does not broadcast (`visible`), so consumers — which issue
//! only on visibility — cannot observe the value (paper §5.1, Fig 2).

use nda_isa::reg::NUM_REGS;
use nda_isa::Reg;
use std::collections::VecDeque;

/// Physical register index.
pub type PReg = u16;

/// The physical register file with per-register ready/visible bits.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    vals: Vec<u64>,
    ready: Vec<bool>,
    visible: Vec<bool>,
}

impl PhysRegFile {
    /// `n` physical registers; the first [`NUM_REGS`] hold the initial
    /// architectural values (zero) and start ready+visible.
    pub fn new(n: usize) -> PhysRegFile {
        assert!(
            n > NUM_REGS,
            "need more physical than architectural registers"
        );
        let mut f = PhysRegFile {
            vals: vec![0; n],
            ready: vec![false; n],
            visible: vec![false; n],
        };
        for i in 0..NUM_REGS {
            f.ready[i] = true;
            f.visible[i] = true;
        }
        f
    }

    /// Number of physical registers.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` if the file is empty (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Value of `p` (meaningful only once ready).
    pub fn value(&self, p: PReg) -> u64 {
        self.vals[p as usize]
    }

    /// Write back a value (sets ready, not visible).
    pub fn write(&mut self, p: PReg, v: u64) {
        self.vals[p as usize] = v;
        self.ready[p as usize] = true;
    }

    /// `true` once the producer has written back.
    pub fn is_ready(&self, p: PReg) -> bool {
        self.ready[p as usize]
    }

    /// `true` once the producer has broadcast its tag — the only state
    /// consumers may issue on.
    pub fn is_visible(&self, p: PReg) -> bool {
        self.visible[p as usize]
    }

    /// Broadcast: make `p` visible to consumers.
    ///
    /// # Panics
    ///
    /// Debug-panics if the value was never written (broadcast before
    /// writeback would leak an undefined value).
    pub fn broadcast(&mut self, p: PReg) {
        debug_assert!(self.ready[p as usize], "broadcast of unwritten p{p}");
        self.visible[p as usize] = true;
    }

    /// Recycle a register for a new allocation: clears ready+visible.
    pub fn reset(&mut self, p: PReg) {
        self.ready[p as usize] = false;
        self.visible[p as usize] = false;
    }
}

/// FIFO free list of physical registers.
#[derive(Debug, Clone)]
pub struct FreeList {
    free: VecDeque<PReg>,
    capacity: usize,
}

impl FreeList {
    /// All registers in `NUM_REGS..n` start free.
    pub fn new(n: usize) -> FreeList {
        FreeList {
            free: (NUM_REGS as PReg..n as PReg).collect(),
            capacity: n - NUM_REGS,
        }
    }

    /// Pop a free register, if any.
    pub fn alloc(&mut self) -> Option<PReg> {
        self.free.pop_front()
    }

    /// Return a register to the pool.
    ///
    /// # Panics
    ///
    /// Debug-panics on double-free (the free list can never exceed its
    /// capacity — the conservation invariant the property tests check).
    pub fn release(&mut self, p: PReg) {
        debug_assert!(!self.free.contains(&p), "double free of p{p}");
        self.free.push_back(p);
        debug_assert!(self.free.len() <= self.capacity, "free list overflow");
    }

    /// Registers currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Iterate over the free registers (front-to-back, allocation order).
    pub fn iter(&self) -> impl Iterator<Item = PReg> + '_ {
        self.free.iter().copied()
    }

    /// Total registers managed (free + in flight).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The speculative architectural→physical map table.
#[derive(Debug, Clone)]
pub struct RenameTable {
    map: [PReg; NUM_REGS],
}

impl RenameTable {
    /// Identity mapping: `xN -> pN`.
    pub fn new() -> RenameTable {
        let mut map = [0; NUM_REGS];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as PReg;
        }
        RenameTable { map }
    }

    /// Current physical register of `r`.
    pub fn lookup(&self, r: Reg) -> PReg {
        self.map[r.index()]
    }

    /// Repoint `r` at `p`, returning the previous mapping (stored in the
    /// ROB entry for squash recovery and freed at commit).
    pub fn rename(&mut self, r: Reg, p: PReg) -> PReg {
        std::mem::replace(&mut self.map[r.index()], p)
    }

    /// Undo a rename during a tail-first ROB walk.
    pub fn restore(&mut self, r: Reg, old: PReg) {
        self.map[r.index()] = old;
    }
}

impl Default for RenameTable {
    fn default() -> RenameTable {
        RenameTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_ready_visible_lifecycle() {
        let mut f = PhysRegFile::new(64);
        assert!(
            f.is_ready(3) && f.is_visible(3),
            "initial arch regs are visible"
        );
        assert!(!f.is_ready(40));
        f.write(40, 7);
        assert!(f.is_ready(40));
        assert!(
            !f.is_visible(40),
            "write-back must not imply visibility (the NDA gap)"
        );
        f.broadcast(40);
        assert!(f.is_visible(40));
        assert_eq!(f.value(40), 7);
        f.reset(40);
        assert!(!f.is_ready(40) && !f.is_visible(40));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "broadcast of unwritten")]
    fn broadcast_before_write_panics() {
        let mut f = PhysRegFile::new(64);
        f.broadcast(50);
    }

    #[test]
    fn freelist_conservation() {
        let mut fl = FreeList::new(64);
        assert_eq!(fl.available(), 32);
        let a = fl.alloc().unwrap();
        let b = fl.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(fl.available(), 30);
        fl.release(a);
        fl.release(b);
        assert_eq!(fl.available(), 32);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fl = FreeList::new(40);
        let a = fl.alloc().unwrap();
        fl.release(a);
        fl.release(a);
    }

    #[test]
    fn rename_table_roundtrip() {
        let mut t = RenameTable::new();
        assert_eq!(t.lookup(Reg::X5), 5);
        let old = t.rename(Reg::X5, 99);
        assert_eq!(old, 5);
        assert_eq!(t.lookup(Reg::X5), 99);
        t.restore(Reg::X5, old);
        assert_eq!(t.lookup(Reg::X5), 5);
    }
}
