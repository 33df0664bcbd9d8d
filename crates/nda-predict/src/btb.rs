//! Branch target buffer.
//!
//! The BTB maps branch PCs to predicted target PCs. Two properties matter
//! for the paper:
//!
//! 1. Entries from different branch *values* at the same call site collide
//!    (same index+tag), so an indirect `call` through a register leaves the
//!    most recent target behind — Listing 3's transmitter.
//! 2. Updates performed during wrong-path execution are **not** reverted on
//!    squash ([`BtbConfig::speculative_update`], default `true`), making
//!    the BTB a covert channel. The ablation benches flip this off to show
//!    the channel closing (and the performance cost of doing so naively is
//!    zero here because update *timing* is unchanged — the point of the
//!    paper is that one must close *every* such structure).

/// Geometry and update policy of the [`Btb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Number of direct-mapped entries (power of two). Table 3: 4096.
    pub entries: usize,
    /// Update the BTB as soon as an indirect branch *executes* (possibly on
    /// the wrong path). `false` defers updates to commit.
    pub speculative_update: bool,
}

impl Default for BtbConfig {
    fn default() -> BtbConfig {
        BtbConfig {
            entries: 4096,
            speculative_update: true,
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    tag: u64,
    target: usize,
    valid: bool,
}

/// A direct-mapped, tagged branch target buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    cfg: BtbConfig,
    entries: Vec<Entry>,
    lookups: u64,
    hits: u64,
}

impl Btb {
    /// An empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(cfg: BtbConfig) -> Btb {
        assert!(
            cfg.entries.is_power_of_two(),
            "btb entries must be a power of two"
        );
        Btb {
            entries: vec![Entry::default(); cfg.entries],
            cfg,
            lookups: 0,
            hits: 0,
        }
    }

    /// The configuration this BTB was built with.
    pub fn config(&self) -> BtbConfig {
        self.cfg
    }

    #[inline]
    fn split(&self, pc: u64) -> (usize, u64) {
        let idx = (pc as usize) & (self.cfg.entries - 1);
        (idx, pc >> self.cfg.entries.trailing_zeros())
    }

    /// Predicted target for the branch at `pc`, if one is cached.
    pub fn lookup(&mut self, pc: u64) -> Option<usize> {
        self.lookups += 1;
        let (idx, tag) = self.split(pc);
        let e = self.entries[idx];
        if e.valid && e.tag == tag {
            self.hits += 1;
            Some(e.target)
        } else {
            None
        }
    }

    /// Tag-check without stats (used by the trace renderer).
    pub fn peek(&self, pc: u64) -> Option<usize> {
        let (idx, tag) = self.split(pc);
        let e = self.entries[idx];
        (e.valid && e.tag == tag).then_some(e.target)
    }

    /// Install/overwrite the mapping `pc -> target`.
    pub fn update(&mut self, pc: u64, target: usize) {
        let (idx, tag) = self.split(pc);
        self.entries[idx] = Entry {
            tag,
            target,
            valid: true,
        };
    }

    /// `(lookups, hits)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Snapshot the BTB: its valid entries and the lookup/hit counters
    /// (they participate in equality). See [`BtbState`].
    pub fn dump_state(&self) -> BtbState {
        BtbState {
            entries: self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.valid)
                .map(|(index, e)| BtbEntryState {
                    index,
                    tag: e.tag,
                    target: e.target,
                })
                .collect(),
            lookups: self.lookups,
            hits: self.hits,
        }
    }

    /// Load a [`Btb::dump_state`] snapshot into this BTB, replacing its
    /// contents but keeping its configuration. Returns `false`, and
    /// changes nothing, when the snapshot does not
    /// [fit](BtbState::fits) the configuration.
    pub fn restore_state(&mut self, state: &BtbState) -> bool {
        if !state.fits(self.cfg) {
            return false;
        }
        self.entries.fill(Entry::default());
        for e in &state.entries {
            self.entries[e.index] = Entry {
                tag: e.tag,
                target: e.target,
                valid: true,
            };
        }
        self.lookups = state.lookups;
        self.hits = state.hits;
        true
    }

    /// Rebuild a BTB from a [`Btb::dump_state`] snapshot. Returns `None`
    /// when the snapshot does not fit `cfg`.
    pub fn from_state(cfg: BtbConfig, state: &BtbState) -> Option<Btb> {
        if !cfg.entries.is_power_of_two() {
            return None;
        }
        let mut btb = Btb::new(cfg);
        btb.restore_state(state).then_some(btb)
    }
}

/// One valid entry of a [`BtbState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbEntryState {
    /// Position of the entry in the table.
    pub index: usize,
    /// Entry tag (upper PC bits).
    pub tag: u64,
    /// Cached target (instruction index).
    pub target: usize,
}

/// Exact, sparse snapshot of a [`Btb`]: the valid entries only, plus the
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BtbState {
    /// The valid entries, in ascending [`BtbEntryState::index`] order.
    pub entries: Vec<BtbEntryState>,
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
}

impl BtbState {
    /// `true` when this snapshot can describe a BTB configured by `cfg`:
    /// entry indices strictly ascending and below `cfg.entries`.
    pub fn fits(&self, cfg: BtbConfig) -> bool {
        let mut next = 0;
        self.entries.iter().all(|e| {
            let ok = (next..cfg.entries).contains(&e.index);
            next = e.index.saturating_add(1);
            ok
        })
    }
}

impl Default for Btb {
    fn default() -> Btb {
        Btb::new(BtbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut b = Btb::default();
        assert_eq!(b.lookup(0x100), None);
        b.update(0x100, 55);
        assert_eq!(b.lookup(0x100), Some(55));
        assert_eq!(b.stats(), (2, 1));
    }

    #[test]
    fn same_site_different_targets_conflict() {
        // Listing 3: all indirect calls from one site share one entry, so
        // the last speculative target wins — that's the covert channel.
        let mut b = Btb::default();
        b.update(0x200, 10);
        b.update(0x200, 99);
        assert_eq!(b.lookup(0x200), Some(99));
    }

    #[test]
    fn tag_prevents_aliased_hit() {
        let mut b = Btb::new(BtbConfig {
            entries: 16,
            speculative_update: true,
        });
        b.update(0x5, 7);
        // 0x5 + 16 maps to the same index but a different tag.
        assert_eq!(b.lookup(0x5 + 16), None);
        assert_eq!(b.lookup(0x5), Some(7));
    }

    #[test]
    fn peek_does_not_count() {
        let mut b = Btb::default();
        b.update(0x1, 2);
        let before = b.stats();
        assert_eq!(b.peek(0x1), Some(2));
        assert_eq!(b.stats(), before);
    }

    #[test]
    fn sparse_snapshot_round_trips() {
        let cfg = BtbConfig {
            entries: 16,
            speculative_update: true,
        };
        let mut b = Btb::new(cfg);
        b.update(0x3, 30);
        b.update(0x9, 90);
        b.lookup(0x3);
        let state = b.dump_state();
        assert_eq!(
            state.entries.iter().map(|e| e.index).collect::<Vec<_>>(),
            [3, 9]
        );
        assert_eq!(Btb::from_state(cfg, &state), Some(b.clone()));

        // Restoring into a used BTB drops its own entries.
        let mut used = Btb::new(cfg);
        used.update(0x5, 50);
        assert!(used.restore_state(&state));
        assert_eq!(used, b);

        // Out-of-range, repeated and descending indices are refused.
        let entry = |index| BtbEntryState {
            index,
            tag: 0,
            target: 0,
        };
        for entries in [
            vec![entry(16)],
            vec![entry(2), entry(2)],
            vec![entry(9), entry(3)],
        ] {
            let bad = BtbState {
                entries,
                ..state.clone()
            };
            assert!(!used.clone().restore_state(&bad));
            assert!(Btb::from_state(cfg, &bad).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        Btb::new(BtbConfig {
            entries: 5,
            speculative_update: true,
        });
    }
}
