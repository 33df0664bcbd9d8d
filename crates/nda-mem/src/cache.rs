//! Set-associative tag store with true-LRU replacement.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Round-trip hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    /// Monotonic use stamp for true-LRU.
    last_use: u64,
}

/// One valid line of a [`CacheState`], with public fields so the
/// persistent checkpoint store (in `nda-core`) can encode it without this
/// crate depending on any serialization machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineState {
    /// Set-major position of the line (`set * ways + way`).
    pub index: usize,
    /// Line tag (line index; the set mapping is re-derived from geometry).
    pub tag: u64,
    /// LRU use stamp.
    pub last_use: u64,
}

/// Exact, sparse snapshot of a [`SetAssocCache`]: the valid lines only,
/// plus the LRU tick and stats. An invalid line is always the empty line,
/// so nothing else needs recording. Produced by
/// [`SetAssocCache::dump_state`]; [`SetAssocCache::from_state`] with the
/// same geometry yields a cache that compares equal to the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// The valid lines, in ascending [`LineState::index`] order.
    pub lines: Vec<LineState>,
    /// Monotonic LRU tick.
    pub tick: u64,
    /// Accumulated hit/miss counters.
    pub stats: CacheStats,
}

impl CacheState {
    /// `true` when this snapshot can describe a cache of geometry `cfg`:
    /// at most one entry per line, indices strictly ascending and in
    /// range, and every use stamp in `1..=tick` (a valid line is always
    /// stamped by the access that filled it, so a snapshot with `tick`
    /// zero holds no lines).
    pub fn fits(&self, cfg: CacheConfig) -> bool {
        let capacity = cfg.sets() * cfg.ways;
        let mut next = 0;
        self.lines.iter().all(|l| {
            let ok = (next..capacity).contains(&l.index) && (1..=self.tick).contains(&l.last_use);
            next = l.index.saturating_add(1);
            ok
        })
    }
}

/// A set-associative, true-LRU tag store.
///
/// The store tracks presence and recency only; data bytes never enter it.
/// Speculative (wrong-path) fills are permitted and are *not* reverted on
/// squash — that is precisely the micro-architectural residue speculative
/// execution attacks exploit (paper §2).
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// All lines in one flat allocation; set `s` occupies
    /// `s*ways .. (s+1)*ways`. One allocation instead of one per set (a
    /// 2 MiB L2 has 2048 sets), and a set-major index names each line in
    /// a [`CacheState`].
    lines: Vec<Line>,
    num_sets: usize,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways or non-power-of-two
    /// line size).
    pub fn new(cfg: CacheConfig) -> SetAssocCache {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.sets() > 0, "cache must have at least one set");
        SetAssocCache {
            lines: vec![Line::default(); cfg.ways * cfg.sets()],
            num_sets: cfg.sets(),
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes;
        let set = (line % self.num_sets as u64) as usize;
        (set, line)
    }

    /// The lines of set `s`.
    #[inline]
    fn set(&self, s: usize) -> &[Line] {
        &self.lines[s * self.cfg.ways..][..self.cfg.ways]
    }

    /// `true` if the line containing `addr` is present. No state change.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.split(addr);
        self.set(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Normal access: returns `true` on hit. Updates LRU and allocates the
    /// line on miss (evicting true-LRU). Counts in [`CacheStats`].
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.split(addr);
        let ways = self.cfg.ways;
        let set = &mut self.lines[set * ways..][..ways];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.last_use = tick;
            self.stats.hits += 1;
            return true;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("ways > 0");
        *victim = Line {
            tag,
            valid: true,
            last_use: tick,
        };
        self.stats.misses += 1;
        false
    }

    /// Install the line containing `addr` (a fill arriving from the next
    /// level): allocates and refreshes LRU but does **not** count as an
    /// access in [`CacheStats`] — the originating miss was already counted.
    pub fn install(&mut self, addr: u64) {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.split(addr);
        let ways = self.cfg.ways;
        let set = &mut self.lines[set * ways..][..ways];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.last_use = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("ways > 0");
        *victim = Line {
            tag,
            valid: true,
            last_use: tick,
        };
    }

    /// Functional-warming touch (sampled simulation's fast-forward phase):
    /// allocate/LRU-refresh the line containing `addr` exactly as a
    /// serviced access would, but latency-free and without counting in
    /// [`CacheStats`] — warming shapes tag/LRU state for the detailed
    /// windows, it is not itself a measured access.
    pub fn warm_touch(&mut self, addr: u64) {
        self.install(addr);
    }

    /// Count a miss that was serviced without calling [`Self::access`]
    /// (the hierarchy counts misses at request time but installs lines at
    /// fill time).
    pub fn count_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// InvisiSpec-style probe: reports hit/miss *without* allocating or
    /// touching LRU state, and without counting in [`CacheStats`].
    pub fn probe(&self, addr: u64) -> bool {
        self.contains(addr)
    }

    /// Invalidate the line containing `addr` (used by `clflush`). The
    /// way becomes the empty line, so an invalid line never carries a
    /// stale tag or stamp and [`Self::dump_state`] stays exact.
    pub fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.split(addr);
        let ways = self.cfg.ways;
        for l in &mut self.lines[set * ways..][..ways] {
            if l.valid && l.tag == tag {
                *l = Line::default();
            }
        }
    }

    /// Drop every line (used between sampling intervals).
    pub fn invalidate_all(&mut self) {
        self.lines.fill(Line::default());
    }

    /// Snapshot the replacement state: the valid lines, the tick and the
    /// stats. See [`CacheState`].
    pub fn dump_state(&self) -> CacheState {
        CacheState {
            lines: self
                .lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.valid)
                .map(|(index, l)| LineState {
                    index,
                    tag: l.tag,
                    last_use: l.last_use,
                })
                .collect(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Load a [`SetAssocCache::dump_state`] snapshot into this cache,
    /// replacing its contents. Returns `false`, and changes nothing, when
    /// the snapshot does not [fit](CacheState::fits) this geometry.
    ///
    /// Writes only the snapshot's lines: a cache that was never filled
    /// (tick 0, as built by [`Self::new`]) holds only empty lines, so the
    /// rest of its array is neither written nor read. A used cache is
    /// emptied first.
    pub fn restore_state(&mut self, state: &CacheState) -> bool {
        if !state.fits(self.cfg) {
            return false;
        }
        if self.tick != 0 {
            self.invalidate_all();
        }
        for l in &state.lines {
            self.lines[l.index] = Line {
                tag: l.tag,
                valid: true,
                last_use: l.last_use,
            };
        }
        self.tick = state.tick;
        self.stats = state.stats;
        true
    }

    /// Rebuild a cache from a [`SetAssocCache::dump_state`] snapshot.
    /// Returns `None` when the snapshot does not fit the geometry of
    /// `cfg` — the checkpoint store uses this to refuse entries taken
    /// under a different hierarchy configuration.
    pub fn from_state(cfg: CacheConfig, state: &CacheState) -> Option<SetAssocCache> {
        let mut cache = SetAssocCache::new(cfg);
        cache.restore_state(state).then_some(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            latency: 4,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3f), "same line");
        assert!(!c.access(0x40), "next line maps to other set");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: addresses with line index even (2 sets): 0x000, 0x080, 0x100.
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // 0x080 is now LRU
        c.access(0x100); // evicts 0x080
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = tiny();
        c.access(0x000);
        c.access(0x080);
        // Probing 0x000 must NOT refresh its LRU position.
        assert!(c.probe(0x000));
        let stats_before = c.stats();
        assert!(!c.probe(0x100));
        assert_eq!(c.stats(), stats_before, "probe must not count");
        c.access(0x100); // evicts 0x000 (still LRU despite the probe)
        assert!(!c.contains(0x000));
        assert!(c.contains(0x080));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0x0);
        c.invalidate(0x20); // same line
        assert!(!c.contains(0x0));
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = tiny();
        c.access(0x0);
        c.access(0x40);
        c.invalidate_all();
        assert!(!c.contains(0x0));
        assert!(!c.contains(0x40));
    }

    #[test]
    fn dump_after_clflush_round_trips_to_an_equal_cache() {
        let mut c = tiny();
        for a in [0x000, 0x040, 0x080, 0x0c0] {
            c.access(a);
        }
        c.invalidate(0x040);
        let state = c.dump_state();
        assert_eq!(state.lines.len(), 3, "only the valid lines are kept");
        assert!(state.lines.windows(2).all(|w| w[0].index < w[1].index));
        assert_eq!(SetAssocCache::from_state(c.config(), &state), Some(c));
    }

    #[test]
    fn restore_into_a_used_cache_replaces_its_lines() {
        let mut src = tiny();
        src.access(0x000);
        let mut dst = tiny();
        dst.access(0x040);
        dst.access(0x080);
        assert!(dst.restore_state(&src.dump_state()));
        assert_eq!(dst, src);
    }

    #[test]
    fn snapshots_that_do_not_fit_are_refused() {
        let mut c = tiny();
        c.access(0x000);
        c.access(0x040);
        let good = c.dump_state();
        let line = |index, last_use| LineState {
            index,
            tag: 0,
            last_use,
        };
        let cases = [
            vec![line(4, 1)],             // out of range (4 lines)
            vec![line(2, 1), line(2, 2)], // repeated
            vec![line(2, 1), line(0, 2)], // descending
            vec![line(0, 0)],             // never stamped
            vec![line(0, good.tick + 1)], // stamped after the tick
        ];
        for lines in cases {
            let bad = CacheState {
                lines: lines.clone(),
                ..good.clone()
            };
            let mut d = c.clone();
            assert!(!d.restore_state(&bad), "{lines:?}");
            assert_eq!(d, c, "a refused snapshot must change nothing");
            assert!(SetAssocCache::from_state(c.config(), &bad).is_none());
        }
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0x0);
        c.access(0x0);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 0,
            latency: 1,
        });
    }
}
