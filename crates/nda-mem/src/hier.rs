//! The two-level cache hierarchy plus DRAM.

use crate::cache::{CacheConfig, CacheState, CacheStats, SetAssocCache};
use crate::mlp::{MlpState, MlpTracker};
use crate::mshr::{MshrFile, MshrState};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// First-level cache hit.
    L1,
    /// Second-level cache hit.
    L2,
    /// Off-chip (DRAM) access.
    Mem,
}

/// Result of a data-side access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Round-trip latency in cycles from the access cycle.
    pub latency: u64,
    /// The level that provided the line.
    pub level: Level,
}

/// Hierarchy configuration (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemHierConfig {
    /// Instruction L1.
    pub l1i: CacheConfig,
    /// Data L1.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// DRAM response latency in cycles (50 ns at 2 GHz = 100).
    pub dram_latency: u64,
    /// Number of data-side MSHRs (bounds MLP).
    pub mshrs: usize,
    /// Next-line prefetch on data-side off-chip misses. Off by default
    /// (Table 3 has no prefetcher); the ablation benches turn it on.
    /// Prefetches are issued speculatively and — like every predictive
    /// structure the paper lists in §2 — are *not* reverted on squash.
    pub next_line_prefetch: bool,
}

impl MemHierConfig {
    /// The configuration of the paper's Table 3 at 2 GHz: 32 KiB 8-way L1s
    /// with 4-cycle round trip, 2 MiB 16-way L2 with 40-cycle round trip,
    /// 50 ns DRAM, 16 MSHRs.
    pub fn haswell_like() -> MemHierConfig {
        MemHierConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
                latency: 4,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                line_bytes: 64,
                ways: 16,
                latency: 40,
            },
            dram_latency: 100,
            mshrs: 16,
            next_line_prefetch: false,
        }
    }

    /// A tiny hierarchy for unit tests (exaggerated conflict behaviour).
    pub fn tiny() -> MemHierConfig {
        MemHierConfig {
            l1i: CacheConfig {
                size_bytes: 512,
                line_bytes: 64,
                ways: 2,
                latency: 4,
            },
            l1d: CacheConfig {
                size_bytes: 512,
                line_bytes: 64,
                ways: 2,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                ways: 2,
                latency: 40,
            },
            dram_latency: 100,
            mshrs: 4,
            next_line_prefetch: false,
        }
    }
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// L1I hit/miss counts.
    pub l1i: CacheStats,
    /// L1D hit/miss counts.
    pub l1d: CacheStats,
    /// L2 hit/miss counts.
    pub l2: CacheStats,
    /// Off-chip accesses performed.
    pub dram_accesses: u64,
    /// Prefetches issued (0 unless the prefetcher is enabled).
    pub prefetches: u64,
    /// MLP while >= 1 off-chip miss outstanding (Fig 9b definition).
    pub mlp: Option<f64>,
}

impl MemStats {
    /// Export every counter into `reg` under stable `mem.*` names. MLP is
    /// a derived ratio, not a counter, so it is intentionally excluded
    /// from the registry document (recompute it from the counters).
    pub fn export(&self, reg: &mut nda_stats::MetricsRegistry) {
        reg.counter("mem.l1i.hits", self.l1i.hits);
        reg.counter("mem.l1i.misses", self.l1i.misses);
        reg.counter("mem.l1d.hits", self.l1d.hits);
        reg.counter("mem.l1d.misses", self.l1d.misses);
        reg.counter("mem.l2.hits", self.l2.hits);
        reg.counter("mem.l2.misses", self.l2.misses);
        reg.counter("mem.dram_accesses", self.dram_accesses);
        reg.counter("mem.prefetches", self.prefetches);
    }
}

/// The cache hierarchy + DRAM timing model. See the crate docs for the
/// separation between timing (here) and architectural bytes
/// (`nda_isa::SparseMem`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemHier {
    cfg: MemHierConfig,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    mshr: MshrFile,
    mlp: MlpTracker,
    dram_accesses: u64,
    prefetches: u64,
    /// Off-chip fills that have been requested but not yet arrived:
    /// `(line-base address, completion cycle)`. Applied lazily.
    pending_fills: Vec<(u64, u64)>,
    /// Extra cycles added to every data-side access (fault-injection knob:
    /// models transient contention/queuing without touching cache state).
    extra_latency: u64,
}

impl MemHier {
    /// Build an empty (cold) hierarchy.
    pub fn new(cfg: MemHierConfig) -> MemHier {
        MemHier {
            l1i: SetAssocCache::new(cfg.l1i),
            l1d: SetAssocCache::new(cfg.l1d),
            l2: SetAssocCache::new(cfg.l2),
            mshr: MshrFile::new(cfg.mshrs),
            mlp: MlpTracker::new(),
            dram_accesses: 0,
            prefetches: 0,
            pending_fills: Vec::new(),
            extra_latency: 0,
            cfg,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> MemHierConfig {
        self.cfg
    }

    /// Add `extra` cycles to every subsequent data-side access (0 restores
    /// nominal timing). A timing-only perturbation: architectural results
    /// must be unaffected, which is exactly what the fault-injection
    /// harness asserts.
    pub fn set_extra_latency(&mut self, extra: u64) {
        self.extra_latency = extra;
    }

    /// Data-side MSHR entries still in flight at `now` (retired entries are
    /// drained first).
    pub fn mshr_outstanding(&mut self, now: u64) -> usize {
        self.mshr.outstanding(now)
    }

    /// Install fills that completed at or before `now`.
    fn apply_fills(&mut self, now: u64) {
        let mut i = 0;
        while i < self.pending_fills.len() {
            let (addr, done) = self.pending_fills[i];
            if done <= now {
                self.l2.install(addr);
                self.l1d.install(addr);
                self.pending_fills.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Data-side access at cycle `now` (loads at execute, stores at
    /// commit). Fills caches on miss (at fill time) and updates LRU —
    /// including on the wrong path, which is the paper's d-cache covert
    /// channel.
    ///
    /// Returns `None` when every MSHR is busy and the access must retry.
    pub fn access_data(&mut self, addr: u64, now: u64) -> Option<DataAccess> {
        self.apply_fills(now);
        if self.l1d.probe(addr) {
            self.l1d.access(addr);
            return Some(DataAccess {
                latency: self.cfg.l1d.latency + self.extra_latency,
                level: Level::L1,
            });
        }
        if self.l2.probe(addr) {
            self.l1d.count_miss();
            self.l2.access(addr); // LRU update
            self.l1d.install(addr); // L1 fill
            return Some(DataAccess {
                latency: self.cfg.l1d.latency + self.cfg.l2.latency + self.extra_latency,
                level: Level::L2,
            });
        }
        // Off-chip: needs an MSHR. Reserve it *before* touching tag state so
        // a refused access leaves no residue.
        let line_addr = addr & !(self.cfg.l1d.line_bytes - 1);
        let line = addr / self.cfg.l1d.line_bytes;
        let full_latency =
            self.cfg.l1d.latency + self.cfg.l2.latency + self.cfg.dram_latency + self.extra_latency;
        let (done, merged) = self.mshr.allocate(line, now, now + full_latency)?;
        if !merged {
            self.dram_accesses += 1;
            self.mlp.record(now, done);
            self.l1d.count_miss();
            self.l2.count_miss();
            self.pending_fills.push((line_addr, done));
            // Next-line prefetch: fire-and-forget, only if a spare MSHR is
            // available and the line is absent.
            if self.cfg.next_line_prefetch {
                let next = line_addr + self.cfg.l1d.line_bytes;
                if !self.l1d.probe(next) && !self.l2.probe(next) {
                    if let Some((pdone, pmerged)) =
                        self.mshr
                            .allocate(next / self.cfg.l1d.line_bytes, now, now + full_latency)
                    {
                        if !pmerged {
                            self.prefetches += 1;
                            self.dram_accesses += 1;
                            self.pending_fills.push((next, pdone));
                        }
                    }
                }
            }
        }
        Some(DataAccess {
            latency: done - now,
            level: Level::Mem,
        })
    }

    /// Instruction fetch of the line containing `addr` at cycle `now`.
    /// Returns the latency; the front end stalls for it. Instruction misses
    /// do not consume data MSHRs.
    pub fn access_inst(&mut self, addr: u64) -> DataAccess {
        if self.l1i.access(addr) {
            return DataAccess {
                latency: self.cfg.l1i.latency,
                level: Level::L1,
            };
        }
        if self.l2.access(addr) {
            return DataAccess {
                latency: self.cfg.l1i.latency + self.cfg.l2.latency,
                level: Level::L2,
            };
        }
        self.dram_accesses += 1;
        DataAccess {
            latency: self.cfg.l1i.latency + self.cfg.l2.latency + self.cfg.dram_latency,
            level: Level::Mem,
        }
    }

    /// InvisiSpec probe: the latency and level the access *would* see,
    /// with **no** fill, LRU update or stat count (pending fills that have
    /// completed by `now` are installed first — that is bookkeeping, not an
    /// observable side effect of the probe).
    pub fn probe_data(&mut self, addr: u64, now: u64) -> DataAccess {
        self.apply_fills(now);
        if self.l1d.probe(addr) {
            DataAccess {
                latency: self.cfg.l1d.latency,
                level: Level::L1,
            }
        } else if self.l2.probe(addr) {
            DataAccess {
                latency: self.cfg.l1d.latency + self.cfg.l2.latency,
                level: Level::L2,
            }
        } else {
            DataAccess {
                latency: self.cfg.l1d.latency + self.cfg.l2.latency + self.cfg.dram_latency,
                level: Level::Mem,
            }
        }
    }

    /// InvisiSpec exposure: install the line containing `addr` from the
    /// load's speculative buffer into L1D and L2 — no miss is re-paid and
    /// no stats are counted (the original probe observed the latency).
    pub fn install_data_line(&mut self, addr: u64) {
        self.l2.install(addr);
        self.l1d.install(addr);
    }

    /// Functional warming of a data access (sampled simulation's
    /// fast-forward phase): bring the line to the same tag/LRU state a
    /// serviced [`Self::access_data`] would leave it in — L1 hit refreshes
    /// L1 LRU; otherwise the line is installed in L2 (LRU-refresh if
    /// present) and filled into L1 — but immediately, with no latency, no
    /// MSHR traffic, no pending fill and no stat counts.
    pub fn warm_touch_data(&mut self, addr: u64) {
        if self.l1d.probe(addr) {
            self.l1d.warm_touch(addr);
        } else {
            self.l2.warm_touch(addr);
            self.l1d.warm_touch(addr);
        }
    }

    /// Functional warming of an instruction fetch: the i-side analogue of
    /// [`Self::warm_touch_data`] (L1I + L2 tag/LRU only, latency-free,
    /// uncounted).
    pub fn warm_touch_inst(&mut self, addr: u64) {
        if self.l1i.probe(addr) {
            self.l1i.warm_touch(addr);
        } else {
            self.l2.warm_touch(addr);
            self.l1i.warm_touch(addr);
        }
    }

    /// `clflush`: evict the line containing `addr` from every level and
    /// cancel any pending fill of it.
    pub fn flush_line(&mut self, addr: u64) {
        self.l1i.invalidate(addr);
        self.l1d.invalidate(addr);
        self.l2.invalidate(addr);
        let line_addr = addr & !(self.cfg.l1d.line_bytes - 1);
        self.pending_fills.retain(|&(a, _)| a != line_addr);
    }

    /// `true` if the data side holds the line (either level).
    pub fn data_line_present(&self, addr: u64) -> bool {
        self.l1d.probe(addr) || self.l2.probe(addr)
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            dram_accesses: self.dram_accesses,
            prefetches: self.prefetches,
            mlp: self.mlp.mlp(),
        }
    }

    /// Snapshot the entire hierarchy state (tag/LRU stores, MSHRs, MLP
    /// accumulators, counters and pending fills). Pending fills are sorted
    /// for a deterministic encoding; `apply_fills` is order-insensitive, so
    /// restoring the sorted list is behaviourally identical. See
    /// [`MemHierState`].
    pub fn dump_state(&self) -> MemHierState {
        let mut pending_fills = self.pending_fills.clone();
        pending_fills.sort_unstable();
        MemHierState {
            l1i: self.l1i.dump_state(),
            l1d: self.l1d.dump_state(),
            l2: self.l2.dump_state(),
            mshr: self.mshr.dump_state(),
            mlp: self.mlp.dump_state(),
            dram_accesses: self.dram_accesses,
            prefetches: self.prefetches,
            pending_fills,
            extra_latency: self.extra_latency,
        }
    }

    /// Load a [`MemHier::dump_state`] snapshot into this hierarchy,
    /// replacing its state but keeping its configuration. Returns `false`,
    /// and changes nothing, when the snapshot does not
    /// [fit](MemHierState::fits) the configuration.
    ///
    /// Only the snapshot's valid lines are written, so restoring into a
    /// freshly built hierarchy costs in proportion to the warm state, not
    /// to the cache sizes (see [`SetAssocCache::restore_state`]).
    pub fn restore_state(&mut self, state: &MemHierState) -> bool {
        if !state.fits(self.cfg) {
            return false;
        }
        let Some(mshr) = MshrFile::from_state(self.cfg.mshrs, &state.mshr) else {
            return false;
        };
        // The snapshot fits, so none of the cache restores can refuse.
        self.l1i.restore_state(&state.l1i);
        self.l1d.restore_state(&state.l1d);
        self.l2.restore_state(&state.l2);
        self.mshr = mshr;
        self.mlp = MlpTracker::from_state(&state.mlp);
        self.dram_accesses = state.dram_accesses;
        self.prefetches = state.prefetches;
        self.pending_fills.clone_from(&state.pending_fills);
        self.extra_latency = state.extra_latency;
        true
    }

    /// Rebuild a hierarchy from a [`MemHier::dump_state`] snapshot taken
    /// under the same configuration. Returns `None` when any component's
    /// snapshot does not fit `cfg`'s geometry.
    pub fn from_state(cfg: MemHierConfig, state: &MemHierState) -> Option<MemHier> {
        let mut hier = MemHier::new(cfg);
        hier.restore_state(state).then_some(hier)
    }
}

/// Exact snapshot of a [`MemHier`], detached from its configuration (the
/// configuration is part of the checkpoint-store key, so only mutable state
/// travels with each entry). The caches are sparse [`CacheState`]s. All
/// fields are integers — no float rounding can occur on a round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemHierState {
    /// L1I tag/LRU state.
    pub l1i: CacheState,
    /// L1D tag/LRU state.
    pub l1d: CacheState,
    /// L2 tag/LRU state.
    pub l2: CacheState,
    /// MSHR file state.
    pub mshr: MshrState,
    /// MLP accumulator state.
    pub mlp: MlpState,
    /// Off-chip accesses performed.
    pub dram_accesses: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Requested-but-unfilled lines as `(line base, completion)`, sorted.
    pub pending_fills: Vec<(u64, u64)>,
    /// Fault-injection latency knob (normally zero).
    pub extra_latency: u64,
}

impl MemHierState {
    /// `true` when this snapshot can describe a hierarchy configured by
    /// `cfg`: each cache [fits](CacheState::fits) its level, and the MSHR
    /// file holds no more fills than `cfg` has MSHRs.
    pub fn fits(&self, cfg: MemHierConfig) -> bool {
        self.l1i.fits(cfg.l1i)
            && self.l1d.fits(cfg.l1d)
            && self.l2.fits(cfg.l2)
            && self.mshr.in_flight.len() <= cfg.mshrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_warm_hits() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        let a = h.access_data(0x1000, 0).unwrap();
        assert_eq!(a.level, Level::Mem);
        assert_eq!(a.latency, 4 + 40 + 100);
        let b = h.access_data(0x1000, 200).unwrap();
        assert_eq!(b.level, Level::L1);
        assert_eq!(b.latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = MemHier::new(MemHierConfig::tiny());
        // l1d: 4 sets x 2 ways. Fill set 0 with 3 lines (stride = 4*64).
        let stride = 4 * 64;
        h.access_data(0, 0).unwrap();
        h.access_data(stride, 300).unwrap();
        h.access_data(2 * stride, 600).unwrap(); // evicts line 0 from L1
        let a = h.access_data(0, 900).unwrap();
        assert_eq!(a.level, Level::L2);
        assert_eq!(a.latency, 44);
    }

    #[test]
    fn flush_forces_offchip() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        h.access_data(0x2000, 0).unwrap();
        h.flush_line(0x2000);
        let a = h.access_data(0x2000, 500).unwrap();
        assert_eq!(a.level, Level::Mem);
    }

    #[test]
    fn mshr_exhaustion_refuses_without_residue() {
        let mut h = MemHier::new(MemHierConfig::tiny()); // 4 MSHRs
        for i in 0..4 {
            assert!(h.access_data(0x10_000 + i * 64, 0).is_some());
        }
        let refused_addr = 0x20_000;
        assert!(h.access_data(refused_addr, 1).is_none());
        assert!(
            !h.data_line_present(refused_addr),
            "refused access left residue"
        );
        // After the fills complete, the access goes through.
        assert!(h.access_data(refused_addr, 1000).is_some());
    }

    #[test]
    fn merged_miss_sees_remaining_latency() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        let first = h.access_data(0x3000, 0).unwrap();
        assert_eq!(first.latency, 144);
        let merged = h.access_data(0x3020, 44).unwrap(); // same line, later
        assert_eq!(
            merged.latency, 100,
            "merge completes with the in-flight fill"
        );
    }

    #[test]
    fn mlp_counts_overlapping_offchip_misses() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        h.access_data(0x100_000, 0).unwrap();
        h.access_data(0x200_000, 0).unwrap();
        let s = h.stats();
        assert_eq!(s.dram_accesses, 2);
        assert!((s.mlp.unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inst_side_uses_l1i_and_l2() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        let a = h.access_inst(0x40_0000);
        assert_eq!(a.level, Level::Mem);
        let b = h.access_inst(0x40_0000);
        assert_eq!(b.level, Level::L1);
        assert_eq!(h.stats().l1i.hits, 1);
    }

    #[test]
    fn next_line_prefetch_pulls_in_the_neighbour() {
        let mut cfg = MemHierConfig::haswell_like();
        cfg.next_line_prefetch = true;
        let mut h = MemHier::new(cfg);
        h.access_data(0x8000, 0).unwrap();
        assert_eq!(h.stats().prefetches, 1);
        // After the fill window both the demanded and the next line hit.
        assert_eq!(h.access_data(0x8000, 200).unwrap().level, Level::L1);
        assert_eq!(
            h.access_data(0x8040, 200).unwrap().level,
            Level::L1,
            "prefetched"
        );
        // Two lines further was not prefetched.
        assert_eq!(h.access_data(0x8080, 400).unwrap().level, Level::Mem);
    }

    #[test]
    fn prefetcher_disabled_by_default() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        h.access_data(0x8000, 0).unwrap();
        assert_eq!(h.stats().prefetches, 0);
        assert_eq!(h.access_data(0x8040, 200).unwrap().level, Level::Mem);
    }

    #[test]
    fn probe_leaves_no_trace() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        let p = h.probe_data(0x5000, 0);
        assert_eq!(p.level, Level::Mem);
        assert!(!h.data_line_present(0x5000));
        assert_eq!(h.stats().l1d.accesses(), 0);
        h.access_data(0x5000, 0).unwrap();
        assert_eq!(h.probe_data(0x5000, 200).level, Level::L1);
    }

    #[test]
    fn warm_touch_installs_without_stats_or_latency() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        h.warm_touch_data(0x9000);
        h.warm_touch_inst(0x40_0000);
        let s = h.stats();
        assert_eq!(s.l1d.accesses(), 0, "warming must not count");
        assert_eq!(s.l1i.accesses(), 0, "warming must not count");
        assert_eq!(s.l2.accesses(), 0, "warming must not count");
        assert_eq!(s.dram_accesses, 0, "warming never goes off-chip");
        // The line is present immediately (no fill delay).
        assert_eq!(h.access_data(0x9000, 0).unwrap().level, Level::L1);
        assert_eq!(h.access_inst(0x40_0000).level, Level::L1);
    }

    #[test]
    fn warm_touch_matches_access_tag_state() {
        // Warming the same stream of lines as a (drained) access stream
        // leaves identical L1D/L2 contents.
        let addrs = [0u64, 0x1000, 0x2000, 0x1000, 0x4000, 0x0];
        let mut warmed = MemHier::new(MemHierConfig::tiny());
        for &a in &addrs {
            warmed.warm_touch_data(a);
        }
        let mut accessed = MemHier::new(MemHierConfig::tiny());
        // Space the accesses out so every fill lands before the next access,
        // then drain the final pending fill (warming installs immediately).
        for (i, &a) in addrs.iter().enumerate() {
            accessed.access_data(a, i as u64 * 1000).unwrap();
        }
        accessed.probe_data(0, 1_000_000);
        for &a in &addrs {
            assert_eq!(
                warmed.data_line_present(a),
                accessed.data_line_present(a),
                "presence diverged at {a:#x}"
            );
        }
    }

    #[test]
    fn dump_after_flush_round_trips_to_an_equal_hierarchy() {
        let mut h = MemHier::new(MemHierConfig::tiny());
        for a in [0x0, 0x40, 0x1000, 0x2040] {
            h.warm_touch_data(a);
        }
        h.warm_touch_inst(0x40_0000);
        h.access_data(0x8000, 0).unwrap(); // leaves an MSHR and a pending fill
        h.flush_line(0x40);
        h.flush_line(0x40_0000);
        let state = h.dump_state();
        assert_eq!(MemHier::from_state(h.config(), &state), Some(h.clone()));

        // Restoring into a fresh hierarchy of the same configuration is
        // the same thing.
        let mut fresh = MemHier::new(h.config());
        assert!(fresh.restore_state(&state));
        assert_eq!(fresh, h);

        // A geometry with too few lines refuses the snapshot.
        let mut other = MemHierConfig::tiny();
        other.l2.size_bytes = 128; // one set of two ways; three lines are valid
        assert!(!state.fits(other));
        assert!(MemHier::from_state(other, &state).is_none());
    }

    #[test]
    fn line_installs_at_fill_time_not_request_time() {
        let mut h = MemHier::new(MemHierConfig::haswell_like());
        h.access_data(0x6000, 0).unwrap();
        assert!(!h.data_line_present(0x6000), "fill has not arrived yet");
        assert_eq!(h.probe_data(0x6000, 10).level, Level::Mem);
        assert_eq!(h.probe_data(0x6000, 144).level, Level::L1);
    }
}
