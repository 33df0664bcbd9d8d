//! Persistent, content-addressed store of finished [`RunResult`]s — the
//! service-side sibling of [`ckpt_store`](crate::ckpt_store).
//!
//! A simulation result is a pure function of (program bytes, variant,
//! schedule, budget): nothing host-dependent enters the deterministic
//! fields, and the wall-clock instrumentation (`host_ns`,
//! `SampledInfo::{ff_wall_ns, detail_wall_ns}`) is explicitly *excluded*
//! from the encoding — a stored result decodes with those fields zeroed,
//! exactly like a journaled record. That makes a warm hit bit-identical
//! to a fresh run for every consumer that matters (metrics documents,
//! fingerprints, differential tests), which is the property the serve
//! layer's response cache is built on.
//!
//! ## On-disk format
//!
//! One entry per file, `<key:016x>.res` under the store directory:
//!
//! ```text
//! nda-result-v1 <checksum:016x>\n     ASCII header line
//! <key material, length-prefixed>     the exact bytes that were hashed
//! <RunResult encoding>                fixed little-endian layout
//! ```
//!
//! Unlike [`StoreKey`](crate::StoreKey), which knows how to derive its
//! material from a `(config, program, schedule)` triple, a [`ResultKey`]
//! is built from caller-supplied material ([`ResultKey::from_material`]):
//! the serve layer owns the request vocabulary (workload names, variant
//! sets, chaos knobs, ...) and this module should not. The contract is
//! the same — the material must cover *every* input that can change the
//! result — and the same collision discipline applies: material is
//! stored and verified byte-for-byte, so an FNV collision degrades to a
//! clean miss.
//!
//! Framing and durability are the shared [`BlobStore`]'s, as for the
//! checkpoint store: atomic tmp + fsync + rename writes, corrupt entries
//! quarantined into `quarantine/` and treated as misses, and an optional
//! size cap ([`ResultStore::with_max_bytes`]) enforced by oldest-mtime
//! eviction after each save.
//!
//! The codec ([`encode_result`] / [`decode_result`]) is the one binary
//! `RunResult` encoding in the workspace: the sweep journal in
//! `nda-bench` stores its records with it too.

use std::path::{Path, PathBuf};

use crate::codec::{fnv1a64, BlobStore, Dec, Enc, GcStats};
use crate::run::{RunResult, SampledInfo};
use nda_mem::{CacheStats, MemStats};
use nda_stats::{CpiClass, Hist, Sample, SimStats, HIST_BUCKETS};

const MAGIC: &str = "nda-result-v1";
const NUM_REGS: usize = nda_isa::reg::NUM_REGS;

// ---------------------------------------------------------------------
// Bit-exact RunResult codec
// ---------------------------------------------------------------------

fn enc_hist(e: &mut Enc, h: &Hist) {
    e.u64(h.count);
    e.u64(h.sum);
    for b in h.buckets {
        e.u64(b);
    }
}

fn dec_hist(d: &mut Dec) -> Option<Hist> {
    let count = d.u64()?;
    let sum = d.u64()?;
    let mut buckets = [0u64; HIST_BUCKETS];
    for b in &mut buckets {
        *b = d.u64()?;
    }
    Some(Hist {
        count,
        sum,
        buckets,
    })
}

fn enc_cache(e: &mut Enc, c: &CacheStats) {
    e.u64(c.hits);
    e.u64(c.misses);
}

fn dec_cache(d: &mut Dec) -> Option<CacheStats> {
    Some(CacheStats {
        hits: d.u64()?,
        misses: d.u64()?,
    })
}

/// Encode every deterministic field of `r` into `e` in a fixed
/// little-endian layout (floats by their IEEE-754 bits). Wall-clock
/// instrumentation is not encoded; see the [module docs](self).
pub fn encode_result(e: &mut Enc, r: &RunResult) {
    let s = &r.stats;
    e.u64(s.cycles);
    e.u64(s.committed_insts);
    e.u64(s.committed_loads);
    e.u64(s.committed_stores);
    e.u64(s.committed_branches);
    e.u64(s.branch_mispredicts);
    e.u64(s.mem_order_violations);
    e.u64(s.squashes);
    e.u64(s.faults);
    e.u64(s.wrong_path_executed);
    e.u64(s.commit_cycles);
    e.u64(s.memory_stall_cycles);
    e.u64(s.backend_stall_cycles);
    e.u64(s.frontend_stall_cycles);
    e.u64(s.dispatch_to_issue_total);
    e.u64(s.issued_insts);
    e.u64(s.issue_active_cycles);
    e.u64(s.deferred_broadcasts);
    e.u64(s.broadcasts);
    e.u64(s.store_bypasses);
    for class in CpiClass::all() {
        e.u64(s.cpi_stack.get(class));
    }
    enc_hist(e, &s.d2i_hist);
    enc_hist(e, &s.defer_hist);

    let m = &r.mem_stats;
    enc_cache(e, &m.l1i);
    enc_cache(e, &m.l1d);
    enc_cache(e, &m.l2);
    e.u64(m.dram_accesses);
    e.u64(m.prefetches);
    e.bool(m.mlp.is_some());
    if let Some(mlp) = m.mlp {
        e.f64(mlp);
    }

    for reg in r.regs {
        e.u64(reg);
    }
    e.bool(r.halted);
    e.bool(r.sampled.is_some());
    if let Some(sp) = &r.sampled {
        e.f64(sp.cpi.mean);
        e.f64(sp.cpi.ci95);
        e.usize(sp.cpi.n);
        e.u64(sp.detailed_insts);
        e.u64(sp.fast_forwarded_insts);
        e.usize(sp.windows);
    }
}

/// Decode one [`encode_result`] encoding from `d`. `None` on truncation
/// or a malformed tag — quarantine cases for the store.
pub fn decode_result(d: &mut Dec) -> Option<RunResult> {
    let mut stats = SimStats::new();
    stats.cycles = d.u64()?;
    stats.committed_insts = d.u64()?;
    stats.committed_loads = d.u64()?;
    stats.committed_stores = d.u64()?;
    stats.committed_branches = d.u64()?;
    stats.branch_mispredicts = d.u64()?;
    stats.mem_order_violations = d.u64()?;
    stats.squashes = d.u64()?;
    stats.faults = d.u64()?;
    stats.wrong_path_executed = d.u64()?;
    stats.commit_cycles = d.u64()?;
    stats.memory_stall_cycles = d.u64()?;
    stats.backend_stall_cycles = d.u64()?;
    stats.frontend_stall_cycles = d.u64()?;
    stats.dispatch_to_issue_total = d.u64()?;
    stats.issued_insts = d.u64()?;
    stats.issue_active_cycles = d.u64()?;
    stats.deferred_broadcasts = d.u64()?;
    stats.broadcasts = d.u64()?;
    stats.store_bypasses = d.u64()?;
    for class in CpiClass::all() {
        stats.cpi_stack.set(class, d.u64()?);
    }
    stats.d2i_hist = dec_hist(d)?;
    stats.defer_hist = dec_hist(d)?;

    let mem_stats = MemStats {
        l1i: dec_cache(d)?,
        l1d: dec_cache(d)?,
        l2: dec_cache(d)?,
        dram_accesses: d.u64()?,
        prefetches: d.u64()?,
        mlp: if d.bool()? { Some(d.f64()?) } else { None },
    };

    let mut regs = [0u64; NUM_REGS];
    for reg in &mut regs {
        *reg = d.u64()?;
    }
    let halted = d.bool()?;
    let sampled = if d.bool()? {
        Some(SampledInfo {
            cpi: Sample {
                mean: d.f64()?,
                ci95: d.f64()?,
                n: d.usize()?,
            },
            detailed_insts: d.u64()?,
            fast_forwarded_insts: d.u64()?,
            windows: d.usize()?,
            // Wall-clock instrumentation is never stored.
            ff_wall_ns: 0,
            detail_wall_ns: 0,
        })
    } else {
        None
    };

    Some(RunResult {
        stats,
        mem_stats,
        regs,
        halted,
        host_ns: 0,
        sampled,
    })
}

/// Strip the wall-clock instrumentation fields from `r`, leaving exactly
/// what [`encode_result`] preserves. The serve layer canonicalizes every
/// result through this before caching or rendering, so a warm response is
/// bit-identical to a cold one.
pub fn sanitize_result(mut r: RunResult) -> RunResult {
    r.host_ns = 0;
    if let Some(sp) = &mut r.sampled {
        sp.ff_wall_ns = 0;
        sp.detail_wall_ns = 0;
    }
    r
}

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// The content-addressed identity of one result: caller-supplied key
/// material plus its FNV-1a hash (the filename, and the serve layer's
/// shard selector). The material must cover every input that can change
/// the result; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultKey {
    hash: u64,
    material: Vec<u8>,
}

impl ResultKey {
    /// Build a key over `material`.
    pub fn from_material(material: Vec<u8>) -> ResultKey {
        ResultKey {
            hash: fnv1a64(&material),
            material,
        }
    }

    /// The 64-bit content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The exact bytes the hash covers.
    pub fn material(&self) -> &[u8] {
        &self.material
    }

    /// The entry filename, `<hash:016x>.res`.
    pub fn filename(&self) -> String {
        format!("{:016x}.res", self.hash)
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// A directory of cached [`RunResult`]s. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ResultStore {
    blobs: BlobStore,
}

impl ResultStore {
    /// Open (creating if necessary) a store rooted at `dir`, uncapped.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        Ok(ResultStore {
            blobs: BlobStore::open(dir, MAGIC, "res")?,
        })
    }

    /// Set (or clear) the size cap. A capped store garbage-collects after
    /// every save, evicting oldest-mtime entries.
    #[must_use]
    pub fn with_max_bytes(self, max_bytes: Option<u64>) -> ResultStore {
        ResultStore {
            blobs: self.blobs.with_max_bytes(max_bytes),
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        self.blobs.dir()
    }

    /// Path of the entry for `key` (whether or not it exists).
    pub fn entry_path(&self, key: &ResultKey) -> PathBuf {
        self.blobs.path(&key.filename())
    }

    /// Evict oldest-mtime entries until the store's `*.res` bytes are at
    /// or under `max_bytes`.
    ///
    /// # Errors
    ///
    /// Propagates a directory-scan failure; individual file races are
    /// skipped.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcStats> {
        self.blobs.gc(max_bytes)
    }

    /// Load the entry for `key`. `None` is a clean miss; corrupt entries
    /// are quarantined and also report a miss.
    pub fn load(&self, key: &ResultKey) -> Option<RunResult> {
        self.blobs
            .load(&key.filename(), &key.material, decode_result)
    }

    /// Write the entry for `key` atomically (tmp + fsync + rename). The
    /// stored bytes are of [`sanitize_result`]`(*r)` — wall-clock fields
    /// never reach disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers on the hot path treat a
    /// failed save as "cache disabled", never as a job failure.
    pub fn save(&self, key: &ResultKey, r: &RunResult) -> std::io::Result<PathBuf> {
        self.blobs
            .put(&key.filename(), &key.material, |e| encode_result(e, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::run::run_variant;
    use nda_isa::{Asm, Reg};
    use std::fs;

    fn round_trip(r: &RunResult) -> Option<RunResult> {
        let mut e = Enc::default();
        encode_result(&mut e, r);
        let mut d = Dec::new(&e.buf);
        decode_result(&mut d).filter(|_| d.done())
    }

    fn result() -> RunResult {
        let mut asm = Asm::new();
        let done = asm.new_label();
        asm.li(Reg::X2, 200).li(Reg::X5, 0x2_0000);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.st8(Reg::X2, Reg::X5, 0);
        asm.ld8(Reg::X4, Reg::X5, 0);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        asm.halt();
        let p = asm.assemble().unwrap();
        run_variant(Variant::Ooo, &p, 1_000_000).unwrap()
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        let r = result();
        let back = round_trip(&r).expect("decodes");
        assert_eq!(sanitize_result(r), back);
    }

    #[test]
    fn codec_round_trips_sampled_and_mlp() {
        let mut r = sanitize_result(result());
        r.mem_stats.mlp = Some(1.5f64.sqrt());
        r.sampled = Some(SampledInfo {
            cpi: Sample {
                mean: 1.25,
                ci95: 0.03,
                n: 7,
            },
            detailed_insts: 1234,
            fast_forwarded_insts: 99999,
            windows: 7,
            ff_wall_ns: 0,
            detail_wall_ns: 0,
        });
        let back = round_trip(&r).expect("decodes");
        assert_eq!(r, back);

        // NaN never compares equal, so its bit pattern is checked by bits.
        let sp = r.sampled.as_mut().unwrap();
        sp.cpi.ci95 = f64::NAN;
        let back = round_trip(&r).expect("decodes");
        let ci95 = back.sampled.unwrap().cpi.ci95;
        assert_eq!(ci95.to_bits(), f64::NAN.to_bits());
        assert_eq!(back.stats, r.stats);
    }

    #[test]
    fn store_round_trip_and_miss_semantics() {
        let dir = std::env::temp_dir().join(format!("nda-res-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let r = result();
        let key = ResultKey::from_material(b"job-a".to_vec());
        assert!(store.load(&key).is_none(), "empty store misses");
        store.save(&key, &r).unwrap();
        assert_eq!(store.load(&key), Some(sanitize_result(r)));

        // A valid entry for a *different* key is a clean miss, not
        // corruption: copy key-a's entry onto key-b's filename.
        let other = ResultKey::from_material(b"job-b".to_vec());
        fs::copy(store.entry_path(&key), store.entry_path(&other)).unwrap();
        assert!(store.load(&other).is_none());
        assert!(
            store.entry_path(&other).exists(),
            "collision must not quarantine"
        );

        // A corrupt entry is quarantined and misses.
        fs::write(store.entry_path(&key), b"nda-result-v1 0000\ngarbage").unwrap();
        assert!(store.load(&key).is_none());
        assert!(!store.entry_path(&key).exists());
        assert!(dir.join("quarantine").join(key.filename()).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_store_evicts_oldest_first() {
        let dir = std::env::temp_dir().join(format!("nda-res-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let r = result();
        let entry_size = {
            let probe = ResultStore::open(&dir).unwrap();
            let key = ResultKey::from_material(b"probe".to_vec());
            let path = probe.save(&key, &r).unwrap();
            let n = fs::metadata(&path).unwrap().len();
            fs::remove_file(&path).unwrap();
            n
        };
        // Room for roughly three entries.
        let cap = entry_size * 3 + entry_size / 2;
        let store = ResultStore::open(&dir).unwrap().with_max_bytes(Some(cap));
        let keys: Vec<ResultKey> = (0..6)
            .map(|i| ResultKey::from_material(format!("job-{i}").into_bytes()))
            .collect();
        for key in &keys {
            store.save(key, &r).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let total: u64 = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "res"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= cap, "store size {total} exceeds cap {cap}");
        // Newest survivors still hit, bit-identically.
        assert_eq!(store.load(&keys[5]), Some(sanitize_result(r)));
        assert!(store.load(&keys[0]).is_none(), "oldest entry evicted");
        let _ = fs::remove_dir_all(&dir);
    }
}
