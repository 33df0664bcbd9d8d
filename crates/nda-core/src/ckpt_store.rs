//! Persistent, content-addressed checkpoint store.
//!
//! Collecting a [`CheckpointSet`](crate::CheckpointSet) is the dominant
//! cost of a repeated sampled sweep: the master functional pass executes
//! the whole workload even though the detailed windows touch a few percent
//! of it. The checkpoints themselves are pure functions of (program bytes,
//! sampling schedule, memory-hierarchy geometry, predictor configuration)
//! — nothing host-dependent enters them — so they can be cached across
//! processes. This module stores each [`CheckpointSet`]
//! **exactly** (bit-for-bit, via the `*State` snapshot structs of
//! `nda-isa`/`nda-mem`/`nda-predict`) in a file keyed by an FNV-1a hash of
//! that input tuple.
//!
//! ## On-disk format
//!
//! One entry per file, `<key:016x>.ckpt` under the store directory:
//!
//! ```text
//! nda-ckpt-v2 <checksum:016x>\n       ASCII header line
//! <key material, length-prefixed>     the exact bytes that were hashed
//! <page pool>                         each distinct 4 KiB page, once
//! <CheckpointSet encoding>            fixed little-endian layout
//! ```
//!
//! The frame is the shared [`BlobStore`]'s, so the key material is
//! verified byte-for-byte on load and a hash collision degrades to a
//! cache miss instead of resurrecting the wrong workload's checkpoints.
//! Geometry mismatches cannot hit either — the geometry is part of the
//! key — and as defence in depth the decoder checks every snapshot
//! against the live configuration.
//!
//! The magic opens the key material too, so an entry of an older format
//! (`nda-ckpt-v1`, which stored every line and BTB entry of the geometry)
//! sits under a different file name: it is never read, and the set is
//! collected again, not quarantined.
//!
//! Each cache level and the BTB are stored sparsely, as their valid lines
//! and entries with their set-major indices in ascending order (the
//! [`CacheState`] and [`BtbState`] the checkpoint holds). A warmed 2 MiB
//! L2 has a few hundred valid lines of 32 768, so an entry stores what
//! the warm-up left behind, not the geometry. The decoder checks each
//! count against the live geometry before allocating, and refuses
//! indices that are out of range, repeated or not ascending.
//!
//! Consecutive checkpoints share almost all of their memory image (the
//! interpreter's pages are `Arc` copy-on-write; an interval dirties a
//! handful), so pages are stored through a content-deduplicated pool:
//! each distinct page appears once, and every interpreter snapshot
//! references pool slots. This keeps the entry close to the size of one
//! memory image rather than one per checkpoint, and the decoder hands all
//! snapshots `Arc`s into a shared pool, restoring the in-memory sharing
//! too.
//!
//! ## Durability
//!
//! Atomic writes and quarantine also come from [`BlobStore`]: a corrupt
//! or truncated entry — failed checksum, bad header, short body, shape
//! mismatch — is moved into `quarantine/` and treated as a miss, so one
//! bad file costs one regeneration, never a crash or a wrong result.
//! Pinned by `crates/nda-core/tests/ckpt_store.rs`; the entry bytes by
//! `crates/nda-core/tests/store_format.rs`.
//!
//! ## Size cap
//!
//! An entry is dominated by its page pool, about one memory image, and
//! entries accumulate across sweeps. A store opened with
//! [`CheckpointStore::with_max_bytes`] (the CLI wires `NDA_CKPT_MAX_BYTES`
//! / `--checkpoint-gc` through to it) garbage-collects after every save:
//! oldest-mtime entries are evicted until the total size of `*.ckpt`
//! files is back under the cap. Eviction only ever deletes cache entries
//! — a future run regenerates them — and never touches `quarantine/`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{fnv1a64, BlobStore, Dec, Enc, GcStats};
use crate::config::SimConfig;
use crate::run::SimError;
use crate::sampled::{collect_checkpoints, Checkpoint, CheckpointSet, SampledParams};
use nda_isa::{encode_program, Interp, InterpState, MsrFile, Program, SparseMem, PAGE_SIZE};
use nda_mem::{
    CacheConfig, CacheState, LineState, MemHierConfig, MemHierState, MlpState, MshrState,
};
use nda_predict::ras::RAS_ENTRIES;
use nda_predict::{
    BtbConfig, BtbEntryState, BtbState, DirPredictor, DirPredictorState, GshareState,
    PredictorKind, Ras, RasState, TournamentState,
};

const MAGIC: &str = "nda-ckpt-v2";
const NUM_REGS: usize = nda_isa::reg::NUM_REGS;

/// A content-deduplicated pool of memory pages shared by every
/// interpreter snapshot in one entry. Keys borrow the page bytes (the
/// dumps stay alive for the whole encode), so equal-content pages unify
/// regardless of their `Arc` sharing structure — the encoding is a pure
/// function of the set's contents.
#[derive(Default)]
struct PagePool<'a> {
    pages: Vec<&'a [u8; PAGE_SIZE]>,
    index: HashMap<&'a [u8; PAGE_SIZE], u64>,
}

impl<'a> PagePool<'a> {
    fn intern(&mut self, page: &'a [u8; PAGE_SIZE]) -> u64 {
        *self.index.entry(page).or_insert_with(|| {
            self.pages.push(page);
            self.pages.len() as u64 - 1
        })
    }
}

type PageDump = Vec<(u64, Arc<[u8; PAGE_SIZE]>)>;

fn enc_interp(e: &mut Enc, s: &InterpState, pages: &[(u64, u64)]) {
    for r in s.regs {
        e.u64(r);
    }
    e.usize(s.pc);
    e.u64(s.retired);
    e.u64(s.faults);
    e.bool(s.halted);
    e.usize(pages.len());
    for &(idx, slot) in pages {
        e.u64(idx);
        e.u64(slot);
    }
    let (values, user_ok) = s.msrs.dump();
    e.usize(values.len());
    for (idx, v) in values {
        e.u64(idx as u64);
        e.u64(v);
    }
    e.usize(user_ok.len());
    for idx in user_ok {
        e.u64(idx as u64);
    }
}

/// The fewest bytes an interpreter snapshot encodes to: registers, pc,
/// the two counters, the halted flag and three empty lists. A checkpoint
/// holds one and more, so it is also a lower bound on a checkpoint.
const INTERP_MIN_BYTES: usize = NUM_REGS * 8 + 3 * 8 + 1 + 3 * 8;

fn dec_interp(d: &mut Dec, pool: &[Arc<[u8; PAGE_SIZE]>]) -> Option<InterpState> {
    let mut regs = [0u64; NUM_REGS];
    for r in &mut regs {
        *r = d.u64()?;
    }
    let pc = d.usize()?;
    let retired = d.u64()?;
    let faults = d.u64()?;
    let halted = d.bool()?;
    let n_pages = d.count(16)?;
    let mut pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        let idx = d.u64()?;
        let slot = usize::try_from(d.u64()?).ok()?;
        pages.push((idx, Arc::clone(pool.get(slot)?)));
    }
    let n_vals = d.count(16)?;
    let mut values = Vec::with_capacity(n_vals);
    for _ in 0..n_vals {
        let idx = u16::try_from(d.u64()?).ok()?;
        values.push((idx, d.u64()?));
    }
    let n_ok = d.count(8)?;
    let mut user_ok = Vec::with_capacity(n_ok);
    for _ in 0..n_ok {
        user_ok.push(u16::try_from(d.u64()?).ok()?);
    }
    Some(InterpState {
        regs,
        pc,
        retired,
        faults,
        halted,
        mem: SparseMem::from_pages(pages),
        msrs: MsrFile::from_parts(&values, &user_ok),
    })
}

fn enc_cache(e: &mut Enc, s: &CacheState) {
    e.usize(s.lines.len());
    for line in &s.lines {
        e.usize(line.index);
        e.u64(line.tag);
        e.u64(line.last_use);
    }
    e.u64(s.tick);
    e.u64(s.stats.hits);
    e.u64(s.stats.misses);
}

/// Decode one cache level of geometry `cfg`. The line count is checked
/// against the level's capacity before anything is allocated; the
/// indices and stamps are checked by [`MemHierState::fits`] in
/// [`dec_hier`].
fn dec_cache(d: &mut Dec, cfg: CacheConfig) -> Option<CacheState> {
    let n = d.count(24)?;
    if n > cfg.sets() * cfg.ways {
        return None;
    }
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(LineState {
            index: d.usize()?,
            tag: d.u64()?,
            last_use: d.u64()?,
        });
    }
    let tick = d.u64()?;
    let stats = nda_mem::CacheStats {
        hits: d.u64()?,
        misses: d.u64()?,
    };
    Some(CacheState { lines, tick, stats })
}

fn enc_pairs(e: &mut Enc, pairs: &[(u64, u64)]) {
    e.usize(pairs.len());
    for &(a, b) in pairs {
        e.u64(a);
        e.u64(b);
    }
}

fn dec_pairs(d: &mut Dec) -> Option<Vec<(u64, u64)>> {
    let n = d.count(16)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((d.u64()?, d.u64()?));
    }
    Some(pairs)
}

fn enc_hier(e: &mut Enc, s: &MemHierState) {
    enc_cache(e, &s.l1i);
    enc_cache(e, &s.l1d);
    enc_cache(e, &s.l2);
    enc_pairs(e, &s.mshr.in_flight);
    e.usize(s.mshr.peak);
    e.u64(s.mshr.allocations);
    e.u64(s.mshr.merges);
    e.u64(s.mlp.miss_cycles);
    e.u64(s.mlp.busy_cycles);
    e.u64(s.mlp.frontier);
    e.u64(s.mlp.misses);
    e.u64(s.dram_accesses);
    e.u64(s.prefetches);
    enc_pairs(e, &s.pending_fills);
    e.u64(s.extra_latency);
}

/// Decode a hierarchy snapshot and check that it fits `cfg`: line
/// indices in range, unrepeated and ascending, and no more MSHR fills than
/// MSHRs.
fn dec_hier(d: &mut Dec, cfg: MemHierConfig) -> Option<MemHierState> {
    let state = MemHierState {
        l1i: dec_cache(d, cfg.l1i)?,
        l1d: dec_cache(d, cfg.l1d)?,
        l2: dec_cache(d, cfg.l2)?,
        mshr: MshrState {
            in_flight: dec_pairs(d)?,
            peak: d.usize()?,
            allocations: d.u64()?,
            merges: d.u64()?,
        },
        mlp: MlpState {
            miss_cycles: d.u64()?,
            busy_cycles: d.u64()?,
            frontier: d.u64()?,
            misses: d.u64()?,
        },
        dram_accesses: d.u64()?,
        prefetches: d.u64()?,
        pending_fills: dec_pairs(d)?,
        extra_latency: d.u64()?,
    };
    state.fits(cfg).then_some(state)
}

fn enc_gshare(e: &mut Enc, s: &GshareState) {
    e.bytes(&s.table);
    e.u64(s.ghr);
    e.u64(s.predictions);
    e.u64(s.correct);
}

fn dec_gshare(d: &mut Dec) -> Option<GshareState> {
    Some(GshareState {
        table: d.bytes()?.to_vec(),
        ghr: d.u64()?,
        predictions: d.u64()?,
        correct: d.u64()?,
    })
}

fn enc_dir(e: &mut Enc, s: &DirPredictorState) {
    match s {
        DirPredictorState::Gshare(g) => {
            e.u8(0);
            enc_gshare(e, g);
        }
        DirPredictorState::Bimodal(table) => {
            e.u8(1);
            e.bytes(table);
        }
        DirPredictorState::Tournament(t) => {
            e.u8(2);
            enc_gshare(e, &t.gshare);
            e.bytes(&t.bimodal);
            e.bytes(&t.chooser);
        }
    }
}

fn dec_dir(d: &mut Dec) -> Option<DirPredictorState> {
    match d.u8()? {
        0 => Some(DirPredictorState::Gshare(dec_gshare(d)?)),
        1 => Some(DirPredictorState::Bimodal(d.bytes()?.to_vec())),
        2 => Some(DirPredictorState::Tournament(TournamentState {
            gshare: dec_gshare(d)?,
            bimodal: d.bytes()?.to_vec(),
            chooser: d.bytes()?.to_vec(),
        })),
        _ => None,
    }
}

fn enc_btb(e: &mut Enc, s: &BtbState) {
    e.usize(s.entries.len());
    for entry in &s.entries {
        e.usize(entry.index);
        e.u64(entry.tag);
        e.usize(entry.target);
    }
    e.u64(s.lookups);
    e.u64(s.hits);
}

/// Decode a BTB snapshot of configuration `cfg`: the entry count is
/// checked before allocating, the indices by [`BtbState::fits`].
fn dec_btb(d: &mut Dec, cfg: BtbConfig) -> Option<BtbState> {
    let n = d.count(24)?;
    if n > cfg.entries {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(BtbEntryState {
            index: d.usize()?,
            tag: d.u64()?,
            target: d.usize()?,
        });
    }
    let state = BtbState {
        entries,
        lookups: d.u64()?,
        hits: d.u64()?,
    };
    state.fits(cfg).then_some(state)
}

fn enc_ras(e: &mut Enc, s: &RasState) {
    for v in s.stack {
        e.usize(v);
    }
    e.usize(s.top);
    e.usize(s.depth);
}

fn dec_ras(d: &mut Dec) -> Option<RasState> {
    let mut stack = [0usize; RAS_ENTRIES];
    for v in &mut stack {
        *v = d.usize()?;
    }
    Some(RasState {
        stack,
        top: d.usize()?,
        depth: d.usize()?,
    })
}

fn encode_set(e: &mut Enc, set: &CheckpointSet) {
    // Snapshot every interpreter once, then intern all pages into the
    // pool before emitting anything — the pool is written first.
    let states: Vec<InterpState> = set
        .checkpoints
        .iter()
        .map(|c| c.interp.dump_state())
        .chain(std::iter::once(set.final_interp.dump_state()))
        .collect();
    let dumps: Vec<PageDump> = states.iter().map(|s| s.mem.dump_pages()).collect();
    let mut pool = PagePool::default();
    let refs: Vec<Vec<(u64, u64)>> = dumps
        .iter()
        .map(|dump| {
            dump.iter()
                .map(|(idx, page)| (*idx, pool.intern(page)))
                .collect()
        })
        .collect();

    e.usize(pool.pages.len());
    for page in &pool.pages {
        e.buf.extend_from_slice(&page[..]);
    }
    e.usize(set.checkpoints.len());
    for (k, ckpt) in set.checkpoints.iter().enumerate() {
        enc_interp(e, &states[k], &refs[k]);
        enc_hier(e, &ckpt.hier);
        enc_dir(e, &ckpt.dir.dump_state());
        enc_btb(e, &ckpt.btb);
        enc_ras(e, &ckpt.ras.dump_state());
        e.u64(ckpt.ff_insts);
    }
    let last = states.len() - 1;
    enc_interp(e, &states[last], &refs[last]);
    e.u64(set.total_insts);
}

/// Decode an entry body. `None` on any truncation or shape mismatch
/// against the live configuration — quarantine cases for the store.
fn decode_set(d: &mut Dec, cfg: &SimConfig, program: &Program) -> Option<CheckpointSet> {
    let n_pool = d.count(PAGE_SIZE)?;
    let mut pool: Vec<Arc<[u8; PAGE_SIZE]>> = Vec::with_capacity(n_pool);
    for _ in 0..n_pool {
        let bytes: [u8; PAGE_SIZE] = d.take(PAGE_SIZE)?.try_into().ok()?;
        pool.push(Arc::new(bytes));
    }
    let n = d.count(INTERP_MIN_BYTES)?;
    let mut checkpoints = Vec::with_capacity(n);
    for _ in 0..n {
        let interp = Interp::from_state(program, dec_interp(d, &pool)?);
        let hier = dec_hier(d, cfg.mem)?;
        let dir = DirPredictor::from_state(cfg.core.predictor_kind, cfg.core.gshare, &dec_dir(d)?)?;
        let btb = dec_btb(d, cfg.core.btb)?;
        let ras = Ras::from_state(&dec_ras(d)?)?;
        let ff_insts = d.u64()?;
        checkpoints.push(Checkpoint {
            interp,
            hier,
            dir,
            btb,
            ras,
            ff_insts,
        });
    }
    let final_interp = Interp::from_state(program, dec_interp(d, &pool)?);
    let total_insts = d.u64()?;
    Some(CheckpointSet {
        checkpoints,
        final_interp,
        total_insts,
    })
}

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// The content-addressed identity of one checkpoint collection: the exact
/// bytes of everything that determines the resulting [`CheckpointSet`],
/// plus their FNV-1a hash (the filename). Two runs that would collect
/// identical checkpoints produce equal keys; any change to the workload,
/// the sampling schedule, the cache geometry or the predictor
/// configuration changes the key and misses cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    hash: u64,
    material: Vec<u8>,
}

impl StoreKey {
    /// Build the key for a (config, program, schedule) triple.
    pub fn new(cfg: &SimConfig, program: &Program, params: SampledParams) -> StoreKey {
        let mut e = Enc::default();
        e.bytes(MAGIC.as_bytes());
        e.bytes(&encode_program(program));
        // Sampling schedule — every field shifts the checkpoint positions
        // or count.
        e.u64(params.sample_every);
        e.u64(params.warm_insts);
        e.u64(params.detail_insts);
        e.usize(params.max_windows);
        e.u64(params.budget_per_phase);
        // Memory-hierarchy geometry: warming writes tags/LRU into this
        // shape. Latencies are included too — cheaper than proving the
        // warming stream never observes them.
        for c in [cfg.mem.l1i, cfg.mem.l1d, cfg.mem.l2] {
            e.u64(c.size_bytes);
            e.u64(c.line_bytes);
            e.usize(c.ways);
            e.u64(c.latency);
        }
        e.u64(cfg.mem.dram_latency);
        e.usize(cfg.mem.mshrs);
        e.bool(cfg.mem.next_line_prefetch);
        // Predictor configuration: trained state lives in these tables.
        e.u8(match cfg.core.predictor_kind {
            PredictorKind::Gshare => 0,
            PredictorKind::Bimodal => 1,
            PredictorKind::Tournament => 2,
        });
        e.usize(cfg.core.gshare.entries);
        e.u64(cfg.core.gshare.history_bits as u64);
        e.usize(cfg.core.btb.entries);
        e.bool(cfg.core.btb.speculative_update);
        let hash = fnv1a64(&e.buf);
        StoreKey {
            hash,
            material: e.buf,
        }
    }

    /// The 64-bit content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The entry filename, `<hash:016x>.ckpt`.
    pub fn filename(&self) -> String {
        format!("{:016x}.ckpt", self.hash)
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// A directory of cached [`CheckpointSet`]s. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    blobs: BlobStore,
}

impl CheckpointStore {
    /// Open (creating if necessary) a store rooted at `dir`, uncapped.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        Ok(CheckpointStore {
            blobs: BlobStore::open(dir, MAGIC, "ckpt")?,
        })
    }

    /// Set (or clear) the size cap. A capped store garbage-collects after
    /// every save; see [module docs](self).
    #[must_use]
    pub fn with_max_bytes(self, max_bytes: Option<u64>) -> CheckpointStore {
        CheckpointStore {
            blobs: self.blobs.with_max_bytes(max_bytes),
        }
    }

    /// The configured size cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.blobs.max_bytes()
    }

    /// Evict oldest-mtime entries until the store's `*.ckpt` bytes are at
    /// or under `max_bytes`. Callable explicitly (`--checkpoint-gc`);
    /// capped stores also run it after every save.
    ///
    /// # Errors
    ///
    /// Propagates a directory-scan failure; individual file races are
    /// skipped.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcStats> {
        self.blobs.gc(max_bytes)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        self.blobs.dir()
    }

    /// Path of the entry for `key` (whether or not it exists).
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.blobs.path(&key.filename())
    }

    /// Load the entry for `key`, reconstructing against `cfg`/`program`
    /// (which must be the ones the key was built from). Returns `None` on
    /// a clean miss; corrupt entries are quarantined and also report a
    /// miss.
    pub fn load(
        &self,
        key: &StoreKey,
        cfg: &SimConfig,
        program: &Program,
    ) -> Option<CheckpointSet> {
        self.blobs.load(&key.filename(), &key.material, |d| {
            decode_set(d, cfg, program)
        })
    }

    /// Write the entry for `key` atomically (tmp + fsync + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers on the hot path treat a
    /// failed save as "cache disabled", never as a simulation failure.
    pub fn save(&self, key: &StoreKey, set: &CheckpointSet) -> std::io::Result<PathBuf> {
        self.blobs
            .put(&key.filename(), &key.material, |e| encode_set(e, set))
    }
}

/// [`collect_checkpoints`] through an optional store: a warm hit skips the
/// master functional pass entirely; a miss collects and populates the
/// store (best-effort — an unwritable store degrades to uncached
/// collection, never to an error).
///
/// Returns the set and whether it was a warm hit. A stored set is only
/// valid when its functional pass fits the caller's budget — the set
/// records a *completed* run, so it is reusable for any
/// `max_insts >= retired + faults`; smaller budgets fall through to a
/// fresh collection, which reports [`SimError::CycleLimit`] exactly as the
/// uncached path would.
///
/// # Errors
///
/// See [`collect_checkpoints`].
pub fn collect_checkpoints_cached(
    store: Option<&CheckpointStore>,
    cfg: &SimConfig,
    program: &Program,
    params: SampledParams,
    max_insts: u64,
) -> Result<(CheckpointSet, bool), SimError> {
    let Some(store) = store else {
        return Ok((collect_checkpoints(cfg, program, params, max_insts)?, false));
    };
    let key = StoreKey::new(cfg, program, params);
    if let Some(set) = store.load(&key, cfg, program) {
        let executed = set.final_interp.retired() + set.final_interp.faults();
        if executed <= max_insts {
            return Ok((set, true));
        }
    }
    let set = collect_checkpoints(cfg, program, params, max_insts)?;
    let _ = store.save(&key, &set);
    Ok((set, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nda_isa::{Asm, Reg};

    fn store_program() -> Program {
        let mut asm = Asm::new();
        let done = asm.new_label();
        asm.li(Reg::X2, 300).li(Reg::X5, 0x2_0000);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.st8(Reg::X2, Reg::X5, 0);
        asm.ld8(Reg::X4, Reg::X5, 0);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let p = store_program();
        let cfg = SimConfig::ooo();
        let params = SampledParams::new(100, 20, 20);
        let set = collect_checkpoints(&cfg, &p, params, u64::MAX).unwrap();
        assert!(!set.checkpoints.is_empty());
        let mut e = Enc::default();
        encode_set(&mut e, &set);
        let mut d = Dec::new(&e.buf);
        let back = decode_set(&mut d, &cfg, &p).expect("decodes");
        assert!(d.done());
        assert_eq!(set, back);
    }

    #[test]
    fn store_round_trip_hits_warm() {
        let dir = std::env::temp_dir().join(format!("nda-ckpt-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let p = store_program();
        let cfg = SimConfig::ooo();
        let params = SampledParams::new(100, 20, 20);

        let (cold, hit) =
            collect_checkpoints_cached(Some(&store), &cfg, &p, params, u64::MAX).unwrap();
        assert!(!hit);
        let (warm, hit) =
            collect_checkpoints_cached(Some(&store), &cfg, &p, params, u64::MAX).unwrap();
        assert!(hit);
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Write an entry for `store_program` whose body `body` encodes, with a
    /// valid frame and checksum, and load it: it must be a miss, and the
    /// entry must have moved to `quarantine/`.
    fn assert_body_is_quarantined(tag: &str, body: impl FnOnce(&mut Enc, &CheckpointSet)) {
        let dir = std::env::temp_dir().join(format!("nda-ckpt-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let p = store_program();
        let cfg = SimConfig::ooo();
        let params = SampledParams::new(100, 20, 20);
        let set = collect_checkpoints(&cfg, &p, params, u64::MAX).unwrap();
        let key = StoreKey::new(&cfg, &p, params);
        store
            .blobs
            .put(&key.filename(), &key.material, |e| body(e, &set))
            .unwrap();
        assert_eq!(store.load(&key, &cfg, &p), None, "{tag}: must miss");
        assert!(
            dir.join("quarantine").join(key.filename()).exists(),
            "{tag}: must be quarantined"
        );
        assert!(!store.entry_path(&key).exists(), "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// BTB entries at `indices`.
    fn entries(indices: &[usize]) -> impl Iterator<Item = BtbEntryState> + '_ {
        indices.iter().map(|&index| BtbEntryState {
            index,
            tag: 0,
            target: 0,
        })
    }

    /// Makes a checkpoint describe a state no cache or BTB of the
    /// configuration can be in.
    type Corruption = fn(&mut Checkpoint, &SimConfig);

    #[test]
    fn sparse_states_that_cannot_exist_are_quarantined() {
        let cfg = SimConfig::ooo();
        let cases: [(&str, Corruption); 6] = [
            ("l2-index-out-of-range", |c, cfg| {
                c.hier.l2.lines.push(LineState {
                    index: cfg.mem.l2.sets() * cfg.mem.l2.ways,
                    tag: 0,
                    last_use: 1,
                });
            }),
            ("l1d-index-repeated", |c, _| {
                let last = *c.hier.l1d.lines.last().expect("a warmed L1D line");
                c.hier.l1d.lines.push(last);
            }),
            ("l2-indices-descending", |c, _| {
                assert!(c.hier.l2.lines.len() >= 2, "two warmed L2 lines");
                c.hier.l2.lines.reverse();
            }),
            ("btb-index-out-of-range", |c, cfg| {
                c.btb.entries.extend(entries(&[cfg.core.btb.entries]));
            }),
            ("btb-index-repeated", |c, _| {
                c.btb.entries.extend(entries(&[7, 7]));
            }),
            ("btb-indices-descending", |c, _| {
                c.btb.entries.extend(entries(&[9, 3]));
            }),
        ];
        for (tag, corrupt) in cases {
            assert_body_is_quarantined(tag, |e, set| {
                let mut bad = set.clone();
                let last = bad.checkpoints.last_mut().expect("checkpoints");
                corrupt(last, &cfg);
                encode_set(e, &bad);
            });
        }
    }

    #[test]
    fn line_and_entry_counts_beyond_the_geometry_are_quarantined() {
        // Counts no geometry holds, followed by nothing: the decoder must
        // refuse them before reserving memory for them (24 TiB each).
        assert_body_is_quarantined("l1i-count", |e, set| {
            e.usize(0); // empty page pool
            e.usize(1);
            enc_interp(e, &set.checkpoints[0].interp.dump_state(), &[]);
            e.usize(1 << 40);
        });
        assert_body_is_quarantined("btb-count", |e, set| {
            let c = &set.checkpoints[0];
            e.usize(0);
            e.usize(1);
            enc_interp(e, &c.interp.dump_state(), &[]);
            enc_hier(e, &c.hier);
            enc_dir(e, &c.dir.dump_state());
            e.usize(1 << 40);
        });
    }

    #[test]
    fn an_empty_interpreter_snapshot_is_the_checkpoint_lower_bound() {
        let p = store_program();
        let mut state = Interp::new(&p).dump_state();
        state.msrs = MsrFile::from_parts(&[], &[]);
        let mut e = Enc::default();
        enc_interp(&mut e, &state, &[]);
        assert_eq!(e.buf.len(), INTERP_MIN_BYTES);
    }

    /// A body up to its first checkpoint's interpreter snapshot: an
    /// empty page pool and a count of one checkpoint.
    fn first_checkpoint(e: &mut Enc) {
        e.usize(0);
        e.usize(1);
    }

    /// An interpreter snapshot up to its page-reference count.
    fn interp_head(e: &mut Enc) {
        for _ in 0..NUM_REGS + 3 {
            e.u64(0); // registers, pc and the two counters
        }
        e.bool(false);
    }

    /// The first checkpoint up to its MSHR pair count.
    fn hier_head(e: &mut Enc, set: &CheckpointSet) {
        let c = &set.checkpoints[0];
        first_checkpoint(e);
        enc_interp(e, &c.interp.dump_state(), &[]);
        enc_cache(e, &c.hier.l1i);
        enc_cache(e, &c.hier.l1d);
        enc_cache(e, &c.hier.l2);
    }

    #[test]
    fn counts_the_bytes_left_cannot_hold_are_quarantined() {
        // Each body ends in a hostile count; then come fewer bytes than
        // its records take.
        type Case = fn(&mut Enc, &CheckpointSet);
        let cases: [(&str, Case); 7] = [
            ("page-pool", |_, _| {}),
            ("checkpoints", |e, _| e.usize(0)),
            ("page-refs", |e, _| {
                first_checkpoint(e);
                interp_head(e);
            }),
            ("msr-values", |e, _| {
                first_checkpoint(e);
                interp_head(e);
                e.usize(0);
            }),
            ("msr-user-ok", |e, _| {
                first_checkpoint(e);
                interp_head(e);
                e.usize(0);
                e.usize(0);
            }),
            ("mshr-pairs", hier_head),
            ("fill-pairs", |e, set| {
                hier_head(e, set);
                enc_pairs(e, &[]);
                for _ in 0..9 {
                    e.u64(0); // MSHR, MLP, DRAM and prefetch counters
                }
            }),
        ];
        for (tag, head) in cases {
            for (count, tail) in [(1 << 40, 0), (1 << 40, 4095), (u64::MAX, 64)] {
                assert_body_is_quarantined(&format!("{tag}-{count}-{tail}"), |e, set| {
                    head(e, set);
                    e.u64(count);
                    e.buf.extend(std::iter::repeat_n(0, tail));
                });
            }
        }
    }

    #[test]
    fn key_separates_workload_schedule_and_geometry() {
        let p = store_program();
        let cfg = SimConfig::ooo();
        let params = SampledParams::new(100, 20, 20);
        let base = StoreKey::new(&cfg, &p, params);

        let mut asm = Asm::new();
        asm.li(Reg::X2, 1).halt();
        let other = asm.assemble().unwrap();
        assert_ne!(base, StoreKey::new(&cfg, &other, params));

        let mut p2 = params;
        p2.sample_every = 200;
        assert_ne!(base, StoreKey::new(&cfg, &p, p2));

        let mut cfg2 = cfg;
        cfg2.mem.l1d.size_bytes *= 2;
        assert_ne!(base, StoreKey::new(&cfg2, &p, params));

        let mut cfg3 = cfg;
        cfg3.core.gshare.entries *= 2;
        assert_ne!(base, StoreKey::new(&cfg3, &p, params));
    }
}
