//! Crash-safe sweep journal: one checksummed record per completed
//! (workload, variant, sample) cell, written atomically, so a killed
//! sweep resumes by re-running only the missing or failed cells.
//!
//! Layout of a journal directory:
//!
//! ```text
//! <dir>/meta.rec          sweep shape pin (workloads/variants/samples/...)
//! <dir>/c<w>-<v>-<s>.rec  one record per finished cell
//! <dir>/quarantine/       corrupt records moved aside on load
//! ```
//!
//! Every record is a blob of `nda-core`'s shared [`BlobStore`], which
//! owns the checksummed header, the key-material check, the atomic
//! tmp + fsync + rename write and quarantine:
//!
//! ```text
//! nda-journal-v2 <checksum:016x>\n   ASCII header line
//! <cell key, length-prefixed>         (w, v, s) as three u64s
//! 0x00 <RunResult encoding>           an Ok cell, or
//! 0x01 <kind> <error text>            a failed cell (both length-prefixed)
//! ```
//!
//! The `RunResult` encoding is the result store's ([`encode_result`]),
//! so a journaled result is bit-identical to the in-memory one — the
//! resume-equals-clean-run property is exact equality, not approximate.
//! `meta.rec` has empty key material and the length-prefixed sweep
//! description as its body.
//!
//! A cell record that fails its frame, checksum or decoder (truncated,
//! bit-flipped) is *quarantined*: moved into `quarantine/` and treated as
//! missing, so resume re-runs that cell instead of trusting or deleting
//! the evidence. A corrupt `meta.rec`, or one written in the retired
//! `nda-journal-v1` text format, refuses the whole journal and is left
//! in place.

use crate::fault::JobError;
use nda_core::codec::{Blob, BlobStore, Dec, Enc};
use nda_core::result_store::{decode_result, encode_result};
use nda_core::RunResult;
use nda_stats::CpiClass;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt::{self, Write as _};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic prefix of every record's header line.
const MAGIC: &str = "nda-journal-v2";
/// Header prefix of the retired text format, refused on open.
const MAGIC_V1: &str = "nda-journal-v1";
const META: &str = "meta.rec";
const STATUS_OK: u8 = 0;
const STATUS_FAILED: u8 = 1;

/// A cell key: (workload index, variant index, sample index).
pub type CellKey = (usize, usize, usize);

/// Journal-level failure (as opposed to per-job I/O failures, which are
/// recorded as [`JobError::Io`] on the affected cell).
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O operation on the journal directory itself failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// The journal on disk was written by a sweep of a different shape
    /// (different workloads, variants, samples, iters, seed or mode), or
    /// in another format version — resuming would silently mix
    /// incompatible results.
    ConfigMismatch {
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal i/o failure at {}: {message}", path.display())
            }
            JournalError::ConfigMismatch { detail } => {
                write!(
                    f,
                    "journal belongs to a different sweep configuration: {detail}"
                )
            }
        }
    }
}

impl Error for JournalError {}

/// What a journal directory said on load.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Cells with a valid Ok record; resume skips these.
    pub ok: HashMap<CellKey, RunResult>,
    /// Cells whose last attempt was recorded as failed. Resume re-runs
    /// them (they count as missing), but the set lets callers report how
    /// much of the journal was degraded.
    pub failed: HashSet<CellKey>,
    /// Record files that failed their checksum and were moved into
    /// `quarantine/`.
    pub quarantined: Vec<PathBuf>,
}

/// Handle on a journal directory.
#[derive(Debug, Clone)]
pub struct Journal {
    blobs: BlobStore,
}

fn io_err(path: &Path, e: impl fmt::Display) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// A record's key material: the cell key it was written for.
fn cell_material((w, v, s): CellKey) -> Vec<u8> {
    [w, v, s]
        .iter()
        .flat_map(|&x| (x as u64).to_le_bytes())
        .collect()
}

/// Decode a cell record body: `Some(Some(r))` for Ok, `Some(None)` for
/// failed, `None` when malformed.
fn decode_record(d: &mut Dec<'_>) -> Option<Option<RunResult>> {
    match d.u8()? {
        STATUS_OK => decode_result(d).map(Some),
        STATUS_FAILED => {
            d.bytes()?; // kind
            d.bytes()?; // error text
            Some(None)
        }
        _ => None,
    }
}

impl Journal {
    /// Open (creating if needed) the journal at `dir` for a sweep
    /// described by `meta` — a stable string naming the sweep shape.
    /// An existing journal with a *different* meta, a corrupt meta or one
    /// in the retired v1 format is refused
    /// ([`JournalError::ConfigMismatch`]) rather than silently mixed.
    /// Returns the handle plus whatever valid progress was on disk.
    pub fn open(dir: &Path, meta: &str) -> Result<(Journal, JournalState), JournalError> {
        let blobs = BlobStore::open(dir, MAGIC, "rec").map_err(|e| io_err(dir, e))?;
        let j = Journal { blobs };
        let meta_path = j.blobs.path(META);
        let on_disk = j
            .blobs
            .read(META, b"", |d| d.bytes().map(<[u8]>::to_vec))
            .map_err(|e| io_err(&meta_path, e))?;
        match on_disk {
            Blob::Hit(existing) if existing == meta.as_bytes() => {}
            Blob::Hit(existing) => {
                return Err(JournalError::ConfigMismatch {
                    detail: format!(
                        "on disk: {:?}; this sweep: {meta:?}",
                        String::from_utf8_lossy(&existing)
                    ),
                });
            }
            Blob::Miss => {
                j.blobs
                    .put(META, b"", |e| e.bytes(meta.as_bytes()))
                    .map_err(|e| io_err(&meta_path, e))?;
            }
            // A corrupt meta record means nothing on disk can be trusted
            // to belong to this sweep shape; it is left in place.
            Blob::Corrupt => {
                let v1 = fs::read(&meta_path)
                    .is_ok_and(|b| b.starts_with(format!("{MAGIC_V1} ").as_bytes()));
                let what = if v1 {
                    format!("is in the {MAGIC_V1} format, but this build reads only {MAGIC}")
                } else {
                    "is corrupt".to_string()
                };
                return Err(JournalError::ConfigMismatch {
                    detail: format!(
                        "meta record {} {what}; delete the journal to start over",
                        meta_path.display()
                    ),
                });
            }
        }
        let state = j.load()?;
        Ok((j, state))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        self.blobs.dir()
    }

    fn put(&self, cell: CellKey, body: impl FnOnce(&mut Enc)) -> Result<(), JournalError> {
        let name = record_name(cell);
        self.blobs
            .put(&name, &cell_material(cell), body)
            .map(drop)
            .map_err(|e| io_err(&self.blobs.path(&name), e))
    }

    /// Journal a successful cell.
    pub fn record_ok(&self, cell: CellKey, r: &RunResult) -> Result<(), JournalError> {
        self.put(cell, |e| {
            e.u8(STATUS_OK);
            encode_result(e, r);
        })
    }

    /// Journal a failed cell (after retries were exhausted). Failed
    /// records are evidence, not results: resume re-runs the cell.
    pub fn record_failed(&self, cell: CellKey, err: &JobError) -> Result<(), JournalError> {
        self.put(cell, |e| {
            e.u8(STATUS_FAILED);
            e.bytes(err.kind_label().as_bytes());
            e.bytes(err.to_string().as_bytes());
        })
    }

    /// Scan the directory, returning every valid record and quarantining
    /// corrupt ones.
    fn load(&self) -> Result<JournalState, JournalError> {
        let mut state = JournalState::default();
        let dir = self.blobs.dir();
        for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let name = entry.map_err(|e| io_err(dir, e))?.file_name();
            let name = name.to_string_lossy();
            let Some(cell) = parse_record_name(&name) else {
                continue; // meta.rec, quarantine/, stale temporaries
            };
            let path = self.blobs.path(&name);
            match self
                .blobs
                .read(&name, &cell_material(cell), decode_record)
                .map_err(|e| io_err(&path, e))?
            {
                Blob::Hit(Some(r)) => {
                    state.ok.insert(cell, r);
                }
                Blob::Hit(None) => {
                    state.failed.insert(cell);
                }
                // Vanished since the scan, or written for another cell.
                Blob::Miss => {}
                Blob::Corrupt => {
                    let qpath = self.blobs.quarantine(&name).map_err(|e| io_err(&path, e))?;
                    state.quarantined.push(qpath);
                }
            }
        }
        Ok(state)
    }
}

/// Cell key → `c<w>-<v>-<s>.rec`.
fn record_name((w, v, s): CellKey) -> String {
    format!("c{w}-{v}-{s}.rec")
}

/// `c<w>-<v>-<s>.rec` → cell key.
fn parse_record_name(name: &str) -> Option<CellKey> {
    let body = name.strip_prefix('c')?.strip_suffix(".rec")?;
    let mut it = body.splitn(3, '-');
    let w = it.next()?.parse().ok()?;
    let v = it.next()?.parse().ok()?;
    let s = it.next()?.parse().ok()?;
    Some((w, v, s))
}

/// A canonical, bit-exact text fingerprint of a [`RunResult`]: one
/// `key=value` line per deterministic field (u64s in decimal, floats by
/// their IEEE bits in hex), excluding host wall-time. Two results
/// fingerprint equal iff the simulation produced identical numbers — the
/// chaos and determinism tests compare sweeps through this, and the
/// benchmark pins hashes of it. Write-only: nothing parses it back.
pub fn fingerprint(r: &RunResult) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: &dyn fmt::Display| {
        let _ = writeln!(out, "{k}={v}");
    };
    let bits = |f: f64| format!("{:016x}", f.to_bits());
    let list = |vs: &[u64]| {
        let vs: Vec<String> = vs.iter().map(u64::to_string).collect();
        vs.join(" ")
    };
    let s = &r.stats;
    line("cycles", &s.cycles);
    line("committed_insts", &s.committed_insts);
    line("committed_loads", &s.committed_loads);
    line("committed_stores", &s.committed_stores);
    line("committed_branches", &s.committed_branches);
    line("branch_mispredicts", &s.branch_mispredicts);
    line("mem_order_violations", &s.mem_order_violations);
    line("squashes", &s.squashes);
    line("faults", &s.faults);
    line("wrong_path_executed", &s.wrong_path_executed);
    line("commit_cycles", &s.commit_cycles);
    line("memory_stall_cycles", &s.memory_stall_cycles);
    line("backend_stall_cycles", &s.backend_stall_cycles);
    line("frontend_stall_cycles", &s.frontend_stall_cycles);
    line("dispatch_to_issue_total", &s.dispatch_to_issue_total);
    line("issued_insts", &s.issued_insts);
    line("issue_active_cycles", &s.issue_active_cycles);
    line("deferred_broadcasts", &s.deferred_broadcasts);
    line("broadcasts", &s.broadcasts);
    line("store_bypasses", &s.store_bypasses);
    for class in CpiClass::all() {
        line(&format!("cpi.{}", class.name()), &s.cpi_stack.get(class));
    }
    for (prefix, h) in [("d2i", &s.d2i_hist), ("defer", &s.defer_hist)] {
        line(&format!("{prefix}.count"), &h.count);
        line(&format!("{prefix}.sum"), &h.sum);
        line(&format!("{prefix}.buckets"), &list(&h.buckets));
    }

    let m = &r.mem_stats;
    for (level, c) in [("l1i", m.l1i), ("l1d", m.l1d), ("l2", m.l2)] {
        line(&format!("mem.{level}.hits"), &c.hits);
        line(&format!("mem.{level}.misses"), &c.misses);
    }
    line("mem.dram_accesses", &m.dram_accesses);
    line("mem.prefetches", &m.prefetches);
    if let Some(mlp) = m.mlp {
        line("mem.mlp", &bits(mlp));
    }

    line("regs", &list(&r.regs));
    line("halted", &u64::from(r.halted));
    if let Some(sp) = &r.sampled {
        line("sampled.cpi.mean", &bits(sp.cpi.mean));
        line("sampled.cpi.ci95", &bits(sp.cpi.ci95));
        line("sampled.cpi.n", &sp.cpi.n);
        line("sampled.detailed_insts", &sp.detailed_insts);
        line("sampled.fast_forwarded_insts", &sp.fast_forwarded_insts);
        line("sampled.windows", &sp.windows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nda_core::{run_variant, Variant};
    use nda_isa::{AluOp, Asm, Reg};

    fn sample_result() -> RunResult {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 3)
            .li(Reg::X3, 4)
            .alu(AluOp::Mul, Reg::X4, Reg::X2, Reg::X3);
        asm.halt();
        let p = asm.assemble().unwrap();
        run_variant(Variant::StrictBr, &p, 1_000_000).unwrap()
    }

    fn assert_bit_identical(a: &RunResult, b: &RunResult) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }

    /// XOR `mask` into the byte at `offset` from the end of `path`: past
    /// the 32-byte header, inside the record body.
    fn flip_from_end(path: &Path, offset: usize, mask: u8) {
        let mut bytes = fs::read(path).unwrap();
        let i = bytes.len() - offset;
        bytes[i] ^= mask;
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn journal_persists_and_reloads() {
        let dir = std::env::temp_dir().join("nda-journal-test-reload");
        let _ = fs::remove_dir_all(&dir);
        let r = sample_result();
        let (j, state) = Journal::open(&dir, "meta-a").unwrap();
        assert!(state.ok.is_empty());
        j.record_ok((0, 1, 2), &r).unwrap();
        j.record_failed(
            (0, 2, 2),
            &JobError::Panicked {
                message: "boom".into(),
            },
        )
        .unwrap();
        let (_, state) = Journal::open(&dir, "meta-a").unwrap();
        assert_eq!(state.ok.len(), 1);
        assert_bit_identical(&state.ok[&(0, 1, 2)], &r);
        assert!(state.failed.contains(&(0, 2, 2)));
        assert!(state.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_meta_is_refused() {
        let dir = std::env::temp_dir().join("nda-journal-test-meta");
        let _ = fs::remove_dir_all(&dir);
        Journal::open(&dir, "meta-a").unwrap();
        let err = Journal::open(&dir, "meta-b").unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("meta-b"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn high_bit_flip_in_meta_is_a_config_mismatch() {
        let dir = std::env::temp_dir().join("nda-journal-test-meta-flip");
        let _ = fs::remove_dir_all(&dir);
        Journal::open(&dir, "meta-a").unwrap();
        flip_from_end(&dir.join(META), 2, 0x80);
        let err = Journal::open(&dir, "meta-a").unwrap_err();
        assert!(
            matches!(err, JournalError::ConfigMismatch { .. }),
            "want ConfigMismatch, got {err}"
        );
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert!(dir.join(META).exists(), "a corrupt meta is left in place");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_journal_is_refused_not_quarantined() {
        let dir = std::env::temp_dir().join("nda-journal-test-v1");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A meta.rec and a cell record exactly as the v1 text format wrote
        // them.
        let v1_meta = "nda-journal-v1 5f861de61d3a630a\nmeta-a";
        fs::write(dir.join(META), v1_meta).unwrap();
        fs::write(
            dir.join("c0-0-0.rec"),
            "nda-journal-v1 d2f5eb90630495a1\nstatus=failed\nkind=panic\nerror=boom\n",
        )
        .unwrap();
        let err = Journal::open(&dir, "meta-a").unwrap_err();
        assert!(
            matches!(err, JournalError::ConfigMismatch { .. }),
            "want ConfigMismatch, got {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("nda-journal-v1"), "{msg}");
        assert!(msg.contains("nda-journal-v2"), "{msg}");
        assert!(msg.contains("delete the journal"), "{msg}");
        assert_eq!(fs::read_to_string(dir.join(META)).unwrap(), v1_meta);
        assert!(dir.join("c0-0-0.rec").exists());
        assert!(!dir.join("quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_quarantined_not_trusted() {
        let dir = std::env::temp_dir().join("nda-journal-test-corrupt");
        let _ = fs::remove_dir_all(&dir);
        let r = sample_result();
        let (j, _) = Journal::open(&dir, "m").unwrap();
        j.record_ok((0, 0, 0), &r).unwrap();
        j.record_ok((0, 1, 0), &r).unwrap();
        j.record_ok((0, 2, 0), &r).unwrap();
        j.record_ok((0, 3, 0), &r).unwrap();
        // Truncate one record, bit-flip another, set the high bit of a
        // body byte in a third.
        let p0 = dir.join("c0-0-0.rec");
        let bytes = fs::read(&p0).unwrap();
        fs::write(&p0, &bytes[..bytes.len() / 2]).unwrap();
        let p1 = dir.join("c0-1-0.rec");
        let mut bytes = fs::read(&p1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&p1, &bytes).unwrap();
        let p2 = dir.join("c0-2-0.rec");
        flip_from_end(&p2, 9, 0x80);
        let (_, state) = Journal::open(&dir, "m").unwrap();
        assert_eq!(state.ok.len(), 1);
        assert!(state.ok.contains_key(&(0, 3, 0)));
        assert_eq!(state.quarantined.len(), 3);
        for q in &state.quarantined {
            assert!(q.exists(), "quarantined file kept: {}", q.display());
        }
        // The records are gone from the journal proper.
        assert!(!p0.exists() && !p1.exists() && !p2.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_for_another_cell_is_ignored() {
        let dir = std::env::temp_dir().join("nda-journal-test-renamed");
        let _ = fs::remove_dir_all(&dir);
        let (j, _) = Journal::open(&dir, "m").unwrap();
        j.record_ok((0, 0, 0), &sample_result()).unwrap();
        fs::rename(dir.join("c0-0-0.rec"), dir.join("c0-0-1.rec")).unwrap();
        let (_, state) = Journal::open(&dir, "m").unwrap();
        assert!(state.ok.is_empty(), "a record counts only for its own cell");
        assert!(state.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_names_roundtrip() {
        assert_eq!(parse_record_name("c3-10-2.rec"), Some((3, 10, 2)));
        assert_eq!(
            parse_record_name(&record_name((3, 10, 2))),
            Some((3, 10, 2))
        );
        assert_eq!(parse_record_name("meta.rec"), None);
        assert_eq!(parse_record_name("c3-10-2.tmp"), None);
        assert_eq!(parse_record_name(".tmp.7.0.c3-10-2.rec"), None);
        assert_eq!(parse_record_name("quarantine"), None);
    }
}
