//! Byte pins of the two persistent store formats, `nda-ckpt-v2` and
//! `nda-result-v1`. Entries written by an older build must keep hitting,
//! so any change to the framing, the key material or a body codec has to
//! show up here as a changed hash, not as a silent cache-wide miss.
//!
//! Each pin writes one fixed value under one fixed key and pins FNV-1a 64
//! of the entry file's bytes. The hash is computed locally so the pin does
//! not depend on the code under test.
//!
//! A format change that cannot keep old entries takes a new magic. The
//! magic opens the key material, so an old entry is a clean miss under
//! another file name; `v1_checkpoint_entry_is_a_clean_miss` checks that
//! for the checkpoint store.

use nda_core::{
    collect_checkpoints, collect_checkpoints_cached, CheckpointStore, ResultKey, ResultStore,
    RunResult, SampledInfo, SampledParams, SimConfig, StoreKey, Variant,
};
use nda_isa::Program;
use nda_mem::{CacheStats, MemStats};
use nda_stats::{CpiClass, Sample, SimStats};
use nda_workloads::{by_name, WorkloadParams};
use std::path::PathBuf;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nda-format-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A hand-built result touching every encoded field, with distinct values
/// so a reordering of fields changes the bytes.
fn fixed_result() -> RunResult {
    let mut stats = SimStats::new();
    stats.cycles = 123_456;
    stats.committed_insts = 65_432;
    stats.committed_loads = 11_111;
    stats.committed_stores = 2_222;
    stats.committed_branches = 3_333;
    stats.branch_mispredicts = 44;
    stats.mem_order_violations = 5;
    stats.squashes = 66;
    stats.faults = 7;
    stats.wrong_path_executed = 888;
    stats.commit_cycles = 99_999;
    stats.memory_stall_cycles = 10_101;
    stats.backend_stall_cycles = 20_202;
    stats.frontend_stall_cycles = 30_303;
    stats.dispatch_to_issue_total = 404_040;
    stats.issued_insts = 70_707;
    stats.issue_active_cycles = 50_505;
    stats.deferred_broadcasts = 606;
    stats.broadcasts = 60_606;
    stats.store_bypasses = 17;
    for (i, class) in CpiClass::all().into_iter().enumerate() {
        stats.cpi_stack.set(class, 1000 + i as u64);
    }
    for (i, b) in stats.d2i_hist.buckets.iter_mut().enumerate() {
        *b = 3 * i as u64 + 1;
    }
    stats.d2i_hist.count = 41;
    stats.d2i_hist.sum = 4141;
    stats.defer_hist.buckets[2] = 9;
    stats.defer_hist.count = 9;
    stats.defer_hist.sum = 36;
    let mut regs = [0u64; 32];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    RunResult {
        stats,
        mem_stats: MemStats {
            l1i: CacheStats { hits: 1, misses: 2 },
            l1d: CacheStats { hits: 3, misses: 4 },
            l2: CacheStats { hits: 5, misses: 6 },
            dram_accesses: 77,
            prefetches: 8,
            mlp: Some(1.75),
        },
        regs,
        halted: true,
        host_ns: 0,
        sampled: Some(SampledInfo {
            cpi: Sample {
                mean: 1.8875,
                ci95: 0.0625,
                n: 12,
            },
            detailed_insts: 4_800,
            fast_forwarded_insts: 60_632,
            windows: 12,
            ff_wall_ns: 0,
            detail_wall_ns: 0,
        }),
    }
}

#[test]
fn result_entry_bytes_are_pinned() {
    let dir = fresh_dir("result");
    let store = ResultStore::open(&dir).unwrap();
    let key = ResultKey::from_material(b"format-pin/run/mcf/Strict/iters=40".to_vec());
    let path = store.save(&key, &fixed_result()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"nda-result-v1 "));
    assert_eq!(
        format!("{:016x}", fnv64(&bytes)),
        "33ea090db426cade",
        "nda-result-v1 entry bytes changed ({} bytes)",
        bytes.len()
    );
    assert_eq!(store.load(&key), Some(fixed_result()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pinned checkpoint collection: mcf under the OoO configuration.
fn pinned_collection() -> (SimConfig, Program, SampledParams) {
    let prog = (by_name("mcf").expect("mcf kernel present").build)(&WorkloadParams {
        seed: 1234,
        iters: 300,
    });
    (
        SimConfig::for_variant(Variant::Ooo),
        prog,
        SampledParams::new(5_000, 200, 200),
    )
}

#[test]
fn checkpoint_entry_bytes_are_pinned() {
    let dir = fresh_dir("ckpt");
    let store = CheckpointStore::open(&dir).unwrap();
    let (cfg, prog, params) = pinned_collection();
    let key = StoreKey::new(&cfg, &prog, params);
    let set = collect_checkpoints(&cfg, &prog, params, u64::MAX).unwrap();
    let path = store.save(&key, &set).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"nda-ckpt-v2 "));
    assert_eq!(
        format!("{:016x}", fnv64(&bytes)),
        "d81b16521affb0e5",
        "nda-ckpt-v2 entry bytes changed ({} bytes)",
        bytes.len()
    );
    assert!(store.load(&key, &cfg, &prog) == Some(set));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-frame a v2 checkpoint entry as v1: the magic in the header and in
/// the key material becomes `nda-ckpt-v1`, with the checksum and the file
/// name that follow from it. The body stays as it is — a v1 entry is never
/// read, so only its frame and its name matter.
fn reframe_as_v1(v2: &[u8]) -> (String, Vec<u8>) {
    let header_len = "nda-ckpt-v2 0000000000000000\n".len();
    let mut rest = v2[header_len..].to_vec();
    let material_len = u64::from_le_bytes(rest[..8].try_into().unwrap()) as usize;
    // The key material opens with the length-prefixed magic.
    let magic = 16..16 + "nda-ckpt-v2".len();
    assert_eq!(&rest[magic.clone()], b"nda-ckpt-v2");
    rest[magic].copy_from_slice(b"nda-ckpt-v1");
    let name = format!("{:016x}.ckpt", fnv64(&rest[8..8 + material_len]));
    let mut v1 = format!("nda-ckpt-v1 {:016x}\n", fnv64(&rest)).into_bytes();
    v1.extend_from_slice(&rest);
    (name, v1)
}

#[test]
fn v1_checkpoint_entry_is_a_clean_miss() {
    let dir = fresh_dir("ckpt-v1");
    let store = CheckpointStore::open(&dir).unwrap();
    let (cfg, prog, params) = pinned_collection();
    let key = StoreKey::new(&cfg, &prog, params);
    let set = collect_checkpoints(&cfg, &prog, params, u64::MAX).unwrap();
    let v2 = std::fs::read(store.save(&key, &set).unwrap()).unwrap();
    let (v1_name, v1) = reframe_as_v1(&v2);
    assert_ne!(v1_name, key.filename(), "v1 entries live under other names");
    std::fs::remove_file(store.entry_path(&key)).unwrap();
    std::fs::write(dir.join(&v1_name), &v1).unwrap();

    assert!(
        store.load(&key, &cfg, &prog).is_none(),
        "a v1 entry must miss"
    );
    assert!(
        !dir.join("quarantine").exists(),
        "a v1 entry is not corrupt and must not be quarantined"
    );
    let (again, hit) =
        collect_checkpoints_cached(Some(&store), &cfg, &prog, params, u64::MAX).unwrap();
    assert!(!hit);
    assert!(again == set, "the re-collected set must equal the original");
    let saved = std::fs::read(store.entry_path(&key)).unwrap();
    assert!(
        saved.starts_with(b"nda-ckpt-v2 "),
        "the next collect saves v2"
    );
    assert!(dir.join(&v1_name).exists(), "the v1 entry is left alone");
    assert!(!dir.join("quarantine").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
