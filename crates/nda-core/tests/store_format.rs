//! Byte pins of the two persistent store formats, `nda-ckpt-v1` and
//! `nda-result-v1`. Entries written by an older build must keep hitting,
//! so any change to the framing, the key material or a body codec has to
//! show up here as a changed hash, not as a silent cache-wide miss.
//!
//! Each test writes one fixed value under one fixed key and pins FNV-1a 64
//! of the entry file's bytes. The hash is computed locally so the pin does
//! not depend on the code under test.

use nda_core::{
    collect_checkpoints, CheckpointStore, ResultKey, ResultStore, RunResult, SampledInfo,
    SampledParams, SimConfig, StoreKey, Variant,
};
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

#[test]
fn checkpoint_entry_bytes_are_pinned() {
    let dir = fresh_dir("ckpt");
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = SimConfig::for_variant(Variant::Ooo);
    let prog = (by_name("mcf").expect("mcf kernel present").build)(&WorkloadParams {
        seed: 1234,
        iters: 300,
    });
    let params = SampledParams::new(5_000, 200, 200);
    let key = StoreKey::new(&cfg, &prog, params);
    let set = collect_checkpoints(&cfg, &prog, params, u64::MAX).unwrap();
    let path = store.save(&key, &set).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"nda-ckpt-v1 "));
    assert_eq!(
        format!("{:016x}", fnv64(&bytes)),
        "e16e78c0d9c70043",
        "nda-ckpt-v1 entry bytes changed ({} bytes)",
        bytes.len()
    );
    assert_eq!(store.load(&key, &cfg, &prog), Some(set));
    let _ = std::fs::remove_dir_all(&dir);
}
