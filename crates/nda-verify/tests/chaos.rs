//! Chaos-harness property tests for the fault-isolated sweep.
//!
//! Host-level fault injection (seeded panics, starved jobs, corrupted
//! journal records) against the real sweep machinery, asserting the
//! robustness contract end to end:
//!
//! 1. a chaotic sweep always terminates, and every cell that completed
//!    is bit-identical to the clean run (fault isolation never perturbs
//!    siblings);
//! 2. retries only heal — the failed-cell set with retries is a subset
//!    of the failed-cell set without;
//! 3. a journal written under chaos, resumed with chaos off, converges
//!    to exactly the clean-run results;
//! 4. a journal truncated mid-run (the kill -9 case: any prefix of the
//!    atomic per-cell records) resumes to exactly the clean-run results;
//! 5. corrupted records (torn write, bit rot) are quarantined, re-run,
//!    and the sweep still converges.

use nda_bench::journal::fingerprint;
use nda_bench::{
    silence_contained_panics, sweep, sweep_journaled, sweep_meta, CellStatus, Chaos, Journal,
    SweepConfig, SweepResults,
};
use nda_core::Variant;
use nda_verify::chaos::{corrupt_bitflip, corrupt_truncate};
use nda_workloads::Workload;
use std::path::PathBuf;

fn workloads() -> &'static [Workload] {
    &nda_workloads::all()[..2]
}

fn variants() -> Vec<Variant> {
    vec![Variant::Ooo, Variant::StrictBr, Variant::InOrder]
}

fn cfg() -> SweepConfig {
    SweepConfig {
        samples: 2,
        iters: 6,
        jobs: 2,
        backoff_ms: 0,
        ..SweepConfig::default()
    }
}

/// Per-cell fingerprints of every completed run, in sample order.
fn cell_prints(r: &SweepResults, w: usize, v: usize) -> Vec<String> {
    r.cell(w, v).runs.iter().map(fingerprint).collect()
}

fn assert_identical(a: &SweepResults, b: &SweepResults) {
    for w in 0..a.workloads.len() {
        for v in 0..a.variants.len() {
            assert_eq!(a.status(w, v), b.status(w, v), "status of cell ({w},{v})");
            assert_eq!(
                cell_prints(a, w, v),
                cell_prints(b, w, v),
                "runs of cell ({w},{v})"
            );
        }
    }
}

fn failed_cells(r: &SweepResults) -> Vec<(usize, usize)> {
    r.degraded()
        .into_iter()
        .filter(|(_, _, st)| *st == CellStatus::Failed)
        .map(|(w, v, _)| (w, v))
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nda-chaos-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn chaotic_sweep_terminates_and_never_perturbs_surviving_cells() {
    silence_contained_panics();
    let (wl, vs) = (workloads(), variants());
    let clean = sweep(wl, &vs, cfg());
    assert!(clean.all_ok());
    let chaotic = sweep(
        wl,
        &vs,
        SweepConfig {
            retries: 0,
            chaos: Some(Chaos {
                seed: 11,
                panic_pct: 40,
                slow_pct: 20,
                target: None,
            }),
            ..cfg()
        },
    );
    // With 12 jobs at 60% combined fault rate, some cells must degrade —
    // and the sweep still returned (termination) with every cell present.
    assert!(!chaotic.all_ok(), "chaos at 60% should degrade something");
    assert_eq!(chaotic.cells.len(), clean.cells.len());
    for w in 0..wl.len() {
        for v in 0..vs.len() {
            if chaotic.status(w, v) == CellStatus::Ok {
                assert_eq!(
                    cell_prints(&chaotic, w, v),
                    cell_prints(&clean, w, v),
                    "surviving cell ({w},{v}) diverged from the clean run"
                );
            }
        }
    }
}

#[test]
fn retries_only_heal() {
    silence_contained_panics();
    let (wl, vs) = (workloads(), variants());
    let chaos = Some(Chaos {
        seed: 23,
        panic_pct: 50,
        slow_pct: 0,
        target: None,
    });
    let without = sweep(
        wl,
        &vs,
        SweepConfig {
            retries: 0,
            chaos,
            ..cfg()
        },
    );
    let with = sweep(
        wl,
        &vs,
        SweepConfig {
            retries: 3,
            chaos,
            ..cfg()
        },
    );
    let f0 = failed_cells(&without);
    let f3 = failed_cells(&with);
    assert!(!f0.is_empty(), "50% panic rate should fail something");
    for cell in &f3 {
        assert!(
            f0.contains(cell),
            "cell {cell:?} failed with retries but not without"
        );
    }
    assert!(
        f3.len() < f0.len(),
        "3 independent re-rolls at 50% should heal at least one of {} cells",
        f0.len()
    );
}

#[test]
fn chaos_journal_resumed_clean_converges_to_clean_run() {
    silence_contained_panics();
    let (wl, vs) = (workloads(), variants());
    let clean = sweep(wl, &vs, cfg());
    let dir = tmp_dir("chaos-resume");
    let meta = sweep_meta(wl, &vs, &cfg());

    // First pass: chaos on, journaled. Some cells fail and are recorded
    // as such.
    let (j, state) = Journal::open(&dir, &meta).unwrap();
    let chaotic = sweep_journaled(
        wl,
        &vs,
        SweepConfig {
            retries: 0,
            chaos: Some(Chaos {
                seed: 5,
                panic_pct: 40,
                slow_pct: 20,
                target: None,
            }),
            ..cfg()
        },
        Some((&j, &state)),
    );
    assert!(!chaotic.all_ok());

    // Second pass: same journal, chaos off. Only the missing/failed
    // cells re-run; the result must equal the uninterrupted clean sweep.
    let (j, state) = Journal::open(&dir, &meta).unwrap();
    assert!(
        !state.ok.is_empty(),
        "first pass should have journaled Ok cells"
    );
    assert!(
        !state.failed.is_empty(),
        "first pass should have journaled failures"
    );
    let resumed = sweep_journaled(wl, &vs, cfg(), Some((&j, &state)));
    assert!(resumed.all_ok());
    assert_identical(&resumed, &clean);
}

#[test]
fn journal_prefix_after_simulated_kill_resumes_to_clean_run() {
    let (wl, vs) = (workloads(), variants());
    let clean = sweep(wl, &vs, cfg());
    let full_dir = tmp_dir("kill-full");
    let cut_dir = tmp_dir("kill-cut");
    let meta = sweep_meta(wl, &vs, &cfg());

    let (j, state) = Journal::open(&full_dir, &meta).unwrap();
    sweep_journaled(wl, &vs, cfg(), Some((&j, &state)));

    // Records are written atomically as each cell finishes, so a kill at
    // any point leaves some subset of them. Simulate one by copying the
    // meta and every other cell record.
    std::fs::copy(full_dir.join("meta.rec"), cut_dir.join("meta.rec")).unwrap();
    let mut recs: Vec<_> = std::fs::read_dir(&full_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with('c') && n.ends_with(".rec"))
        .collect();
    recs.sort();
    assert_eq!(recs.len(), wl.len() * vs.len() * 2);
    for name in recs.iter().step_by(2) {
        std::fs::copy(full_dir.join(name), cut_dir.join(name)).unwrap();
    }

    let (j, state) = Journal::open(&cut_dir, &meta).unwrap();
    assert_eq!(state.ok.len(), recs.len() / 2);
    let resumed = sweep_journaled(wl, &vs, cfg(), Some((&j, &state)));
    assert!(resumed.all_ok());
    assert_identical(&resumed, &clean);
}

#[test]
fn corrupted_records_are_quarantined_and_rerun_to_clean_results() {
    let (wl, vs) = (workloads(), variants());
    let clean = sweep(wl, &vs, cfg());
    let dir = tmp_dir("corrupt");
    let meta = sweep_meta(wl, &vs, &cfg());

    let (j, state) = Journal::open(&dir, &meta).unwrap();
    sweep_journaled(wl, &vs, cfg(), Some((&j, &state)));

    // Torn write on one record, bit rot on another, and a high-bit flip
    // in a body byte of a third (not valid UTF-8, which a text reader
    // would fail on instead of quarantining).
    corrupt_truncate(&dir.join("c0-0-0.rec"), 10).unwrap();
    corrupt_bitflip(&dir.join("c1-2-1.rec"), 99).unwrap();
    let high = dir.join("c1-0-0.rec");
    let mut bytes = std::fs::read(&high).unwrap();
    let body_byte = bytes.len() - 9;
    bytes[body_byte] ^= 0x80;
    std::fs::write(&high, &bytes).unwrap();

    let (j, state) = Journal::open(&dir, &meta).unwrap();
    assert_eq!(state.quarantined.len(), 3, "{:?}", state.quarantined);
    for q in &state.quarantined {
        assert!(
            q.exists(),
            "quarantined record {} must be kept",
            q.display()
        );
    }
    assert!(!state.ok.contains_key(&(0, 0, 0)));
    assert!(!state.ok.contains_key(&(1, 2, 1)));
    assert!(!state.ok.contains_key(&(1, 0, 0)));

    let resumed = sweep_journaled(wl, &vs, cfg(), Some((&j, &state)));
    assert!(resumed.all_ok());
    assert_identical(&resumed, &clean);
}
