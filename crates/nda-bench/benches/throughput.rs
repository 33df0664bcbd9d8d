//! Host-throughput tracking: how fast is the simulator itself?
//!
//! Runs the Fig 7 sweep twice — once serially (always one job) and once
//! on the worker pool at `max(NDA_JOBS, available_parallelism)` — checks
//! the two results are bit-identical (panics on divergence; the CI smoke
//! relies on this), and emits `BENCH_throughput.json` at the workspace
//! root with per-variant simulated-cycles-per-host-second and the
//! end-to-end wall times, so the perf trajectory is tracked in-repo.
//! Sampled simulation and the checkpoint store are measured by
//! perfbench's `sampled_store` workload instead.
//!
//! `NDA_JOBS` caps only the *serial-vs-parallel probe floor*: the
//! parallel leg never runs below the host's parallelism, so setting
//! `NDA_JOBS=1` (as the CI smoke does to keep the sweep small) no longer
//! degenerates the probe into running the same serial sweep twice. The
//! serial leg is always one job.
//!
//! The serial-vs-parallel `speedup` field always carries the measured
//! ratio; when the host has a single core the accompanying
//! `speedup_caveat` field flags it as a degenerate measurement (jobs
//! time-sharing one core, not parallel scaling) instead of suppressing
//! the number — `host_parallelism` in `params` lets readers judge for
//! themselves.
//!
//! Knobs: `NDA_SAMPLES` / `NDA_ITERS` / `NDA_JOBS` as usual, plus
//! `NDA_THROUGHPUT_OUT` to redirect the JSON.

use nda_bench::{sweep, SweepConfig, SweepResults};
use nda_core::Variant;
use std::time::Instant;

/// Single-thread throughput measured at the seed of the perf PR
/// (commit a27c02c, release build without LTO, `nda-sim run mcf
/// --iters 200000` / `run gcc --iters 100000` wall clock on one host
/// core) — the fixed reference point every later run is compared
/// against.
const BASELINE_PRE_PR: &[(&str, f64)] = &[
    ("mcf_sim_cycles_per_sec", 1.057e6),
    ("gcc_sim_cycles_per_sec", 0.755e6),
];
const BASELINE_COMMIT: &str = "a27c02c";

/// Fixed sizing for the single-thread probe: long enough to amortise
/// program-build overhead (throughput is iters-independent past ~10k),
/// short enough for the CI smoke. Deliberately NOT tied to `NDA_ITERS`
/// so the recorded figure is comparable across runs and hosts.
const PROBE_ITERS: u64 = 20_000;

/// One single-thread mcf run on the OoO baseline, directly comparable
/// to the pre-PR `mcf_sim_cycles_per_sec` constant.
fn single_thread_probe() -> (u64, f64) {
    let w = nda_workloads::by_name("mcf").expect("mcf workload exists");
    let prog = (w.build)(&nda_workloads::WorkloadParams {
        seed: 1,
        iters: PROBE_ITERS,
    });
    let r = nda_core::run_variant(Variant::Ooo, &prog, 2_000_000_000).expect("mcf halts");
    (
        r.stats.cycles,
        r.sim_cycles_per_host_sec().expect("host time captured"),
    )
}

fn assert_bit_identical(a: &SweepResults, b: &SweepResults) {
    assert_eq!(a.workloads, b.workloads, "workload order diverged");
    assert_eq!(a.variants, b.variants, "variant order diverged");
    for (w, (ra, rb)) in a.cells.iter().zip(&b.cells).enumerate() {
        for (v, (ca, cb)) in ra.iter().zip(rb).enumerate() {
            let tag = format!("{}/{}", a.workloads[w], a.variants[v]);
            assert_eq!(ca.cpi, cb.cpi, "{tag}: CPI diverged between job counts");
            assert_eq!(ca.runs.len(), cb.runs.len(), "{tag}: run count diverged");
            for (s, (x, y)) in ca.runs.iter().zip(&cb.runs).enumerate() {
                assert_eq!(x.stats, y.stats, "{tag}/sample{s}: SimStats diverged");
                assert_eq!(
                    x.mem_stats, y.mem_stats,
                    "{tag}/sample{s}: MemStats diverged"
                );
                assert_eq!(x.regs, y.regs, "{tag}/sample{s}: registers diverged");
                assert_eq!(x.halted, y.halted, "{tag}/sample{s}: halt state diverged");
            }
        }
    }
}

fn main() {
    let cfg = SweepConfig::from_env();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workloads = nda_workloads::all();
    let variants = Variant::all().to_vec();
    // The parallel leg must actually be parallel: NDA_JOBS=1 (the CI
    // smoke default) used to turn the probe into the same serial sweep
    // run twice. Floor the parallel leg at the host's parallelism; the
    // serial leg below is always pinned to one job.
    let par_jobs = cfg.jobs.max(host);
    println!(
        "throughput: {} workloads x {} variants x {} samples, {} iters, \
         parallel leg {par_jobs} jobs (NDA_JOBS={}, host parallelism {host})",
        workloads.len(),
        variants.len(),
        cfg.samples,
        cfg.iters,
        cfg.jobs
    );

    let t0 = Instant::now();
    let serial = sweep(
        workloads,
        &variants,
        SweepConfig {
            jobs: 1,
            ..cfg.clone()
        },
    );
    let serial_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = sweep(
        workloads,
        &variants,
        SweepConfig {
            jobs: par_jobs,
            ..cfg.clone()
        },
    );
    let parallel_wall = t1.elapsed().as_secs_f64();

    assert_bit_identical(&serial, &parallel);
    println!("determinism: serial and {par_jobs}-job sweeps bit-identical");

    // Always report the measured ratio; when the host has a single core
    // the parallel leg time-shares it, so flag the measurement with a
    // caveat instead of suppressing the number — a reader armed with
    // `host_parallelism` can weigh it.
    let speedup = serial_wall / parallel_wall.max(1e-12);
    let speedup_caveat = (host <= 1).then_some("no host parallelism: jobs time-shared one core");
    match speedup_caveat {
        None => println!(
            "sweep wall time: serial {serial_wall:.3}s, {par_jobs} jobs {parallel_wall:.3}s \
             ({speedup:.2}x)"
        ),
        Some(caveat) => println!(
            "sweep wall time: serial {serial_wall:.3}s, {par_jobs} jobs {parallel_wall:.3}s \
             ({speedup:.2}x — {caveat})"
        ),
    }
    println!(
        "{:<22}{:>16}{:>14}{:>18}",
        "variant", "sim cycles", "host s", "sim cycles/s"
    );
    let mut variant_lines = String::new();
    for (v, variant) in variants.iter().enumerate() {
        let cycles = serial.variant_sim_cycles(v);
        let host_s = serial.variant_host_ns(v) as f64 / 1e9;
        let cps = serial.variant_sim_cycles_per_sec(v).unwrap_or(0.0);
        println!(
            "{:<22}{cycles:>16}{host_s:>14.3}{cps:>18.0}",
            variant.name()
        );
        if v > 0 {
            variant_lines.push_str(",\n");
        }
        variant_lines.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_cycles\": {cycles}, \"host_ns\": {}, \
             \"sim_cycles_per_sec\": {cps:.1}}}",
            variant.name(),
            serial.variant_host_ns(v)
        ));
    }

    let (probe_cycles, probe_cps) = single_thread_probe();
    println!(
        "single-thread probe: mcf x {PROBE_ITERS} iters, {probe_cycles} cycles, \
         {probe_cps:.0} sim cycles/s (pre-PR baseline {:.0})",
        BASELINE_PRE_PR[0].1
    );

    let mut baseline = String::new();
    for &(k, x) in BASELINE_PRE_PR {
        baseline.push_str(&format!(",\n    \"{k}\": {x:.1}"));
    }
    let caveat_json = speedup_caveat.map_or_else(|| "null".to_string(), |c| format!("\"{c}\""));
    let json = format!(
        "{{\n\
         \x20 \"schema\": \"nda-bench-throughput-v4\",\n\
         \x20 \"params\": {{\"samples\": {}, \"iters\": {}, \"jobs\": {par_jobs}, \
         \"host_parallelism\": {host}}},\n\
         \x20 \"sweep_wall_s\": {{\"serial\": {serial_wall:.3}, \"parallel\": {parallel_wall:.3}, \
         \"speedup\": {speedup:.3}, \"speedup_caveat\": {caveat_json}}},\n\
         \x20 \"single_thread\": {{\"workload\": \"mcf\", \"variant\": \"OoO\", \
         \"iters\": {PROBE_ITERS}, \"sim_cycles\": {probe_cycles}, \
         \"sim_cycles_per_sec\": {probe_cps:.1}}},\n\
         \x20 \"variants\": [\n{variant_lines}\n  ],\n\
         \x20 \"baseline_pre_pr\": {{\n    \"commit\": \"{BASELINE_COMMIT}\"{baseline}\n  }}\n\
         }}\n",
        cfg.samples, cfg.iters
    );
    let out = std::env::var("NDA_THROUGHPUT_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_throughput.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write BENCH_throughput.json");
    println!("wrote {out}");
}
