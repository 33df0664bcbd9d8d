//! `fig7_detail`: the paper's Fig 7 grid in full detail — every kernel
//! under every variant at bench sizing, one seed — through the sweep
//! executor. The pipeline model does nearly all the work; fast-forward,
//! stores and serve do none.

use crate::spans::{self, Spans};
use crate::stats::{self, median};
use crate::util::{self, fnv64, slug};
use crate::{passes, timed_setup, Args, Report, DEFAULT_SEED};
use nda_bench::{execute_jobs, fingerprint, metrics_document, sweep, SweepConfig, SweepResults};
use nda_core::{InOrderCore, OooCore, RunResult, SimConfig, Variant};
use nda_isa::Interp;
use nda_workloads::WorkloadParams;
use std::collections::HashMap;
use std::time::Instant;

/// Workload iterations: the bench sizing of Fig 7.
pub const ITERS: u64 = 400;
/// Sweep workers. One: with two, cells that overlap contend for the
/// host's shared core resources and single cells' host times varied by
/// ±25 % between runs (README.md).
const JOBS: usize = 1;
/// One grid on one worker of the reference host (README.md).
const NOMINAL_PASS_S: f64 = 21.0;
/// A cell slower than this misses the latency limit: about twice the
/// slowest cell, so only a gross regression trips it.
const CELL_LIMIT_MS: f64 = 5_000.0;
/// Interpreter step budget for the reference runs.
const INTERP_STEPS: u64 = 200_000_000;

/// `fingerprint()` hashes of every cell at [`DEFAULT_SEED`], as
/// `<kernel> <variant-slug> <fnv64 hex>` lines (`--make fig7-pins`).
const PINS: &str = include_str!("../data/fig7_pins.txt");

/// One result per (kernel, variant) cell, kernel-major like the sweep.
type Cells = Vec<Option<RunResult>>;

fn config(seed: u64) -> SweepConfig {
    SweepConfig {
        samples: 1,
        iters: ITERS,
        jobs: JOBS,
        seed,
        ..SweepConfig::default()
    }
}

fn cells_of(r: &SweepResults) -> Cells {
    r.cells
        .iter()
        .flatten()
        .map(|c| c.runs.first().copied())
        .collect()
}

/// (kernel name, variant) of flat cell `i`.
fn cell_key(i: usize) -> (&'static str, Variant) {
    let nv = Variant::all().len();
    (nda_workloads::all()[i / nv].name, Variant::all()[i % nv])
}

pub fn print_pins() -> Result<(), String> {
    let r = sweep(nda_workloads::all(), &Variant::all(), config(DEFAULT_SEED));
    for (i, run) in cells_of(&r).iter().enumerate() {
        let (k, v) = cell_key(i);
        let run = run.as_ref().ok_or("a cell failed")?;
        println!(
            "{k} {} {:016x}",
            slug(v),
            fnv64(fingerprint(run).as_bytes())
        );
    }
    Ok(())
}

/// Set-up: build every kernel's program and run it on the reference
/// interpreter, whose final state every cell is checked against.
fn setup(seed: u64) -> Vec<Interp> {
    nda_workloads::all()
        .iter()
        .map(|k| {
            let mut i = Interp::new(&(k.build)(&WorkloadParams { seed, iters: ITERS }));
            let _ = i.run(INTERP_STEPS);
            i
        })
        .collect()
}

/// The output checks: every cell matches the interpreter, and at the
/// default seed its pinned fingerprint.
fn check(args: Args, report: &mut Report, refs: &[Interp], cells: &Cells) {
    let pins: HashMap<(&str, &str), &str> = PINS
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some(((f.next()?, f.next()?), f.next()?))
        })
        .collect();
    let nv = Variant::all().len();
    for (i, run) in cells.iter().enumerate() {
        let (k, v) = cell_key(i);
        let Some(run) = run else {
            report.check(false, || format!("{k}/{v}: cell failed"));
            continue;
        };
        let r = &refs[i / nv];
        report.check(r.halted() && run.halted && run.regs == *r.regs(), || {
            format!("{k}/{v}: final state differs from the interpreter")
        });
        if args.seed == DEFAULT_SEED {
            let got = format!("{:016x}", fnv64(fingerprint(run).as_bytes()));
            let want = pins.get(&(k, slug(v).as_str())).copied();
            report.check(want == Some(got.as_str()), || {
                format!("{k}/{v}: fingerprint {got} != pinned {want:?}")
            });
        }
    }
}

pub fn run(args: Args, report: &mut Report) -> Result<(), String> {
    let make = || Ok(setup(args.seed));
    let (mut host, refs) = timed_setup(make)?;
    if args.trace {
        return traced(args, report, &refs);
    }

    let kernels = nda_workloads::all();
    let mut walls = Vec::new();
    let mut cps = Vec::new();
    let mut store = Vec::new();
    let mut cell_ms = Vec::new();
    let mut raw_walls = Vec::new();
    for _ in 0..passes(args.seconds, NOMINAL_PASS_S) {
        // The grid one cell at a time, each cell's host time divided by
        // the host's slowdown around it (`probe.rs`), with a set-up timed
        // between kernel rows so that `setup_s` samples the host across
        // the whole run.
        let dir = util::fresh_dir("fig7");
        let (mut wall, mut raw_wall, mut cells) = (0.0, 0.0, Cells::new());
        let (mut cycles, mut host_s) = (0u64, 0.0);
        let mut written = Ok(());
        for (k, kernel) in kernels.iter().enumerate() {
            let mut row = Vec::new();
            for v in Variant::all() {
                let (s, slow, r) = host.timed(|| sweep(&kernels[k..=k], &[v], config(args.seed)));
                wall += s / slow;
                raw_wall += s;
                if let Some(run) = r.cells[0][0].runs.first() {
                    cycles += run.stats.cycles;
                    host_s += run.host_ns as f64 / 1e9 / slow;
                    cell_ms.push(run.host_ns as f64 / 1e6 / slow);
                }
                row.extend(r.cells.into_iter().flatten());
            }
            let r = SweepResults {
                workloads: vec![kernel.name],
                variants: Variant::all().to_vec(),
                cells: vec![row],
            };
            cells.extend(cells_of(&r));
            // The bytes a user keeps: the sweep's metrics documents.
            let doc = metrics_document(&r, 1, ITERS, args.seed, 0);
            written = written.and(std::fs::write(
                dir.join(format!("{}.metrics.json", kernel.name)),
                doc,
            ));
            if k + 1 < kernels.len() {
                host.between(make)?;
            }
        }
        store.push(util::measure_and_remove(&dir));
        written.map_err(|e| format!("write metrics document: {e}"))?;
        walls.push(wall);
        raw_walls.push(raw_wall);
        check(args, report, &refs, &cells);
        cps.push(cycles as f64 / host_s.max(1e-9));
    }
    let host = host.finish(make)?;
    let within = cell_ms.iter().filter(|&&ms| ms <= CELL_LIMIT_MS).count();
    let tail =
        stats::tail(&cell_ms, stats::TAIL_CAP).ok_or("too few cells for a tail percentile")?;
    report.set("setup_s", host.setup_s);
    report.set("wall_s", median(&walls));
    report.set("sim_cycles_per_s", median(&cps));
    report.set("store_mb", median(&store));
    report.set("p50_ms", median(&cell_ms));
    report.set("tail_ms", tail.value);
    report.set("slo_ok_frac", within as f64 / cell_ms.len() as f64);
    eprintln!(
        "fig7_detail: {} pass(es), wall {walls:?} s on the reference host, {raw_walls:?} s as \
         measured (mean slowdown {:.3}); tail_ms is p{:.1} of {} cells",
        walls.len(),
        host.slowdown,
        tail.percentile,
        tail.samples
    );
    Ok(())
}

/// The grid on the same executor, with a span around each program build,
/// core construction and core run (all no-ops when `sp` is disabled).
fn grid(seed: u64, sp: &Spans) -> (f64, Cells) {
    let kernels = nda_workloads::all();
    let variants = Variant::all();
    let nv = variants.len();
    let deadline = config(seed).deadline_cycles;
    let t = Instant::now();
    let results = execute_jobs(kernels.len() * nv, JOBS, |i| {
        let (k, v) = (&kernels[i / nv], variants[i % nv]);
        let g = i as u64;
        sp.span("cell", 0, g, |cell| {
            let prog = sp.span("workload.build", cell, g, |_| {
                (k.build)(&WorkloadParams { seed, iters: ITERS })
            });
            sp.span("core", cell, g, |core| {
                let cfg = SimConfig::for_variant(v);
                if v == Variant::InOrder {
                    let mut c = sp.span("core.new", core, g, |_| InOrderCore::new(cfg, &prog));
                    sp.span("core.run", core, g, |_| c.run(deadline))
                } else {
                    let mut c = sp.span("core.new", core, g, |_| OooCore::new(cfg, &prog));
                    sp.span("core.run", core, g, |_| c.run(deadline))
                }
            })
        })
    });
    let wall = t.elapsed().as_secs_f64();
    (
        wall,
        results
            .into_iter()
            .map(|r| r.and_then(Result::ok))
            .collect(),
    )
}

/// The traced run: the grid once untraced and once traced, on the same
/// code path, so the difference in CPU time is the cost of the spans.
fn traced(args: Args, report: &mut Report, refs: &[Interp]) -> Result<(), String> {
    let cpu = util::cpu_seconds();
    let (plain_wall, _) = grid(args.seed, &Spans::new(false));
    let plain_cpu = util::cpu_seconds() - cpu;
    let sp = Spans::new(true);
    let cpu = util::cpu_seconds();
    let (wall, cells) = grid(args.seed, &sp);
    let traced_cpu = util::cpu_seconds() - cpu;
    let spans = sp.finish();
    check(args, report, refs, &cells);

    let nv = Variant::all().len();
    let by = |name: &str, key: &dyn Fn(usize) -> usize, n: usize| {
        let mut v = vec![0.0; n];
        for s in spans.iter().filter(|s| s.name == name) {
            v[key(s.group as usize)] += s.dur_ns() as f64 / 1e9;
        }
        v
    };
    let core_s = by("core", &|g| g % nv, nv);
    let kernel_s = by("cell", &|g| g / nv, nda_workloads::all().len());
    let mut cycles = vec![0u64; nv];
    let mut totals = nda_stats::SimStats::new();
    let (mut l1d, mut l2) = (0u64, 0u64);
    for (i, r) in cells.iter().enumerate() {
        let Some(r) = r else { continue };
        let s = &r.stats;
        cycles[i % nv] += s.cycles;
        totals.cycles += s.cycles;
        totals.committed_insts += s.committed_insts;
        totals.wrong_path_executed += s.wrong_path_executed;
        totals.squashes += s.squashes;
        totals.deferred_broadcasts += s.deferred_broadcasts;
        l1d += r.mem_stats.l1d.misses;
        l2 += r.mem_stats.l2.misses;
    }
    for (v, variant) in Variant::all().into_iter().enumerate() {
        report.set(&format!("core.{}.host_s", slug(variant)), core_s[v]);
        report.set(
            &format!("core.{}.ns_per_cycle", slug(variant)),
            core_s[v] * 1e9 / cycles[v].max(1) as f64,
        );
    }
    for (k, s) in nda_workloads::all().iter().zip(&kernel_s) {
        report.set(&format!("kernel.{}.host_s", k.name), *s);
    }
    let cells_s = spans::total_s(&spans, "cell");
    report.set(
        "core.new_ms",
        stats::mean(&spans::durations_s(&spans, "core.new")) * 1e3,
    );
    report.set("executor.busy_frac", cells_s / (wall * JOBS as f64));
    report.set("sim.cycles", totals.cycles as f64);
    report.set("sim.committed_insts", totals.committed_insts as f64);
    report.set("sim.wrong_path_insts", totals.wrong_path_executed as f64);
    report.set("sim.squashes", totals.squashes as f64);
    report.set("sim.deferred_broadcasts", totals.deferred_broadcasts as f64);
    report.set("mem.l1d_misses", l1d as f64);
    report.set("mem.l2_misses", l2 as f64);
    report.set(
        "sim.useful_frac",
        totals.committed_insts as f64
            / (totals.committed_insts + totals.wrong_path_executed).max(1) as f64,
    );
    report.set("trace_overhead_pct", (traced_cpu / plain_cpu - 1.0) * 100.0);
    eprintln!(
        "fig7_detail traced: wall {wall:.3} s traced vs {plain_wall:.3} s untraced; the \
         core.<variant>.host_s sum to {:.3} s, the summed cell host time (new + run); cell \
         spans add program builds for {cells_s:.3} s",
        core_s.iter().sum::<f64>()
    );
    crate::write_trace("fig7_detail", args.seed, &spans);
    Ok(())
}
