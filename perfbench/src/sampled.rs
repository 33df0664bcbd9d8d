//! `sampled_store`: a sampled sweep over long programs with a small
//! variant set. Each pass makes a cold run into a fresh checkpoint store
//! and journal, a warm run that reads the same store, and a resume that
//! reopens the journal. Fast-forward, checkpoint encode/decode and disk,
//! and window restore dominate; about 4 % of instructions run in detail.

use crate::spans::{self, Spans};
use crate::stats::{self, median};
use crate::util::{self, slug};
use crate::{passes, timed_setup, Args, Host, Report};
use nda_bench::{
    execute_jobs, fingerprint, sweep_journaled, sweep_meta, Journal, SweepConfig, SweepMode,
    SweepResults,
};
use nda_core::{
    collect_checkpoints, CheckpointSet, CheckpointStore, OooCore, RunResult, SampledInfo,
    SampledParams, SimConfig, StoreKey, Variant,
};
use nda_isa::{Interp, Program};
use nda_workloads::{Workload, WorkloadParams};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// The variant set: the insecure baseline and the strongest NDA policy.
pub const VARIANTS: [Variant; 2] = [Variant::Ooo, Variant::FullProtection];
/// Sweep workers. One: with two, cells that overlap contend for the
/// host's shared core resources and single cells' host times varied by
/// ±25 % between runs (README.md).
const JOBS: usize = 1;
/// Kernel seeds come from a pool whose full-detail CPIs are recorded in
/// `data/sampled_reference.txt`: the benchmark seed picks the entry.
const POOL_BASE: u64 = 1000;
const POOL: u64 = 8;
/// A cell whose sampled CPI is further than this from full detail fails.
const CPI_ERR_LIMIT_PCT: f64 = 10.0;
/// A cell's windows finishing later than this miss the latency limit:
/// about twice the slowest cell, so only a gross regression trips it.
const CELL_LIMIT_MS: f64 = 1_000.0;
/// One cold + warm + resume pass on one worker of the reference host
/// (README.md).
const NOMINAL_PASS_S: f64 = 6.0;
const INTERP_STEPS: u64 = 1_000_000_000;

/// Full-detail CPI per (kernel seed, kernel, variant slug), recorded by
/// `--make sampled-reference`.
const REFERENCE: &str = include_str!("../data/sampled_reference.txt");

/// 2 k warm + 2 k measured instructions every 100 k: 4 % in detail.
fn params() -> SampledParams {
    SampledParams::new(100_000, 2_000, 2_000)
}

pub fn kernel_seed(seed: u64) -> u64 {
    POOL_BASE + seed % POOL
}

fn long(name: &str, iters: u64, seed: u64) -> Program {
    let k = nda_workloads::by_name(name).expect("long kernel is registered");
    (k.build)(&WorkloadParams { seed, iters })
}

macro_rules! long_kernels {
    ($($name:ident = $iters:literal),* $(,)?) => {
        $(fn $name(p: &WorkloadParams) -> Program {
            long(stringify!($name), $iters, p.seed)
        })*
        /// The long programs, largest first: about 5 M instructions each,
        /// 10 M for exchange2.
        const LONG: &[(&str, fn(&WorkloadParams) -> Program)] =
            &[$((stringify!($name), $name)),*];
    };
}

long_kernels!(
    exchange2 = 1_800,
    deepsjeng = 6_000,
    xalancbmk = 9_000,
    x264 = 8_000,
    gcc = 30_000,
    omnetpp = 30_000,
);

fn workloads() -> Vec<Workload> {
    LONG.iter()
        .map(|&(name, build)| Workload {
            name,
            behaviour: nda_workloads::by_name(name).expect("registered").behaviour,
            build,
        })
        .collect()
}

fn config(kseed: u64, store: &Path) -> SweepConfig {
    SweepConfig {
        samples: 1,
        jobs: JOBS,
        mode: SweepMode::Sampled(params()),
        seed: kseed,
        ckpt_dir: Some(store.to_path_buf()),
        ..SweepConfig::default()
    }
}

pub fn print_reference() -> Result<(), String> {
    let wl = workloads();
    let jobs: Vec<(u64, usize, Variant)> = (0..POOL)
        .flat_map(|s| (0..wl.len()).flat_map(move |w| VARIANTS.map(|v| (POOL_BASE + s, w, v))))
        .collect();
    let cpis = execute_jobs(jobs.len(), JOBS, |i| {
        let (s, w, v) = jobs[i];
        let prog = (wl[w].build)(&WorkloadParams { seed: s, iters: 1 });
        nda_core::run_variant(v, &prog, nda_bench::sweep::SWEEP_MAX_CYCLES).map(|r| r.cpi())
    });
    for ((s, w, v), cpi) in jobs.iter().zip(cpis) {
        let cpi = cpi
            .ok_or("reference worker died")?
            .map_err(|e| format!("{}: {e}", wl[*w].name))?;
        println!("{s} {} {} {cpi:?}", wl[*w].name, slug(*v));
    }
    Ok(())
}

fn reference() -> HashMap<(u64, &'static str, String), f64> {
    REFERENCE
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let (s, k, v, c) = (f.first()?, f.get(1)?, f.get(2)?, f.get(3)?);
            let k = LONG.iter().find(|(n, _)| n == k)?.0;
            Some(((s.parse().ok()?, k, v.to_string()), c.parse().ok()?))
        })
        .collect()
}

/// Per (kernel, variant) results of one leg of a pass.
type Leg = Vec<Vec<Option<RunResult>>>;

fn leg_of(r: &SweepResults) -> Leg {
    r.cells
        .iter()
        .map(|row| row.iter().map(|c| c.runs.first().copied()).collect())
        .collect()
}

/// One pass: cold, warm and resume legs. Leg times are in seconds on
/// the reference host; `cold_slow` and `warm_slow` divide host times
/// measured inside those legs (`probe.rs`).
struct Pass {
    cold_s: f64,
    warm_s: f64,
    resume_s: f64,
    cold_slow: f64,
    warm_slow: f64,
    cold: Leg,
    warm: Leg,
    resumed: Leg,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.cold_s + self.warm_s + self.resume_s
    }
}

fn open_journal(dir: &Path, meta: &str) -> Result<(Journal, nda_bench::JournalState), String> {
    Journal::open(dir, meta).map_err(|e| e.to_string())
}

/// A pass through the sweep executor, as users run it, each leg timed on
/// `host`.
fn sweep_pass(kseed: u64, dir: &Path, host: &mut Host) -> Result<Pass, String> {
    let wl = workloads();
    let cfg = config(kseed, &dir.join("ckpt"));
    let meta = sweep_meta(&wl, &VARIANTS, &cfg);
    let mut leg = |journal: &str| -> Result<(f64, f64, Leg), String> {
        let (s, slow, r) = host.timed(|| {
            let (j, state) = open_journal(&dir.join(journal), &meta)?;
            Ok::<_, String>(sweep_journaled(
                &wl,
                &VARIANTS,
                cfg.clone(),
                Some((&j, &state)),
            ))
        });
        Ok((s / slow, slow, leg_of(&r?)))
    };
    let (cold_s, cold_slow, cold) = leg("journal-cold")?;
    let (warm_s, warm_slow, warm) = leg("journal-warm")?;
    let (resume_s, _, resumed) = leg("journal-warm")?;
    Ok(Pass {
        cold_s,
        warm_s,
        resume_s,
        cold_slow,
        warm_slow,
        cold,
        warm,
        resumed,
    })
}

/// Set-up: build the long programs and run them on the reference
/// interpreter (every cell is checked against it), and open a checkpoint
/// store and a journal.
fn setup(kseed: u64) -> Result<Vec<Interp>, String> {
    let wl = workloads();
    let dir = util::fresh_dir("sampled-setup");
    let cfg = config(kseed, &dir.join("ckpt"));
    let opened = CheckpointStore::open(dir.join("ckpt"))
        .map_err(|e| e.to_string())
        .and_then(|_| open_journal(&dir.join("journal"), &sweep_meta(&wl, &VARIANTS, &cfg)));
    util::measure_and_remove(&dir);
    opened?;
    Ok(wl
        .iter()
        .map(|w| {
            let mut i = Interp::new(&(w.build)(&WorkloadParams {
                seed: kseed,
                iters: 1,
            }));
            let _ = i.run(INTERP_STEPS);
            i
        })
        .collect())
}

/// The output checks of one pass; returns each cell's sampled-CPI error
/// against full detail, in percent.
fn check(report: &mut Report, kseed: u64, refs: &[Interp], p: &Pass) -> Vec<f64> {
    let full = reference();
    let mut errs = Vec::new();
    for (w, (name, _)) in LONG.iter().enumerate() {
        for (v, &variant) in VARIANTS.iter().enumerate() {
            let tag = format!("{name}/{variant}");
            let (Some(c), Some(wa), Some(re)) = (&p.cold[w][v], &p.warm[w][v], &p.resumed[w][v])
            else {
                report.check(false, || format!("{tag}: a leg failed"));
                continue;
            };
            let i = &refs[w];
            report.check(i.halted() && c.halted && c.regs == *i.regs(), || {
                format!("{tag}: final state differs from the interpreter")
            });
            report.check(fingerprint(wa) == fingerprint(c), || {
                format!("{tag}: warm-store result differs from cold")
            });
            report.check(fingerprint(re) == fingerprint(wa), || {
                format!("{tag}: resumed result differs from the journaled run")
            });
            let sampled = c.sampled.map_or(f64::NAN, |s| s.cpi.mean);
            let want = full.get(&(kseed, *name, slug(variant))).copied();
            let err = want.map_or(f64::INFINITY, |f| (sampled - f).abs() / f * 100.0);
            report.check(err <= CPI_ERR_LIMIT_PCT, || {
                format!("{tag}: sampled CPI {sampled} vs full detail {want:?}")
            });
            errs.push(err);
        }
    }
    errs
}

pub fn run(args: Args, report: &mut Report) -> Result<(), String> {
    let kseed = kernel_seed(args.seed);
    let make = || setup(kseed);
    let (mut host, refs) = timed_setup(make)?;
    if args.trace {
        return traced(args, report, &refs);
    }

    let mut walls = Vec::new();
    let mut cps = Vec::new();
    let mut store_mb = Vec::new();
    let mut cell_ms = Vec::new();
    let mut errs = Vec::new();
    for pass in 0..passes(args.seconds, NOMINAL_PASS_S) {
        // A set-up timed between passes, so that `setup_s` samples the
        // host across the whole run.
        if pass > 0 {
            host.between(make)?;
        }
        let dir = util::fresh_dir("sampled");
        let p = sweep_pass(kseed, &dir, &mut host);
        store_mb.push(util::measure_and_remove(&dir));
        let p = p?;
        errs.extend(check(report, kseed, &refs, &p));
        let mut cycles = 0u64;
        for (leg, slow) in [(&p.cold, p.cold_slow), (&p.warm, p.warm_slow)] {
            for r in leg.iter().flatten().flatten() {
                cycles += r.stats.cycles;
                cell_ms.push(r.host_ns as f64 / 1e6 / slow);
            }
        }
        cps.push(cycles as f64 / (p.cold_s + p.warm_s));
        walls.push(p.wall());
    }
    let host = host.finish(make)?;
    let within = cell_ms.iter().filter(|&&ms| ms <= CELL_LIMIT_MS).count();
    let tail =
        stats::tail(&cell_ms, stats::TAIL_CAP).ok_or("too few cells for a tail percentile")?;
    report.set("setup_s", host.setup_s);
    report.set("wall_s", median(&walls));
    report.set("sim_cycles_per_s", median(&cps));
    report.set("store_mb", median(&store_mb));
    report.set("p50_ms", median(&cell_ms));
    report.set("tail_ms", tail.value);
    report.set("slo_ok_frac", within as f64 / cell_ms.len() as f64);
    eprintln!(
        "sampled_store: kernel seed {kseed}, {} pass(es), wall {walls:?} s on the reference host \
         (mean slowdown {:.3}), store {store_mb:?} MB; sampled CPI error {:.3} % (mean of {} \
         cells); tail_ms is p{:.1} of {} cells",
        walls.len(),
        host.slowdown,
        stats::mean(&errs),
        errs.len(),
        tail.percentile,
        tail.samples
    );
    Ok(())
}

/// One detailed warm + measure window from `ckpt`, as the sampled
/// simulator runs it but without its per-cycle watchdog poll, which the
/// core does not export: (window CPI, instructions committed).
fn window(
    cfg: SimConfig,
    prog: &Program,
    ckpt: &nda_core::Checkpoint,
    p: SampledParams,
    sp: &Spans,
    parent: u64,
    g: u64,
) -> Result<Option<(f64, u64)>, String> {
    let mut core = sp.span("window.restore", parent, g, |r| {
        let mut c = sp.span("core.new", r, g, |_| OooCore::new(cfg, prog));
        c.restore_checkpoint(&ckpt.interp, &ckpt.hier, &ckpt.dir, &ckpt.btb, &ckpt.ras);
        c
    });
    sp.span("window.step", parent, g, |_| {
        let phase = |n: u64, core: &mut OooCore| -> Result<u64, String> {
            core.reset_stats();
            let deadline = core.cycle() + p.budget_per_phase;
            while core.stats.committed_insts < n && !core.halted() {
                if core.cycle() >= deadline {
                    return Err("window exceeded its cycle budget".into());
                }
                core.step_cycle();
            }
            Ok(core.stats.committed_insts)
        };
        let warmed = phase(p.warm_insts, &mut core)?;
        let measured = phase(p.detail_insts, &mut core)?;
        Ok((measured > 0).then(|| (core.stats.cpi(), warmed + measured)))
    })
}

/// A sampled result assembled from window CPIs, as the sampled simulator
/// folds them.
fn fold(set: &CheckpointSet, cpis: &[f64], detailed_insts: u64) -> RunResult {
    let sample = nda_stats::Sample::from_values(cpis);
    let mut stats = nda_stats::SimStats::new();
    stats.committed_insts = set.total_insts;
    stats.cycles = (sample.mean * set.total_insts as f64).round() as u64;
    RunResult {
        regs: *set.final_interp.regs(),
        stats,
        mem_stats: nda_mem::MemStats::default(),
        halted: set.final_interp.halted(),
        host_ns: 0,
        sampled: Some(SampledInfo {
            cpi: sample,
            detailed_insts,
            fast_forwarded_insts: set.total_insts,
            windows: cpis.len(),
            ff_wall_ns: 0,
            detail_wall_ns: 0,
        }),
    }
}

/// What the store did in one traced leg.
#[derive(Default)]
struct StoreUse {
    hits: u64,
    misses: u64,
    loaded_bytes: u64,
    saved_bytes: u64,
    ff_insts: u64,
}

/// One leg through the layers' public calls on the sweep executor, with
/// spans around the store, fast-forward, window and journal calls (no-ops
/// when `sp` is disabled).
fn replica_leg(
    kseed: u64,
    store: &CheckpointStore,
    journal: &Journal,
    sp: &Spans,
) -> Result<(Leg, StoreUse), String> {
    let wl = workloads();
    let p = params();
    let deadline = nda_bench::sweep::SWEEP_MAX_CYCLES;
    let sets = execute_jobs(wl.len(), JOBS, |w| {
        let g = w as u64;
        sp.span(
            "set",
            0,
            g,
            |set_id| -> Result<(Vec<Option<RunResult>>, StoreUse), String> {
                let prog = sp.span("workload.build", set_id, g, |_| {
                    (wl[w].build)(&WorkloadParams {
                        seed: kseed,
                        iters: 1,
                    })
                });
                let cfg0 = SimConfig::for_variant(VARIANTS[0]);
                let key = StoreKey::new(&cfg0, &prog, p);
                let mut used = StoreUse::default();
                let set = match sp.span("ckpt_store.load", set_id, g, |_| {
                    store.load(&key, &cfg0, &prog)
                }) {
                    Some(set) => {
                        used.hits = 1;
                        used.loaded_bytes = file_len(&store.entry_path(&key));
                        set
                    }
                    None => {
                        let set = sp
                            .span("ff", set_id, g, |_| {
                                collect_checkpoints(&cfg0, &prog, p, deadline)
                            })
                            .map_err(|e| e.to_string())?;
                        used.misses = 1;
                        used.ff_insts = set.total_insts;
                        let path = sp
                            .span("ckpt_store.save", set_id, g, |_| store.save(&key, &set))
                            .map_err(|e| e.to_string())?;
                        used.saved_bytes = file_len(&path);
                        set
                    }
                };
                let mut row = Vec::new();
                for (v, &variant) in VARIANTS.iter().enumerate() {
                    let name = format!("window.{}", slug(variant));
                    let r = sp.span(&name, set_id, g, |cell| -> Result<RunResult, String> {
                        let cfg = SimConfig::for_variant(variant);
                        let (mut cpis, mut detailed) = (Vec::new(), 0u64);
                        for ckpt in &set.checkpoints {
                            if let Some((cpi, n)) = window(cfg, &prog, ckpt, p, sp, cell, g)? {
                                cpis.push(cpi);
                                detailed += n;
                            }
                        }
                        Ok(fold(&set, &cpis, detailed))
                    })?;
                    sp.span("journal.write", set_id, g, |_| {
                        journal.record_ok((w, v, 0), &r)
                    })
                    .map_err(|e| e.to_string())?;
                    row.push(Some(r));
                }
                Ok((row, used))
            },
        )
    });
    let mut leg = Vec::new();
    let mut total = StoreUse::default();
    for set in sets {
        let (row, used) = set.ok_or("traced set worker died")??;
        leg.push(row);
        total.hits += used.hits;
        total.misses += used.misses;
        total.loaded_bytes += used.loaded_bytes;
        total.saved_bytes += used.saved_bytes;
        total.ff_insts += used.ff_insts;
    }
    Ok((leg, total))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// A pass through [`replica_leg`]s in a fresh directory.
fn replica_pass(kseed: u64, sp: &Spans) -> Result<(Pass, StoreUse), String> {
    let dir = util::fresh_dir("sampled-replica");
    let run = || -> Result<(Pass, StoreUse), String> {
        let store = CheckpointStore::open(dir.join("ckpt")).map_err(|e| e.to_string())?;
        let meta = sweep_meta(&workloads(), &VARIANTS, &config(kseed, &dir.join("ckpt")));
        let mut legs = Vec::new();
        let mut used = StoreUse::default();
        for journal in ["journal-cold", "journal-warm"] {
            let t = Instant::now();
            let (j, _) = sp.span("journal.open", 0, 0, |_| {
                open_journal(&dir.join(journal), &meta)
            })?;
            let (leg, u) = replica_leg(kseed, &store, &j, sp)?;
            legs.push((t.elapsed().as_secs_f64(), leg));
            used.hits += u.hits;
            used.misses += u.misses;
            used.loaded_bytes += u.loaded_bytes;
            used.saved_bytes += u.saved_bytes;
            used.ff_insts += u.ff_insts;
        }
        let t = Instant::now();
        let (_, state) = sp.span("journal.resume", 0, 0, |_| {
            open_journal(&dir.join("journal-warm"), &meta)
        })?;
        let resume_s = t.elapsed().as_secs_f64();
        let resumed = (0..LONG.len())
            .map(|w| {
                (0..VARIANTS.len())
                    .map(|v| state.ok.get(&(w, v, 0)).copied())
                    .collect()
            })
            .collect();
        let (warm_s, warm) = legs.pop().expect("warm leg");
        let (cold_s, cold) = legs.pop().expect("cold leg");
        Ok((
            Pass {
                cold_s,
                warm_s,
                resume_s,
                cold_slow: 1.0,
                warm_slow: 1.0,
                cold,
                warm,
                resumed,
            },
            used,
        ))
    };
    let out = run();
    util::measure_and_remove(&dir);
    out
}

/// The traced run: a pass through the layers' public calls once untraced
/// and once traced, on the same code path, so the difference in CPU time
/// is the cost of the spans; then a pass through the sweep, whose cold
/// results the replica's must equal.
fn traced(args: Args, report: &mut Report, refs: &[Interp]) -> Result<(), String> {
    let kseed = kernel_seed(args.seed);
    let cpu = util::cpu_seconds();
    let (plain, _) = replica_pass(kseed, &Spans::new(false))?;
    let plain_cpu = util::cpu_seconds() - cpu;
    let sp = Spans::new(true);
    let cpu = util::cpu_seconds();
    let (p, used) = replica_pass(kseed, &sp)?;
    let traced_cpu = util::cpu_seconds() - cpu;
    let spans = sp.finish();
    let errs = check(report, kseed, refs, &p);
    // The replica must stay the sampled sweep: its cold results are
    // compared bit for bit with a pass through the sweep itself.
    let dir = util::fresh_dir("sampled-sweep");
    let swept = sweep_pass(kseed, &dir, &mut Host::start());
    util::measure_and_remove(&dir);
    let swept = swept?;
    for (w, (name, _)) in LONG.iter().enumerate() {
        for (v, variant) in VARIANTS.iter().enumerate() {
            let fp = |leg: &Leg| leg[w][v].as_ref().map(fingerprint);
            report.check(
                fp(&p.cold).is_some() && fp(&p.cold) == fp(&swept.cold),
                || format!("{name}/{variant}: the traced replica differs from the sampled sweep"),
            );
        }
    }

    let total = |n: &str| spans::total_s(&spans, n);
    let ff = total("ff");
    let (save, load) = (total("ckpt_store.save"), total("ckpt_store.load"));
    let (restore, step) = (total("window.restore"), total("window.step"));
    let journal = total("journal.write") + total("journal.open");
    let count = |n: &str| spans.iter().filter(|s| s.name == n).count() as f64;
    report.set("ff.host_s", ff);
    report.set("ff.ns_per_inst", ff * 1e9 / used.ff_insts.max(1) as f64);
    report.set("ckpt_store.save_s", save);
    report.set("ckpt_store.load_s", load);
    report.set(
        "ckpt_store.save_mb_per_s",
        used.saved_bytes as f64 / 1e6 / save.max(1e-9),
    );
    report.set(
        "ckpt_store.load_mb_per_s",
        used.loaded_bytes as f64 / 1e6 / load.max(1e-9),
    );
    report.set("ckpt_store.hits", used.hits as f64);
    report.set("ckpt_store.misses", used.misses as f64);
    report.set("window.restore_s", restore);
    report.set("window.step_s", step);
    report.set("window.count", count("window.step"));
    for v in VARIANTS {
        report.set(
            &format!("window.{}.host_s", slug(v)),
            total(&format!("window.{}", slug(v))),
        );
    }
    report.set(
        "core.new_ms",
        stats::mean(&spans::durations_s(&spans, "core.new")) * 1e3,
    );
    report.set("journal.write_s", total("journal.write"));
    report.set("journal.resume_s", total("journal.resume"));
    report.set("journal.records", count("journal.write"));
    report.set("pass.cold_s", p.cold_s);
    report.set("pass.warm_s", p.warm_s);
    // Worker time the layer spans do not cover: program builds, folding
    // window CPIs, and workers idle at the end of a leg.
    let attributed = ff + save + load + restore + step + journal;
    let available = (p.cold_s + p.warm_s) * JOBS as f64;
    report.set("pass.unattributed_s", available - attributed);
    report.set("sampled.cpi_err_pct", stats::mean(&errs));
    report.set("trace_overhead_pct", (traced_cpu / plain_cpu - 1.0) * 100.0);
    eprintln!(
        "sampled_store traced: pass {:.3} s traced vs {:.3} s untraced; cold {:.3} s + warm \
         {:.3} s on {JOBS} workers = {available:.3} worker-s = ff {ff:.3} + ckpt_store {:.3} + \
         window {:.3} + journal {journal:.3} + unattributed {:.3}",
        p.wall(),
        plain.wall(),
        p.cold_s,
        p.warm_s,
        save + load,
        restore + step,
        available - attributed
    );
    crate::write_trace("sampled_store", args.seed, &spans);
    Ok(())
}
