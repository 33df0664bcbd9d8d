//! `nda-sim` — command-line driver for the NDA reproduction.
//!
//! ```text
//! nda-sim variants                         list core configurations
//! nda-sim workloads                        list synthetic kernels
//! nda-sim attacks                          list attack PoCs
//! nda-sim run <workload> [options]         run a kernel, print a report
//! nda-sim attack <attack> [options]        run an attack, print the verdict
//! nda-sim matrix [--secret B]              full attack x variant matrix
//! nda-sim sweep [options]                  normalised-CPI sweep (mini Fig 7)
//! nda-sim save <workload> <file> [options] encode a kernel to a binary file
//! nda-sim exec <file> [options]            run an encoded program file
//! nda-sim trace <attack> [options]         pipeline-trace an attack window
//! nda-sim verify [options]                 fault-injection differential harness
//! nda-sim analyze <target> [options]       static speculative-leakage analysis;
//!                                          target is an attack name, a workload
//!                                          name, or an encoded program file
//! nda-sim harden <target> [options]        analysis-guided software mitigation:
//!                                          rewrite the target until it carries
//!                                          zero static gadgets (same target
//!                                          resolution as analyze); exits
//!                                          nonzero if residual gadgets remain
//! nda-sim serve [options]                  long-running simulation server
//!                                          (line-delimited JSON over TCP, or
//!                                          stdin/stdout with --stdio)
//! nda-sim client [options]                 pipeline a batch of request lines
//!                                          (--input file, default stdin) to a
//!                                          server and print the responses
//!
//! options:
//!   --json              analyze/harden: emit the machine-readable report
//!                       (for harden: the hardened program's re-analysis)
//!   --validate          analyze: execute each reported gadget on Base OoO
//!                       (expect a transient leak) and under Full Protection
//!                       (expect suppression)
//!                       harden: prove the rewrite — architectural
//!                       equivalence modulo relocation on the reference
//!                       interpreter, plus every original gadget dynamically
//!                       dead on Base OoO
//!   --window <n>        analyze/harden: speculation-window depth
//!                       (default: ROB size)
//!   --passes <list>     harden/sweep --mitigate: comma-separated subset of
//!                       fence,mask,thunk (default: all)
//!   --out <file>        harden: write the hardened program, encoded
//!   --mitigate <list>   sweep: price the software-mitigation axis instead —
//!                       harden every workload under blanket secret labeling
//!                       with the given passes (or `all`) and print
//!                       hardware-NDA vs software vs both overhead, Fig-7
//!                       style
//!   --variant <name>    core configuration (default OoO; see `variants`)
//!   --iters <n>         workload iterations / verify programs (default 200)
//!   --seed <n>          workload / verify seed (default 1)
//!   --secret <byte>     attack secret byte (default 42)
//!   --samples <n>       sweep samples per cell (default 2)
//!   --inject <kinds>    verify only: comma-separated squash,memlat,predictor
//!                       (default: all three; `--inject none` disables)
//!   --sample-every <n>  run/sweep: sampled simulation — functional
//!                       fast-forward with warming, one detailed window
//!                       every n instructions (default 0 = full detail)
//!   --warm <n>          sampled window warm-up instructions (default 2000)
//!   --detail <n>        sampled window measured instructions (default 2000)
//!   --trace-out <file>  run/trace: write the full pipeline event trace
//!   --trace-format <f>  trace file format: perfetto (default) or konata
//!   --metrics-out <file> run/sweep: write the metrics-registry JSON document
//!   --jobs <n>          sweep: worker threads (default: host parallelism;
//!                       any value yields bit-identical results)
//!   --retries <n>       sweep: extra attempts per failed cell (default 1)
//!   --deadline-cycles <n> sweep: per-job cycle deadline; a cell that
//!                       exceeds it degrades to FAILED (default 2e9)
//!   --journal <dir>     sweep: crash-safe resume journal — completed cells
//!                       are recorded as they finish and skipped on rerun
//!   --checkpoint-dir <dir> run/sweep/serve: persistent checkpoint store —
//!                       sampled fast-forward results are content-addressed by
//!                       workload + schedule + machine geometry and reused
//!                       across runs (env fallback: NDA_CKPT_DIR)
//!   --ckpt-max-bytes <n> size cap for the checkpoint store: after each save
//!                       (and with --checkpoint-gc, eagerly) oldest entries
//!                       are evicted until the store fits (env fallback:
//!                       NDA_CKPT_MAX_BYTES; 0 = uncapped)
//!   --checkpoint-gc     run/sweep: garbage-collect the checkpoint store to
//!                       --ckpt-max-bytes before the command runs
//!   --addr <host:port>  serve/client: server address
//!                       (default 127.0.0.1:4209; serve accepts :0)
//!   --stdio             serve: speak the protocol on stdin/stdout instead
//!                       of TCP
//!   --shards <n>        serve: shard worker threads (default: host
//!                       parallelism); jobs land on request-key hash % n
//!   --result-dir <dir>  serve: persistent result store — finished run cells
//!                       are content-addressed and reused across restarts
//!                       (env fallback: NDA_RESULT_DIR)
//!   --result-max-bytes <n> serve: size cap for the result store (env
//!                       fallback: NDA_RESULT_MAX_BYTES; 0 = uncapped)
//!   --input <file>      client: request batch file (default: stdin); blank
//!                       lines and # comments are skipped
//!   --chaos-panic <pct> sweep: chaos harness, panic in pct% of jobs
//!   --chaos-slow <pct>  sweep: chaos harness, starve pct% of jobs so they
//!                       degrade to a deadline error
//!   --chaos-seed <n>    sweep: chaos decision seed (default 0)
//! ```

use nda::attacks::{run_attack, AttackKind};
use nda::core::{run_variant, Variant};
use nda::workloads::{all, by_name, WorkloadParams};
use std::process::ExitCode;

const MAX_CYCLES: u64 = 2_000_000_000;

struct Opts {
    variant: Variant,
    iters: u64,
    seed: u64,
    secret: u8,
    samples: u64,
    inject: String,
    sample_every: u64,
    warm: u64,
    detail: u64,
    json: bool,
    validate: bool,
    window: Option<usize>,
    passes: String,
    out: Option<String>,
    mitigate: Option<String>,
    trace_out: Option<String>,
    trace_format: nda::trace::TraceFormat,
    metrics_out: Option<String>,
    jobs: Option<usize>,
    retries: u32,
    deadline_cycles: u64,
    journal: Option<String>,
    ckpt_dir: Option<String>,
    ckpt_max_bytes: Option<u64>,
    checkpoint_gc: bool,
    chaos_panic: u8,
    chaos_slow: u8,
    chaos_seed: u64,
    addr: String,
    stdio: bool,
    shards: Option<usize>,
    result_dir: Option<String>,
    result_max_bytes: Option<u64>,
    input: Option<String>,
}

/// Parse a "positive u64 or absent" environment knob; `0` disables.
fn env_cap(name: &str) -> Option<u64> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&n| n > 0)
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        variant: Variant::Ooo,
        iters: 200,
        seed: 1,
        secret: 42,
        samples: 2,
        inject: "squash,memlat,predictor".into(),
        sample_every: 0,
        warm: 2_000,
        detail: 2_000,
        json: false,
        validate: false,
        window: None,
        passes: "all".into(),
        out: None,
        mitigate: None,
        trace_out: None,
        trace_format: nda::trace::TraceFormat::Perfetto,
        metrics_out: None,
        jobs: None,
        retries: 1,
        deadline_cycles: MAX_CYCLES,
        journal: None,
        ckpt_dir: std::env::var("NDA_CKPT_DIR").ok(),
        ckpt_max_bytes: env_cap("NDA_CKPT_MAX_BYTES"),
        checkpoint_gc: false,
        chaos_panic: 0,
        chaos_slow: 0,
        chaos_seed: 0,
        addr: "127.0.0.1:4209".into(),
        stdio: false,
        shards: None,
        result_dir: std::env::var("NDA_RESULT_DIR").ok(),
        result_max_bytes: env_cap("NDA_RESULT_MAX_BYTES"),
        input: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
                .map(String::from)
        };
        match a.as_str() {
            "--variant" => {
                let v = val("--variant")?;
                o.variant = Variant::parse(&v).ok_or(format!("unknown variant {v:?}"))?;
            }
            "--iters" => {
                o.iters = val("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--secret" => {
                o.secret = val("--secret")?
                    .parse()
                    .map_err(|e| format!("--secret: {e}"))?
            }
            "--samples" => {
                o.samples = val("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?
            }
            "--inject" => o.inject = val("--inject")?,
            "--sample-every" => {
                o.sample_every = val("--sample-every")?
                    .parse()
                    .map_err(|e| format!("--sample-every: {e}"))?
            }
            "--warm" => o.warm = val("--warm")?.parse().map_err(|e| format!("--warm: {e}"))?,
            "--detail" => {
                o.detail = val("--detail")?
                    .parse()
                    .map_err(|e| format!("--detail: {e}"))?
            }
            "--json" => o.json = true,
            "--validate" => o.validate = true,
            "--passes" => o.passes = val("--passes")?,
            "--out" => o.out = Some(val("--out")?),
            "--mitigate" => o.mitigate = Some(val("--mitigate")?),
            "--trace-out" => o.trace_out = Some(val("--trace-out")?),
            "--trace-format" => {
                let f = val("--trace-format")?;
                o.trace_format = nda::trace::TraceFormat::parse(&f)
                    .ok_or(format!("--trace-format: {f:?} (use perfetto or konata)"))?;
            }
            "--metrics-out" => o.metrics_out = Some(val("--metrics-out")?),
            "--jobs" => o.jobs = Some(val("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?),
            "--retries" => {
                o.retries = val("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--deadline-cycles" => {
                o.deadline_cycles = val("--deadline-cycles")?
                    .parse()
                    .map_err(|e| format!("--deadline-cycles: {e}"))?
            }
            "--journal" => o.journal = Some(val("--journal")?),
            "--checkpoint-dir" => o.ckpt_dir = Some(val("--checkpoint-dir")?),
            "--ckpt-max-bytes" => {
                o.ckpt_max_bytes = Some(
                    val("--ckpt-max-bytes")?
                        .parse()
                        .map_err(|e| format!("--ckpt-max-bytes: {e}"))?,
                )
                .filter(|&n| n > 0)
            }
            "--checkpoint-gc" => o.checkpoint_gc = true,
            "--addr" => o.addr = val("--addr")?,
            "--stdio" => o.stdio = true,
            "--shards" => {
                o.shards = Some(
                    val("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                )
            }
            "--result-dir" => o.result_dir = Some(val("--result-dir")?),
            "--result-max-bytes" => {
                o.result_max_bytes = Some(
                    val("--result-max-bytes")?
                        .parse()
                        .map_err(|e| format!("--result-max-bytes: {e}"))?,
                )
                .filter(|&n| n > 0)
            }
            "--input" => o.input = Some(val("--input")?),
            "--chaos-panic" => {
                o.chaos_panic = val("--chaos-panic")?
                    .parse()
                    .map_err(|e| format!("--chaos-panic: {e}"))?
            }
            "--chaos-slow" => {
                o.chaos_slow = val("--chaos-slow")?
                    .parse()
                    .map_err(|e| format!("--chaos-slow: {e}"))?
            }
            "--chaos-seed" => {
                o.chaos_seed = val("--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?
            }
            "--window" => {
                o.window = Some(
                    val("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn cmd_variants() {
    println!("{:<22}description", "name");
    for v in Variant::all() {
        let desc = match v {
            Variant::Ooo => "insecure out-of-order baseline (Table 3)",
            Variant::Permissive => "NDA permissive propagation (Table 2 row 1)",
            Variant::PermissiveBr => "permissive + bypass restriction (row 2)",
            Variant::Strict => "NDA strict propagation (row 3)",
            Variant::StrictBr => "strict + bypass restriction (row 4)",
            Variant::RestrictedLoads => "NDA load restriction (row 5)",
            Variant::FullProtection => "strict + BR + load restriction (row 6)",
            Variant::InOrder => "blocking in-order baseline",
            Variant::InvisiSpecSpectre => "InvisiSpec, control-speculation model",
            Variant::InvisiSpecFuture => "InvisiSpec, futuristic model",
            Variant::DelayOnMiss => "delay-on-miss (related work)",
            Variant::SttSpectre => "STT taint tracking, Spectre threat model",
            Variant::SttFuturistic => "STT taint tracking, futuristic threat model",
            Variant::ShadowBindingEager => "ShadowBinding, eager (flash) untaint",
            Variant::ShadowBindingLazy => "ShadowBinding, lazy (commit-time) untaint",
        };
        println!("{:<22}{desc}", v.name());
    }
}

fn cmd_workloads() {
    println!("{:<14}behaviour", "name");
    for w in all() {
        println!("{:<14}{}", w.name, w.behaviour);
    }
}

fn cmd_attacks() {
    println!("{:<20}{:<18}channel", "name", "trigger");
    for k in AttackKind::all() {
        let a = k.anatomy();
        let trigger: Vec<_> = a.triggers.iter().map(|(t, _)| t.name()).collect();
        let channel = a.channel.name();
        println!("{:<20}{:<18}{channel}", k.name(), trigger.join(","));
    }
}

/// Eager checkpoint-store GC (`--checkpoint-gc`): trim the store to
/// `--ckpt-max-bytes` before the command runs, so a shrunken cap takes
/// effect immediately instead of at the next save.
fn run_checkpoint_gc(o: &Opts) -> Result<(), String> {
    let dir = o
        .ckpt_dir
        .as_ref()
        .ok_or("--checkpoint-gc needs --checkpoint-dir (or NDA_CKPT_DIR)")?;
    let cap = o
        .ckpt_max_bytes
        .ok_or("--checkpoint-gc needs --ckpt-max-bytes (or NDA_CKPT_MAX_BYTES)")?;
    let store = nda::CheckpointStore::open(std::path::Path::new(dir))
        .map_err(|e| format!("checkpoint store {dir}: {e}"))?;
    let gc = store.gc(cap).map_err(|e| format!("checkpoint gc: {e}"))?;
    eprintln!(
        "checkpoint gc: scanned {} entr{}, evicted {} ({} bytes), {} bytes live",
        gc.scanned,
        if gc.scanned == 1 { "y" } else { "ies" },
        gc.evicted,
        gc.evicted_bytes,
        gc.live_bytes
    );
    Ok(())
}

fn cmd_run_sampled(
    w: &nda::workloads::Workload,
    prog: &nda::Program,
    o: &Opts,
) -> Result<(), String> {
    use nda::{
        collect_checkpoints_cached, run_sampled, run_sampled_with, CheckpointStore, SampledParams,
        SimConfig,
    };
    let params = SampledParams::new(o.sample_every, o.warm, o.detail);
    let store = o.ckpt_dir.as_ref().and_then(|dir| {
        CheckpointStore::open(std::path::Path::new(dir))
            .map_err(|e| eprintln!("warning: checkpoint store at {dir} disabled: {e}"))
            .ok()
            .map(|s| s.with_max_bytes(o.ckpt_max_bytes))
    });
    let cfg = SimConfig::for_variant(o.variant);
    let (r, warm_hit) = match &store {
        Some(store) => {
            let start = std::time::Instant::now();
            let (set, warm) =
                collect_checkpoints_cached(Some(store), &cfg, prog, params, MAX_CYCLES)
                    .map_err(|e| e.to_string())?;
            let ff_wall_ns = start.elapsed().as_nanos() as u64;
            let detail_start = std::time::Instant::now();
            let mut r = run_sampled_with(cfg, prog, &set, params).map_err(|e| e.to_string())?;
            let detail_wall_ns = detail_start.elapsed().as_nanos() as u64;
            if let Some(s) = &mut r.sampled {
                s.ff_wall_ns = ff_wall_ns;
                s.detail_wall_ns = detail_wall_ns;
            }
            r.host_ns = start.elapsed().as_nanos() as u64;
            (r, warm)
        }
        None => (
            run_sampled(cfg, prog, params, MAX_CYCLES).map_err(|e| e.to_string())?,
            false,
        ),
    };
    println!(
        "workload {} on {} (seed {}, {} iters), sampled every {} insts (warm {}, detail {})",
        w.name,
        o.variant.name(),
        o.seed,
        o.iters,
        o.sample_every,
        o.warm,
        o.detail
    );
    let Some(info) = r.sampled else {
        println!("  program too short to sample; ran full detail");
        println!("  cycles               {:>12}", r.stats.cycles);
        println!("  instructions         {:>12}", r.stats.committed_insts);
        println!("  CPI                  {:>12.3}", r.cpi());
        return Ok(());
    };
    println!("  instructions         {:>12}", r.stats.committed_insts);
    println!("  detailed windows     {:>12}", info.windows);
    println!(
        "  detailed insts       {:>12}   ({:.1}% of stream)",
        info.detailed_insts,
        100.0 * info.detailed_insts as f64 / info.fast_forwarded_insts.max(1) as f64
    );
    println!(
        "  sampled CPI          {:>12.3} ± {:.3}   (rel err {:.2}%)",
        info.cpi.mean,
        info.cpi.ci95,
        100.0 * info.cpi.relative_error()
    );
    println!("  est. cycles          {:>12}", r.stats.cycles);
    println!("  host time            {:>12.3}s", r.host_seconds());
    if store.is_some() {
        println!(
            "  checkpoint store     {:>12}   (fast-forward {:.3}s, detail {:.3}s)",
            if warm_hit { "warm hit" } else { "cold miss" },
            info.ff_wall_ns as f64 / 1e9,
            info.detail_wall_ns as f64 / 1e9,
        );
    }
    Ok(())
}

/// Run a program on an OoO variant while streaming pipeline events into
/// the selected exporter; the trace file is written even when the run
/// itself errors out (the partial trace is exactly what one wants then).
fn run_traced(
    cfg: nda::SimConfig,
    prog: &nda::Program,
    path: &str,
    format: nda::trace::TraceFormat,
) -> Result<nda::core::RunResult, String> {
    use nda::core::OooCore;
    use nda::trace::{KonataSink, PerfettoSink, TraceFormat};
    let mut core = OooCore::new(cfg, prog);
    let (run, payload) = match format {
        TraceFormat::Perfetto => {
            let mut sink = PerfettoSink::new();
            let run = core.run_with_sink(MAX_CYCLES, &mut sink);
            (run, sink.into_json())
        }
        TraceFormat::Konata => {
            let mut sink = KonataSink::new();
            let run = core.run_with_sink(MAX_CYCLES, &mut sink);
            (run, sink.into_log())
        }
    };
    std::fs::write(path, &payload).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!(
        "wrote {} bytes of {format:?} trace to {path}",
        payload.len()
    );
    run.map_err(|e| e.to_string())
}

fn cmd_run(name: &str, o: &Opts) -> Result<(), String> {
    if o.checkpoint_gc {
        run_checkpoint_gc(o)?;
    }
    let w = by_name(name).ok_or(format!("unknown workload {name:?} (see `workloads`)"))?;
    let prog = (w.build)(&WorkloadParams {
        seed: o.seed,
        iters: o.iters,
    });
    if o.sample_every > 0 {
        if o.trace_out.is_some() || o.metrics_out.is_some() {
            return Err(
                "--trace-out/--metrics-out need a full-detail run (drop --sample-every)".into(),
            );
        }
        return cmd_run_sampled(w, &prog, o);
    }
    let r = match &o.trace_out {
        Some(path) => {
            if o.variant == Variant::InOrder {
                return Err("tracing needs an out-of-order variant".into());
            }
            run_traced(
                nda::SimConfig::for_variant(o.variant),
                &prog,
                path,
                o.trace_format,
            )?
        }
        None => run_variant(o.variant, &prog, MAX_CYCLES).map_err(|e| e.to_string())?,
    };
    if let Some(path) = &o.metrics_out {
        let json = r.metrics().to_json();
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote metrics document to {path}");
    }
    let s = r.stats;
    println!(
        "workload {} on {} (seed {}, {} iters)",
        w.name,
        o.variant.name(),
        o.seed,
        o.iters
    );
    println!("  cycles               {:>12}", s.cycles);
    println!("  instructions         {:>12}", s.committed_insts);
    println!("  CPI                  {:>12.3}", s.cpi());
    println!(
        "  loads/stores/branches{:>12} / {} / {}",
        s.committed_loads, s.committed_stores, s.committed_branches
    );
    println!("  branch mispredicts   {:>12}", s.branch_mispredicts);
    println!("  squashes             {:>12}", s.squashes);
    println!("  wrong-path executed  {:>12}", s.wrong_path_executed);
    println!("  deferred broadcasts  {:>12}", s.deferred_broadcasts);
    println!("  dispatch->issue      {:>12.2}", s.avg_dispatch_to_issue());
    println!("  ILP                  {:>12.3}", s.ilp());
    let (c, m, b, f) = s.cycle_breakdown();
    println!(
        "  cycle mix            commit {c:.2} / mem {m:.2} / backend {b:.2} / frontend {f:.2}"
    );
    println!("  CPI stack (cycles, share of total):");
    for (class, cycles) in s.cpi_stack.entries() {
        if cycles == 0 {
            continue;
        }
        println!(
            "    {:<18}{:>12}   {:>6.2}%",
            class.name(),
            cycles,
            100.0 * cycles as f64 / s.cycles.max(1) as f64
        );
    }
    println!(
        "  L1D {}h/{}m  L2 {}h/{}m  DRAM {}  MLP {}",
        r.mem_stats.l1d.hits,
        r.mem_stats.l1d.misses,
        r.mem_stats.l2.hits,
        r.mem_stats.l2.misses,
        r.mem_stats.dram_accesses,
        r.mem_stats
            .mlp
            .map(|m| format!("{m:.2}"))
            .unwrap_or_else(|| "-".into()),
    );
    println!("  host time            {:>12.3}s", r.host_seconds());
    if let (Some(cps), Some(mips)) = (r.sim_cycles_per_host_sec(), r.committed_mips()) {
        println!("  sim cycles/host s    {:>12.0}", cps);
        println!("  committed MIPS       {:>12.3}", mips);
    }
    Ok(())
}

fn cmd_attack(name: &str, o: &Opts) -> Result<(), String> {
    let k = AttackKind::parse(name).ok_or(format!("unknown attack {name:?} (see `attacks`)"))?;
    let out = run_attack(k, o.variant, o.secret);
    println!(
        "{} on {} (secret {:#04x})",
        k.name(),
        o.variant.name(),
        o.secret
    );
    println!("  leaked     {}", out.leaked);
    println!(
        "  recovered  {:?}",
        out.recovered.map(|b| format!("{b:#04x}"))
    );
    println!("  separation {} cycles", out.separation);
    println!(
        "  expected   {}",
        if k.expected_blocked(o.variant) {
            "blocked"
        } else {
            "leak"
        }
    );
    Ok(())
}

fn cmd_matrix(o: &Opts) {
    print!("{:<20}", "variant");
    for k in AttackKind::all() {
        print!("{:>20}", k.name());
    }
    println!();
    for v in Variant::all() {
        print!("{:<20}", v.name());
        for k in AttackKind::all() {
            let out = run_attack(k, v, o.secret);
            print!("{:>20}", if out.leaked { "LEAK" } else { "blocked" });
        }
        println!();
    }
}

fn cmd_sweep(o: &Opts) -> Result<(), String> {
    use nda::bench::{
        metrics_document, silence_contained_panics, sweep_journaled, sweep_meta, sweep_table,
        Chaos, Journal, SweepConfig, SweepMode,
    };
    use nda::SampledParams;
    if o.checkpoint_gc {
        run_checkpoint_gc(o)?;
    }
    if let Some(passes) = &o.mitigate {
        return cmd_sweep_mitigate(passes, o);
    }
    // Contained panics (injected or real) are reported as FAILED cells;
    // keep the default panic banner from spamming the table.
    silence_contained_panics();
    let cfg = SweepConfig {
        samples: o.samples,
        iters: o.iters,
        jobs: o.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }),
        mode: if o.sample_every > 0 {
            SweepMode::Sampled(SampledParams::new(o.sample_every, o.warm, o.detail))
        } else {
            SweepMode::Full
        },
        seed: o.seed,
        retries: o.retries,
        backoff_ms: 10,
        deadline_cycles: o.deadline_cycles,
        chaos: (o.chaos_panic > 0 || o.chaos_slow > 0).then_some(Chaos {
            seed: o.chaos_seed,
            panic_pct: o.chaos_panic,
            slow_pct: o.chaos_slow,
            target: None,
        }),
        ckpt_dir: o.ckpt_dir.as_ref().map(std::path::PathBuf::from),
        ckpt_max_bytes: o.ckpt_max_bytes,
    };
    let workloads = all();
    let variants = Variant::all();
    let journal = match &o.journal {
        Some(dir) => {
            let meta = sweep_meta(workloads, &variants, &cfg);
            let (j, state) = Journal::open(std::path::Path::new(dir), &meta)
                .map_err(|e| format!("journal {dir}: {e}"))?;
            for q in &state.quarantined {
                eprintln!("journal: quarantined corrupt record {}", q.display());
            }
            if !state.ok.is_empty() || !state.failed.is_empty() {
                eprintln!(
                    "journal: resuming — {} cell sample(s) done, {} failed (will re-run)",
                    state.ok.len(),
                    state.failed.len()
                );
            }
            Some((j, state))
        }
        None => None,
    };
    if o.sample_every > 0 {
        println!(
            "normalised CPI, {} samples x {} iters per cell, sampled every {} insts",
            o.samples, o.iters, o.sample_every
        );
    } else {
        println!(
            "normalised CPI, {} samples x {} iters per cell",
            o.samples, o.iters
        );
    }
    let r = sweep_journaled(
        workloads,
        &variants,
        cfg,
        journal.as_ref().map(|(j, s)| (j, s)),
    );
    print!("{}", sweep_table(&r));
    let degraded = r.degraded();
    if !degraded.is_empty() {
        eprintln!(
            "warning: {} of {} cells degraded (marked in the table above){}",
            degraded.len(),
            workloads.len() * variants.len(),
            if o.journal.is_some() {
                "; re-run with the same --journal to retry them"
            } else {
                ""
            }
        );
    }
    if let Some(path) = &o.metrics_out {
        let doc = metrics_document(&r, o.samples, o.iters, o.seed, o.sample_every);
        std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote per-variant metrics document to {path}");
    }
    Ok(())
}

/// `sweep --mitigate <passes>`: the software-mitigation axis. Harden
/// every workload under blanket secret labeling, then price hardware NDA
/// vs software rewriting vs both across all variants, Fig-7 style.
fn cmd_sweep_mitigate(passes: &str, o: &Opts) -> Result<(), String> {
    use nda::analyze::PassSet;
    use nda::bench::{mitigation_sweep, mitigation_table, MitigationConfig};
    let passes = PassSet::parse(passes).map_err(|e| format!("--mitigate: {e}"))?;
    let cfg = MitigationConfig {
        passes,
        samples: o.samples,
        iters: o.iters,
        seed: o.seed,
        jobs: o.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }),
        max_cycles: o.deadline_cycles,
    };
    println!(
        "mitigation sweep, {} samples x {} iters per cell",
        o.samples, o.iters
    );
    let r = mitigation_sweep(all(), &Variant::all(), &cfg);
    print!("{}", mitigation_table(&r, &passes));
    Ok(())
}

fn cmd_save(name: &str, path: &str, o: &Opts) -> Result<(), String> {
    let w = by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let prog = (w.build)(&WorkloadParams {
        seed: o.seed,
        iters: o.iters,
    });
    let bytes = nda::isa::encode_program(&prog);
    std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "wrote {} instructions ({} bytes) to {path}",
        prog.insts.len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_exec(path: &str, o: &Opts) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let prog = nda::isa::decode_program(&bytes).map_err(|e| format!("decode {path}: {e}"))?;
    let r = nda::core::run_variant(o.variant, &prog, MAX_CYCLES).map_err(|e| e.to_string())?;
    println!(
        "{path} on {}: {} cycles, {} instructions, CPI {:.3}",
        o.variant.name(),
        r.stats.cycles,
        r.stats.committed_insts,
        r.cpi()
    );
    Ok(())
}

fn cmd_trace(name: &str, o: &Opts) -> Result<(), String> {
    use nda::core::{render_pipeline, OooCore};
    let k = AttackKind::parse(name).ok_or(format!("unknown attack {name:?}"))?;
    let mut cfg = nda::core::config::SimConfig::for_variant(o.variant);
    k.tweak_config(&mut cfg);
    let program = k.program(o.secret);
    let mut core = OooCore::new(cfg, &program);
    core.enable_trace();
    // Run until the first squash (the first speculation window collapsing),
    // then a little further so the recovery is visible. With --trace-out
    // the run continues to completion so the exported file covers the
    // whole attack, not just the window rendered below.
    let mut first_squash = None;
    for _ in 0..500_000 {
        core.step_cycle();
        if core.halted() {
            break;
        }
        if first_squash.is_none() && core.stats.squashes > 0 {
            first_squash = Some(core.cycle());
        }
        if let Some(t) = first_squash {
            if o.trace_out.is_none() && core.cycle() > t + 60 {
                break;
            }
        }
    }
    let Some(t) = first_squash else {
        return Err("no squash observed (nothing to trace)".into());
    };
    println!(
        "{} on {}: first speculation window (squash at cycle {t})",
        k.name(),
        o.variant.name()
    );
    println!(
        "D dispatch, I issue, C complete, B broadcast, R retire, x squash
"
    );
    print!(
        "{}",
        render_pipeline(
            core.trace_events(),
            Some((t.saturating_sub(60), t + 40)),
            48
        )
    );
    if let Some(path) = &o.trace_out {
        use nda::core::EventSink;
        use nda::trace::{KonataSink, PerfettoSink, TraceFormat};
        let payload = match o.trace_format {
            TraceFormat::Perfetto => {
                let mut sink = PerfettoSink::new();
                for ev in core.trace_events() {
                    sink.event(ev);
                }
                sink.finish();
                sink.into_json()
            }
            TraceFormat::Konata => {
                let mut sink = KonataSink::new();
                for ev in core.trace_events() {
                    sink.event(ev);
                }
                sink.finish();
                sink.into_log()
            }
        };
        std::fs::write(path, &payload).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {} bytes of {:?} trace to {path}",
            payload.len(),
            o.trace_format
        );
    }
    Ok(())
}

/// Resolve an analysis/hardening target: attack name > workload name >
/// encoded file. Attacks carry their secret labeling; workloads and
/// files get an empty labeling (any finding would be a false positive).
fn resolve_target(
    target: &str,
    o: &Opts,
) -> Result<
    (
        nda::Program,
        nda::isa::SecretSpec,
        Option<AttackKind>,
        String,
    ),
    String,
> {
    if let Some(k) = AttackKind::parse(target) {
        return Ok((
            k.program(o.secret),
            k.secret_spec(),
            Some(k),
            k.name().to_string(),
        ));
    }
    if let Some(w) = by_name(target) {
        let p = (w.build)(&WorkloadParams {
            seed: o.seed,
            iters: o.iters,
        });
        return Ok((p, nda::isa::SecretSpec::empty(), None, w.name.to_string()));
    }
    let bytes = std::fs::read(target)
        .map_err(|_| format!("{target:?} is not an attack, a workload, or a readable file"))?;
    let p = nda::isa::decode_program(&bytes).map_err(|e| format!("decode {target}: {e}"))?;
    Ok((p, nda::isa::SecretSpec::empty(), None, target.to_string()))
}

fn cmd_analyze(target: &str, o: &Opts) -> Result<(), String> {
    use nda::analyze::{analyze, AnalyzeConfig};

    let (prog, spec, kind, what) = resolve_target(target, o)?;

    let mut cfg = AnalyzeConfig::default();
    if let Some(w) = o.window {
        cfg.window = w;
    }
    let report = analyze(&prog, &spec, &cfg);

    if o.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "static analysis of {what} ({} instructions, window {}):",
            report.program_len, report.window
        );
        print!("{}", report.render_human());
    }

    if o.validate {
        let mut base_cfg = nda::SimConfig::for_variant(Variant::Ooo);
        let mut strict_cfg = nda::SimConfig::for_variant(Variant::FullProtection);
        if let Some(k) = kind {
            k.tweak_config(&mut base_cfg);
            k.tweak_config(&mut strict_cfg);
        }
        let outcome =
            nda::verify::validate_report(&prog, &report, &base_cfg, &strict_cfg, MAX_CYCLES);
        println!();
        println!("dynamic validation (Base OoO vs Full Protection):");
        if outcome.verdicts.is_empty() {
            println!("  no gadgets reported; nothing to execute");
        }
        for v in &outcome.verdicts {
            match (v.base.confirm_cycle, v.strict) {
                (Some(c), Some(s)) if !s.confirmed() => println!(
                    "  pc {} -> pc {}: CONFIRMED transient leak on Base at cycle {c}; \
                     suppressed under Full Protection ({} cycles run)",
                    v.source_pc, v.sink_pc, s.cycles_run
                ),
                (Some(c), Some(s)) => println!(
                    "  pc {} -> pc {}: LEAKED UNDER FULL PROTECTION (base cycle {c}, \
                     strict cycle {:?})",
                    v.source_pc, v.sink_pc, s.confirm_cycle
                ),
                _ => println!(
                    "  pc {} -> pc {}: no transient transmission observed on Base \
                     ({} cycles, halted: {})",
                    v.source_pc, v.sink_pc, v.base.cycles_run, v.base.halted
                ),
            }
        }
        if outcome.any_confirmed_under_strict() {
            return Err("a reported gadget leaked under Full Protection".into());
        }
    }
    Ok(())
}

fn cmd_harden(target: &str, o: &Opts) -> Result<(), String> {
    use nda::analyze::{harden, AnalyzeConfig, HardenConfig, PassSet};

    let (prog, spec, kind, what) = resolve_target(target, o)?;
    let passes = PassSet::parse(&o.passes).map_err(|e| format!("--passes: {e}"))?;
    let mut acfg = AnalyzeConfig::default();
    if let Some(w) = o.window {
        acfg.window = w;
    }
    let hcfg = HardenConfig {
        passes,
        analyze: acfg,
        ..HardenConfig::default()
    };
    let out = harden(&prog, &spec, &hcfg);

    if o.json {
        println!("{}", out.report.to_json());
    } else {
        println!(
            "hardening {what} (passes: {}): {} -> {} instructions, {} fix(es) in {} round(s)",
            passes.names(),
            prog.insts.len(),
            out.program.insts.len(),
            out.fixes.len(),
            out.rounds
        );
        for f in &out.fixes {
            println!(
                "  round {}: {} at pc {} (gadget pc {} -> pc {})",
                f.round,
                f.pass.name(),
                f.at,
                f.source_pc,
                f.sink_pc
            );
        }
        for r in &out.residual {
            println!(
                "  RESIDUAL: gadget pc {} -> pc {}: {}",
                r.gadget.source_pc, r.gadget.sink_pc, r.reason
            );
        }
        println!(
            "  re-analysis: {} gadget(s) remain",
            out.report.gadgets.len()
        );
    }

    if let Some(path) = &o.out {
        let bytes = nda::isa::encode_program(&out.program);
        std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {} instructions ({} bytes) to {path}",
            out.program.insts.len(),
            bytes.len()
        );
    }

    if o.validate {
        use nda::verify::{equivalent_modulo_reloc, gadgets_dead_on};
        const MAX_STEPS: u64 = 50_000_000;
        let report = nda::analyze::analyze(&prog, &spec, &hcfg.analyze);
        equivalent_modulo_reloc(&prog, &out.program, &out.map, MAX_STEPS)
            .map_err(|e| format!("hardened program is NOT equivalent: {e}"))?;
        println!();
        println!("architectural equivalence modulo relocation: ok");
        let mut cfg = nda::SimConfig::for_variant(Variant::Ooo);
        if let Some(k) = kind {
            k.tweak_config(&mut cfg);
        }
        let verdicts = gadgets_dead_on(&prog, &out, &report, &spec, &cfg, MAX_CYCLES);
        println!("dynamic gadget death on Base OoO:");
        if verdicts.is_empty() {
            println!("  no gadgets reported against the original; nothing to kill");
        }
        let mut alive = 0;
        for v in &verdicts {
            match (v.original_confirm, v.hardened_confirm) {
                (Some(c), None) => println!(
                    "  pc {} -> pc {}: dead ({:?} check; original confirmed at cycle {c})",
                    v.source_pc, v.sink_pc, v.check
                ),
                (Some(c), Some(h)) => {
                    alive += 1;
                    println!(
                        "  pc {} -> pc {}: STILL ALIVE at cycle {h} ({:?} check; \
                         original cycle {c})",
                        v.source_pc, v.sink_pc, v.check
                    );
                }
                (None, _) => println!(
                    "  pc {} -> pc {}: original never confirmed dynamically; skipped",
                    v.source_pc, v.sink_pc
                ),
            }
        }
        if alive > 0 {
            return Err(format!("{alive} gadget(s) survived hardening"));
        }
    }

    if !out.clean() {
        return Err(format!(
            "{} residual gadget(s) — see report above (try more passes?)",
            out.residual.len()
        ));
    }
    Ok(())
}

fn cmd_serve(o: &Opts) -> Result<(), String> {
    use nda::serve::{ServeConfig, Server};
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        shards: o.shards.unwrap_or(defaults.shards),
        jobs: o.jobs.unwrap_or(defaults.jobs),
        deadline_cycles: o.deadline_cycles,
        result_dir: o.result_dir.as_ref().map(std::path::PathBuf::from),
        result_max_bytes: o.result_max_bytes,
        ckpt_dir: o.ckpt_dir.as_ref().map(std::path::PathBuf::from),
        ckpt_max_bytes: o.ckpt_max_bytes,
        ..defaults
    };
    let server = Server::new(cfg).map_err(|e| format!("start server: {e}"))?;
    if o.stdio {
        server
            .serve_stream(
                std::io::BufReader::new(std::io::stdin()),
                std::io::stdout().lock(),
            )
            .map_err(|e| format!("serve stdio: {e}"))?;
        return Ok(());
    }
    let listener =
        std::net::TcpListener::bind(&o.addr).map_err(|e| format!("bind {}: {e}", o.addr))?;
    // Stderr so response-free stdout piping stays clean; the actual
    // port matters when binding :0.
    match listener.local_addr() {
        Ok(a) => eprintln!("nda-serve listening on {a}"),
        Err(_) => eprintln!("nda-serve listening on {}", o.addr),
    }
    server
        .serve_tcp(listener)
        .map_err(|e| format!("serve tcp: {e}"))
}

fn cmd_client(o: &Opts) -> Result<(), String> {
    let text = match &o.input {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?,
        None => std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?,
    };
    let lines: Vec<String> = text.lines().map(String::from).collect();
    let mut out = std::io::stdout().lock();
    let n = nda::serve::client::run_batch(&o.addr, &lines, &mut out)
        .map_err(|e| format!("client {}: {e}", o.addr))?;
    eprintln!("{n} response(s) from {}", o.addr);
    Ok(())
}

fn cmd_verify(o: &Opts) -> Result<(), String> {
    use nda::verify::{run_verify, InjectKind, VerifyConfig};
    let kinds = if o.inject == "none" {
        Vec::new()
    } else {
        InjectKind::parse_list(&o.inject)?
    };
    let cfg = VerifyConfig::new(o.seed, o.iters, &kinds);
    println!(
        "differential verify: {} programs from seed {}, injecting [{}] across all variants",
        o.iters,
        o.seed,
        kinds
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let report = run_verify(&cfg, |done, bad| {
        if done % 25 == 0 || done == o.iters {
            println!("  {done}/{} programs checked, {bad} mismatch(es)", o.iters);
        }
    });
    for m in &report.mismatches {
        println!("MISMATCH: {m}");
    }
    if report.ok() {
        println!(
            "ok: {} programs x {} variants, zero architectural mismatches",
            report.iters, report.variants
        );
        Ok(())
    } else {
        Err(format!(
            "{} architectural mismatch(es)",
            report.mismatches.len()
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: nda-sim <variants|workloads|attacks|run|attack|matrix|sweep|save|exec|trace|verify|analyze|harden|serve|client> [options]"
        );
        eprintln!("(see the module docs at the top of src/bin/nda-sim.rs)");
        return ExitCode::FAILURE;
    };
    let result: Result<(), String> = match cmd {
        "variants" => {
            cmd_variants();
            Ok(())
        }
        "workloads" => {
            cmd_workloads();
            Ok(())
        }
        "attacks" => {
            cmd_attacks();
            Ok(())
        }
        "run" => match args.get(1) {
            Some(name) => parse_opts(&args[2..]).and_then(|o| cmd_run(name, &o)),
            None => Err("run needs a workload name".into()),
        },
        "attack" => match args.get(1) {
            Some(name) => parse_opts(&args[2..]).and_then(|o| cmd_attack(name, &o)),
            None => Err("attack needs an attack name".into()),
        },
        "save" => match (args.get(1), args.get(2)) {
            (Some(name), Some(path)) => {
                parse_opts(&args[3..]).and_then(|o| cmd_save(name, path, &o))
            }
            _ => Err("save needs a workload name and a file path".into()),
        },
        "exec" => match args.get(1) {
            Some(path) => parse_opts(&args[2..]).and_then(|o| cmd_exec(path, &o)),
            None => Err("exec needs a file path".into()),
        },
        "trace" => match args.get(1) {
            Some(name) => parse_opts(&args[2..]).and_then(|o| cmd_trace(name, &o)),
            None => Err("trace needs an attack name".into()),
        },
        "analyze" => match args.get(1) {
            Some(target) => parse_opts(&args[2..]).and_then(|o| cmd_analyze(target, &o)),
            None => Err("analyze needs an attack, workload, or file target".into()),
        },
        "harden" => match args.get(1) {
            Some(target) => parse_opts(&args[2..]).and_then(|o| cmd_harden(target, &o)),
            None => Err("harden needs an attack, workload, or file target".into()),
        },
        "matrix" => parse_opts(&args[1..]).map(|o| cmd_matrix(&o)),
        "sweep" => parse_opts(&args[1..]).and_then(|o| cmd_sweep(&o)),
        "serve" => parse_opts(&args[1..]).and_then(|o| cmd_serve(&o)),
        "client" => parse_opts(&args[1..]).and_then(|o| cmd_client(&o)),
        "verify" => parse_opts(&args[1..]).and_then(|o| cmd_verify(&o)),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
