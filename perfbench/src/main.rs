//! The simulator's benchmark: one command that runs a named workload,
//! checks the simulated outputs, and prints every end-to-end metric (or,
//! with `--trace 1`, every per-layer metric) as the last line of stdout.
//!
//! ```text
//! perfbench --workload <fig7_detail|sampled_store|serve_openloop>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --make <fig7-pins|serve-pins|sampled-reference|serve-capacity>
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the layer → end-to-end map.

mod fig7;
mod loadgen;
mod probe;
mod sampled;
mod serve;
mod spans;
mod stats;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The seed the pinned outputs were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups timed before a workload's measurement, and after it.
const SETUP_REPS: usize = 3;
const LATE_SETUP_REPS: usize = 2;

/// Set-up times and host-speed probes of one run. The host switches
/// between a fast state and ones up to ~1.7× slower, in spells from a
/// second to half an hour long, so every timed part of a run — each
/// set-up, each part of the measurement — is followed by a burst of
/// probes and divided by the mean slowdown of the bursts just before and
/// just after it (`probe.rs`). Set-ups are timed before, during (between
/// parts of) and after the measurement, and `setup_s` is their median.
pub struct Host {
    /// Each set-up's time, divided by the slowdown around it.
    setups: Vec<f64>,
    probe: probe::Probe,
    /// The slowdown the latest burst measured.
    last: f64,
}

/// What [`Host::finish`] found.
pub struct HostSummary {
    /// The median set-up time, in seconds on the reference host.
    pub setup_s: f64,
    /// The mean slowdown over the run.
    pub slowdown: f64,
}

/// Run a workload's set-up once untimed, then [`SETUP_REPS`] times;
/// returns the host record and the last set-up's product.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(Host, T), String> {
    // The untimed round absorbs the new process's page faults.
    setup()?;
    let mut host = Host::start();
    let made = host
        .time_setups(SETUP_REPS, &mut setup)?
        .expect("at least one set-up");
    Ok((host, made))
}

impl Host {
    /// A record whose first probe burst is timed now.
    pub fn start() -> Host {
        let mut probe = probe::Probe::default();
        let last = probe.sample();
        Host {
            setups: Vec::new(),
            probe,
            last,
        }
    }

    /// Run one part of the measurement; returns its host time in seconds
    /// as measured, the slowdown to divide host times inside it by, and
    /// its product.
    pub fn timed<T>(&mut self, part: impl FnOnce() -> T) -> (f64, f64, T) {
        let t = std::time::Instant::now();
        let made = part();
        let s = t.elapsed().as_secs_f64();
        let before = self.last;
        self.last = self.probe.sample();
        (s, (before + self.last) / 2.0, made)
    }

    fn time_setups<T>(
        &mut self,
        reps: usize,
        setup: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for _ in 0..reps {
            let (s, slow, made) = self.timed(&mut *setup);
            self.setups.push(s / slow);
            last = Some(made?);
        }
        Ok(last)
    }

    /// Time one more set-up between two parts of the measurement.
    pub fn between<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        self.time_setups(1, &mut setup).map(drop)
    }

    /// Time [`LATE_SETUP_REPS`] more set-ups after the measurement; return
    /// the median of all of them and the mean slowdown over the run.
    pub fn finish<T>(
        mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<HostSummary, String> {
        self.time_setups(LATE_SETUP_REPS, &mut setup)?;
        let ms: Vec<String> = self
            .setups
            .iter()
            .map(|s| format!("{:.0}", s * 1e3))
            .collect();
        let slow: Vec<String> = self
            .probe
            .bursts()
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect();
        eprintln!(
            "set-up times in order, scaled: {} ms; host slowdown by probe burst: {}",
            ms.join(" "),
            slow.join(" ")
        );
        Ok(HostSummary {
            setup_s: stats::median(&self.setups),
            slowdown: self.probe.slowdown(),
        })
    }
}

/// Passes of a fixed job list that fill `seconds` at the job list's
/// nominal duration on the reference host. Fixed per `seconds`, so every
/// run of a workload reports order statistics over the same sample count.
pub fn passes(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).round() as usize).max(1)
}

/// End-to-end metrics: every workload reports all of them untraced.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("store_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("slo_ok_frac", "frac"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics: every traced run reports all of them; those a
/// workload does not exercise read 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| m.push((n.to_string(), u));
    for v in nda_core::Variant::all() {
        add(&format!("core.{}.host_s", util::slug(v)), "s");
        add(&format!("core.{}.ns_per_cycle", util::slug(v)), "ns");
    }
    for k in nda_workloads::all() {
        add(&format!("kernel.{}.host_s", k.name), "s");
    }
    for (n, u) in [
        ("core.new_ms", "ms"),
        ("executor.busy_frac", "frac"),
        ("sim.cycles", "count"),
        ("sim.committed_insts", "count"),
        ("sim.wrong_path_insts", "count"),
        ("sim.squashes", "count"),
        ("sim.deferred_broadcasts", "count"),
        ("mem.l1d_misses", "count"),
        ("mem.l2_misses", "count"),
        ("sim.useful_frac", "frac"),
        ("ff.host_s", "s"),
        ("ff.ns_per_inst", "ns"),
        ("ckpt_store.save_s", "s"),
        ("ckpt_store.load_s", "s"),
        ("ckpt_store.save_mb_per_s", "MB/s"),
        ("ckpt_store.load_mb_per_s", "MB/s"),
        ("ckpt_store.hits", "count"),
        ("ckpt_store.misses", "count"),
        ("window.restore_s", "s"),
        ("window.step_s", "s"),
        ("window.count", "count"),
    ] {
        add(n, u);
    }
    for v in sampled::VARIANTS {
        add(&format!("window.{}.host_s", util::slug(v)), "s");
    }
    for (n, u) in [
        ("journal.write_s", "s"),
        ("journal.resume_s", "s"),
        ("journal.records", "count"),
        ("pass.cold_s", "s"),
        ("pass.warm_s", "s"),
        ("pass.unattributed_s", "s"),
        ("sampled.cpi_err_pct", "%"),
        ("serve.op.run.p50_ms", "ms"),
        ("serve.op.analyze.p50_ms", "ms"),
        ("serve.op.trace.p50_ms", "ms"),
        ("serve.op.cached.p50_ms", "ms"),
        ("serve.parse_us", "us"),
        ("serve.submit_us", "us"),
        ("serve.wait_ms", "ms"),
        ("serve.render_us", "us"),
        ("serve.transport_ms", "ms"),
        ("serve.response_mb", "MB"),
        ("serve.cache_hits", "count"),
        ("serve.store_hits", "count"),
        ("serve.dedup_attached", "count"),
        ("serve.sims_executed", "count"),
        ("serve.jobs_failed", "count"),
        ("serve.reuse_frac", "frac"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.offered_rps", "1/s"),
        ("loadgen.achieved_rps", "1/s"),
        ("trace_overhead_pct", "%"),
    ] {
        add(n, u);
    }
    m
}

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload found: output checks and measured values.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Count one output check; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// The result line: every metric of the run's kind, in catalog order.
    fn json(&self, trace: bool) -> Result<String, String> {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let value = match self.metrics.get(&name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                nda_stats::escape_json(&name),
                nda_stats::escape_json(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(",")
        ))
    }
}

/// Write a traced run's spans as Chrome-trace JSON under the output
/// directory, and print the self time per span name.
pub fn write_trace(workload: &str, seed: u64, spans: &[spans::Span]) {
    let path =
        std::path::Path::new(util::OUT_DIR).join(format!("{workload}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(util::OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(spans)));
    match written {
        Ok(()) => eprintln!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    for (name, s) in spans::self_times(spans) {
        eprintln!("  self {name:<24} {s:>10.4} s");
    }
}

fn parse_args(argv: &[String]) -> Result<(Option<String>, Option<String>, Args), String> {
    let mut workload = None;
    let mut make = None;
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--make" => make = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload, make, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, make, args) = match parse_args(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(what) = make {
        let made = match what.as_str() {
            "fig7-pins" => fig7::print_pins(),
            "serve-pins" => serve::print_pins(args),
            "sampled-reference" => sampled::print_reference(),
            "serve-capacity" => serve::print_capacity(args),
            other => Err(format!("unknown --make target {other:?}")),
        };
        return match made {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut report = Report::default();
    let ran = match workload.as_deref() {
        Some("fig7_detail") => fig7::run(args, &mut report),
        Some("sampled_store") => sampled::run(args, &mut report),
        Some("serve_openloop") => serve::run(args, &mut report),
        Some(other) => Err(format!("unknown workload {other:?}")),
        None => Err("--workload is required".into()),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if !args.trace {
        report.set("peak_rss_mb", util::peak_rss_mb());
        report.set(
            "ok_frac",
            (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        );
    }
    match report.json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n:?}");
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        use nda_serve::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let j = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn variant_slugs_are_unique_and_as_documented() {
        let slugs: Vec<String> = nda_core::Variant::all()
            .into_iter()
            .map(util::slug)
            .collect();
        assert_eq!(
            slugs,
            [
                "ooo",
                "permissive",
                "permissive-br",
                "strict",
                "strict-br",
                "restricted-loads",
                "full-protection",
                "in-order",
                "invisispec-spectre",
                "invisispec-future",
                "delay-on-miss",
                "stt-spectre",
                "stt-futuristic",
                "shadowbinding-eager",
                "shadowbinding-lazy",
            ]
        );
        let unique: std::collections::HashSet<_> = slugs.iter().collect();
        assert_eq!(unique.len(), slugs.len());
    }

    #[test]
    fn untraced_result_needs_every_end_to_end_metric() {
        let mut r = Report::default();
        r.check(true, String::new);
        assert!(r.json(false).is_err());
        for (n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        let line = r.json(false).unwrap();
        let j = nda_serve::json::Json::parse(&line).unwrap();
        assert_eq!(j.get("correct").and_then(|c| c.as_bool()), Some(true));
        let m = j.get("metrics").unwrap();
        assert!(m.get("tail_ms").and_then(|v| v.get("unit")).is_some());
        // A traced result fills what the workload did not exercise with 0.
        assert!(r.json(true).unwrap().contains("\"serve.cache_hits\""));
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "mismatch".into());
        for (n, _) in END_TO_END {
            r.set(n, 1.0);
        }
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
    }
}
