//! `serve_openloop`: an open-loop, seeded schedule of request lines at a
//! fixed offered rate, sent over loopback TCP to an in-process `Server`
//! with a fresh result store. Small `run`s across kernels and variants,
//! `analyze` of attacks and workloads, and Perfetto/Konata `trace`s;
//! repeats of recent requests make up 40 % of the load, so the median
//! request still reaches a shard. `sweep` is left out: it is a batch job
//! and `fig7_detail` measures it.

use crate::loadgen::{self, Due, Timing};
use crate::spans::Spans;
use crate::stats::{self, mean, median};
use crate::util::{self, fnv64, Rng};
use crate::{timed_setup, Args, Report, DEFAULT_SEED};
use nda_core::Variant;
use nda_isa::Interp;
use nda_serve::json::Json;
use nda_serve::{Engine, ServeConfig, Server};
use nda_stats::serve_names as names;
use nda_workloads::WorkloadParams;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Shard workers and client connections (the host has two cores).
const SHARDS: usize = 2;
const CONNS: usize = 2;
/// Offered load: about 30–38 % of the shards' measured cold capacity
/// (`--make serve-capacity`; see README.md).
pub const RATE_RPS: f64 = 100.0;
/// A request answered `ok` within this many ms, counted from when it was
/// due, meets the latency limit: about 4× the median latency at this
/// rate (~27 ms, most of it queueing on the pipelined connection), so
/// the share missing it is the tail. A limit near the median would move
/// the share with every small shift of the median between runs.
pub const SLO_MS: f64 = 100.0;
/// Workload iterations of `run` and workload `analyze` requests: small,
/// so fixed per-request costs matter. exchange2 does ~30× more work per
/// iteration than the other kernels and gets fewer.
fn run_iters(kernel: &str) -> u64 {
    if kernel == "exchange2" {
        2
    } else {
        30
    }
}
/// Fresh requests per round, plus repeats of the previous round's.
const SINGLE_RUNS: usize = 8;
const REPEATS: usize = 8;

const ANALYZE_ATTACKS: [&str; 8] = [
    "Spectre v1 (cache)",
    "Spectre v4 (SSB)",
    "Meltdown",
    "LazyFP (rdmsr)",
    "Spectre v2 (GPR)",
    "ret2spec (GPR)",
    "NetSpectre (FPU)",
    "SMoTher (ports)",
];
const TRACE_ATTACKS: [&str; 4] = [
    "Spectre v1 (cache)",
    "Spectre v4 (SSB)",
    "Meltdown",
    "ret2spec (GPR)",
];

/// Response-document hashes of the schedule at [`DEFAULT_SEED`], as
/// `<index> <fnv64 hex>` lines (`--make serve-pins`).
const PINS: &str = include_str!("../data/serve_pins.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Analyze,
    Trace,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Item {
    pub due: Duration,
    pub kind: Kind,
    /// The request fields after `"id"`.
    pub body: String,
    /// For a repeat, the schedule index of the request it repeats.
    pub origin: Option<usize>,
    /// For a `run`: the program it simulates (kernel, seed).
    pub program: Option<(&'static str, u64)>,
}

impl Item {
    pub fn line(&self, id: usize) -> String {
        format!("{{\"id\":{id},{}}}", self.body)
    }
}

fn run_body(kernel: &str, variants: &[Variant], seed: u64) -> String {
    let variants = if let [v] = variants {
        format!("\"variant\":{:?}", v.name())
    } else {
        let names: Vec<String> = variants.iter().map(|v| format!("{:?}", v.name())).collect();
        format!("\"variants\":[{}]", names.join(","))
    };
    format!(
        "\"op\":\"run\",\"workload\":{kernel:?},{variants},\"iters\":{},\"seed\":{seed}",
        run_iters(kernel)
    )
}

/// The open-loop schedule of `seed`: the requests due in the first
/// `seconds`. Shorter runs get a prefix of the same schedule.
///
/// Single-variant runs walk a seeded permutation of every (kernel,
/// variant) pair, so each block of 150 covers the grid once and the mix
/// barely varies between seeds; arrivals are evenly paced at
/// [`RATE_RPS`].
pub fn schedule(seed: u64, seconds: f64, rate: f64) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let kernels = nda_workloads::all();
    let variants = Variant::all();
    let mut combos: Vec<usize> = (0..kernels.len() * variants.len()).collect();
    rng.shuffle(&mut combos);
    let mut next_combo = 0;
    let mut items: Vec<Item> = Vec::new();
    let mut prev: Vec<usize> = Vec::new();
    let mut t = 0.0f64;
    for round in 0usize.. {
        let mut round_items: Vec<Item> = Vec::new();
        let mut push = |kind, body, program| {
            round_items.push(Item {
                due: Duration::ZERO,
                kind,
                body,
                origin: None,
                program,
            })
        };
        for _ in 0..SINGLE_RUNS {
            let c = combos[next_combo % combos.len()];
            next_combo += 1;
            let (k, v) = (kernels[c % kernels.len()].name, variants[c / kernels.len()]);
            let s = 1 + rng.below(1_000_000);
            push(Kind::Run, run_body(k, &[v], s), Some((k, s)));
        }
        let k = kernels[round % kernels.len()].name;
        let mut vs = variants.to_vec();
        rng.shuffle(&mut vs);
        let s = 1 + rng.below(1_000_000);
        push(Kind::Run, run_body(k, &vs[..3], s), Some((k, s)));
        let attack = ANALYZE_ATTACKS[round % ANALYZE_ATTACKS.len()];
        let body = format!(
            "\"op\":\"analyze\",\"target\":{attack:?},\"secret\":{}",
            rng.below(256)
        );
        push(Kind::Analyze, body, None);
        let k = kernels[(round + 3) % kernels.len()].name;
        let body = format!(
            "\"op\":\"analyze\",\"target\":{k:?},\"iters\":{},\"seed\":{}",
            run_iters(k),
            1 + rng.below(1_000_000)
        );
        push(Kind::Analyze, body, None);
        let attack = TRACE_ATTACKS[round % TRACE_ATTACKS.len()];
        let ooo: Vec<Variant> = variants
            .iter()
            .copied()
            .filter(|&v| v != Variant::InOrder)
            .collect();
        let v = ooo[rng.below(ooo.len() as u64) as usize];
        let body = format!(
            "\"op\":\"trace\",\"attack\":{attack:?},\"variant\":{:?},\"format\":{:?},\"secret\":{}",
            v.name(),
            ["perfetto", "konata"][round % 2],
            rng.below(256)
        );
        push(Kind::Trace, body, None);
        if !prev.is_empty() {
            for _ in 0..REPEATS {
                let o = prev[rng.below(prev.len() as u64) as usize];
                round_items.push(Item {
                    origin: Some(o),
                    ..items[o].clone()
                });
            }
        }
        rng.shuffle(&mut round_items);
        prev.clear();
        for mut it in round_items {
            // Evenly paced arrivals: Poisson gaps made the tail latency
            // swing by ±30 % between seeds.
            t += 1.0 / rate;
            if t >= seconds {
                return items;
            }
            it.due = Duration::from_secs_f64(t);
            if it.origin.is_none() {
                prev.push(items.len());
            }
            items.push(it);
        }
    }
    items
}

fn dues(items: &[Item]) -> Vec<Due> {
    items
        .iter()
        .enumerate()
        .map(|(i, it)| Due {
            due: it.due,
            line: it.line(i + 1),
        })
        .collect()
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        jobs: 1,
        result_dir: Some(dir.join("results")),
        ..ServeConfig::default()
    }
}

/// Start a server on loopback with a fresh result store under `dir`, run
/// `f` against it, then shut it down and wait for every server thread.
fn with_server<T>(dir: &Path, f: impl FnOnce(SocketAddr, &Server) -> T) -> Result<T, String> {
    let server = Server::new(serve_config(dir)).map_err(|e| format!("start server: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(listener));
        let out = f(addr, &server);
        let stopped = shutdown(addr);
        let served = serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        stopped.and(served.map_err(|e| e.to_string()))?;
        server.engine().shutdown();
        Ok(out)
    })
}

fn shutdown(addr: SocketAddr) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect for shutdown: {e}"))?;
    s.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n")
        .map_err(|e| e.to_string())?;
    let mut ack = String::new();
    BufReader::new(s)
        .read_line(&mut ack)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// A response, parsed after the timed run.
struct Answer {
    ok: bool,
    doc: String,
}

/// Read a response line as `render_response` writes it. Documents reach
/// a megabyte, so the string is scanned directly rather than through the
/// request-side JSON reader.
fn parse_answer(line: &str) -> Answer {
    let head = line.get(..line.len().min(256)).unwrap_or(line);
    Answer {
        ok: head.contains(",\"ok\":true,"),
        doc: line
            .find(",\"document\":\"")
            .and_then(|at| unescape(&line[at + 13..]))
            .unwrap_or_default(),
    }
}

/// Decode the JSON string starting just after its opening quote.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let mut cp = u32::from_str_radix(&hex, 16).ok()?;
                    if (0xd800..0xdc00).contains(&cp) {
                        let low: String = chars.by_ref().skip(2).take(4).collect();
                        let low = u32::from_str_radix(&low, 16).ok()?;
                        cp = 0x10000 + ((cp - 0xd800) << 10) + (low.checked_sub(0xdc00)?);
                    }
                    out.push(char::from_u32(cp)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

fn counter(doc: &Json, name: &str) -> Option<u64> {
    doc.get("counters")?.get(name)?.as_u64()
}

/// The metrics registries inside a `run` document: the document itself
/// for one variant, each entry's `metrics` for the wrapped form.
fn run_registries(doc: &Json) -> Vec<Option<&Json>> {
    match doc.get("variants").and_then(Json::as_array) {
        Some(vs) => vs.iter().map(|v| v.get("metrics")).collect(),
        None => vec![Some(doc)],
    }
}

/// Final (halted, retired) of each scheduled `run` program on the
/// reference interpreter.
type Refs = HashMap<(&'static str, u64), (bool, u64)>;

fn interp_refs(items: &[Item]) -> Refs {
    let mut refs = Refs::new();
    for &(k, seed) in items.iter().filter_map(|it| it.program.as_ref()) {
        refs.entry((k, seed)).or_insert_with(|| {
            let w = nda_workloads::by_name(k).expect("scheduled kernel exists");
            let mut r = Interp::new(&(w.build)(&WorkloadParams {
                seed,
                iters: run_iters(k),
            }));
            let _ = r.run(100_000_000);
            (r.halted(), r.retired())
        });
    }
    refs
}

/// Check every response; returns the simulated cycles the `run`
/// responses delivered.
fn check_answers(
    args: Args,
    items: &[Item],
    refs: &Refs,
    answers: &[Answer],
    report: &mut Report,
) -> u64 {
    let pins: Vec<&str> = PINS
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1))
        .collect();
    let mut cycles = 0u64;
    for (i, (it, a)) in items.iter().zip(answers).enumerate() {
        report.check(a.ok, || format!("request {i} ({}) failed", it.line(i + 1)));
        let hash = format!("{:016x}", fnv64(a.doc.as_bytes()));
        if args.seed == DEFAULT_SEED && i < pins.len() {
            report.check(pins[i] == hash, || {
                format!("request {i}: document hash {hash} != pinned {}", pins[i])
            });
        }
        if let Some(o) = it.origin {
            report.check(answers[o].doc == a.doc, || {
                format!("request {i} repeats {o} but its document differs")
            });
        }
        let Some((k, seed)) = it.program else {
            continue;
        };
        let (halted, retired) = refs[&(k, seed)];
        let Ok(doc) = Json::parse(&a.doc) else {
            report.check(false, || {
                format!("request {i}: run document does not parse")
            });
            continue;
        };
        for reg in run_registries(&doc) {
            let got = reg.map(|r| (counter(r, "run.halted"), counter(r, "sim.committed_insts")));
            report.check(halted && got == Some((Some(1), Some(retired))), || {
                format!("request {i}: run of {k} seed {seed} does not match the interpreter")
            });
            cycles += reg.and_then(|r| counter(r, "sim.cycles")).unwrap_or(0);
        }
    }
    cycles
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency of each request from its due time, in ms (`None` if it never
/// got a response).
fn latencies(items: &[Item], timings: &[Timing]) -> Vec<Option<f64>> {
    items
        .iter()
        .zip(timings)
        .map(|(it, t)| t.done.map(|d| ms(d.saturating_sub(it.due))))
        .collect()
}

pub fn run(args: Args, report: &mut Report) -> Result<(), String> {
    // Set-up: generate the schedule, run each scheduled program on the
    // reference interpreter, and start (and stop) a server.
    let make = || {
        let items = schedule(args.seed, args.seconds, RATE_RPS);
        let refs = interp_refs(&items);
        let dir = util::fresh_dir("serve-setup");
        let started = with_server(&dir, |_, _| ());
        util::measure_and_remove(&dir);
        started.map(|()| (items, refs))
    };
    let (mut host, (items, refs)) = timed_setup(make)?;
    let schedule_lines = dues(&items);

    let dir = util::fresh_dir("serve");
    let ran = with_server(&dir, |addr, server| {
        let cpu = util::cpu_seconds();
        // Timed on `host` so that a probe burst follows the schedule, just
        // before the late set-ups.
        let (_, _, timings) = host.timed(|| loadgen::drive_tcp(addr, &schedule_lines, CONNS));
        let busy_s = util::cpu_seconds() - cpu;
        let e = server.engine();
        let c: HashMap<&str, u64> = [
            names::REQUESTS,
            names::CACHE_HITS,
            names::STORE_HITS,
            names::DEDUP_ATTACHED,
            names::SIMS_EXECUTED,
            names::JOBS_FAILED,
        ]
        .into_iter()
        .map(|n| (n, e.counter(n)))
        .collect();
        timings.map(|t| (t, c, busy_s))
    });
    let store_mb = util::measure_and_remove(&dir);
    let (timings, counters, busy_s) = ran?.map_err(|e| format!("load generator: {e}"))?;

    let answers: Vec<Answer> = timings.iter().map(|t| parse_answer(&t.response)).collect();
    let cycles = check_answers(args, &items, &refs, &answers, report);
    let lat = latencies(&items, &timings);
    let done: Vec<f64> = lat.iter().flatten().copied().collect();
    let wall = timings
        .iter()
        .filter_map(|t| t.done)
        .max()
        .map_or(0.0, |d| d.as_secs_f64());
    let within = lat
        .iter()
        .zip(&answers)
        .filter(|(l, a)| a.ok && l.is_some_and(|l| l <= SLO_MS))
        .count();
    let tail = stats::tail(&done, stats::TAIL_CAP).ok_or("too few responses for a tail")?;
    let p99 = stats::tail(&done, 99).ok_or("too few responses for a tail")?;
    if !args.trace {
        report.set("setup_s", host.finish(make)?.setup_s);
    }
    // Only the set-ups are scaled to the reference host (`probe.rs`): no
    // probe can run inside the schedule, and scaling the serve figures by
    // the bursts around it made them less steady, not more (README.md).
    // The open loop fixes `wall_s` to the schedule's length unless the
    // server falls seconds behind; simulated cycles are divided by the
    // CPU time the process spent serving, which follows program speed.
    report.set("wall_s", wall);
    report.set("sim_cycles_per_s", cycles as f64 / busy_s.max(1e-9));
    report.set("store_mb", store_mb);
    report.set("p50_ms", median(&done));
    report.set("tail_ms", tail.value);
    report.set("slo_ok_frac", within as f64 / items.len().max(1) as f64);
    let repeats = items.iter().filter(|i| i.origin.is_some()).count();
    eprintln!(
        "serve_openloop: {} requests ({repeats} repeats) at {RATE_RPS} req/s over {wall:.2} s, \
         {busy_s:.2} CPU s; p50 {:.2} ms, tail_ms is p{:.1} of {} = {:.2} ms, p{:.1} = {:.2} ms; \
         {within} within {SLO_MS} ms",
        items.len(),
        median(&done),
        tail.percentile,
        tail.samples,
        tail.value,
        p99.percentile,
        p99.value
    );

    if args.trace {
        traced(args, report, &items, &schedule_lines, &timings, &counters)?;
    }
    Ok(())
}

/// Run the schedule straight into a fresh in-process engine.
fn in_process(schedule: &[Due], sp: &Spans) -> Result<Vec<Timing>, String> {
    let dir = util::fresh_dir("serve-engine");
    let engine = Engine::new(serve_config(&dir)).map_err(|e| e.to_string());
    let timings = engine.map(|e| {
        let t = loadgen::drive_engine(&e, schedule, CONNS, sp);
        e.shutdown();
        t
    });
    util::measure_and_remove(&dir);
    timings
}

fn traced(
    args: Args,
    report: &mut Report,
    items: &[Item],
    schedule: &[Due],
    tcp: &[Timing],
    c: &HashMap<&str, u64>,
) -> Result<(), String> {
    let cpu = util::cpu_seconds();
    let untraced = in_process(schedule, &Spans::new(false))?;
    let plain_cpu = util::cpu_seconds() - cpu;
    let sp = Spans::new(true);
    let cpu = util::cpu_seconds();
    let traced = in_process(schedule, &sp)?;
    let traced_cpu = util::cpu_seconds() - cpu;
    let spans = sp.finish();
    for (i, (a, b)) in untraced.iter().zip(&traced).enumerate() {
        let (a, b) = (parse_answer(&a.response), parse_answer(&b.response));
        let want = parse_answer(&tcp[i].response);
        report.check(
            a.ok && b.ok && a.doc == want.doc && b.doc == want.doc,
            || format!("request {i}: in-process documents differ from the TCP run"),
        );
    }
    let e2e = |t: &[Timing]| {
        mean(
            &latencies(items, t)
                .into_iter()
                .flatten()
                .collect::<Vec<_>>(),
        )
    };
    let (tcp_ms, plain_ms, traced_ms) = (e2e(tcp), e2e(&untraced), e2e(&traced));

    let n = items.len();
    let mut per_req = vec![[0.0f64; 4]; n];
    for s in &spans {
        let slot = match s.name.as_str() {
            "serve.parse" => 0,
            "serve.submit" => 1,
            "serve.wait" => 2,
            "serve.render" => 3,
            _ => continue,
        };
        per_req[s.group as usize][slot] += s.dur_ns() as f64 / 1e6;
    }
    let col = |k: usize| mean(&per_req.iter().map(|r| r[k]).collect::<Vec<_>>());
    report.set("serve.parse_us", col(0) * 1e3);
    report.set("serve.submit_us", col(1) * 1e3);
    report.set("serve.wait_ms", col(2));
    report.set("serve.render_us", col(3) * 1e3);
    let engine_ms = col(0) + col(1) + col(2) + col(3);
    report.set("serve.transport_ms", tcp_ms - engine_ms);
    let bytes: usize = tcp.iter().map(|t| t.response.len() + 1).sum();
    report.set("serve.response_mb", bytes as f64 / 1e6);
    let service = |f: &dyn Fn(&Item) -> bool| {
        let v: Vec<f64> = items
            .iter()
            .zip(&per_req)
            .filter(|(it, _)| f(it))
            .map(|(_, r)| r[1] + r[2])
            .collect();
        median(&v)
    };
    report.set(
        "serve.op.run.p50_ms",
        service(&|i| i.origin.is_none() && i.kind == Kind::Run),
    );
    report.set(
        "serve.op.analyze.p50_ms",
        service(&|i| i.origin.is_none() && i.kind == Kind::Analyze),
    );
    report.set(
        "serve.op.trace.p50_ms",
        service(&|i| i.origin.is_none() && i.kind == Kind::Trace),
    );
    report.set("serve.op.cached.p50_ms", service(&|i| i.origin.is_some()));
    let get = |n: &str| c.get(n).copied().unwrap_or(0) as f64;
    report.set("serve.cache_hits", get(names::CACHE_HITS));
    report.set("serve.store_hits", get(names::STORE_HITS));
    report.set("serve.dedup_attached", get(names::DEDUP_ATTACHED));
    report.set("serve.sims_executed", get(names::SIMS_EXECUTED));
    report.set("serve.jobs_failed", get(names::JOBS_FAILED));
    report.set(
        "serve.reuse_frac",
        (get(names::CACHE_HITS) + get(names::DEDUP_ATTACHED)) / get(names::REQUESTS).max(1.0),
    );
    let late: Vec<f64> = items
        .iter()
        .zip(tcp)
        .map(|(it, t)| ms(t.sent.saturating_sub(it.due)))
        .collect();
    report.set(
        "loadgen.late_p99_ms",
        stats::tail(&late, 99).map_or(0.0, |t| t.value),
    );
    let last_due = items.last().map_or(0.0, |i| i.due.as_secs_f64());
    report.set("loadgen.offered_rps", n as f64 / last_due.max(1e-9));
    let wall = tcp
        .iter()
        .filter_map(|t| t.done)
        .max()
        .map_or(0.0, |d| d.as_secs_f64());
    report.set("loadgen.achieved_rps", n as f64 / wall.max(1e-9));
    report.set("trace_overhead_pct", (traced_cpu / plain_cpu - 1.0) * 100.0);
    eprintln!(
        "serve_openloop traced: mean latency {tcp_ms:.3} ms over TCP, {plain_ms:.3} ms in \
         process, {traced_ms:.3} ms in process traced; engine spans {engine_ms:.3} ms"
    );
    crate::write_trace("serve_openloop", args.seed, &spans);
    Ok(())
}

pub fn print_pins(args: Args) -> Result<(), String> {
    let items = schedule(DEFAULT_SEED, args.seconds, RATE_RPS);
    let timings = in_process(&dues(&items), &Spans::new(false))?;
    for (i, t) in timings.iter().enumerate() {
        let a = parse_answer(&t.response);
        if !a.ok {
            return Err(format!("request {i} failed: {}", t.response));
        }
        println!("{i} {:016x}", fnv64(a.doc.as_bytes()));
    }
    Ok(())
}

/// Measure cold capacity — every request of the schedule queued at once
/// — on the shards alone (in process) and through the TCP transport, and
/// the median service time of a cold single-variant `run` (one at a
/// time).
pub fn print_capacity(args: Args) -> Result<(), String> {
    let items = schedule(args.seed, args.seconds, RATE_RPS);
    let mut all_due: Vec<Due> = dues(&items);
    for d in &mut all_due {
        d.due = Duration::ZERO;
    }
    let t = Instant::now();
    let timings = in_process(&all_due, &Spans::new(false))?;
    let wall = t.elapsed().as_secs_f64();
    let failed = timings
        .iter()
        .filter(|t| !parse_answer(&t.response).ok)
        .count();
    println!(
        "shard capacity: {} requests in {wall:.3} s = {:.1} req/s on {SHARDS} shards ({failed} failed)",
        items.len(),
        items.len() as f64 / wall
    );
    let dir = util::fresh_dir("serve-capacity-tcp");
    let t = Instant::now();
    let tcp = with_server(&dir, |addr, _| loadgen::drive_tcp(addr, &all_due, CONNS));
    let wall = t.elapsed().as_secs_f64();
    util::measure_and_remove(&dir);
    tcp?.map_err(|e| e.to_string())?;
    println!(
        "TCP capacity: {} requests in {wall:.3} s = {:.1} req/s over {CONNS} connections",
        items.len(),
        items.len() as f64 / wall
    );
    let dir = util::fresh_dir("serve-capacity");
    let engine = Engine::new(serve_config(&dir)).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for (i, it) in items.iter().enumerate().take(400) {
        if it.kind == Kind::Run && it.origin.is_none() && !it.body.contains("\"variants\"") {
            let op = nda_serve::Request::parse(&it.line(i + 1))?.op;
            let t = Instant::now();
            engine.submit(op).wait();
            runs.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    engine.shutdown();
    util::measure_and_remove(&dir);
    println!(
        "cold single-variant run: median {:.2} ms, mean {:.2} ms over {}",
        median(&runs),
        mean(&runs),
        runs.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_read_back_exactly() {
        let doc = "{\"a\":\"x\\ny\"}\t\u{1}é😀";
        let o = nda_serve::Outcome {
            ok: true,
            cached: false,
            document: doc.to_string(),
            error: None,
        };
        let a = parse_answer(&nda_serve::render_response(9, "run", &o));
        assert!(a.ok);
        assert_eq!(a.doc, doc);
        let failed = nda_serve::Outcome {
            ok: false,
            error: Some("boom".into()),
            ..o
        };
        assert!(!parse_answer(&nda_serve::render_response(9, "run", &failed)).ok);
    }

    #[test]
    fn the_schedule_is_reproducible_from_its_seed() {
        let a = schedule(7, 5.0, RATE_RPS);
        let b = schedule(7, 5.0, RATE_RPS);
        let c = schedule(8, 5.0, RATE_RPS);
        let lines = |s: &[Item]| {
            s.iter()
                .enumerate()
                .map(|(i, it)| (it.due, it.line(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        // A shorter run gets a prefix of the same schedule.
        let short = schedule(7, 2.0, RATE_RPS);
        assert_eq!(lines(&short), lines(&a)[..short.len()]);
    }

    #[test]
    fn every_scheduled_line_parses_and_repeats_point_backwards() {
        let s = schedule(3, 10.0, RATE_RPS);
        assert!(s.len() > 500);
        let mut repeats = 0;
        for (i, it) in s.iter().enumerate() {
            nda_serve::Request::parse(&it.line(i + 1))
                .unwrap_or_else(|e| panic!("{e}: {}", it.line(i)));
            if let Some(o) = it.origin {
                repeats += 1;
                assert!(o < i && s[o].origin.is_none());
                assert_eq!(s[o].body, it.body);
            }
        }
        // Repeats stay under half, so the median request reaches a shard.
        assert!(repeats * 2 < s.len(), "{repeats} of {}", s.len());
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
