//! The request engine: sharded worker pools, in-flight deduplication
//! and two layers of content-addressed result caching.
//!
//! ## Shape
//!
//! ```text
//! submit(op) ──key──▶ memo? ──hit──▶ Ready(outcome, cached=true)
//!     │ miss
//!     ├──▶ inflight? ──yes──▶ attach waiter (dedup; no new job)
//!     │ no
//!     └──▶ enqueue on shard (key.hash % shards) ──▶ worker executes
//!              run cells: result store? ──hit──▶ skip the simulation
//!                                       └─miss─▶ simulate, store, publish
//! ```
//!
//! * **Memo** — an in-memory map from request key material to the
//!   finished [`Outcome`] (the full response payload). Hits never touch
//!   a queue. Bounded; evicted wholesale past the cap (recomputation is
//!   deterministic, so eviction can never change response bytes).
//! * **In-flight dedup** — while a key is being computed, further
//!   submissions of the same key attach to the owner's job. N
//!   concurrent identical requests execute exactly one simulation and
//!   all N receive byte-identical responses. A waiter that disconnects
//!   mid-flight just drops its receiver; publishing ignores it.
//! * **Shards** — each shard is one queue + one persistent worker
//!   thread; jobs land on `hash % shards`, so repeated and related keys
//!   are cache-affine to one worker instead of bouncing across the
//!   pool. Multi-variant `run` requests fan their cells across the
//!   PR 2 sweep executor ([`nda_bench::execute_jobs`]) inside the
//!   owning shard.
//! * **Result store** — finished run cells are persisted via
//!   [`nda_core::ResultStore`], content-addressed by the same
//!   hash+verbatim-material discipline as the checkpoint store, so a
//!   restarted server answers repeat runs without simulating.
//! * **Fault isolation** — every job (and every run cell) runs under
//!   `catch_unwind`; failures degrade to the [`JobError`] taxonomy on
//!   that one response. Budgets are enforced by the forward-progress
//!   watchdog via the per-request cycle limit, clamped to the
//!   server-wide [`ServeConfig::deadline_cycles`].

use crate::protocol::{AnalyzeSpec, Op, RunSpec, SweepSpec, TraceSpec};
use nda_attacks::AttackKind;
use nda_bench::{
    execute_jobs, metrics_document, panic_message, silence_contained_panics, sweep, Chaos,
    JobError, SweepConfig, SweepMode,
};
use nda_core::{
    collect_checkpoints_cached, run_sampled_with, run_variant, sanitize_result, CheckpointStore,
    OooCore, ResultKey, ResultStore, RunResult, SampledParams, SimConfig, SimError, Variant,
};
use nda_stats::serve_names as names;
use nda_stats::{escape_json, Hist, MetricsRegistry};
use nda_trace::{KonataSink, PerfettoSink, TraceFormat};
use nda_workloads::{by_name, Workload, WorkloadParams};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Engine configuration. `Default` matches the CLI: one worker per
/// host core, serial cells within a request, the CLI cycle budget, no
/// persistence.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard worker threads (≥ 1). Jobs land on `key.hash % shards`.
    pub shards: usize,
    /// Worker threads a single multi-variant run or sweep job may fan
    /// out to (≥ 1). These nest inside the owning shard worker.
    pub jobs: usize,
    /// Server-wide cycle-budget ceiling; per-request budgets are
    /// clamped to it before the watchdog enforces them.
    pub deadline_cycles: u64,
    /// Persistent result store directory (`None` = memo only).
    pub result_dir: Option<PathBuf>,
    /// Size cap for the result store (oldest-first GC past it).
    pub result_max_bytes: Option<u64>,
    /// Persistent checkpoint store for sampled runs.
    pub ckpt_dir: Option<PathBuf>,
    /// Size cap for the checkpoint store.
    pub ckpt_max_bytes: Option<u64>,
    /// Memo entries kept before wholesale eviction.
    pub memo_max: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: host_parallelism(),
            jobs: 1,
            deadline_cycles: crate::protocol::DEFAULT_BUDGET,
            result_dir: None,
            result_max_bytes: None,
            ckpt_dir: None,
            ckpt_max_bytes: None,
            memo_max: 4_096,
        }
    }
}

/// A finished response payload. `cached` is outcome-level: `true`
/// means no detailed simulation ran to produce it (memo hit, or every
/// run cell came from the persistent store) — every waiter attached to
/// the same job sees the same flag, so dedup responses stay
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `false` turns the response into an error line.
    pub ok: bool,
    /// Served without executing a simulation.
    pub cached: bool,
    /// The payload document (empty = omitted from the response).
    pub document: String,
    /// Error text (`<kind>: <detail>` for job failures).
    pub error: Option<String>,
}

impl Outcome {
    fn fail(error: String) -> Outcome {
        Outcome {
            ok: false,
            cached: false,
            document: String::new(),
            error: Some(error),
        }
    }
}

/// Render one response line (no trailing newline).
pub fn render_response(id: u64, op: &str, o: &Outcome) -> String {
    let mut line = format!(
        "{{\"id\":{id},\"op\":{},\"ok\":{},\"cached\":{}",
        escape_json(op),
        o.ok,
        o.cached
    );
    if let Some(e) = &o.error {
        line.push_str(",\"error\":");
        line.push_str(&escape_json(e));
    }
    if !o.document.is_empty() {
        line.push_str(",\"document\":");
        line.push_str(&escape_json(&o.document));
    }
    line.push('}');
    line
}

/// A response that may still be in flight; [`Pending::wait`] blocks
/// until the owning job publishes. Dropping a pending waiter is safe
/// at any point — the job continues for the other waiters.
pub enum Pending {
    /// Answered at submit time (memo hit, stats, validation error).
    Ready(Arc<Outcome>),
    /// Waiting on the owning job.
    Waiting(mpsc::Receiver<Arc<Outcome>>),
}

impl Pending {
    /// Block until the outcome is available.
    pub fn wait(self) -> Arc<Outcome> {
        match self {
            Pending::Ready(o) => o,
            Pending::Waiting(rx) => rx.recv().unwrap_or_else(|_| {
                Arc::new(Outcome::fail(
                    "io: engine shut down before the job published".into(),
                ))
            }),
        }
    }
}

struct Job {
    key: ResultKey,
    op: Op,
}

#[derive(Default)]
struct CacheMaps {
    /// Request key material → finished outcome (with `cached: true`).
    memo: HashMap<Vec<u8>, Arc<Outcome>>,
    /// Request key material → waiters of the in-flight owner job.
    inflight: HashMap<Vec<u8>, Vec<mpsc::Sender<Arc<Outcome>>>>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    store_hits: AtomicU64,
    dedup_attached: AtomicU64,
    jobs_executed: AtomicU64,
    sims_executed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_panicked: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    caches: Mutex<CacheMaps>,
    store: Option<ResultStore>,
    ckpt: Option<CheckpointStore>,
    c: Counters,
    shard_jobs: Vec<AtomicU64>,
    latency_us: Mutex<Hist>,
}

/// The request engine. Cheap to share (`Arc`); [`Engine::submit`] is
/// safe from any number of threads.
pub struct Engine {
    shared: Arc<Shared>,
    queues: Mutex<Vec<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Open the stores and start the shard workers.
    pub fn new(cfg: ServeConfig) -> std::io::Result<Engine> {
        // Chaos panics inside sweep jobs are contained and reported as
        // degraded cells; keep their banners off the server's stderr.
        silence_contained_panics();
        let cfg = ServeConfig {
            shards: cfg.shards.max(1),
            jobs: cfg.jobs.max(1),
            ..cfg
        };
        let store = match &cfg.result_dir {
            Some(dir) => Some(ResultStore::open(dir)?.with_max_bytes(cfg.result_max_bytes)),
            None => None,
        };
        let ckpt = match &cfg.ckpt_dir {
            Some(dir) => Some(CheckpointStore::open(dir)?.with_max_bytes(cfg.ckpt_max_bytes)),
            None => None,
        };
        let shards = cfg.shards;
        let shared = Arc::new(Shared {
            cfg,
            caches: Mutex::new(CacheMaps::default()),
            store,
            ckpt,
            c: Counters::default(),
            shard_jobs: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            latency_us: Mutex::new(Hist::new()),
        });
        let mut queues = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for n in 0..shards {
            let (tx, rx) = mpsc::channel::<Job>();
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("nda-serve-shard-{n}"))
                .spawn(move || worker_loop(&shared, n, rx))
                .expect("spawn shard worker");
            queues.push(tx);
            workers.push(handle);
        }
        Ok(Engine {
            shared,
            queues: Mutex::new(queues),
            workers: Mutex::new(workers),
        })
    }

    /// Submit one operation. Memo hits and `stats`/`shutdown` resolve
    /// immediately; everything else enqueues (or attaches to an
    /// identical in-flight job) and resolves via [`Pending::wait`].
    pub fn submit(&self, op: Op) -> Pending {
        self.shared.c.requests.fetch_add(1, Ordering::Relaxed);
        let Some(material) = op.key_material() else {
            // stats/shutdown: answered inline, never cached.
            let doc = match op {
                Op::Stats => self.stats_document(),
                _ => String::new(),
            };
            return Pending::Ready(Arc::new(Outcome {
                ok: true,
                cached: false,
                document: doc,
                error: None,
            }));
        };
        let key = ResultKey::from_material(material);
        let (tx, rx) = mpsc::channel();
        {
            let mut caches = self.shared.caches.lock().unwrap();
            if let Some(hit) = caches.memo.get(key.material()) {
                self.shared.c.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Pending::Ready(hit.clone());
            }
            if let Some(waiters) = caches.inflight.get_mut(key.material()) {
                waiters.push(tx);
                self.shared.c.dedup_attached.fetch_add(1, Ordering::Relaxed);
                return Pending::Waiting(rx);
            }
            caches.inflight.insert(key.material().to_vec(), vec![tx]);
            let queues = self.queues.lock().unwrap();
            if queues.is_empty() {
                // Shut down: unwind the reservation and fail fast.
                caches.inflight.remove(key.material());
                return Pending::Ready(Arc::new(Outcome::fail("io: engine is shut down".into())));
            }
            let shard = (key.hash() % queues.len() as u64) as usize;
            queues[shard]
                .send(Job { key, op })
                .expect("shard worker alive while sender is held");
        }
        Pending::Waiting(rx)
    }

    /// Snapshot the `serve.*` health metrics as a registry.
    pub fn stats_registry(&self) -> MetricsRegistry {
        let c = &self.shared.c;
        let mut m = MetricsRegistry::new();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        m.counter(names::REQUESTS, load(&c.requests));
        m.counter(names::CACHE_HITS, load(&c.cache_hits));
        m.counter(names::STORE_HITS, load(&c.store_hits));
        m.counter(names::DEDUP_ATTACHED, load(&c.dedup_attached));
        m.counter(names::JOBS_EXECUTED, load(&c.jobs_executed));
        m.counter(names::SIMS_EXECUTED, load(&c.sims_executed));
        m.counter(names::JOBS_FAILED, load(&c.jobs_failed));
        m.counter(names::JOBS_PANICKED, load(&c.jobs_panicked));
        for (n, jobs) in self.shared.shard_jobs.iter().enumerate() {
            m.counter(&names::shard_jobs(n), load(jobs));
        }
        m.histogram(names::LATENCY_US, *self.shared.latency_us.lock().unwrap());
        m
    }

    /// The `stats` response document.
    pub fn stats_document(&self) -> String {
        self.stats_registry().to_json()
    }

    /// One `serve.*` counter by name (0 when absent) — the assertion
    /// surface for tests and the CI smoke.
    pub fn counter(&self, name: &str) -> u64 {
        self.stats_registry().get_counter(name).unwrap_or(0)
    }

    /// Record one end-to-end request latency (transports call this as
    /// they write each response).
    pub fn record_latency_us(&self, us: u64) {
        self.shared.latency_us.lock().unwrap().observe(us);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Drain and stop the shard workers: queues close, workers finish
    /// everything already enqueued (publishing as usual), then exit
    /// and are joined. Any waiter left attached to a job that somehow
    /// never ran receives an error outcome instead of blocking
    /// forever. Idempotent.
    pub fn shutdown(&self) {
        self.queues.lock().unwrap().clear();
        let workers: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // Fail any jobs that never ran so no waiter blocks forever.
        let orphans: Vec<_> = {
            let mut caches = self.shared.caches.lock().unwrap();
            caches.inflight.drain().collect()
        };
        for (_, waiters) in orphans {
            let o = Arc::new(Outcome::fail(
                "io: engine shut down before the job ran".into(),
            ));
            for w in waiters {
                let _ = w.send(o.clone());
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, shard: usize, rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        shared.c.jobs_executed.fetch_add(1, Ordering::Relaxed);
        shared.shard_jobs[shard].fetch_add(1, Ordering::Relaxed);
        let outcome =
            catch_unwind(AssertUnwindSafe(|| execute(shared, &job.op))).unwrap_or_else(|p| {
                shared.c.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                Outcome::fail(format!("panic: {}", panic_message(p)))
            });
        if !outcome.ok {
            shared.c.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        publish(shared, &job.key, Arc::new(outcome));
    }
}

/// Publish a finished outcome: memoize it (flagged `cached` for future
/// hits) and wake every waiter with the original. Disconnected waiters
/// (dropped receivers) are skipped silently.
fn publish(shared: &Shared, key: &ResultKey, outcome: Arc<Outcome>) {
    let waiters = {
        let mut caches = shared.caches.lock().unwrap();
        if caches.memo.len() >= shared.cfg.memo_max {
            // Wholesale epoch eviction: recomputation is deterministic,
            // so dropping the memo can never change response bytes.
            caches.memo.clear();
        }
        caches.memo.insert(
            key.material().to_vec(),
            Arc::new(Outcome {
                cached: true,
                ..(*outcome).clone()
            }),
        );
        caches.inflight.remove(key.material()).unwrap_or_default()
    };
    for w in waiters {
        let _ = w.send(outcome.clone());
    }
}

fn execute(shared: &Shared, op: &Op) -> Outcome {
    match op {
        Op::Run(spec) => execute_run(shared, spec),
        Op::Sweep(spec) => execute_sweep(shared, spec),
        Op::Analyze(spec) => execute_analyze(spec),
        Op::Trace(spec) => execute_trace(shared, spec),
        // Unreachable through submit(); kept total for robustness.
        Op::Stats | Op::Shutdown => Outcome {
            ok: true,
            cached: false,
            document: String::new(),
            error: None,
        },
    }
}

/// Run one (workload, variant) cell: persistent store first, then a
/// contained simulation. Returns the sanitized result and whether the
/// store answered it.
fn run_cell(shared: &Shared, spec: &RunSpec, v: Variant) -> Result<(RunResult, bool), JobError> {
    let key = ResultKey::from_material(spec.cell_material(v));
    if let Some(store) = &shared.store {
        if let Some(r) = store.load(&key) {
            shared.c.store_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((r, true));
        }
    }
    let budget = spec.budget.min(shared.cfg.deadline_cycles);
    shared.c.sims_executed.fetch_add(1, Ordering::Relaxed);
    let sim = catch_unwind(AssertUnwindSafe(|| simulate_cell(shared, spec, v, budget)));
    let r = match sim {
        Err(p) => {
            shared.c.jobs_panicked.fetch_add(1, Ordering::Relaxed);
            return Err(JobError::Panicked {
                message: panic_message(p),
            });
        }
        Ok(Err(e)) => return Err(JobError::from_sim(e, budget)),
        Ok(Ok(r)) => sanitize_result(r),
    };
    if let Some(store) = &shared.store {
        // Persistence is an optimisation; a full disk degrades to
        // recomputation, not to a failed response.
        let _ = store.save(&key, &r);
    }
    Ok((r, false))
}

fn simulate_cell(
    shared: &Shared,
    spec: &RunSpec,
    v: Variant,
    budget: u64,
) -> Result<RunResult, SimError> {
    let w = by_name(&spec.workload).expect("workload validated at parse time");
    let prog = (w.build)(&WorkloadParams {
        seed: spec.seed,
        iters: spec.iters,
    });
    if spec.sample_every > 0 {
        let params = SampledParams::new(spec.sample_every, spec.warm, spec.detail);
        let cfg = SimConfig::for_variant(v);
        let (set, _warm_hit) =
            collect_checkpoints_cached(shared.ckpt.as_ref(), &cfg, &prog, params, budget)?;
        run_sampled_with(cfg, &prog, &set, params)
    } else {
        run_variant(v, &prog, budget)
    }
}

fn execute_run(shared: &Shared, spec: &RunSpec) -> Outcome {
    if !spec.wrap {
        let v = spec.variants[0];
        return match run_cell(shared, spec, v) {
            Ok((r, hit)) => Outcome {
                ok: true,
                cached: hit,
                // Byte-for-byte what `nda-sim run --metrics-out` writes.
                document: r.metrics().to_json(),
                error: None,
            },
            Err(e) => Outcome::fail(format!("{}: {e}", e.kind_label())),
        };
    }
    let n = spec.variants.len();
    let jobs = shared.cfg.jobs.min(n).max(1);
    let cells = execute_jobs(n, jobs, |i| run_cell(shared, spec, spec.variants[i]));
    let mut entries = String::new();
    let mut all_hits = true;
    for (v, cell) in spec.variants.iter().zip(&cells) {
        if !entries.is_empty() {
            entries.push(',');
        }
        match cell {
            Some(Ok((r, hit))) => {
                all_hits &= hit;
                entries.push_str(&format!(
                    "{{\"variant\":{},\"status\":\"ok\",\"metrics\":{}}}",
                    escape_json(v.name()),
                    r.metrics().to_json()
                ));
            }
            Some(Err(e)) => {
                all_hits = false;
                entries.push_str(&format!(
                    "{{\"variant\":{},\"status\":\"failed\",\"error\":{}}}",
                    escape_json(v.name()),
                    escape_json(&format!("{}: {e}", e.kind_label()))
                ));
            }
            // execute_jobs only leaves None when a worker dies; run_cell
            // contains its own panics, so treat this as a lost cell.
            None => {
                all_hits = false;
                entries.push_str(&format!(
                    "{{\"variant\":{},\"status\":\"failed\",\"error\":\"panic: cell worker died\"}}",
                    escape_json(v.name())
                ));
            }
        }
    }
    Outcome {
        ok: true,
        cached: all_hits,
        document: format!(
            "{{\"schema\":\"nda-run-v1\",\"workload\":{},\"iters\":{},\"seed\":{},\
             \"sample_every\":{},\"variants\":[{}]}}",
            escape_json(&spec.workload),
            spec.iters,
            spec.seed,
            spec.sample_every,
            entries
        ),
        error: None,
    }
}

/// The host's hardware threads (1 when unknown).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker threads for a sweep: what the request asked for (the
/// configured per-request fan-out when it names none), at least one and
/// at most the server's parallelism, the larger of that fan-out and the
/// host's threads. `jobs` is not key material, so the clamp changes no
/// response.
fn sweep_jobs(requested: Option<usize>, configured: usize, host: usize) -> usize {
    requested
        .unwrap_or(configured)
        .clamp(1, configured.max(host))
}

fn execute_sweep(shared: &Shared, spec: &SweepSpec) -> Outcome {
    let cfg = SweepConfig {
        samples: spec.samples,
        iters: spec.iters,
        jobs: sweep_jobs(spec.jobs, shared.cfg.jobs, host_parallelism()),
        mode: if spec.sample_every > 0 {
            SweepMode::Sampled(SampledParams::new(
                spec.sample_every,
                spec.warm,
                spec.detail,
            ))
        } else {
            SweepMode::Full
        },
        seed: spec.seed,
        retries: spec.retries,
        backoff_ms: 10,
        deadline_cycles: spec.deadline_cycles.min(shared.cfg.deadline_cycles),
        chaos: (spec.chaos_panic > 0 || spec.chaos_slow > 0).then_some(Chaos {
            seed: spec.chaos_seed,
            panic_pct: spec.chaos_panic,
            slow_pct: spec.chaos_slow,
            target: None,
        }),
        ckpt_dir: shared.cfg.ckpt_dir.clone(),
        ckpt_max_bytes: shared.cfg.ckpt_max_bytes,
    };
    let mut r = sweep(nda_workloads::all(), &Variant::all(), cfg);
    // Zero the host-dependent wall-clock counters so the document —
    // and therefore the response — is a pure function of the request.
    for row in &mut r.cells {
        for cell in row {
            for run in &mut cell.runs {
                *run = sanitize_result(*run);
            }
        }
    }
    Outcome {
        ok: true,
        cached: false,
        // Byte-for-byte what `nda-sim sweep --metrics-out` writes
        // (degraded cells appear as "status":"failed" entries).
        document: metrics_document(&r, spec.samples, spec.iters, spec.seed, spec.sample_every),
        error: None,
    }
}

/// A validated `analyze` target.
pub(crate) enum AnalyzeTarget {
    /// An attack PoC (carries its secret labeling).
    Attack(AttackKind),
    /// A synthetic workload (empty labeling).
    Workload(&'static Workload),
}

/// Fuzzy attack lookup, same rules as the CLI.
/// Resolve an analyze target: attack name first, then workload name.
pub(crate) fn resolve_analyze_target(name: &str) -> Option<AnalyzeTarget> {
    if let Some(k) = AttackKind::parse(name) {
        return Some(AnalyzeTarget::Attack(k));
    }
    by_name(name).map(AnalyzeTarget::Workload)
}

fn execute_analyze(spec: &AnalyzeSpec) -> Outcome {
    use nda_analyze::{analyze, AnalyzeConfig};
    let (prog, secret_spec) = match resolve_analyze_target(&spec.target) {
        Some(AnalyzeTarget::Attack(k)) => (k.program(spec.secret), k.secret_spec()),
        Some(AnalyzeTarget::Workload(w)) => (
            (w.build)(&WorkloadParams {
                seed: spec.seed,
                iters: spec.iters,
            }),
            nda_isa::SecretSpec::empty(),
        ),
        None => return Outcome::fail(format!("unknown analyze target {:?}", spec.target)),
    };
    let mut cfg = AnalyzeConfig::default();
    if let Some(w) = spec.window {
        cfg.window = w as usize;
    }
    Outcome {
        ok: true,
        cached: false,
        // The same JSON `nda-sim analyze --json` prints.
        document: analyze(&prog, &secret_spec, &cfg).to_json(),
        error: None,
    }
}

fn execute_trace(shared: &Shared, spec: &TraceSpec) -> Outcome {
    let Some(k) = AttackKind::parse(&spec.attack) else {
        return Outcome::fail(format!("unknown attack {:?}", spec.attack));
    };
    let mut cfg = SimConfig::for_variant(spec.variant);
    k.tweak_config(&mut cfg);
    let prog = k.program(spec.secret);
    let budget = spec.budget.min(shared.cfg.deadline_cycles);
    let mut core = OooCore::new(cfg, &prog);
    let (run, payload) = match spec.format {
        TraceFormat::Perfetto => {
            let mut sink = PerfettoSink::new();
            let run = core.run_with_sink(budget, &mut sink);
            (run, sink.into_json())
        }
        TraceFormat::Konata => {
            let mut sink = KonataSink::new();
            let run = core.run_with_sink(budget, &mut sink);
            (run, sink.into_log())
        }
    };
    match run {
        Ok(_) => Outcome {
            ok: true,
            cached: false,
            document: payload,
            error: None,
        },
        // Like the CLI, the partial trace is exactly what one wants
        // when the traced run errors out — ship it with the error.
        Err(e) => {
            let e = JobError::from_sim(e, budget);
            Outcome {
                ok: false,
                cached: false,
                document: payload,
                error: Some(format!("{}: {e}", e.kind_label())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweeps_jobs_are_clamped_to_the_servers_parallelism() {
        // (requested, configured, host) -> threads
        for (requested, configured, host, want) in [
            (None, 1, 2, 1),
            (None, 4, 2, 4),
            (Some(0), 1, 2, 1),
            (Some(2), 1, 2, 2),
            (Some(3), 1, 2, 2),
            (Some(3), 4, 2, 3),
            (Some(usize::MAX), 1, 2, 2),
            (Some(usize::MAX), 8, 2, 8),
            (Some(1 << 20), 1, 64, 64),
        ] {
            assert_eq!(
                sweep_jobs(requested, configured, host),
                want,
                "{requested:?} {configured} {host}"
            );
        }
    }
}
