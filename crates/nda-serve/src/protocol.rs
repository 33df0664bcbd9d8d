//! The line-delimited JSON wire protocol and its content-addressed key
//! material.
//!
//! One request per line, one response per line, ids echoed verbatim and
//! responses delivered in request order per connection. Every request
//! is an object with an integer `"id"`, an `"op"`, and op-specific
//! fields whose defaults mirror the `nda-sim` CLI exactly — a `run`
//! request with only a workload behaves like `nda-sim run <w>`:
//!
//! ```json
//! {"id":1,"op":"run","workload":"mcf","variant":"Strict","iters":120}
//! {"id":2,"op":"run","workload":"gcc","variants":["OoO","FullProtection"]}
//! {"id":3,"op":"sweep","samples":1,"iters":40,"chaos_panic":30}
//! {"id":4,"op":"analyze","target":"spectre v1 (cache)"}
//! {"id":5,"op":"trace","attack":"meltdown","variant":"Strict"}
//! {"id":6,"op":"stats"}
//! {"id":7,"op":"shutdown"}
//! ```
//!
//! Responses are single lines; multi-line payloads (the sweep metrics
//! document, Perfetto traces) are carried as one escaped JSON string in
//! `"document"`, byte-for-byte what the equivalent CLI invocation would
//! have written to `--metrics-out`/`--trace-out`:
//!
//! ```json
//! {"id":1,"op":"run","ok":true,"cached":false,"document":"{\"counters\":..."}
//! {"id":9,"op":"run","ok":false,"cached":false,"error":"sim-error: ..."}
//! ```
//!
//! `"cached"` describes the *outcome*, not the waiter: `true` means the
//! response was produced without executing a detailed simulation (memo
//! hit, or every run cell loaded from the persistent result store). All
//! waiters deduplicated onto one in-flight job therefore receive
//! byte-identical lines.
//!
//! ## Key material
//!
//! Each cacheable op serializes its full semantic parameter set — and
//! nothing host-dependent — into a canonical byte string
//! ([`Op::key_material`]), hashed and stored exactly like
//! `nda_core::ckpt_store` keys: the material rides along with cached
//! entries and is compared byte-for-byte on lookup, so a hash collision
//! is a clean miss, never a wrong answer. Fields that cannot change the
//! response bytes (worker counts) are deliberately excluded; fields
//! that can (chaos plans, deadlines, retry budgets) are included.

use crate::json::Json;
use nda_attacks::AttackKind;
use nda_core::Variant;
use nda_trace::TraceFormat;

/// Version tag leading every key-material string; bump on any layout
/// change so stale cache entries miss cleanly.
pub const PROTOCOL_MAGIC: &str = "nda-serve-v1";

/// Default per-request cycle budget, matching the CLI's `MAX_CYCLES`.
pub const DEFAULT_BUDGET: u64 = 2_000_000_000;

/// A `run` request: one workload under one or more variants.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name (validated at parse time).
    pub workload: String,
    /// Variants to run, in request order.
    pub variants: Vec<Variant>,
    /// `true` when the request used the `"variants"` array form; the
    /// response document is then the wrapped per-variant form even for
    /// a single-element array.
    pub wrap: bool,
    /// Workload iterations (`--iters`, default 200).
    pub iters: u64,
    /// Workload seed (`--seed`, default 1).
    pub seed: u64,
    /// Sampled simulation interval (`--sample-every`, default 0 = full
    /// detail).
    pub sample_every: u64,
    /// Sampled window warm-up instructions (`--warm`, default 2000).
    pub warm: u64,
    /// Sampled window measured instructions (`--detail`, default 2000).
    pub detail: u64,
    /// Per-request cycle budget; the engine clamps it to its own
    /// server-wide deadline before enforcing it via the watchdog.
    pub budget: u64,
}

/// A `sweep` request: the full workloads × variants grid, exactly like
/// `nda-sim sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Samples per cell (default 2).
    pub samples: u64,
    /// Iterations per sample (default 200).
    pub iters: u64,
    /// Base seed (default 1).
    pub seed: u64,
    /// Sampled simulation interval (default 0 = full detail).
    pub sample_every: u64,
    /// Sampled warm-up instructions (default 2000).
    pub warm: u64,
    /// Sampled measured instructions (default 2000).
    pub detail: u64,
    /// Worker threads for this sweep; `None` = the engine's configured
    /// per-request parallelism. Excluded from key material (any value
    /// yields bit-identical results).
    pub jobs: Option<usize>,
    /// Extra attempts per failed cell (default 1).
    pub retries: u32,
    /// Per-cell cycle deadline (default the request budget).
    pub deadline_cycles: u64,
    /// Chaos: panic percentage (default 0).
    pub chaos_panic: u8,
    /// Chaos: starvation percentage (default 0).
    pub chaos_slow: u8,
    /// Chaos decision seed (default 0).
    pub chaos_seed: u64,
}

/// An `analyze` request: static leakage analysis of an attack or
/// workload (file targets are a CLI-only affordance).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeSpec {
    /// Attack or workload name, resolved in that order.
    pub target: String,
    /// Attack secret byte (default 42).
    pub secret: u8,
    /// Speculation-window override (default: ROB size).
    pub window: Option<u64>,
    /// Workload iterations when the target is a workload (default 200).
    pub iters: u64,
    /// Workload seed when the target is a workload (default 1).
    pub seed: u64,
}

/// A `trace` request: run an attack on an out-of-order variant with the
/// full pipeline event trace exported.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Attack name (fuzzy-matched like the CLI).
    pub attack: String,
    /// Core variant; must be out-of-order.
    pub variant: Variant,
    /// Secret byte (default 42).
    pub secret: u8,
    /// Export format (default Perfetto).
    pub format: TraceFormat,
    /// Cycle budget for the traced run.
    pub budget: u64,
}

/// One parsed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Simulate a workload under a set of variants.
    Run(RunSpec),
    /// The full normalised-CPI sweep grid.
    Sweep(SweepSpec),
    /// Static speculative-leakage analysis.
    Analyze(AnalyzeSpec),
    /// Pipeline event trace of an attack window.
    Trace(TraceSpec),
    /// Snapshot of the engine's `serve.*` metrics.
    Stats,
    /// Acknowledge, then stop accepting connections.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed on the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or(format!("{key:?} must be a non-negative integer")),
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or(format!("{key:?} must be a string"))
}

impl Request {
    /// Parse and validate one request line. Unknown ops, unknown
    /// workload/variant/attack names and malformed fields are rejected
    /// here, before anything is enqueued.
    pub fn parse(line: &str) -> Result<Request, String> {
        let obj = Json::parse(line)?;
        let id = obj
            .get("id")
            .ok_or("request needs an integer \"id\"")?
            .as_u64()
            .ok_or("\"id\" must be a non-negative integer")?;
        let op_name = field_str(&obj, "op")?;
        let op = match op_name {
            "run" => Op::Run(Self::parse_run(&obj)?),
            "sweep" => Op::Sweep(Self::parse_sweep(&obj)?),
            "analyze" => Op::Analyze(Self::parse_analyze(&obj)?),
            "trace" => Op::Trace(Self::parse_trace(&obj)?),
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(Request { id, op })
    }

    fn parse_run(obj: &Json) -> Result<RunSpec, String> {
        let workload = field_str(obj, "workload")?.to_string();
        if nda_workloads::by_name(&workload).is_none() {
            return Err(format!("unknown workload {workload:?}"));
        }
        let (variants, wrap) = match (obj.get("variant"), obj.get("variants")) {
            (Some(_), Some(_)) => {
                return Err("use either \"variant\" or \"variants\", not both".into())
            }
            (Some(v), None) => {
                let name = v.as_str().ok_or("\"variant\" must be a string")?;
                let v = Variant::parse(name).ok_or(format!("unknown variant {name:?}"))?;
                (vec![v], false)
            }
            (None, Some(list)) => {
                let list = list.as_array().ok_or("\"variants\" must be an array")?;
                if list.is_empty() {
                    return Err("\"variants\" must not be empty".into());
                }
                let mut vs = Vec::with_capacity(list.len());
                for item in list {
                    let name = item
                        .as_str()
                        .ok_or("\"variants\" entries must be strings")?;
                    vs.push(Variant::parse(name).ok_or(format!("unknown variant {name:?}"))?);
                }
                (vs, true)
            }
            (None, None) => (vec![Variant::Ooo], false),
        };
        Ok(RunSpec {
            workload,
            variants,
            wrap,
            iters: field_u64(obj, "iters", 200)?,
            seed: field_u64(obj, "seed", 1)?,
            sample_every: field_u64(obj, "sample_every", 0)?,
            warm: field_u64(obj, "warm", 2_000)?,
            detail: field_u64(obj, "detail", 2_000)?,
            budget: field_u64(obj, "budget", DEFAULT_BUDGET)?,
        })
    }

    fn parse_sweep(obj: &Json) -> Result<SweepSpec, String> {
        let chaos_panic = field_u64(obj, "chaos_panic", 0)?;
        let chaos_slow = field_u64(obj, "chaos_slow", 0)?;
        if chaos_panic > 100 || chaos_slow > 100 {
            return Err("chaos percentages must be 0..=100".into());
        }
        Ok(SweepSpec {
            samples: field_u64(obj, "samples", 2)?,
            iters: field_u64(obj, "iters", 200)?,
            seed: field_u64(obj, "seed", 1)?,
            sample_every: field_u64(obj, "sample_every", 0)?,
            warm: field_u64(obj, "warm", 2_000)?,
            detail: field_u64(obj, "detail", 2_000)?,
            jobs: obj
                .get("jobs")
                .map(|v| v.as_u64().ok_or("\"jobs\" must be a non-negative integer"))
                .transpose()?
                .map(|n| n.max(1) as usize),
            retries: field_u64(obj, "retries", 1)? as u32,
            deadline_cycles: field_u64(obj, "deadline_cycles", DEFAULT_BUDGET)?,
            chaos_panic: chaos_panic as u8,
            chaos_slow: chaos_slow as u8,
            chaos_seed: field_u64(obj, "chaos_seed", 0)?,
        })
    }

    fn parse_analyze(obj: &Json) -> Result<AnalyzeSpec, String> {
        let target = field_str(obj, "target")?.to_string();
        if crate::engine::resolve_analyze_target(&target).is_none() {
            return Err(format!(
                "{target:?} is not an attack or workload (file targets are CLI-only)"
            ));
        }
        Ok(AnalyzeSpec {
            target,
            secret: field_u64(obj, "secret", 42)? as u8,
            window: obj
                .get("window")
                .map(|v| {
                    v.as_u64()
                        .ok_or("\"window\" must be a non-negative integer")
                })
                .transpose()?,
            iters: field_u64(obj, "iters", 200)?,
            seed: field_u64(obj, "seed", 1)?,
        })
    }

    fn parse_trace(obj: &Json) -> Result<TraceSpec, String> {
        let attack = field_str(obj, "attack")?.to_string();
        if AttackKind::parse(&attack).is_none() {
            return Err(format!("unknown attack {attack:?}"));
        }
        let variant = match obj.get("variant") {
            None => Variant::Ooo,
            Some(v) => {
                let name = v.as_str().ok_or("\"variant\" must be a string")?;
                Variant::parse(name).ok_or(format!("unknown variant {name:?}"))?
            }
        };
        if variant == Variant::InOrder {
            return Err("tracing needs an out-of-order variant".into());
        }
        let format = match obj.get("format") {
            None => TraceFormat::Perfetto,
            Some(f) => {
                let name = f.as_str().ok_or("\"format\" must be a string")?;
                TraceFormat::parse(name)
                    .ok_or(format!("format {name:?} (use perfetto or konata)"))?
            }
        };
        Ok(TraceSpec {
            attack,
            variant,
            secret: field_u64(obj, "secret", 42)? as u8,
            format,
            budget: field_u64(obj, "budget", DEFAULT_BUDGET)?,
        })
    }
}

/// Canonical key-material builder: unambiguous (length-prefixed
/// strings, fixed-width integers) and versioned via
/// [`PROTOCOL_MAGIC`].
pub(crate) struct Mat(Vec<u8>);

impl Mat {
    pub(crate) fn new(op: &str) -> Mat {
        let mut m = Mat(Vec::with_capacity(96));
        m.str(PROTOCOL_MAGIC);
        m.str(op);
        m
    }

    pub(crate) fn str(&mut self, s: &str) -> &mut Mat {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Mat {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub(crate) fn done(self) -> Vec<u8> {
        self.0
    }
}

impl RunSpec {
    /// Key material for one (request, variant) cell — the identity a
    /// finished [`RunResult`](nda_core::RunResult) is stored under in
    /// the persistent result store. Two requests that share a cell
    /// (e.g. different variant *sets* over the same workload) hit the
    /// same stored result.
    pub fn cell_material(&self, v: Variant) -> Vec<u8> {
        let mut m = Mat::new("run-cell");
        m.str(&self.workload).str(v.name());
        m.u64(self.iters)
            .u64(self.seed)
            .u64(self.sample_every)
            .u64(self.warm)
            .u64(self.detail)
            .u64(self.budget);
        m.done()
    }
}

impl Op {
    /// Stable op label used in responses and display.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Run(_) => "run",
            Op::Sweep(_) => "sweep",
            Op::Analyze(_) => "analyze",
            Op::Trace(_) => "trace",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// The canonical request identity, or `None` for ops that must
    /// never be cached or deduplicated (`stats`, `shutdown`).
    pub fn key_material(&self) -> Option<Vec<u8>> {
        match self {
            Op::Run(s) => {
                let mut m = Mat::new("run");
                m.str(&s.workload);
                m.u64(s.variants.len() as u64);
                for v in &s.variants {
                    m.str(v.name());
                }
                m.u64(s.wrap as u64)
                    .u64(s.iters)
                    .u64(s.seed)
                    .u64(s.sample_every)
                    .u64(s.warm)
                    .u64(s.detail)
                    .u64(s.budget);
                Some(m.done())
            }
            Op::Sweep(s) => {
                let mut m = Mat::new("sweep");
                m.u64(s.samples)
                    .u64(s.iters)
                    .u64(s.seed)
                    .u64(s.sample_every)
                    .u64(s.warm)
                    .u64(s.detail)
                    .u64(s.retries as u64)
                    .u64(s.deadline_cycles)
                    .u64(s.chaos_panic as u64)
                    .u64(s.chaos_slow as u64)
                    .u64(s.chaos_seed);
                Some(m.done())
            }
            Op::Analyze(s) => {
                let mut m = Mat::new("analyze");
                m.str(&s.target);
                m.u64(s.secret as u64);
                match s.window {
                    None => m.u64(0),
                    Some(w) => m.u64(1).u64(w),
                };
                m.u64(s.iters).u64(s.seed);
                Some(m.done())
            }
            Op::Trace(s) => {
                let mut m = Mat::new("trace");
                m.str(&s.attack).str(s.variant.name());
                m.u64(s.secret as u64);
                m.str(match s.format {
                    TraceFormat::Perfetto => "perfetto",
                    TraceFormat::Konata => "konata",
                });
                m.u64(s.budget);
                Some(m.done())
            }
            Op::Stats | Op::Shutdown => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_defaults_mirroring_the_cli() {
        let r = Request::parse(r#"{"id":1,"op":"run","workload":"mcf"}"#).unwrap();
        let Op::Run(s) = &r.op else {
            panic!("not a run")
        };
        assert_eq!(s.variants, vec![Variant::Ooo]);
        assert!(!s.wrap);
        assert_eq!((s.iters, s.seed, s.sample_every), (200, 1, 0));
        assert_eq!((s.warm, s.detail, s.budget), (2_000, 2_000, DEFAULT_BUDGET));
    }

    #[test]
    fn fuzzy_variant_names_resolve() {
        let r = Request::parse(
            r#"{"id":2,"op":"run","workload":"gcc","variants":["full-protection","in_order"]}"#,
        )
        .unwrap();
        let Op::Run(s) = &r.op else {
            panic!("not a run")
        };
        assert_eq!(s.variants, vec![Variant::FullProtection, Variant::InOrder]);
        assert!(s.wrap);
    }

    #[test]
    fn rejects_unknown_names_at_parse_time() {
        for line in [
            r#"{"id":1,"op":"run","workload":"nope"}"#,
            r#"{"id":1,"op":"run","workload":"mcf","variant":"nope"}"#,
            r#"{"id":1,"op":"frobnicate"}"#,
            r#"{"id":1,"op":"trace","attack":"nope"}"#,
            r#"{"id":1,"op":"trace","attack":""}"#,
            r#"{"id":1,"op":"run","workload":"mcf","variant":""}"#,
            r#"{"id":1,"op":"trace","attack":"meltdown","variant":"InOrder"}"#,
            r#"{"id":1,"op":"analyze","target":"nope"}"#,
            r#"{"id":1,"op":"analyze","target":""}"#,
            r#"{"op":"stats"}"#,
        ] {
            assert!(Request::parse(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn key_material_separates_semantic_fields_only() {
        let a = Request::parse(r#"{"id":1,"op":"sweep","samples":1,"iters":40}"#).unwrap();
        let b =
            Request::parse(r#"{"id":99,"op":"sweep","samples":1,"iters":40,"jobs":8}"#).unwrap();
        let c = Request::parse(r#"{"id":1,"op":"sweep","samples":1,"iters":41}"#).unwrap();
        // id and jobs are not identity; iters is.
        assert_eq!(a.op.key_material(), b.op.key_material());
        assert_ne!(a.op.key_material(), c.op.key_material());
        assert_eq!(
            Request::parse(r#"{"id":1,"op":"stats"}"#)
                .unwrap()
                .op
                .key_material(),
            None
        );
    }

    #[test]
    fn run_cell_material_is_shared_across_variant_sets() {
        let one =
            Request::parse(r#"{"id":1,"op":"run","workload":"mcf","variant":"Strict"}"#).unwrap();
        let many =
            Request::parse(r#"{"id":2,"op":"run","workload":"mcf","variants":["OoO","Strict"]}"#)
                .unwrap();
        let (Op::Run(a), Op::Run(b)) = (&one.op, &many.op) else {
            panic!()
        };
        // The request-level identities differ (different documents)...
        assert_ne!(one.op.key_material(), many.op.key_material());
        // ...but the Strict cell is the same stored RunResult.
        assert_eq!(
            a.cell_material(Variant::Strict),
            b.cell_material(Variant::Strict)
        );
        assert_ne!(
            a.cell_material(Variant::Strict),
            a.cell_material(Variant::Ooo)
        );
    }
}
