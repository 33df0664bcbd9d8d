//! # nda-serve — the long-running simulation server
//!
//! Batch-oriented front end over the whole reproduction: a line-
//! delimited JSON protocol (over TCP or stdin/stdout) accepting `run`,
//! `sweep`, `analyze` and `trace` requests and streaming back the same
//! documents the `nda-sim` CLI writes — metrics-registry JSON,
//! `nda-metrics-v1` sweep documents, Perfetto/Konata traces —
//! byte-for-byte.
//!
//! Performance is the point: requests are content-addressed with the
//! same hash+verbatim-material discipline as `nda_core::ckpt_store`,
//! answered from an in-memory memo or the persistent
//! [`nda_core::ResultStore`] when possible, deduplicated onto a single
//! in-flight job when identical requests race, and sharded by key so
//! cache-affine work lands on the same worker. One poisoned job
//! degrades one response (the PR 6 [`nda_bench::JobError`] taxonomy),
//! never the server. See DESIGN.md §15 for the architecture and the
//! `serve_load` bench (`BENCH_serve.json`) for the measured latency,
//! throughput, cache-hit and dedup-collapse numbers.
//!
//! ```
//! use nda_serve::{Engine, Op, Request, ServeConfig};
//!
//! let engine = Engine::new(ServeConfig { shards: 1, ..ServeConfig::default() })?;
//! let req = Request::parse(r#"{"id":1,"op":"run","workload":"mcf","iters":40}"#)?;
//! let first = engine.submit(req.op.clone()).wait();
//! let again = engine.submit(req.op).wait();
//! assert!(first.ok && !first.cached);
//! assert!(again.cached, "identical request must be a cache hit");
//! assert_eq!(first.document, again.document);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

/// The request reader, shared with the rest of the workspace.
pub use nda_stats::json;

pub use engine::{render_response, Engine, Outcome, Pending, ServeConfig};
pub use protocol::{
    AnalyzeSpec, Op, Request, RunSpec, SweepSpec, TraceSpec, DEFAULT_BUDGET, PROTOCOL_MAGIC,
};
pub use server::{Server, MAX_LINE_BYTES};
