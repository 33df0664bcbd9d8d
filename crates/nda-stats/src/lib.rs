//! # Statistics for the NDA reproduction
//!
//! * [`SimStats`] — the per-run counter block every core model fills:
//!   cycles, commits, the top-down CPI stack ([`CpiStack`]) refining the
//!   four-way Fig 9a classification, dispatch→issue latency (Fig 9d),
//!   issue-based ILP (Fig 9c) and the broadcast-deferral counters unique
//!   to NDA.
//! * [`registry`] — the typed metrics registry: named counters and
//!   fixed-log2-bucket histograms with stable names and JSON export, the
//!   document format of `nda-sim sweep --metrics-out`.
//! * [`sampling`] — SMARTS-style aggregation: the paper reports 95 %
//!   confidence intervals over sampled execution; we run each workload as
//!   several independently-seeded samples and aggregate with a
//!   t-distribution interval.
//! * [`json`] — the workspace's one JSON reader: `nda-serve` parses
//!   requests with it and the trace exporters' tests check their output.
//! * [`serve_names`] — the canonical `serve.*` metric names the
//!   `nda-serve` request engine registers its health counters under.

#![forbid(unsafe_code)]

pub mod counters;
pub mod json;
pub mod registry;
pub mod sampling;
pub mod serve_names;

pub use counters::{CpiClass, CpiStack, CycleClass, SimStats};
pub use registry::{escape_json, Hist, Metric, MetricsRegistry, HIST_BUCKETS};
pub use sampling::{geomean, Sample};
