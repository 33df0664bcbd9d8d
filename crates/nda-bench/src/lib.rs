//! # Benchmark harness for the NDA reproduction
//!
//! Shared machinery behind the `benches/` targets that regenerate every
//! table and figure of the paper (see DESIGN.md §5 for the index):
//!
//! * [`mod@sweep`] — run workloads × variants × seeded samples and aggregate
//!   CPI and the Fig 9 statistics with 95 % confidence intervals.
//! * [`render`] — plain-text table/series renderers shared by the bench
//!   targets so `cargo bench` output is directly comparable to the paper.
//! * [`mod@mitigation`] — the software-mitigation axis: harden every
//!   workload under blanket secret labeling and price hardware-NDA vs
//!   software rewriting vs both, Fig-7 style.
//!
//! * [`mod@fault`] — job isolation: the [`fault::JobError`] taxonomy,
//!   bounded retries with deterministic backoff, and seeded chaos
//!   injection ([`fault::Chaos`]).
//! * [`mod@journal`] — crash-safe resume: one record per cell, stored as a
//!   blob of `nda-core`'s shared `BlobStore` (checksum, atomic write,
//!   quarantine) holding the result store's binary `RunResult` encoding;
//!   corrupt records are quarantined on load.
//!
//! Environment knobs (all optional):
//! * `NDA_SAMPLES` — seeded samples per (workload, variant) cell
//!   (default 3).
//! * `NDA_ITERS` — workload outer iterations (default 400).
//! * `NDA_JOBS` — sweep worker threads (default: available parallelism;
//!   `1` is the serial loop; any value yields bit-identical results).
//! * `NDA_SAMPLE_EVERY` — switch the sweep to sampled simulation with a
//!   checkpoint every N instructions (`0` = full detail, the default).
//! * `NDA_WARM` / `NDA_DETAIL` — per-window warm / measure instruction
//!   counts in sampled mode (default 2000 each).
//! * `NDA_RETRIES` — extra attempts per failed sweep job (default 1).
//! * `NDA_DEADLINE_CYCLES` — per-job cycle deadline (default 2e9).

#![forbid(unsafe_code)]

pub mod fault;
pub mod hw_compare;
pub mod journal;
pub mod mitigation;
pub mod render;
pub mod sweep;

pub use fault::{
    panic_message, silence_contained_panics, Chaos, ChaosAction, JobError, RetryPolicy,
};
pub use hw_compare::{family, family_geomean, hw_comparison_table, hw_comparison_variants};
pub use journal::{fingerprint, CellKey, Journal, JournalError, JournalState};
pub use mitigation::{
    blanket_spec, mitigation_sweep, mitigation_table, HardeningStats, MitigationConfig,
    MitigationResults,
};
pub use render::{
    bar, cpi_class_short, cpi_stack_table, fmt_ci, header_rule, metrics_document, sweep_table,
};
pub use sweep::{
    execute_jobs, sweep, sweep_journaled, sweep_meta, CellStats, CellStatus, SweepConfig,
    SweepMode, SweepResults,
};
