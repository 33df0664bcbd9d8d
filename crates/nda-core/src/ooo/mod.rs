//! The out-of-order core.
//!
//! Module layout mirrors the pipeline:
//!
//! * [`rename`] — physical register file, free list, map table.
//! * [`rob`] — reorder buffer entries, branch ring and speculation shadow.
//! * [`frontend`] — fetch, predict, and the fetch→dispatch pipe.
//! * [`core`] — the cycle loop: commit, writeback, restriction,
//!   broadcast, issue, dispatch, fetch.
//! * [`invariants`] — end-of-cycle conservation-law checker.
//! * [`inject`] — fault-injection hooks for the differential harness.

pub mod core;
pub mod frontend;
pub mod inject;
pub mod invariants;
pub mod rename;
pub mod rob;
