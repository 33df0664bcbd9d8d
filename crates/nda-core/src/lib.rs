//! # CPU timing models with NDA: the heart of the reproduction
//!
//! This crate implements the paper's experimental platform from scratch:
//!
//! * [`OooCore`] — a cycle-level out-of-order core in the style of gem5's
//!   O3 (8-wide, 192-entry ROB, 32+32 LSQ, physical-register renaming, true
//!   wrong-path execution), parameterised by a [`Defense`]: the six NDA
//!   data-propagation policies of Table 2, the two InvisiSpec comparison
//!   models, delay-on-miss, and the STT/ShadowBinding taint variants, each
//!   a speculation [`Border`] plus a restriction.
//! * [`InOrderCore`] — the blocking in-order baseline (gem5
//!   `TimingSimpleCPU` analogue), the only other model that defeats all
//!   known speculative-execution attacks.
//! * [`Variant`] — the fifteen evaluated configurations (Fig 7 plus the
//!   related-work defenses), and
//!   [`run_variant`] to execute a program on any of them.
//!
//! ```
//! use nda_core::{run_variant, Variant};
//! use nda_isa::{Asm, Reg};
//!
//! let mut asm = Asm::new();
//! asm.li(Reg::X2, 21);
//! asm.add(Reg::X3, Reg::X2, Reg::X2);
//! asm.halt();
//! let prog = asm.assemble()?;
//! let insecure = run_variant(Variant::Ooo, &prog, 100_000)?;
//! let protected = run_variant(Variant::FullProtection, &prog, 100_000)?;
//! // NDA changes timing, never architecture:
//! assert_eq!(insecure.regs[3], 42);
//! assert_eq!(protected.regs[3], 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ckpt_store;
pub mod codec;
pub mod config;
pub mod inorder;
pub mod ooo;
pub mod policy;
pub mod result_store;
pub mod run;
pub mod sampled;
pub mod snapshot;
pub mod trace;

pub use ckpt_store::{collect_checkpoints_cached, CheckpointStore, StoreKey};
pub use codec::GcStats;
pub use config::{CoreConfig, SimConfig, Variant};
pub use inorder::InOrderCore;
pub use ooo::core::{OooCore, RobCellState, RobView};
pub use ooo::invariants::{InvariantKind, InvariantViolation};
pub use policy::{Border, Defense, Propagation};
pub use result_store::{sanitize_result, ResultKey, ResultStore};
pub use run::{
    run_smarts, run_smarts_with, run_variant, run_with_config, RunResult, SampledInfo, SimError,
    SmartsInterrupted, SmartsParams,
};
pub use sampled::{
    collect_checkpoints, collect_checkpoints_with, run_sampled, run_sampled_with, Checkpoint,
    CheckpointSet, FfEngine, SampledParams,
};
pub use snapshot::{HeadInfo, HeadWait, PipelineSnapshot};
pub use trace::{render_pipeline, EventSink, TraceEvent, TraceStage, VecSink};
