//! `nda-analyze` — static speculative-leakage analyzer for SpecRISC.
//!
//! Finds Spectre/Meltdown-style *gadgets* in assembled [`Program`]s
//! without running them: an access→transmit chain where
//!
//! 1. a **source** instruction can read secret data (per a
//!    [`SecretSpec`]: labeled address ranges, labeled MSRs, or any
//!    privileged state),
//! 2. the value **propagates** through registers/memory to
//! 3. a **transmitter** that encodes it into a microarchitectural
//!    channel (d-cache fill via tainted load/store address, BTB via
//!    tainted indirect target, branch direction), and
//! 4. the whole chain fits inside a bounded **transient window** opened
//!    by a trigger (mispredictable branch/call/return, bypassable store,
//!    or architectural fault).
//!
//! Each gadget carries its [`Anatomy`](nda_core::Anatomy): its channel and,
//! per trigger, what of the chain runs in that trigger's window. Whether a
//! variant *suppresses* it is then [`SimConfig::blocks`](nda_core::SimConfig::blocks),
//! the rule the attack suite's verdicts come from too — and the question
//! `nda-verify`'s differential mode answers dynamically on the simulator.
//!
//! ```
//! use nda_isa::{Asm, Reg, SecretSpec};
//!
//! // A classic bounds-check-bypass gadget.
//! let mut a = Asm::new();
//! let done = a.new_label();
//! a.li(Reg::X7, 0x1000);
//! a.ld8(Reg::X2, Reg::X7, 0); // attacker-controlled index
//! a.li(Reg::X3, 8); // bound
//! a.bge(Reg::X2, Reg::X3, done); // mispredictable check
//! a.ld1(Reg::X4, Reg::X2, 0x2000); // out-of-bounds read can hit the secret
//! a.shli(Reg::X5, Reg::X4, 9);
//! a.ld1(Reg::X6, Reg::X5, 0); // cache transmitter
//! a.bind(done);
//! a.halt();
//! let p = a.assemble().unwrap();
//!
//! let spec = SecretSpec::empty().with_range(0x2000, 64);
//! let report = nda_analyze::analyze(&p, &spec, &nda_analyze::AnalyzeConfig::default());
//! assert_eq!(report.gadgets.len(), 1);
//! assert!(report.leaks_under(nda_core::Variant::Ooo));
//! assert!(!report.leaks_under(nda_core::Variant::Strict));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use nda_isa::{Cfg, Program, SecretSpec};

pub mod absint;
pub mod gadget;
pub mod mitigate;
pub mod report;

pub use absint::{Analysis, Channel, SinkInfo, SourceInfo, SourceKind};
pub use gadget::{Trigger, TriggerInfo, TriggerKind};
pub use mitigate::{harden, Fix, HardenConfig, HardenOutcome, Pass, PassSet, PatchPoint, Residual};
pub use report::{Gadget, Report};

/// Analyzer knobs.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Transient-window bound in instructions. Defaults to the ROB size of
    /// the simulated core (192): a transmitter further than a full ROB
    /// behind the trigger can never be in flight while it is unresolved.
    pub window: usize,
    /// Model store-to-load bypass (Spectre v4) triggers.
    pub track_ssb: bool,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            window: nda_core::CoreConfig::default().rob_entries,
            track_ssb: true,
        }
    }
}

/// Pcs on the def-use path `source_pc → … → sink_pc`, if one exists:
/// the intersection of the backward taint closure from the sink and the
/// forward closure from the source.
fn chain_between(
    analysis: &Analysis,
    fwd: &BTreeMap<u32, Vec<u32>>,
    source_pc: usize,
    sink_pc: usize,
    operand_defs: &[u32],
) -> Option<Vec<usize>> {
    // Backward closure from the sink.
    let mut back: BTreeSet<u32> = BTreeSet::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    back.insert(sink_pc as u32);
    for &d in operand_defs {
        if back.insert(d) {
            queue.push_back(d);
        }
    }
    while let Some(pc) = queue.pop_front() {
        if let Some(defs) = analysis.taint_from.get(&pc) {
            for &d in defs {
                if back.insert(d) {
                    queue.push_back(d);
                }
            }
        }
    }
    if !back.contains(&(source_pc as u32)) {
        return None;
    }
    // Forward closure from the source.
    let mut fore: BTreeSet<u32> = BTreeSet::new();
    fore.insert(source_pc as u32);
    queue.push_back(source_pc as u32);
    while let Some(pc) = queue.pop_front() {
        if let Some(users) = fwd.get(&pc) {
            for &u in users {
                if fore.insert(u) {
                    queue.push_back(u);
                }
            }
        }
    }
    let mut chain: Vec<usize> = back.intersection(&fore).map(|&pc| pc as usize).collect();
    chain.sort_unstable();
    Some(chain)
}

/// Analyze `p` against `spec` and report every gadget with its triggers
/// and its anatomy, from which the variants that suppress it follow.
pub fn analyze(p: &Program, spec: &SecretSpec, cfg: &AnalyzeConfig) -> Report {
    let graph = Cfg::build(p);
    let analysis = absint::run(p, spec, &graph);
    let triggers = gadget::find_triggers(p, &graph, &analysis, cfg.window, cfg.track_ssb);

    // Invert the def-use links once for forward closures.
    let mut fwd: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (&user, defs) in &analysis.taint_from {
        for &d in defs {
            fwd.entry(d).or_default().push(user);
        }
    }

    let mut gadgets = Vec::new();
    for (sink_pc, fact) in analysis.facts.iter().enumerate() {
        let Some(sink) = &fact.sink else { continue };
        for (id, src) in analysis.sources.iter().enumerate() {
            let bit = 1u64 << (id as u64).min(63);
            if sink.taint & bit == 0 {
                continue;
            }
            let Some(chain) = chain_between(&analysis, &fwd, src.pc, sink_pc, &sink.operand_defs)
            else {
                continue;
            };
            let trigs = gadget::triggers_for(&triggers, src, sink_pc);
            if trigs.is_empty() {
                continue;
            }
            let anatomy = gadget::anatomy(p, sink.channel, &chain, sink_pc, &trigs, &triggers);
            let mut gadget = Gadget {
                source_pc: src.pc,
                source_kind: src.kind,
                source_disasm: report::disasm(p, src.pc),
                sink_pc,
                sink_disasm: report::disasm(p, sink_pc),
                anatomy,
                chain,
                triggers: trigs.into_iter().map(|(_, t)| t).collect(),
                patch: None,
            };
            gadget.patch = mitigate::suggest(p, spec, &graph, &gadget);
            gadgets.push(gadget);
        }
    }

    Report {
        program_len: p.insts.len(),
        window: cfg.window,
        gadgets,
    }
}
