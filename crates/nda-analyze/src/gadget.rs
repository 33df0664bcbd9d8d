//! Speculation-window modeling and each gadget's anatomy.
//!
//! A taint chain is only a *gadget* if it can execute transiently: the
//! access→transmit chain must fit inside the bounded window opened by a
//! **trigger** — a mispredictable branch, an indirect call/jump, a return,
//! a bypassable store (Spectre v4), or an architectural fault
//! (Meltdown/LazyFP). Each trigger's window is a BFS over speculative
//! successors, cut at serializing instructions (`fence`, `rdcycle`,
//! `spec_off`…) and bounded by the ROB size.
//!
//! What of the chain runs in each trigger's window makes up the gadget's
//! [`Anatomy`](nda_core::Anatomy), and the one verdict rule
//! [`Defense::blocks`](nda_core::Defense::blocks) judges it: a variant
//! kills the gadget only if it blocks *every* trigger.

use std::collections::{HashMap, VecDeque};

pub use nda_core::TriggerKind;
use nda_core::{Anatomy, Channel, InWindow};
use nda_isa::inst::UopClass;
use nda_isa::{Cfg, Program};

use crate::absint::{Analysis, SourceInfo};

/// One window-opening instruction with its transient reach.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Instruction index of the trigger.
    pub pc: usize,
    /// Kind of speculation.
    pub kind: TriggerKind,
    /// Transiently reachable pcs → distance (instructions into the
    /// window, 1-based).
    pub window: HashMap<usize, u32>,
}

/// A trigger attached to a specific gadget, with the sink's distance.
#[derive(Debug, Clone)]
pub struct TriggerInfo {
    /// Instruction index of the trigger.
    pub pc: usize,
    /// Kind of speculation.
    pub kind: TriggerKind,
    /// Instructions between window entry and the transmitter.
    pub distance: u32,
}

/// Per-pc in-state of the speculation-control dataflow: which modes
/// execution can be in when the instruction *dispatches*.
const SPEC_ON: u8 = 0b01;
const SPEC_OFF: u8 = 0b10;

/// Forward dataflow over the static CFG edges computing, per pc, whether
/// execution can only arrive there inside a Listing-4 no-speculation
/// window (`SpecOff` committed, no matching `SpecOn` yet).
///
/// `out[pc]` is `true` iff every architectural path reaching `pc` has
/// executed `spec_off` more recently than any `spec_on`. On such a pc the
/// out-of-order core dispatches one instruction at a time with no
/// wrong-path dispatch, so an otherwise mispredictable instruction there
/// cannot open a transient window: [`find_triggers`] skips it. `SpecOff`
/// takes effect at *commit*, which is exactly the in-state here — with
/// dispatch serialized, the instruction after a committed `spec_off`
/// enters the ROB alone.
///
/// Architecturally unreachable pcs (in-state bottom) are *not* treated as
/// disabled: the static edge set is an over-approximation, and keeping
/// them conservative leaves programs without `spec_off` entirely
/// unaffected. The fault-handler edge propagates the faulting pc's state:
/// the window survives a committed fault (only a committed `spec_on` ends
/// it).
pub fn spec_disabled(p: &Program, cfg: &Cfg) -> Vec<bool> {
    let n = p.insts.len();
    if n == 0 {
        return Vec::new();
    }
    let mut state = vec![0u8; n];
    let entry = p.entry.min(n - 1);
    state[entry] = SPEC_ON;
    let mut work: VecDeque<usize> = VecDeque::from([entry]);
    let mut queued = vec![false; n];
    queued[entry] = true;
    while let Some(pc) = work.pop_front() {
        queued[pc] = false;
        let out = match p.insts[pc] {
            nda_isa::Inst::SpecOff => SPEC_OFF,
            nda_isa::Inst::SpecOn => SPEC_ON,
            _ => state[pc],
        };
        let mut push = |t: usize, state: &mut Vec<u8>, work: &mut VecDeque<usize>| {
            if state[t] | out != state[t] {
                state[t] |= out;
                if !queued[t] {
                    queued[t] = true;
                    work.push_back(t);
                }
            }
        };
        for t in nda_isa::inst_successors(p, pc, cfg.indirect_targets(), cfg.return_sites()) {
            push(t, &mut state, &mut work);
        }
        if p.insts[pc].may_fault() {
            if let Some(h) = p.fault_handler.filter(|&h| h < n) {
                push(h, &mut state, &mut work);
            }
        }
    }
    state.iter().map(|&s| s == SPEC_OFF).collect()
}

/// BFS over speculative successors from `starts`, bounded by `window`
/// instructions, not expanding past serializing instructions (which never
/// execute speculatively and so end the transient window).
fn window_from(p: &Program, cfg: &Cfg, starts: &[usize], window: usize) -> HashMap<usize, u32> {
    let mut dist: HashMap<usize, u32> = HashMap::new();
    let mut queue: VecDeque<(usize, u32)> = VecDeque::new();
    for &s in starts {
        if s < p.insts.len() && !dist.contains_key(&s) {
            dist.insert(s, 1);
            queue.push_back((s, 1));
        }
    }
    while let Some((pc, d)) = queue.pop_front() {
        if d as usize >= window {
            continue;
        }
        let inst = p.insts[pc];
        if inst.class() == UopClass::Serializing {
            continue;
        }
        for t in nda_isa::inst_successors(p, pc, cfg.indirect_targets(), cfg.return_sites()) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(t) {
                e.insert(d + 1);
                queue.push_back((t, d + 1));
            }
        }
    }
    // Serializing instructions never execute speculatively: drop them from
    // the window itself.
    dist.retain(|&pc, _| p.insts[pc].class() != UopClass::Serializing);
    dist
}

/// Enumerate every trigger of `p` with its transient window.
pub fn find_triggers(
    p: &Program,
    cfg: &Cfg,
    analysis: &Analysis,
    window: usize,
    track_ssb: bool,
) -> Vec<Trigger> {
    let disabled = spec_disabled(p, cfg);
    let mut out = Vec::new();
    for (pc, inst) in p.insts.iter().enumerate() {
        // Inside a definite no-speculation window nothing dispatches past
        // an unresolved instruction: the would-be trigger cannot open a
        // transient window (branches resolve before successors enter the
        // ROB, stores cannot be bypassed, a faulting access commits
        // before any dependent issues).
        if disabled[pc] {
            continue;
        }
        let (kind, starts): (TriggerKind, Vec<usize>) = match inst {
            nda_isa::Inst::Branch { .. } => (
                TriggerKind::CondBranch,
                nda_isa::inst_successors(p, pc, cfg.indirect_targets(), cfg.return_sites()),
            ),
            nda_isa::Inst::JmpInd { .. } | nda_isa::Inst::CallInd { .. } => {
                (TriggerKind::IndirectCall, cfg.indirect_targets().to_vec())
            }
            nda_isa::Inst::Ret => {
                let mut s = cfg.return_sites().to_vec();
                s.extend_from_slice(cfg.indirect_targets());
                (TriggerKind::ReturnMispredict, s)
            }
            nda_isa::Inst::Store { .. }
                if track_ssb && analysis.facts[pc].store_addr_load_derived =>
            {
                (TriggerKind::SsbStore, vec![pc + 1])
            }
            _ => continue,
        };
        out.push(Trigger {
            pc,
            kind,
            window: window_from(p, cfg, &starts, window),
        });
    }
    // Fault triggers: one per faulting source.
    for src in &analysis.sources {
        if src.faulting && !disabled[src.pc] {
            out.push(Trigger {
                pc: src.pc,
                kind: TriggerKind::Fault,
                window: window_from(p, cfg, &[src.pc + 1], window),
            });
        }
    }
    out
}

/// Attach the triggers under which the `(source, sink)` chain executes
/// transiently.
pub fn triggers_for(
    triggers: &[Trigger],
    source: &SourceInfo,
    sink_pc: usize,
) -> Vec<(usize, TriggerInfo)> {
    let mut out = Vec::new();
    for (ti, t) in triggers.iter().enumerate() {
        let Some(&sink_d) = t.window.get(&sink_pc) else {
            continue;
        };
        let applies = match t.kind {
            // The faulting access *is* the source.
            TriggerKind::Fault => t.pc == source.pc,
            // The bypassed (stale-reading) load must sit in the store's
            // unresolved window.
            TriggerKind::SsbStore => t.window.contains_key(&source.pc),
            // Control speculation: either the secret access itself runs on
            // the wrong path, or the secret is already architecturally
            // live (a definite labeled access) when the trigger fetches.
            k if k.is_control() => t.window.contains_key(&source.pc) || source.definite,
            _ => false,
        };
        if applies {
            out.push((
                ti,
                TriggerInfo {
                    pc: t.pc,
                    kind: t.kind,
                    distance: sink_d,
                },
            ));
        }
    }
    out
}

/// The anatomy of the gadget `chain` → `sink_pc` on `channel`: per
/// trigger, what of the chain besides the transmitter runs in its window.
pub fn anatomy(
    p: &Program,
    channel: Channel,
    chain: &[usize],
    sink_pc: usize,
    triggers: &[(usize, TriggerInfo)],
    windows: &[Trigger],
) -> Anatomy {
    let reach = |ti: usize| {
        chain
            .iter()
            .filter(|&&pc| pc != sink_pc && windows[ti].window.contains_key(&pc))
            .map(|&pc| {
                if p.insts[pc].is_load_like() {
                    InWindow::Load
                } else {
                    InWindow::Compute
                }
            })
            .max()
            .unwrap_or(InWindow::Transmitter)
    };
    let triggers = triggers.iter().map(|(ti, t)| (t.kind, reach(*ti)));
    Anatomy {
        channel,
        triggers: triggers.collect(),
    }
}
