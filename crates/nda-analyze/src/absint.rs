//! The abstract dataflow/taint engine.
//!
//! One forward fixpoint over the [`Cfg`] computes, per instruction, an
//! abstract register file combining three lattices:
//!
//! * **Values** ([`AbsVal`]): constants and small intervals, enough to
//!   resolve the address of every statically-addressed load/store in the
//!   attack suite (including `sltu`-selected two-entry tables). Joins of
//!   unequal values take the interval hull while it stays narrow and go
//!   to `Top` beyond [`JOIN_HULL_CAP`]; intervals otherwise come only
//!   from operators with intrinsically bounded results (`slt`/`sltu`,
//!   masking `and`, and arithmetic on existing intervals), which keeps
//!   the chain height finite without widening.
//! * **Taint**: a bitmask over discovered secret sources (loads/MSR reads
//!   matching the [`SecretSpec`]), propagated through ALU ops, loads with
//!   tainted addresses, and store→load memory summaries.
//! * **Provenance**: the defining pcs of each register, recorded into a
//!   global def-use link map so a reported gadget can print its taint
//!   path, plus a *load-derived* bit on addresses (the SSB trigger
//!   heuristic: only stores whose address comes from a load are treated
//!   as bypassable, since constant/counter addresses resolve too fast to
//!   be overtaken by a younger load).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

pub use nda_core::Channel;
use nda_isa::inst::Src2;
use nda_isa::{Cfg, Inst, Program, SecretSpec, KERNEL_BASE};

/// Cap on recorded defining pcs per register (beyond this the taint path
/// display degrades, nothing else).
const DEFS_CAP: usize = 8;

/// Widest interval a *join* may produce before going to `Top`. Operators
/// may still produce wider ranges (e.g. a shifted index); the cap only
/// bounds how often a join can widen a value, which is what guarantees
/// fixpoint termination.
const JOIN_HULL_CAP: u64 = 64;

/// Abstract value of a register.
///
/// `Top` is split by *provenance*: a top produced by an operator on
/// program data ([`AbsVal::TopData`]) is genuinely data-dependent — an
/// address built from it can take attacker-influenced values, so a load
/// through it may alias secret state. A top produced only by *joining*
/// control-flow paths ([`AbsVal::TopMerge`]) is a merge artifact: on any
/// single path the value is one of finitely many resolved constants
/// (e.g. a software stack pointer flowing through context-insensitive
/// return edges), none of which reached a labeled range on its own.
/// Treating merge-tops as non-sources removes that whole class of false
/// positives; the (documented) cost is missing a gadget whose secret
/// aliasing exists only on one arm of a merge the hull join could not
/// absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Unknown, data-dependent (operator-produced).
    TopData,
    /// Unknown, but only because control-flow joins smeared resolved
    /// values (join-produced).
    TopMerge,
    /// All values in the inclusive interval `[lo, hi]`; a constant `c` is
    /// `Range(c, c)`.
    Range(u64, u64),
}

impl AbsVal {
    fn constant(c: u64) -> AbsVal {
        AbsVal::Range(c, c)
    }

    fn as_const(self) -> Option<u64> {
        match self {
            AbsVal::Range(l, h) if l == h => Some(l),
            _ => None,
        }
    }

    /// The top an operator must produce given its operands: data-tops are
    /// contagious; otherwise a merge-top stays a merge artifact (address
    /// arithmetic on a merged pointer does not make it data-dependent);
    /// pure-range operator failure (overflow, unbounded op) is genuine
    /// data dependence.
    fn op_top(a: AbsVal, b: AbsVal) -> AbsVal {
        if a == AbsVal::TopData || b == AbsVal::TopData {
            AbsVal::TopData
        } else if a == AbsVal::TopMerge || b == AbsVal::TopMerge {
            AbsVal::TopMerge
        } else {
            AbsVal::TopData
        }
    }

    /// Joins take the interval hull while it stays narrow (≤
    /// [`JOIN_HULL_CAP`] wide) and go to `TopMerge` beyond that. The cap
    /// keeps the lattice chain finite without widening — a value at a
    /// program point can only widen [`JOIN_HULL_CAP`] times before
    /// reaching top — while still absorbing the common
    /// `const ∨ small-range` joins (e.g. a first-iteration constant
    /// meeting a `sltu`-produced 0/1) that a flat join would needlessly
    /// smear to top.
    fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            return self;
        }
        match (self, other) {
            (AbsVal::TopData, _) | (_, AbsVal::TopData) => AbsVal::TopData,
            (AbsVal::Range(al, ah), AbsVal::Range(bl, bh)) => {
                let l = al.min(bl);
                let h = ah.max(bh);
                if h - l <= JOIN_HULL_CAP {
                    AbsVal::Range(l, h)
                } else {
                    AbsVal::TopMerge
                }
            }
            _ => AbsVal::TopMerge,
        }
    }

    /// Offset by a signed displacement (address generation).
    fn offset(self, off: i64) -> AbsVal {
        match self {
            AbsVal::Range(l, h) => {
                let lo = (l as i128) + (off as i128);
                let hi = (h as i128) + (off as i128);
                if lo >= 0 && hi <= u64::MAX as i128 {
                    AbsVal::Range(lo as u64, hi as u64)
                } else {
                    AbsVal::TopData
                }
            }
            top => top,
        }
    }

    fn apply(op: nda_isa::AluOp, a: AbsVal, b: AbsVal) -> AbsVal {
        use nda_isa::AluOp;
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return AbsVal::constant(op.apply(x, y));
        }
        match op {
            AluOp::Slt | AluOp::Sltu => AbsVal::Range(0, 1),
            AluOp::And => match (a.as_const(), b.as_const()) {
                (_, Some(m)) | (Some(m), _) => AbsVal::Range(0, m),
                _ => AbsVal::op_top(a, b),
            },
            AluOp::Add => match (a, b) {
                (AbsVal::Range(al, ah), AbsVal::Range(bl, bh)) => {
                    match (al.checked_add(bl), ah.checked_add(bh)) {
                        (Some(l), Some(h)) => AbsVal::Range(l, h),
                        _ => AbsVal::TopData,
                    }
                }
                _ => AbsVal::op_top(a, b),
            },
            AluOp::Sub => match (a, b) {
                (AbsVal::Range(al, ah), AbsVal::Range(bl, bh)) if al >= bh => {
                    AbsVal::Range(al - bh, ah - bl)
                }
                _ => AbsVal::op_top(a, b),
            },
            AluOp::Shl => match (a, b.as_const()) {
                (AbsVal::Range(al, ah), Some(k)) => {
                    let k = (k & 63) as u32;
                    if ah.leading_zeros() >= k {
                        AbsVal::Range(al << k, ah << k)
                    } else {
                        AbsVal::TopData
                    }
                }
                _ => AbsVal::op_top(a, b),
            },
            AluOp::Shr => match (a, b.as_const()) {
                (AbsVal::Range(al, ah), Some(k)) => {
                    let k = (k & 63) as u32;
                    AbsVal::Range(al >> k, ah >> k)
                }
                _ => AbsVal::op_top(a, b),
            },
            _ => AbsVal::op_top(a, b),
        }
    }
}

/// Abstract state of one architectural register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAbs {
    /// Value approximation.
    pub val: AbsVal,
    /// Taint bitmask over source ids.
    pub taint: u64,
    /// `true` if the value flowed (through any chain of ALU ops) out of a
    /// load or MSR read.
    pub load_derived: bool,
    /// Defining pcs (for taint-path reconstruction).
    pub defs: Vec<u32>,
}

impl RegAbs {
    fn zero() -> RegAbs {
        RegAbs {
            val: AbsVal::constant(0),
            taint: 0,
            load_derived: false,
            defs: Vec::new(),
        }
    }

    fn def(pc: usize, val: AbsVal, taint: u64, load_derived: bool) -> RegAbs {
        RegAbs {
            val,
            taint,
            load_derived,
            defs: vec![pc as u32],
        }
    }

    fn join_from(&mut self, other: &RegAbs) -> bool {
        let mut changed = false;
        let v = self.val.join(other.val);
        if v != self.val {
            self.val = v;
            changed = true;
        }
        if self.taint | other.taint != self.taint {
            self.taint |= other.taint;
            changed = true;
        }
        if other.load_derived && !self.load_derived {
            self.load_derived = true;
            changed = true;
        }
        for &d in &other.defs {
            if !self.defs.contains(&d) && self.defs.len() < DEFS_CAP {
                self.defs.push(d);
                changed = true;
            }
        }
        changed
    }
}

/// Abstract register file at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    regs: Vec<RegAbs>,
}

impl State {
    fn entry() -> State {
        State {
            regs: vec![RegAbs::zero(); nda_isa::reg::NUM_REGS],
        }
    }

    fn get(&self, r: nda_isa::Reg) -> RegAbs {
        if r.is_zero() {
            RegAbs::zero()
        } else {
            self.regs[r.index()].clone()
        }
    }

    fn set(&mut self, r: nda_isa::Reg, v: RegAbs) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            changed |= a.join_from(b);
        }
        changed
    }
}

/// How a source instruction reaches secret data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Load with a statically unresolved address that may alias a labeled
    /// range (the classic out-of-bounds Spectre access).
    WildLoad,
    /// Load whose resolved address overlaps a labeled range.
    LabeledLoad,
    /// Load from privileged (kernel) memory — faults architecturally.
    PrivilegedLoad,
    /// MSR read of a labeled or privileged register.
    SecretMsr,
}

impl SourceKind {
    /// Stable JSON identifier.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::WildLoad => "wild-load",
            SourceKind::LabeledLoad => "labeled-load",
            SourceKind::PrivilegedLoad => "privileged-load",
            SourceKind::SecretMsr => "secret-msr",
        }
    }
}

/// One discovered secret source.
#[derive(Debug, Clone)]
pub struct SourceInfo {
    /// Instruction index of the source.
    pub pc: usize,
    /// Classification.
    pub kind: SourceKind,
    /// `true` if the access faults architecturally (Meltdown/LazyFP): the
    /// fault itself opens a transient window.
    pub faulting: bool,
    /// `true` if the access *definitely* reads labeled bytes on the
    /// architectural path (resolved address within a labeled range), so
    /// its taint is architecturally live — in contrast to a wild load
    /// whose secret-reaching instances only exist transiently.
    pub definite: bool,
}

/// A transmitter found at one instruction.
#[derive(Debug, Clone)]
pub struct SinkInfo {
    /// Channel kind.
    pub channel: Channel,
    /// Taint mask of the transmitted operand.
    pub taint: u64,
    /// Defining pcs of the tainted operand (chain reconstruction roots).
    pub operand_defs: Vec<u32>,
}

/// Per-instruction facts after the fixpoint.
#[derive(Debug, Clone, Default)]
pub struct InstFact {
    /// Transmitter at this pc, if any.
    pub sink: Option<SinkInfo>,
    /// For stores: the address operand is load-derived (SSB candidate).
    pub store_addr_load_derived: bool,
}

/// Result of the dataflow pass.
#[derive(Debug)]
pub struct Analysis {
    /// Discovered sources; the index is the taint-bit id.
    pub sources: Vec<SourceInfo>,
    /// Def-use links: pc → defining pcs of its tainted operands.
    pub taint_from: BTreeMap<u32, BTreeSet<u32>>,
    /// Per-instruction facts (indexed by pc).
    pub facts: Vec<InstFact>,
}

struct Engine<'a> {
    p: &'a Program,
    spec: &'a SecretSpec,
    source_ids: HashMap<usize, u32>,
    sources: Vec<SourceInfo>,
    taint_from: BTreeMap<u32, BTreeSet<u32>>,
    /// Memory taint written through resolved addresses, keyed by store pc:
    /// (interval, byte length, taint mask).
    mem_by_store: BTreeMap<usize, (AbsVal, u64, u64)>,
    /// Taint written through unresolved addresses (reaches any load).
    wild_mem: u64,
    wild_mem_defs: BTreeSet<u32>,
}

impl<'a> Engine<'a> {
    fn source_bit(&mut self, pc: usize, kind: SourceKind, faulting: bool, definite: bool) -> u64 {
        let next = self.sources.len() as u32;
        let id = *self.source_ids.entry(pc).or_insert(next);
        let info = SourceInfo {
            pc,
            kind,
            faulting,
            definite,
        };
        if id as usize == self.sources.len() {
            self.sources.push(info);
        } else {
            // Later fixpoint rounds see wider (joined) states: keep the
            // latest classification so the final collection pass wins.
            self.sources[id as usize] = info;
        }
        1u64 << (id as u64).min(63)
    }

    fn link(&mut self, pc: usize, defs: &[u32]) {
        if !defs.is_empty() {
            self.taint_from
                .entry(pc as u32)
                .or_default()
                .extend(defs.iter().copied());
        }
    }

    /// Taint picked up by a load covering `addr`/`size` from the memory
    /// summaries, plus the store pcs providing it (for chain links).
    fn mem_taint(&self, addr: AbsVal, size: u64) -> (u64, Vec<u32>) {
        let mut mask = self.wild_mem;
        let mut defs: Vec<u32> = self.wild_mem_defs.iter().copied().collect();
        for (&spc, &(saddr, slen, smask)) in &self.mem_by_store {
            let hit = match (addr, saddr) {
                (AbsVal::Range(al, ah), AbsVal::Range(sl, sh)) => {
                    al < sh.saturating_add(slen) && sl < ah.saturating_add(size)
                }
                _ => true,
            };
            if hit {
                mask |= smask;
                defs.push(spc as u32);
            }
        }
        (mask, defs)
    }

    /// Transfer one instruction. When `facts` is given (final collection
    /// pass) sinks and SSB candidates are recorded.
    fn transfer(&mut self, pc: usize, st: &mut State, facts: Option<&mut InstFact>) {
        let inst = self.p.insts[pc];
        match inst {
            Inst::Li { rd, imm } => {
                st.set(rd, RegAbs::def(pc, AbsVal::constant(imm), 0, false));
            }
            Inst::Alu { op, rd, rs1, src2 } => {
                let a = st.get(rs1);
                let b = match src2 {
                    Src2::Reg(r) => st.get(r),
                    Src2::Imm(i) => RegAbs {
                        val: AbsVal::constant(i),
                        taint: 0,
                        load_derived: false,
                        defs: Vec::new(),
                    },
                };
                let mut links = Vec::new();
                if a.taint != 0 {
                    links.extend_from_slice(&a.defs);
                }
                if b.taint != 0 {
                    links.extend_from_slice(&b.defs);
                }
                self.link(pc, &links);
                st.set(
                    rd,
                    RegAbs::def(
                        pc,
                        AbsVal::apply(op, a.val, b.val),
                        a.taint | b.taint,
                        a.load_derived || b.load_derived,
                    ),
                );
            }
            Inst::Load {
                rd,
                base,
                off,
                size,
            } => {
                let b = st.get(base);
                let addr = b.val.offset(off);
                let bytes = size.bytes();
                let mut taint = b.taint;
                let mut links: Vec<u32> = if b.taint != 0 {
                    b.defs.clone()
                } else {
                    Vec::new()
                };
                // Source classification.
                let src_bit = match addr {
                    AbsVal::Range(l, h) => {
                        let span = (h - l).saturating_add(bytes);
                        let definite = self.spec.contains(l, span);
                        let faulting = h.saturating_add(bytes) > KERNEL_BASE;
                        if self.spec.overlaps(l, span) {
                            let kind = if faulting {
                                SourceKind::PrivilegedLoad
                            } else {
                                SourceKind::LabeledLoad
                            };
                            Some(self.source_bit(pc, kind, faulting, definite))
                        } else {
                            None
                        }
                    }
                    // A data-dependent unknown address may alias secret
                    // state; a merge-smeared one never resolved near a
                    // labeled range on any single path.
                    AbsVal::TopData => {
                        if !self.spec.ranges.is_empty() {
                            Some(self.source_bit(pc, SourceKind::WildLoad, false, false))
                        } else {
                            None
                        }
                    }
                    AbsVal::TopMerge => None,
                };
                taint |= src_bit.unwrap_or(0);
                let (mmask, mdefs) = self.mem_taint(addr, bytes);
                if mmask != 0 {
                    taint |= mmask;
                    links.extend_from_slice(&mdefs);
                }
                self.link(pc, &links);
                if let Some(f) = facts {
                    if b.taint != 0 {
                        f.sink = Some(SinkInfo {
                            channel: Channel::DCacheLoad,
                            taint: b.taint,
                            operand_defs: b.defs.clone(),
                        });
                    }
                }
                st.set(rd, RegAbs::def(pc, AbsVal::TopData, taint, true));
            }
            Inst::Store {
                src,
                base,
                off,
                size,
            } => {
                let s = st.get(src);
                let b = st.get(base);
                let addr = b.val.offset(off);
                if s.taint != 0 {
                    match addr {
                        AbsVal::Range(..) => {
                            let entry =
                                self.mem_by_store
                                    .entry(pc)
                                    .or_insert((addr, size.bytes(), 0));
                            entry.0 = entry.0.join(addr);
                            entry.2 |= s.taint;
                        }
                        AbsVal::TopData | AbsVal::TopMerge => {
                            self.wild_mem |= s.taint;
                            self.wild_mem_defs.extend(s.defs.iter().copied());
                        }
                    }
                    self.link(pc, &s.defs);
                }
                if b.taint != 0 {
                    self.link(pc, &b.defs);
                }
                if let Some(f) = facts {
                    f.store_addr_load_derived = b.load_derived;
                    if b.taint != 0 {
                        f.sink = Some(SinkInfo {
                            channel: Channel::DCacheStore,
                            taint: b.taint,
                            operand_defs: b.defs.clone(),
                        });
                    }
                }
            }
            Inst::Branch { rs1, rs2, .. } => {
                let a = st.get(rs1);
                let b = st.get(rs2);
                let taint = a.taint | b.taint;
                if taint != 0 {
                    let mut defs = a.defs.clone();
                    defs.extend_from_slice(&b.defs);
                    self.link(pc, &defs);
                    if let Some(f) = facts {
                        f.sink = Some(SinkInfo {
                            channel: Channel::CtrlBranch,
                            taint,
                            operand_defs: defs,
                        });
                    }
                }
            }
            Inst::JmpInd { base } | Inst::CallInd { base } => {
                let b = st.get(base);
                if b.taint != 0 {
                    self.link(pc, &b.defs);
                    if let Some(f) = facts {
                        f.sink = Some(SinkInfo {
                            channel: Channel::Btb,
                            taint: b.taint,
                            operand_defs: b.defs.clone(),
                        });
                    }
                }
                if matches!(inst, Inst::CallInd { .. }) {
                    st.set(
                        nda_isa::reg::RA,
                        RegAbs::def(pc, AbsVal::constant(pc as u64 + 1), 0, false),
                    );
                }
            }
            Inst::Call { .. } => {
                st.set(
                    nda_isa::reg::RA,
                    RegAbs::def(pc, AbsVal::constant(pc as u64 + 1), 0, false),
                );
            }
            Inst::Ret => {
                let ra = st.get(nda_isa::reg::RA);
                if ra.taint != 0 {
                    self.link(pc, &ra.defs);
                    if let Some(f) = facts {
                        f.sink = Some(SinkInfo {
                            channel: Channel::Btb,
                            taint: ra.taint,
                            operand_defs: ra.defs.clone(),
                        });
                    }
                }
            }
            Inst::RdCycle { rd } => {
                st.set(rd, RegAbs::def(pc, AbsVal::TopData, 0, false));
            }
            Inst::RdMsr { rd, idx } => {
                let user_ok = self.p.msr_user_ok.contains(&idx);
                let labeled = self.spec.msr_labeled(idx) || (self.spec.privileged && !user_ok);
                let taint = if labeled {
                    self.source_bit(pc, SourceKind::SecretMsr, !user_ok, true)
                } else {
                    0
                };
                st.set(rd, RegAbs::def(pc, AbsVal::TopData, taint, true));
            }
            Inst::ClFlush { .. }
            | Inst::Jmp { .. }
            | Inst::Fence
            | Inst::SpecOff
            | Inst::SpecOn
            | Inst::Nop
            | Inst::Halt => {}
        }
    }
}

/// Run the dataflow fixpoint over `cfg` and collect per-instruction facts.
pub fn run(p: &Program, spec: &SecretSpec, cfg: &Cfg) -> Analysis {
    let n = p.insts.len();
    let nblocks = cfg.blocks().len();
    let mut eng = Engine {
        p,
        spec,
        source_ids: HashMap::new(),
        sources: Vec::new(),
        taint_from: BTreeMap::new(),
        mem_by_store: BTreeMap::new(),
        wild_mem: 0,
        wild_mem_defs: BTreeSet::new(),
    };

    let handler_block = p.fault_handler.filter(|&h| h < n).map(|h| cfg.block_of(h));
    let entry_block = cfg.block_of(p.entry.min(n.saturating_sub(1)));

    // The memory summaries grow monotonically but feed back into the
    // register fixpoint, so iterate the whole pass until they stabilize
    // (bounded: a handful of tainted stores at most).
    let mut in_states: Vec<Option<State>> = Vec::new();
    for _round in 0..8 {
        let mem_before = (eng.mem_by_store.clone(), eng.wild_mem);
        in_states = vec![None; nblocks];
        in_states[entry_block] = Some(State::entry());
        let mut work: VecDeque<usize> = VecDeque::from([entry_block]);
        let mut queued = vec![false; nblocks];
        queued[entry_block] = true;
        while let Some(bid) = work.pop_front() {
            queued[bid] = false;
            let block = &cfg.blocks()[bid];
            let mut st = match &in_states[bid] {
                Some(s) => s.clone(),
                None => continue,
            };
            let merge = |tgt: usize, st: &State, in_states: &mut Vec<Option<State>>| -> bool {
                match &mut in_states[tgt] {
                    Some(cur) => cur.join_from(st),
                    slot @ None => {
                        *slot = Some(st.clone());
                        true
                    }
                }
            };
            for pc in block.start..block.end {
                eng.transfer(pc, &mut st, None);
                if let Some(hb) = handler_block {
                    if p.insts[pc].may_fault() && merge(hb, &st, &mut in_states) && !queued[hb] {
                        queued[hb] = true;
                        work.push_back(hb);
                    }
                }
            }
            for t in nda_isa::inst_successors(
                p,
                block.end - 1,
                cfg.indirect_targets(),
                cfg.return_sites(),
            ) {
                let tb = cfg.block_of(t);
                if merge(tb, &st, &mut in_states) && !queued[tb] {
                    queued[tb] = true;
                    work.push_back(tb);
                }
            }
        }
        if (eng.mem_by_store.clone(), eng.wild_mem) == mem_before {
            break;
        }
    }

    // Collection pass: re-walk every visited block from its fixed in-state.
    let mut facts = vec![InstFact::default(); n];
    for (bid, block) in cfg.blocks().iter().enumerate() {
        let Some(in_st) = &in_states[bid] else {
            continue;
        };
        let mut st = in_st.clone();
        for (pc, slot) in facts
            .iter_mut()
            .enumerate()
            .take(block.end)
            .skip(block.start)
        {
            let mut f = InstFact::default();
            eng.transfer(pc, &mut st, Some(&mut f));
            *slot = f;
        }
    }

    Analysis {
        sources: eng.sources,
        taint_from: eng.taint_from,
        facts,
    }
}
