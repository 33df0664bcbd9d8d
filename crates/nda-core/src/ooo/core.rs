//! The out-of-order core's cycle loop.
//!
//! Stage order within a cycle (reverse pipeline order, so state written by
//! a younger stage is seen by older stages only next cycle):
//!
//! 1. **commit** — retire completed head entries; deliver faults; apply
//!    stores to architectural memory; train predictors.
//! 2. **writeback** — finish executions due this cycle; resolve branches
//!    (squash + redirect on mispredict); resolve store addresses (replay
//!    squash on memory-order violation); update the BTB speculatively.
//! 3. **restriction** — compute the cycle's speculation [`Shadow`] and run
//!    the active [`Defense`]'s bookkeeping: NDA's shadow log (§5), STT's
//!    untaint frontier, or InvisiSpec exposure.
//! 4. **broadcast** — port-limited tag broadcast from the queue of
//!    completed entries; completing instructions have priority, newly-safe
//!    deferred broadcasts take leftover ports. Each broadcast wakes the
//!    consumers waiting on its register.
//! 5. **issue** — select among the woken entries: only *visible* operands
//!    can be read.
//! 6. **dispatch/rename** — consume the fetch queue into the ROB.
//! 7. **fetch** — predict and follow (possibly wrong) paths.

use super::frontend::{FrontEnd, FrontEndConfig, Prediction};
use super::invariants::{InvariantKind, InvariantViolation};
use super::rename::{FreeList, PReg, PhysRegFile, RenameTable};
use super::rob::{Rob, RobEntry, Shadow};
use crate::config::SimConfig;
use crate::policy::{Border, Defense, Propagation};
use crate::run::{RunResult, SimError};
use crate::snapshot::{HeadInfo, HeadWait, PipelineSnapshot};
use nda_isa::inst::Src2;
use nda_isa::{Fault, Inst, Interp, MsrFile, PrivilegeMap, Program, SparseMem};
use nda_mem::{MemHier, MemHierState};
use nda_predict::{Btb, BtbState, DirPredictor};
use nda_stats::{CpiClass, SimStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The out-of-order core. Construct with [`OooCore::new`], drive with
/// [`OooCore::run`] (or [`OooCore::step_cycle`] for tracing).
#[derive(Debug, Clone)]
pub struct OooCore {
    pub(crate) cfg: SimConfig,
    pub(crate) program: Program,

    /// Architectural memory (committed state + data the wrong path may
    /// read).
    pub mem: SparseMem,
    /// Model-specific registers.
    pub msrs: MsrFile,
    priv_map: PrivilegeMap,
    /// The cache/DRAM timing model.
    pub hier: MemHier,

    pub(crate) prf: PhysRegFile,
    pub(crate) free: FreeList,
    pub(crate) rename: RenameTable,
    pub(crate) rob: Rob,
    /// The issue queue: dispatched sequence numbers in age order, trimmed
    /// only at the front. Its front is the oldest un-issued entry; entries
    /// issued out of order stay until they reach the front.
    pub(crate) iq: VecDeque<u64>,
    /// Issue-queue occupancy: the un-issued entries in `iq`.
    pub(crate) iq_len: usize,
    /// The issue-queue entries whose sources are all visible, ascending:
    /// the only entries `issue` looks at.
    pub(crate) ready: Vec<u64>,
    /// Per physical register, the unissued consumers waiting for its
    /// broadcast, ascending, once per source slot that reads it.
    pub(crate) waiters: Vec<Vec<u64>>,
    /// In-flight load sequence numbers, ascending.
    pub(crate) lq: Vec<u64>,
    /// In-flight store sequence numbers, ascending.
    pub(crate) sq: Vec<u64>,
    pub(crate) fe: FrontEnd,

    cycle: u64,
    next_seq: u64,
    halted: bool,
    pending_error: Option<SimError>,
    /// Cycle of the most recent successful commit (forward-progress
    /// watchdog).
    last_commit_cycle: u64,
    /// Shadow reference interpreter, stepped in lockstep with retirement
    /// when `check_invariants` is on: any wrong-path instruction reaching
    /// commit, or a committed result diverging from architecture, is caught
    /// at the exact retiring instruction.
    oracle: Option<Box<Interp>>,
    /// Completion event queue: `(done_cycle, seq)` min-heap. Writeback pops
    /// due events instead of scanning the whole ROB every cycle. Events are
    /// never cancelled on squash; staleness (a squashed entry, or a re-used
    /// sequence number) is filtered at pop time by re-checking the entry's
    /// own `done_cycle` against the event.
    events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Pending `Fence` sequence numbers, ascending; the front is the fence
    /// border (younger micro-ops may not issue past it). Fences issue only
    /// from the ROB head, so they complete strictly in queue order.
    pending_fences: VecDeque<u64>,
    /// This cycle's speculation borders (stale under `Defense::None`,
    /// which never reads them).
    pub(crate) shadow: Shadow,
    /// NDA only: each change of the shadow with the cycle it took effect,
    /// back to the one in force when the ROB head was first judged.
    shadow_log: VecDeque<(u64, Shadow)>,
    /// Per register, its youngest root of taint (YRoT): the sequence
    /// number of the youngest load-like micro-op its value depends on,
    /// bound at dispatch; 0 (no root) once committed or squashed.
    pub(crate) yrot: Vec<u64>,
    /// Per register, the sequence number of its latest producer.
    producer: Vec<u64>,
    /// STT only: the taint bits, kept from a frontier (empty otherwise).
    pub(crate) stt: TaintFrontier,
    /// The invariant checker's STT oracle (see `invariants::ripple_taint`).
    pub(crate) taint_walk: super::invariants::TaintWalk,
    /// The broadcast queue: ascending sequence numbers of the completed,
    /// not yet broadcast entries with a destination.
    pub(crate) bq: Vec<u64>,
    /// Inside a Listing-4 no-speculation window (`SpecOff` committed, no
    /// `SpecOn` yet): dispatch admits one instruction at a time.
    spec_window: bool,
    /// `SpecOff` micro-ops in flight: like an x86 serialising instruction,
    /// dispatch stalls behind one until it commits (or squashes) — the
    /// window must engage before anything younger enters the back end.
    specoff_pending: u32,
    /// Cycle the multiply/divide unit last finished work (`None` = powered
    /// down). Only consulted when the FPU power model is on.
    fpu_busy_until: Option<u64>,
    /// The (non-pipelined) divider is occupied until this cycle — the
    /// port-contention covert channel of SMoTherSpectre.
    div_busy_until: u64,
    /// Pipeline event log (None unless tracing is enabled).
    tracer: Option<Vec<crate::trace::TraceEvent>>,
    /// Cycle of the most recent front-end redirect (mispredict, replay or
    /// fault): an empty ROB within `fetch_to_dispatch + 1` cycles of it is
    /// squash refill, not an i-cache miss (CPI-stack attribution).
    last_redirect_cycle: Option<u64>,
    /// Why dispatch stopped this cycle, if a back-end structure was full.
    dispatch_block: Option<DispatchBlock>,
    /// Scratch buffers reused across cycles so the hot loop performs no
    /// heap allocation in steady state.
    scratch_due: Vec<(u64, u64)>,
    scratch_issued_idx: Vec<usize>,
    /// Cycle at the last `reset_stats` (stats.cycles is relative to it).
    stats_base_cycle: u64,
    /// Statistics for the run.
    pub stats: SimStats,
}

impl OooCore {
    /// Build a core with the program's data segment and MSR file loaded.
    pub fn new(cfg: SimConfig, program: &Program) -> OooCore {
        let mut mem = SparseMem::new();
        for init in &program.data {
            mem.write_bytes(init.addr, &init.bytes);
        }
        let n = cfg.core.num_pregs;
        let stt_n = match cfg.defense {
            Defense::GateTransmit {
                propagated_untaint: true,
                ..
            } => n,
            _ => 0,
        };
        let fe_cfg = FrontEndConfig {
            fetch_width: cfg.core.fetch_width,
            fetch_to_dispatch: cfg.core.fetch_to_dispatch,
            fetch_buffer: cfg.core.fetch_buffer,
        };
        OooCore {
            mem,
            msrs: MsrFile::from_program(program),
            priv_map: PrivilegeMap,
            hier: MemHier::new(cfg.mem),
            prf: PhysRegFile::new(cfg.core.num_pregs),
            free: FreeList::new(cfg.core.num_pregs),
            rename: RenameTable::new(),
            rob: Rob::new(cfg.core.rob_entries),
            iq: VecDeque::new(),
            iq_len: 0,
            ready: Vec::new(),
            waiters: vec![Vec::new(); n],
            lq: Vec::new(),
            sq: Vec::new(),
            fe: FrontEnd::new(
                fe_cfg,
                DirPredictor::new(cfg.core.predictor_kind, cfg.core.gshare),
                Btb::new(cfg.core.btb),
                program.entry,
            ),
            cycle: 0,
            next_seq: 0,
            halted: false,
            pending_error: None,
            last_commit_cycle: 0,
            oracle: cfg.check_invariants.then(|| Box::new(Interp::new(program))),
            events: BinaryHeap::new(),
            pending_fences: VecDeque::new(),
            shadow: Shadow::NONE,
            shadow_log: VecDeque::new(),
            yrot: vec![0; n],
            producer: vec![0; n],
            stt: TaintFrontier::new(stt_n),
            taint_walk: Default::default(),
            bq: Vec::with_capacity(cfg.core.rob_entries),
            spec_window: false,
            specoff_pending: 0,
            fpu_busy_until: None,
            div_busy_until: 0,
            tracer: None,
            last_redirect_cycle: None,
            dispatch_block: None,
            scratch_due: Vec::new(),
            scratch_issued_idx: Vec::new(),
            stats_base_cycle: 0,
            stats: SimStats::new(),
            program: program.clone(),
            cfg,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `true` once `Halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Free physical registers (for the conservation invariants in tests:
    /// with an empty ROB every non-architectural register must be free).
    pub fn free_pregs(&self) -> usize {
        self.free.available()
    }

    /// In-flight ROB entries.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// `true` if any physical register is currently tainted (for the
    /// untaint-drain property: an empty ROB implies no taint).
    pub fn any_preg_tainted(&self) -> bool {
        (0..self.prf.len() as PReg).any(|p| self.tainted(p))
    }

    /// Reset the statistics counters mid-run (SMARTS-style sampling:
    /// warm up, reset, measure). Architectural and micro-architectural
    /// state (caches, predictors, ROB) is untouched.
    ///
    /// Note: `stats.cycles` restarts from zero while [`OooCore::cycle`]
    /// keeps counting, so CPI over the measurement window is
    /// `stats.cycles / stats.committed_insts` as usual.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new();
        self.stats_base_cycle = self.cycle;
    }

    /// Start logging pipeline events (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.tracer = Some(Vec::new());
    }

    /// The logged pipeline events (empty unless tracing is enabled).
    pub fn trace_events(&self) -> &[crate::trace::TraceEvent] {
        self.tracer.as_deref().unwrap_or(&[])
    }

    /// Drain the logged pipeline events, leaving the buffer empty but
    /// tracing enabled. Lets long-running consumers (e.g. `nda-verify`'s
    /// transient-taint tracker) process events incrementally with bounded
    /// memory instead of accumulating a whole run's trace.
    pub fn take_trace_events(&mut self) -> Vec<crate::trace::TraceEvent> {
        match &mut self.tracer {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// The instruction at `pc` (every in-flight micro-op's pc is in the
    /// program text: fetch read it there).
    #[inline]
    pub(crate) fn inst(&self, pc: usize) -> Inst {
        self.program.insts[pc]
    }

    #[inline]
    fn trace_event(&mut self, seq: u64, pc: usize, stage: crate::trace::TraceStage) {
        self.trace_event_mem(seq, pc, stage, None);
    }

    #[inline]
    fn trace_event_mem(
        &mut self,
        seq: u64,
        pc: usize,
        stage: crate::trace::TraceStage,
        mem: Option<(u64, u64)>,
    ) {
        if self.tracer.is_some() {
            self.log_trace_event(seq, pc, stage, mem);
        }
    }

    /// Append one event to the trace log (out of line: only a traced run
    /// pays for it).
    #[cold]
    #[inline(never)]
    fn log_trace_event(
        &mut self,
        seq: u64,
        pc: usize,
        stage: crate::trace::TraceStage,
        mem: Option<(u64, u64)>,
    ) {
        if let Some(t) = &mut self.tracer {
            t.push(crate::trace::TraceEvent {
                cycle: self.cycle,
                seq,
                pc,
                disasm: self.program.insts[pc].to_string(),
                stage,
                mem,
            });
        }
    }

    /// Committed architectural value of register `r`.
    pub fn reg(&self, r: nda_isa::Reg) -> u64 {
        self.prf.value(self.committed_preg(r))
    }

    /// All 32 committed architectural register values.
    pub fn regs(&self) -> [u64; 32] {
        let mut out = [0u64; 32];
        for r in nda_isa::Reg::all() {
            out[r.index()] = self.reg(r);
        }
        out
    }

    /// The physical register holding the *committed* value of `r`: walk the
    /// ROB youngest-first to skip in-flight renames.
    pub(crate) fn committed_preg(&self, r: nda_isa::Reg) -> PReg {
        // The speculative map minus every in-flight rename of r: the oldest
        // in-flight entry renaming r stores the committed mapping.
        let mut committed = self.rename.lookup(r);
        for e in self.rob.iter() {
            if e.arch_rd == Some(r) {
                committed = e.old_prd.expect("renamed entry has old mapping");
                break;
            }
        }
        committed
    }

    /// Run until `Halt` commits or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the budget is exhausted,
    /// [`SimError::UnhandledFault`] if a fault commits with no handler,
    /// [`SimError::Stalled`] if the forward-progress watchdog fires,
    /// [`SimError::InvariantViolation`] if the invariant checker is enabled
    /// and a conservation law breaks.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        self.run_hooked(max_cycles, |_| {})
    }

    /// [`OooCore::run`] with a hook called before every cycle — the
    /// fault-injection point of the differential harness (`nda-verify`):
    /// the hook may squash, corrupt predictors or perturb memory latency,
    /// and the run must still retire the architecturally correct stream.
    ///
    /// # Errors
    ///
    /// See [`OooCore::run`].
    pub fn run_hooked(
        &mut self,
        max_cycles: u64,
        mut hook: impl FnMut(&mut OooCore),
    ) -> Result<RunResult, SimError> {
        while !self.halted {
            if self.cycle >= max_cycles {
                return Err(self.cycle_limit_error());
            }
            hook(self);
            self.step_cycle();
            if let Some(err) = self.pending_error.take() {
                return Err(err);
            }
            if self.cfg.check_invariants {
                if let Err(v) = super::invariants::check(self) {
                    return Err(SimError::InvariantViolation(v));
                }
            }
            if let Some(err) = self.watchdog_error() {
                return Err(err);
            }
        }
        Ok(self.result())
    }

    /// [`OooCore::run`] while streaming pipeline events into `sink`
    /// (enabling tracing if it is off). The sink is a pure observer: the
    /// committed state and cycle counts are identical with or without it
    /// (pinned by the `cycle_exact` and exporter golden tests).
    ///
    /// # Errors
    ///
    /// See [`OooCore::run`]. Events already emitted (including those of the
    /// failing cycle) are flushed to the sink before the error returns.
    pub fn run_with_sink(
        &mut self,
        max_cycles: u64,
        sink: &mut dyn crate::trace::EventSink,
    ) -> Result<RunResult, SimError> {
        if self.tracer.is_none() {
            self.enable_trace();
        }
        let result = self.run_hooked(max_cycles, |core| {
            for ev in core.take_trace_events() {
                sink.event(&ev);
            }
        });
        for ev in self.take_trace_events() {
            sink.event(&ev);
        }
        sink.finish();
        result
    }

    /// A [`SimError::CycleLimit`] carrying the current pipeline snapshot.
    pub(crate) fn cycle_limit_error(&mut self) -> SimError {
        SimError::CycleLimit {
            cycles: self.cycle,
            snapshot: Some(Box::new(self.snapshot())),
        }
    }

    /// The forward-progress watchdog check: `Some(SimError::Stalled)` when
    /// a watchdog window is configured and no instruction has committed
    /// for a whole window. Every detailed-execution loop — whole-run
    /// ([`OooCore::run_hooked`]) and sampled windows
    /// (`sampled::run_window`) — must consult this each cycle, so a
    /// wedged pipeline is reported identically everywhere.
    pub(crate) fn watchdog_error(&mut self) -> Option<SimError> {
        let window = self.cfg.watchdog_window?;
        if !self.halted && self.cycle.saturating_sub(self.last_commit_cycle) >= window {
            return Some(SimError::Stalled {
                cycles: self.cycle,
                window,
                snapshot: Box::new(self.snapshot()),
            });
        }
        None
    }

    /// Capture the diagnostic pipeline state (attached to watchdog, cycle
    /// limit and invariant errors). Needs `&mut self` only to drain retired
    /// MSHR entries before counting the outstanding ones.
    pub fn snapshot(&mut self) -> PipelineSnapshot {
        let now = self.cycle;
        let head = self.rob.head().map(|e| {
            let wait = if !e.completed() {
                if e.issued() {
                    HeadWait::Executing
                } else {
                    HeadWait::WaitingToIssue
                }
            } else if e.fault().is_some() {
                HeadWait::FaultPending
            } else if e.is_probe() && e.exposure_done().map(|d| d <= now) != Some(true) {
                HeadWait::AwaitingExposure
            } else if e.is_store() {
                HeadWait::AwaitingStoreCommit
            } else {
                HeadWait::ReadyToRetire
            };
            HeadInfo {
                seq: e.seq,
                pc: e.pc(),
                disasm: self.program.insts[e.pc()].to_string(),
                wait,
            }
        });
        let iq_ready = self.ready.len();
        PipelineSnapshot {
            cycle: now,
            last_commit_cycle: self.last_commit_cycle,
            rob_occupancy: self.rob.len(),
            rob_capacity: self.cfg.core.rob_entries,
            head,
            iq_ready,
            iq_waiting: self.iq_len - iq_ready,
            lq_occupancy: self.lq.len(),
            sq_occupancy: self.sq.len(),
            free_pregs: self.free.available(),
            fetch_queued: self.fe.queued(),
            mshrs_outstanding: self.hier.mshr_outstanding(now),
            stats: self.stats,
        }
    }

    /// Test-only sabotage hook: silently steal one physical register from
    /// the free list, as a buggy commit path that forgot to release
    /// `old_prd` would. The invariant checker must flag the broken
    /// conservation law on the very next cycle; without it the symptom is a
    /// slow free-list drain and an eventual dispatch wedge.
    pub fn debug_inject_free_list_leak(&mut self) -> Option<PReg> {
        self.free.alloc()
    }

    /// Record an invariant failure discovered outside the end-of-cycle walk
    /// (the commit-time oracle); the run loop surfaces it after this cycle.
    fn fail_invariant(&mut self, kind: InvariantKind, detail: String) {
        if self.pending_error.is_none() {
            let v = InvariantViolation {
                cycle: self.cycle,
                kind,
                detail,
                snapshot: self.snapshot(),
            };
            self.pending_error = Some(SimError::InvariantViolation(Box::new(v)));
        }
    }

    /// Snapshot the current run result.
    pub fn result(&self) -> RunResult {
        RunResult {
            stats: self.stats,
            mem_stats: self.hier.stats(),
            regs: self.regs(),
            halted: self.halted,
            host_ns: 0,
            sampled: None,
        }
    }

    /// Load architectural and warmed micro-architectural state from a
    /// sampled-simulation checkpoint (see [`crate::sampled`]).
    ///
    /// The architectural registers are written through the identity rename
    /// map, memory/MSRs are cloned from the interpreter (page sharing makes
    /// that cheap), the warmed lines and BTB entries are written into the
    /// core's own cold hierarchy and BTB — nothing of the size of a cache
    /// array is cloned or allocated — and the direction predictor and RAS
    /// replace the cold ones. When the invariant checker is on, the
    /// commit-time oracle is re-seeded from the same interpreter so
    /// lockstep checking continues to work mid-program.
    ///
    /// # Panics
    ///
    /// Panics unless the core is freshly constructed (cycle 0, empty
    /// pipeline): restoring into a live pipeline would corrupt renaming.
    /// Panics too if the snapshots do not fit the core's cache or BTB
    /// geometry.
    pub fn restore_checkpoint(
        &mut self,
        interp: &Interp,
        hier: &MemHierState,
        dir: &DirPredictor,
        btb: &BtbState,
        ras: &nda_predict::Ras,
    ) {
        assert!(
            self.cycle == 0 && self.rob.is_empty() && self.next_seq == 0,
            "checkpoint restore requires a freshly constructed core"
        );
        // Fresh core ⇒ identity rename map and p0..p31 ready+visible, so
        // writing through the map sets the committed architectural values.
        for r in nda_isa::Reg::all() {
            self.prf.write(self.rename.lookup(r), interp.reg(r));
        }
        self.mem = interp.mem.clone();
        self.msrs = interp.msrs.clone();
        let fits = self.hier.restore_state(hier) && self.fe.btb.restore_state(btb);
        assert!(
            fits,
            "checkpoint does not fit the core's cache or BTB geometry"
        );
        self.fe.fetch_pc = interp.pc();
        self.fe.dir = dir.clone();
        self.fe.ras = ras.clone();
        self.halted = interp.halted();
        if self.oracle.is_some() {
            self.oracle = Some(Box::new(interp.clone()));
        }
    }

    /// Advance one cycle.
    pub fn step_cycle(&mut self) {
        self.dispatch_block = None;
        let committed = self.commit();
        if self.halted || self.pending_error.is_some() {
            self.classify_cycle(committed);
            self.cycle += 1;
            self.stats.cycles = self.cycle - self.stats_base_cycle;
            return;
        }
        self.writeback();
        self.restrict();
        self.broadcast();
        self.issue();
        self.dispatch();
        self.fe
            .fetch_cycle(self.cycle, &self.program, &mut self.hier);
        self.classify_cycle(committed);
        self.cycle += 1;
        self.stats.cycles = self.cycle - self.stats_base_cycle;
    }

    // ------------------------------------------------------------------
    // Stage 1: commit
    // ------------------------------------------------------------------

    fn commit(&mut self) -> u64 {
        let mut committed = 0;
        while committed < self.cfg.core.commit_width as u64 {
            let Some(head) = self.rob.head() else { break };
            if !head.completed() {
                break;
            }
            // InvisiSpec: a speculative load may not retire before its
            // exposure/validation finishes.
            if head.is_probe() {
                match head.exposure_done() {
                    Some(d) if d <= self.cycle => {}
                    _ => break,
                }
            }
            if let Some(fault) = head.fault() {
                let head_pc = head.pc();
                self.oracle_fault(head_pc);
                self.deliver_fault(fault);
                break;
            }
            // Stores perform their architectural write and cache fill at
            // commit; an exhausted MSHR file stalls retirement.
            if head.is_store() {
                let (addr, size) = head.mem().expect("completed store has address");
                let data = head.store_data().expect("completed store has data");
                if self.hier.access_data(addr, self.cycle).is_none() {
                    break;
                }
                self.mem.write(addr, data, size);
            }
            // Retirement reads the hot line, and a branch's prediction and
            // outcome; copied out so the rest of commit can borrow the core.
            let head = self.rob.pop_head().expect("head exists");
            let (e, branch) = (*head.hot(), head.prediction().zip(head.outcome()));
            if let Some(slot) = branch.and_then(|(pred, _)| pred.ras_after) {
                self.fe.ras_snaps.release(slot);
            }
            self.oracle_retire(&e);
            if let Some(prd) = e.prd {
                // A committed value is untainted by definition (STT's image
                // keeps last cycle's bit: the untaint still ripples).
                self.yrot[prd as usize] = 0;
                self.stt.clear_committed(prd);
                // Tag broadcast at retirement is always permitted: the head
                // of the ROB is non-speculative by definition (paper §4.3).
                if !e.broadcasted() {
                    self.wake(prd);
                    let queued = self.bq.remove(0);
                    debug_assert_eq!(queued, e.seq, "the head is the oldest queued entry");
                    self.stats.broadcasts += 1;
                    if e.complete_cycle < self.cycle {
                        self.stats.deferred_broadcasts += 1;
                        self.stats.defer_hist.observe(self.cycle - e.complete_cycle);
                    }
                    self.trace_event(e.seq, e.pc(), crate::trace::TraceStage::Broadcast);
                }
            }
            self.trace_event(e.seq, e.pc(), crate::trace::TraceStage::Commit);
            if let Some(old) = e.old_prd {
                self.free.release(old);
            }
            if e.is_load_like() {
                self.stats.committed_loads += 1;
                debug_assert_eq!(self.lq.first(), Some(&e.seq));
                self.lq.remove(0);
            } else if e.is_store() {
                self.stats.committed_stores += 1;
                debug_assert_eq!(self.sq.first(), Some(&e.seq));
                self.sq.remove(0);
            } else if let Some((pred, outcome)) = branch {
                self.stats.committed_branches += 1;
                self.train_predictors(e.pc(), pred, outcome);
            }
            self.stats.committed_insts += 1;
            committed += 1;
            if e.is_serializing() {
                match self.inst(e.pc()) {
                    Inst::SpecOff => {
                        self.spec_window = true;
                        self.specoff_pending -= 1;
                    }
                    Inst::SpecOn => self.spec_window = false,
                    Inst::Halt => self.halted = true,
                    _ => {}
                }
            }
            if self.halted {
                break;
            }
        }
        if committed > 0 {
            self.last_commit_cycle = self.cycle;
        }
        committed
    }

    /// Step the shadow interpreter alongside a retiring instruction and
    /// compare program counter and destination value. `RdCycle` results are
    /// timing-dependent by design and are not compared (nor are any values
    /// derived from them — enable the checker only on RdCycle-free
    /// programs, which is what `genprog` emits).
    fn oracle_retire(&mut self, e: &RobEntry) {
        let Some(oracle) = self.oracle.as_mut() else {
            return;
        };
        let inst = self.program.insts[e.pc()];
        let want_pc = oracle.pc();
        if want_pc != e.pc() {
            self.fail_invariant(
                InvariantKind::CommitDivergence,
                format!(
                    "retiring seq {} pc {} `{}` but the reference pc is {want_pc} \
                     (wrong-path instruction reached commit)",
                    e.seq,
                    e.pc(),
                    inst
                ),
            );
            return;
        }
        let _ = oracle.step();
        if matches!(inst, Inst::RdCycle { .. }) {
            return;
        }
        if let Some(rd) = e.arch_rd {
            if !rd.is_zero() {
                let want = self.oracle.as_ref().expect("oracle present").reg(rd);
                if want != e.result {
                    self.fail_invariant(
                        InvariantKind::CommitDivergence,
                        format!(
                            "seq {} pc {} `{}` committed {:#x} into {rd:?} but the \
                             reference value is {want:#x}",
                            e.seq,
                            e.pc(),
                            inst,
                            e.result
                        ),
                    );
                }
            }
        }
    }

    /// Mirror a fault delivery in the shadow interpreter: the faulting
    /// instruction does not retire; the interpreter transfers to the
    /// handler internally (or errors, when there is none — the core ends
    /// the run with `UnhandledFault` either way).
    fn oracle_fault(&mut self, head_pc: usize) {
        let Some(oracle) = self.oracle.as_mut() else {
            return;
        };
        let want_pc = oracle.pc();
        if want_pc != head_pc {
            self.fail_invariant(
                InvariantKind::CommitDivergence,
                format!("delivering a fault at pc {head_pc} but the reference pc is {want_pc}"),
            );
            return;
        }
        let _ = oracle.step();
    }

    /// Commit-time training on a retiring branch at `pc`, from its
    /// prediction and its `(taken, next)` outcome.
    fn train_predictors(&mut self, pc: usize, pred: Prediction, (taken, next): (bool, usize)) {
        let addr = self.program.inst_addr(pc);
        match self.inst(pc) {
            Inst::Branch { .. } => {
                self.fe.dir.train(addr, pred.ghr_before, taken, pred.taken);
            }
            Inst::JmpInd { .. } | Inst::CallInd { .. } if !self.cfg.core.btb.speculative_update => {
                self.fe.btb.update(addr, next);
            }
            _ => {}
        }
    }

    fn deliver_fault(&mut self, fault: Fault) {
        self.stats.faults += 1;
        self.squash_from(0);
        self.last_redirect_cycle = Some(self.cycle);
        match self.program.fault_handler {
            Some(h) => self.fe.redirect(self.cycle, h),
            None => {
                if self.pending_error.is_none() {
                    self.pending_error = Some(SimError::UnhandledFault(fault));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage 2: writeback / resolution
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        let now = self.cycle;
        // Pop due completion events. The heap orders by (cycle, seq), and
        // every live event fires exactly at its cycle (writeback runs each
        // cycle), so the processing order equals the old full-ROB scan's
        // age order. Collected first to avoid borrowing fights; each entry
        // completes exactly once.
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        while let Some(&Reverse((d, _))) = self.events.peek() {
            if d > now {
                break;
            }
            let Reverse(ev) = self.events.pop().expect("peeked");
            due.push(ev);
        }
        for (d, seq) in due.drain(..) {
            // A squash (younger entry removed mid-loop, or an injected one
            // in an earlier cycle) may have invalidated the event; a re-used
            // sequence number may even name a different instruction. The
            // entry's own `done_cycle` is the ground truth: only complete an
            // unfinished entry whose completion is due at this event.
            let Some(mut e) = self.rob.get_mut(seq) else {
                continue;
            };
            if e.completed() || !e.issued() || e.done_cycle != d {
                continue;
            }
            e.set_completed(now);
            let pc = e.pc();
            self.trace_event(seq, pc, crate::trace::TraceStage::Complete);
            let Some(mut e) = self.rob.get_mut(seq) else {
                continue;
            };
            if let Some(prd) = e.prd {
                self.prf.write(prd, e.result);
                // Completions arrive out of age order.
                let at = self.bq.partition_point(|&s| s < seq);
                self.bq.insert(at, seq);
            } else {
                // Nothing to broadcast: the bcast bit is trivially done.
                e.set_broadcasted();
            }
            if e.is_branch() {
                e.set_resolved();
                let pred = e.view().prediction().expect("a branch has a prediction");
                let (actual_taken, actual_next) = e.view().outcome().expect("issued branch");
                let mispredicted = actual_next != pred.next;
                let inst = self.inst(pc);
                // Speculative BTB update: happens at execution, wrong-path
                // included, and is not reverted on squash — the covert
                // channel of paper §3.
                if matches!(inst, Inst::JmpInd { .. } | Inst::CallInd { .. })
                    && self.cfg.core.btb.speculative_update
                {
                    let addr = self.program.inst_addr(pc);
                    self.fe.btb.update(addr, actual_next);
                }
                if mispredicted {
                    self.stats.branch_mispredicts += 1;
                    self.trace_event(seq, pc, crate::trace::TraceStage::Mispredict);
                    if matches!(inst, Inst::Branch { .. }) {
                        self.fe.dir.recover(pred.ghr_before, actual_taken);
                    }
                    if let Some(slot) = pred.ras_after {
                        self.fe.ras.restore(self.fe.ras_snaps.get(slot));
                    }
                    self.squash_from(seq + 1);
                    self.last_redirect_cycle = Some(now);
                    self.fe.redirect(now, actual_next);
                }
            } else if e.is_store() {
                // Address now resolved: check younger executed loads for
                // memory-order violations (speculative store bypass gone
                // wrong -> replay).
                self.check_order_violation(seq);
            } else if e.is_serializing() && matches!(self.inst(pc), Inst::Fence) {
                // Fences issue only from the ROB head, so the completing
                // fence is always the oldest pending one.
                let popped = self.pending_fences.pop_front();
                debug_assert_eq!(popped, Some(seq));
            }
        }
        self.scratch_due = due;
    }

    /// The oldest pending `Fence` (younger micro-ops may not issue past
    /// it). Maintained incrementally: pushed at dispatch, popped when the
    /// fence completes, trimmed on squash.
    #[inline]
    fn fence_border(&self) -> Option<u64> {
        self.pending_fences.front().copied()
    }

    /// On store resolution: any younger load that already executed with an
    /// overlapping address, and whose data did not come from this store or
    /// a younger one, read stale data and must replay.
    fn check_order_violation(&mut self, store_seq: u64) {
        let st = self.rob.get(store_seq).expect("store exists");
        let (st_addr, st_size) = st.mem().expect("resolved");
        let mut victim: Option<(u64, usize)> = None;
        for &lseq in &self.lq {
            if lseq <= store_seq {
                continue;
            }
            let Some(l) = self.rob.get(lseq) else {
                continue;
            };
            let Some((l_addr, l_size)) = l.mem() else {
                continue;
            };
            if !overlaps(st_addr, st_size, l_addr, l_size) {
                continue;
            }
            let stale = match l.forwarded_from() {
                None => true,
                Some(src) => src < store_seq,
            };
            if stale {
                victim = Some((lseq, l.pc()));
                break; // oldest violating load
            }
        }
        if let Some((lseq, lpc)) = victim {
            self.stats.mem_order_violations += 1;
            self.squash_from(lseq);
            self.last_redirect_cycle = Some(self.cycle);
            self.fe.redirect(self.cycle, lpc);
        }
    }

    // ------------------------------------------------------------------
    // Stage 3: the speculation shadow and the active restriction
    // ------------------------------------------------------------------

    /// Compute this cycle's [`Shadow`] and run the active defense's
    /// bookkeeping. NDA's and ShadowBinding's restrictions are compares
    /// against the shadow where they are read; STT's propagated untaint
    /// steps its frontier.
    fn restrict(&mut self) {
        let defense = self.cfg.defense;
        if defense == Defense::None {
            return;
        }
        self.shadow = Shadow::of(&mut self.rob, &self.sq);
        match defense {
            Defense::DelayBroadcast { .. } => self.log_shadow(),
            Defense::InvisibleLoad(border) => self.expose_invisible_loads(border),
            Defense::GateTransmit {
                border,
                propagated_untaint: true,
            } => self.stt.advance(&self.rob, &self.lq, &self.shadow, border),
            _ => {}
        }
    }

    /// Log this cycle's shadow if it changed, and drop the records before
    /// the one in force when the head (the oldest entry) was first judged.
    fn log_shadow(&mut self) {
        let now = self.cycle;
        if self.shadow_log.back().map(|&(_, s)| s) != Some(self.shadow) {
            self.shadow_log.push_back((now, self.shadow));
        }
        let first = self.rob.head().map_or(now + 1, |e| e.dispatch_cycle + 1);
        while self.shadow_log.get(1).is_some_and(|&(c, _)| c <= first) {
            self.shadow_log.pop_front();
        }
    }

    /// NDA's `unsafe` bit, inverted: may `e` broadcast now? An entry is
    /// first judged the cycle after its dispatch (a `Call` completes at
    /// dispatch but does not broadcast that cycle).
    pub(crate) fn is_safe(&self, e: &RobEntry) -> bool {
        e.dispatch_cycle < self.cycle && self.safe_under(&self.shadow, e)
    }

    /// NDA (paper §5, Table 2) over `shadow`: a load is unsafe past the
    /// unresolved-branch border under either propagation rule (any micro-op
    /// under strict), past the store border under the Bypass Restriction,
    /// and past the head border under the Load Restriction.
    fn safe_under(&self, shadow: &Shadow, e: &RobEntry) -> bool {
        let Defense::DelayBroadcast {
            propagation,
            bypass_restriction,
            load_restriction,
        } = self.cfg.defense
        else {
            return true;
        };
        let load = e.is_load_like();
        let branch_unsafe = match propagation {
            Propagation::Off => false,
            Propagation::Permissive => load,
            Propagation::Strict => true,
        };
        !((branch_unsafe && shadow.covers(Border::UnresolvedBranch, e.seq))
            || (load && bypass_restriction && shadow.covers(Border::Store, e.seq))
            || (load && load_restriction && shadow.covers(Border::Head, e.seq)))
    }

    /// While `e` is safe: the first cycle of its current safe run, read
    /// back from the shadow log (the Fig 9e extra delay counts from it).
    fn safe_since(&self, e: &RobEntry) -> u64 {
        let first = e.dispatch_cycle + 1;
        let log = &self.shadow_log;
        for i in (0..log.len()).rev() {
            let (cycle, shadow) = log[i];
            if !self.safe_under(&shadow, e) {
                return log.get(i + 1).map_or(first, |&(c, _)| c);
            }
            if cycle <= first {
                break;
            }
        }
        first
    }

    /// `true` once `e` has been safe for the Fig 9e extra broadcast delay
    /// (with none, whenever it is safe: `safe_since <= now` then).
    fn released(&self, e: &RobEntry) -> bool {
        let extra = self.cfg.core.broadcast_extra_delay;
        self.is_safe(e) && (extra == 0 || self.safe_since(e) + extra <= self.cycle)
    }

    /// InvisiSpec: expose every completed probe load the border has passed.
    /// Probes are loads, and a border's shadow is a suffix of the ROB, so
    /// the walk covers the load queue only up to the first load in the
    /// shadow.
    fn expose_invisible_loads(&mut self, border: Border) {
        let now = self.cycle;
        for i in 0..self.lq.len() {
            let seq = self.lq[i];
            if self.shadow.covers(border, seq) {
                break;
            }
            let e = self.rob.get(seq).expect("lq entry");
            if !e.is_probe() || !e.completed() || e.exposure_done().is_some() {
                continue;
            }
            let addr = e.mem_addr().expect("probe has address");
            let done = if e.bypassed_unresolved() {
                // The load speculated past an unresolved store address:
                // InvisiSpec *validates* with a full re-access before the
                // load may retire. MSHR-full: retry next cycle.
                match self.hier.access_data(addr, now) {
                    Some(acc) => now + acc.latency,
                    None => continue,
                }
            } else {
                // Plain exposure: the line moves from the load's
                // speculative buffer into the cache; only an L1 fill is
                // paid.
                self.hier.install_data_line(addr);
                now + self.cfg.mem.l1d.latency
            };
            let mut e = self.rob.get_mut(seq).expect("lq entry");
            e.set_exposure_done(done);
        }
    }

    /// Which operand slot of `inst` feeds a *transmit* channel — an
    /// address or indirect control-flow target whose value modulates a
    /// micro-architectural side effect (cache set, BTB entry). Conditional
    /// branch conditions are deliberately absent: STT gates explicit
    /// channels only, leaving the branch-direction implicit channel (and
    /// the execution-unit contention it steers) open — see the
    /// NetSpectre/SMoTherSpectre rows of the verdict matrix.
    pub(crate) fn transmit_slot(inst: &Inst) -> Option<usize> {
        match inst {
            Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::ClFlush { .. }
            | Inst::JmpInd { .. }
            | Inst::CallInd { .. }
            | Inst::Ret => Some(0),
            _ => None,
        }
    }

    /// `true` while the transmit gate treats `p` as tainted: its YRoT is
    /// in the border's shadow (flash untaint), or STT's frontier set its
    /// bit.
    pub(crate) fn tainted(&self, p: PReg) -> bool {
        match self.cfg.defense {
            Defense::GateTransmit {
                propagated_untaint: true,
                ..
            } => self.stt.bits[p as usize],
            Defense::GateTransmit { border, .. } => {
                self.shadow.covers(border, self.yrot[p as usize])
            }
            _ => false,
        }
    }

    /// `true` while the transmit gate must withhold issue of `e`: it is a
    /// transmitting micro-op and the operand feeding its transmit channel
    /// is currently tainted. Not monotone (taint clears at resolution), so
    /// the gate re-checks every cycle a ready entry is considered.
    fn taint_gated(&self, e: &RobEntry) -> bool {
        let Some(slot) = Self::transmit_slot(&self.inst(e.pc())) else {
            return false;
        };
        e.src_pregs[slot].is_some_and(|p| self.tainted(p))
    }

    // ------------------------------------------------------------------
    // Stage 4: tag broadcast (paper Fig 2 step 4)
    // ------------------------------------------------------------------

    /// Two passes over the broadcast queue, oldest first, until the ports
    /// run out. Pass 1: safe entries completing this cycle have priority
    /// (to avoid pipeline stalls). Pass 2: older deferred entries that are
    /// now safe, for the extra delay, take the leftover ports.
    fn broadcast(&mut self) {
        if self.bq.is_empty() {
            return;
        }
        let now = self.cycle;
        let mut ports = self.cfg.core.broadcast_ports;
        let mut done = 0u64;
        for fresh in [true, false] {
            for i in 0..self.bq.len() {
                if ports == 0 {
                    break;
                }
                let seq = self.bq[i];
                let e = self.rob.get(seq).expect("queued entry is in flight");
                let deferred = e.complete_cycle < now;
                if deferred == fresh || !self.is_safe(&e) || (deferred && !self.released(&e)) {
                    continue;
                }
                let (pc, complete_cycle) = (e.pc(), e.complete_cycle);
                let prd = e.prd.expect("queued result");
                self.wake(prd);
                self.rob.get_mut(seq).expect("in flight").set_broadcasted();
                ports -= 1;
                done += 1;
                if deferred {
                    self.stats.deferred_broadcasts += 1;
                    self.stats.defer_hist.observe(now - complete_cycle);
                }
                self.trace_event(seq, pc, crate::trace::TraceStage::Broadcast);
            }
        }
        if done > 0 {
            self.stats.broadcasts += done;
            let rob = &self.rob;
            self.bq
                .retain(|&s| !rob.get(s).expect("queued entry is in flight").broadcasted());
        }
    }

    /// Broadcast `p`'s tag (paper Fig 2 step 4): make it visible and wake
    /// the consumers waiting on it. One whose last awaited source this was
    /// joins the ready list in age order.
    fn wake(&mut self, p: PReg) {
        self.prf.broadcast(p);
        let mut waiters = std::mem::take(&mut self.waiters[p as usize]);
        for seq in waiters.drain(..) {
            let mut e = self.rob.get_mut(seq).expect("waiter is in flight");
            e.waiting -= 1;
            if e.waiting == 0 {
                let at = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(at, seq);
            }
        }
        // Hand the emptied list back so its capacity is reused.
        self.waiters[p as usize] = waiters;
    }

    // ------------------------------------------------------------------
    // Stage 5: issue (select)
    // ------------------------------------------------------------------

    fn operand(&self, e: &RobEntry, slot: usize) -> u64 {
        match e.src_pregs[slot] {
            Some(p) => self.prf.value(p),
            None => 0,
        }
    }

    fn issue(&mut self) {
        let now = self.cycle;
        let mut total = self.cfg.core.issue_width;
        let mut alu = self.cfg.core.alu_units;
        let mut load_ports = self.cfg.core.load_ports;
        let mut store_ports = self.cfg.core.store_ports;
        let mut branch_units = self.cfg.core.branch_units;
        let head_seq = self.rob.head().map(|e| e.seq);
        let fence_border = self.fence_border();
        let tracing = self.tracer.is_some();
        let gate = matches!(self.cfg.defense, Defense::GateTransmit { .. });

        // Index-based walk over the woken entries, oldest first: entries
        // still waiting for an operand are not in `ready`, and `try_issue`
        // never touches it. Issued slots are recorded (ascending) and
        // compacted out below.
        let mut issued_idx = std::mem::take(&mut self.scratch_issued_idx);
        issued_idx.clear();
        let mut dispatch_to_issue = 0u64;
        for i in 0..self.ready.len() {
            if total == 0 {
                break;
            }
            let seq = self.ready[i];
            // A pending fence serializes: nothing younger may issue (and
            // everything after this entry is younger still).
            if fence_border.is_some_and(|f| seq > f) {
                break;
            }
            let e = self.rob.get(seq).expect("ready entry is in flight");
            debug_assert!(!e.issued() && e.waiting == 0);
            // Serializing micro-ops issue only from the head of the ROB
            // (`Halt` completes at dispatch and is never ready).
            if e.is_serializing() && head_seq != Some(seq) {
                continue;
            }
            let dispatch_cycle = e.dispatch_cycle;
            let port = if e.is_load_like() {
                &mut load_ports
            } else if e.is_store() {
                &mut store_ports
            } else if e.is_branch() {
                &mut branch_units
            } else {
                &mut alu
            };
            // STT transmit-side gate: a transmitting micro-op may not
            // issue while the operand feeding its transmit channel is
            // tainted. Checked after wakeup (the entry is otherwise ready)
            // so gated cycles are pure defense delay.
            if gate {
                let e = self.rob.get(seq).expect("entry exists");
                if self.taint_gated(&e) {
                    if tracing && !e.taint_gate_traced() {
                        let pc = e.pc();
                        let mut e = self.rob.get_mut(seq).expect("entry exists");
                        e.set_taint_gate_traced();
                        self.trace_event(seq, pc, crate::trace::TraceStage::TaintGated);
                    }
                    continue;
                }
            }
            if *port == 0 {
                continue;
            }
            if self.try_issue(seq) {
                *port -= 1;
                total -= 1;
                dispatch_to_issue += now - dispatch_cycle;
                self.stats.d2i_hist.observe(now - dispatch_cycle);
                if tracing {
                    if let Some(e) = self.rob.get(seq) {
                        let (pc, mem) = (e.pc(), e.mem());
                        self.trace_event_mem(seq, pc, crate::trace::TraceStage::Issue, mem);
                    }
                }
                issued_idx.push(i);
            }
        }
        if !issued_idx.is_empty() {
            self.stats.issue_active_cycles += 1;
            self.stats.issued_insts += issued_idx.len() as u64;
            self.stats.dispatch_to_issue_total += dispatch_to_issue;
            self.iq_len -= issued_idx.len();
            // Ordered in-place compaction (preserves age order — swap-removal
            // would reorder the list and change scheduling).
            let mut next = 0;
            let mut w = 0;
            for r in 0..self.ready.len() {
                if next < issued_idx.len() && issued_idx[next] == r {
                    next += 1;
                    continue;
                }
                self.ready[w] = self.ready[r];
                w += 1;
            }
            self.ready.truncate(w);
            // Trim the issued entries that now lead the issue queue.
            while let Some(&seq) = self.iq.front() {
                if !self.rob.get(seq).is_some_and(|e| e.issued()) {
                    break;
                }
                self.iq.pop_front();
            }
        }
        self.scratch_issued_idx = issued_idx;
    }

    /// Attempt to begin execution of `seq`; returns `false` if a structural
    /// condition (LSQ wait, MSHR full) forces a retry next cycle.
    fn try_issue(&mut self, seq: u64) -> bool {
        let now = self.cycle;
        let e = self.rob.get(seq).expect("iq entry exists");
        let pc = e.pc();
        let inst = self.inst(pc);
        let a = self.operand(&e, 0);
        let b = self.operand(&e, 1);

        let (result, done, extras) = match inst {
            Inst::Li { imm, .. } => (imm, now + 1, IssueExtras::default()),
            Inst::Alu { op, src2, .. } => {
                let rhs = match src2 {
                    Src2::Reg(_) => b,
                    Src2::Imm(i) => i,
                };
                let is_div = matches!(op, nda_isa::AluOp::Div | nda_isa::AluOp::Rem);
                // Structural hazard: the divider is busy (it is not
                // pipelined). Retry next cycle. Crucially the occupancy is
                // NOT released by a squash — an in-flight division drains —
                // which is exactly SMoTherSpectre's covert channel.
                if is_div && self.cfg.core.nonpipelined_divider && now < self.div_busy_until {
                    return false;
                }
                let mut latency = op.latency();
                if self.cfg.core.fpu_power_model
                    && matches!(
                        op,
                        nda_isa::AluOp::Mul | nda_isa::AluOp::Div | nda_isa::AluOp::Rem
                    )
                {
                    // NetSpectre's channel: a multiply on a powered-down
                    // unit pays the wake-up penalty; *any* multiply —
                    // wrong-path included — keeps the unit awake.
                    let awake = self
                        .fpu_busy_until
                        .map(|t| now.saturating_sub(t) <= self.cfg.core.fpu_power_down_after)
                        .unwrap_or(false);
                    if !awake {
                        latency += self.cfg.core.fpu_wake_penalty;
                    }
                    self.fpu_busy_until = Some(now + latency);
                }
                if is_div && self.cfg.core.nonpipelined_divider {
                    self.div_busy_until = now + latency;
                }
                (op.apply(a, rhs), now + latency, IssueExtras::default())
            }
            Inst::Nop | Inst::Halt => (0, now + 1, IssueExtras::default()),
            Inst::Fence | Inst::SpecOff | Inst::SpecOn => (0, now + 1, IssueExtras::default()),
            Inst::RdCycle { .. } => (now, now + 1, IssueExtras::default()),
            Inst::ClFlush { off, .. } => {
                let addr = a.wrapping_add(off as u64);
                self.hier.flush_line(addr);
                (0, now + 1, IssueExtras::default())
            }
            Inst::RdMsr { idx, .. } => {
                let permitted = self.msrs.user_may_read(idx);
                let value = if permitted || self.cfg.core.meltdown_flaw {
                    self.msrs.read(idx)
                } else {
                    0
                };
                let fault = (!permitted).then_some(Fault::PrivilegedMsr { idx });
                (
                    value,
                    now + 2,
                    IssueExtras {
                        fault,
                        ..IssueExtras::default()
                    },
                )
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(a, b);
                let next = if taken { target } else { pc + 1 };
                (
                    0,
                    now + 1,
                    IssueExtras {
                        actual: Some((taken, next)),
                        ..IssueExtras::default()
                    },
                )
            }
            Inst::JmpInd { .. } => (
                0,
                now + 1,
                IssueExtras {
                    actual: Some((true, a as usize)),
                    ..IssueExtras::default()
                },
            ),
            Inst::CallInd { .. } => (
                (pc + 1) as u64,
                now + 1,
                IssueExtras {
                    actual: Some((true, a as usize)),
                    ..IssueExtras::default()
                },
            ),
            Inst::Ret => (
                0,
                now + 1,
                IssueExtras {
                    actual: Some((true, a as usize)),
                    ..IssueExtras::default()
                },
            ),
            // Handled at dispatch (resolved immediately).
            Inst::Jmp { .. } | Inst::Call { .. } => {
                unreachable!("direct jumps complete at dispatch")
            }
            Inst::Store { off, size, .. } => {
                let addr = a.wrapping_add(off as u64);
                let fault = self
                    .priv_map
                    .is_privileged(addr)
                    .then_some(Fault::PrivilegedAccess { addr });
                (
                    0,
                    now + 1,
                    IssueExtras {
                        mem: Some((addr, size.bytes())),
                        store_data: Some(b),
                        fault,
                        ..IssueExtras::default()
                    },
                )
            }
            Inst::Load { off, size, .. } => {
                let addr = a.wrapping_add(off as u64);
                match self.issue_load(seq, addr, size.bytes()) {
                    Some(r) => r,
                    None => return false,
                }
            }
        };

        let mut e = self.rob.get_mut(seq).expect("entry");
        e.set_issued(done);
        e.result = result;
        if let Some((taken, next)) = extras.actual {
            e.set_outcome(taken, next);
        }
        if let Some((addr, size)) = extras.mem {
            e.set_mem(addr, size);
        }
        if let Some(d) = extras.store_data {
            e.set_store_data(d);
        }
        if let Some(fault) = extras.fault {
            e.set_fault(fault);
        }
        if let Some(f) = extras.forwarded_from {
            e.set_forwarded_from(f);
        }
        if extras.bypassed {
            e.set_bypassed();
        }
        if extras.is_probe {
            e.set_probe();
        }
        if let Some(level) = extras.level {
            e.set_mem_level(level);
        }
        self.events.push(Reverse((done, seq)));
        if extras.bypassed {
            self.stats.store_bypasses += 1;
        }
        if extras.level.is_some_and(|l| l != nda_mem::Level::L1) {
            self.trace_event(seq, pc, crate::trace::TraceStage::CacheMiss);
        }
        true
    }

    /// Load issue: privilege check, store-queue search (forward / wait /
    /// bypass), then cache access (or InvisiSpec probe). `None` = retry.
    fn issue_load(&mut self, seq: u64, addr: u64, size: u64) -> Option<(u64, u64, IssueExtras)> {
        let now = self.cycle;
        let mut extras = IssueExtras {
            mem: Some((addr, size)),
            ..IssueExtras::default()
        };

        // Privilege: the fault is recorded, but under the modelled Meltdown
        // flaw the data still flows to dependents until commit squashes.
        if self.priv_map.is_privileged(addr) {
            extras.fault = Some(Fault::PrivilegedAccess { addr });
            if !self.cfg.core.meltdown_flaw {
                // A fixed implementation zeroes the forwarded data.
                let acc = self.hier.access_data(addr, now + 1)?;
                extras.level = Some(acc.level);
                return Some((0, now + 1 + acc.latency, extras));
            }
        }

        // Store-queue search, youngest older store first.
        let mut forwarded: Option<(u64, u64)> = None; // (store seq, value)
        for &sseq in self.sq.iter().rev() {
            if sseq >= seq {
                continue;
            }
            let st = self.rob.get(sseq).expect("sq entry");
            if !st.completed() {
                // Unresolved address: bypass speculatively or wait.
                if self.cfg.core.speculative_store_bypass {
                    extras.bypassed = true;
                    continue;
                }
                return None;
            }
            let (st_addr, st_size) = st.mem().expect("completed store");
            if !overlaps(st_addr, st_size, addr, size) {
                continue;
            }
            if st_addr <= addr && addr + size <= st_addr + st_size {
                // Full coverage: forward.
                let shift = (addr - st_addr) * 8;
                let data = st.store_data().expect("completed store");
                let val = extract_bytes(data >> shift, size);
                forwarded = Some((sseq, val));
                break;
            }
            // Partial overlap: wait until the store commits to memory.
            return None;
        }

        if let Some((sseq, val)) = forwarded {
            extras.forwarded_from = Some(sseq);
            extras.level = Some(nda_mem::Level::L1);
            return Some((val, now + self.cfg.core.store_forward_latency, extras));
        }

        // Delay-on-miss (Sakalis et al.): a speculative load that would
        // miss the L1 is simply not issued until older branches resolve.
        if self.cfg.defense == Defense::DelayOnMiss
            && self.shadow.covers(Border::UnresolvedBranch, seq)
            && self.hier.probe_data(addr, now).level != nda_mem::Level::L1
        {
            return None;
        }

        // Memory access. InvisiSpec turns speculative loads into invisible
        // probes; everything else fills the caches (wrong path included).
        let value = self.mem.read(addr, size);
        let value = if extras.fault.is_some() && !self.cfg.core.meltdown_flaw {
            0
        } else {
            value
        };
        let speculative_probe = match self.cfg.defense {
            Defense::InvisibleLoad(border) => self.shadow.covers(border, seq),
            _ => false,
        };
        let latency = if speculative_probe {
            extras.is_probe = true;
            let acc = self.hier.probe_data(addr, now + 1);
            extras.level = Some(acc.level);
            acc.latency
        } else {
            let acc = self.hier.access_data(addr, now + 1)?;
            extras.level = Some(acc.level);
            acc.latency
        };
        Some((value, now + 1 + latency, extras))
    }

    // ------------------------------------------------------------------
    // Stage 6: dispatch / rename
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let now = self.cycle;
        for _ in 0..self.cfg.core.dispatch_width {
            let Some(uop) = self.fe.peek_ready(now) else {
                break;
            };
            if self.rob.is_full() {
                self.dispatch_block = Some(DispatchBlock::Rob);
                break;
            }
            if self.iq_len >= self.cfg.core.iq_entries {
                self.dispatch_block = Some(DispatchBlock::Iq);
                break;
            }
            // Listing-4 window: speculation and OoO are disabled — admit
            // one instruction at a time so nothing wrong-path can dispatch
            // (a branch resolves before its successor enters the ROB).
            // An in-flight SpecOff serialises dispatch the same way so the
            // window engages before anything younger enters the back end.
            if (self.spec_window || self.specoff_pending > 0) && !self.rob.is_empty() {
                break;
            }
            let inst = self.inst(uop.pc);
            let (needs_lq, needs_sq) = (inst.is_load_like(), inst.is_store());
            if needs_lq && self.lq.len() >= self.cfg.core.lq_entries {
                self.dispatch_block = Some(DispatchBlock::Lsq);
                break;
            }
            if needs_sq && self.sq.len() >= self.cfg.core.sq_entries {
                self.dispatch_block = Some(DispatchBlock::Lsq);
                break;
            }
            if inst.dest().is_some() && self.free.available() == 0 {
                // Register exhaustion binds retirement like a full ROB.
                self.dispatch_block = Some(DispatchBlock::Rob);
                break;
            }
            let uop = self.fe.pop_ready(now).expect("peeked");
            let seq = self.next_seq;
            self.next_seq += 1;

            // Rename sources, then destination, into locals: the entry is
            // then built where it lives, in its ROB slot.
            let mut src_pregs = [None; 2];
            for (slot, r) in inst.operands().iter().enumerate() {
                src_pregs[slot] = r.map(|r| self.rename.lookup(r));
            }
            let mut dest = None;
            if let Some(rd) = inst.dest() {
                let prd = self.free.alloc().expect("checked available");
                debug_assert!(self.waiters[prd as usize].is_empty());
                self.prf.reset(prd);
                self.forget_taint(prd);
                // A load roots its own taint; anything else inherits the
                // youngest root among its sources.
                self.yrot[prd as usize] = if inst.is_load_like() {
                    seq
                } else {
                    let srcs = src_pregs.iter().flatten();
                    srcs.map(|&p| self.yrot[p as usize]).max().unwrap_or(0)
                };
                self.producer[prd as usize] = seq;
                dest = Some((rd, prd, self.rename.rename(rd, prd)));
            }

            let mut e = self.rob.alloc(seq, uop.pc, inst, now);
            e.set_prediction(uop.pred);
            e.src_pregs = src_pregs;
            if let Some((rd, prd, old)) = dest {
                e.arch_rd = Some(rd);
                e.prd = Some(prd);
                e.old_prd = Some(old);
            }

            let mut enqueue = true;
            match inst {
                // Direct control flow resolves at dispatch: the target is
                // in the instruction word, so it creates no unsafe border
                // and never mispredicts.
                Inst::Jmp { target } => {
                    e.set_resolved();
                    e.set_outcome(true, target);
                    e.set_completed(now);
                    e.set_broadcasted();
                    enqueue = false;
                }
                Inst::Call { target } => {
                    e.set_resolved();
                    e.set_outcome(true, target);
                    e.set_completed(now);
                    e.result = (uop.pc + 1) as u64;
                    self.prf.write(e.prd.expect("call writes ra"), e.result);
                    self.bq.push(seq);
                    enqueue = false;
                }
                Inst::Nop | Inst::Halt => {
                    e.set_completed(now);
                    e.set_broadcasted();
                    enqueue = false;
                }
                Inst::SpecOff => self.specoff_pending += 1,
                Inst::Fence => self.pending_fences.push_back(seq),
                _ => {}
            }
            if needs_lq {
                self.lq.push(seq);
            }
            if needs_sq {
                self.sq.push(seq);
            }
            if enqueue {
                self.iq.push_back(seq);
                self.iq_len += 1;
                for &p in src_pregs.iter().flatten() {
                    if !self.prf.is_visible(p) {
                        e.waiting += 1;
                        self.waiters[p as usize].push(seq);
                    }
                }
                if e.waiting == 0 {
                    self.ready.push(seq);
                }
            }
            let completed = e.completed();
            self.trace_event(seq, uop.pc, crate::trace::TraceStage::Dispatch);
            if completed {
                self.trace_event(seq, uop.pc, crate::trace::TraceStage::Complete);
            }
        }
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Remove every entry with `seq >= min_seq`, unwinding rename state
    /// tail-first and discarding never-broadcast values (paper §5.1:
    /// "discarding values in physical registers that never became safe").
    pub(crate) fn squash_from(&mut self, min_seq: u64) {
        let mut any = false;
        // The oldest squashed RAS snapshot: it and everything younger go.
        let mut ras_cut = None;
        while let Some(e) = self.rob.pop_tail_from(min_seq) {
            any = true;
            ras_cut = e.ras_after().or(ras_cut);
            if !e.issued() && !e.completed() {
                self.iq_len -= 1;
            }
            if e.waiting > 0 {
                pop_squashed(&mut self.waiters, &e, min_seq);
            }
            pop_squashed(&mut self.stt.consumers, &e, min_seq);
            if e.issued() {
                self.stats.wrong_path_executed += 1;
            }
            if e.is_serializing() && matches!(self.program.insts[e.pc()], Inst::SpecOff) {
                self.specoff_pending -= 1;
            }
            let (seq, pc) = (e.seq, e.pc());
            let dest = (e.arch_rd, e.prd, e.old_prd);
            self.trace_event(seq, pc, crate::trace::TraceStage::Squash);
            if let (Some(rd), Some(prd), Some(old)) = dest {
                debug_assert_eq!(self.rename.lookup(rd), prd, "LIFO unwind invariant");
                self.rename.restore(rd, old);
                self.free.release(prd);
                // Squashed values vanish; leave no taint behind on the
                // freed register (the drain property checks the whole PRF).
                self.forget_taint(prd);
            }
        }
        if any {
            let queued = self.bq.partition_point(|&s| s < min_seq);
            self.bq.truncate(queued);
            // The queued micro-ops' snapshots are younger and go too: every
            // squash is followed by a redirect that empties the fetch queue,
            // except an unhandled fault, which ends the run.
            if let Some(slot) = ras_cut {
                self.fe.ras_snaps.truncate(slot);
            }
            let queued = self.iq.partition_point(|&s| s < min_seq);
            self.iq.truncate(queued);
            let ready = self.ready.partition_point(|&s| s < min_seq);
            self.ready.truncate(ready);
            self.lq.retain(|&s| s < min_seq);
            self.sq.retain(|&s| s < min_seq);
            while self.pending_fences.back().is_some_and(|&s| s >= min_seq) {
                self.pending_fences.pop_back();
            }
            // Sequence numbers name ROB slots; after a squash the next
            // dispatch reuses the numbering so the ROB stays contiguous.
            self.next_seq = min_seq;
            self.stt.rewind(min_seq);
            self.stats.squashes += 1;
        }
    }

    /// Clear the taint of `p`, being freed or reallocated: a recycled
    /// register must not inherit its previous owner's root or image.
    fn forget_taint(&mut self, p: PReg) {
        self.yrot[p as usize] = 0;
        self.stt.forget(p);
    }

    // ------------------------------------------------------------------
    // Cycle classification (Fig 9a): the top-down CPI stack
    // ------------------------------------------------------------------

    /// Attribute this cycle to exactly one [`CpiClass`]. Every cycle lands
    /// in one class (the stack partitions `stats.cycles`; property-tested),
    /// resolved head-first in priority order:
    ///
    /// 1. anything retired → commit;
    /// 2. empty ROB → frontend (squash refill while inside the redirect
    ///    shadow, fetch miss otherwise);
    /// 3. the defense is the bottleneck → nda-delay (see
    ///    [`OooCore::nda_delay_cycle`]);
    /// 4. otherwise the oldest instruction's own wait: an in-flight memory
    ///    access charges the level that services it, a completed head
    ///    charges the backend (or DRAM for an MSHR-blocked store), an
    ///    un-issued non-memory head charges whichever structure stalled
    ///    dispatch.
    fn classify_cycle(&mut self, committed: u64) {
        let now = self.cycle;
        let class = if committed > 0 {
            CpiClass::Commit
        } else if self.rob.is_empty() {
            // The redirect shadow is the fetch-to-dispatch refill after a
            // squash; an empty ROB outside it is a fetch (i-cache) stall.
            let refill = self.cfg.core.fetch_to_dispatch + 1;
            if self.last_redirect_cycle.map(|r| now < r + refill) == Some(true) {
                CpiClass::FrontendSquash
            } else {
                CpiClass::FrontendFetch
            }
        } else if self.nda_delay_cycle() {
            CpiClass::NdaDelay
        } else {
            let head = self.rob.head().expect("rob checked non-empty");
            let memish = head.is_load_like() || head.is_store();
            let exposure_pending = head.is_probe()
                && head.completed()
                && head.exposure_done().map(|d| d <= now) != Some(true);
            if exposure_pending {
                // A completed probe whose exposure/validation is still in
                // flight is waiting on the memory system, not the backend.
                mem_class(head.mem_level())
            } else if head.completed() {
                if head.is_store() {
                    // A completed store head only stalls retirement when
                    // its commit-time cache fill cannot get an MSHR.
                    CpiClass::MemDram
                } else {
                    CpiClass::BackendExec
                }
            } else if head.issued() {
                if memish {
                    mem_class(head.mem_level())
                } else {
                    CpiClass::BackendExec
                }
            } else if memish {
                // An un-issued memory head (LSQ dependence, delay-on-miss,
                // MSHR retry): level unknown until issue.
                mem_class(head.mem_level())
            } else {
                match self.dispatch_block {
                    Some(DispatchBlock::Rob) => CpiClass::BackendRobFull,
                    Some(DispatchBlock::Iq) => CpiClass::BackendIqFull,
                    Some(DispatchBlock::Lsq) => CpiClass::BackendLsqFull,
                    None => CpiClass::BackendExec,
                }
            }
        };
        self.stats.record_cycle(class);
    }

    /// `true` when the NDA/InvisiSpec policy itself is the bottleneck this
    /// cycle: either the ROB head has completed but its broadcast is being
    /// withheld, or the oldest un-issued micro-op is ready *except* that
    /// every invisible source it waits on has a completed producer whose
    /// broadcast the policy is withholding. Port starvation does not count
    /// (the producer must be policy-withheld, not merely un-broadcast), so
    /// this is identically false on the unprotected baselines — pinned by
    /// the `nda_delay`-is-zero property test.
    fn nda_delay_cycle(&self) -> bool {
        match self.cfg.defense {
            Defense::None | Defense::DelayOnMiss => return false,
            // STT/ShadowBinding: the defense is the bottleneck when the
            // oldest un-issued micro-op is woken up but its transmit
            // operand is tainted.
            Defense::GateTransmit { .. } => {
                let Some(e) = self.iq.front().and_then(|&seq| self.rob.get(seq)) else {
                    return false;
                };
                return e.waiting == 0 && self.taint_gated(&e);
            }
            Defense::DelayBroadcast { .. } | Defense::InvisibleLoad(_) => {}
        }
        let now = self.cycle;
        // InvisiSpec: the head cannot retire until its exposure completes —
        // cycles its miss would also have cost the baseline are charged to
        // memory by the classifier, but a *hit* probe awaiting exposure is
        // pure defense overhead.
        if let Some(h) = self.rob.head() {
            if h.is_probe()
                && h.completed()
                && h.exposure_done().map(|d| d <= now) != Some(true)
                && h.mem_level() == Some(nda_mem::Level::L1)
            {
                return true;
            }
            // NDA proper: a completed head whose tag broadcast is withheld.
            if h.completed() && !h.broadcasted() && h.prd.is_some() && !self.released(&h) {
                return true;
            }
        }
        // The oldest un-issued micro-op: ready except for deferred
        // broadcasts?
        let Some(&seq) = self.iq.front() else {
            return false;
        };
        let Some(e) = self.rob.get(seq) else {
            return false;
        };
        let mut any_withheld = false;
        for &p in e.src_pregs.iter().flatten() {
            if self.prf.is_visible(p) {
                continue;
            }
            // The producer is in flight (committed producers broadcast at
            // retirement, so an invisible source always has one).
            let prod = self.rob.get(self.producer[p as usize]);
            let Some(prod) = prod.filter(|pe| pe.prd == Some(p)) else {
                return false;
            };
            if !prod.completed() || prod.broadcasted() || self.released(&prod) {
                return false;
            }
            any_withheld = true;
        }
        any_withheld
    }
}

/// One ROB entry's externally-visible state, for the Fig 6 trace renderer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobView {
    /// Instruction index.
    pub pc: usize,
    /// Disassembly.
    pub disasm: String,
    /// Fig 6 cell state.
    pub state: RobCellState,
    /// `true` for a branch whose outcome is still unknown.
    pub unresolved_branch: bool,
}

/// The Fig 6 colour coding of an ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobCellState {
    /// Sources not ready: cannot issue yet.
    NotReady,
    /// Issued and executing.
    Executing,
    /// Completed but NDA is deferring the broadcast (unsafe).
    CompletedUnsafe,
    /// Completed and broadcast (safe).
    CompletedBroadcast,
}

impl OooCore {
    /// Snapshot the ROB in Fig 6 form (oldest first).
    pub fn rob_view(&self) -> Vec<RobView> {
        self.rob
            .iter()
            .map(|e| {
                let state = if e.completed() {
                    if e.broadcasted() {
                        RobCellState::CompletedBroadcast
                    } else {
                        RobCellState::CompletedUnsafe
                    }
                } else if e.issued() {
                    RobCellState::Executing
                } else {
                    RobCellState::NotReady
                };
                RobView {
                    pc: e.pc(),
                    disasm: self.inst(e.pc()).to_string(),
                    state,
                    unresolved_branch: e.is_unresolved_branch(),
                }
            })
            .collect()
    }
}

/// Per-issue side data threaded from `try_issue` helpers.
#[derive(Debug, Default, Clone, Copy)]
struct IssueExtras {
    actual: Option<(bool, usize)>,
    mem: Option<(u64, u64)>,
    store_data: Option<u64>,
    fault: Option<Fault>,
    forwarded_from: Option<u64>,
    bypassed: bool,
    is_probe: bool,
    /// Hierarchy level that serviced a load/probe (L1 for store forwards).
    level: Option<nda_mem::Level>,
}

/// The back-end structure that stopped dispatch this cycle (CPI stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchBlock {
    /// ROB full (or the physical register file is exhausted, which binds
    /// the same resource: an ROB entry cannot retire to free its register).
    Rob,
    /// Issue queue full.
    Iq,
    /// Load or store queue full.
    Lsq,
}

/// CPI-stack class for a memory access serviced at `level` (unknown levels
/// — e.g. a load that has not issued yet — charge the cheapest, so the
/// expensive classes are never over-stated).
/// STT's propagated untaint (DESIGN §17.1), kept from a frontier instead
/// of a walk of the whole ROB.
///
/// The rule: a walked destination is tainted iff its micro-op is a
/// load-like one in the border's shadow, or a source register is tainted
/// now or was at the last restriction stage (its image, `prev`), so an
/// untaint ripples one dependency level per cycle. An entry is walked from
/// the restriction stage after its dispatch on, and a commit clears its
/// destination at once. A walked bit never rises, so only three things
/// can clear one: the border passing a load, a source that cleared last
/// cycle, and a commit. Each cycle re-applies the rule to exactly those
/// entries, and walks the entries dispatched since the last cycle.
/// `invariants.rs` keeps the whole-ROB walk as the oracle the frontier is
/// checked against.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaintFrontier {
    /// Per register, its taint bit.
    pub(crate) bits: Vec<bool>,
    /// Per register, its bit as of the last restriction stage.
    prev: Vec<bool>,
    /// Per register, the walked consumers (ascending, once per source
    /// slot) that it or its image kept tainted when they were walked.
    /// Drained when the register clears; squash pops its numbers.
    consumers: Vec<Vec<u64>>,
    /// Registers whose bit cleared at the last restriction stage or at a
    /// commit before it: their consumers are this cycle's worklist.
    cleared_last: Vec<PReg>,
    /// Registers whose bit cleared this cycle.
    cleared_now: Vec<PReg>,
    /// The oldest sequence number not yet walked.
    walked: u64,
    /// The border's sequence number at the last restriction stage.
    border: u64,
}

impl TaintFrontier {
    /// A frontier over `n` registers (0 when the defense is not STT).
    fn new(n: usize) -> TaintFrontier {
        TaintFrontier {
            bits: vec![false; n],
            prev: vec![false; n],
            consumers: vec![Vec::new(); n],
            border: u64::MAX,
            ..TaintFrontier::default()
        }
    }

    /// The rule of DESIGN §17.1 for one walked entry.
    fn rule(&self, e: &RobEntry, shadow: &Shadow, border: Border) -> bool {
        let mut srcs = e.src_pregs.iter().flatten();
        srcs.any(|&p| self.bits[p as usize] || self.prev[p as usize])
            || (e.is_load_like() && shadow.covers(border, e.seq))
    }

    /// Re-apply the rule to walked entry `seq`, recording a clear. A stale
    /// sequence number (a committed consumer's, or one reused since) is
    /// skipped or re-derived: the rule is exact for any walked entry.
    fn recheck(&mut self, rob: &Rob, seq: u64, shadow: &Shadow, border: Border) {
        if seq >= self.walked {
            return;
        }
        let Some(e) = rob.get(seq) else { return };
        let Some(prd) = e.prd else { return };
        if self.bits[prd as usize] && !self.rule(&e, shadow, border) {
            self.bits[prd as usize] = false;
            self.cleared_now.push(prd);
        }
    }

    /// The restriction stage's step: clear what this cycle clears, then
    /// walk the entries dispatched since the last one, oldest first.
    fn advance(&mut self, rob: &Rob, lq: &[u64], shadow: &Shadow, border: Border) {
        let last = std::mem::take(&mut self.cleared_last);
        for &p in &last {
            let mut consumers = std::mem::take(&mut self.consumers[p as usize]);
            for seq in consumers.drain(..) {
                self.recheck(rob, seq, shadow, border);
            }
            // Hand the emptied list back so its capacity is reused.
            self.consumers[p as usize] = consumers;
        }
        // The loads the border passed this cycle (none if it moved back,
        // which only a fault's rewind of the sequence numbers does).
        let now = shadow.border(border);
        let lo = lq.partition_point(|&s| s <= self.border);
        let hi = lq.partition_point(|&s| s <= now);
        for &seq in lq.get(lo..hi).unwrap_or_default() {
            self.recheck(rob, seq, shadow, border);
        }
        self.border = now;
        let mut seq = self.walked.max(rob.head().map_or(u64::MAX, |e| e.seq));
        while let Some(e) = rob.get(seq) {
            if let Some(prd) = e.prd {
                let tainted = self.rule(&e, shadow, border);
                // Nothing reads the fresh register's image this cycle
                // except younger fresh consumers, which read its bit too.
                self.bits[prd as usize] = tainted;
                self.prev[prd as usize] = tainted;
                if tainted {
                    for &p in e.src_pregs.iter().flatten() {
                        if self.bits[p as usize] || self.prev[p as usize] {
                            self.consumers[p as usize].push(seq);
                        }
                    }
                }
            }
            seq += 1;
            self.walked = seq;
        }
        for &p in &self.cleared_now {
            self.prev[p as usize] = false;
        }
        self.cleared_last = std::mem::replace(&mut self.cleared_now, last);
        self.cleared_now.clear();
    }

    /// A retiring destination: clear its bit now, its image at the next
    /// restriction stage.
    fn clear_committed(&mut self, p: PReg) {
        if let Some(bit) = self.bits.get_mut(p as usize) {
            if std::mem::take(bit) {
                self.cleared_now.push(p);
            }
        }
    }

    /// A register being freed by a squash or reallocated: no bit, no image.
    fn forget(&mut self, p: PReg) {
        if !self.bits.is_empty() {
            self.bits[p as usize] = false;
            self.prev[p as usize] = false;
        }
    }

    /// After a squash from `min_seq`: the reused numbers are not walked.
    fn rewind(&mut self, min_seq: u64) {
        self.walked = self.walked.min(min_seq);
    }
}

/// Squashed entry `e`: pop the squashed sequence numbers (every one from
/// `min_seq` on, which dispatch will reuse) off the ascending per-register
/// lists of its sources (the waiter or the taint consumer lists; none when
/// `lists` is empty).
fn pop_squashed(lists: &mut [Vec<u64>], e: &RobEntry, min_seq: u64) {
    for &p in e.src_pregs.iter().flatten() {
        if let Some(list) = lists.get_mut(p as usize) {
            while list.last().is_some_and(|&s| s >= min_seq) {
                list.pop();
            }
        }
    }
}

fn mem_class(level: Option<nda_mem::Level>) -> CpiClass {
    match level {
        Some(nda_mem::Level::L2) => CpiClass::MemL2,
        Some(nda_mem::Level::Mem) => CpiClass::MemDram,
        Some(nda_mem::Level::L1) | None => CpiClass::MemL1,
    }
}

fn overlaps(a_addr: u64, a_size: u64, b_addr: u64, b_size: u64) -> bool {
    a_addr < b_addr.wrapping_add(b_size) && b_addr < a_addr.wrapping_add(a_size)
}

fn extract_bytes(v: u64, size: u64) -> u64 {
    if size >= 8 {
        v
    } else {
        v & ((1u64 << (8 * size)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, Variant};
    use nda_isa::{Asm, Reg};

    fn run_ooo(asm: &Asm) -> OooCore {
        run_cfg(asm, SimConfig::ooo())
    }

    fn run_cfg(asm: &Asm, cfg: SimConfig) -> OooCore {
        let p = asm.assemble().unwrap();
        let mut c = OooCore::new(cfg, &p);
        c.run(1_000_000).unwrap();
        c
    }

    #[test]
    fn arithmetic_commits() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 20)
            .li(Reg::X3, 22)
            .add(Reg::X4, Reg::X2, Reg::X3)
            .halt();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X4), 42);
        assert_eq!(c.stats.committed_insts, 4);
        assert!(c.halted());
    }

    #[test]
    fn loop_matches_interp() {
        let mut asm = Asm::new();
        let done = asm.new_label();
        asm.li(Reg::X2, 25).li(Reg::X3, 0);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.addi(Reg::X3, Reg::X3, 7);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        asm.halt();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X3), 175);
    }

    #[test]
    fn store_load_roundtrip_with_forwarding() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 0x1_0000);
        asm.li(Reg::X3, 0xDEAD);
        asm.st8(Reg::X3, Reg::X2, 8);
        asm.ld8(Reg::X4, Reg::X2, 8); // forwards from the store queue
        asm.halt();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X4), 0xDEAD);
        assert_eq!(c.mem.read(0x1_0008, 8), 0xDEAD);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut asm = Asm::new();
        let f = asm.new_label();
        asm.call(f);
        asm.li(Reg::X6, 9);
        asm.halt();
        asm.bind(f);
        asm.li(Reg::X5, 7);
        asm.ret();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X5), 7);
        assert_eq!(c.reg(Reg::X6), 9);
    }

    #[test]
    fn mispredicted_branch_squashes_wrong_path() {
        // A data-dependent branch the predictor cannot know: initial
        // prediction is not-taken, but it is taken.
        let mut asm = Asm::new();
        let skip = asm.new_label();
        asm.li(Reg::X2, 1);
        asm.bne(Reg::X2, Reg::X0, skip); // taken; predicted not-taken (cold)
        asm.li(Reg::X3, 0xBAD);
        asm.bind(skip);
        asm.halt();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X3), 0, "wrong-path write must be squashed");
        assert!(c.stats.branch_mispredicts >= 1);
        assert!(c.stats.squashes >= 1);
    }

    #[test]
    fn all_policies_preserve_architecture() {
        let mut asm = Asm::new();
        let done = asm.new_label();
        asm.li(Reg::X2, 12).li(Reg::X3, 0).li(Reg::X8, 0x2_0000);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.add(Reg::X3, Reg::X3, Reg::X2);
        asm.st8(Reg::X3, Reg::X8, 0);
        asm.ld8(Reg::X4, Reg::X8, 0);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        asm.halt();
        let mut cycles = Vec::new();
        for v in [
            Variant::Ooo,
            Variant::Permissive,
            Variant::PermissiveBr,
            Variant::Strict,
            Variant::StrictBr,
            Variant::RestrictedLoads,
            Variant::FullProtection,
            Variant::InvisiSpecSpectre,
            Variant::InvisiSpecFuture,
        ] {
            let c = run_cfg(&asm, SimConfig::for_variant(v));
            assert_eq!(c.reg(Reg::X3), 78, "{v}: wrong sum");
            assert_eq!(c.reg(Reg::X4), 78, "{v}: wrong load");
            cycles.push((v, c.cycle()));
        }
        // NDA restricts scheduling: no protected variant can be faster
        // than insecure OoO.
        let base = cycles[0].1;
        for (v, cyc) in &cycles[1..] {
            assert!(*cyc >= base, "{v} faster than OoO ({cyc} < {base})");
        }
    }

    #[test]
    fn load_restriction_delays_young_loads_behind_slow_head() {
        // A slow (cold-miss) load occupies the ROB head; a young fast load
        // feeds a dependent ALU chain. Baseline OoO overlaps the chain with
        // the miss; load restriction forces the fast load to wait for the
        // head, serialising the chain after the miss.
        let mut asm = Asm::new();
        asm.data_u64s(0xB000, &[7]);
        // Warm the fast load's line.
        asm.li(Reg::X8, 0xB000);
        asm.ld8(Reg::X9, Reg::X8, 0);
        asm.fence(); // make warm-up timing identical across policies
        asm.li(Reg::X2, 0xA000); // never touched: cold
        asm.ld8(Reg::X4, Reg::X2, 0); // slow, independent
        asm.ld8(Reg::X5, Reg::X8, 0); // fast, but young
        for _ in 0..40 {
            asm.addi(Reg::X5, Reg::X5, 1); // dependent chain on the fast load
        }
        asm.halt();
        let base = run_cfg(&asm, SimConfig::for_variant(Variant::Ooo));
        let full = run_cfg(&asm, SimConfig::for_variant(Variant::RestrictedLoads));
        assert_eq!(base.reg(Reg::X5), full.reg(Reg::X5));
        assert_eq!(base.reg(Reg::X5), 47);
        assert!(
            full.cycle() > base.cycle() + 20,
            "load restriction must serialise the chain after the miss ({} vs {})",
            full.cycle(),
            base.cycle()
        );
        assert!(full.stats.deferred_broadcasts > 0);
    }

    #[test]
    fn fault_without_handler_is_error() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, nda_isa::KERNEL_BASE);
        asm.ld8(Reg::X3, Reg::X2, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut c = OooCore::new(SimConfig::ooo(), &p);
        let err = c.run(100_000).unwrap_err();
        assert!(matches!(err, SimError::UnhandledFault(_)));
    }

    #[test]
    fn fault_with_handler_recovers_architecturally() {
        let mut asm = Asm::new();
        let h = asm.new_label();
        asm.fault_handler(h);
        asm.li(Reg::X2, nda_isa::KERNEL_BASE);
        asm.ld8(Reg::X3, Reg::X2, 0);
        asm.li(Reg::X4, 0xBAD); // skipped via handler
        asm.halt();
        asm.bind(h);
        asm.li(Reg::X5, 1);
        asm.halt();
        let c = run_ooo(&asm);
        assert_eq!(c.stats.faults, 1);
        assert_eq!(c.reg(Reg::X5), 1);
        assert_eq!(c.reg(Reg::X3), 0, "faulting load must not commit its value");
    }

    #[test]
    fn rdcycle_is_monotonic_and_serializing() {
        let mut asm = Asm::new();
        asm.rdcycle(Reg::X2);
        asm.rdcycle(Reg::X3);
        asm.halt();
        let c = run_ooo(&asm);
        assert!(c.reg(Reg::X3) > c.reg(Reg::X2));
    }

    #[test]
    fn ssb_stale_then_replay_gets_correct_value() {
        // A store whose address depends on a slow load; a younger load to
        // the same address bypasses it speculatively, reads stale data and
        // must be replayed when the store resolves.
        let mut asm = Asm::new();
        asm.data_u64s(0x4000, &[0x5000]); // pointer to the store target
        asm.data_u64s(0x5000, &[111]); // stale value
        asm.li(Reg::X2, 0x4000);
        asm.clflush(Reg::X2, 0); // make the pointer load slow
        asm.ld8(Reg::X3, Reg::X2, 0); // slow: X3 = 0x5000
        asm.li(Reg::X4, 222);
        asm.st8(Reg::X4, Reg::X3, 0); // store addr unresolved for a while
        asm.li(Reg::X5, 0x5000);
        asm.ld8(Reg::X6, Reg::X5, 0); // bypasses; must end up 222
        asm.halt();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X6), 222, "replay must repair the stale read");
        assert!(
            c.stats.mem_order_violations >= 1,
            "bypass must have mis-speculated"
        );
        assert!(c.stats.store_bypasses >= 1);
    }

    #[test]
    fn indirect_call_through_table() {
        let mut asm = Asm::new();
        let f = asm.new_label();
        asm.li(Reg::X2, 0x6000);
        asm.ld8(Reg::X3, Reg::X2, 0);
        asm.call_ind(Reg::X3);
        asm.halt();
        asm.bind(f);
        asm.li(Reg::X7, 0x77);
        asm.ret();
        let mut p = asm.assemble().unwrap();
        let target = 4u64; // index of "li x7"
        p.data.push(nda_isa::DataInit {
            addr: 0x6000,
            bytes: target.to_le_bytes().to_vec(),
        });
        let mut c = OooCore::new(SimConfig::ooo(), &p);
        c.run(1_000_000).unwrap();
        assert_eq!(c.reg(Reg::X7), 0x77);
    }

    #[test]
    fn fence_serializes_issue() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 5);
        asm.fence();
        asm.addi(Reg::X3, Reg::X2, 1);
        asm.halt();
        let c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X3), 6);
    }

    #[test]
    fn wrong_path_loads_fill_caches_on_insecure_ooo() {
        // The residue that makes Spectre work: a wrong-path load allocates
        // a line that survives the squash.
        let mut asm = Asm::new();
        let skip = asm.new_label();
        asm.li(Reg::X2, 1);
        asm.li(Reg::X9, 0x9_0000);
        asm.clflush(Reg::X9, 0);
        asm.bne(Reg::X2, Reg::X0, skip); // taken, predicted not-taken (cold)
        asm.ld8(Reg::X4, Reg::X9, 0); // wrong path
        asm.bind(skip);
        // Let plenty of cycles pass so the wrong-path fill completes.
        for _ in 0..64 {
            asm.nop();
        }
        asm.halt();
        let mut c = run_ooo(&asm);
        assert_eq!(c.reg(Reg::X4), 0, "wrong-path load must not commit");
        assert!(
            c.stats.wrong_path_executed > 0,
            "wrong path must actually execute"
        );
        let now = c.cycle();
        assert_eq!(
            c.hier.probe_data(0x9_0000, now).level,
            nda_mem::Level::L1,
            "wrong-path cache fill must survive the squash (the covert channel)"
        );
    }
}
