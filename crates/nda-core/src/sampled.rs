//! Sampled simulation: functional fast-forward with warming, architectural
//! checkpoints, and SMARTS-style detailed measurement windows.
//!
//! The detailed out-of-order core runs at ~1–3 M simulated cycles per host
//! second; the reference interpreter runs more than an order of magnitude
//! faster. Sampled simulation (SMARTS, Wunderlich et al., cited by the
//! paper's methodology) converts that gap into wall-clock speedups: a
//! **master functional run** executes the whole program on
//! [`nda_isa::Interp`] while *functionally warming* micro-architectural
//! state — cache tag/LRU state via [`MemHier::warm_touch_data`] /
//! [`MemHier::warm_touch_inst`], and the direction predictor, BTB and RAS
//! via their functional-update paths. At the start of every
//! [`sample_every`](SampledParams::sample_every)-instruction interval
//! (including instruction 0, so the cold-start prologue is sampled) it
//! snapshots a [`Checkpoint`]; each checkpoint seeds a **detailed window**
//! (a fresh
//! timing core restored from the checkpoint) that runs
//! [`warm_insts`](SampledParams::warm_insts) committed instructions to let
//! pipeline-local state (ROB, queues, MSHRs) reach steady state, then
//! measures CPI over [`detail_insts`](SampledParams::detail_insts). The
//! per-window CPIs aggregate through [`nda_stats::Sample`] into a mean with
//! a 95 % confidence interval.
//!
//! Because the checkpoints are plain values, a sweep can collect them
//! **once per (workload, sample)** and restore them for *each* variant —
//! paying warm-up once instead of once per variant
//! (`nda-bench/src/sweep.rs` does exactly this for the 11 Fig 7 variants).
//!
//! Determinism: the functional run, the warming stream and every detailed
//! window are seeded, input-driven computations with no host-dependent
//! state, so restoring the same checkpoint twice yields bit-identical
//! windows — pinned by `crates/nda-core/tests/checkpoint.rs`.
//!
//! Warming model caveats (documented approximations, see DESIGN.md §10):
//! the functional path updates predictors in commit order (the detailed
//! front end updates them speculatively and recovers), never touches
//! wrong-path cache lines, and installs fills immediately instead of after
//! the miss latency. These perturb *micro-architectural* warm-up only; the
//! detailed warm window exists to absorb the residual error.

use crate::config::{CoreModel, SimConfig};
use crate::inorder::InOrderCore;
use crate::ooo::core::OooCore;
use crate::run::{RunResult, SampledInfo, SimError};
use nda_isa::{ExecHooks, Inst, Interp, InterpError, Program, StepInfo, TranslatedProgram};
use nda_mem::{MemHier, MemHierState};
use nda_predict::{Btb, BtbState, DirPredictor, Ras};
use nda_stats::{Sample, SimStats};

/// The U/W/D schedule of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledParams {
    /// Instructions fast-forwarded functionally between sample points (the
    /// SMARTS `U` phase).
    pub sample_every: u64,
    /// Committed instructions each detailed window runs before measuring
    /// (the `W` phase: drains cold-pipeline transients the functional
    /// warming cannot model).
    pub warm_insts: u64,
    /// Committed instructions each window measures (the `D` phase).
    pub detail_insts: u64,
    /// Checkpoint/window count cap (`usize::MAX` = one per sample point).
    pub max_windows: usize,
    /// Cycle budget for any single detailed warm or measure phase.
    pub budget_per_phase: u64,
}

impl SampledParams {
    /// Default per-phase cycle budget (matches
    /// [`SmartsParams`](crate::SmartsParams)).
    pub const DEFAULT_BUDGET_PER_PHASE: u64 = 200_000_000;

    /// A schedule with unlimited windows and the default phase budget.
    pub fn new(sample_every: u64, warm_insts: u64, detail_insts: u64) -> SampledParams {
        SampledParams {
            sample_every,
            warm_insts,
            detail_insts,
            max_windows: usize::MAX,
            budget_per_phase: SampledParams::DEFAULT_BUDGET_PER_PHASE,
        }
    }
}

impl Default for SampledParams {
    /// The pinned-workload default: detail ~8 % of the stream (2 k warm +
    /// 2 k measure every 50 k instructions).
    fn default() -> SampledParams {
        SampledParams::new(50_000, 2_000, 2_000)
    }
}

/// Architectural + warmed micro-architectural state at one sample point.
///
/// Everything needed to seed a detailed window on *any* variant: the
/// interpreter carries registers, PC, memory and MSRs; the hierarchy
/// carries warmed cache tags/LRU; the predictor trio carries trained
/// direction/target/return state. The hierarchy and the BTB are held as
/// sparse snapshots — their valid lines and entries only — and each
/// window's restore writes them into its own fresh core. `PartialEq`
/// compares the whole chain so round-trip tests can assert bit-exactness
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The reference interpreter at the sample point (architectural state).
    pub interp: Interp,
    /// Functionally warmed cache hierarchy.
    pub hier: MemHierState,
    /// Functionally trained direction predictor.
    pub dir: DirPredictor,
    /// Functionally trained branch target buffer.
    pub btb: BtbState,
    /// Functionally maintained return address stack.
    pub ras: Ras,
    /// Instructions retired when the checkpoint was taken.
    pub ff_insts: u64,
}

/// The checkpoints of one complete master functional run, plus its final
/// architectural state. Collect once, restore per variant.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSet {
    /// One checkpoint per sample point, in program order.
    pub checkpoints: Vec<Checkpoint>,
    /// The interpreter after the program halted.
    pub final_interp: Interp,
    /// Total architecturally retired instructions.
    pub total_insts: u64,
}

/// Functional warmer: mirrors, latency-free, the micro-architectural
/// touches the committed instruction stream would perform.
#[derive(Debug, Clone)]
struct Warmer {
    hier: MemHier,
    dir: DirPredictor,
    btb: Btb,
    ras: Ras,
    /// I-cache line most recently fetched from (both timing cores charge
    /// the i-side once per line transition; warming matches).
    last_line: Option<u64>,
}

impl Warmer {
    fn new(cfg: &SimConfig) -> Warmer {
        Warmer {
            hier: MemHier::new(cfg.mem),
            dir: DirPredictor::new(cfg.core.predictor_kind, cfg.core.gshare),
            btb: Btb::new(cfg.core.btb),
            ras: Ras::new(),
            last_line: None,
        }
    }

    /// Apply one committed instruction's warming effects. Predictor and
    /// BTB entries are keyed by the instruction's *byte address*
    /// (`program.inst_addr`), matching the front end.
    fn observe(&mut self, program: &Program, info: &StepInfo) {
        let iaddr = program.inst_addr(info.pc);
        let line = iaddr / 64;
        if self.last_line != Some(line) {
            self.hier.warm_touch_inst(iaddr);
            self.last_line = Some(line);
        }
        match info.inst {
            Inst::Branch { .. } => {
                self.dir
                    .functional_update(iaddr, info.taken.unwrap_or(false));
            }
            Inst::Call { .. } => self.ras.push(info.pc + 1),
            Inst::CallInd { .. } => {
                self.ras.push(info.pc + 1);
                self.btb.update(iaddr, info.next_pc);
            }
            Inst::JmpInd { .. } => self.btb.update(iaddr, info.next_pc),
            Inst::Ret => {
                self.ras.pop();
            }
            _ => {}
        }
        if let Some(addr) = info.data_addr {
            self.hier.warm_touch_data(addr);
        }
        if let Some(addr) = info.flush_addr {
            self.hier.flush_line(addr);
        }
    }
}

/// The pre-decoded fast path reports warming events through
/// [`ExecHooks`]; each callback is one arm of [`Warmer::observe`], so the
/// two engines produce identical warming state by construction (pinned by
/// `tests/translated.rs` down to the predictor accuracy counters, which
/// participate in checkpoint equality).
impl ExecHooks for Warmer {
    #[inline]
    fn inst(&mut self, iaddr: u64, iline: u64) {
        if self.last_line != Some(iline) {
            self.hier.warm_touch_inst(iaddr);
            self.last_line = Some(iline);
        }
    }

    #[inline]
    fn branch(&mut self, iaddr: u64, taken: bool) {
        self.dir.functional_update(iaddr, taken);
    }

    #[inline]
    fn call(&mut self, ret_pc: usize) {
        self.ras.push(ret_pc);
    }

    #[inline]
    fn call_ind(&mut self, iaddr: u64, ret_pc: usize, next_pc: usize) {
        self.ras.push(ret_pc);
        self.btb.update(iaddr, next_pc);
    }

    #[inline]
    fn jmp_ind(&mut self, iaddr: u64, next_pc: usize) {
        self.btb.update(iaddr, next_pc);
    }

    #[inline]
    fn ret(&mut self) {
        self.ras.pop();
    }

    #[inline]
    fn data(&mut self, addr: u64) {
        self.hier.warm_touch_data(addr);
    }

    #[inline]
    fn flush(&mut self, addr: u64) {
        self.hier.flush_line(addr);
    }
}

/// Which engine drives the master functional pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FfEngine {
    /// The pre-decoded threaded-code path
    /// ([`nda_isa::Interp::run_translated`]): decode once, dispatch on a
    /// flat op array. The default — several times faster, bit-exact.
    #[default]
    Translated,
    /// The reference path: [`nda_isa::Interp::step_info`] per instruction.
    /// Kept callable so the differential suite can pin the translated
    /// engine against it; not used in production paths.
    Reference,
}

fn interp_err(e: InterpError) -> SimError {
    match e {
        InterpError::PcOutOfRange { pc } => SimError::PcOutOfRange { pc },
        InterpError::UnhandledFault(f) => SimError::UnhandledFault(f),
        // The caller converts the step budget into CycleLimit itself;
        // Interp::run is never used here, so StepLimit cannot occur.
        InterpError::StepLimit => SimError::CycleLimit {
            cycles: 0,
            snapshot: None,
        },
    }
}

/// Run the master functional pass: execute `program` to completion on the
/// reference interpreter with functional warming, snapshotting a
/// [`Checkpoint`] every [`sample_every`](SampledParams::sample_every)
/// executed instructions (up to
/// [`max_windows`](SampledParams::max_windows) of them).
///
/// `max_insts` bounds the functional instruction count (callers typically
/// pass their detailed-mode cycle budget: every instruction costs at least
/// one detailed cycle on the blocking core, and the sweep budgets are far
/// from tight).
///
/// # Errors
///
/// [`SimError::CycleLimit`] when `max_insts` is exhausted before `Halt`,
/// plus the architectural errors of the interpreter
/// ([`SimError::UnhandledFault`], [`SimError::PcOutOfRange`]).
pub fn collect_checkpoints(
    cfg: &SimConfig,
    program: &Program,
    params: SampledParams,
    max_insts: u64,
) -> Result<CheckpointSet, SimError> {
    collect_checkpoints_with(cfg, program, params, max_insts, FfEngine::Translated)
}

/// [`collect_checkpoints`] with an explicit [`FfEngine`] choice. Both
/// engines produce bit-identical [`CheckpointSet`]s (pinned by
/// `tests/translated.rs`); production callers use the default
/// [`FfEngine::Translated`].
///
/// # Errors
///
/// See [`collect_checkpoints`].
pub fn collect_checkpoints_with(
    cfg: &SimConfig,
    program: &Program,
    params: SampledParams,
    max_insts: u64,
    engine: FfEngine,
) -> Result<CheckpointSet, SimError> {
    let mut interp = Interp::new(program);
    let mut warmer = Warmer::new(cfg);
    let tp = match engine {
        FfEngine::Translated => Some(TranslatedProgram::new(program)),
        FfEngine::Reference => None,
    };
    let mut checkpoints = Vec::new();
    let mut executed: u64 = 0;
    while !interp.halted() {
        // Checkpoint at the *start* of each sampling interval — including
        // instruction 0, so the (cold-start) prologue is represented in
        // the window population exactly as SMARTS prescribes. Each
        // detailed window then measures its own interval's opening
        // stretch.
        if checkpoints.len() < params.max_windows {
            checkpoints.push(Checkpoint {
                interp: interp.clone(),
                hier: warmer.hier.dump_state(),
                dir: warmer.dir.clone(),
                btb: warmer.btb.dump_state(),
                ras: warmer.ras.clone(),
                ff_insts: interp.retired(),
            });
        }
        // U phase: fast-forward one sampling interval. Faulting steps do
        // not retire but do make progress (PC moves to the handler), so the
        // interval counts *executed* steps.
        if let Some(tp) = &tp {
            // Pre-decoded batch: run up to a whole interval in one call,
            // capped by the remaining functional budget. The budget error
            // fires at the same executed count as the per-step path: a
            // short cap means the budget boundary falls inside this
            // interval, so finishing the cap without halting exhausts it.
            let cap = params.sample_every.min(max_insts - executed);
            let n = interp
                .run_translated(tp, cap, &mut warmer)
                .map_err(interp_err)?;
            executed += n;
            if !interp.halted() && n == cap && cap < params.sample_every {
                return Err(SimError::CycleLimit {
                    cycles: executed,
                    snapshot: None,
                });
            }
        } else {
            let mut n = 0;
            while n < params.sample_every && !interp.halted() {
                if executed >= max_insts {
                    return Err(SimError::CycleLimit {
                        cycles: executed,
                        snapshot: None,
                    });
                }
                let Some(info) = interp.step_info().map_err(interp_err)? else {
                    break;
                };
                warmer.observe(program, &info);
                executed += 1;
                n += 1;
            }
        }
    }
    let total_insts = interp.retired();
    Ok(CheckpointSet {
        checkpoints,
        final_interp: interp,
        total_insts,
    })
}

/// One detailed W+D window from `ckpt` on the configured core model.
/// Returns `None` if the program halts before committing a single measured
/// instruction (the window then contributes nothing).
fn run_window(
    cfg: SimConfig,
    program: &Program,
    ckpt: &Checkpoint,
    params: SampledParams,
) -> Result<Option<(f64, u64)>, SimError> {
    match cfg.model {
        CoreModel::OutOfOrder => {
            let mut core = OooCore::new(cfg, program);
            core.restore_checkpoint(&ckpt.interp, &ckpt.hier, &ckpt.dir, &ckpt.btb, &ckpt.ras);
            // W: commit warm_insts, discarding stats.
            core.reset_stats();
            let warm_deadline = core.cycle() + params.budget_per_phase;
            while core.stats.committed_insts < params.warm_insts && !core.halted() {
                if core.cycle() >= warm_deadline {
                    return Err(core.cycle_limit_error());
                }
                core.step_cycle();
                if let Some(err) = core.watchdog_error() {
                    return Err(err);
                }
            }
            let warmed = core.stats.committed_insts;
            // D: measure.
            core.reset_stats();
            let measure_deadline = core.cycle() + params.budget_per_phase;
            while core.stats.committed_insts < params.detail_insts && !core.halted() {
                if core.cycle() >= measure_deadline {
                    return Err(core.cycle_limit_error());
                }
                core.step_cycle();
                if let Some(err) = core.watchdog_error() {
                    return Err(err);
                }
            }
            let measured = core.stats.committed_insts;
            if measured == 0 {
                return Ok(None);
            }
            Ok(Some((core.stats.cpi(), warmed + measured)))
        }
        CoreModel::InOrder => {
            let mut core = InOrderCore::new(cfg, program);
            core.restore_checkpoint(&ckpt.interp, &ckpt.hier);
            // The blocking core tracks cycles inline; window CPI comes from
            // cycle/instruction deltas around the measure phase.
            let warm_deadline = core.cycle() + params.budget_per_phase;
            while core.stats.committed_insts < params.warm_insts && !core.halted() {
                if core.cycle() >= warm_deadline {
                    return Err(SimError::CycleLimit {
                        cycles: core.cycle(),
                        snapshot: None,
                    });
                }
                core.step()?;
            }
            let warmed = core.stats.committed_insts;
            let (c0, i0) = (core.cycle(), core.stats.committed_insts);
            let measure_deadline = c0 + params.budget_per_phase;
            while core.stats.committed_insts - i0 < params.detail_insts && !core.halted() {
                if core.cycle() >= measure_deadline {
                    return Err(SimError::CycleLimit {
                        cycles: core.cycle(),
                        snapshot: None,
                    });
                }
                core.step()?;
            }
            let measured = core.stats.committed_insts - i0;
            if measured == 0 {
                return Ok(None);
            }
            let cpi = (core.cycle() - c0) as f64 / measured as f64;
            Ok(Some((cpi, warmed + measured)))
        }
    }
}

/// Run the detailed windows of a sampled measurement against an existing
/// [`CheckpointSet`] (collected once, shared across variants) and fold the
/// result into a [`RunResult`].
///
/// The returned result carries the *functional* run's architectural state
/// (registers, halt flag, retired count) — bit-exact with a full-detail
/// run by the differential-correctness contract — an **estimated** cycle
/// count (`cpi.mean × retired`), and [`RunResult::sampled`] with the
/// window statistics. `mem_stats` covers only the detailed windows.
///
/// A program too short to yield any checkpoint (or whose windows all halt
/// immediately) falls back to a full-detail run.
///
/// # Errors
///
/// See [`SimError`].
pub fn run_sampled_with(
    cfg: SimConfig,
    program: &Program,
    set: &CheckpointSet,
    params: SampledParams,
) -> Result<RunResult, SimError> {
    let mut cpis = Vec::with_capacity(set.checkpoints.len());
    let mut detailed_insts = 0u64;
    for ckpt in &set.checkpoints {
        if let Some((cpi, insts)) = run_window(cfg, program, ckpt, params)? {
            cpis.push(cpi);
            detailed_insts += insts;
        }
    }
    if cpis.is_empty() {
        // Too short to sample: run it in full detail.
        return crate::run::run_with_config(cfg, program, params.budget_per_phase);
    }
    let sample = Sample::from_values(&cpis);
    let mut stats = SimStats::new();
    stats.committed_insts = set.total_insts;
    stats.cycles = (sample.mean * set.total_insts as f64).round() as u64;
    Ok(RunResult {
        regs: *set.final_interp.regs(),
        stats,
        mem_stats: nda_mem::MemStats::default(),
        halted: set.final_interp.halted(),
        host_ns: 0,
        sampled: Some(SampledInfo {
            cpi: sample,
            detailed_insts,
            fast_forwarded_insts: set.total_insts,
            windows: cpis.len(),
            ff_wall_ns: 0,
            detail_wall_ns: 0,
        }),
    })
}

/// Sampled simulation end to end: collect checkpoints with one master
/// functional pass, then run the detailed windows. `max_insts` bounds the
/// functional pass (pass the cycle budget a full-detail run would get).
///
/// # Errors
///
/// See [`SimError`].
pub fn run_sampled(
    cfg: SimConfig,
    program: &Program,
    params: SampledParams,
    max_insts: u64,
) -> Result<RunResult, SimError> {
    let start = std::time::Instant::now();
    let set = collect_checkpoints(&cfg, program, params, max_insts)?;
    let ff_wall_ns = start.elapsed().as_nanos() as u64;
    let detail_start = std::time::Instant::now();
    let mut r = run_sampled_with(cfg, program, &set, params)?;
    let detail_wall_ns = detail_start.elapsed().as_nanos() as u64;
    if let Some(s) = &mut r.sampled {
        s.ff_wall_ns = ff_wall_ns;
        s.detail_wall_ns = detail_wall_ns;
    }
    r.host_ns = start.elapsed().as_nanos() as u64;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use nda_isa::{Asm, Reg};

    /// A loop long enough to yield several sample points.
    fn looped_program(iters: u64) -> Program {
        let mut asm = Asm::new();
        let done = asm.new_label();
        asm.li(Reg::X2, iters).li(Reg::X3, 0).li(Reg::X5, 0x1_0000);
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.addi(Reg::X3, Reg::X3, 3);
        asm.st8(Reg::X3, Reg::X5, 0);
        asm.ld8(Reg::X4, Reg::X5, 0);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn checkpoints_are_spaced_and_architecturally_consistent() {
        let p = looped_program(2_000);
        let cfg = SimConfig::ooo();
        let params = SampledParams::new(1_000, 100, 100);
        let set = collect_checkpoints(&cfg, &p, params, u64::MAX).unwrap();
        assert!(set.checkpoints.len() >= 2, "{}", set.checkpoints.len());
        for w in set.checkpoints.windows(2) {
            assert!(w[1].ff_insts > w[0].ff_insts);
        }
        // Each checkpoint's interpreter, resumed, reaches the same final
        // architectural state as the master run.
        let mut resumed = set.checkpoints[0].interp.clone();
        resumed.run(u64::MAX / 2).unwrap();
        assert_eq!(resumed.regs(), set.final_interp.regs());
        assert_eq!(resumed.retired(), set.total_insts);
    }

    #[test]
    fn watchdog_surfaces_stall_through_sampled_windows() {
        // A wedged detailed window must abort with `Stalled` after one
        // watchdog window instead of burning the whole per-phase cycle
        // budget: with every cold DRAM fetch taking 50M cycles, waiting
        // out `budget_per_phase` (200M) would dwarf the 500-cycle window.
        let p = looped_program(2_000);
        let mut cfg = SimConfig::ooo();
        cfg.mem.dram_latency = 50_000_000;
        cfg.watchdog_window = Some(500);
        let err = run_sampled(cfg, &p, SampledParams::new(500, 100, 100), u64::MAX).unwrap_err();
        match err {
            SimError::Stalled { cycles, window, .. } => {
                assert_eq!(window, 500);
                assert!(cycles < 1_000_000, "watchdog fired late: cycle {cycles}");
            }
            other => panic!("expected SimError::Stalled, got: {other}"),
        }
    }

    #[test]
    fn sampled_cpi_close_to_full_detail() {
        let p = looped_program(5_000);
        let full = crate::run::run_variant(Variant::Ooo, &p, 200_000_000).unwrap();
        let r = run_sampled(
            SimConfig::ooo(),
            &p,
            SampledParams::new(2_000, 500, 500),
            u64::MAX,
        )
        .unwrap();
        let info = r.sampled.expect("sampled info attached");
        assert!(info.windows >= 2);
        assert_eq!(r.regs, full.regs, "architectural state must be exact");
        assert_eq!(r.stats.committed_insts, full.stats.committed_insts);
        // The homogeneous loop body should sample to within its own CI
        // (generous slack: the loop is uniform, so windows are tight).
        let full_cpi = full.cpi();
        assert!(
            (info.cpi.mean - full_cpi).abs() <= (info.cpi.ci95 + 0.05 * full_cpi),
            "sampled {} ± {} vs full {}",
            info.cpi.mean,
            info.cpi.ci95,
            full_cpi
        );
    }

    #[test]
    fn short_program_falls_back_to_full_detail() {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 7).halt();
        let p = asm.assemble().unwrap();
        let r = run_sampled(SimConfig::ooo(), &p, SampledParams::default(), u64::MAX).unwrap();
        assert!(r.sampled.is_none(), "too short to sample");
        assert_eq!(r.regs[2], 7);
        assert!(r.halted);
    }

    #[test]
    fn checkpoint_reuse_across_variants_preserves_architecture() {
        let p = looped_program(1_500);
        let cfg = SimConfig::for_variant(Variant::Ooo);
        let params = SampledParams::new(1_000, 200, 200);
        let set = collect_checkpoints(&cfg, &p, params, u64::MAX).unwrap();
        for v in Variant::all() {
            let r = run_sampled_with(SimConfig::for_variant(v), &p, &set, params)
                .unwrap_or_else(|e| panic!("{v}: {e}"));
            assert_eq!(r.regs, *set.final_interp.regs(), "{v}");
            assert!(r.halted, "{v}");
        }
    }
}
