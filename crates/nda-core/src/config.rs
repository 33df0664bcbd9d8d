//! Simulator configuration (paper Table 3) and the fifteen evaluated
//! variants.

use crate::policy::{Anatomy, Border, Defense, Propagation};
use nda_mem::MemHierConfig;
use nda_predict::{BtbConfig, GshareConfig, PredictorKind};
use std::fmt;

/// Core micro-architecture parameters.
///
/// Defaults reproduce the paper's Table 3: x86-64-like at 2 GHz, 8-issue,
/// no SMT, 32-entry load queue, 32-entry store queue, 192-entry ROB,
/// 4096-entry BTB, 16-entry RAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions entering execution per cycle (Table 3: 8-issue).
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries (Table 3: 192).
    pub rob_entries: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Load-queue entries (Table 3: 32).
    pub lq_entries: usize,
    /// Store-queue entries (Table 3: 32).
    pub sq_entries: usize,
    /// Physical registers.
    pub num_pregs: usize,
    /// Front-end depth: cycles from fetch to dispatch. Together with
    /// issue/execute this makes a branch misprediction cost ~16 cycles,
    /// matching the paper's measured BTB-miss resolution.
    pub fetch_to_dispatch: u64,
    /// Fetch-buffer capacity in micro-ops.
    pub fetch_buffer: usize,
    /// ALU issue bandwidth per cycle.
    pub alu_units: usize,
    /// Load-pipe issue bandwidth per cycle.
    pub load_ports: usize,
    /// Store-pipe issue bandwidth per cycle.
    pub store_ports: usize,
    /// Branch-unit issue bandwidth per cycle.
    pub branch_units: usize,
    /// Tag-broadcast ports per cycle (the paper adds none over baseline;
    /// deferred NDA broadcasts compete for the same ports).
    pub broadcast_ports: usize,
    /// Extra cycles between an instruction becoming safe and its deferred
    /// broadcast (the Fig 9e sensitivity knob).
    pub broadcast_extra_delay: u64,
    /// Store-to-load forwarding latency in cycles.
    pub store_forward_latency: u64,
    /// Model the Meltdown-class implementation flaw: a faulting load
    /// forwards real data to wrong-path dependents before the fault fires.
    pub meltdown_flaw: bool,
    /// Allow loads to speculatively bypass older stores with unresolved
    /// addresses (Spectre v4 surface). Disabling this is the SSBD-style
    /// mitigation NDA's Bypass Restriction improves upon.
    pub speculative_store_bypass: bool,
    /// Model FPU/multiplier power gating: after
    /// [`CoreConfig::fpu_power_down_after`] idle cycles the multiply unit
    /// powers down and the next multiply pays
    /// [`CoreConfig::fpu_wake_penalty`] extra cycles. This is the
    /// NetSpectre covert channel (paper §1, §3) — off by default so the
    /// performance studies match Table 3; the NetSpectre PoC turns it on.
    pub fpu_power_model: bool,
    /// Idle cycles before the multiply unit powers down.
    pub fpu_power_down_after: u64,
    /// Extra latency of a multiply issued to a powered-down unit.
    pub fpu_wake_penalty: u64,
    /// Model the divider as non-pipelined: a division occupies the unit
    /// for its full latency and younger divisions wait. This is the
    /// execution-port contention surface of SMoTherSpectre (paper §1, §3,
    /// Table 1). On by default — real dividers are not pipelined.
    pub nonpipelined_divider: bool,
    /// Branch target buffer geometry/update policy.
    pub btb: BtbConfig,
    /// Direction predictor geometry.
    pub gshare: GshareConfig,
    /// Direction predictor flavour (the predictor-quality ablation swaps
    /// this; NDA's control-steering cost tracks misprediction rate).
    pub predictor_kind: PredictorKind,
}

impl CoreConfig {
    /// The Table 3 configuration.
    pub fn haswell_like() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 192,
            iq_entries: 60,
            lq_entries: 32,
            sq_entries: 32,
            num_pregs: 256,
            fetch_to_dispatch: 5,
            fetch_buffer: 24,
            alu_units: 4,
            load_ports: 2,
            store_ports: 1,
            branch_units: 2,
            broadcast_ports: 8,
            broadcast_extra_delay: 0,
            store_forward_latency: 4,
            meltdown_flaw: true,
            speculative_store_bypass: true,
            fpu_power_model: false,
            fpu_power_down_after: 256,
            fpu_wake_penalty: 20,
            nonpipelined_divider: true,
            btb: BtbConfig::default(),
            gshare: GshareConfig::default(),
            predictor_kind: PredictorKind::Gshare,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::haswell_like()
    }
}

/// Which timing model executes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreModel {
    /// The out-of-order core (optionally NDA- or InvisiSpec-constrained).
    OutOfOrder,
    /// The blocking in-order baseline.
    InOrder,
}

/// A complete simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemHierConfig,
    /// Speculation defense (ignored by the in-order model).
    pub defense: Defense,
    /// Timing model.
    pub model: CoreModel,
    /// Validate micro-architectural conservation laws (physical-register
    /// partition, ROB/LSQ ordering, NDA safety monotonicity, commit-stream
    /// equivalence against a shadow interpreter) at the end of every cycle.
    /// A failure ends the run with [`SimError`](crate::SimError)`
    /// ::InvariantViolation` instead of silently corrupting results. Off by
    /// default: it adds a per-cycle full-pipeline walk.
    pub check_invariants: bool,
    /// Forward-progress watchdog: if no instruction commits for this many
    /// cycles, abort with [`SimError`](crate::SimError)`::Stalled` and a
    /// pipeline snapshot naming the stuck ROB head. `None` disables the
    /// watchdog. Out-of-order model only.
    pub watchdog_window: Option<u64>,
}

impl SimConfig {
    /// Baseline insecure out-of-order configuration.
    pub fn ooo() -> SimConfig {
        SimConfig {
            core: CoreConfig::haswell_like(),
            mem: MemHierConfig::haswell_like(),
            defense: Defense::None,
            model: CoreModel::OutOfOrder,
            check_invariants: false,
            watchdog_window: Some(50_000),
        }
    }

    /// The configuration for one of the fifteen evaluated [`Variant`]s:
    /// the preset table of [`Defense`]s.
    pub fn for_variant(v: Variant) -> SimConfig {
        use Border::{Branch, Head, UnresolvedBranch};
        let nda = |propagation, bypass_restriction, load_restriction| Defense::DelayBroadcast {
            propagation,
            bypass_restriction,
            load_restriction,
        };
        let gate = |border, propagated_untaint| Defense::GateTransmit {
            border,
            propagated_untaint,
        };
        let defense = match v {
            Variant::Ooo | Variant::InOrder => Defense::None,
            Variant::Permissive => nda(Propagation::Permissive, false, false),
            Variant::PermissiveBr => nda(Propagation::Permissive, true, false),
            Variant::Strict => nda(Propagation::Strict, false, false),
            Variant::StrictBr => nda(Propagation::Strict, true, false),
            Variant::RestrictedLoads => nda(Propagation::Off, false, true),
            Variant::FullProtection => nda(Propagation::Strict, true, true),
            Variant::InvisiSpecSpectre => Defense::InvisibleLoad(UnresolvedBranch),
            Variant::InvisiSpecFuture => Defense::InvisibleLoad(Head),
            Variant::DelayOnMiss => Defense::DelayOnMiss,
            Variant::SttSpectre => gate(UnresolvedBranch, true),
            Variant::SttFuturistic => gate(Head, true),
            Variant::ShadowBindingEager => gate(UnresolvedBranch, false),
            Variant::ShadowBindingLazy => gate(Branch, false),
        };
        let model = match v {
            Variant::InOrder => CoreModel::InOrder,
            _ => CoreModel::OutOfOrder,
        };
        SimConfig {
            defense,
            model,
            ..SimConfig::ooo()
        }
    }

    /// Does this configuration stop a chain of anatomy `a`? The in-order
    /// core executes no wrong path and blocks everything; the out-of-order
    /// core blocks what its [`Defense`] blocks.
    pub fn blocks(&self, a: &Anatomy) -> bool {
        self.model == CoreModel::InOrder || self.defense.blocks(a)
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::ooo()
    }
}

/// The evaluated configurations: Fig 7's ten in the paper's order, then
/// the related-work defenses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Variant {
    Ooo,
    Permissive,
    PermissiveBr,
    Strict,
    StrictBr,
    RestrictedLoads,
    FullProtection,
    InOrder,
    InvisiSpecSpectre,
    InvisiSpecFuture,
    /// Delay-on-miss (Sakalis et al.): related-work comparison point that
    /// holds speculative L1-missing loads.
    DelayOnMiss,
    /// STT under the Spectre threat model: per-preg taint on speculative
    /// load results, only *transmitting* uses delayed, untaint propagated
    /// through the wakeup network.
    SttSpectre,
    /// STT under the futuristic threat model: loads stay tainted until
    /// they reach the ROB head (covers chosen-code attacks too).
    SttFuturistic,
    /// ShadowBinding with eager (same-cycle flash) untaint.
    ShadowBindingEager,
    /// ShadowBinding with lazy (branch-commit) untaint.
    ShadowBindingLazy,
}

impl Variant {
    /// Every variant: the paper's Fig 7 legend order, plus the
    /// delay-on-miss related-work baseline and the STT/ShadowBinding
    /// taint-tracking family.
    pub fn all() -> [Variant; 15] {
        [
            Variant::Ooo,
            Variant::Permissive,
            Variant::PermissiveBr,
            Variant::Strict,
            Variant::StrictBr,
            Variant::RestrictedLoads,
            Variant::FullProtection,
            Variant::InOrder,
            Variant::InvisiSpecSpectre,
            Variant::InvisiSpecFuture,
            Variant::DelayOnMiss,
            Variant::SttSpectre,
            Variant::SttFuturistic,
            Variant::ShadowBindingEager,
            Variant::ShadowBindingLazy,
        ]
    }

    /// The taint-tracking (STT/ShadowBinding) family.
    pub fn taint_family() -> [Variant; 4] {
        [
            Variant::SttSpectre,
            Variant::SttFuturistic,
            Variant::ShadowBindingEager,
            Variant::ShadowBindingLazy,
        ]
    }

    /// The six NDA policies plus the two baselines (no InvisiSpec).
    pub fn nda_sweep() -> [Variant; 8] {
        [
            Variant::Ooo,
            Variant::Permissive,
            Variant::PermissiveBr,
            Variant::Strict,
            Variant::StrictBr,
            Variant::RestrictedLoads,
            Variant::FullProtection,
            Variant::InOrder,
        ]
    }

    /// The variant named `name` (see [`squash_name`]), e.g.
    /// `"full-protection"` or `"Permissive+BR"`. `None` for an empty or
    /// unknown name.
    pub fn parse(name: &str) -> Option<Variant> {
        let want = squash_name(name);
        Variant::all()
            .into_iter()
            .find(|v| squash_name(v.name()) == want)
    }

    /// Display name matching the Fig 7 legend.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Ooo => "OoO",
            Variant::Permissive => "Permissive",
            Variant::PermissiveBr => "Permissive+BR",
            Variant::Strict => "Strict",
            Variant::StrictBr => "Strict+BR",
            Variant::RestrictedLoads => "Restricted Loads",
            Variant::FullProtection => "Full Protection",
            Variant::InOrder => "In-Order",
            Variant::InvisiSpecSpectre => "InvisiSpec-Spectre",
            Variant::InvisiSpecFuture => "InvisiSpec-Future",
            Variant::DelayOnMiss => "Delay-On-Miss",
            Variant::SttSpectre => "STT-Spectre",
            Variant::SttFuturistic => "STT-Futuristic",
            Variant::ShadowBindingEager => "ShadowBinding-Eager",
            Variant::ShadowBindingLazy => "ShadowBinding-Lazy",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A name as the command line and the server match it: lower case, with
/// spaces, hyphens, underscores, plus signs and parentheses dropped.
pub fn squash_name(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_' | '+' | '(' | ')'))
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters() {
        let c = CoreConfig::haswell_like();
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.lq_entries, 32);
        assert_eq!(c.sq_entries, 32);
        assert_eq!(c.btb.entries, 4096);
    }

    #[test]
    fn variants_map_to_distinct_presets() {
        // Every variant is its own preset; only In-Order leaves the
        // out-of-order model (and so shares `Defense::None` with OoO).
        let presets: std::collections::HashSet<_> = Variant::all()
            .into_iter()
            .map(|v| {
                let cfg = SimConfig::for_variant(v);
                assert_eq!(cfg.model == CoreModel::InOrder, v == Variant::InOrder);
                (cfg.model, cfg.defense)
            })
            .collect();
        assert_eq!(presets.len(), 15);
        assert_eq!(
            SimConfig::for_variant(Variant::FullProtection).defense,
            Defense::DelayBroadcast {
                propagation: Propagation::Strict,
                bypass_restriction: true,
                load_restriction: true,
            }
        );
        assert_eq!(
            SimConfig::for_variant(Variant::InvisiSpecFuture).defense,
            Defense::InvisibleLoad(Border::Head)
        );
        assert_eq!(
            SimConfig::for_variant(Variant::ShadowBindingLazy).defense,
            Defense::GateTransmit {
                border: Border::Branch,
                propagated_untaint: false,
            }
        );
    }

    #[test]
    fn all_lists_fifteen_unique() {
        let all = Variant::all();
        assert_eq!(all.len(), 15);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        for v in Variant::taint_family() {
            assert!(all.contains(&v));
        }
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for v in Variant::all() {
            assert!(!v.name().is_empty());
            assert!(seen.insert(v.name()));
            assert_eq!(Variant::parse(v.name()), Some(v));
        }
        assert_eq!(
            Variant::parse("full-protection"),
            Some(Variant::FullProtection)
        );
        assert_eq!(Variant::parse("STRICT+br"), Some(Variant::StrictBr));
        assert_eq!(Variant::parse("permissive-br"), Some(Variant::PermissiveBr));
        assert_eq!(Variant::parse(""), None);
        assert_eq!(Variant::parse("--"), None);
        assert_eq!(Variant::parse("strictest"), None);
    }
}
