//! # Speculative-execution attack proof-of-concepts
//!
//! The paper's attack suite, written in SpecRISC and run on the simulated
//! cores:
//!
//! * [`spectre_v1`] — Listing 1: control-steering, d-cache covert channel.
//! * [`spectre_btb`] — Listing 3 / §3: control-steering, **BTB** covert
//!   channel (the paper's new channel; defeats cache-only defenses).
//! * [`ssb`] — Spectre v4: speculative store bypass.
//! * [`meltdown`] — Listing 2: chosen-code faulting load, d-cache channel.
//! * [`lazyfp`] — chosen-code special-register read (LazyFP / Meltdown
//!   v3a analogue) via `RdMsr`.
//!
//! Every attack follows the paper's three phases (Fig 3): *access* a secret
//! in wrong-path execution, *transmit* it through a micro-architectural
//! channel, *recover* it with architectural timing. Each module builds a
//! [`Program`] parameterised by the secret byte; [`run_attack`] executes it
//! on any evaluated [`Variant`] and [`detect::analyze`]s the recovered
//! timing vector.
//!
//! [`AttackKind::expected_blocked`] encodes the ground truth of the paper's
//! Tables 1-2 — which defense stops which attack — and the integration
//! tests assert the simulation reproduces that matrix exactly.
//!
//! ```no_run
//! use nda_attacks::{run_attack, AttackKind};
//! use nda_core::Variant;
//!
//! let insecure = run_attack(AttackKind::SpectreV1Cache, Variant::Ooo, 42);
//! assert!(insecure.leaked, "baseline OoO leaks");
//! let protected = run_attack(AttackKind::SpectreV1Cache, Variant::Permissive, 42);
//! assert!(!protected.leaked, "NDA blocks the leak");
//! ```

#![forbid(unsafe_code)]

pub mod detect;
pub mod layout;
pub mod lazyfp;
pub mod meltdown;
pub mod netspectre_fpu;
pub mod ret2spec;
pub mod smother;
pub mod spectre_btb;
pub mod spectre_v1;
pub mod spectre_v2_gpr;
pub mod ssb;
pub mod util;

pub use detect::{analyze, analyze_bits, AttackOutcome};
pub use layout::*;

use nda_core::config::{squash_name, CoreModel, SimConfig};
use nda_core::{InOrderCore, OooCore, Variant};
use nda_isa::Program;
use std::fmt;

/// The five attack proof-of-concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Spectre v1, cache covert channel (paper Listing 1).
    SpectreV1Cache,
    /// Spectre v1, BTB covert channel (paper Listing 3, §3).
    SpectreV1Btb,
    /// Spectre v4: speculative store bypass, cache channel.
    Ssb,
    /// Meltdown: chosen-code faulting load, cache channel (Listing 2).
    Meltdown,
    /// LazyFP / Meltdown v3a analogue: chosen-code privileged `RdMsr`.
    LazyFp,
    /// Spectre v2 against a GPR-resident secret (paper §4.2): BTB-steered
    /// indirect call, cache channel, arithmetic-only pre-processing.
    SpectreV2Gpr,
    /// ret2spec-style RAS steering of a GPR secret, cache channel.
    Ret2spec,
    /// NetSpectre-style leak through the FPU power state — no cache use
    /// at all.
    NetspectreFpu,
    /// SMoTherSpectre-style leak through divider port contention.
    Smother,
}

impl AttackKind {
    /// All attacks: Table 1 order, then this reproduction's extensions
    /// (GPR-targeting control-steering and the FPU power channel).
    pub fn all() -> [AttackKind; 9] {
        [
            AttackKind::SpectreV1Cache,
            AttackKind::SpectreV1Btb,
            AttackKind::Ssb,
            AttackKind::Meltdown,
            AttackKind::LazyFp,
            AttackKind::SpectreV2Gpr,
            AttackKind::Ret2spec,
            AttackKind::NetspectreFpu,
            AttackKind::Smother,
        ]
    }

    /// The paper's original five attacks (Table 1 exactly).
    pub fn paper_five() -> [AttackKind; 5] {
        [
            AttackKind::SpectreV1Cache,
            AttackKind::SpectreV1Btb,
            AttackKind::Ssb,
            AttackKind::Meltdown,
            AttackKind::LazyFp,
        ]
    }

    /// The attack named `name` (see [`nda_core::config::squash_name`]): an
    /// exact match wins, otherwise the first attack whose name contains
    /// `name` (`"v1 (cache)"`, `"ssb"`). `None` for an empty or unknown
    /// name.
    pub fn parse(name: &str) -> Option<AttackKind> {
        let want = squash_name(name);
        if want.is_empty() {
            return None;
        }
        let all = AttackKind::all();
        all.iter()
            .find(|k| squash_name(k.name()) == want)
            .or_else(|| all.iter().find(|k| squash_name(k.name()).contains(&want)))
            .copied()
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::SpectreV1Cache => "Spectre v1 (cache)",
            AttackKind::SpectreV1Btb => "Spectre v1 (BTB)",
            AttackKind::Ssb => "Spectre v4 (SSB)",
            AttackKind::Meltdown => "Meltdown",
            AttackKind::LazyFp => "LazyFP (rdmsr)",
            AttackKind::SpectreV2Gpr => "Spectre v2 (GPR)",
            AttackKind::Ret2spec => "ret2spec (GPR)",
            AttackKind::NetspectreFpu => "NetSpectre (FPU)",
            AttackKind::Smother => "SMoTher (ports)",
        }
    }

    /// The paper's class: control-steering or chosen-code (§3.1).
    pub fn is_chosen_code(self) -> bool {
        matches!(self, AttackKind::Meltdown | AttackKind::LazyFp)
    }

    /// Build the attack program for a given secret byte.
    pub fn program(self, secret: u8) -> Program {
        match self {
            AttackKind::SpectreV1Cache => spectre_v1::program(secret),
            AttackKind::SpectreV1Btb => spectre_btb::program(secret),
            AttackKind::Ssb => ssb::program(secret),
            AttackKind::Meltdown => meltdown::program(secret),
            AttackKind::LazyFp => lazyfp::program(secret),
            AttackKind::SpectreV2Gpr => spectre_v2_gpr::program(secret),
            AttackKind::Ret2spec => ret2spec::program(secret),
            AttackKind::NetspectreFpu => netspectre_fpu::program(secret),
            AttackKind::Smother => smother::program(secret),
        }
    }

    /// Attack-specific simulator requirements (the NetSpectre channel
    /// needs the FPU power model, which is off in the Table 3 defaults).
    pub fn tweak_config(self, cfg: &mut SimConfig) {
        if self == AttackKind::NetspectreFpu {
            cfg.core.fpu_power_model = true;
        }
    }

    /// Timing margin (cycles) separating a hit from a miss in this
    /// attack's covert channel.
    pub fn margin(self) -> u64 {
        match self {
            // d-cache: DRAM(~144) vs L1(4).
            AttackKind::SpectreV1Cache
            | AttackKind::Ssb
            | AttackKind::Meltdown
            | AttackKind::LazyFp
            | AttackKind::SpectreV2Gpr
            | AttackKind::Ret2spec => 40,
            // BTB: ~16-cycle squash penalty.
            AttackKind::SpectreV1Btb => 6,
            // FPU: the wake-up penalty (20 cycles by default).
            AttackKind::NetspectreFpu => 8,
            // Divider drain: a handful of cycles of residual occupancy.
            AttackKind::Smother => 5,
        }
    }

    /// Guess values the analysis must ignore because the attack itself
    /// pollutes them: the SSB replay re-transmits with the architectural
    /// value 0, and the Spectre PoCs' in-bounds training calls
    /// architecturally transmit the decoy array value 200. A real attacker
    /// knows both and discounts them the same way.
    pub fn polluted_guesses(self) -> &'static [u8] {
        match self {
            AttackKind::Ssb => &[0],
            AttackKind::SpectreV1Cache | AttackKind::SpectreV1Btb | AttackKind::SpectreV2Gpr => {
                &[200]
            }
            _ => &[],
        }
    }

    /// The secret-data labeling for the static analyzer
    /// (`nda-analyze`): which state the victim considers confidential.
    /// This is the analyzer's only input besides the program — it gets no
    /// hints about gadget structure.
    pub fn secret_spec(self) -> nda_isa::SecretSpec {
        use nda_isa::SecretSpec;
        match self {
            // Control-steering attacks on the in-process secret byte.
            AttackKind::SpectreV1Cache
            | AttackKind::SpectreV1Btb
            | AttackKind::NetspectreFpu
            | AttackKind::Smother => SecretSpec::empty().with_range(SECRET_ADDR, 1),
            // SSB reads the stale secret cell the victim overwrites.
            AttackKind::Ssb => SecretSpec::empty().with_range(SSB_DATA_ADDR, 1),
            // Chosen-code attacks: all privileged state is secret.
            AttackKind::Meltdown => SecretSpec::empty().with_privileged(),
            AttackKind::LazyFp => SecretSpec::empty().with_msr(SECRET_MSR),
            // GPR-resident secrets are loaded once at setup from these
            // cells.
            AttackKind::SpectreV2Gpr => {
                SecretSpec::empty().with_range(spectre_v2_gpr::GPR_SECRETS, 16)
            }
            AttackKind::Ret2spec => SecretSpec::empty().with_range(ret2spec::GPR_SECRET_CELL, 8),
        }
    }

    /// Ground truth of the paper's Tables 1-2: is this attack *blocked* on
    /// the given variant?
    pub fn expected_blocked(self, v: Variant) -> bool {
        use AttackKind::*;
        use Variant::*;
        match v {
            // The insecure baseline blocks nothing.
            Ooo => false,
            // In-order executes no wrong path at all.
            InOrder => true,
            // NDA propagation policies block all memory-secret
            // control-steering attacks regardless of covert channel; BR is
            // needed for SSB; GPR secrets need *strict* (permissive marks
            // only loads unsafe, and a GPR transmit is pure arithmetic);
            // only load restriction stops chosen-code attacks.
            Permissive => matches!(
                self,
                SpectreV1Cache | SpectreV1Btb | NetspectreFpu | Smother
            ),
            Strict => matches!(
                self,
                SpectreV1Cache | SpectreV1Btb | NetspectreFpu | Smother | SpectreV2Gpr | Ret2spec
            ),
            PermissiveBr => {
                matches!(
                    self,
                    SpectreV1Cache | SpectreV1Btb | NetspectreFpu | Smother | Ssb
                )
            }
            StrictBr => matches!(
                self,
                SpectreV1Cache
                    | SpectreV1Btb
                    | NetspectreFpu
                    | Smother
                    | SpectreV2Gpr
                    | Ret2spec
                    | Ssb
            ),
            // Load restriction stops every *load-sourced* secret (all the
            // paper's attacks) but a GPR secret's arithmetic transmit
            // still reaches the cache.
            RestrictedLoads => !matches!(self, SpectreV2Gpr | Ret2spec),
            FullProtection => true,
            // InvisiSpec closes only the d-cache channel: the BTB and FPU
            // channels leak through. Its Spectre variant covers only
            // control-flow speculation (not SSB or chosen code), but that
            // includes the GPR attacks' cache transmits.
            InvisiSpecSpectre => {
                matches!(self, SpectreV1Cache | SpectreV2Gpr | Ret2spec)
            }
            InvisiSpecFuture => {
                matches!(
                    self,
                    SpectreV1Cache | Ssb | Meltdown | LazyFp | SpectreV2Gpr | Ret2spec
                )
            }
            // Delay-on-miss holds speculative L1-missing loads: blocks
            // cache-miss transmits under control speculation, nothing else.
            DelayOnMiss => matches!(self, SpectreV1Cache | SpectreV2Gpr | Ret2spec),
            // Taint tracking gates *transmitting* uses of speculatively
            // loaded data: the memory-secret control-steering attacks die
            // (their tainted address reaches a load/store/BTB transmit).
            // GPR-resident secrets were architecturally committed long
            // before the gadget runs — never tainted, never gated. The
            // contention channels (FPU wake-up, divider occupancy) steer
            // through a *conditional branch on tainted data*, and STT's
            // explicit-channel gate deliberately leaves branch conditions
            // unchecked — the documented implicit-channel gap.
            SttSpectre | ShadowBindingEager | ShadowBindingLazy => {
                matches!(self, SpectreV1Cache | SpectreV1Btb)
            }
            // The futuristic threat model additionally taints chosen-code
            // (faulting / MSR) and memory-order speculation sources.
            SttFuturistic => {
                matches!(
                    self,
                    SpectreV1Cache | SpectreV1Btb | Ssb | Meltdown | LazyFp
                )
            }
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycle budget for attack programs (the recover loop times 256 cold
/// misses, and the in-order baseline is slow).
pub const ATTACK_MAX_CYCLES: u64 = 80_000_000;

/// Run `kind` with `secret` on `v` and analyse the leak.
///
/// # Panics
///
/// Panics if the program does not halt within the cycle budget (attack
/// programs are self-contained and always architecturally terminate).
pub fn run_attack(kind: AttackKind, v: Variant, secret: u8) -> AttackOutcome {
    let program = kind.program(secret);
    let mut cfg = SimConfig::for_variant(v);
    kind.tweak_config(&mut cfg);
    let bitwise = matches!(kind, AttackKind::NetspectreFpu | AttackKind::Smother);
    let slots = if bitwise { 8 } else { 256 };
    let timings: Vec<u64> = match cfg.model {
        CoreModel::OutOfOrder => {
            let mut c = OooCore::new(cfg, &program);
            c.run(ATTACK_MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{kind} on {v}: {e}"));
            (0..slots)
                .map(|g| c.mem.read(layout::RESULTS_BASE + 8 * g, 8))
                .collect()
        }
        CoreModel::InOrder => {
            let mut c = InOrderCore::new(cfg, &program);
            c.run(ATTACK_MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{kind} on {v}: {e}"));
            (0..slots)
                .map(|g| c.mem.read(layout::RESULTS_BASE + 8 * g, 8))
                .collect()
        }
    };
    if bitwise {
        // FPU power: set bit -> unit awake -> fast. Port contention: set
        // bit -> divider draining -> slow.
        let fast_is_one = kind == AttackKind::NetspectreFpu;
        analyze_bits(&timings, secret, kind.margin(), fast_is_one)
    } else {
        analyze(&timings, secret, kind.margin(), kind.polluted_guesses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_prefers_exact_names_and_rejects_empty() {
        for k in AttackKind::all() {
            assert_eq!(AttackKind::parse(k.name()), Some(k));
        }
        assert_eq!(
            AttackKind::parse("v1 (BTB)"),
            Some(AttackKind::SpectreV1Btb)
        );
        assert_eq!(
            AttackKind::parse("spectre-v1"),
            Some(AttackKind::SpectreV1Cache)
        );
        assert_eq!(AttackKind::parse("ssb"), Some(AttackKind::Ssb));
        assert_eq!(AttackKind::parse(""), None);
        assert_eq!(AttackKind::parse("( )"), None);
        assert_eq!(AttackKind::parse("rowhammer"), None);
    }
}
