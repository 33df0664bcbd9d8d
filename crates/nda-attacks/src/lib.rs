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
//! [`AttackKind::expected_blocked`] — which defense stops which attack,
//! the paper's Tables 1-2 — is `nda_core`'s one verdict rule applied to
//! the attack's [`AttackKind::anatomy`]; the integration tests assert the
//! simulation reproduces it, and a literal 9×15 table pins it.
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
use nda_core::{Anatomy, Channel, InOrderCore, InWindow, OooCore, TriggerKind, Variant};
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

    /// The attack's trigger, what of its chain runs in the window, and its
    /// channel as the analyzer classifies the transmitter (the contention
    /// channels transmit through a conditional branch on the secret).
    pub fn anatomy(self) -> Anatomy {
        use AttackKind::*;
        use InWindow::{Compute, Load};
        use TriggerKind::*;
        let (trigger, reach, channel) = match self {
            SpectreV1Cache => (CondBranch, Load, Channel::DCacheLoad),
            SpectreV1Btb => (CondBranch, Load, Channel::Btb),
            Ssb => (SsbStore, Load, Channel::DCacheLoad),
            Meltdown | LazyFp => (Fault, Compute, Channel::DCacheLoad),
            // GPR-resident secrets: only arithmetic runs on the wrong path.
            SpectreV2Gpr => (IndirectCall, Compute, Channel::DCacheLoad),
            Ret2spec => (ReturnMispredict, Compute, Channel::DCacheLoad),
            NetspectreFpu | Smother => (CondBranch, Load, Channel::CtrlBranch),
        };
        Anatomy {
            channel,
            triggers: vec![(trigger, reach)],
        }
    }

    /// Is this attack *blocked* on the given variant? The verdict rule,
    /// [`SimConfig::blocks`], over the attack's [`anatomy`](Self::anatomy).
    pub fn expected_blocked(self, v: Variant) -> bool {
        SimConfig::for_variant(v).blocks(&self.anatomy())
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
    run_attack_with(kind, SimConfig::for_variant(v), secret)
}

/// [`run_attack`] on any configuration, e.g. a `Defense` value no preset
/// uses. [`AttackKind::tweak_config`] is applied on top of `cfg`.
pub fn run_attack_with(kind: AttackKind, mut cfg: SimConfig, secret: u8) -> AttackOutcome {
    let program = kind.program(secret);
    kind.tweak_config(&mut cfg);
    let bitwise = matches!(kind, AttackKind::NetspectreFpu | AttackKind::Smother);
    let slots = if bitwise { 8 } else { 256 };
    let (run, mem) = match cfg.model {
        CoreModel::OutOfOrder => {
            let mut c = OooCore::new(cfg, &program);
            (c.run(ATTACK_MAX_CYCLES), c.mem)
        }
        CoreModel::InOrder => {
            let mut c = InOrderCore::new(cfg, &program);
            (c.run(ATTACK_MAX_CYCLES), c.mem().clone())
        }
    };
    run.unwrap_or_else(|e| panic!("{kind} on {:?} {:?}: {e}", cfg.model, cfg.defense));
    let timings: Vec<u64> = (0..slots)
        .map(|g| mem.read(layout::RESULTS_BASE + 8 * g, 8))
        .collect();
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
