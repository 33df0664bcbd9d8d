//! Every attack under every `Defense` value no preset uses, run on the
//! simulator: the leak must be exactly what the one verdict rule
//! (`Defense::blocks` over the attack's anatomy) predicts. The fifteen
//! presets are run by the root `tests/security_matrix.rs`; these are the
//! other combinations of border, propagation and restriction, which no
//! evaluated configuration exercises.

use nda_attacks::{run_attack_with, AttackKind};
use nda_core::{Defense, SimConfig, Variant};

const SECRET: u8 = 42;

/// The `Defense::all()` values that no `SimConfig::for_variant` preset
/// selects.
fn unused_defenses() -> Vec<Defense> {
    let presets: Vec<Defense> = Variant::all()
        .into_iter()
        .map(|v| SimConfig::for_variant(v).defense)
        .collect();
    Defense::all()
        .into_iter()
        .filter(|d| !presets.contains(d))
        .collect()
}

#[test]
fn twelve_defense_values_are_outside_the_presets() {
    assert_eq!(unused_defenses().len(), 12);
}

fn check(kind: AttackKind) {
    let mut mismatches = Vec::new();
    for defense in unused_defenses() {
        let cfg = SimConfig {
            defense,
            ..SimConfig::ooo()
        };
        let outcome = run_attack_with(kind, cfg, SECRET);
        let predicted_leak = !defense.blocks(&kind.anatomy());
        if outcome.leaked != predicted_leak {
            mismatches.push(format!(
                "{defense:?}: predicted leak={predicted_leak}, ran leaked={} \
                 (recovered={:?}, separation={})",
                outcome.leaked, outcome.recovered, outcome.separation
            ));
        } else if outcome.leaked {
            assert_eq!(outcome.recovered, Some(SECRET), "{kind} under {defense:?}");
        }
    }
    assert!(mismatches.is_empty(), "{kind}:\n{}", mismatches.join("\n"));
}

#[test]
fn spectre_v1_cache() {
    check(AttackKind::SpectreV1Cache);
}

#[test]
fn spectre_v1_btb() {
    check(AttackKind::SpectreV1Btb);
}

#[test]
fn ssb() {
    check(AttackKind::Ssb);
}

#[test]
fn meltdown() {
    check(AttackKind::Meltdown);
}

#[test]
fn lazyfp() {
    check(AttackKind::LazyFp);
}

#[test]
fn spectre_v2_gpr() {
    check(AttackKind::SpectreV2Gpr);
}

#[test]
fn ret2spec() {
    check(AttackKind::Ret2spec);
}

#[test]
fn netspectre_fpu() {
    check(AttackKind::NetspectreFpu);
}

#[test]
fn smother() {
    check(AttackKind::Smother);
}
