//! Cross-validation of the static analyzer against the attack suite's
//! ground truth: every attack program must contain at least one gadget
//! (zero misses), the per-variant suppression verdicts must reproduce
//! the paper's Tables 1-2 exactly, and benign workloads must produce no
//! gadgets at all.

use nda_analyze::{analyze, AnalyzeConfig};
use nda_attacks::AttackKind;
use nda_core::{Defense, Variant};
use nda_workloads::WorkloadParams;

#[test]
fn every_attack_program_contains_a_gadget() {
    for kind in AttackKind::all() {
        let p = kind.program(42);
        let report = analyze(&p, &kind.secret_spec(), &AnalyzeConfig::default());
        assert!(
            !report.gadgets.is_empty(),
            "{kind}: analyzer missed the gadget\n{}",
            report.render_human()
        );
    }
}

#[test]
fn suppression_verdicts_match_the_paper_matrix() {
    for kind in AttackKind::all() {
        let p = kind.program(42);
        let report = analyze(&p, &kind.secret_spec(), &AnalyzeConfig::default());
        for v in Variant::all() {
            let predicted_leak = report.leaks_under(v);
            let truth_leak = !kind.expected_blocked(v);
            assert_eq!(
                predicted_leak,
                truth_leak,
                "{kind} under {}: analyzer says leak={predicted_leak}, \
                 ground truth says leak={truth_leak}\n{}",
                v.name(),
                report.render_human()
            );
        }
        // Beyond the presets: under every `Defense` value the gadgets'
        // anatomies, found in the program, predict the leak the attack's
        // declared anatomy does.
        for d in Defense::all() {
            let predicted_leak = report.gadgets.iter().any(|g| !d.blocks(&g.anatomy));
            let truth_leak = !d.blocks(&kind.anatomy());
            assert_eq!(
                predicted_leak,
                truth_leak,
                "{kind} under {d:?}: gadgets say leak={predicted_leak}, \
                 the attack's anatomy says leak={truth_leak}\n{}",
                report.render_human()
            );
        }
    }
}

/// The full 9 attacks × 15 variants verdict matrix, pinned as a literal
/// table (`true` = blocked). `suppression_verdicts_match_the_paper_matrix`
/// checks the analyzer against `expected_blocked`; this test pins
/// `expected_blocked` *itself*, so a silent edit to the ground truth (or
/// a new variant slotted into the wrong row) is a hard diff here, not a
/// mutually-consistent drift.
///
/// Column order is `Variant::all()`:
/// Ooo, Permissive, PermissiveBr, Strict, StrictBr, RestrictedLoads,
/// FullProtection, InOrder, InvisiSpecSpectre, InvisiSpecFuture,
/// DelayOnMiss, SttSpectre, SttFuturistic, ShadowBindingEager,
/// ShadowBindingLazy.
#[test]
fn verdict_matrix_is_pinned_9_attacks_by_15_variants() {
    use AttackKind::*;
    #[rustfmt::skip]
    const MATRIX: [(AttackKind, [bool; 15]); 9] = [
        //                   Ooo    Perm   PermBr Strict StrBr  RLoads Full   InOrd  ISpecS ISpecF DoM    SttS   SttF   SBEag  SBLaz
        (SpectreV1Cache, [false, true,  true,  true,  true,  true,  true,  true,  true,  true,  true,  true,  true,  true,  true ]),
        (SpectreV1Btb,   [false, true,  true,  true,  true,  true,  true,  true,  false, false, false, true,  true,  true,  true ]),
        (Ssb,            [false, false, true,  false, true,  true,  true,  true,  false, true,  false, false, true,  false, false]),
        (Meltdown,       [false, false, false, false, false, true,  true,  true,  false, true,  false, false, true,  false, false]),
        (LazyFp,         [false, false, false, false, false, true,  true,  true,  false, true,  false, false, true,  false, false]),
        (SpectreV2Gpr,   [false, false, false, true,  true,  false, true,  true,  true,  true,  true,  false, false, false, false]),
        (Ret2spec,       [false, false, false, true,  true,  false, true,  true,  true,  true,  true,  false, false, false, false]),
        (NetspectreFpu,  [false, true,  true,  true,  true,  true,  true,  true,  false, false, false, false, false, false, false]),
        (Smother,        [false, true,  true,  true,  true,  true,  true,  true,  false, false, false, false, false, false, false]),
    ];
    assert_eq!(MATRIX.map(|(k, _)| k), AttackKind::all(), "row order");
    for (kind, row) in MATRIX {
        for (v, &blocked) in Variant::all().into_iter().zip(&row) {
            assert_eq!(
                kind.expected_blocked(v),
                blocked,
                "{kind} under {}: pinned verdict diverged",
                v.name()
            );
        }
    }
}

/// What the taint-tracking family deliberately does NOT block, spelled
/// out as sets rather than left implicit in the matrix:
///
/// * GPR-resident secrets (`SpectreV2Gpr`, `Ret2spec`) were loaded and
///   committed architecturally long before the transient gadget runs —
///   they are never tainted, so no taint variant can gate their
///   transmits;
/// * the contention channels (`NetspectreFpu`, `Smother`) steer through
///   a *conditional branch on tainted data*, and the explicit-channel
///   gate leaves branch conditions unchecked — STT's documented
///   implicit-channel gap.
///
/// Conversely every taint-reachable attack — a speculatively-loaded
/// secret reaching a load/store/BTB transmit — must be dead under the
/// matching threat model: zero false negatives.
#[test]
fn stt_gap_is_exactly_untainted_secrets_plus_implicit_channels() {
    use AttackKind::*;
    let taint_variants = [
        Variant::SttSpectre,
        Variant::SttFuturistic,
        Variant::ShadowBindingEager,
        Variant::ShadowBindingLazy,
    ];
    let gap = [SpectreV2Gpr, Ret2spec, NetspectreFpu, Smother];
    for kind in gap {
        for v in taint_variants {
            assert!(
                !kind.expected_blocked(v),
                "{kind} is outside the taint threat model, {} must not claim it",
                v.name()
            );
        }
    }
    // Taint-reachable under control speculation: every taint variant.
    for kind in [SpectreV1Cache, SpectreV1Btb] {
        for v in taint_variants {
            assert!(
                kind.expected_blocked(v),
                "{kind}: false negative on {}",
                v.name()
            );
        }
    }
    // Taint-reachable only under the futuristic threat model (fault,
    // MSR, and memory-order speculation sources).
    for kind in [Ssb, Meltdown, LazyFp] {
        assert!(kind.expected_blocked(Variant::SttFuturistic));
        for v in [
            Variant::SttSpectre,
            Variant::ShadowBindingEager,
            Variant::ShadowBindingLazy,
        ] {
            assert!(
                !kind.expected_blocked(v),
                "{kind} needs the futuristic threat model, not {}",
                v.name()
            );
        }
    }
}

#[test]
fn gadget_reports_carry_a_connected_taint_path() {
    for kind in AttackKind::all() {
        let p = kind.program(42);
        let report = analyze(&p, &kind.secret_spec(), &AnalyzeConfig::default());
        for g in &report.gadgets {
            assert!(
                g.chain.contains(&g.source_pc),
                "{kind}: chain misses source"
            );
            assert!(g.chain.contains(&g.sink_pc), "{kind}: chain misses sink");
            assert!(!g.triggers.is_empty(), "{kind}: gadget without trigger");
            for t in &g.triggers {
                assert!(t.distance > 0 && t.distance as usize <= report.window);
            }
        }
    }
}

#[test]
fn benign_workloads_report_no_gadgets() {
    // The SPEC-like kernels handle no secrets: with an empty labeling the
    // analyzer must stay silent on every one of them (no false positives).
    let params = WorkloadParams::test(7);
    for w in nda_workloads::all() {
        let p = (w.build)(&params);
        let report = analyze(&p, &nda_isa::SecretSpec::empty(), &AnalyzeConfig::default());
        assert!(
            report.gadgets.is_empty(),
            "workload {}: spurious gadget\n{}",
            w.name,
            report.render_human()
        );
    }
}
