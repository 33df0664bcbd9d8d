//! The threaded-code fast path is a pure host-side optimisation: driving
//! the master functional pass from a pre-decoded [`TranslatedProgram`]
//! must produce checkpoint sets — interpreter state, warmed cache tags,
//! predictor tables, BTB, RAS, final architectural state — bit-identical
//! to the reference `Interp::step()` loop, on every workload and on
//! structured random programs. And because the sets are identical, the
//! sampled CPIs measured from them are identical to the last bit.

use nda_core::{
    collect_checkpoints_with, run_sampled_with, CheckpointStore, FfEngine, SampledParams,
    SimConfig, StoreKey, Variant,
};
use nda_isa::genprog::{generate, GenConfig};
use nda_isa::Program;
use nda_workloads::{all, WorkloadParams};

/// Collect with both engines and assert whole-set equality (leans on
/// `CheckpointSet`/`Checkpoint` `PartialEq`, which covers the interpreter,
/// memory hierarchy, predictors, BTB and RAS bit-for-bit).
fn assert_engines_agree(cfg: &SimConfig, prog: &Program, params: SampledParams, ctx: &str) {
    let fast = collect_checkpoints_with(cfg, prog, params, u64::MAX, FfEngine::Translated)
        .unwrap_or_else(|e| panic!("{ctx}: translated engine failed: {e}"));
    let reference = collect_checkpoints_with(cfg, prog, params, u64::MAX, FfEngine::Reference)
        .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
    assert_eq!(
        fast.checkpoints.len(),
        reference.checkpoints.len(),
        "{ctx}: checkpoint count diverged"
    );
    for (k, (f, r)) in fast
        .checkpoints
        .iter()
        .zip(&reference.checkpoints)
        .enumerate()
    {
        assert_eq!(f, r, "{ctx}: checkpoint {k} diverged");
    }
    assert_eq!(
        fast.final_interp, reference.final_interp,
        "{ctx}: final architectural state diverged"
    );
    assert_eq!(fast.total_insts, reference.total_insts, "{ctx}");
}

/// Every synthetic kernel, checkpointed by both engines, agrees exactly.
#[test]
fn all_workloads_translated_matches_reference() {
    let params = SampledParams::new(5_000, 200, 200);
    for w in all() {
        let prog = (w.build)(&WorkloadParams {
            seed: 1234,
            iters: 300,
        });
        for variant in [Variant::Ooo, Variant::FullProtection] {
            let cfg = SimConfig::for_variant(variant);
            assert_engines_agree(&cfg, &prog, params, &format!("{}/{variant:?}", w.name));
        }
    }
}

/// Structured random programs — loops, aliasing stores, indirect jumps
/// through tables, calls/returns, fences, MSR reads — agree too. Seeded,
/// so a failure names the exact program.
#[test]
fn fuzz_programs_translated_matches_reference() {
    let cfg = SimConfig::for_variant(Variant::Ooo);
    let params = SampledParams::new(1_000, 100, 100);
    for seed in 0..24u64 {
        let prog = generate(seed, GenConfig::default());
        assert_engines_agree(&cfg, &prog, params, &format!("genprog seed {seed}"));
    }
}

/// The end-to-end pin the sweep harness relies on: sampled CPIs measured
/// from translated-engine checkpoints are bit-identical (`f64::to_bits`)
/// to those measured from reference-engine checkpoints.
#[test]
fn sampled_cpi_is_bit_identical_with_fast_path_on_and_off() {
    let w = all().iter().find(|w| w.name == "mcf").expect("mcf present");
    let prog = (w.build)(&WorkloadParams {
        seed: 7,
        iters: 400,
    });
    let params = SampledParams::new(10_000, 500, 500);
    for variant in [Variant::Ooo, Variant::Strict, Variant::InOrder] {
        let cfg = SimConfig::for_variant(variant);
        let fast =
            collect_checkpoints_with(&cfg, &prog, params, u64::MAX, FfEngine::Translated).unwrap();
        let reference =
            collect_checkpoints_with(&cfg, &prog, params, u64::MAX, FfEngine::Reference).unwrap();
        let a = run_sampled_with(cfg, &prog, &fast, params).unwrap();
        let b = run_sampled_with(cfg, &prog, &reference, params).unwrap();
        let (sa, sb) = (a.sampled.unwrap(), b.sampled.unwrap());
        assert_eq!(
            sa.cpi.mean.to_bits(),
            sb.cpi.mean.to_bits(),
            "{variant:?}: sampled CPI diverged"
        );
        assert_eq!(sa.cpi.ci95.to_bits(), sb.cpi.ci95.to_bits(), "{variant:?}");
        assert_eq!(sa.windows, sb.windows, "{variant:?}");
        assert_eq!(sa.detailed_insts, sb.detailed_insts, "{variant:?}");
        assert_eq!(a.stats, b.stats, "{variant:?}: estimated stats diverged");
        assert_eq!(a.regs, b.regs, "{variant:?}");
    }
}

/// The sets the sampled path restores come from the store as often as
/// from collection: on every workload and on fuzz programs, a set the
/// translated engine collected decodes from its `nda-ckpt-v2` entry equal
/// to the set the reference engine collected.
#[test]
fn decoded_sets_equal_collected_sets() {
    let dir = std::env::temp_dir().join(format!("nda-translated-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = SimConfig::for_variant(Variant::Ooo);
    let workloads = all().iter().map(|w| {
        let prog = (w.build)(&WorkloadParams {
            seed: 1234,
            iters: 300,
        });
        (
            w.name.to_string(),
            prog,
            SampledParams::new(5_000, 200, 200),
        )
    });
    let fuzz = (0..4u64).map(|seed| {
        let prog = generate(seed, GenConfig::default());
        (
            format!("genprog seed {seed}"),
            prog,
            SampledParams::new(1_000, 100, 100),
        )
    });
    for (ctx, prog, params) in workloads.chain(fuzz) {
        let fast = collect_checkpoints_with(&cfg, &prog, params, u64::MAX, FfEngine::Translated)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let key = StoreKey::new(&cfg, &prog, params);
        store.save(&key, &fast).unwrap();
        let decoded = store.load(&key, &cfg, &prog).expect("a sound entry hits");
        let reference =
            collect_checkpoints_with(&cfg, &prog, params, u64::MAX, FfEngine::Reference).unwrap();
        assert!(decoded == reference, "{ctx}: decoded set differs");
    }
    assert!(!dir.join("quarantine").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
