//! The master correctness invariant: NDA changes *time*, never
//! *architecture*.
//!
//! Random structured programs (loops, data-dependent branches, aliasing
//! stores/loads, calls, indirect jumps, fences) must produce identical
//! final architectural state — registers, memory digest, retired count —
//! on the reference interpreter, the in-order core, the insecure
//! out-of-order core, all six NDA policies and both InvisiSpec variants.

use nda_core::{run_variant, Variant};
use nda_isa::genprog::{generate, GenConfig, SCRATCH_BASE};
use nda_isa::{Interp, Program};

const MAX_STEPS: u64 = 2_000_000;
const MAX_CYCLES: u64 = 20_000_000;

/// Digest of architectural state after a run: registers + scratch memory.
#[derive(Debug, PartialEq, Eq, Clone)]
struct ArchState {
    regs: [u64; 32],
    scratch: Vec<u64>,
    retired: u64,
}

fn interp_state(program: &Program) -> ArchState {
    let mut i = Interp::new(program);
    let exit = i.run(MAX_STEPS).expect("interpreter run");
    let scratch = (0..64)
        .map(|k| i.mem.read(SCRATCH_BASE + 8 * k, 8))
        .collect();
    ArchState {
        regs: *i.regs(),
        scratch,
        retired: exit.retired,
    }
}

fn variant_state(v: Variant, program: &Program) -> ArchState {
    // RdCycle reads differ between models by design; genprog never emits
    // them, so the digest is comparable.
    let r = run_variant(v, program, MAX_CYCLES).unwrap_or_else(|e| panic!("{v}: {e}"));
    assert!(r.halted, "{v}: did not halt");
    ArchState {
        regs: r.regs,
        scratch: Vec::new(),
        retired: r.stats.committed_insts,
    }
}

/// Memory digest needs access to the core's memory; run again through the
/// concrete core types to read it.
fn variant_state_with_mem(v: Variant, program: &Program) -> ArchState {
    use nda_core::config::{CoreModel, SimConfig};
    let cfg = SimConfig::for_variant(v);
    match cfg.model {
        CoreModel::OutOfOrder => {
            let mut c = nda_core::OooCore::new(cfg, program);
            let r = c.run(MAX_CYCLES).unwrap_or_else(|e| panic!("{v}: {e}"));
            let scratch = (0..64)
                .map(|k| c.mem.read(SCRATCH_BASE + 8 * k, 8))
                .collect();
            ArchState {
                regs: r.regs,
                scratch,
                retired: r.stats.committed_insts,
            }
        }
        CoreModel::InOrder => {
            let mut c = nda_core::InOrderCore::new(cfg, program);
            let r = c.run(MAX_CYCLES).unwrap_or_else(|e| panic!("{v}: {e}"));
            let scratch = (0..64)
                .map(|k| c.mem().read(SCRATCH_BASE + 8 * k, 8))
                .collect();
            ArchState {
                regs: r.regs,
                scratch,
                retired: r.stats.committed_insts,
            }
        }
    }
}

fn check_seed(seed: u64, cfg: GenConfig) {
    let program = generate(seed, cfg);
    let oracle = interp_state(&program);
    for v in Variant::all() {
        let got = variant_state_with_mem(v, &program);
        assert_eq!(
            got.regs, oracle.regs,
            "seed {seed}, {v}: register divergence"
        );
        assert_eq!(
            got.scratch, oracle.scratch,
            "seed {seed}, {v}: memory divergence"
        );
        assert_eq!(
            got.retired, oracle.retired,
            "seed {seed}, {v}: retired-count divergence"
        );
    }
    // And the lightweight path agrees with itself.
    let a = variant_state(Variant::Ooo, &program);
    assert_eq!(a.regs, oracle.regs);
}

#[test]
fn differential_small_programs() {
    for seed in 0..12 {
        check_seed(
            seed,
            GenConfig {
                target_len: 120,
                max_depth: 2,
                indirect: true,
                fences: true,
                msrs: true,
            },
        );
    }
}

#[test]
fn differential_medium_programs() {
    for seed in 100..106 {
        check_seed(seed, GenConfig::default());
    }
}

#[test]
fn differential_without_indirection() {
    for seed in 200..206 {
        check_seed(
            seed,
            GenConfig {
                target_len: 250,
                max_depth: 3,
                indirect: false,
                fences: false,
                msrs: true,
            },
        );
    }
}

#[test]
fn differential_deeply_nested() {
    for seed in 300..304 {
        check_seed(
            seed,
            GenConfig {
                target_len: 350,
                max_depth: 4,
                indirect: true,
                fences: true,
                msrs: true,
            },
        );
    }
}
