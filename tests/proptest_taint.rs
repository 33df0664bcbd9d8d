//! Property-based invariants for the taint-tracking variants
//! (STT-Spectre/Futuristic, ShadowBinding-Eager/Lazy) over random
//! generated programs:
//!
//! 1. **Gate soundness** — with the cycle-level invariant checker armed,
//!    no transmitting instruction is ever in flight past issue with a
//!    currently-tainted transmit source (the `TaintGate` invariant checks
//!    this every cycle), STT's frontier has exactly the bits of the
//!    whole-ROB walk (the same law's oracle, on generated programs and on
//!    the Fig 7 kernels), and architecture is bit-exact against the
//!    reference interpreter.
//! 2. **Untaint-at-resolution** — taint is transient by construction:
//!    once the pipeline drains (halt, empty ROB) every physical
//!    register's taint bit is clear. The invariant checker enforces the
//!    same property at every empty-ROB cycle along the way.
//! 3. **Cost ordering** — on aggregate (a 6-program batch with the same
//!    5 % slack the broadcast-delay monotonicity test uses), each taint
//!    variant prices between the insecure Base OoO core and
//!    FullProtection: gating only transmitting uses can't be cheaper
//!    than gating nothing or dearer than delaying every wakeup.

use nda_core::config::SimConfig;
use nda_core::{OooCore, Variant};
use nda_isa::genprog::{generate, GenConfig};
use nda_isa::Interp;
use nda_workloads::{all, WorkloadParams};
use proptest::prelude::*;

const TAINT_VARIANTS: [Variant; 4] = [
    Variant::SttSpectre,
    Variant::SttFuturistic,
    Variant::ShadowBindingEager,
    Variant::ShadowBindingLazy,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Properties 1 and 2: every taint variant, invariants armed, on
    /// random programs with the full generator grammar (indirect control
    /// flow exercises the gated JmpInd/CallInd/Ret transmit slots; MSR
    /// reads exercise the load-like taint sources).
    #[test]
    fn taint_gate_is_sound_and_taint_drains_at_halt(seed in 0u64..5_000) {
        let program = generate(seed, GenConfig { target_len: 100, max_depth: 2, indirect: true, fences: true, msrs: true });
        let mut oracle = Interp::new(&program);
        let exit = oracle.run(2_000_000).expect("oracle");
        for v in TAINT_VARIANTS {
            let mut cfg = SimConfig::for_variant(v);
            cfg.check_invariants = true;
            let mut core = OooCore::new(cfg, &program);
            let r = core.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", v.name()));
            prop_assert!(r.halted, "{}: must halt", v.name());
            prop_assert_eq!(&r.regs, oracle.regs(), "{}: architecture diverged", v.name());
            prop_assert_eq!(r.stats.committed_insts, exit.retired);
            prop_assert!(
                !core.any_preg_tainted(),
                "{}: taint survived pipeline drain at halt", v.name()
            );
        }
    }
}

/// Property 1's frontier-vs-walk comparison on the Fig 7 kernels, whose
/// pointer chases and dispatch loops the generator does not reach.
#[test]
fn stt_frontier_matches_the_walk_on_fig7_kernels() {
    for w in all() {
        let program = (w.build)(&WorkloadParams { seed: 1, iters: 40 });
        for v in [Variant::SttSpectre, Variant::SttFuturistic] {
            let mut cfg = SimConfig::for_variant(v);
            cfg.check_invariants = true;
            let r = OooCore::new(cfg, &program)
                .run(50_000_000)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, v.name()));
            assert!(r.halted, "{}/{}", w.name, v.name());
        }
    }
}

proptest! {
    // Fewer cases: each one runs a 6-program batch on 6 variants.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property 3: aggregate cycle monotonicity
    /// Base OoO ≤ taint variant ≤ FullProtection (5 % batch slack —
    /// individual programs can invert through predictor/wrong-path
    /// perturbation, a batch cannot).
    #[test]
    fn taint_variants_price_between_base_ooo_and_full_protection(base_seed in 0u64..500) {
        let mut base_total = 0u64;
        let mut full_total = 0u64;
        let mut taint_totals = [0u64; 4];
        for k in 0..6 {
            let program = generate(
                base_seed * 64 + k,
                GenConfig { target_len: 100, max_depth: 2, indirect: false, fences: false, msrs: true },
            );
            let b = nda_core::run_variant(Variant::Ooo, &program, 50_000_000).expect("base halts");
            let f = nda_core::run_variant(Variant::FullProtection, &program, 50_000_000)
                .expect("full-protection halts");
            base_total += b.stats.cycles;
            full_total += f.stats.cycles;
            for (i, v) in TAINT_VARIANTS.iter().enumerate() {
                let r = nda_core::run_variant(*v, &program, 50_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
                prop_assert_eq!(&r.regs, &b.regs, "{}: architecture diverged", v.name());
                taint_totals[i] += r.stats.cycles;
            }
        }
        for (i, v) in TAINT_VARIANTS.iter().enumerate() {
            prop_assert!(
                taint_totals[i] as f64 >= base_total as f64 * 0.95,
                "{}: gating transmits made the batch faster than Base OoO ({} vs {})",
                v.name(), taint_totals[i], base_total
            );
            prop_assert!(
                full_total as f64 >= taint_totals[i] as f64 * 0.95,
                "{}: dearer than FullProtection on the batch ({} vs {})",
                v.name(), taint_totals[i], full_total
            );
        }
    }
}
