//! Property-based invariants over the whole stack.
//!
//! These complement the seed-sweep differential tests with
//! proptest-shrinkable cases: arbitrary generator configurations, policy
//! knobs and cache geometries.

use nda_core::config::SimConfig;
use nda_core::{run_with_config, Defense, OooCore, Propagation, Variant};
use nda_isa::genprog::{generate, GenConfig};
use nda_isa::Interp;
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = Defense> {
    (0..3u8, any::<bool>(), any::<bool>()).prop_map(|(p, br, lr)| Defense::DelayBroadcast {
        propagation: match p {
            0 => Propagation::Off,
            1 => Propagation::Permissive,
            _ => Propagation::Strict,
        },
        bypass_restriction: br,
        load_restriction: lr,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any policy combination (not just the six presets) preserves
    /// architecture on random programs.
    #[test]
    fn arbitrary_policies_preserve_architecture(
        seed in 0u64..5_000,
        policy in arb_policy(),
    ) {
        let program = generate(seed, GenConfig { target_len: 100, max_depth: 2, indirect: true, fences: true, msrs: true });
        let mut oracle = Interp::new(&program);
        let exit = oracle.run(2_000_000).expect("oracle");
        let cfg = SimConfig { defense: policy, ..SimConfig::ooo() };
        let r = run_with_config(cfg, &program, 50_000_000).expect("sim");
        prop_assert!(r.halted);
        prop_assert_eq!(&r.regs, oracle.regs());
        prop_assert_eq!(r.stats.committed_insts, exit.retired);
    }

    /// Micro-architectural knobs (widths, delays, flaw flags) never change
    /// architectural results.
    #[test]
    fn knobs_do_not_change_architecture(
        seed in 0u64..5_000,
        issue_width in 1usize..8,
        extra_delay in 0u64..3,
        ssb in any::<bool>(),
        flaw in any::<bool>(),
    ) {
        let program = generate(seed, GenConfig { target_len: 80, max_depth: 2, indirect: false, fences: true, msrs: true });
        let mut oracle = Interp::new(&program);
        oracle.run(2_000_000).expect("oracle");
        let mut cfg = SimConfig::for_variant(Variant::FullProtection);
        cfg.core.issue_width = issue_width;
        cfg.core.broadcast_extra_delay = extra_delay;
        cfg.core.speculative_store_bypass = ssb;
        cfg.core.meltdown_flaw = flaw;
        let r = run_with_config(cfg, &program, 100_000_000).expect("sim");
        prop_assert_eq!(&r.regs, oracle.regs());
    }

    /// Committed-instruction counters are internally consistent: the class
    /// counters never exceed the total, and the Fig 9a cycle classes
    /// account for every cycle.
    #[test]
    fn counters_are_consistent(seed in 0u64..5_000) {
        let program = generate(seed, GenConfig { target_len: 120, max_depth: 2, indirect: true, fences: false, msrs: true });
        let mut core = OooCore::new(SimConfig::for_variant(Variant::StrictBr), &program);
        let r = core.run(50_000_000).expect("halts");
        let s = r.stats;
        prop_assert!(s.committed_loads + s.committed_stores + s.committed_branches <= s.committed_insts);
        prop_assert_eq!(
            s.commit_cycles + s.memory_stall_cycles + s.backend_stall_cycles + s.frontend_stall_cycles,
            s.cycles,
            "every cycle must be classified exactly once"
        );
        prop_assert!(s.issued_insts >= s.committed_loads + s.committed_stores, "memory ops issue");
        prop_assert!(s.broadcasts >= s.deferred_broadcasts || s.deferred_broadcasts == 0);
    }

    /// The fine-grained CPI stack partitions total cycles exactly on every
    /// variant — including the in-order baseline and the InvisiSpec
    /// models — and the `nda-delay` class is charged only by cores that
    /// can actually withhold results (zero on Base OoO and In-Order).
    #[test]
    fn cpi_stack_partitions_cycles_on_every_variant(seed in 0u64..5_000) {
        let program = generate(seed, GenConfig { target_len: 100, max_depth: 2, indirect: true, fences: false, msrs: true });
        for v in Variant::all() {
            let r = nda_core::run_variant(v, &program, 50_000_000).expect("halts");
            let s = &r.stats;
            prop_assert_eq!(
                s.cpi_stack.total(), s.cycles,
                "{}: CPI classes must partition total cycles", v.name()
            );
            // The fine stack refines the coarse one class-for-class.
            prop_assert_eq!(s.cpi_stack.get(nda_stats::CpiClass::Commit), s.commit_cycles);
            let coarse_mem = s.cpi_stack.memory_total();
            prop_assert_eq!(coarse_mem, s.memory_stall_cycles);
            if matches!(v, Variant::Ooo | Variant::InOrder) {
                prop_assert_eq!(
                    s.cpi_stack.get(nda_stats::CpiClass::NdaDelay), 0,
                    "{}: an unprotected core never defers a broadcast", v.name()
                );
            }
        }
    }

    /// The broadcast-delay knob (Fig 9e) slows execution on aggregate —
    /// individual short programs can invert (delayed resolution perturbs
    /// wrong-path pollution and predictor state), but a batch cannot —
    /// and never changes architectural results.
    #[test]
    fn broadcast_delay_is_monotone_on_aggregate(base_seed in 0u64..500) {
        let mut totals = [0u64; 2];
        for k in 0..6 {
            let program = generate(
                base_seed * 64 + k,
                GenConfig { target_len: 100, max_depth: 2, indirect: false, fences: false, msrs: true },
            );
            let mut regs = Vec::new();
            for (i, delay) in [0u64, 2].into_iter().enumerate() {
                let mut cfg = SimConfig::for_variant(Variant::Strict);
                cfg.core.broadcast_extra_delay = delay;
                let r = run_with_config(cfg, &program, 50_000_000).expect("sim");
                totals[i] += r.stats.cycles;
                regs.push(r.regs);
            }
            prop_assert_eq!(regs[0], regs[1]);
        }
        prop_assert!(totals[1] as f64 >= totals[0] as f64 * 0.95,
            "2-cycle broadcast delay made the batch much faster: {} vs {}", totals[1], totals[0]);
    }
}

proptest! {
    // Fewer cases: each one runs 26 checked simulations.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every value of `Defense`, not just the fifteen presets, keeps the
    /// cycle-level invariants (NDA safety, the broadcast queue, the taint
    /// roots, the transmit gate) and architecture on random programs, with
    /// and without the Fig 9e extra broadcast delay.
    #[test]
    fn every_defense_value_keeps_the_invariants(
        seed in 0u64..5_000,
        extra_delay in 0u64..3,
    ) {
        let program = generate(seed, GenConfig { target_len: 100, max_depth: 2, indirect: true, fences: true, msrs: true });
        let mut oracle = Interp::new(&program);
        let exit = oracle.run(2_000_000).expect("oracle");
        for defense in Defense::all() {
            let mut cfg = SimConfig { defense, check_invariants: true, ..SimConfig::ooo() };
            cfg.core.broadcast_extra_delay = extra_delay;
            let r = run_with_config(cfg, &program, 50_000_000)
                .unwrap_or_else(|e| panic!("{defense:?}: {e}"));
            prop_assert_eq!(&r.regs, oracle.regs(), "{:?}: architecture diverged", defense);
            prop_assert_eq!(r.stats.committed_insts, exit.retired);
        }
    }
}
