//! Ablations of the design choices DESIGN.md §7 calls out:
//!
//! 1. **Speculative vs commit-time BTB update** — reverting BTB updates to
//!    commit time closes the BTB covert channel even on the insecure OoO
//!    (and is the kind of per-structure fix the paper argues cannot scale
//!    to every structure).
//! 2. **SSBD-style bypass disable vs NDA's Bypass Restriction** — both
//!    block SSB, but disabling the bypass outright costs more than BR on
//!    store-heavy code.
//! 3. **Meltdown flaw knob** — with the implementation flaw fixed, the
//!    chosen-code attacks die on any core; NDA's load restriction is the
//!    blanket defense for the flaws not yet known.
//! 4. **Next-line prefetcher** — predictive structures don't change any
//!    security outcome under NDA.
//! 5. **Predictor quality** — how the branch mix and predictor flavour
//!    shape strict propagation's cost.

use nda_attacks::{analyze, AttackKind, RESULTS_BASE};
use nda_bench::SweepConfig;
use nda_core::config::SimConfig;
use nda_core::{run_with_config, OooCore, Variant};
use nda_workloads::{by_name, WorkloadParams};

fn run_attack_with(cfg: SimConfig, kind: AttackKind, secret: u8) -> bool {
    let program = kind.program(secret);
    let mut c = OooCore::new(cfg, &program);
    c.run(nda_attacks::ATTACK_MAX_CYCLES).expect("attack halts");
    let timings: Vec<u64> = (0..256)
        .map(|g| c.mem.read(RESULTS_BASE + 8 * g, 8))
        .collect();
    analyze(&timings, secret, kind.margin(), kind.polluted_guesses()).leaked
}

fn main() {
    let secret = 42u8;
    let sweep_cfg = SweepConfig::from_env();

    // ---- 1: BTB update point -------------------------------------------
    println!("Ablation 1: BTB update point vs the BTB covert channel");
    let spec = run_attack_with(SimConfig::ooo(), AttackKind::SpectreV1Btb, secret);
    let mut commit_cfg = SimConfig::ooo();
    commit_cfg.core.btb.speculative_update = false;
    let commit = run_attack_with(commit_cfg, AttackKind::SpectreV1Btb, secret);
    println!("  speculative update (real hardware): leaked = {spec}");
    println!("  commit-time update (per-structure fix): leaked = {commit}");
    assert!(spec && !commit);
    println!("  -> closing one structure works, but the paper's point is that");
    println!("     there is always another structure; NDA cuts the data flow instead.\n");

    // ---- 2: SSBD vs Bypass Restriction ----------------------------------
    println!("Ablation 2: SSBD-style bypass disable vs NDA Bypass Restriction");
    let wl = by_name("lbm").expect("streaming workload exists");
    let params = WorkloadParams {
        seed: 7,
        iters: sweep_cfg.iters,
    };
    let prog = (wl.build)(&params);
    let base = run_with_config(SimConfig::ooo(), &prog, 2_000_000_000)
        .unwrap()
        .cpi();
    let mut ssbd = SimConfig::ooo();
    ssbd.core.speculative_store_bypass = false;
    let ssbd_cpi = run_with_config(ssbd, &prog, 2_000_000_000).unwrap().cpi();
    let br = SimConfig::for_variant(Variant::PermissiveBr);
    let br_cpi = run_with_config(br, &prog, 2_000_000_000).unwrap().cpi();
    println!("  insecure OoO             : CPI {base:.3}");
    println!(
        "  SSBD (bypass disabled)   : CPI {ssbd_cpi:.3} ({:+.1}%)",
        (ssbd_cpi / base - 1.0) * 100.0
    );
    println!(
        "  NDA permissive+BR        : CPI {br_cpi:.3} ({:+.1}%)",
        (br_cpi / base - 1.0) * 100.0
    );
    // Both block SSB:
    let mut ssbd_atk = SimConfig::ooo();
    ssbd_atk.core.speculative_store_bypass = false;
    assert!(
        !run_attack_with(ssbd_atk, AttackKind::Ssb, secret),
        "SSBD must block SSB"
    );
    let br_atk = SimConfig::for_variant(Variant::PermissiveBr);
    assert!(
        !run_attack_with(br_atk, AttackKind::Ssb, secret),
        "BR must block SSB"
    );
    println!("  both block the SSB attack; BR additionally blocks every other");
    println!("  control-steering channel at its quoted cost.\n");

    // ---- 3: the Meltdown flaw knob ---------------------------------------
    println!("Ablation 3: the modelled Meltdown implementation flaw");
    let flawed = run_attack_with(SimConfig::ooo(), AttackKind::Meltdown, secret);
    let mut fixed = SimConfig::ooo();
    fixed.core.meltdown_flaw = false;
    let fixed_leak = run_attack_with(fixed, AttackKind::Meltdown, secret);
    let lr = SimConfig::for_variant(Variant::RestrictedLoads);
    let lr_leak = run_attack_with(lr, AttackKind::Meltdown, secret);
    println!("  flawed hardware, no NDA        : leaked = {flawed}");
    println!("  fixed hardware (point patch)   : leaked = {fixed_leak}");
    println!("  flawed hardware + load restrict: leaked = {lr_leak}");
    assert!(flawed && !fixed_leak && !lr_leak);
    println!("  -> load restriction defends even unpatched (or future-flawed) parts.\n");

    // ---- 4: prefetching under NDA ----------------------------------------
    println!("Ablation 4: a next-line prefetcher (one of the §2 predictive structures)");
    let wl = by_name("lbm").expect("streaming workload exists");
    let prog = (wl.build)(&WorkloadParams {
        seed: 9,
        iters: sweep_cfg.iters,
    });
    let pf_off = SimConfig::for_variant(Variant::Permissive);
    let mut pf_on = pf_off;
    pf_on.mem.next_line_prefetch = true;
    let off = run_with_config(pf_off, &prog, 2_000_000_000).unwrap();
    let on = run_with_config(pf_on, &prog, 2_000_000_000).unwrap();
    println!("  permissive, no prefetch : CPI {:.3}", off.cpi());
    println!(
        "  permissive, prefetch on : CPI {:.3} ({:+.1}%, {} prefetches)",
        on.cpi(),
        (on.cpi() / off.cpi() - 1.0) * 100.0,
        on.mem_stats.prefetches
    );
    // The security result is prefetcher-independent: NDA cuts the transmit
    // before any address can be formed, so there is nothing to prefetch.
    let mut atk_cfg = SimConfig::for_variant(Variant::Permissive);
    atk_cfg.mem.next_line_prefetch = true;
    assert!(
        !run_attack_with(atk_cfg, AttackKind::SpectreV1Cache, secret),
        "NDA must hold with the prefetcher enabled"
    );
    let mut insecure_pf = SimConfig::ooo();
    insecure_pf.mem.next_line_prefetch = true;
    assert!(
        run_attack_with(insecure_pf, AttackKind::SpectreV1Cache, secret),
        "the insecure core still leaks with the prefetcher enabled"
    );
    println!("  attack outcomes unchanged: insecure leaks, NDA blocks.\n");

    // ---- 5: predictor quality vs NDA overhead ----------------------------
    println!("Ablation 5: direction-predictor quality vs NDA's strict overhead");
    println!("  (better prediction -> fewer/shorter unresolved-branch windows)");
    use nda_predict::PredictorKind;
    println!(
        "  {:<12}{:<14}{:>12}{:>14}{:>11}{:>12}",
        "workload", "predictor", "OoO CPI", "strict CPI", "overhead", "mispredicts"
    );
    for wname in ["exchange2", "xz"] {
        let wl = by_name(wname).expect("workload exists");
        let prog = (wl.build)(&WorkloadParams {
            seed: 5,
            iters: sweep_cfg.iters,
        });
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::Tournament,
        ] {
            let mut base = SimConfig::ooo();
            base.core.predictor_kind = kind;
            let strict = SimConfig {
                defense: SimConfig::for_variant(Variant::Strict).defense,
                ..base
            };
            let b = run_with_config(base, &prog, 2_000_000_000).unwrap();
            let s = run_with_config(strict, &prog, 2_000_000_000).unwrap();
            println!(
                "  {wname:<12}{kind:<14?}{:>12.3}{:>14.3}{:>10.1}%{:>12}",
                b.cpi(),
                s.cpi(),
                (s.cpi() / b.cpi() - 1.0) * 100.0,
                b.stats.branch_mispredicts
            );
        }
    }
    println!("  -> NDA's strict cost tracks the branch mix: data-dependent");
    println!("     branches (xz) keep their windows regardless of predictor;");
    println!("     pattern-friendly code separates the predictors.");
}
