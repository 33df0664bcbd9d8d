//! Fig 9e: sensitivity of CPI to extra latency in NDA's deferred-broadcast
//! logic. The paper adds 0/1/2 cycles between an instruction becoming safe
//! and its tag broadcast and finds the CPI impact under permissive
//! propagation is small (< 3.6 % for one cycle).

use nda_bench::{sweep, SweepConfig};
use nda_core::config::SimConfig;
use nda_core::{run_with_config, Variant};
use nda_workloads::{all, WorkloadParams};

fn main() {
    let cfg = SweepConfig::from_env();
    println!(
        "Fig 9e: CPI vs NDA broadcast-logic latency, permissive propagation ({} samples x {} iters)",
        cfg.samples, cfg.iters
    );

    // Baseline normalisation: insecure OoO.
    let base = sweep(all(), &[Variant::Ooo], cfg.clone());

    println!(
        "{:<28}{:>14}{:>16}",
        "configuration", "norm. CPI", "vs same-cycle"
    );
    let mut same_cycle_geo = 0.0;
    for delay in [0u64, 1, 2] {
        let mut ratios = Vec::new();
        for (w, workload) in all().iter().enumerate() {
            let mut cpis = Vec::new();
            for s in 0..cfg.samples {
                let params = WorkloadParams {
                    seed: 1000 + s,
                    iters: cfg.iters,
                };
                let prog = (workload.build)(&params);
                let mut sim = SimConfig::for_variant(Variant::Permissive);
                sim.core.broadcast_extra_delay = delay;
                let r = run_with_config(sim, &prog, 2_000_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                cpis.push(r.cpi());
            }
            let mean = cpis.iter().sum::<f64>() / cpis.len() as f64;
            ratios.push(mean / base.cell(w, 0).cpi.mean);
        }
        let geo = nda_stats::geomean(&ratios);
        if delay == 0 {
            same_cycle_geo = geo;
        }
        let vs_same = (geo / same_cycle_geo - 1.0) * 100.0;
        println!(
            "{:<28}{:>14.3}{:>15.2}%",
            format!("permissive, {delay}-cycle delay"),
            geo,
            vs_same
        );
        if delay == 1 {
            // The paper reports < 3.6% CPI impact for a one-cycle delay;
            // allow generous headroom for the synthetic workloads.
            assert!(
                vs_same < 10.0,
                "one-cycle delay impact implausibly large ({vs_same:.2}%)"
            );
        }
    }
    println!("\n(paper: a one-cycle delay reduces CPI by less than 3.6%)");
}
