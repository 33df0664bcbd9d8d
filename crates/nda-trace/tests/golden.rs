//! Exporter golden-snapshot and observer-invariance tests.
//!
//! * The Perfetto and Konata exporters are pinned byte-for-byte on a tiny
//!   fixed workload (regenerate with `BLESS=1 cargo test -p nda-trace`
//!   after an intentional format change, and eyeball the diff).
//! * Trace emission must be a pure observation: running with a sink
//!   attached yields bit-identical statistics, cycle counts and
//!   architectural state.
//! * The acceptance check of the tracing work: the `spectre_v1` trace
//!   shows complete→broadcast gaps (NDA's deferred broadcasts) under the
//!   Strict policy and none under the baseline OoO core.

use nda_core::{run_with_config, OooCore, SimConfig, Variant};
use nda_isa::{Asm, Program, Reg};
use nda_stats::json::Json;
use nda_trace::{KonataSink, PerfettoSink};

/// A tiny fixed workload: one cold miss, a store→load forward, one
/// data-dependent branch the predictor gets wrong, and an ALU chain.
fn tiny_program() -> Program {
    let mut asm = Asm::new();
    asm.data_u64s(0x8000, &[7, 2]);
    let odd = asm.new_label();
    asm.li(Reg::X2, 0x8000)
        .li(Reg::X8, 0x9000)
        .ld8(Reg::X3, Reg::X2, 0) // cold miss
        .add(Reg::X4, Reg::X3, Reg::X3)
        .st8(Reg::X4, Reg::X8, 0)
        .ld8(Reg::X5, Reg::X8, 0) // forwarded
        .andi(Reg::X6, Reg::X3, 1)
        .bne(Reg::X6, Reg::X0, odd)
        .addi(Reg::X4, Reg::X4, 1000);
    asm.bind(odd);
    asm.addi(Reg::X7, Reg::X4, 5).halt();
    asm.assemble().unwrap()
}

fn check_golden(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(rel);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}; regenerate with BLESS=1", rel));
    assert_eq!(
        expected, actual,
        "{rel} drifted from the pinned snapshot; if intentional, \
         regenerate with BLESS=1 and review the diff"
    );
}

#[test]
fn perfetto_golden_snapshot() {
    let prog = tiny_program();
    let mut core = OooCore::new(SimConfig::for_variant(Variant::Strict), &prog);
    let mut sink = PerfettoSink::new();
    core.run_with_sink(100_000, &mut sink).unwrap();
    let json = sink.into_json();
    Json::parse(&json).expect("exporter must emit well-formed JSON");
    for track in ["uops", "nda-defer", "cache", "predictor", "squash"] {
        assert!(json.contains(&format!("\"name\":\"{track}\"")), "{track}");
    }
    check_golden("perfetto.json", &json);
}

#[test]
fn konata_golden_snapshot() {
    let prog = tiny_program();
    let mut core = OooCore::new(SimConfig::for_variant(Variant::Strict), &prog);
    let mut sink = KonataSink::new();
    core.run_with_sink(100_000, &mut sink).unwrap();
    let log = sink.into_log();
    assert!(log.starts_with("Kanata\t0004\n"), "schema header");
    assert!(log.contains("S\t"), "stage lines present");
    assert!(log.contains("R\t"), "retirement lines present");
    check_golden("konata.log", &log);
}

#[test]
fn tracing_is_a_pure_observation() {
    let prog = tiny_program();
    for variant in [
        Variant::Ooo,
        Variant::Strict,
        Variant::FullProtection,
        Variant::InvisiSpecSpectre,
    ] {
        let plain = run_with_config(SimConfig::for_variant(variant), &prog, 100_000).unwrap();

        let mut traced_core = OooCore::new(SimConfig::for_variant(variant), &prog);
        let mut sink = PerfettoSink::new();
        let traced = traced_core.run_with_sink(100_000, &mut sink).unwrap();

        assert_eq!(
            plain.stats, traced.stats,
            "{variant}: statistics changed with a sink attached"
        );
        assert_eq!(
            plain.regs, traced.regs,
            "{variant}: architectural state changed with a sink attached"
        );
    }
}

#[test]
fn spectre_v1_strict_shows_defer_gaps_base_does_not() {
    let prog = nda_attacks::AttackKind::SpectreV1Cache.program(42);
    let defers = |variant: Variant| {
        let mut core = OooCore::new(SimConfig::for_variant(variant), &prog);
        let mut sink = PerfettoSink::new();
        core.run_with_sink(10_000_000, &mut sink).unwrap();
        (sink.defer_slices, sink.max_defer_gap)
    };
    let (base_slices, base_gap) = defers(Variant::Ooo);
    let (strict_slices, strict_gap) = defers(Variant::Strict);
    // The unprotected core only ever defers for port arbitration: a gap of
    // a cycle or two, never the policy-scale stall.
    assert!(
        base_gap <= 2,
        "baseline OoO should show only port-arbitration gaps (max {base_gap})"
    );
    // Strict withholds broadcasts across the mispredicted bounds check
    // whose condition load misses to DRAM: the gap is visible at a glance.
    assert!(
        strict_gap >= 50,
        "Strict must show policy-scale defer gaps (max {strict_gap})"
    );
    assert!(
        strict_slices > 5 * base_slices.max(1),
        "Strict must defer far more broadcasts ({strict_slices} vs {base_slices})"
    );
}
