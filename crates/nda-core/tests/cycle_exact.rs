//! Cycle-exact regression pins for the out-of-order pipeline and every
//! defense.
//!
//! Host-side refactors (the completion event queue, incremental wake-up,
//! scratch buffers, the once-per-cycle speculation shadow) must leave
//! simulated timing bit-identical. These tests pin the exact cycle counts
//! of four programs on all fifteen variants: a mixed load/branch/fence
//! loop, a taint-gated pointer chase, a loop carried through a load in a
//! store's shadow, and a gated load behind a two-deep untaint chain.
//! Between them every speculation border moves a pin, so any scheduling
//! drift shows up as a hard failure rather than a silent CPI shift. The
//! same programs also pin cycles, broadcasts, deferred broadcasts and
//! `NdaDelay` cycles for all 26 `Defense` values, and for the Fig 9e
//! extra broadcast delay.

use nda_core::config::CoreModel;
use nda_core::{run_with_config, Defense, OooCore, SimConfig, Variant, VecSink};
use nda_isa::{Asm, Reg};

/// A program exercising every timing-relevant mechanism at once: cache
/// misses and hits, store->load forwarding, data-dependent branches the
/// predictor keeps mispredicting, a serialising fence, and ALU chains.
fn mixed_program() -> nda_isa::Program {
    let mut asm = Asm::new();
    asm.data_u64s(0x8000, &[3, 1, 4, 1, 5, 9, 2, 6]);
    let done = asm.new_label();
    asm.li(Reg::X2, 0x8000) // table base
        .li(Reg::X3, 8) // loop counter
        .li(Reg::X4, 0) // accumulator
        .li(Reg::X8, 0x9000); // scratch slot
    let top = asm.here_label();
    asm.beq(Reg::X3, Reg::X0, done);
    asm.ld8(Reg::X5, Reg::X2, 0); // table load (cold first, then warm)
    asm.add(Reg::X4, Reg::X4, Reg::X5);
    asm.st8(Reg::X4, Reg::X8, 0); // store ...
    asm.ld8(Reg::X6, Reg::X8, 0); // ... forwarded load
                                  // A data-dependent branch on the low bit of the table value: the
                                  // gshare predictor cannot learn the pattern quickly, so mispredicts
                                  // (and squashes) stay in the mix.
    let even = asm.new_label();
    asm.andi(Reg::X7, Reg::X5, 1);
    asm.beq(Reg::X7, Reg::X0, even);
    asm.addi(Reg::X4, Reg::X4, 100);
    asm.bind(even);
    asm.fence(); // serialise: drains the pipeline every iteration
    asm.addi(Reg::X2, Reg::X2, 8);
    asm.subi(Reg::X3, Reg::X3, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    asm.assemble().unwrap()
}

/// The (variant, cycles, committed instructions) pins for every variant,
/// in `Variant::all()` order. Architectural register results are asserted
/// separately below.
const PINS: &[(Variant, u64, u64)] = &[
    (Variant::Ooo, 629, 99),
    (Variant::Permissive, 629, 99),
    (Variant::PermissiveBr, 629, 99),
    (Variant::Strict, 629, 99),
    (Variant::StrictBr, 629, 99),
    (Variant::RestrictedLoads, 629, 99),
    (Variant::FullProtection, 629, 99),
    (Variant::InOrder, 763, 99),
    (Variant::InvisiSpecSpectre, 759, 99),
    (Variant::InvisiSpecFuture, 763, 99),
    (Variant::DelayOnMiss, 630, 99),
    // The taint variants pin *equal to Ooo* on this program: nothing here
    // feeds a speculatively-loaded value into a transmit address slot, so
    // the gate never fires and taint tracking must not perturb timing.
    (Variant::SttSpectre, 629, 99),
    (Variant::SttFuturistic, 629, 99),
    (Variant::ShadowBindingEager, 629, 99),
    (Variant::ShadowBindingLazy, 629, 99),
];

/// A pointer chase whose second load's *address* comes from a load issued
/// under a mispredicting data-dependent branch — the canonical
/// taint-gated transmit. Unlike [`mixed_program`], the taint variants
/// must price *above* the insecure baseline here, with the futuristic
/// threat model and the lazy commit-time untaint each paying more.
fn taint_gadget_program() -> nda_isa::Program {
    let mut asm = Asm::new();
    // A table of pointers into a second table of values.
    asm.data_u64s(
        0x8000,
        &[
            0x8100, 0x8108, 0x8110, 0x8118, 0x8120, 0x8128, 0x8130, 0x8138,
        ],
    );
    asm.data_u64s(0x8100, &[3, 1, 4, 1, 5, 9, 2, 6]);
    let done = asm.new_label();
    asm.li(Reg::X2, 0x8000) // pointer-table cursor
        .li(Reg::X3, 8) // loop counter
        .li(Reg::X4, 0); // accumulator
    let top = asm.here_label();
    asm.beq(Reg::X3, Reg::X0, done);
    asm.ld8(Reg::X5, Reg::X2, 0); // pointer load — tainted while a branch is in flight
    asm.ld8(Reg::X6, Reg::X5, 0); // dependent load: tainted address, gate fires
    asm.add(Reg::X4, Reg::X4, Reg::X6);
    // Data-dependent branch the predictor keeps mispredicting, so later
    // iterations always sit behind an unresolved branch.
    let even = asm.new_label();
    asm.andi(Reg::X7, Reg::X6, 1);
    asm.beq(Reg::X7, Reg::X0, even);
    asm.addi(Reg::X4, Reg::X4, 10);
    asm.bind(even);
    asm.addi(Reg::X2, Reg::X2, 8);
    asm.subi(Reg::X3, Reg::X3, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    asm.assemble().unwrap()
}

/// Pins for [`taint_gadget_program`], every variant. STT and
/// ShadowBinding price alike here (one dependency level between the
/// tainted load and the gate); [`untaint_chain_program`] separates them.
const TAINT_PINS: &[(Variant, u64, u64)] = &[
    (Variant::Ooo, 507, 82),
    (Variant::Permissive, 535, 82),
    (Variant::PermissiveBr, 535, 82),
    (Variant::Strict, 560, 82),
    (Variant::StrictBr, 560, 82),
    (Variant::RestrictedLoads, 540, 82),
    (Variant::FullProtection, 560, 82),
    (Variant::InOrder, 570, 82),
    (Variant::InvisiSpecSpectre, 510, 82),
    (Variant::InvisiSpecFuture, 510, 82),
    (Variant::DelayOnMiss, 512, 82),
    (Variant::SttSpectre, 535, 82),
    (Variant::SttFuturistic, 540, 82),
    (Variant::ShadowBindingEager, 535, 82),
    (Variant::ShadowBindingLazy, 540, 82),
];

/// A loop whose carried dependence runs through a load that sits behind a
/// store with a late (multiply-derived) address. Only the Bypass
/// Restriction withholds that load's broadcast until the store completes,
/// so this is the program that separates the `+BR` variants from their
/// bases.
fn store_shadow_program() -> nda_isa::Program {
    let mut asm = Asm::new();
    asm.data_u64s(0x8000, &[3]);
    let done = asm.new_label();
    asm.li(Reg::X2, 0x8000) // warm load slot
        .li(Reg::X3, 8) // loop counter
        .li(Reg::X4, 1) // loop-carried value
        .li(Reg::X9, 0x9000) // store region
        .li(Reg::X10, 7);
    let top = asm.here_label();
    asm.beq(Reg::X3, Reg::X0, done);
    asm.mul(Reg::X5, Reg::X4, Reg::X10);
    asm.andi(Reg::X5, Reg::X5, 0x38);
    asm.add(Reg::X5, Reg::X5, Reg::X9);
    asm.st8(Reg::X3, Reg::X5, 0); // store address known late
    asm.ld8(Reg::X6, Reg::X2, 0); // independent load in the store's shadow
    asm.add(Reg::X4, Reg::X4, Reg::X6); // carries the load into the next multiply
    asm.subi(Reg::X3, Reg::X3, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    asm.assemble().unwrap()
}

/// Pins for [`store_shadow_program`], every variant.
const STORE_PINS: &[(Variant, u64, u64)] = &[
    (Variant::Ooo, 312, 79),
    (Variant::Permissive, 312, 79),
    (Variant::PermissiveBr, 348, 79),
    (Variant::Strict, 312, 79),
    (Variant::StrictBr, 348, 79),
    (Variant::RestrictedLoads, 355, 79),
    (Variant::FullProtection, 355, 79),
    (Variant::InOrder, 583, 79),
    (Variant::InvisiSpecSpectre, 317, 79),
    (Variant::InvisiSpecFuture, 476, 79),
    (Variant::DelayOnMiss, 313, 79),
    (Variant::SttSpectre, 312, 79),
    (Variant::SttFuturistic, 323, 79),
    (Variant::ShadowBindingEager, 312, 79),
    (Variant::ShadowBindingLazy, 312, 79),
];

/// Run `prog` on every variant with the invariant checker on, check the
/// architectural result in `x4`, and return the (variant, cycles,
/// committed instructions) triples in `Variant::all()` order.
fn measure(prog: &nda_isa::Program, x4: u64) -> Vec<(Variant, u64, u64)> {
    Variant::all()
        .into_iter()
        .map(|v| {
            let mut cfg = SimConfig::for_variant(v);
            cfg.check_invariants = true;
            let r = run_with_config(cfg, prog, 1_000_000).unwrap();
            println!(
                "    (Variant::{v:?}, {}, {}),",
                r.stats.cycles, r.stats.committed_insts
            );
            assert_eq!(r.regs[4], x4, "{v}: wrong architectural result");
            (v, r.stats.cycles, r.stats.committed_insts)
        })
        .collect()
}

#[test]
fn taint_gated_pointer_chase_cycle_counts_are_pinned() {
    // sum = 31, five odd values add 10 each.
    let got = measure(&taint_gadget_program(), 31 + 50);
    assert_eq!(
        got, TAINT_PINS,
        "taint-gated timing drifted from the pinned baseline"
    );
    let cycles = |v: Variant| got.iter().find(|(x, ..)| *x == v).unwrap().1;
    // Shape, independent of the exact numbers: gating costs cycles, and
    // the stricter guard/untaint choices cost at least as much.
    assert!(cycles(Variant::SttSpectre) > cycles(Variant::Ooo));
    assert!(cycles(Variant::SttFuturistic) >= cycles(Variant::SttSpectre));
    assert!(cycles(Variant::ShadowBindingLazy) >= cycles(Variant::ShadowBindingEager));
}

#[test]
fn mixed_load_branch_fence_cycle_counts_are_pinned() {
    // sum = 31, five odd table entries add 100 each.
    let got = measure(&mixed_program(), 31 + 500);
    assert_eq!(
        got, PINS,
        "simulated timing drifted from the pinned baseline"
    );
}

#[test]
fn store_shadow_cycle_counts_are_pinned() {
    let got = measure(&store_shadow_program(), 1 + 8 * 3);
    assert_eq!(
        got, STORE_PINS,
        "store-shadow timing drifted from the pinned baseline"
    );
    let cycles = |v: Variant| got.iter().find(|(x, ..)| *x == v).unwrap().1;
    assert!(cycles(Variant::PermissiveBr) > cycles(Variant::Permissive));
}

/// Attaching an event sink must not perturb timing: the same pins hold
/// with per-cycle trace draining enabled. (Tracing is observer-only; a
/// drift here means an exporter hook leaked into the schedule.) The
/// in-order model has no event sink, so only out-of-order variants run.
#[test]
fn cycle_pins_hold_with_tracing_enabled() {
    let prog = mixed_program();
    for &(v, cycles, insts) in PINS {
        let cfg = SimConfig::for_variant(v);
        if cfg.model != CoreModel::OutOfOrder {
            continue;
        }
        let mut core = OooCore::new(cfg, &prog);
        let mut sink = VecSink::default();
        let r = core.run_with_sink(1_000_000, &mut sink).unwrap();
        assert_eq!(
            (r.stats.cycles, r.stats.committed_insts),
            (cycles, insts),
            "{v}: tracing changed simulated timing"
        );
        assert_eq!(r.regs[4], 31 + 500, "{v}: wrong architectural result");
        assert!(
            !sink.events.is_empty(),
            "{v}: the sink must actually have observed the run"
        );
    }
}

/// A loop whose transmit address reaches the gate through a two-deep ALU
/// chain from a pointer load issued behind a slow branch (its condition
/// is a fresh DRAM miss every iteration, whose address waits for the
/// previous transmit). When the branch resolves, ShadowBinding-Eager
/// untaints the whole chain in that cycle, while STT's propagated untaint
/// ripples one dependency level per cycle, so the gated load, and with
/// it the next iteration, starts later under STT-Spectre. This is the
/// program that separates the two untaint rules.
fn untaint_chain_program() -> nda_isa::Program {
    let mut asm = Asm::new();
    asm.data_u64s(
        0x8000,
        &[
            0x8100, 0x8108, 0x8110, 0x8118, 0x8120, 0x8128, 0x8130, 0x8138,
        ],
    );
    asm.data_u64s(0x8100, &[3, 1, 4, 1, 5, 9, 2, 6]);
    let done = asm.new_label();
    asm.li(Reg::X2, 0x8000) // pointer-table cursor
        .li(Reg::X3, 8) // loop counter
        .li(Reg::X4, 0) // accumulator
        .li(Reg::X12, 0x10_0000); // cold region: one new page per iteration
    let top = asm.here_label();
    asm.beq(Reg::X3, Reg::X0, done);
    asm.ld8(Reg::X11, Reg::X12, 0); // DRAM miss
    let next = asm.new_label();
    asm.bne(Reg::X11, Reg::X0, next); // never taken, resolves late
    asm.bind(next);
    asm.ld8(Reg::X5, Reg::X2, 0); // pointer load in the branch's shadow
    asm.addi(Reg::X6, Reg::X5, 0); // chain depth 1
    asm.addi(Reg::X7, Reg::X6, 0); // chain depth 2
    asm.ld8(Reg::X8, Reg::X7, 0); // transmit: gated until the chain untaints
    asm.add(Reg::X4, Reg::X4, Reg::X8);
    asm.andi(Reg::X9, Reg::X8, 0);
    asm.add(Reg::X12, Reg::X12, Reg::X9); // the next miss waits for the transmit
    asm.addi(Reg::X12, Reg::X12, 4096);
    asm.addi(Reg::X2, Reg::X2, 8);
    asm.subi(Reg::X3, Reg::X3, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    asm.assemble().unwrap()
}

/// Pins for [`untaint_chain_program`], every variant.
const CHAIN_PINS: &[(Variant, u64, u64)] = &[
    (Variant::Ooo, 607, 118),
    (Variant::Permissive, 1541, 118),
    (Variant::PermissiveBr, 1541, 118),
    (Variant::Strict, 1541, 118),
    (Variant::StrictBr, 1541, 118),
    (Variant::RestrictedLoads, 1549, 118),
    (Variant::FullProtection, 1549, 118),
    (Variant::InOrder, 1966, 118),
    (Variant::InvisiSpecSpectre, 619, 118),
    (Variant::InvisiSpecFuture, 683, 118),
    (Variant::DelayOnMiss, 1618, 118),
    (Variant::SttSpectre, 1534, 118),
    (Variant::SttFuturistic, 1534, 118),
    (Variant::ShadowBindingEager, 1526, 118),
    (Variant::ShadowBindingLazy, 1533, 118),
];

#[test]
fn untaint_chain_cycle_counts_are_pinned() {
    let got = measure(&untaint_chain_program(), 31);
    assert_eq!(
        got, CHAIN_PINS,
        "untaint-chain timing drifted from the pinned baseline"
    );
    let cycles = |v: Variant| got.iter().find(|(x, ..)| *x == v).unwrap().1;
    assert!(cycles(Variant::SttSpectre) > cycles(Variant::ShadowBindingEager));
}

/// What the defense pins record of one run: cycles, committed
/// instructions, tag broadcasts, deferred broadcasts and cycles charged
/// to the `NdaDelay` CPI class.
type Counts = (u64, u64, u64, u64, u64);

/// The four pinned programs with their architectural `x4` results.
fn programs() -> [(nda_isa::Program, u64); 4] {
    [
        (mixed_program(), 31 + 500),
        (taint_gadget_program(), 31 + 50),
        (store_shadow_program(), 1 + 8 * 3),
        (untaint_chain_program(), 31),
    ]
}

/// Run every program under `cfg` with the invariant checker on.
fn counts(cfg: SimConfig) -> [Counts; 4] {
    programs().map(|(prog, x4)| {
        let mut cfg = cfg;
        cfg.check_invariants = true;
        let r = run_with_config(cfg, &prog, 1_000_000).unwrap();
        assert_eq!(
            r.regs[4], x4,
            "{:?}: wrong architectural result",
            cfg.defense
        );
        let s = r.stats;
        (
            s.cycles,
            s.committed_insts,
            s.broadcasts,
            s.deferred_broadcasts,
            s.cpi_stack.get(nda_stats::CpiClass::NdaDelay),
        )
    })
}

/// [`Counts`] on the four programs for every value of `Defense`, in
/// `Defense::all()` order: the presets and every other combination.
#[rustfmt::skip]
const DEFENSE_PINS: &[[Counts; 4]] = &[
    [(629, 99, 76, 0, 0), (507, 82, 88, 0, 0), (312, 79, 53, 0, 0), (607, 118, 92, 0, 0)], // None
    [(630, 99, 76, 0, 0), (512, 82, 82, 0, 0), (313, 79, 53, 0, 0), (1618, 118, 92, 0, 0)], // DelayOnMiss
    [(629, 99, 76, 0, 0), (507, 82, 88, 0, 0), (312, 79, 53, 0, 0), (607, 118, 92, 0, 0)], // DelayBroadcast { propagation: Off, bypass_restriction: false, load_restriction: false }
    [(629, 99, 68, 0, 0), (507, 82, 88, 0, 0), (348, 79, 53, 7, 0), (607, 118, 92, 0, 0)], // DelayBroadcast { propagation: Off, bypass_restriction: true, load_restriction: false }
    [(629, 99, 68, 0, 0), (540, 82, 74, 5, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 8, 8)], // DelayBroadcast { propagation: Off, bypass_restriction: false, load_restriction: true }
    [(629, 99, 68, 0, 0), (540, 82, 74, 5, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 8, 8)], // DelayBroadcast { propagation: Off, bypass_restriction: true, load_restriction: true }
    [(629, 99, 76, 0, 0), (535, 82, 74, 5, 0), (312, 79, 53, 0, 0), (1541, 118, 92, 8, 8)], // DelayBroadcast { propagation: Permissive, bypass_restriction: false, load_restriction: false }
    [(629, 99, 68, 0, 0), (535, 82, 74, 5, 0), (348, 79, 53, 7, 0), (1541, 118, 92, 8, 8)], // DelayBroadcast { propagation: Permissive, bypass_restriction: true, load_restriction: false }
    [(629, 99, 68, 0, 0), (540, 82, 74, 5, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 8, 8)], // DelayBroadcast { propagation: Permissive, bypass_restriction: false, load_restriction: true }
    [(629, 99, 68, 0, 0), (540, 82, 74, 5, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 8, 8)], // DelayBroadcast { propagation: Permissive, bypass_restriction: true, load_restriction: true }
    [(629, 99, 73, 5, 0), (560, 82, 56, 10, 0), (312, 79, 53, 0, 0), (1541, 118, 92, 23, 8)], // DelayBroadcast { propagation: Strict, bypass_restriction: false, load_restriction: false }
    [(629, 99, 65, 5, 0), (560, 82, 56, 10, 0), (348, 79, 53, 7, 0), (1541, 118, 92, 23, 8)], // DelayBroadcast { propagation: Strict, bypass_restriction: true, load_restriction: false }
    [(629, 99, 65, 5, 0), (560, 82, 56, 10, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 23, 8)], // DelayBroadcast { propagation: Strict, bypass_restriction: false, load_restriction: true }
    [(629, 99, 65, 5, 0), (560, 82, 56, 10, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 23, 8)], // DelayBroadcast { propagation: Strict, bypass_restriction: true, load_restriction: true }
    [(759, 99, 76, 0, 28), (510, 82, 80, 0, 10), (317, 79, 53, 0, 0), (619, 118, 92, 0, 2)], // InvisibleLoad(UnresolvedBranch)
    [(759, 99, 76, 0, 28), (510, 82, 80, 0, 17), (469, 79, 53, 0, 0), (655, 118, 92, 0, 15)], // InvisibleLoad(Branch)
    [(762, 99, 76, 0, 0), (507, 82, 88, 0, 0), (449, 79, 53, 0, 0), (607, 118, 92, 0, 0)], // InvisibleLoad(Store)
    [(763, 99, 76, 0, 28), (510, 82, 80, 0, 30), (476, 79, 53, 0, 0), (683, 118, 92, 0, 21)], // InvisibleLoad(Head)
    [(629, 99, 76, 0, 0), (535, 82, 80, 0, 0), (312, 79, 53, 0, 0), (1526, 118, 92, 0, 7)], // GateTransmit { border: UnresolvedBranch, propagated_untaint: false }
    [(629, 99, 76, 0, 0), (535, 82, 80, 0, 0), (312, 79, 53, 0, 0), (1534, 118, 92, 0, 7)], // GateTransmit { border: UnresolvedBranch, propagated_untaint: true }
    [(629, 99, 76, 0, 0), (540, 82, 80, 0, 0), (312, 79, 53, 0, 0), (1533, 118, 92, 0, 7)], // GateTransmit { border: Branch, propagated_untaint: false }
    [(629, 99, 76, 0, 0), (540, 82, 80, 0, 0), (321, 79, 53, 0, 4), (1534, 118, 92, 0, 7)], // GateTransmit { border: Branch, propagated_untaint: true }
    [(629, 99, 76, 0, 0), (507, 82, 88, 0, 0), (312, 79, 53, 0, 0), (607, 118, 92, 0, 0)], // GateTransmit { border: Store, propagated_untaint: false }
    [(629, 99, 76, 0, 0), (507, 82, 88, 0, 0), (323, 79, 53, 0, 5), (607, 118, 92, 0, 0)], // GateTransmit { border: Store, propagated_untaint: true }
    [(629, 99, 76, 0, 0), (540, 82, 80, 0, 0), (317, 79, 53, 0, 0), (1533, 118, 92, 0, 7)], // GateTransmit { border: Head, propagated_untaint: false }
    [(629, 99, 76, 0, 0), (540, 82, 80, 0, 0), (323, 79, 53, 0, 5), (1534, 118, 92, 0, 7)], // GateTransmit { border: Head, propagated_untaint: true }
];

#[test]
fn every_defense_value_is_pinned() {
    let got: Vec<[Counts; 4]> = Defense::all()
        .into_iter()
        .map(|defense| {
            let c = counts(SimConfig {
                defense,
                ..SimConfig::ooo()
            });
            println!("    {c:?}, // {defense:?}");
            c
        })
        .collect();
    assert_eq!(got.len(), 26);
    assert_eq!(got, DEFENSE_PINS, "a defense's timing drifted");
}

/// [`Counts`] for Strict and Full Protection with the Fig 9e extra
/// broadcast delay of 1 and 2 cycles, the only runs in which an entry's
/// first safe cycle matters.
#[rustfmt::skip]
const EXTRA_DELAY_PINS: &[(Variant, u64, [Counts; 4])] = &[
    (Variant::Strict, 1, [(629, 99, 73, 5, 0), (565, 82, 56, 10, 0), (312, 79, 53, 0, 0), (1549, 118, 92, 23, 8)]),
    (Variant::Strict, 2, [(629, 99, 73, 5, 0), (565, 82, 56, 10, 0), (312, 79, 53, 0, 0), (1549, 118, 92, 23, 8)]),
    (Variant::FullProtection, 1, [(629, 99, 65, 5, 0), (565, 82, 56, 10, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 23, 8)]),
    (Variant::FullProtection, 2, [(629, 99, 65, 5, 0), (565, 82, 56, 10, 0), (355, 79, 53, 7, 0), (1549, 118, 92, 23, 8)]),
];

#[test]
fn extra_broadcast_delay_is_pinned() {
    let mut got = Vec::new();
    for v in [Variant::Strict, Variant::FullProtection] {
        for extra in [1, 2] {
            let mut cfg = SimConfig::for_variant(v);
            cfg.core.broadcast_extra_delay = extra;
            let c = counts(cfg);
            println!("    (Variant::{v:?}, {extra}, {c:?}),");
            got.push((v, extra, c));
        }
    }
    assert_eq!(got, EXTRA_DELAY_PINS, "extra-delay timing drifted");
}

/// One pass over each path the in-order core charges besides loads,
/// stores, branches and ALU ops: a multiply and a divide with the FPU
/// power model on, each after a power-down gap; `clflush` and a reload;
/// a privileged load and a privileged `rdmsr`, both through a fault
/// handler on its own i-line, so the fetch right after each redirect
/// crosses a line; and `rdcycle` values stored to memory along the way.
fn inorder_paths_program() -> nda_isa::Program {
    let mut asm = Asm::new();
    let handler = asm.new_label();
    let after_load = asm.new_label();
    let after_msr = asm.new_label();
    asm.fault_handler(handler);
    asm.msr(1, 0x42).msr(2, 0x43).msr_user_ok(2);
    asm.data_u64s(0x8000, &[7, 5]);
    asm.li(Reg::X2, 0x8000) // data
        .li(Reg::X9, 0x9000) // rdcycle log
        .li(Reg::X12, 0x10_0000); // cold region
    asm.rdcycle(Reg::X10);
    asm.st8(Reg::X10, Reg::X9, 0);
    asm.ld8(Reg::X3, Reg::X2, 0);
    asm.mul(Reg::X4, Reg::X3, Reg::X3); // powered down: wake penalty
    asm.mul(Reg::X4, Reg::X4, Reg::X3); // awake
    asm.ld8(Reg::X13, Reg::X12, 0); // two serial DRAM misses: the unit
    asm.ld8(Reg::X13, Reg::X12, 4096); // powers down in the gap
    asm.rdcycle(Reg::X10);
    asm.st8(Reg::X10, Reg::X9, 8);
    asm.alui(nda_isa::AluOp::Div, Reg::X5, Reg::X4, 3); // wake penalty again
    asm.alui(nda_isa::AluOp::Rem, Reg::X6, Reg::X4, 5); // awake
    asm.rdcycle(Reg::X10);
    asm.st8(Reg::X10, Reg::X9, 16);
    asm.ld8(Reg::X7, Reg::X2, 8); // warm
    asm.clflush(Reg::X2, 0);
    asm.ld8(Reg::X7, Reg::X2, 8); // cold again
    asm.rdcycle(Reg::X10);
    asm.st8(Reg::X10, Reg::X9, 24);
    asm.li(Reg::X14, nda_isa::KERNEL_BASE);
    asm.ld8(Reg::X15, Reg::X14, 0); // faults
    asm.bind(after_load);
    asm.rdcycle(Reg::X10);
    asm.st8(Reg::X10, Reg::X9, 32);
    asm.rdmsr(Reg::X16, 2);
    asm.rdmsr(Reg::X17, 1); // faults
    asm.bind(after_msr);
    asm.rdcycle(Reg::X10);
    asm.st8(Reg::X10, Reg::X9, 40);
    asm.add(Reg::X4, Reg::X4, Reg::X5);
    asm.add(Reg::X4, Reg::X4, Reg::X6);
    asm.add(Reg::X4, Reg::X4, Reg::X7);
    asm.add(Reg::X4, Reg::X4, Reg::X16);
    asm.halt();
    // The handler starts a fresh i-line and logs the cycle it starts at.
    while !asm.here().is_multiple_of(16) {
        asm.nop();
    }
    asm.bind(handler);
    asm.rdcycle(Reg::X22);
    asm.addi(Reg::X20, Reg::X20, 1);
    asm.shli(Reg::X23, Reg::X20, 3);
    asm.add(Reg::X23, Reg::X23, Reg::X9);
    asm.st8(Reg::X22, Reg::X23, 64);
    asm.li(Reg::X21, 1);
    asm.beq(Reg::X20, Reg::X21, after_load);
    asm.jmp(after_msr);
    asm.assemble().unwrap()
}

/// The CPI stack of one run, in `CpiClass::all()` order.
fn cpi_stack(s: &nda_stats::SimStats) -> Vec<u64> {
    nda_stats::CpiClass::all()
        .into_iter()
        .map(|c| s.cpi_stack.get(c))
        .collect()
}

#[test]
fn inorder_timing_paths_are_pinned() {
    let prog = inorder_paths_program();
    let mut cfg = SimConfig::for_variant(Variant::InOrder);
    cfg.core.fpu_power_model = true;
    let mut core = nda_core::InOrderCore::new(cfg, &prog);
    let r = core.run(1_000_000).unwrap();
    let s = r.stats;
    let log: Vec<u64> = (0..12)
        .map(|k| core.mem().read(0x9000 + 8 * k, 8))
        .collect();
    assert_eq!(
        (
            s.cycles,
            s.committed_insts,
            s.faults,
            s.committed_loads,
            s.committed_stores,
            s.committed_branches,
            s.issued_insts
        ),
        (1619, 47, 2, 6, 8, 3, 49)
    );
    assert_eq!(cpi_stack(&s), [47, 588, 0, 0, 0, 0, 92, 28, 0, 864, 0]);
    #[rustfmt::skip]
    let regs = [
        0, 0, 0x8000, 7, 532, 114, 3, 5, 0, 0x9000, 1464, 0, 0x10_0000, 0,
        nda_isa::KERNEL_BASE, 0, 0x43, 0, 0, 0, 2, 1, 1448, 0x9010,
        0, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(r.regs, regs);
    assert_eq!(
        log,
        [147, 754, 828, 1129, 1436, 1464, 0, 0, 0, 1281, 1448, 0]
    );
}

/// A PC that leaves the text and a fault with no handler end an in-order
/// run with the same error, at the same cycle, as they always have; the
/// cycle budget stops a run before the step that would start at or past
/// it. Each row: the error, then the core's cycle, faults and committed
/// instructions.
#[test]
fn inorder_run_errors_are_pinned() {
    let falls_off = {
        let mut asm = Asm::new();
        asm.li(Reg::X2, 1).nop();
        asm.assemble().unwrap()
    };
    let unhandled_load = {
        let mut asm = Asm::new();
        asm.li(Reg::X2, nda_isa::KERNEL_BASE + 8);
        asm.ld8(Reg::X3, Reg::X2, 8);
        asm.halt();
        asm.assemble().unwrap()
    };
    let unhandled_msr = {
        let mut asm = Asm::new();
        asm.msr(3, 9);
        asm.rdmsr(Reg::X3, 3);
        asm.halt();
        asm.assemble().unwrap()
    };
    let inorder = SimConfig::for_variant(Variant::InOrder);
    let mut fpu = inorder;
    fpu.core.fpu_power_model = true;
    let got: Vec<(String, u64, u64, u64)> = [
        (inorder, falls_off, 1_000_000),
        (inorder, unhandled_load, 1_000_000),
        (inorder, unhandled_msr, 1_000_000),
        (fpu, inorder_paths_program(), 300),
    ]
    .into_iter()
    .map(|(cfg, prog, max_cycles)| {
        let mut core = nda_core::InOrderCore::new(cfg, &prog);
        let err = core.run(max_cycles).unwrap_err();
        let s = &core.stats;
        let row = (
            format!("{err:?}"),
            core.cycle(),
            s.faults,
            s.committed_insts,
        );
        println!("    {row:?},");
        row
    })
    .collect();
    let want = [
        ("PcOutOfRange { pc: 2 }", 146, 0, 2),
        (
            "UnhandledFault(PrivilegedAccess { addr: 18446603336221196304 })",
            146,
            1,
            1,
        ),
        ("UnhandledFault(PrivilegedMsr { idx: 3 })", 145, 1, 0),
        ("CycleLimit { cycles: 438, snapshot: None }", 438, 0, 6),
    ]
    .map(|(e, cycle, faults, insts)| (e.to_string(), cycle, faults, insts));
    assert_eq!(got, want);
}
