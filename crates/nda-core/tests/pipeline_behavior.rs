//! Behavioural tests of individual pipeline mechanisms, each exercising
//! one distinct property the modules cannot test in isolation.

use nda_core::config::SimConfig;
use nda_core::{OooCore, Variant};
use nda_isa::{Asm, MemSize, Reg};

fn run_ooo(asm: &Asm) -> OooCore {
    run_with(asm, SimConfig::ooo())
}

fn run_with(asm: &Asm, cfg: SimConfig) -> OooCore {
    let p = asm.assemble().unwrap();
    let mut c = OooCore::new(cfg, &p);
    c.run(10_000_000).unwrap();
    c
}

// ---------------------------------------------------------------------
// Physical-register conservation
// ---------------------------------------------------------------------

#[test]
fn free_list_fully_recovered_after_squash_heavy_run() {
    // Data-dependent branches force many squashes; after halt the ROB is
    // empty and every non-architectural physical register must be free.
    let mut asm = Asm::new();
    asm.data_u64s(0x9000, &[3, 1, 4, 1, 5, 9, 2, 6]);
    let done = asm.new_label();
    asm.li(Reg::X2, 64);
    asm.li(Reg::X8, 0x9000);
    let top = asm.here_label();
    asm.beq(Reg::X2, Reg::X0, done);
    asm.andi(Reg::X3, Reg::X2, 7 << 3 >> 3); // index
    asm.andi(Reg::X3, Reg::X2, 7);
    asm.shli(Reg::X3, Reg::X3, 3);
    asm.add(Reg::X3, Reg::X3, Reg::X8);
    asm.ld8(Reg::X4, Reg::X3, 0);
    let odd = asm.new_label();
    let join = asm.new_label();
    asm.andi(Reg::X5, Reg::X4, 1);
    asm.bne(Reg::X5, Reg::X0, odd);
    asm.addi(Reg::X6, Reg::X6, 1);
    asm.jmp(join);
    asm.bind(odd);
    asm.addi(Reg::X7, Reg::X7, 1);
    asm.bind(join);
    asm.subi(Reg::X2, Reg::X2, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    let c = run_ooo(&asm);
    assert!(c.stats.squashes > 0, "test needs squashes to be meaningful");
    assert_eq!(c.rob_occupancy(), 0);
    let cfg = SimConfig::ooo();
    assert_eq!(
        c.free_pregs(),
        cfg.core.num_pregs - 32,
        "physical register leak"
    );
}

// ---------------------------------------------------------------------
// Store-to-load forwarding details
// ---------------------------------------------------------------------

#[test]
fn subword_forwarding_extracts_correct_bytes() {
    let mut asm = Asm::new();
    asm.li(Reg::X2, 0x1_0000);
    asm.li(Reg::X3, 0x1122_3344_5566_7788);
    asm.st8(Reg::X3, Reg::X2, 0);
    // Forward single bytes from inside the store's footprint.
    asm.load(Reg::X4, Reg::X2, 0, MemSize::B1); // 0x88
    asm.load(Reg::X5, Reg::X2, 3, MemSize::B1); // 0x55
    asm.load(Reg::X6, Reg::X2, 4, MemSize::B4); // 0x11223344
    asm.load(Reg::X7, Reg::X2, 6, MemSize::B2); // 0x1122
    asm.halt();
    let c = run_ooo(&asm);
    assert_eq!(c.reg(Reg::X4), 0x88);
    assert_eq!(c.reg(Reg::X5), 0x55);
    assert_eq!(c.reg(Reg::X6), 0x1122_3344);
    assert_eq!(c.reg(Reg::X7), 0x1122);
}

#[test]
fn partial_overlap_waits_for_store_commit() {
    // A 1-byte store partially covers an 8-byte load: no forwarding is
    // possible, the load must wait until the store drains to memory —
    // and the value must splice the store into the old memory contents.
    let mut asm = Asm::new();
    asm.data_u64s(0x2000, &[0xFFFF_FFFF_FFFF_FFFF]);
    asm.li(Reg::X2, 0x2000);
    asm.li(Reg::X3, 0xAB);
    asm.st1(Reg::X3, Reg::X2, 2);
    asm.ld8(Reg::X4, Reg::X2, 0);
    asm.halt();
    let c = run_ooo(&asm);
    assert_eq!(c.reg(Reg::X4), 0xFFFF_FFFF_FFAB_FFFF);
}

#[test]
fn forwarding_uses_the_youngest_matching_store() {
    let mut asm = Asm::new();
    asm.li(Reg::X2, 0x3000);
    asm.li(Reg::X3, 111);
    asm.st8(Reg::X3, Reg::X2, 0);
    asm.li(Reg::X4, 222);
    asm.st8(Reg::X4, Reg::X2, 0);
    asm.ld8(Reg::X5, Reg::X2, 0);
    asm.halt();
    let c = run_ooo(&asm);
    assert_eq!(c.reg(Reg::X5), 222);
}

// ---------------------------------------------------------------------
// Structural limits
// ---------------------------------------------------------------------

#[test]
fn mshr_exhaustion_still_completes_correctly() {
    // 32 independent cold misses exceed the 16 MSHRs; later loads must
    // retry and everything still commits with the right values.
    let mut asm = Asm::new();
    let words: Vec<u64> = (0..32).map(|i| 1000 + i).collect();
    for (i, w) in words.iter().enumerate() {
        // One line (64 B) apart, all distinct lines.
        asm.data_u64s(0x10_0000 + (i as u64) * 64, &[*w]);
    }
    asm.li(Reg::X2, 0x10_0000);
    for i in 0..32i64 {
        asm.ld8(Reg::X3, Reg::X2, i * 64);
        asm.add(Reg::X10, Reg::X10, Reg::X3);
    }
    asm.halt();
    let c = run_ooo(&asm);
    let expect: u64 = words.iter().sum();
    assert_eq!(c.reg(Reg::X10), expect);
    assert!(c.hier.stats().dram_accesses >= 32);
}

#[test]
fn narrow_issue_width_still_correct() {
    // Independent work in a loop (i-cache warm after the first pass) so
    // issue bandwidth is the bottleneck, not fetch or dependencies.
    let mut asm = Asm::new();
    let done = asm.new_label();
    asm.li(Reg::X2, 50);
    let top = asm.here_label();
    asm.beq(Reg::X2, Reg::X0, done);
    asm.addi(Reg::X5, Reg::X5, 1);
    asm.addi(Reg::X6, Reg::X6, 2);
    asm.addi(Reg::X7, Reg::X7, 3);
    asm.addi(Reg::X8, Reg::X8, 4);
    asm.addi(Reg::X9, Reg::X9, 5);
    asm.addi(Reg::X10, Reg::X10, 6);
    asm.subi(Reg::X2, Reg::X2, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    let mut narrow = SimConfig::ooo();
    narrow.core.issue_width = 1;
    narrow.core.alu_units = 1;
    let slow = run_with(&asm, narrow);
    let fast = run_ooo(&asm);
    assert_eq!(slow.reg(Reg::X5), fast.reg(Reg::X5));
    assert_eq!(slow.reg(Reg::X10), 300);
    assert!(
        slow.cycle() > fast.cycle(),
        "1-wide must be slower than 8-wide"
    );
}

// ---------------------------------------------------------------------
// Serialization: fence, rdcycle, SpecOff
// ---------------------------------------------------------------------

#[test]
fn fence_orders_timing_reads() {
    // Without serialization, the second rdcycle could race ahead; the
    // fence forces it after the slow load commits.
    let mut asm = Asm::new();
    asm.li(Reg::X2, 0x4_0000);
    asm.rdcycle(Reg::X3);
    asm.ld8(Reg::X4, Reg::X2, 0); // cold miss, ~144 cycles
    asm.rdcycle(Reg::X5);
    asm.halt();
    let c = run_ooo(&asm);
    assert!(
        c.reg(Reg::X5) - c.reg(Reg::X3) >= 100,
        "serialising rdcycle must observe the full miss ({} .. {})",
        c.reg(Reg::X3),
        c.reg(Reg::X5)
    );
}

#[test]
fn spec_window_suppresses_wrong_path_execution() {
    // A mispredictable branch inside a SpecOff window: the wrong path must
    // never issue (one instruction in flight at a time).
    let mut asm = Asm::new();
    asm.data_u64s(0xA000, &[1]);
    let run_branchy = |asm: &mut Asm| {
        let skip = asm.new_label();
        asm.li(Reg::X2, 0xA000);
        asm.clflush(Reg::X2, 0);
        asm.ld8(Reg::X3, Reg::X2, 0); // slow; value 1
        asm.bne(Reg::X3, Reg::X0, skip); // taken; cold-predicted not taken
        asm.li(Reg::X4, 0xBAD); // wrong path
        asm.li(Reg::X5, 0xBAD2);
        asm.bind(skip);
    };
    asm.spec_off();
    run_branchy(&mut asm);
    asm.spec_on();
    asm.halt();
    let c = run_ooo(&asm);
    assert_eq!(
        c.stats.wrong_path_executed, 0,
        "no wrong path may execute inside the window"
    );

    // Control: the same code without the window does execute a wrong path.
    let mut asm2 = Asm::new();
    asm2.data_u64s(0xA000, &[1]);
    run_branchy(&mut asm2);
    asm2.halt();
    let c2 = run_ooo(&asm2);
    assert!(c2.stats.wrong_path_executed > 0, "control must speculate");
}

#[test]
fn spec_window_costs_time_but_not_correctness() {
    let body = |asm: &mut Asm, windowed: bool| {
        if windowed {
            asm.spec_off();
        }
        asm.li(Reg::X2, 10);
        let done = asm.new_label();
        let top = asm.here_label();
        asm.beq(Reg::X2, Reg::X0, done);
        asm.addi(Reg::X3, Reg::X3, 5);
        asm.subi(Reg::X2, Reg::X2, 1);
        asm.jmp(top);
        asm.bind(done);
        if windowed {
            asm.spec_on();
        }
        asm.halt();
    };
    let mut plain = Asm::new();
    body(&mut plain, false);
    let mut windowed = Asm::new();
    body(&mut windowed, true);
    let p = run_ooo(&plain);
    let w = run_ooo(&windowed);
    assert_eq!(p.reg(Reg::X3), 50);
    assert_eq!(w.reg(Reg::X3), 50);
    assert!(w.cycle() > p.cycle(), "the window serialises dispatch");
}

#[test]
fn wrong_path_spec_off_never_engages() {
    // SpecOff on the wrong path must not disable speculation (it takes
    // effect at commit): later wrong paths still execute.
    let mut asm = Asm::new();
    asm.data_u64s(0xA000, &[1]);
    let skip = asm.new_label();
    asm.li(Reg::X2, 0xA000);
    asm.clflush(Reg::X2, 0);
    asm.ld8(Reg::X3, Reg::X2, 0);
    asm.bne(Reg::X3, Reg::X0, skip); // taken; predicted not taken
    asm.spec_off(); // wrong path!
    asm.bind(skip);
    // A second mispredictable branch afterwards: speculation must be alive.
    let skip2 = asm.new_label();
    asm.clflush(Reg::X2, 0);
    asm.ld8(Reg::X4, Reg::X2, 0);
    asm.bne(Reg::X4, Reg::X0, skip2); // taken; predicted not taken (new pc)
    asm.li(Reg::X5, 0xBAD);
    asm.bind(skip2);
    asm.halt();
    let c = run_ooo(&asm);
    assert!(
        c.stats.wrong_path_executed > 0,
        "speculation must survive a squashed SpecOff"
    );
    assert_eq!(c.reg(Reg::X5), 0);
}

// ---------------------------------------------------------------------
// Predictors in the full pipeline
// ---------------------------------------------------------------------

#[test]
fn loop_branch_trains_after_first_iterations() {
    // A 100-iteration loop: the backward branch mispredicts at most a
    // handful of times once the counter saturates.
    let mut asm = Asm::new();
    let done = asm.new_label();
    asm.li(Reg::X2, 100);
    let top = asm.here_label();
    asm.beq(Reg::X2, Reg::X0, done);
    asm.subi(Reg::X2, Reg::X2, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    let c = run_ooo(&asm);
    assert!(
        c.stats.branch_mispredicts <= 8,
        "a counted loop must train quickly ({} mispredicts)",
        c.stats.branch_mispredicts
    );
}

#[test]
fn repeated_indirect_target_trains_the_btb() {
    // Calling the same function pointer in a loop: after the first
    // resolution, the BTB predicts it.
    let mut asm = Asm::new();
    let f = asm.new_label();
    let main = asm.new_label();
    asm.jmp(main);
    asm.bind(f);
    asm.addi(Reg::X5, Reg::X5, 1);
    asm.ret();
    asm.bind(main);
    asm.li(Reg::X19, 0xE0_0000);
    asm.li_label(Reg::X6, f);
    let done = asm.new_label();
    asm.li(Reg::X2, 50);
    let top = asm.here_label();
    asm.beq(Reg::X2, Reg::X0, done);
    asm.call_ind(Reg::X6);
    asm.subi(Reg::X2, Reg::X2, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    let c = run_ooo(&asm);
    assert_eq!(c.reg(Reg::X5), 50);
    assert!(
        c.stats.branch_mispredicts <= 6,
        "indirect target must train ({} mispredicts)",
        c.stats.branch_mispredicts
    );
}

// ---------------------------------------------------------------------
// Policy mechanics observable from outside
// ---------------------------------------------------------------------

#[test]
fn strict_defers_more_than_permissive() {
    let mut asm = Asm::new();
    asm.data_u64s(0xB000, &[1]);
    asm.li(Reg::X8, 0xC000);
    asm.ld8(Reg::X9, Reg::X8, 0); // warm a fast line
    asm.li(Reg::X20, 16);
    let done = asm.new_label();
    let top = asm.here_label();
    asm.beq(Reg::X20, Reg::X0, done);
    asm.li(Reg::X2, 0xB000);
    asm.clflush(Reg::X2, 0);
    asm.ld8(Reg::X3, Reg::X2, 0); // slow feeder
    let skip = asm.new_label();
    asm.bne(Reg::X3, Reg::X0, skip); // taken, slow to resolve
    asm.nop();
    asm.bind(skip);
    asm.ld8(Reg::X4, Reg::X8, 0); // fast load in the shadow
    asm.addi(Reg::X5, Reg::X4, 1); // arith in the shadow
    asm.addi(Reg::X6, Reg::X5, 1);
    asm.subi(Reg::X20, Reg::X20, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();

    let p = run_with(&asm, SimConfig::for_variant(Variant::Permissive));
    let s = run_with(&asm, SimConfig::for_variant(Variant::Strict));
    assert!(
        s.stats.deferred_broadcasts > p.stats.deferred_broadcasts,
        "strict defers arithmetic too ({} vs {})",
        s.stats.deferred_broadcasts,
        p.stats.deferred_broadcasts
    );
    assert!(s.cycle() >= p.cycle());
}

#[test]
fn delay_on_miss_stalls_speculative_misses_only() {
    // A speculative L1-missing load under DoM waits for the branch; a
    // warm load does not.
    let mut asm = Asm::new();
    asm.data_u64s(0xB000, &[1]);
    asm.li(Reg::X8, 0xC000);
    asm.ld8(Reg::X9, Reg::X8, 0); // warm
    asm.fence();
    asm.li(Reg::X2, 0xB000);
    asm.clflush(Reg::X2, 0);
    asm.ld8(Reg::X3, Reg::X2, 0); // slow feeder
    let skip = asm.new_label();
    asm.bne(Reg::X3, Reg::X0, skip); // taken (eventually)
    asm.nop();
    asm.bind(skip);
    asm.ld8(Reg::X4, Reg::X8, 0); // speculative but warm: proceeds
    asm.ld8(Reg::X5, Reg::X0, 0x5_0000); // speculative cold: delayed under DoM
    asm.halt();
    let base = run_with(&asm, SimConfig::for_variant(Variant::Ooo));
    let dom = run_with(&asm, SimConfig::for_variant(Variant::DelayOnMiss));
    assert_eq!(base.reg(Reg::X4), dom.reg(Reg::X4));
    assert_eq!(base.reg(Reg::X5), dom.reg(Reg::X5));
    assert!(dom.cycle() >= base.cycle());
}

#[test]
fn invisispec_probe_loads_do_not_fill_before_exposure() {
    // Under IS-Future, a load in a branch shadow probes; squashed loads
    // never expose -> the line stays cold.
    let mut asm = Asm::new();
    asm.data_u64s(0xA000, &[1]);
    let skip = asm.new_label();
    asm.li(Reg::X2, 0xA000);
    asm.clflush(Reg::X2, 0);
    asm.ld8(Reg::X3, Reg::X2, 0); // slow, value 1
    asm.bne(Reg::X3, Reg::X0, skip); // taken; predicted NT -> wrong path:
    asm.ld8(Reg::X4, Reg::X0, 0x6_0000); // wrong-path probe
    asm.bind(skip);
    for _ in 0..64 {
        asm.nop();
    }
    asm.halt();
    let mut base = run_with(&asm, SimConfig::for_variant(Variant::Ooo));
    let mut is = run_with(&asm, SimConfig::for_variant(Variant::InvisiSpecFuture));
    let (bc, ic) = (base.cycle(), is.cycle());
    assert_eq!(
        base.hier.probe_data(0x6_0000, bc).level,
        nda_mem::Level::L1,
        "baseline leaves the wrong-path fill"
    );
    assert_eq!(
        is.hier.probe_data(0x6_0000, ic).level,
        nda_mem::Level::Mem,
        "InvisiSpec must not leave a wrong-path fill"
    );
}

#[test]
fn fpu_power_model_charges_wakeup_once() {
    let mut asm = Asm::new();
    asm.rdcycle(Reg::X10);
    asm.li(Reg::X2, 7);
    asm.mul(Reg::X3, Reg::X2, Reg::X2); // cold: pays wake penalty
    asm.rdcycle(Reg::X11);
    asm.mul(Reg::X4, Reg::X2, Reg::X2); // warm
    asm.rdcycle(Reg::X12);
    asm.halt();
    let mut cfg = SimConfig::ooo();
    cfg.core.fpu_power_model = true;
    let c = run_with(&asm, cfg);
    let cold = c.reg(Reg::X11) - c.reg(Reg::X10);
    let warm = c.reg(Reg::X12) - c.reg(Reg::X11);
    assert!(
        cold >= warm + cfg.core.fpu_wake_penalty / 2,
        "first multiply must pay the wake penalty (cold {cold}, warm {warm})"
    );
}

#[test]
fn commit_width_bounds_retirement() {
    // Loop so the i-cache is warm; with commit width 1 the steady state
    // cannot beat one instruction per cycle.
    let mut asm = Asm::new();
    let done = asm.new_label();
    asm.li(Reg::X2, 100);
    let top = asm.here_label();
    asm.beq(Reg::X2, Reg::X0, done);
    asm.addi(Reg::X5, Reg::X5, 1);
    asm.addi(Reg::X6, Reg::X6, 1);
    asm.addi(Reg::X7, Reg::X7, 1);
    asm.subi(Reg::X2, Reg::X2, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    let mut narrow = SimConfig::ooo();
    narrow.core.commit_width = 1;
    let slow = run_with(&asm, narrow);
    let fast = run_ooo(&asm);
    assert!(slow.cycle() > fast.cycle());
    let insts = slow.stats.committed_insts;
    assert!(slow.cycle() >= insts, "1-wide commit cannot beat 1 IPC");
}

// ---------------------------------------------------------------------
// SMARTS sampling (paper §6.1 methodology)
// ---------------------------------------------------------------------

#[test]
fn smarts_windows_measure_steady_state() {
    use nda_core::run::run_smarts;
    // A long uniform loop: every measurement window should see nearly the
    // same CPI, and it should be close to the whole-run CPI.
    let mut asm = Asm::new();
    let done = asm.new_label();
    asm.li(Reg::X2, 4000);
    let top = asm.here_label();
    asm.beq(Reg::X2, Reg::X0, done);
    asm.addi(Reg::X3, Reg::X3, 1);
    asm.addi(Reg::X4, Reg::X4, 2);
    asm.subi(Reg::X2, Reg::X2, 1);
    asm.jmp(top);
    asm.bind(done);
    asm.halt();
    let p = asm.assemble().unwrap();
    let windows = run_smarts(SimConfig::ooo(), &p, 1_000, 1_000, 6).unwrap();
    assert!(
        windows.len() >= 4,
        "enough instructions for several windows"
    );
    let mean = windows.iter().sum::<f64>() / windows.len() as f64;
    for w in &windows {
        assert!(
            (w - mean).abs() / mean < 0.10,
            "steady-state windows must agree (window {w:.3}, mean {mean:.3})"
        );
    }
}

#[test]
fn smarts_handles_programs_shorter_than_one_window() {
    use nda_core::run::run_smarts;
    let mut asm = Asm::new();
    asm.li(Reg::X2, 1);
    asm.halt();
    let p = asm.assemble().unwrap();
    let windows = run_smarts(SimConfig::ooo(), &p, 1_000, 1_000, 4).unwrap();
    assert!(windows.is_empty(), "no full window fits");
}
