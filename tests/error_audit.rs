//! Error-type audit: every public error in the workspace implements
//! `std::error::Error`, renders a non-empty single-purpose `Display` for
//! every variant, and chains its underlying cause through `source()`.
//! Tools that wrap the library (the CLI, the sweep harness, downstream
//! scripts) rely on this contract to print and classify failures without
//! matching on concrete types.

use nda::bench::{JobError, JournalError};
use nda::{SimConfig, SimError};
use nda_core::{InvariantKind, InvariantViolation, OooCore, SmartsInterrupted};
use nda_isa::interp::Fault;
use nda_isa::{Asm, AsmError, DecodeError, InterpError, Reg};
use std::error::Error;

/// Display must be non-empty and single-line-leading (the CLI prints the
/// first line in tables); Debug must be non-empty.
fn audit(e: &dyn Error) -> String {
    let display = e.to_string();
    assert!(!display.trim().is_empty(), "empty Display: {e:?}");
    assert!(
        !display.lines().next().unwrap().trim().is_empty(),
        "empty first Display line: {display:?}"
    );
    assert!(!format!("{e:?}").is_empty());
    display
}

/// A genuine watchdog stall, for variants that carry a pipeline snapshot.
fn stalled_error() -> SimError {
    let mut asm = Asm::new();
    asm.li(Reg::X2, 0x5_0000);
    asm.ld8(Reg::X3, Reg::X2, 0);
    asm.halt();
    let p = asm.assemble().unwrap();
    let mut cfg = SimConfig::ooo();
    cfg.watchdog_window = Some(500);
    let mut core = OooCore::new(cfg, &p);
    core.hier.set_extra_latency(1_000_000);
    core.run(1_000_000).expect_err("watchdog must fire")
}

#[test]
fn isa_errors_format_every_variant() {
    let mut asm = Asm::new();
    let label = asm.new_label();
    assert!(audit(&AsmError::UnboundLabel(label)).contains("never bound"));
    assert!(audit(&AsmError::Rebound(label)).contains("twice"));
    assert!(audit(&AsmError::EmptyProgram).contains("no instructions"));

    assert!(audit(&DecodeError::Truncated).contains("truncated"));
    assert!(audit(&DecodeError::BadOpcode(0xff)).contains("0xff"));
    assert!(audit(&DecodeError::BadRegister(99)).contains("99"));
    assert!(audit(&DecodeError::BadSubcode(77)).contains("77"));
    assert!(audit(&DecodeError::BadMagic).contains("magic"));
    assert!(audit(&DecodeError::AddressOverflow).contains("overflows"));
    let narrow = DecodeError::OutOfRange {
        field: "msr index",
        value: 65_538,
    };
    assert!(audit(&narrow).contains("msr index 65538 out of range"));
    let padded = DecodeError::NonCanonicalVarint { at: 7 };
    assert!(audit(&padded).contains("non-canonical varint at byte 7"));
    assert!(audit(&DecodeError::BadHandlerFlag(2)).contains("flag 2"));
    let count = DecodeError::CountPastInput {
        field: "data count",
        count: 9,
        left: 4,
    };
    assert!(audit(&count).contains("data count 9 exceeds the 4 bytes left"));
    let trailing = DecodeError::TrailingBytes { at: 12, len: 1 };
    assert!(audit(&trailing).contains("trailing bytes after the program: 1 from byte 12"));

    assert!(audit(&InterpError::PcOutOfRange { pc: 123 }).contains("123"));
    assert!(audit(&InterpError::UnhandledFault(Fault::PrivilegedAccess {
        addr: 0xdead,
    }))
    .contains("0xdead"));
    assert!(audit(&InterpError::StepLimit).contains("step limit"));
    // Leaf errors: no deeper cause to chain.
    assert!(InterpError::StepLimit.source().is_none());
}

#[test]
fn sim_errors_format_every_variant_and_chain_their_cause() {
    let stalled = stalled_error();
    assert!(audit(&stalled).contains("no commit for 500 cycles"));
    let SimError::Stalled { snapshot, .. } = &stalled else {
        panic!("expected Stalled, got: {stalled}");
    };

    assert!(audit(&SimError::CycleLimit {
        cycles: 42,
        snapshot: None,
    })
    .contains("42 cycles"));
    assert!(audit(&SimError::UnhandledFault(Fault::PrivilegedMsr { idx: 7 })).contains("msr 7"));
    assert!(audit(&SimError::PcOutOfRange { pc: 9 }).contains("pc 9"));

    let violation = InvariantViolation {
        cycle: 10,
        kind: InvariantKind::PregConservation,
        detail: "p3 leaked".into(),
        snapshot: (**snapshot).clone(),
    };
    audit(&violation);
    let wrapped = SimError::InvariantViolation(Box::new(violation));
    assert!(audit(&wrapped).contains("invariant violation"));
    // The inner violation is reachable through source(), typed.
    let src = wrapped.source().expect("violation chains its cause");
    assert!(src.downcast_ref::<InvariantViolation>().is_some());
    assert!(stalled.source().is_none());

    let interrupted = SmartsInterrupted {
        completed_windows: vec![1.5, 2.0],
        error: SimError::PcOutOfRange { pc: 3 },
    };
    assert!(audit(&interrupted).contains("2 complete window(s)"));
    let src = interrupted
        .source()
        .expect("interrupted run chains the SimError");
    assert!(src.downcast_ref::<SimError>().is_some());
}

#[test]
fn harness_errors_format_every_variant_and_chain_their_cause() {
    assert!(audit(&JobError::Panicked {
        message: "boom".into(),
    })
    .contains("boom"));

    let sim = JobError::Sim(SimError::PcOutOfRange { pc: 4 });
    assert!(audit(&sim).contains("pc 4"));
    assert!(sim
        .source()
        .expect("chains SimError")
        .downcast_ref::<SimError>()
        .is_some());

    let deadline = JobError::DeadlineExceeded {
        limit: 1_000,
        cause: SimError::CycleLimit {
            cycles: 1_001,
            snapshot: None,
        },
    };
    assert!(audit(&deadline).contains("1000"));
    let cause = deadline.source().expect("deadline names what tripped it");
    assert!(audit(cause).contains("cycle budget"));

    let io = JobError::Io {
        context: "write journal".into(),
        message: "disk full".into(),
    };
    assert!(audit(&io).contains("disk full"));
    assert!(io.source().is_none());

    assert!(audit(&JournalError::Io {
        path: "/tmp/x".into(),
        message: "permission denied".into(),
    })
    .contains("permission denied"));
    assert!(audit(&JournalError::ConfigMismatch {
        detail: "samples differ".into(),
    })
    .contains("samples differ"));
}
