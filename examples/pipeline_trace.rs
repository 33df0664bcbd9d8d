//! Visualize NDA at the micro-architectural level: a gem5-"pipeview"-style
//! trace of the same Spectre-v1 window under the insecure baseline and
//! under strict propagation. The gap between `C` (complete) and `B`
//! (broadcast) is NDA's deferred wake-up; `x` marks the squash.
//!
//! ```sh
//! cargo run --release --example pipeline_trace
//! ```

use nda::core::config::SimConfig;
use nda::core::{render_pipeline, OooCore, Variant};
use nda::{Asm, Reg};

fn listing1_like() -> nda::Program {
    let mut asm = Asm::new();
    let skip = asm.new_label();
    asm.data_u64s(0x51_0000, &[16]);
    asm.data(0x52_0000, &[7u8; 16]);
    asm.li(Reg::X2, 4);
    asm.li(Reg::X3, 0x51_0000);
    asm.clflush(Reg::X3, 0);
    asm.ld8(Reg::X4, Reg::X3, 0); // array_size: flushed -> the window
    asm.bgeu(Reg::X2, Reg::X4, skip); // bounds check
    asm.li(Reg::X5, 0x52_0000);
    asm.add(Reg::X5, Reg::X5, Reg::X2);
    asm.ld1(Reg::X6, Reg::X5, 0); // access
    asm.shli(Reg::X6, Reg::X6, 9); // preprocess
    asm.li(Reg::X7, 0x200_0000);
    asm.add(Reg::X7, Reg::X7, Reg::X6);
    asm.ld1(Reg::X8, Reg::X7, 0); // transmit
    asm.bind(skip);
    asm.halt();
    asm.assemble().expect("assembles")
}

fn show(name: &str, variant: Variant) {
    let program = listing1_like();
    let mut core = OooCore::new(SimConfig::for_variant(variant), &program);
    core.enable_trace();
    for _ in 0..3_000 {
        core.step_cycle();
        if core.halted() {
            break;
        }
    }
    println!("=== {name} (variant: {variant}) ===");
    // Show the window: from the first dispatch of the bounds load onward.
    let first = core
        .trace_events()
        .iter()
        .find(|e| e.pc == 3)
        .map(|e| e.cycle)
        .unwrap_or(0);
    print!(
        "{}",
        render_pipeline(core.trace_events(), Some((first, first + 200)), 24)
    );
    println!();
}

fn main() {
    println!("D dispatch, I issue, C complete, B broadcast, R retire, x squash\n");
    show("insecure OoO", Variant::Ooo);
    show("NDA strict propagation", Variant::Strict);
    println!("Read it like the paper's Fig 2/Fig 6: under strict, wrong-path");
    println!("entries complete (C) but never broadcast (B) — their dependents'");
    println!("I markers never appear, so the transmit load never executes.");
}
