//! Fig 6: an ROB snapshot during a Listing-1-like sequence under the four
//! NDA policy families, showing which completed entries may broadcast.
//!
//! The program mirrors the paper's example: a call, a (slow) bounds load,
//! the bounds-check branch, then the wrong-path access/pre-process/
//! transmit chain. We step each policy to the same cycle — while the
//! branch is still unresolved — and render the per-entry state.

use nda_core::{OooCore, RobCellState, SimConfig, Variant};
use nda_isa::{Asm, Program, Reg};

fn listing1_like() -> Program {
    let mut asm = Asm::new();
    let victim = asm.new_label();
    let main = asm.new_label();
    let vout = asm.new_label();
    asm.jmp(main);
    asm.bind(victim);
    asm.li(Reg::X3, 0x51_0000);
    asm.ld8(Reg::X4, Reg::X3, 0); // load array_size (flushed: slow)
    asm.bgeu(Reg::X2, Reg::X4, vout); // if (x < array_size)
    asm.li(Reg::X5, 0x50_0000);
    asm.add(Reg::X5, Reg::X5, Reg::X2);
    asm.ld1(Reg::X6, Reg::X5, 0); // access phase: arr[x]
    asm.andi(Reg::X6, Reg::X6, 0xff); // preprocess
    asm.shli(Reg::X6, Reg::X6, 9); // s *= 512
    asm.li(Reg::X7, 0x200_0000);
    asm.add(Reg::X7, Reg::X7, Reg::X6);
    asm.ld1(Reg::X8, Reg::X7, 0); // transmit phase
    asm.bind(vout);
    asm.ret();
    asm.bind(main);
    asm.li(Reg::X2, 4);
    asm.li(Reg::X3, 0x51_0000);
    asm.clflush(Reg::X3, 0); // widen the window
    asm.call(victim);
    asm.halt();
    let mut p = asm.assemble().unwrap();
    p.data.push(nda_isa::DataInit {
        addr: 0x51_0000,
        bytes: 16u64.to_le_bytes().to_vec(),
    });
    p.data.push(nda_isa::DataInit {
        addr: 0x50_0000,
        bytes: vec![7u8; 16],
    });
    p
}

fn cell(state: RobCellState) -> &'static str {
    match state {
        RobCellState::NotReady => "  <not ready>        ",
        RobCellState::Executing => "  ready & executing  ",
        RobCellState::CompletedUnsafe => "  COMPLETED, unsafe  ",
        RobCellState::CompletedBroadcast => "  completed+broadcast",
    }
}

fn main() {
    println!("Fig 6: ROB snapshot during Listing-1 execution, per NDA policy");
    println!("(snapshot taken while the bounds-check branch is unresolved)\n");
    let program = listing1_like();
    let policies = [
        ("(a) strict propagation", Variant::Strict),
        ("(b) permissive propagation", Variant::Permissive),
        ("(c) load restriction", Variant::RestrictedLoads),
        ("(d) strict + load restriction", Variant::FullProtection),
    ];
    let mut transmit_issued_under = Vec::new();
    for (name, variant) in policies {
        let mut core = OooCore::new(SimConfig::for_variant(variant), &program);
        // Step until the wrong-path window is in full swing: the bounds
        // branch is in the ROB and unresolved (it waits on the flushed
        // array_size load) and the transmit chain has been dispatched.
        for _ in 0..5_000 {
            core.step_cycle();
            let view = core.rob_view();
            if view.iter().any(|v| v.unresolved_branch) && view.len() >= 9 {
                break;
            }
        }
        // Let the wrong path make progress inside the ~144-cycle window so
        // the per-policy differences are visible (who completed, who may
        // broadcast, who is stuck waiting for an unsafe producer).
        for _ in 0..40 {
            core.step_cycle();
        }
        println!("{name}  [variant: {variant}]  (cycle {})", core.cycle());
        let mut transmit_issued = false;
        for v in core.rob_view() {
            let marker = if v.unresolved_branch {
                "  <-- unresolved branch"
            } else {
                ""
            };
            println!(
                "  @{:>3}  {:28} {}{}",
                v.pc,
                v.disasm,
                cell(v.state),
                marker
            );
            if v.disasm.starts_with("ld1") && v.pc == 10 {
                transmit_issued = v.state != RobCellState::NotReady;
            }
        }
        println!();
        transmit_issued_under.push((name, transmit_issued));
    }
    // The paper's point: under every NDA policy the transmit load (the
    // last ld1) must still be waiting, because its operands never became
    // visible.
    for (name, issued) in transmit_issued_under {
        println!("transmit load issued under {name}: {issued}");
        assert!(
            !issued,
            "{name}: transmit must be blocked while the branch is unresolved"
        );
    }
}
