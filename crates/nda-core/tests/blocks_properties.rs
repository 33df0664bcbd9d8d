//! Properties of the one verdict rule, `Defense::blocks`, over every
//! anatomy the vocabulary can form (each channel with every set of
//! (trigger kind, what runs in the window) pairs) and every `Defense`
//! value. Each property is a claim the defenses' design makes: a stronger
//! restriction or a wider border never unblocks an attack, and untaint
//! timing affects cost, never coverage.

use nda_core::config::CoreModel;
use nda_core::{Anatomy, Border, Channel, Defense, InWindow, Propagation, SimConfig, TriggerKind};

const CHANNELS: [Channel; 4] = [
    Channel::DCacheLoad,
    Channel::DCacheStore,
    Channel::Btb,
    Channel::CtrlBranch,
];
const KINDS: [TriggerKind; 5] = [
    TriggerKind::CondBranch,
    TriggerKind::IndirectCall,
    TriggerKind::ReturnMispredict,
    TriggerKind::SsbStore,
    TriggerKind::Fault,
];
const REACHES: [InWindow; 3] = [InWindow::Transmitter, InWindow::Compute, InWindow::Load];
const BORDERS: [Border; 4] = [
    Border::UnresolvedBranch,
    Border::Branch,
    Border::Store,
    Border::Head,
];

/// Every anatomy: each channel with each set of the 15 trigger pairs,
/// the empty set included.
fn every_anatomy() -> impl Iterator<Item = Anatomy> {
    let pairs: Vec<(TriggerKind, InWindow)> = KINDS
        .iter()
        .flat_map(|&k| REACHES.iter().map(move |&r| (k, r)))
        .collect();
    CHANNELS.into_iter().flat_map(move |channel| {
        let pairs = pairs.clone();
        (0u32..1 << pairs.len()).map(move |set| Anatomy {
            channel,
            triggers: (0..pairs.len())
                .filter(|i| set >> i & 1 == 1)
                .map(|i| pairs[i])
                .collect(),
        })
    })
}

/// `stronger` blocks at least everything `weaker` blocks.
fn check_covers(a: &Anatomy, stronger: Defense, weaker: Defense) {
    assert!(
        stronger.blocks(a) || !weaker.blocks(a),
        "{weaker:?} blocks {a:?} but {stronger:?} does not"
    );
}

#[test]
fn the_vocabulary_forms_every_anatomy() {
    assert_eq!(every_anatomy().count(), 4 << 15);
}

#[test]
fn nothing_blocks_an_anatomy_without_triggers_and_none_blocks_nothing() {
    for a in every_anatomy() {
        if a.triggers.is_empty() {
            assert!(Defense::all().iter().all(|d| !d.blocks(&a)), "{a:?}");
        }
        assert!(!Defense::None.blocks(&a), "{a:?}");
        let in_order = SimConfig {
            model: CoreModel::InOrder,
            ..SimConfig::ooo()
        };
        assert!(in_order.blocks(&a), "in-order must block {a:?}");
    }
}

#[test]
fn restrictions_and_stricter_propagation_never_unblock() {
    use Propagation::{Off, Permissive, Strict};
    let nda = |propagation, bypass_restriction, load_restriction| Defense::DelayBroadcast {
        propagation,
        bypass_restriction,
        load_restriction,
    };
    for a in every_anatomy() {
        for p in [Off, Permissive, Strict] {
            for br in [false, true] {
                for lr in [false, true] {
                    check_covers(&a, nda(p, true, lr), nda(p, br, lr));
                    check_covers(&a, nda(p, br, true), nda(p, br, lr));
                }
            }
        }
        for br in [false, true] {
            for lr in [false, true] {
                check_covers(&a, nda(Permissive, br, lr), nda(Off, br, lr));
                check_covers(&a, nda(Strict, br, lr), nda(Permissive, br, lr));
            }
        }
    }
}

#[test]
fn head_covers_every_border_and_branch_equals_unresolved_branch() {
    let families: [fn(Border) -> Defense; 3] = [
        Defense::InvisibleLoad,
        |border| Defense::GateTransmit {
            border,
            propagated_untaint: false,
        },
        |border| Defense::GateTransmit {
            border,
            propagated_untaint: true,
        },
    ];
    for a in every_anatomy() {
        for family in families {
            for b in BORDERS {
                check_covers(&a, family(Border::Head), family(b));
            }
            assert_eq!(
                family(Border::Branch).blocks(&a),
                family(Border::UnresolvedBranch).blocks(&a),
                "{:?} vs {:?} on {a:?}",
                family(Border::Branch),
                family(Border::UnresolvedBranch)
            );
        }
    }
}

#[test]
fn untaint_timing_never_changes_a_verdict() {
    for a in every_anatomy() {
        for border in BORDERS {
            let gate = |propagated_untaint| Defense::GateTransmit {
                border,
                propagated_untaint,
            };
            assert_eq!(
                gate(true).blocks(&a),
                gate(false).blocks(&a),
                "{border:?} on {a:?}"
            );
        }
    }
}
