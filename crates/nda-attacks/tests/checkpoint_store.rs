//! Checkpoints collected from the attack programs survive a checkpoint
//! store round trip exactly. The attacks flush lines with `clflush` and
//! train the BTB through indirect branches, so their warmed state holds
//! lines that were valid and then invalidated, which a sparse snapshot must
//! leave out without a trace.

use nda_attacks::AttackKind;
use nda_core::{collect_checkpoints, CheckpointStore, SampledParams, SimConfig, StoreKey, Variant};
use nda_isa::Interp;

/// Instructions the interpreter retires before the program's first
/// `clflush` executes, if it executes one.
fn retired_before_first_flush(kind: AttackKind) -> Option<u64> {
    let prog = kind.program(0x5a);
    let mut interp = Interp::new(&prog);
    while let Some(info) = interp.step_info().expect("attack runs on the interpreter") {
        if info.flush_addr.is_some() {
            return Some(interp.retired());
        }
    }
    None
}

#[test]
fn attack_checkpoints_round_trip_through_the_store() {
    let dir = std::env::temp_dir().join(format!("nda-attack-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let params = SampledParams::new(64, 0, 0);
    let (mut flushed_before_a_checkpoint, mut warmed_btb) = (0, false);
    for kind in AttackKind::all() {
        let mut cfg = SimConfig::for_variant(Variant::Ooo);
        kind.tweak_config(&mut cfg);
        let prog = kind.program(0x5a);
        let set = collect_checkpoints(&cfg, &prog, params, 50_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        if let Some(flushed) = retired_before_first_flush(kind) {
            if set.checkpoints.iter().any(|c| c.ff_insts > flushed) {
                flushed_before_a_checkpoint += 1;
            }
        }
        warmed_btb |= set.checkpoints.iter().any(|c| !c.btb.entries.is_empty());

        let key = StoreKey::new(&cfg, &prog, params);
        store.save(&key, &set).unwrap();
        let back = store.load(&key, &cfg, &prog);
        assert!(
            back.as_ref() == Some(&set),
            "{}: decoded set differs",
            kind.name()
        );
    }
    assert!(
        flushed_before_a_checkpoint >= 8,
        "only {flushed_before_a_checkpoint} attacks flush a line before a checkpoint"
    );
    assert!(warmed_btb, "no attack left a warmed BTB entry");
    assert!(
        !dir.join("quarantine").exists(),
        "a sound entry was quarantined"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
