//! Pins the `--json` report schema for the Spectre v1 (cache) attack.
//!
//! The JSON report is the machine-readable contract of `nda-sim analyze
//! --json` (documented in DESIGN.md §11): external tooling keys on the
//! field names and shapes below, so schema drift must be a deliberate,
//! reviewed change — update this snapshot *and* the DESIGN.md schema
//! together.

use nda_analyze::{analyze, AnalyzeConfig};
use nda_attacks::AttackKind;

const SNAPSHOT: &str = r#"{
  "program_len": 56,
  "window": 192,
  "gadgets": [
    {
      "source": {"pc": 6, "inst": "ld1 x6, 0(x5)", "kind": "wild-load"},
      "sink": {"pc": 10, "inst": "ld1 x8, 0(x7)", "channel": "dcache-load"},
      "chain": [6, 7, 9, 10],
      "triggers": [{"pc": 3, "kind": "cond-branch", "distance": 7}],
      "patch": {"pc": 5, "trigger": "cond-branch", "pass": "mask"},
      "suppressed_by": ["Permissive", "Permissive+BR", "Strict", "Strict+BR", "Restricted Loads", "Full Protection", "In-Order", "InvisiSpec-Spectre", "InvisiSpec-Future", "Delay-On-Miss", "STT-Spectre", "STT-Futuristic", "ShadowBinding-Eager", "ShadowBinding-Lazy"]
    }
  ]
}"#;

#[test]
fn spectre_v1_json_report_matches_snapshot() {
    let kind = AttackKind::SpectreV1Cache;
    let p = kind.program(42);
    let report = analyze(&p, &kind.secret_spec(), &AnalyzeConfig::default());
    assert_eq!(
        report.to_json(),
        format!("{SNAPSHOT}\n"),
        "JSON report schema drifted; update the snapshot and DESIGN.md §11 together"
    );
}
