//! Gadget reports: the analyzer's output in human-readable and JSON form.
//!
//! The JSON schema is stable for downstream tooling and documented in
//! DESIGN.md §11.4; `tests/json_snapshot.rs` pins it.

use nda_core::{Anatomy, SimConfig, Variant};
use nda_isa::Program;

use crate::absint::SourceKind;
use crate::gadget::TriggerInfo;
use crate::mitigate::PatchPoint;

/// One access→transmit gadget.
#[derive(Debug, Clone)]
pub struct Gadget {
    /// Instruction index of the secret access.
    pub source_pc: usize,
    /// How the source reaches secret data.
    pub source_kind: SourceKind,
    /// Disassembly of the source.
    pub source_disasm: String,
    /// Instruction index of the transmitter.
    pub sink_pc: usize,
    /// Disassembly of the transmitter.
    pub sink_disasm: String,
    /// Channel of the transmitter and, per trigger, what of the chain
    /// runs in its window: all a verdict reads.
    pub anatomy: Anatomy,
    /// Instruction indices on the def-use path from source to sink
    /// (inclusive, sorted).
    pub chain: Vec<usize>,
    /// Triggers under which the chain executes transiently.
    pub triggers: Vec<TriggerInfo>,
    /// Where the mitigation synthesizer would repair this gadget with
    /// every pass enabled (`None` if no pass applies).
    pub patch: Option<PatchPoint>,
}

impl Gadget {
    /// Variants that kill every trigger of this gadget.
    pub fn suppressed_by(&self) -> Vec<Variant> {
        Variant::all()
            .into_iter()
            .filter(|&v| SimConfig::for_variant(v).blocks(&self.anatomy))
            .collect()
    }
}

/// Full analysis result for one program.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of instructions analyzed.
    pub program_len: usize,
    /// Transient-window bound used (instructions, = ROB size by default).
    pub window: usize,
    /// Every gadget found, ordered by (source, sink).
    pub gadgets: Vec<Gadget>,
}

impl Report {
    /// `true` if at least one gadget survives under `variant` — the
    /// static analogue of "the attack leaks on this configuration".
    pub fn leaks_under(&self, variant: Variant) -> bool {
        let cfg = SimConfig::for_variant(variant);
        self.gadgets.iter().any(|g| !cfg.blocks(&g.anatomy))
    }

    /// Render the human-readable report.
    pub fn render_human(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} instruction(s), window {}: {} gadget(s)",
            self.program_len,
            self.window,
            self.gadgets.len()
        );
        for (i, g) in self.gadgets.iter().enumerate() {
            let _ = writeln!(out, "\ngadget #{i}: {} leak", g.anatomy.channel.name());
            let _ = writeln!(
                out,
                "  source  @{:<4} {}  [{}]",
                g.source_pc,
                g.source_disasm,
                g.source_kind.name()
            );
            let _ = writeln!(out, "  transmit@{:<4} {}", g.sink_pc, g.sink_disasm);
            let chain = g
                .chain
                .iter()
                .map(|pc| pc.to_string())
                .collect::<Vec<_>>()
                .join(" -> ");
            let _ = writeln!(out, "  taint path: {chain}");
            for t in &g.triggers {
                let _ = writeln!(
                    out,
                    "  trigger @{:<4} {} (transmit {} uop(s) into the window)",
                    t.pc,
                    t.kind.name(),
                    t.distance
                );
            }
            if let Some(pp) = &g.patch {
                let _ = writeln!(
                    out,
                    "  suggested fix: {} @{} (against {})",
                    pp.pass.name(),
                    pp.pc,
                    pp.trigger.name()
                );
            }
            let names = g
                .suppressed_by()
                .iter()
                .map(|v| v.name())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  suppressed by: {}",
                if names.is_empty() { "none" } else { &names }
            );
        }
        out
    }

    /// Render the JSON report (schema in DESIGN.md §11.4).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"program_len\": {},\n", self.program_len));
        out.push_str(&format!("  \"window\": {},\n", self.window));
        out.push_str("  \"gadgets\": [");
        for (i, g) in self.gadgets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!(
                "      \"source\": {{\"pc\": {}, \"inst\": {}, \"kind\": \"{}\"}},\n",
                g.source_pc,
                json_str(&g.source_disasm),
                g.source_kind.name()
            ));
            out.push_str(&format!(
                "      \"sink\": {{\"pc\": {}, \"inst\": {}, \"channel\": \"{}\"}},\n",
                g.sink_pc,
                json_str(&g.sink_disasm),
                g.anatomy.channel.name()
            ));
            let chain = g
                .chain
                .iter()
                .map(|pc| pc.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("      \"chain\": [{chain}],\n"));
            out.push_str("      \"triggers\": [");
            for (j, t) in g.triggers.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"pc\": {}, \"kind\": \"{}\", \"distance\": {}}}",
                    t.pc,
                    t.kind.name(),
                    t.distance
                ));
            }
            out.push_str("],\n");
            match &g.patch {
                Some(pp) => out.push_str(&format!(
                    "      \"patch\": {{\"pc\": {}, \"trigger\": \"{}\", \"pass\": \"{}\"}},\n",
                    pp.pc,
                    pp.trigger.name(),
                    pp.pass.name()
                )),
                None => out.push_str("      \"patch\": null,\n"),
            }
            let sup = g
                .suppressed_by()
                .iter()
                .map(|v| format!("\"{}\"", v.name()))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("      \"suppressed_by\": [{sup}]\n"));
            out.push_str("    }");
        }
        if !self.gadgets.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (disassembly contains no exotic bytes,
/// but escape defensively).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Disassemble one instruction for reports.
pub fn disasm(p: &Program, pc: usize) -> String {
    match p.fetch(pc) {
        Some(i) => i.to_string(),
        None => format!("<pc {pc} out of range>"),
    }
}
