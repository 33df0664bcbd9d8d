//! Chrome trace-event JSON (Perfetto / `chrome://tracing`) exporter.
//!
//! One process (`nda-sim`, pid 0) with named threads as tracks:
//!
//! | tid | track       | content                                         |
//! |----:|-------------|-------------------------------------------------|
//! |  1  | `uops`      | one `X` slice per micro-op, dispatch → drain     |
//! |  2  | `nda-defer` | `X` slice per *deferred* broadcast (gap length)  |
//! |  3  | `cache`     | `i` instant per L1 data miss                     |
//! |  4  | `predictor` | `i` instant per branch mispredict                |
//! |  5  | `squash`    | `i` instant per squashed micro-op                |
//!
//! Timestamps are simulated cycles reported as microseconds (1 cycle =
//! 1 µs), so Perfetto's time axis reads directly in cycles. The acceptance
//! check of the tracing work: under `strict-*` policies the `nda-defer`
//! track shows the complete→broadcast gaps that are absent under the
//! baseline OoO core.

use nda_core::trace::{EventSink, TraceEvent, TraceStage};
use nda_stats::escape_json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Lifetime bookkeeping for a micro-op whose slice is not yet emitted.
#[derive(Debug, Clone)]
struct OpenUop {
    pc: usize,
    disasm: String,
    dispatch: u64,
    complete: Option<u64>,
}

/// An [`EventSink`] producing Chrome trace-event JSON.
#[derive(Debug, Default)]
pub struct PerfettoSink {
    /// Serialized trace-event objects, in emission order.
    entries: Vec<String>,
    /// In-flight micro-ops keyed by sequence number (re-used after
    /// squashes, so an entry is closed before its seq reappears).
    open: BTreeMap<u64, OpenUop>,
    /// Largest cycle seen (closes still-open uops at `finish`).
    last_cycle: u64,
    /// Deferred-broadcast slices emitted (tests and reporting).
    pub defer_slices: u64,
    /// Longest complete→broadcast gap seen, in cycles. Port starvation on
    /// an unprotected core produces short gaps; a policy-withheld
    /// broadcast waits for branch resolution and shows up as a gap an
    /// order of magnitude longer (the acceptance signal of the tracing
    /// work).
    pub max_defer_gap: u64,
}

impl PerfettoSink {
    /// An empty sink.
    pub fn new() -> PerfettoSink {
        PerfettoSink::default()
    }

    fn push_slice(&mut self, tid: u32, name: &str, cat: &str, ts: u64, dur: u64, args: &str) {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            r#"{{"name":{},"cat":"{cat}","ph":"X","ts":{ts},"dur":{dur},"pid":0,"tid":{tid},"args":{{{args}}}}}"#,
            escape_json(name),
        );
        self.entries.push(s);
    }

    fn push_instant(&mut self, tid: u32, name: &str, cat: &str, ts: u64, args: &str) {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            r#"{{"name":{},"cat":"{cat}","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{{args}}}}}"#,
            escape_json(name),
        );
        self.entries.push(s);
    }

    fn close_uop(&mut self, seq: u64, end: u64, fate: &str) {
        let Some(u) = self.open.remove(&seq) else {
            return;
        };
        let dur = end.saturating_sub(u.dispatch).max(1);
        let args = format!(r#""seq":{seq},"pc":{},"fate":"{fate}""#, u.pc);
        self.push_slice(1, &u.disasm, "uop", u.dispatch, dur, &args);
    }

    /// Serialize the collected trace as one JSON document.
    pub fn into_json(mut self) -> String {
        let open: Vec<u64> = self.open.keys().copied().collect();
        let end = self.last_cycle;
        for seq in open {
            self.close_uop(seq, end, "in-flight");
        }
        let mut out = String::with_capacity(self.entries.len() * 100 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let tracks = [
            (1u32, "uops"),
            (2, "nda-defer"),
            (3, "cache"),
            (4, "predictor"),
            (5, "squash"),
        ];
        let mut first = true;
        for (tid, name) in tracks {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":{}}}}}"#,
                escape_json(name),
            );
        }
        for e in &self.entries {
            out.push_str(",\n");
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl EventSink for PerfettoSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.last_cycle = self.last_cycle.max(ev.cycle);
        match ev.stage {
            TraceStage::Dispatch => {
                // A still-open entry under this seq was squash-recycled.
                self.close_uop(ev.seq, ev.cycle, "recycled");
                self.open.insert(
                    ev.seq,
                    OpenUop {
                        pc: ev.pc,
                        disasm: ev.disasm.clone(),
                        dispatch: ev.cycle,
                        complete: None,
                    },
                );
            }
            TraceStage::Issue => {}
            TraceStage::Complete => {
                if let Some(u) = self.open.get_mut(&ev.seq) {
                    u.complete = Some(ev.cycle);
                }
            }
            TraceStage::Broadcast => {
                let gap = self
                    .open
                    .get(&ev.seq)
                    .and_then(|u| u.complete)
                    .map(|c| ev.cycle.saturating_sub(c));
                if let Some(gap) = gap {
                    if gap > 0 {
                        let complete = ev.cycle - gap;
                        let args = format!(r#""seq":{},"gap":{gap}"#, ev.seq);
                        let name = format!("defer {}", ev.disasm);
                        self.push_slice(2, &name, "nda-defer", complete, gap, &args);
                        self.defer_slices += 1;
                        self.max_defer_gap = self.max_defer_gap.max(gap);
                    }
                }
            }
            TraceStage::Commit => self.close_uop(ev.seq, ev.cycle + 1, "commit"),
            TraceStage::Squash => {
                let args = format!(r#""seq":{},"pc":{}"#, ev.seq, ev.pc);
                self.push_instant(5, &ev.disasm, "squash", ev.cycle, &args);
                self.close_uop(ev.seq, ev.cycle + 1, "squash");
            }
            TraceStage::CacheMiss => {
                let args = format!(r#""seq":{},"pc":{}"#, ev.seq, ev.pc);
                self.push_instant(3, &ev.disasm, "cache-miss", ev.cycle, &args);
            }
            TraceStage::Mispredict => {
                let args = format!(r#""seq":{},"pc":{}"#, ev.seq, ev.pc);
                self.push_instant(4, &ev.disasm, "mispredict", ev.cycle, &args);
            }
            TraceStage::TaintGated => {
                let args = format!(r#""seq":{},"pc":{}"#, ev.seq, ev.pc);
                self.push_instant(2, &ev.disasm, "taint-gated", ev.cycle, &args);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, seq: u64, stage: TraceStage) -> TraceEvent {
        TraceEvent {
            cycle,
            seq,
            pc: 7,
            disasm: "ld x3, 0(x2)".to_string(),
            stage,
            mem: None,
        }
    }

    #[test]
    fn deferred_broadcast_becomes_gap_slice() {
        let mut sink = PerfettoSink::new();
        sink.event(&ev(10, 0, TraceStage::Dispatch));
        sink.event(&ev(11, 0, TraceStage::Issue));
        sink.event(&ev(12, 0, TraceStage::Complete));
        sink.event(&ev(20, 0, TraceStage::Broadcast));
        sink.event(&ev(21, 0, TraceStage::Commit));
        sink.finish();
        assert_eq!(sink.defer_slices, 1);
        let json = sink.into_json();
        nda_stats::json::Json::parse(&json).unwrap();
        assert!(json.contains(r#""cat":"nda-defer""#), "{json}");
        assert!(json.contains(r#""dur":8"#), "{json}");
        assert!(json.contains(r#""fate":"commit""#), "{json}");
    }

    #[test]
    fn same_cycle_broadcast_has_no_gap_slice() {
        let mut sink = PerfettoSink::new();
        sink.event(&ev(10, 0, TraceStage::Dispatch));
        sink.event(&ev(12, 0, TraceStage::Complete));
        sink.event(&ev(12, 0, TraceStage::Broadcast));
        sink.event(&ev(13, 0, TraceStage::Commit));
        let json = sink.into_json();
        assert!(!json.contains("nda-defer\",\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn squash_and_reuse_closes_both_instances() {
        let mut sink = PerfettoSink::new();
        sink.event(&ev(1, 5, TraceStage::Dispatch));
        sink.event(&ev(3, 5, TraceStage::Squash));
        sink.event(&ev(6, 5, TraceStage::Dispatch));
        sink.event(&ev(9, 5, TraceStage::Commit));
        let json = sink.into_json();
        nda_stats::json::Json::parse(&json).unwrap();
        assert!(json.contains(r#""fate":"squash""#), "{json}");
        assert!(json.contains(r#""fate":"commit""#), "{json}");
    }

    #[test]
    fn unfinished_uops_flush_as_in_flight() {
        let mut sink = PerfettoSink::new();
        sink.event(&ev(1, 0, TraceStage::Dispatch));
        sink.event(&ev(50, 1, TraceStage::Dispatch));
        let json = sink.into_json();
        nda_stats::json::Json::parse(&json).unwrap();
        assert_eq!(json.matches(r#""fate":"in-flight""#).count(), 2);
    }

    #[test]
    fn disasm_is_escaped() {
        let mut sink = PerfettoSink::new();
        let mut e = ev(1, 0, TraceStage::Dispatch);
        e.disasm = "weird \"quoted\"\ninst".to_string();
        sink.event(&e);
        let json = sink.into_json();
        nda_stats::json::Json::parse(&json).unwrap();
    }
}
