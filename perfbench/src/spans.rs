//! In-memory host-time spans around calls into the simulator's layers,
//! written out as Chrome-trace JSON (opens in Perfetto) when a traced run
//! ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The cell or request the span served.
    pub group: u64,
    pub tid: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder runs the timed closures and
/// records nothing, so traced and untraced legs share one code path.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: Cell<usize> = const { Cell::new(0) };
}

fn tid() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// to parent its children. Returns what `f` returns.
    pub fn span<T>(&self, name: &str, parent: u64, group: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            group,
            tid: tid(),
        });
        out
    }

    /// Record an already-measured interval (`start_ns`, `end_ns` from
    /// [`Spans::now_ns`]).
    pub fn record(&self, name: &str, parent: u64, group: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
                group,
                tid: tid(),
            });
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, s: Span) {
        self.done.lock().expect("span list poisoned").push(s);
    }

    /// Every recorded span, in start order.
    pub fn finish(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.done.lock().expect("span list poisoned"));
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Summed duration in seconds of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Durations in seconds of the spans named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name.clone()).or_default() += own as f64 / 1e9;
    }
    out
}

/// Chrome-trace JSON ("X" complete events, microsecond timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
            nda_stats::escape_json(&s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.group
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let sp = Spans::new(true);
        sp.span("outer", 0, 7, |id| {
            sp.span("inner", id, 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = sp.finish();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.group, 7);
        let st = self_times(&spans);
        let expect = (outer.dur_ns() - inner.dur_ns()) as f64 / 1e9;
        assert!((st["outer"] - expect).abs() < 1e-12);
        assert!(nda_trace_like(&chrome_json(&spans)));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let sp = Spans::new(false);
        assert_eq!(sp.span("x", 0, 0, |id| id), 0);
        sp.record("y", 0, 0, 1, 2);
        assert!(sp.finish().is_empty());
    }

    fn nda_trace_like(json: &str) -> bool {
        nda_serve::json::Json::parse(json).ok().and_then(|j| {
            j.get("traceEvents")
                .and_then(|e| e.as_array().map(<[_]>::len))
        }) == Some(2)
    }
}
