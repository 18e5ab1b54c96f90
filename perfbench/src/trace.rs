//! Benchmark-side spans: named, nested time intervals around batches of
//! calls into one layer, each carrying the number of calls it wraps.
//!
//! Spans stay in memory while the benchmark runs and are written out with
//! the report when it ends. Many layer calls take ~100 ns, so a span wraps
//! a batch of them rather than a single call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span.
pub struct Span {
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span wraps (1 for a single operation).
    pub calls: u64,
}

/// The span recorder for one run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording how many calls it wrapped.
    pub fn close(&mut self, id: usize, calls: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Records a span that started at `start` and ends now; returns its
    /// duration.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        calls: u64,
    ) -> Duration {
        let elapsed = start.elapsed();
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
            calls,
        });
        elapsed
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the number of calls it made.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.open(name, parent);
        let (out, calls) = f();
        self.close(id, calls);
        out
    }

    /// Total nanoseconds and calls per span name.
    pub fn totals(&self) -> BTreeMap<&str, (u64, u64)> {
        let mut out: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.as_str()).or_default();
            e.0 += s.end_ns - s.start_ns;
            e.1 += s.calls;
        }
        out
    }

    /// The spans as a JSON array (the report's `spans` field).
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                    serde_json::to_string(s.name.as_str()).expect("name serializes"),
                    s.start_ns,
                    s.end_ns,
                    s.calls
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}
