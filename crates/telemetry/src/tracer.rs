//! Structured event tracing: a bounded ring buffer of cycle-stamped
//! events behind a handle that is off unless `UCP_TRACE` turns it on.
//!
//! The design goal is that a fully disabled tracer costs one branch per
//! emit site: [`Tracer`] wraps `Option<Arc<..>>`, `None` means disabled,
//! and [`Tracer::emit`] takes the payload as a closure so no formatting
//! happens unless the event's category is actually enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Ring-buffer capacity (events) of the tracer `UCP_TRACE` turns on.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Event categories; see the crate docs for the taxonomy table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Pipeline-global events: flushes, resteers, commit milestones.
    Pipeline,
    /// Decoupled-frontend events: FTQ, fetch scheduling.
    Frontend,
    /// µ-op cache events: mode switches, inserts, evictions.
    UopCache,
    /// Standalone L1I prefetcher events: triggers and fills.
    Prefetch,
    /// UCP alternate-path events: walk lifecycle, fills, steals.
    Ucp,
    /// Memory-hierarchy events: misses, MSHR stalls, DRAM traffic.
    Mem,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 6] = [
        Category::Pipeline,
        Category::Frontend,
        Category::UopCache,
        Category::Prefetch,
        Category::Ucp,
        Category::Mem,
    ];

    /// Stable lowercase name, used in `UCP_TRACE` and export output.
    pub fn name(self) -> &'static str {
        match self {
            Category::Pipeline => "pipeline",
            Category::Frontend => "frontend",
            Category::UopCache => "uopc",
            Category::Prefetch => "prefetch",
            Category::Ucp => "ucp",
            Category::Mem => "mem",
        }
    }

    fn bit(self) -> u8 {
        1 << (self as usize)
    }

    fn from_name(s: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// A set of enabled categories (bitmask over [`Category`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategorySet(u8);

impl CategorySet {
    /// The empty set.
    pub fn none() -> Self {
        CategorySet(0)
    }

    /// Every category.
    pub fn all() -> Self {
        CategorySet(Category::ALL.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Parses a comma-separated list of category names; `all` (or `*`)
    /// selects everything. Names are case-insensitive, whitespace and
    /// empty items are tolerated, and an empty string parses to the empty
    /// set.
    ///
    /// # Errors
    ///
    /// An unknown name, with the accepted ones: a typo must not silently
    /// trace nothing.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut mask = 0u8;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part.eq_ignore_ascii_case("all") || part == "*" {
                return Ok(CategorySet::all());
            }
            let c = Category::from_name(&part.to_ascii_lowercase()).ok_or_else(|| {
                let names: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
                format!(
                    "unknown trace category `{part}`; expected a comma-separated list of {}, or `all`",
                    names.join(", ")
                )
            })?;
            mask |= c.bit();
        }
        Ok(CategorySet(mask))
    }

    /// True when `c` is in the set.
    pub fn contains(self, c: Category) -> bool {
        self.0 & c.bit() != 0
    }

    /// True when no category is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The [`CategorySet::parse`] syntax: `all`, or the names joined by commas.
impl std::fmt::Display for CategorySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == CategorySet::all() {
            return f.write_str("all");
        }
        let names: Vec<&str> = Category::ALL
            .iter()
            .filter(|c| self.contains(**c))
            .map(|c| c.name())
            .collect();
        f.write_str(&names.join(","))
    }
}

/// One trace record: where in simulated time, which subsystem, what
/// happened, and a free-form detail string.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated cycle at emission.
    pub cycle: u64,
    /// Subsystem that emitted the event.
    pub category: Category,
    /// Short stable event name (`walk_start`, `mshr_full`, …).
    pub name: &'static str,
    /// Free-form detail (`pc=0x40a0 depth=3`), built lazily.
    pub payload: String,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the logical start once the buffer has wrapped.
    head: usize,
}

struct TracerInner {
    mask: CategorySet,
    capacity: usize,
    clock: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

/// Handle to the trace stream. Cloning shares the buffer. The disabled
/// tracer (`Tracer::disabled`, also `Default`) holds no allocation and
/// makes [`Tracer::emit`] a single pointer test.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer recording `mask` categories into a ring of `capacity`
    /// events. An empty mask yields the disabled tracer.
    pub fn enabled_for(mask: CategorySet, capacity: usize) -> Self {
        if mask.is_empty() || capacity == 0 {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Arc::new(TracerInner {
                mask,
                capacity,
                clock: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                ring: Mutex::new(Ring {
                    buf: Vec::new(),
                    head: 0,
                }),
            })),
        }
    }

    /// True when any category is being recorded. Callers with per-cycle
    /// bookkeeping (like the clock update) should gate on this.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// True when events of `c` are being recorded.
    #[inline]
    pub fn enabled(&self, c: Category) -> bool {
        match &self.inner {
            Some(inner) => inner.mask.contains(c),
            None => false,
        }
    }

    /// Publishes the current simulated cycle. The simulator calls this
    /// once per cycle (only while tracing is active), so emit sites deep
    /// in components don't need the cycle threaded through their APIs.
    #[inline]
    pub fn set_cycle(&self, cycle: u64) {
        if let Some(inner) = &self.inner {
            inner.clock.store(cycle, Ordering::Relaxed);
        }
    }

    /// Records an event if `category` is enabled. `payload` runs only in
    /// that case, so format strings are free on the disabled path.
    #[inline]
    pub fn emit<F: FnOnce() -> String>(&self, category: Category, name: &'static str, payload: F) {
        let Some(inner) = &self.inner else { return };
        if !inner.mask.contains(category) {
            return;
        }
        let event = TraceEvent {
            cycle: inner.clock.load(Ordering::Relaxed),
            category,
            name,
            payload: payload(),
        };
        let mut ring = inner.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() < inner.capacity {
            ring.buf.push(event);
        } else {
            // Full: overwrite the oldest event and advance the head.
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % inner.capacity;
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let ring = inner.ring.lock().expect("trace ring poisoned");
                let (tail, front) = ring.buf.split_at(ring.head);
                front.iter().chain(tail).cloned().collect()
            }
        }
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => f
                .debug_struct("Tracer")
                .field("mask", &inner.mask)
                .field("capacity", &inner.capacity)
                .field("dropped", &inner.dropped.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_set_parsing() {
        fn parse(s: &str) -> CategorySet {
            CategorySet::parse(s).unwrap()
        }
        let s = parse("ucp, mem");
        assert!(s.contains(Category::Ucp));
        assert!(s.contains(Category::Mem));
        assert!(!s.contains(Category::Pipeline));
        assert_eq!(parse("all"), CategorySet::all());
        assert_eq!(parse("*"), CategorySet::all());
        assert_eq!(parse("mem,"), parse("mem"));
        assert_eq!(parse(""), CategorySet::none());
        assert_eq!(parse("UCP"), parse("ucp"));
        // Display round-trips through parse.
        assert_eq!(s.to_string(), "ucp,mem");
        assert_eq!(CategorySet::all().to_string(), "all");
        assert_eq!(parse(&s.to_string()), s);
    }

    #[test]
    fn unknown_categories_are_errors() {
        for bad in ["bogus", "memm", "ucp,memm"] {
            let e = CategorySet::parse(bad).unwrap_err();
            assert!(e.contains("uopc") && e.contains("`all`"), "{bad}: {e}");
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.set_cycle(5);
        t.emit(Category::Ucp, "x", || panic!("must not format"));
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
        // An empty mask also disables.
        assert!(!Tracer::enabled_for(CategorySet::none(), 16).is_active());
    }

    #[test]
    fn category_filtering() {
        let t = Tracer::enabled_for(CategorySet::parse("ucp").unwrap(), 16);
        t.emit(Category::Ucp, "walk_start", || "a".into());
        t.emit(Category::Mem, "l2_miss", || panic!("mem is filtered out"));
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "walk_start");
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let t = Tracer::enabled_for(CategorySet::all(), 4);
        for i in 0..10u64 {
            t.set_cycle(i);
            t.emit(Category::Pipeline, "tick", || i.to_string());
        }
        let events = t.events();
        assert_eq!(events.len(), 4);
        // 10 emitted into capacity 4: events 0..6 overwritten.
        assert_eq!(t.dropped(), 6);
        let cycles: Vec<u64> = events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        let payloads: Vec<&str> = events.iter().map(|e| e.payload.as_str()).collect();
        assert_eq!(payloads, vec!["6", "7", "8", "9"]);
    }

    #[test]
    fn clock_stamps_events() {
        let t = Tracer::enabled_for(CategorySet::all(), 8);
        t.set_cycle(41);
        t.emit(Category::Frontend, "ftq_push", String::new);
        t.set_cycle(99);
        t.emit(Category::Frontend, "ftq_pop", String::new);
        let e = t.events();
        assert_eq!((e[0].cycle, e[1].cycle), (41, 99));
    }
}
