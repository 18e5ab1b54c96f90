//! Observability for the UCP simulator: a hierarchical counter/histogram
//! registry and a structured event trace that is off unless asked for.
//!
//! The two halves serve different questions:
//!
//! - The **registry** ([`Registry`]) answers *how often* — monotonic
//!   counters and power-of-two histograms registered by dotted path
//!   (`frontend.uopc.mode_switches`, `mem.l2.mshr_full_stalls`). It is
//!   always on: counters are relaxed atomic adds, cheap enough to leave
//!   enabled for every run, and snapshots serialize to JSON alongside
//!   `SimStats` in the result cache and suite reports.
//!
//! - The **tracer** ([`Tracer`]) answers *when and why* — timestamped
//!   [`TraceEvent`]s in a bounded ring buffer, exportable as Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`) or
//!   JSONL. It is off unless `UCP_TRACE` selects categories, and when
//!   off every emit site reduces to one null check.
//!
//! # Category taxonomy
//!
//! Events and counter paths share a six-way split that mirrors the
//! simulator's crate structure; the first path segment of a counter is
//! the lowercase category name:
//!
//! | Category   | Prefix      | What lands here                                      |
//! |------------|-------------|------------------------------------------------------|
//! | `Pipeline` | `pipeline.` | flushes, resteers, commit/dispatch milestones        |
//! | `Frontend` | `frontend.` | FTQ, fetch scheduling, µ-op cache mode switches      |
//! | `UopCache` | `frontend.uopc.` | µ-op cache inserts, evictions, hits/misses      |
//! | `Prefetch` | `prefetch.` | standalone L1I prefetcher triggers and fills         |
//! | `Ucp`      | `ucp.`      | alternate-path walks: triggers, stops, fills, steals |
//! | `Mem`      | `mem.`      | cache misses, MSHR occupancy/stalls, DRAM traffic    |
//!
//! On top of the registry sit two derived layers:
//!
//! - **Cycle accounting** ([`accounting`]) charges every simulated
//!   frontend cycle to exactly one [`CycleCause`], with the invariant
//!   that categories sum to total cycles.
//! - **Interval sampling** ([`interval`]) snapshots registry deltas
//!   every N cycles into a bounded ring of [`IntervalRecord`]s, giving
//!   phase-resolved time series (IPC, hit rates, stall shares) that are
//!   exportable as CSV/JSONL and as Perfetto counter tracks.
//!
//! # Configuration
//!
//! This crate reads no environment. The `UCP_TRACE`, `UCP_INTERVAL` and
//! `UCP_FAULT` knobs are parsed once, with every other knob, by
//! `ucp_core::Knobs` (README "Knobs" lists them all), which builds the
//! tracer, sampler and fault plan from them. The tracer and sampler rings
//! hold [`tracer::DEFAULT_TRACE_CAPACITY`] events and
//! [`interval::DEFAULT_INTERVAL_CAPACITY`] records.
//!
//! # Example
//!
//! ```
//! use ucp_telemetry::{Category, CategorySet, Telemetry};
//!
//! let t = Telemetry::with_trace(CategorySet::parse("ucp").unwrap(), 16);
//! let walks = t.registry.counter("ucp.walks_started");
//! walks.inc();
//! t.tracer.set_cycle(120);
//! t.tracer.emit(Category::Ucp, "walk_start", || "trigger=0x40a0".to_string());
//! let snap = t.registry.snapshot();
//! assert_eq!(snap.counters["ucp.walks_started"], 1);
//! assert_eq!(t.tracer.events()[0].cycle, 120);
//! ```

pub mod accounting;
pub mod envelope;
pub mod export;
pub mod fault;
pub mod interval;
pub mod registry;
pub mod tracer;

pub use accounting::{AccountingBreakdown, CycleAccounting, CycleCause, TOTAL_CYCLES_PATH};
pub use envelope::CacheReadError;
pub use export::{snapshot_table, to_chrome_trace, to_chrome_trace_with_counters, to_jsonl};
pub use fault::FaultPlan;
pub use interval::{
    intervals_to_csv, intervals_to_jsonl, IntervalRecord, IntervalSampler, SamplerState,
};
pub use registry::{Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use tracer::{Category, CategorySet, TraceEvent, Tracer};

/// The pair every instrumented component receives: always-on counters
/// plus the (usually disabled) event tracer. Cloning is cheap and shares
/// the underlying storage, so the simulator can hand copies to the µ-op
/// cache, the UCP engine, the memory hierarchy, and prefetchers.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Hierarchical counter/histogram registry (always on).
    pub registry: Registry,
    /// Structured event trace (~free when disabled).
    pub tracer: Tracer,
}

impl Telemetry {
    /// Fresh registry, tracing disabled. What library users and tests
    /// that don't care about traces should use.
    pub fn disabled() -> Self {
        Telemetry {
            registry: Registry::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Fresh registry with tracing on for `categories` and the given
    /// buffer capacity (disabled when either is empty).
    pub fn with_trace(categories: CategorySet, capacity: usize) -> Self {
        Telemetry {
            registry: Registry::default(),
            tracer: Tracer::enabled_for(categories, capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let t = Telemetry::with_trace(CategorySet::all(), 8);
        let u = t.clone();
        t.registry.counter("pipeline.flushes").add(3);
        u.registry.counter("pipeline.flushes").add(2);
        assert_eq!(t.registry.snapshot().counters["pipeline.flushes"], 5);
        u.tracer.set_cycle(7);
        u.tracer.emit(Category::Mem, "l2_miss", String::new);
        assert_eq!(t.tracer.events().len(), 1);
    }

    #[test]
    fn disabled_telemetry_emits_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.tracer.is_active());
        t.tracer.emit(Category::Ucp, "walk_start", || {
            unreachable!("payload must not run")
        });
        assert!(t.tracer.events().is_empty());
    }
}
