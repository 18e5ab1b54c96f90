//! Interval time-series sampling: periodic registry-delta snapshots.
//!
//! An [`IntervalSampler`] carves a run into fixed-length windows of
//! simulated cycles (default [`DEFAULT_INTERVAL_CYCLES`]). At each window
//! boundary it diffs the registry against the previous boundary and keeps
//! the per-window counter deltas in a bounded ring of
//! [`IntervalRecord`]s. Because each record is a [`RegistrySnapshot`]
//! delta, the records *tile* the measurement window exactly: summing any
//! counter across all intervals reproduces the end-of-run aggregate (the
//! property test in `crates/core/tests` checks this).
//!
//! Records are raw counter deltas; plot-ready metrics (IPC, µ-op cache
//! hit rate, L1I MPKI, stall shares) are derived on export so the stored
//! form stays lossless and small (zero deltas are dropped by
//! [`RegistrySnapshot::delta_since`]).
//!
//! `UCP_INTERVAL` (cycles per interval, `0`/`off` disables sampling)
//! configures the sampler through `ucp_core::Knobs`. The ring holds
//! [`DEFAULT_INTERVAL_CAPACITY`] records; when full, the oldest are
//! dropped and counted.

use crate::accounting::AccountingBreakdown;
use crate::registry::{Registry, RegistrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default interval length in simulated cycles.
pub const DEFAULT_INTERVAL_CYCLES: u64 = 100_000;

/// Ring capacity in records of every sampler the knobs build.
pub const DEFAULT_INTERVAL_CAPACITY: usize = 4096;

/// Counter path of committed instructions (maintained by the pipeline's
/// commit stage; the interval exporters derive IPC from it).
pub const INSTRET_PATH: &str = "pipeline.committed";

/// One sampled window: the half-open cycle range and every counter that
/// moved inside it (zero deltas omitted).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalRecord {
    /// Zero-based interval number within the run (monotonic even when
    /// older records have been dropped from the ring).
    pub index: u64,
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// End of the window (exclusive; equals the next record's start).
    pub end_cycle: u64,
    /// Counter deltas over the window, by registry path.
    pub counters: BTreeMap<String, u64>,
}

impl IntervalRecord {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Delta of the counter at `path` (0 when it did not move).
    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    /// Instructions committed in the window.
    pub fn instructions(&self) -> u64 {
        self.counter(INSTRET_PATH)
    }

    /// Instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / cycles as f64
        }
    }

    /// µ-op cache hit rate over the window, in percent (0 when the µ-op
    /// cache saw no lookups).
    pub fn uopc_hit_pct(&self) -> f64 {
        let hits = self.counter("frontend.uopc.hits");
        let total = hits + self.counter("frontend.uopc.misses");
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    }

    /// L1I demand misses per kilo-instruction over the window.
    pub fn l1i_mpki(&self) -> f64 {
        let instret = self.instructions();
        if instret == 0 {
            0.0
        } else {
            1000.0 * self.counter("mem.l1i.demand_misses") as f64 / instret as f64
        }
    }

    /// The window's frontend cycle-accounting breakdown.
    pub fn breakdown(&self) -> AccountingBreakdown {
        AccountingBreakdown::from_counters(&self.counters)
    }
}

/// Periodic registry sampler with a bounded record ring. Created
/// inactive; call [`IntervalSampler::begin`] at measurement start, then
/// [`IntervalSampler::tick`] once per cycle, and
/// [`IntervalSampler::finish`] at measurement end to flush the last
/// partial window.
#[derive(Debug, Default)]
pub struct IntervalSampler {
    every: u64,
    capacity: usize,
    baseline: RegistrySnapshot,
    window_start: u64,
    next_index: u64,
    records: Vec<IntervalRecord>,
    dropped: u64,
    active: bool,
}

impl IntervalSampler {
    /// A sampler taking one record per `every` cycles into a ring of
    /// `capacity` records. `every` of 0 is clamped to 1.
    pub fn new(every: u64, capacity: usize) -> Self {
        IntervalSampler {
            every: every.max(1),
            capacity: capacity.max(1),
            ..IntervalSampler::default()
        }
    }

    /// Interval length in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Starts (or restarts) sampling: `now` becomes the first window's
    /// start and the registry's current state the first baseline. Any
    /// previously collected records are cleared.
    pub fn begin(&mut self, now: u64, registry: &Registry) {
        self.baseline = registry.snapshot();
        self.window_start = now;
        self.next_index = 0;
        self.records.clear();
        self.dropped = 0;
        self.active = true;
    }

    /// True when the current window is complete and `tick` would sample.
    pub fn due(&self, now: u64) -> bool {
        self.active && now.saturating_sub(self.window_start) >= self.every
    }

    /// Samples if the current window has run its course. Call once per
    /// cycle; costs one comparison when not due.
    #[inline]
    pub fn tick(&mut self, now: u64, registry: &Registry) {
        if self.due(now) {
            self.sample(now, registry);
        }
    }

    /// Closes the window `[window_start, now)` unconditionally.
    fn sample(&mut self, now: u64, registry: &Registry) {
        let snap = registry.snapshot();
        let record = IntervalRecord {
            index: self.next_index,
            start_cycle: self.window_start,
            end_cycle: now,
            counters: snap.delta_since(&self.baseline).counters,
        };
        self.next_index += 1;
        self.baseline = snap;
        self.window_start = now;
        if self.records.len() >= self.capacity {
            self.records.remove(0);
            self.dropped += 1;
        }
        self.records.push(record);
    }

    /// Flushes the final (possibly partial) window and deactivates the
    /// sampler. A no-op when inactive or when no cycle has elapsed since
    /// the last boundary.
    pub fn finish(&mut self, now: u64, registry: &Registry) {
        if self.active && now > self.window_start {
            self.sample(now, registry);
        }
        self.active = false;
    }

    /// Collected records, oldest first.
    pub fn records(&self) -> &[IntervalRecord] {
        &self.records
    }

    /// Consumes the sampler, returning the records.
    pub fn into_records(self) -> Vec<IntervalRecord> {
        self.records
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sampler's complete mutable state as a serializable value —
    /// the checkpoint path. `every`/`capacity` ride along, and
    /// [`IntervalSampler::import_state`] adopts them: a restored sampler
    /// keeps sampling at the exported interval, whatever it was built
    /// with. Checkpoint directories are keyed by the interval, so a
    /// resume never mixes two.
    pub fn export_state(&self) -> SamplerState {
        SamplerState {
            every: self.every,
            capacity: self.capacity as u64,
            baseline: self.baseline.clone(),
            window_start: self.window_start,
            next_index: self.next_index,
            records: self.records.clone(),
            dropped: self.dropped,
            active: self.active,
        }
    }

    /// Overwrites the sampler's state from [`IntervalSampler::export_state`],
    /// resuming mid-measurement exactly where the exported sampler was.
    pub fn import_state(&mut self, s: SamplerState) {
        self.every = s.every.max(1);
        self.capacity = (s.capacity as usize).max(1);
        self.baseline = s.baseline;
        self.window_start = s.window_start;
        self.next_index = s.next_index;
        self.records = s.records;
        self.dropped = s.dropped;
        self.active = s.active;
    }
}

/// Serializable form of an [`IntervalSampler`]'s mutable state (see
/// [`IntervalSampler::export_state`]).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SamplerState {
    pub every: u64,
    pub capacity: u64,
    pub baseline: RegistrySnapshot,
    pub window_start: u64,
    pub next_index: u64,
    pub records: Vec<IntervalRecord>,
    pub dropped: u64,
    pub active: bool,
}

/// Renders interval records as a plot-ready CSV document: one row per
/// interval with derived metrics (IPC, µ-op cache hit %, L1I MPKI) and
/// the per-category stall shares in percent.
pub fn intervals_to_csv(records: &[IntervalRecord]) -> String {
    use crate::accounting::CycleCause;
    let mut out = String::from(
        "interval,start_cycle,end_cycle,cycles,instructions,ipc,uopc_hit_pct,l1i_mpki",
    );
    for cause in CycleCause::ALL {
        out.push_str(",pct_");
        out.push_str(cause.name());
    }
    out.push('\n');
    for r in records {
        let b = r.breakdown();
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.2},{:.3}",
            r.index,
            r.start_cycle,
            r.end_cycle,
            r.cycles(),
            r.instructions(),
            r.ipc(),
            r.uopc_hit_pct(),
            r.l1i_mpki()
        ));
        for cause in CycleCause::ALL {
            out.push_str(&format!(",{:.2}", b.share_pct(cause)));
        }
        out.push('\n');
    }
    out
}

/// Renders interval records as JSONL, one full-fidelity record per line
/// (the raw counter deltas, no derived metrics — lossless form).
pub fn intervals_to_jsonl(records: &[IntervalRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("interval records always serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::{CycleAccounting, CycleCause};

    #[test]
    fn intervals_tile_the_run() {
        let reg = Registry::default();
        let work = reg.counter("ucp.walks_started");
        let instret = reg.counter(INSTRET_PATH);
        let mut s = IntervalSampler::new(10, 64);
        s.begin(100, &reg);
        for cycle in 100..145u64 {
            if cycle % 3 == 0 {
                work.inc();
            }
            instret.add(2);
            // Work done at cycle N belongs to the window ending after N,
            // matching the pipeline's post-increment tick ordering.
            s.tick(cycle + 1, &reg);
        }
        s.finish(145, &reg);
        let records = s.records();
        // 45 cycles at every=10: four full windows + one partial.
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].start_cycle, 100);
        assert_eq!(records.last().unwrap().end_cycle, 145);
        // Windows abut exactly.
        for w in records.windows(2) {
            assert_eq!(w[0].end_cycle, w[1].start_cycle);
        }
        // Summed deltas reproduce the aggregate.
        let total: u64 = records.iter().map(|r| r.counter("ucp.walks_started")).sum();
        assert_eq!(total, work.get());
        let insts: u64 = records.iter().map(|r| r.instructions()).sum();
        assert_eq!(insts, instret.get());
        assert!((records[0].ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let reg = Registry::default();
        let c = reg.counter("x");
        let mut s = IntervalSampler::new(1, 3);
        s.begin(0, &reg);
        for cycle in 1..=8u64 {
            c.inc();
            s.tick(cycle, &reg);
        }
        assert_eq!(s.records().len(), 3);
        assert_eq!(s.dropped(), 5);
        let idx: Vec<u64> = s.records().iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![5, 6, 7]);
    }

    #[test]
    fn begin_establishes_baseline() {
        let reg = Registry::default();
        let c = reg.counter("warmup.noise");
        c.add(1000);
        let mut s = IntervalSampler::new(5, 8);
        s.begin(50, &reg);
        c.add(3);
        s.finish(55, &reg);
        // Warmup activity before begin() is excluded from the delta.
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.records()[0].counter("warmup.noise"), 3);
    }

    #[test]
    fn finish_without_progress_is_empty() {
        let reg = Registry::default();
        let mut s = IntervalSampler::new(10, 8);
        s.begin(7, &reg);
        s.finish(7, &reg);
        assert!(s.records().is_empty());
        // Inactive sampler ignores ticks.
        s.tick(100, &reg);
        assert!(s.records().is_empty());
    }

    #[test]
    fn csv_has_derived_metrics_and_shares() {
        let reg = Registry::default();
        let acc = CycleAccounting::bound_to(&reg);
        let instret = reg.counter(INSTRET_PATH);
        let mut s = IntervalSampler::new(4, 8);
        s.begin(0, &reg);
        for cycle in 0..4u64 {
            acc.charge(if cycle < 3 {
                CycleCause::DeliverUop
            } else {
                CycleCause::L1iMiss
            });
            instret.add(3);
            s.tick(cycle + 1, &reg);
        }
        s.finish(4, &reg);
        let csv = intervals_to_csv(s.records());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("interval,start_cycle,end_cycle,cycles,instructions,ipc"));
        assert!(header.contains("pct_deliver_uop"));
        let row = lines.next().unwrap();
        // 12 instructions over 4 cycles → IPC 3; 3/4 cycles delivering.
        assert!(row.contains(",3.0000,"), "{row}");
        assert!(row.contains(",75.00"), "{row}");
        let record = &s.records()[0];
        assert!(record.breakdown().verify().is_ok());
        assert_eq!(record.breakdown().get(CycleCause::L1iMiss), 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let reg = Registry::default();
        reg.counter("a").add(2);
        let mut s = IntervalSampler::new(1, 4);
        s.begin(0, &reg);
        reg.counter("a").add(5);
        s.finish(9, &reg);
        let text = intervals_to_jsonl(s.records());
        assert_eq!(text.lines().count(), 1);
        let back: IntervalRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back, s.records()[0]);
        assert_eq!(back.counter("a"), 5);
    }

    #[test]
    fn sampler_state_round_trips_mid_window() {
        let reg = Registry::default();
        let c = reg.counter("x");
        let mut a = IntervalSampler::new(10, 4);
        a.begin(0, &reg);
        c.add(2);
        a.tick(10, &reg);
        c.add(3); // mid-window activity rides in the baseline delta
        let state = a.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let mut b = IntervalSampler::new(999, 1);
        b.import_state(serde_json::from_str(&json).unwrap());
        c.add(1);
        a.tick(20, &reg);
        b.tick(20, &reg);
        a.finish(25, &reg);
        b.finish(25, &reg);
        assert_eq!(a.records(), b.records());
        assert_eq!(b.records()[1].counter("x"), 4);
    }
}
