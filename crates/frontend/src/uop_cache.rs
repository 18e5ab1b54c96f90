//! The µ-op cache: decoded-instruction storage with the paper's entry
//! geometry and termination semantics.
//!
//! Entries cover up to 8 µ-ops inside one 32 B window and are keyed by
//! their exact *start address*: fetch resumes at arbitrary instruction
//! boundaries (taken-branch targets), and a window may hold several entries
//! with different starts or branch splits — the paper's "a new entry that
//! covers the same 32B region is started … in another way of the same set".
//! Entry *construction* rules (terminate on predicted-taken branch, window
//! boundary, 8 µ-ops, >2 branches) are enforced by the pipeline's entry
//! builder; this module stores, replaces and finds entries.

use serde::{Deserialize, Serialize};
use sim_isa::Addr;
use ucp_telemetry::{Category, Counter, Telemetry, Tracer};

/// µ-op cache geometry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UopCacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Max µ-ops per entry.
    pub uops_per_entry: usize,
}

impl UopCacheConfig {
    /// Table II baseline: 4Kops = 64 sets × 8 ways × 8 µ-ops.
    pub fn kops_4() -> Self {
        UopCacheConfig {
            sets: 64,
            ways: 8,
            uops_per_entry: 8,
        }
    }

    /// A scaled configuration holding `kops × 1024` µ-ops (ways and entry
    /// size fixed, sets scaled) — the Fig. 4 size sweep.
    ///
    /// # Panics
    ///
    /// Panics unless `kops` is a power of two ≥ 4.
    pub fn kops(kops: usize) -> Self {
        assert!(kops >= 4 && kops.is_power_of_two());
        UopCacheConfig {
            sets: 16 * kops,
            ways: 8,
            uops_per_entry: 8,
        }
    }

    /// Total µ-op capacity.
    pub fn capacity_uops(&self) -> usize {
        self.sets * self.ways * self.uops_per_entry
    }

    /// Storage in bits: per entry, `uops_per_entry` 32-bit µ-ops + tag(20)
    ///   + start offset(3) + count(4) + two branch-target immediates (2×32)
    ///   + valid/LRU/meta(8).
    pub fn storage_bits(&self) -> u64 {
        let per_entry = self.uops_per_entry as u64 * 32 + 20 + 3 + 4 + 64 + 8;
        (self.sets * self.ways) as u64 * per_entry
    }
}

/// Why an entry ended (recorded for diagnostics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryEnd {
    /// Ended at a predicted-taken branch.
    TakenBranch,
    /// Reached the 32 B window boundary.
    WindowBoundary,
    /// Hit the µ-op limit.
    UopLimit,
    /// Would have needed a third branch-target slot.
    BranchSlots,
}

/// A built entry handed to [`UopCache::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UopEntrySpec {
    /// First instruction address covered.
    pub start: Addr,
    /// Number of µ-ops (1..=8).
    pub num_uops: u8,
    /// Why the builder terminated the entry.
    pub end: EntryEnd,
    /// Entry was filled by UCP alternate-path prefetching.
    pub prefetched: bool,
    /// UCP prefetch instance id (trigger H2P occurrence), 0 for demand.
    pub trigger: u64,
}

/// Result of a hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UopHit {
    /// µ-ops supplied by the entry.
    pub num_uops: u8,
    /// This hit is the first demand use of a UCP-prefetched entry.
    pub first_prefetch_use: bool,
    /// The prefetch instance that created the entry (0 = demand fill).
    pub trigger: u64,
}

/// An entry displaced by [`UopCache::insert`] (for prefetch-accuracy
/// accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced entry's start address.
    pub start: Addr,
    /// It had been filled by a prefetch.
    pub prefetched: bool,
    /// It was demanded at least once before eviction.
    pub used: bool,
    /// Its prefetch instance id.
    pub trigger: u64,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    valid: bool,
    start: Addr,
    num_uops: u8,
    lru: u64,
    prefetched: bool,
    used: bool,
    trigger: u64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            valid: false,
            start: Addr::NULL,
            num_uops: 0,
            lru: 0,
            prefetched: false,
            used: false,
            trigger: 0,
        }
    }
}

/// Aggregate µ-op cache statistics.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct UopCacheStats {
    /// Demand lookups.
    pub lookups: u64,
    /// Demand hits.
    pub hits: u64,
    /// Entries inserted by the demand (build) path.
    pub demand_fills: u64,
    /// Entries inserted by UCP prefetching.
    pub prefetch_fills: u64,
    /// Prefetched entries evicted without ever being used.
    pub prefetch_evicted_unused: u64,
}

/// Telemetry handles for the `frontend.uopc.*` namespace; detached (and
/// therefore unobservable but still branch-free) until
/// [`UopCache::attach_telemetry`] binds them.
#[derive(Clone, Debug, Default)]
struct UopcTelemetry {
    tracer: Tracer,
    hits: Counter,
    misses: Counter,
    demand_fills: Counter,
    prefetch_fills: Counter,
    evictions: Counter,
}

impl UopcTelemetry {
    fn bound_to(t: &Telemetry) -> Self {
        UopcTelemetry {
            tracer: t.tracer.clone(),
            hits: t.registry.counter("frontend.uopc.hits"),
            misses: t.registry.counter("frontend.uopc.misses"),
            demand_fills: t.registry.counter("frontend.uopc.demand_fills"),
            prefetch_fills: t.registry.counter("frontend.uopc.prefetch_fills"),
            evictions: t.registry.counter("frontend.uopc.evictions"),
        }
    }
}

/// The µ-op cache.
#[derive(Clone, Debug)]
pub struct UopCache {
    cfg: UopCacheConfig,
    slots: Box<[Slot]>,
    stamp: u64,
    stats: UopCacheStats,
    tele: UopcTelemetry,
}

impl UopCache {
    /// Creates an empty µ-op cache.
    ///
    /// # Panics
    ///
    /// Panics if sets is not a power of two.
    pub fn new(cfg: UopCacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two() && cfg.ways > 0);
        UopCache {
            slots: vec![Slot::default(); cfg.sets * cfg.ways].into_boxed_slice(),
            stamp: 0,
            stats: UopCacheStats::default(),
            tele: UopcTelemetry::default(),
            cfg,
        }
    }

    /// Binds the `frontend.uopc.*` counters and the `UopCache` trace
    /// category to `t`'s registry and tracer.
    pub fn attach_telemetry(&mut self, t: &Telemetry) {
        self.tele = UopcTelemetry::bound_to(t);
    }

    /// The geometry.
    pub fn config(&self) -> &UopCacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &UopCacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, addr: Addr) -> usize {
        ((addr.raw() >> 5) as usize) & (self.cfg.sets - 1)
    }

    /// The tag-array bank (even/odd set interleave) an access uses — UCP
    /// shares tag-check bandwidth between demand and alternate paths by
    /// banking (§IV-D).
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> usize {
        self.set_of(addr) & 1
    }

    /// Demand lookup for an entry starting exactly at `start`.
    pub fn lookup(&mut self, start: Addr) -> Option<UopHit> {
        self.stats.lookups += 1;
        self.stamp += 1;
        let set = self.set_of(start);
        let base = set * self.cfg.ways;
        for s in &mut self.slots[base..base + self.cfg.ways] {
            if s.valid && s.start == start {
                s.lru = self.stamp;
                let first = s.prefetched && !s.used;
                s.used = true;
                self.stats.hits += 1;
                self.tele.hits.inc();
                return Some(UopHit {
                    num_uops: s.num_uops,
                    first_prefetch_use: first,
                    trigger: s.trigger,
                });
            }
        }
        self.tele.misses.inc();
        None
    }

    /// Presence check without statistics or LRU effects (the UCP tag check
    /// that filters already-cached alternate-path entries).
    pub fn probe(&self, start: Addr) -> bool {
        let set = self.set_of(start);
        let base = set * self.cfg.ways;
        self.slots[base..base + self.cfg.ways]
            .iter()
            .any(|s| s.valid && s.start == start)
    }

    /// Inserts a built entry; returns the displaced entry, if any.
    pub fn insert(&mut self, spec: UopEntrySpec) -> Option<Evicted> {
        debug_assert!(spec.num_uops >= 1 && spec.num_uops as usize <= self.cfg.uops_per_entry);
        self.stamp += 1;
        let set = self.set_of(spec.start);
        let base = set * self.cfg.ways;
        if spec.prefetched {
            self.stats.prefetch_fills += 1;
            self.tele.prefetch_fills.inc();
        } else {
            self.stats.demand_fills += 1;
            self.tele.demand_fills.inc();
        }
        self.tele.tracer.emit(Category::UopCache, "insert", || {
            format!(
                "start={:#x} n={} prefetched={} trigger={}",
                spec.start.raw(),
                spec.num_uops,
                spec.prefetched,
                spec.trigger
            )
        });
        // Replace an identical-start entry in place.
        if let Some(s) = self.slots[base..base + self.cfg.ways]
            .iter_mut()
            .find(|s| s.valid && s.start == spec.start)
        {
            s.num_uops = spec.num_uops;
            s.lru = self.stamp;
            // A demand rebuild clears prefetch attribution.
            if !spec.prefetched {
                s.prefetched = false;
            }
            return None;
        }
        let victim = self.slots[base..base + self.cfg.ways]
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("ways nonempty");
        let evicted = victim.valid.then_some(Evicted {
            start: victim.start,
            prefetched: victim.prefetched,
            used: victim.used,
            trigger: victim.trigger,
        });
        if let Some(e) = &evicted {
            self.tele.evictions.inc();
            if e.prefetched && !e.used {
                self.stats.prefetch_evicted_unused += 1;
            }
            self.tele.tracer.emit(Category::UopCache, "evict", || {
                format!(
                    "start={:#x} prefetched={} used={}",
                    e.start.raw(),
                    e.prefetched,
                    e.used
                )
            });
        }
        *victim = Slot {
            valid: true,
            start: spec.start,
            num_uops: spec.num_uops,
            lru: self.stamp,
            prefetched: spec.prefetched,
            used: false,
            trigger: spec.trigger,
        };
        evicted
    }

    /// Demand hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        if self.stats.lookups == 0 {
            1.0
        } else {
            self.stats.hits as f64 / self.stats.lookups as f64
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }
}

// Telemetry handles are rebound by `attach_telemetry`, not checkpointed.
sim_isa::state_fields!(UopCache { slots, stamp, stats } skip { cfg, tele });
sim_isa::state_fields!(Slot { valid, start, num_uops, lru, prefetched, used, trigger } skip {});
sim_isa::state_fields!(UopCacheStats {
    lookups, hits, demand_fills, prefetch_fills, prefetch_evicted_unused,
} skip {});

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(start: u64, n: u8) -> UopEntrySpec {
        UopEntrySpec {
            start: Addr::new(start),
            num_uops: n,
            end: EntryEnd::WindowBoundary,
            prefetched: false,
            trigger: 0,
        }
    }

    #[test]
    fn config_capacity_matches_table_ii() {
        let c = UopCacheConfig::kops_4();
        assert_eq!(c.capacity_uops(), 4096);
        assert_eq!(UopCacheConfig::kops(4), c);
        assert_eq!(UopCacheConfig::kops(64).capacity_uops(), 64 * 1024);
    }

    #[test]
    fn exact_start_keying() {
        let mut u = UopCache::new(UopCacheConfig::kops_4());
        u.insert(spec(0x1000, 8));
        assert!(u.lookup(Addr::new(0x1000)).is_some());
        assert!(
            u.lookup(Addr::new(0x1004)).is_none(),
            "mid-entry starts are distinct entries (alias ways)"
        );
    }

    #[test]
    fn same_window_different_starts_coexist() {
        let mut u = UopCache::new(UopCacheConfig::kops_4());
        u.insert(spec(0x1000, 8));
        u.insert(spec(0x1010, 4));
        assert!(u.probe(Addr::new(0x1000)));
        assert!(u.probe(Addr::new(0x1010)));
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = UopCacheConfig {
            sets: 2,
            ways: 2,
            uops_per_entry: 8,
        };
        let mut u = UopCache::new(cfg);
        // Set index from bit 5: same set = window addresses 128 B apart.
        u.insert(spec(0x000, 8));
        u.insert(spec(0x080, 8));
        let _ = u.lookup(Addr::new(0x000));
        let ev = u.insert(spec(0x100, 8)).expect("must evict");
        assert_eq!(ev.start, Addr::new(0x080));
    }

    #[test]
    fn prefetch_attribution_and_first_use() {
        let mut u = UopCache::new(UopCacheConfig::kops_4());
        u.insert(UopEntrySpec {
            prefetched: true,
            trigger: 42,
            ..spec(0x2000, 6)
        });
        assert_eq!(u.stats().prefetch_fills, 1);
        let h = u.lookup(Addr::new(0x2000)).unwrap();
        assert!(h.first_prefetch_use);
        assert_eq!(h.trigger, 42);
        let h2 = u.lookup(Addr::new(0x2000)).unwrap();
        assert!(!h2.first_prefetch_use, "only the first use counts");
    }

    #[test]
    fn unused_prefetch_eviction_counted() {
        let cfg = UopCacheConfig {
            sets: 1,
            ways: 1,
            uops_per_entry: 8,
        };
        let mut u = UopCache::new(cfg);
        u.insert(UopEntrySpec {
            prefetched: true,
            trigger: 7,
            ..spec(0x000, 8)
        });
        u.insert(spec(0x020, 8)); // evicts the unused prefetch
        assert_eq!(u.stats().prefetch_evicted_unused, 1);
    }

    #[test]
    fn duplicate_insert_updates_in_place() {
        let mut u = UopCache::new(UopCacheConfig::kops_4());
        u.insert(spec(0x3000, 4));
        u.insert(spec(0x3000, 8));
        assert_eq!(u.occupancy(), 1);
        assert_eq!(u.lookup(Addr::new(0x3000)).unwrap().num_uops, 8);
    }

    #[test]
    fn banks_split_by_set_parity() {
        let u = UopCache::new(UopCacheConfig::kops_4());
        assert_ne!(u.bank_of(Addr::new(0x00)), u.bank_of(Addr::new(0x20)));
        assert_eq!(u.bank_of(Addr::new(0x00)), u.bank_of(Addr::new(0x40)));
    }

    #[test]
    fn hit_rate_math() {
        let mut u = UopCache::new(UopCacheConfig::kops_4());
        u.insert(spec(0x100, 8));
        let _ = u.lookup(Addr::new(0x100));
        let _ = u.lookup(Addr::new(0x140));
        assert!((u.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn telemetry_mirrors_fill_and_eviction_stats() {
        let t = Telemetry::with_trace("uopc", 16);
        let cfg = UopCacheConfig {
            sets: 1,
            ways: 1,
            uops_per_entry: 8,
        };
        let mut u = UopCache::new(cfg);
        u.attach_telemetry(&t);
        u.insert(UopEntrySpec {
            prefetched: true,
            trigger: 3,
            ..spec(0x000, 8)
        });
        u.insert(spec(0x020, 8)); // evicts the prefetch
        let _ = u.lookup(Addr::new(0x020));
        let _ = u.lookup(Addr::new(0x040));
        let snap = t.registry.snapshot();
        assert_eq!(snap.counters["frontend.uopc.prefetch_fills"], 1);
        assert_eq!(snap.counters["frontend.uopc.demand_fills"], 1);
        assert_eq!(snap.counters["frontend.uopc.evictions"], 1);
        assert_eq!(snap.counters["frontend.uopc.hits"], 1);
        assert_eq!(snap.counters["frontend.uopc.misses"], 1);
        let names: Vec<&str> = t.tracer.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["insert", "insert", "evict"]);
    }

    #[test]
    fn storage_is_tens_of_kb() {
        let kb = UopCacheConfig::kops_4().storage_bits() / 8192;
        assert!(
            (15..30).contains(&kb),
            "4Kops µ-op cache ≈ 22 KB of storage, got {kb}"
        );
    }
}
