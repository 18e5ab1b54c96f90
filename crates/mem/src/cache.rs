//! Generic set-associative cache with LRU replacement and per-line fill
//! timestamps.

use serde::{Deserialize, Serialize};
use sim_isa::Addr;

/// Geometry and latency of one cache level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct CacheConfig {
    /// Human-readable level name (diagnostics only).
    pub name: &'static str,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Total capacity in bytes (64 B lines).
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * 64
    }
}

/// Maps a deserialized level name back to a `&'static str`. The standard
/// hierarchy names are interned; anything else leaks (bounded: configs are
/// deserialized only by offline tools, never in the simulation loop).
pub(crate) fn intern_name(s: &str) -> &'static str {
    for known in ["L1I", "L1D", "L2", "LLC", "ITLB", "DTLB", "STLB"] {
        if s == known {
            return known;
        }
    }
    Box::leak(s.to_owned().into_boxed_str())
}

impl Deserialize for CacheConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |key: &str| {
            serde::value_get(v, key)
                .ok_or_else(|| serde::DeError::missing_field("CacheConfig", key))
        };
        Ok(CacheConfig {
            name: intern_name(&String::from_value(field("name")?)?),
            sets: usize::from_value(field("sets")?)?,
            ways: usize::from_value(field("ways")?)?,
            latency: u64::from_value(field("latency")?)?,
        })
    }
}

/// Hit/miss/fill counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines filled (demand + prefetch).
    pub fills: u64,
    /// Fills triggered by prefetches.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by a prefetch (useful prefetches).
    pub prefetch_useful: u64,
}

impl CacheStats {
    /// Demand hit rate in `[0, 1]`; 1 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU stamp (bigger = more recent).
    lru: u64,
    /// Cycle at which the fill completes; hits before this merge with the
    /// outstanding fill.
    ready: u64,
    /// The line was filled by a prefetch and not yet demanded.
    prefetched: bool,
}

/// A set-associative, LRU, 64 B-line cache.
///
/// Lookups and fills operate on *line addresses* derived internally from
/// byte addresses; callers pass full [`Addr`]s.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    lines: Box<[Line]>,
    stamp: u64,
    stats: CacheStats,
}

/// Result of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present; data available at the given cycle (accounts for an
    /// in-flight fill plus the hit latency).
    Hit {
        /// Cycle when data is available.
        ready: u64,
    },
    /// Line absent.
    Miss,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if sets or ways are zero or sets is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two() && cfg.sets > 0,
            "sets must be a power of two"
        );
        assert!(cfg.ways > 0, "ways must be nonzero");
        let n = cfg.sets * cfg.ways;
        SetAssocCache {
            cfg,
            lines: vec![Line::default(); n].into_boxed_slice(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_ways(&mut self, addr: Addr) -> (&mut [Line], u64) {
        let line = addr.raw() >> 6;
        let set = (line as usize) & (self.cfg.sets - 1);
        let base = set * self.cfg.ways;
        (&mut self.lines[base..base + self.cfg.ways], line)
    }

    /// Checks presence without touching LRU or statistics (tag probe).
    pub fn probe(&self, addr: Addr) -> bool {
        let line = addr.raw() >> 6;
        let set = (line as usize) & (self.cfg.sets - 1);
        let base = set * self.cfg.ways;
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == line)
    }

    /// Demand lookup at cycle `now`: updates LRU and statistics.
    pub fn lookup(&mut self, addr: Addr, now: u64) -> LookupResult {
        self.stamp += 1;
        let stamp = self.stamp;
        let latency = self.cfg.latency;
        let (ways, line) = self.set_ways(addr);
        for l in ways.iter_mut() {
            if l.valid && l.tag == line {
                l.lru = stamp;
                let was_prefetched = std::mem::take(&mut l.prefetched);
                let ready = l.ready.max(now) + latency;
                self.stats.hits += 1;
                if was_prefetched {
                    self.stats.prefetch_useful += 1;
                }
                return LookupResult::Hit { ready };
            }
        }
        self.stats.misses += 1;
        LookupResult::Miss
    }

    /// Installs a line whose fill completes at `ready`. Returns the evicted
    /// line address, if a valid line was displaced.
    pub fn fill(&mut self, addr: Addr, ready: u64, prefetch: bool) -> Option<Addr> {
        self.stamp += 1;
        let stamp = self.stamp;
        let (ways, line) = self.set_ways(addr);
        // Already present (racing fills): refresh.
        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == line) {
            l.ready = l.ready.min(ready);
            l.lru = stamp;
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways is nonempty");
        let evicted = victim.valid.then(|| Addr::new(victim.tag << 6));
        *victim = Line {
            tag: line,
            valid: true,
            lru: stamp,
            ready,
            prefetched: prefetch,
        };
        self.stats.fills += 1;
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        evicted
    }

    /// Invalidates a line if present; returns whether it was present.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (ways, line) = self.set_ways(addr);
        for l in ways.iter_mut() {
            if l.valid && l.tag == line {
                l.valid = false;
                return true;
            }
        }
        false
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

sim_isa::state_fields!(SetAssocCache { lines, stamp, stats } skip { cfg });
sim_isa::state_fields!(Line { tag, valid, lru, ready, prefetched } skip {});
sim_isa::state_fields!(CacheStats { hits, misses, fills, prefetch_fills, prefetch_useful } skip {});

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            name: "t",
            sets: 2,
            ways: 2,
            latency: 3,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let a = Addr::new(0x1000);
        assert_eq!(c.lookup(a, 0), LookupResult::Miss);
        c.fill(a, 10, false);
        match c.lookup(a, 20) {
            LookupResult::Hit { ready } => assert_eq!(ready, 23),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hit_under_fill_merges() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 100, false);
        match c.lookup(a, 5) {
            LookupResult::Hit { ready } => assert_eq!(ready, 103, "waits for the fill"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Same set: set index from line bits; sets=2 → bit 6 picks the set.
        let a = Addr::new(0x000);
        let b = Addr::new(0x100);
        let d = Addr::new(0x200);
        c.fill(a, 0, false);
        c.fill(b, 0, false);
        c.lookup(a, 1); // a most recent
        let evicted = c.fill(d, 2, false);
        assert_eq!(evicted, Some(b));
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        let a = Addr::new(0x80);
        c.fill(a, 0, false);
        let before = *c.stats();
        assert!(c.probe(a));
        assert!(!c.probe(Addr::new(0xfc0)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn same_line_offsets_alias() {
        let mut c = tiny();
        c.fill(Addr::new(0x1000), 0, false);
        assert!(c.probe(Addr::new(0x103f)));
        assert!(!c.probe(Addr::new(0x1040)));
    }

    #[test]
    fn prefetch_usefulness_tracked() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 0, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        c.lookup(a, 1);
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second hit no longer counts as prefetch-useful.
        c.lookup(a, 2);
        assert_eq!(c.stats().prefetch_useful, 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 0, false);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn duplicate_fill_keeps_single_copy() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 10, false);
        c.fill(a, 5, false);
        assert_eq!(c.occupancy(), 1);
        match c.lookup(a, 0) {
            LookupResult::Hit { ready } => assert_eq!(ready, 8, "earlier fill wins"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.lookup(a, 0);
        c.fill(a, 0, false);
        c.lookup(a, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_bytes() {
        let cfg = CacheConfig {
            name: "l1i",
            sets: 64,
            ways: 8,
            latency: 4,
        };
        assert_eq!(cfg.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            name: "x",
            sets: 3,
            ways: 1,
            latency: 1,
        });
    }
}
