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

/// One cache line in 24 bytes: the valid bit rides in bit 63 of the tag
/// (a line address, at most 58 bits wide) and the prefetched bit in bit
/// 63 of the ready cycle.
#[derive(Clone, Copy, Debug, Default)]
struct Line {
    /// Line address, with [`VALID`] set when the line holds data.
    tag: u64,
    /// LRU stamp (bigger = more recent).
    lru: u64,
    /// Cycle at which the fill completes (hits before this merge with the
    /// outstanding fill), with [`PREFETCHED`] set while the line, filled
    /// by a prefetch, has not been demanded.
    ready: u64,
}

/// Tag bit: the line is valid.
const VALID: u64 = 1 << 63;
/// Ready bit: the line was filled by a prefetch and not yet demanded.
const PREFETCHED: u64 = 1 << 63;

impl Line {
    #[inline]
    fn valid(&self) -> bool {
        self.tag & VALID != 0
    }

    #[inline]
    fn ready(&self) -> u64 {
        self.ready & !PREFETCHED
    }
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
            .any(|l| l.tag == line | VALID)
    }

    /// Demand lookup at cycle `now`: updates LRU and statistics.
    pub fn lookup(&mut self, addr: Addr, now: u64) -> LookupResult {
        self.stamp += 1;
        let stamp = self.stamp;
        let latency = self.cfg.latency;
        let (ways, line) = self.set_ways(addr);
        for l in ways.iter_mut() {
            if l.tag == line | VALID {
                l.lru = stamp;
                let was_prefetched = l.ready & PREFETCHED != 0;
                l.ready &= !PREFETCHED;
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
        debug_assert_eq!(ready & PREFETCHED, 0, "fill cycle {ready} out of range");
        // Already present (racing fills): refresh.
        if let Some(l) = ways.iter_mut().find(|l| l.tag == line | VALID) {
            l.ready = l.ready().min(ready) | (l.ready & PREFETCHED);
            l.lru = stamp;
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid() { l.lru } else { 0 })
            .expect("ways is nonempty");
        let evicted = victim
            .valid()
            .then(|| Addr::new((victim.tag & !VALID) << 6));
        *victim = Line {
            tag: line | VALID,
            lru: stamp,
            ready: if prefetch { ready | PREFETCHED } else { ready },
        };
        self.stats.fills += 1;
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        evicted
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }
}

sim_isa::state_fields!(SetAssocCache { lines, stamp, stats } skip { cfg });
/// Writes the five fields of the unpacked line: tag, valid, LRU stamp,
/// ready cycle, prefetched.
impl sim_isa::State for Line {
    fn save_state(&self, w: &mut sim_isa::StateWriter) {
        w.put_u64(self.tag & !VALID);
        w.put_bool(self.valid());
        w.put_u64(self.lru);
        w.put_u64(self.ready());
        w.put_bool(self.ready & PREFETCHED != 0);
    }

    /// # Panics
    ///
    /// Panics if the saved tag or ready cycle has bit 63 set, which save
    /// never writes.
    fn restore_state(&mut self, r: &mut sim_isa::StateReader) {
        let tag = r.get_u64();
        assert_eq!(
            tag & VALID,
            0,
            "checkpoint state corrupt: cache tag {tag:#x} wider than 63 bits"
        );
        let valid = r.get_bool();
        self.lru = r.get_u64();
        let ready = r.get_u64();
        assert_eq!(
            ready & PREFETCHED,
            0,
            "checkpoint state corrupt: cache ready cycle {ready:#x} wider than 63 bits"
        );
        let prefetched = r.get_bool();
        self.tag = if valid { tag | VALID } else { tag };
        self.ready = if prefetched {
            ready | PREFETCHED
        } else {
            ready
        };
    }
}
sim_isa::state_fields!(CacheStats { hits, misses, fills, prefetch_fills, prefetch_useful } skip {});

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::State;

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
    fn a_line_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 24);
    }

    #[test]
    fn lines_checkpoint_as_five_unpacked_fields() {
        let mut c = tiny();
        c.fill(Addr::new(0x40), 7, true);
        let line = c.lines.iter().find(|l| l.valid()).copied().unwrap();
        let mut w = sim_isa::StateWriter::new();
        line.save_state(&mut w);
        let mut expected = sim_isa::StateWriter::new();
        (1u64, true, line.lru).save_state(&mut expected);
        (7u64, true).save_state(&mut expected);
        assert_eq!(w.bytes(), expected.bytes());

        let mut back = Line::default();
        back.restore_state(&mut sim_isa::StateReader::new(w.bytes()));
        assert_eq!(
            (back.tag, back.lru, back.ready),
            (line.tag, line.lru, line.ready)
        );
    }

    #[test]
    #[should_panic(expected = "cache tag 0x8000000000000001 wider than 63 bits")]
    fn restore_rejects_a_tag_with_bit_63_set() {
        let mut w = sim_isa::StateWriter::new();
        (VALID | 1, true, 0u64).save_state(&mut w);
        (0u64, false).save_state(&mut w);
        Line::default().restore_state(&mut sim_isa::StateReader::new(w.bytes()));
    }

    #[test]
    #[should_panic(expected = "cache ready cycle 0x8000000000000005 wider than 63 bits")]
    fn restore_rejects_a_ready_cycle_with_bit_63_set() {
        let mut w = sim_isa::StateWriter::new();
        (1u64, true, 0u64).save_state(&mut w);
        (PREFETCHED | 5, false).save_state(&mut w);
        Line::default().restore_state(&mut sim_isa::StateReader::new(w.bytes()));
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
