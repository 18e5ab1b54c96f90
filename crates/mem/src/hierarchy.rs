//! The composite memory hierarchy: L1I/L1D → L2 → LLC → DRAM plus TLBs.

use crate::cache::{CacheConfig, LookupResult, SetAssocCache};
use crate::dram::{Dram, DramConfig};
use crate::mshr::Mshr;
use crate::tlb::{Tlb, TlbConfig};
use serde::{Deserialize, Serialize};
use sim_isa::Addr;
use ucp_telemetry::{Category, Counter, Histogram, Telemetry, Tracer};

/// The level that serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HitLevel {
    /// First-level cache (L1I or L1D depending on the port).
    L1,
    /// Unified L2.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

/// A completed access: when the data arrives and where it was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which data is available to the requester.
    pub ready: u64,
    /// Level that provided the line.
    pub level: HitLevel,
}

/// The request was rejected because the level-1 MSHR is full; retry later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrFull;

impl std::fmt::Display for MshrFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("level-1 MSHR full")
    }
}

impl std::error::Error for MshrFull {}

/// Full hierarchy configuration (Table II of the paper).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// L1I MSHR entries.
    pub l1i_mshr: usize,
    /// L1D MSHR entries.
    pub l1d_mshr: usize,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Second-level TLB.
    pub stlb: TlbConfig,
    /// Page-walk latency (cycles) on an STLB miss.
    pub page_walk_latency: u64,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The paper's Table II configuration (Intel Alder Lake P-core class).
    pub fn alder_lake() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                name: "L1I",
                sets: 64,
                ways: 8,
                latency: 4,
            },
            l1d: CacheConfig {
                name: "L1D",
                sets: 64,
                ways: 12,
                latency: 5,
            },
            l2: CacheConfig {
                name: "L2",
                sets: 1024,
                ways: 20,
                latency: 10,
            },
            llc: CacheConfig {
                name: "LLC",
                sets: 4096,
                ways: 12,
                latency: 40,
            },
            l1i_mshr: 16,
            l1d_mshr: 16,
            itlb: TlbConfig {
                name: "ITLB",
                entries: 256,
                ways: 8,
                latency: 1,
            },
            dtlb: TlbConfig {
                name: "DTLB",
                entries: 96,
                ways: 6,
                latency: 1,
            },
            stlb: TlbConfig {
                name: "STLB",
                entries: 2048,
                ways: 16,
                latency: 8,
            },
            page_walk_latency: 80,
            dram: DramConfig::alder_lake(),
        }
    }
}

/// Telemetry handles for the `mem.*` namespace. Detached by default (the
/// counters still tick into unobservable cells, which keeps every
/// increment site branch-free); [`Hierarchy::attach_telemetry`] rebinds
/// them to a live registry.
#[derive(Clone, Debug, Default)]
struct MemTelemetry {
    tracer: Tracer,
    l1i_demand_misses: Counter,
    l1d_demand_misses: Counter,
    l1i_mshr_full: Counter,
    l1d_mshr_full: Counter,
    l1i_mshr_occupancy: Histogram,
    l1i_fill_from_l2: Counter,
    l1i_fill_from_llc: Counter,
    l1i_fill_from_dram: Counter,
}

impl MemTelemetry {
    fn bound_to(t: &Telemetry) -> Self {
        MemTelemetry {
            tracer: t.tracer.clone(),
            l1i_demand_misses: t.registry.counter("mem.l1i.demand_misses"),
            l1d_demand_misses: t.registry.counter("mem.l1d.demand_misses"),
            l1i_mshr_full: t.registry.counter("mem.l1i.mshr_full_stalls"),
            l1d_mshr_full: t.registry.counter("mem.l1d.mshr_full_stalls"),
            l1i_mshr_occupancy: t.registry.histogram("mem.l1i.mshr_occupancy"),
            l1i_fill_from_l2: t.registry.counter("mem.l1i.fill_from_l2"),
            l1i_fill_from_llc: t.registry.counter("mem.l1i.fill_from_llc"),
            l1i_fill_from_dram: t.registry.counter("mem.l1i.fill_from_dram"),
        }
    }

    /// Counts which level serviced an L1I demand miss — the interval
    /// exporters use the split to tell short (L2-hit) from long (DRAM)
    /// frontend stall phases apart.
    fn record_l1i_fill(&self, level: HitLevel) {
        match level {
            HitLevel::L1 => {}
            HitLevel::L2 => self.l1i_fill_from_l2.inc(),
            HitLevel::Llc => self.l1i_fill_from_llc.inc(),
            HitLevel::Dram => self.l1i_fill_from_dram.inc(),
        }
    }
}

/// The memory system: two L1 ports over a shared L2/LLC/DRAM, with TLBs.
///
/// See the crate docs for the timing model. All methods take the current
/// cycle and return absolute completion cycles.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    l1i_mshr: Mshr,
    l1d_mshr: Mshr,
    itlb: Tlb,
    dtlb: Tlb,
    stlb: Tlb,
    page_walk_latency: u64,
    dram: Dram,
    tele: MemTelemetry,
}

impl Hierarchy {
    /// Creates a cold hierarchy.
    pub fn new(cfg: &HierarchyConfig) -> Self {
        Hierarchy {
            l1i: SetAssocCache::new(cfg.l1i.clone()),
            l1d: SetAssocCache::new(cfg.l1d.clone()),
            l2: SetAssocCache::new(cfg.l2.clone()),
            llc: SetAssocCache::new(cfg.llc.clone()),
            l1i_mshr: Mshr::new(cfg.l1i_mshr),
            l1d_mshr: Mshr::new(cfg.l1d_mshr),
            itlb: Tlb::new(&cfg.itlb),
            dtlb: Tlb::new(&cfg.dtlb),
            stlb: Tlb::new(&cfg.stlb),
            page_walk_latency: cfg.page_walk_latency,
            dram: Dram::new(&cfg.dram),
            tele: MemTelemetry::default(),
        }
    }

    /// Binds the `mem.*` counters/histograms and the `Mem` trace category
    /// to `t`'s registry and tracer.
    pub fn attach_telemetry(&mut self, t: &Telemetry) {
        self.tele = MemTelemetry::bound_to(t);
    }

    /// Translation latency through ITLB/DTLB (+STLB, +walk).
    fn translate(&mut self, addr: Addr, now: u64, inst_side: bool) -> u64 {
        let first = if inst_side {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        if let Some(lat) = first.lookup(addr, now) {
            return lat;
        }
        if let Some(lat) = self.stlb.lookup(addr, now) {
            if inst_side {
                self.itlb.fill(addr);
            } else {
                self.dtlb.fill(addr);
            }
            return 1 + lat;
        }
        self.stlb.fill(addr);
        if inst_side {
            self.itlb.fill(addr);
        } else {
            self.dtlb.fill(addr);
        }
        1 + 8 + self.page_walk_latency
    }

    /// Walks L2 → LLC → DRAM for a line missing in an L1, filling on the
    /// way back. `t` is the cycle the L1 miss is detected.
    fn fetch_from_l2(&mut self, addr: Addr, t: u64, prefetch: bool) -> (u64, HitLevel) {
        if let LookupResult::Hit { ready } = self.l2.lookup(addr, t) {
            return (ready, HitLevel::L2);
        }
        let t2 = t + self.l2.config().latency;
        if let LookupResult::Hit { ready } = self.llc.lookup(addr, t2) {
            self.l2.fill(addr, ready, prefetch);
            return (ready, HitLevel::Llc);
        }
        let t3 = t2 + self.llc.config().latency;
        let ready = self.dram.access(addr, t3);
        self.llc.fill(addr, ready, prefetch);
        self.l2.fill(addr, ready, prefetch);
        (ready, HitLevel::Dram)
    }

    /// Instruction-side access (demand fetch or prefetch) for the line
    /// containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] if the L1I MSHR cannot take another miss; the
    /// caller should retry on a later cycle.
    pub fn access_inst(
        &mut self,
        addr: Addr,
        now: u64,
        prefetch: bool,
    ) -> Result<Access, MshrFull> {
        self.l1i_mshr.drain(now);
        self.tele
            .l1i_mshr_occupancy
            .observe(self.l1i_mshr.occupancy() as u64);
        if prefetch {
            // Prefetches bypass the demand hit/miss statistics: a resident
            // line makes the request a no-op, a miss walks the hierarchy
            // and fills with prefetch attribution.
            if self.l1i.probe(addr) {
                return Ok(Access {
                    ready: now + self.l1i.config().latency,
                    level: HitLevel::L1,
                });
            }
            if self.l1i_mshr.is_full() {
                self.tele.l1i_mshr_full.inc();
                self.tele.tracer.emit(Category::Mem, "mshr_full", || {
                    format!("level=l1i kind=prefetch line={:#x}", addr.raw())
                });
                return Err(MshrFull);
            }
            let t_miss = now + 1 + self.l1i.config().latency;
            let (ready, level) = self.fetch_from_l2(addr, t_miss, true);
            self.l1i_mshr.allocate(addr, ready);
            self.l1i.fill(addr, ready, true);
            return Ok(Access { ready, level });
        }
        let xlat = self.translate(addr, now, true);
        let t = now + xlat;
        match self.l1i.lookup(addr, t) {
            LookupResult::Hit { ready } => Ok(Access {
                ready,
                level: HitLevel::L1,
            }),
            LookupResult::Miss => {
                if self.l1i_mshr.is_full() {
                    self.tele.l1i_mshr_full.inc();
                    self.tele.tracer.emit(Category::Mem, "mshr_full", || {
                        format!("level=l1i kind=demand line={:#x}", addr.raw())
                    });
                    return Err(MshrFull);
                }
                self.tele.l1i_demand_misses.inc();
                let t_miss = t + self.l1i.config().latency;
                let (ready, level) = self.fetch_from_l2(addr, t_miss, false);
                self.tele.record_l1i_fill(level);
                self.l1i_mshr.allocate(addr, ready);
                self.l1i.fill(addr, ready, false);
                self.tele.tracer.emit(Category::Mem, "l1i_miss", || {
                    format!("line={:#x} served_by={level:?} ready={ready}", addr.raw())
                });
                Ok(Access { ready, level })
            }
        }
    }

    /// Data-side access for the line containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] if the L1D MSHR cannot take another miss.
    pub fn access_data(&mut self, addr: Addr, now: u64, _store: bool) -> Result<Access, MshrFull> {
        self.l1d_mshr.drain(now);
        let xlat = self.translate(addr, now, false);
        let t = now + xlat;
        match self.l1d.lookup(addr, t) {
            LookupResult::Hit { ready } => Ok(Access {
                ready,
                level: HitLevel::L1,
            }),
            LookupResult::Miss => {
                if self.l1d_mshr.is_full() {
                    self.tele.l1d_mshr_full.inc();
                    self.tele.tracer.emit(Category::Mem, "mshr_full", || {
                        format!("level=l1d line={:#x}", addr.raw())
                    });
                    return Err(MshrFull);
                }
                self.tele.l1d_demand_misses.inc();
                let t_miss = t + self.l1d.config().latency;
                let (ready, level) = self.fetch_from_l2(addr, t_miss, false);
                self.l1d_mshr.allocate(addr, ready);
                self.l1d.fill(addr, ready, false);
                Ok(Access { ready, level })
            }
        }
    }

    /// Tag-probe of the L1I without side effects (used by the `L1I-Hits`
    /// idealization and by prefetchers that filter resident lines).
    pub fn probe_l1i(&self, addr: Addr) -> bool {
        self.l1i.probe(addr)
    }

    /// L1I statistics.
    pub fn l1i_stats(&self) -> &crate::cache::CacheStats {
        self.l1i.stats()
    }
}

// Telemetry handles are rebound by `attach_telemetry`, not checkpointed.
sim_isa::state_fields!(Hierarchy {
    l1i, l1d, l2, llc, l1i_mshr, l1d_mshr, itlb, dtlb, stlb, dram,
} skip { page_walk_latency, tele });

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(&HierarchyConfig::alder_lake())
    }

    #[test]
    fn cold_inst_access_goes_to_dram() {
        let mut h = hier();
        let a = h.access_inst(Addr::new(0x8000), 0, false).unwrap();
        assert_eq!(a.level, HitLevel::Dram);
        assert!(a.ready > 150, "must include DRAM latency: {}", a.ready);
    }

    #[test]
    fn warm_inst_access_hits_l1() {
        let mut h = hier();
        let first = h.access_inst(Addr::new(0x8000), 0, false).unwrap();
        let again = h
            .access_inst(Addr::new(0x8000), first.ready + 1, false)
            .unwrap();
        assert_eq!(again.level, HitLevel::L1);
        assert_eq!(again.ready, first.ready + 1 + 1 + 4, "xlat + L1I latency");
    }

    #[test]
    fn l1i_eviction_leaves_line_in_l2() {
        let mut h = hier();
        // Fill far more lines than L1I capacity (512 lines), same L2 set
        // pressure is fine (L2 has 20 ways × 1024 sets).
        for i in 0..2048u64 {
            let _ = h
                .access_inst(Addr::new(0x10_0000 + i * 64), i * 1000, false)
                .unwrap();
        }
        // Re-access line 0: gone from L1I but present in L2.
        let a = h
            .access_inst(Addr::new(0x10_0000), 10_000_000, false)
            .unwrap();
        assert_eq!(a.level, HitLevel::L2);
    }

    #[test]
    fn access_under_miss_merges() {
        let mut h = hier();
        let a = h.access_inst(Addr::new(0x9000), 0, false).unwrap();
        // Second access 2 cycles later: line is in flight; ready must not
        // exceed the first fill by more than the hit latency.
        let b = h.access_inst(Addr::new(0x9000), 2, false).unwrap();
        assert_eq!(
            b.level,
            HitLevel::L1,
            "in-flight line counts as L1 presence"
        );
        assert!(b.ready <= a.ready + 8, "{} vs {}", b.ready, a.ready);
    }

    #[test]
    fn data_and_inst_paths_are_separate_l1s() {
        let mut h = hier();
        let _ = h.access_data(Addr::new(0x7000), 0, false).unwrap();
        assert!(
            !h.probe_l1i(Addr::new(0x7000)),
            "data fill must not enter L1I"
        );
        let i = h.access_inst(Addr::new(0x7000), 1_000_000, false).unwrap();
        assert_eq!(i.level, HitLevel::L2, "but it is in the shared L2");
    }

    #[test]
    fn mshr_full_rejects() {
        let mut cfg = HierarchyConfig::alder_lake();
        cfg.l1i_mshr = 2;
        let mut h = Hierarchy::new(&cfg);
        assert!(h.access_inst(Addr::new(0x0000), 0, false).is_ok());
        assert!(h.access_inst(Addr::new(0x1000), 0, false).is_ok());
        let third = h.access_inst(Addr::new(0x2000), 0, false);
        assert_eq!(third.unwrap_err(), MshrFull);
        // After the fills complete, capacity frees up.
        assert!(h.access_inst(Addr::new(0x2000), 100_000, false).is_ok());
    }

    #[test]
    fn prefetch_fills_are_attributed() {
        let mut h = hier();
        let _ = h.access_inst(Addr::new(0xa000), 0, true).unwrap();
        assert_eq!(h.l1i_stats().prefetch_fills, 1);
        let _ = h.access_inst(Addr::new(0xa000), 1_000_000, false).unwrap();
        assert_eq!(h.l1i_stats().prefetch_useful, 1);
    }

    #[test]
    fn probe_l1i_matches_contents() {
        let mut h = hier();
        assert!(!h.probe_l1i(Addr::new(0xb000)));
        let _ = h.access_inst(Addr::new(0xb000), 0, false).unwrap();
        assert!(h.probe_l1i(Addr::new(0xb000)));
    }

    #[test]
    fn telemetry_counts_misses_and_stalls() {
        let t = Telemetry::with_trace(ucp_telemetry::CategorySet::parse("mem").unwrap(), 32);
        let mut cfg = HierarchyConfig::alder_lake();
        cfg.l1i_mshr = 1;
        let mut h = Hierarchy::new(&cfg);
        h.attach_telemetry(&t);
        let _ = h.access_inst(Addr::new(0x0000), 0, false).unwrap();
        assert!(
            h.access_inst(Addr::new(0x1000), 0, false).is_err(),
            "MSHR of 1 is full"
        );
        let snap = t.registry.snapshot();
        assert_eq!(snap.counters["mem.l1i.demand_misses"], 1);
        assert_eq!(snap.counters["mem.l1i.mshr_full_stalls"], 1);
        // Cold miss: the fill came all the way from DRAM.
        assert_eq!(snap.counters["mem.l1i.fill_from_dram"], 1);
        // Zero-valued counters are omitted from snapshots entirely.
        assert!(!snap.counters.contains_key("mem.l1i.fill_from_l2"));
        assert_eq!(snap.histograms["mem.l1i.mshr_occupancy"].count, 2);
        assert!(t.tracer.events().iter().any(|e| e.name == "mshr_full"));
    }

    #[test]
    fn tlb_miss_costs_show_up() {
        let mut h = hier();
        // First touch of a page: pays the page walk.
        let a = h.access_inst(Addr::new(0x40_0000), 0, false).unwrap();
        // A different line in the same (now cached) page and same L1I state.
        let b = h.access_inst(Addr::new(0x40_0040), 0, false).unwrap();
        assert!(a.ready > b.ready, "first access paid a page walk");
    }
}
