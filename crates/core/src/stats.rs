//! Simulation statistics: everything the paper's tables and figures need.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use ucp_bpred::Provider;

/// A counter pair (events, mispredictions) used by the Fig. 6 buckets.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BucketCount {
    /// Predictions observed in this bucket.
    pub preds: u64,
    /// Of those, mispredictions.
    pub misses: u64,
}

impl BucketCount {
    /// Miss rate in percent; 0 when empty.
    pub fn miss_rate_pct(&self) -> f64 {
        if self.preds == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.preds as f64
        }
    }
}

/// H2P classification counters for one confidence estimator (Fig. 9).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct H2pCounts {
    /// Conditional predictions marked H2P.
    pub marked: u64,
    /// Marked predictions that actually mispredicted.
    pub marked_mispredicted: u64,
    /// All conditional mispredictions.
    pub mispredicted: u64,
}

impl H2pCounts {
    /// Coverage: mispredictions that were marked H2P, in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.mispredicted == 0 {
            0.0
        } else {
            100.0 * self.marked_mispredicted as f64 / self.mispredicted as f64
        }
    }

    /// Accuracy: marked H2P predictions that mispredicted, in percent.
    pub fn accuracy_pct(&self) -> f64 {
        if self.marked == 0 {
            0.0
        } else {
            100.0 * self.marked_mispredicted as f64 / self.marked as f64
        }
    }
}

/// UCP engine statistics (§VI-C/D and Fig. 13–15).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UcpStats {
    /// Alternate paths started (H2P triggers).
    pub walks_started: u64,
    /// Walks stopped by the saturating-weight threshold.
    pub stopped_threshold: u64,
    /// Walks stopped by a BTB miss (weight ∞).
    pub stopped_btb_miss: u64,
    /// Walks stopped by an indirect branch without Alt-Ind.
    pub stopped_indirect: u64,
    /// Walks stopped by the branch-free instruction counter.
    pub stopped_no_branch: u64,
    /// Walks preempted by a newer H2P trigger.
    pub preempted: u64,
    /// Cache lines prefetched by the alternate path.
    pub lines_prefetched: u64,
    /// µ-op cache entries inserted by the alternate path.
    pub entries_inserted: u64,
    /// Prefetched entries first-used while their trigger was recent
    /// (timely, the Fig. 14 numerator).
    pub timely_used: u64,
    /// Prefetched entries first-used later (the "used even though the
    /// alternate path was wrong for this instance" 8% statistic).
    pub late_used: u64,
    /// Tag checks filtered because the entry was already cached.
    pub filtered_present: u64,
    /// Alternate-path BTB bank conflicts observed.
    pub btb_conflicts: u64,
    /// Demand windows the alternate path stole after saturating the
    /// 3-bit conflict counter.
    pub demand_steals: u64,
    /// µ-ops decoded by the alternate decoders.
    pub alt_decoded_uops: u64,
}

impl UcpStats {
    /// Counter-wise difference `self - earlier` (measurement windowing).
    pub fn delta_since(&self, earlier: &UcpStats) -> UcpStats {
        UcpStats {
            walks_started: self.walks_started - earlier.walks_started,
            stopped_threshold: self.stopped_threshold - earlier.stopped_threshold,
            stopped_btb_miss: self.stopped_btb_miss - earlier.stopped_btb_miss,
            stopped_indirect: self.stopped_indirect - earlier.stopped_indirect,
            stopped_no_branch: self.stopped_no_branch - earlier.stopped_no_branch,
            preempted: self.preempted - earlier.preempted,
            lines_prefetched: self.lines_prefetched - earlier.lines_prefetched,
            entries_inserted: self.entries_inserted - earlier.entries_inserted,
            timely_used: self.timely_used - earlier.timely_used,
            late_used: self.late_used - earlier.late_used,
            filtered_present: self.filtered_present - earlier.filtered_present,
            btb_conflicts: self.btb_conflicts - earlier.btb_conflicts,
            demand_steals: self.demand_steals - earlier.demand_steals,
            alt_decoded_uops: self.alt_decoded_uops - earlier.alt_decoded_uops,
        }
    }

    /// Prefetch accuracy at entry granularity (Fig. 14): timely / inserted.
    pub fn prefetch_accuracy_pct(&self) -> f64 {
        if self.entries_inserted == 0 {
            0.0
        } else {
            100.0 * self.timely_used as f64 / self.entries_inserted as f64
        }
    }

    /// Share of inserted entries used late (§VI-D's 8%).
    pub fn late_use_pct(&self) -> f64 {
        if self.entries_inserted == 0 {
            0.0
        } else {
            100.0 * self.late_used as f64 / self.entries_inserted as f64
        }
    }
}

sim_isa::state_fields!(UcpStats {
    walks_started, stopped_threshold, stopped_btb_miss, stopped_indirect, stopped_no_branch,
    preempted, lines_prefetched, entries_inserted, timely_used, late_used, filtered_present,
    btb_conflicts, demand_steals, alt_decoded_uops,
} skip {});

/// Full per-run statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Instructions committed in the measurement window.
    pub instructions: u64,
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// µ-ops delivered from the µ-op cache.
    pub uops_from_uop_cache: u64,
    /// µ-ops delivered through L1I + decoders.
    pub uops_from_decode: u64,
    /// Stream↔build mode switches.
    pub mode_switches: u64,
    /// Conditional branches resolved.
    pub cond_branches: u64,
    /// Conditional branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-branch mispredictions (including returns).
    pub indirect_mispredicts: u64,
    /// BTB-miss re-steers charged.
    pub btb_resteers: u64,
    /// L1I demand accesses / misses (measurement window).
    pub l1i_accesses: u64,
    /// L1I demand misses.
    pub l1i_misses: u64,
    /// µ-op cache demand lookups (window granularity).
    pub uop_lookups: u64,
    /// µ-op cache demand hits.
    pub uop_hits: u64,
    /// Prefetches issued by the standalone L1I prefetcher.
    pub l1i_prefetches_issued: u64,
    /// µ-ops streamed by the MRC on misprediction hits.
    pub mrc_streamed_uops: u64,
    /// Per-(provider, counter-bucket) misprediction counts (Fig. 6).
    #[serde(with = "map_as_pairs")]
    pub provider_buckets: BTreeMap<(Provider, i32), BucketCount>,
    /// Per-provider totals (Fig. 7).
    #[serde(with = "map_as_pairs")]
    pub provider_totals: BTreeMap<Provider, BucketCount>,
    /// TAGE-Conf H2P classification (Fig. 9).
    pub h2p_tage: H2pCounts,
    /// UCP-Conf H2P classification (Fig. 9).
    pub h2p_ucp: H2pCounts,
    /// UCP engine statistics.
    pub ucp: UcpStats,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// µ-op cache hit rate at the µ-op level, in percent: the fraction of
    /// delivered µ-ops that came from the µ-op cache (the paper's Fig. 3
    /// per-instruction hit rate).
    pub fn uop_hit_rate_pct(&self) -> f64 {
        let total = self.uops_from_uop_cache + self.uops_from_decode;
        if total == 0 {
            0.0
        } else {
            100.0 * self.uops_from_uop_cache as f64 / total as f64
        }
    }

    /// Mode switches per kilo-instruction (Fig. 3).
    pub fn switch_pki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.mode_switches as f64 / self.instructions as f64
        }
    }

    /// Conditional-branch MPKI (Fig. 11).
    pub fn cond_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.cond_mispredicts as f64 / self.instructions as f64
        }
    }

    /// L1I miss rate in percent.
    pub fn l1i_miss_rate_pct(&self) -> f64 {
        if self.l1i_accesses == 0 {
            0.0
        } else {
            100.0 * self.l1i_misses as f64 / self.l1i_accesses as f64
        }
    }

    /// Records one resolved conditional prediction into the Fig. 6/7
    /// buckets. `value` is the provider-specific confidence value
    /// (counter, SC sum, or loop confidence); SC sums are bucketed by
    /// magnitude range like the paper's Fig. 6b.
    pub fn record_provider(&mut self, provider: Provider, value: i32, mispredicted: bool) {
        let bucket_key = match provider {
            Provider::Sc => {
                let m = value.unsigned_abs();
                if m < 32 {
                    0
                } else if m < 64 {
                    32
                } else if m < 128 {
                    64
                } else {
                    128
                }
            }
            _ => value,
        };
        let b = self
            .provider_buckets
            .entry((provider, bucket_key))
            .or_default();
        b.preds += 1;
        b.misses += u64::from(mispredicted);
        let t = self.provider_totals.entry(provider).or_default();
        t.preds += 1;
        t.misses += u64::from(mispredicted);
    }

    /// Share of all mispredictions attributed to `provider`, in percent
    /// (Fig. 7).
    pub fn provider_miss_share_pct(&self, provider: Provider) -> f64 {
        let total: u64 = self.provider_totals.values().map(|b| b.misses).sum();
        if total == 0 {
            return 0.0;
        }
        let own = self.provider_totals.get(&provider).map_or(0, |b| b.misses);
        100.0 * own as f64 / total as f64
    }
}

/// Serializes `BTreeMap`s with non-string keys as vectors of pairs, so
/// statistics round-trip through JSON (used by the figure-result cache).
mod map_as_pairs {
    use serde::{DeError, Deserialize, Serialize, Value};
    use std::collections::BTreeMap;

    pub fn to_value<K, V>(map: &BTreeMap<K, V>) -> Value
    where
        K: Serialize,
        V: Serialize,
    {
        Value::Seq(
            map.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    pub fn from_value<K, V>(v: &Value) -> Result<BTreeMap<K, V>, DeError>
    where
        K: Deserialize + Ord,
        V: Deserialize,
    {
        serde::as_seq(v, "pair list")?
            .iter()
            .map(|pair| {
                let s = serde::as_seq(pair, "[key, value] pair")?;
                if s.len() != 2 {
                    return Err(DeError::new("expected [key, value] pair"));
                }
                Ok((K::from_value(&s[0])?, V::from_value(&s[1])?))
            })
            .collect()
    }
}

/// Geometric mean of per-workload speedups `new/base`, as a percentage
/// improvement (the paper's headline metric).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn geomean_speedup_pct(base_ipc: &[f64], new_ipc: &[f64]) -> f64 {
    assert_eq!(base_ipc.len(), new_ipc.len());
    if base_ipc.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = base_ipc
        .iter()
        .zip(new_ipc)
        .map(|(&b, &n)| (n / b).ln())
        .sum();
    ((log_sum / base_ipc.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            instructions: 1000,
            cycles: 500,
            uops_from_uop_cache: 700,
            uops_from_decode: 300,
            mode_switches: 5,
            cond_mispredicts: 3,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-9);
        assert!((s.uop_hit_rate_pct() - 70.0).abs() < 1e-9);
        assert!((s.switch_pki() - 5.0).abs() < 1e-9);
        assert!((s.cond_mpki() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.uop_hit_rate_pct(), 0.0);
        assert_eq!(s.cond_mpki(), 0.0);
        assert_eq!(s.ucp.prefetch_accuracy_pct(), 0.0);
    }

    #[test]
    fn provider_buckets_accumulate() {
        let mut s = SimStats::default();
        s.record_provider(Provider::HitBank, 3, false);
        s.record_provider(Provider::HitBank, 3, true);
        s.record_provider(Provider::AltBank, -1, true);
        let b = s.provider_buckets[&(Provider::HitBank, 3)];
        assert_eq!(b.preds, 2);
        assert_eq!(b.misses, 1);
        assert!((b.miss_rate_pct() - 50.0).abs() < 1e-9);
        assert!((s.provider_miss_share_pct(Provider::AltBank) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sc_values_bucket_by_magnitude() {
        let mut s = SimStats::default();
        s.record_provider(Provider::Sc, -40, true);
        s.record_provider(Provider::Sc, 45, false);
        assert_eq!(s.provider_buckets[&(Provider::Sc, 32)].preds, 2);
    }

    #[test]
    fn h2p_math() {
        let h = H2pCounts {
            marked: 200,
            marked_mispredicted: 30,
            mispredicted: 60,
        };
        assert!((h.coverage_pct() - 50.0).abs() < 1e-9);
        assert!((h.accuracy_pct() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_speedup() {
        let base = [1.0, 2.0];
        let new = [1.1, 2.2];
        let g = geomean_speedup_pct(&base, &new);
        assert!((g - 10.0).abs() < 1e-6, "{g}");
        assert_eq!(geomean_speedup_pct(&[], &[]), 0.0);
    }

    #[test]
    fn sim_stats_round_trip_through_json() {
        let mut s = SimStats {
            cycles: 123_456,
            instructions: 654_321,
            ..Default::default()
        };
        s.record_provider(Provider::HitBank, -17, true);
        s.record_provider(Provider::Sc, 45, false);
        s.h2p_tage = H2pCounts {
            marked: 9,
            marked_mispredicted: 3,
            mispredicted: 5,
        };
        s.ucp.entries_inserted = 42;
        let text = serde_json::to_string(&s).unwrap();
        let back: SimStats = serde_json::from_str(&text).unwrap();
        // SimStats has no PartialEq (it never needs one at runtime);
        // re-serializing proves field-for-field equality instead.
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        assert_eq!(back.cycles, 123_456);
        assert_eq!(back.provider_buckets[&(Provider::Sc, 32)].preds, 1);
    }

    #[test]
    fn ucp_accuracy_math() {
        let u = UcpStats {
            entries_inserted: 100,
            timely_used: 67,
            late_used: 8,
            ..UcpStats::default()
        };
        assert!((u.prefetch_accuracy_pct() - 67.0).abs() < 1e-9);
        assert!((u.late_use_pct() - 8.0).abs() < 1e-9);
    }
}
