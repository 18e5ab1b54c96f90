//! Simulator configuration: the paper's Table II baseline plus every knob
//! the evaluation sweeps (µ-op cache model, L1I prefetcher, idealizations,
//! MRC, and the UCP engine itself).

use serde::{Deserialize, Serialize};
use ucp_bpred::SclPreset;
use ucp_frontend::{BtbConfig, UopCacheConfig};
use ucp_mem::HierarchyConfig;

/// How the µ-op cache is modelled.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UopCacheModel {
    /// No µ-op cache: every µ-op flows through L1I + decoders
    /// (the Fig. 2/Fig. 10 baseline denominator).
    None,
    /// A real µ-op cache with the given geometry.
    Real(UopCacheConfig),
    /// An ideal µ-op cache: every lookup hits (the blue line of Fig. 4).
    Ideal,
}

impl UopCacheModel {
    /// The Table II 4Kops cache.
    pub fn kops_4() -> Self {
        UopCacheModel::Real(UopCacheConfig::kops_4())
    }
}

/// Frontend widths and penalties (Table II, "Frontend Stages" plus §V).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// Fetch-block windows looked up per cycle (2 windows/cycle in Fig. 1).
    pub windows_per_cycle: u32,
    /// µ-ops the µ-op cache can deliver per cycle (8 µ/cycle in Fig. 1).
    pub uops_from_cache_per_cycle: u32,
    /// Decode width on the slow path (6-wide).
    pub decode_width: u32,
    /// Dispatch width (6-wide).
    pub dispatch_width: u32,
    /// FTQ capacity in fetch blocks (192 addresses-worth in Table II).
    pub ftq_entries: usize,
    /// µ-op queue capacity.
    pub uop_queue_entries: usize,
    /// Extra pipeline depth of the µ-op cache path (µ-op cache hit →
    /// dispatch-ready), in cycles.
    pub uop_path_delay: u64,
    /// Extra pipeline depth of the L1I + decoder path, in cycles.
    pub decode_path_delay: u64,
    /// Penalty for switching between stream and build modes (§V: 1 cycle).
    pub mode_switch_penalty: u64,
    /// Consecutive µ-op cache hits in build mode before switching back to
    /// stream mode.
    pub stream_switch_hits: u32,
    /// Address-generation stall when a taken branch misses the BTB and is
    /// discovered at (pre)decode.
    pub btb_resteer_penalty: u64,
    /// Cycles between a mispredicted branch completing and address
    /// generation restarting on the corrected path.
    pub redirect_penalty: u64,
    /// L1I demand fetches issued per cycle from the FTQ (even/odd
    /// interleaved L1I: 2 lines/cycle).
    pub l1i_fetches_per_cycle: u32,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            windows_per_cycle: 2,
            uops_from_cache_per_cycle: 8,
            decode_width: 6,
            dispatch_width: 6,
            ftq_entries: 96, // 192 addresses ≈ 96 two-window blocks
            uop_queue_entries: 64,
            uop_path_delay: 2,
            decode_path_delay: 5,
            mode_switch_penalty: 1,
            stream_switch_hits: 3,
            btb_resteer_penalty: 6,
            redirect_penalty: 2,
            l1i_fetches_per_cycle: 2,
        }
    }
}

/// Backend widths and latencies (Table II, "Backend Stages").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendConfig {
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Commit width.
    pub commit_width: u32,
    /// ALU latency.
    pub lat_alu: u64,
    /// Multiply latency.
    pub lat_mul: u64,
    /// Divide latency.
    pub lat_div: u64,
    /// FP add latency.
    pub lat_fp_add: u64,
    /// FP multiply latency.
    pub lat_fp_mul: u64,
    /// Branch execute latency.
    pub lat_branch: u64,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            rob_entries: 512,
            commit_width: 10,
            lat_alu: 1,
            lat_mul: 3,
            lat_div: 18,
            lat_fp_add: 3,
            lat_fp_mul: 4,
            lat_branch: 1,
        }
    }
}

/// Which baseline L1I prefetcher to attach (§III-C / Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No standalone prefetcher.
    None,
    /// FNL+MMA.
    FnlMma,
    /// FNL+MMA++.
    FnlMmaPlusPlus,
    /// D-JOLT.
    DJolt,
    /// Entangling prefetcher (cost-effective).
    Ep,
    /// Wrong-path-aware entangling prefetcher.
    EpPlusPlus,
}

impl PrefetcherKind {
    /// The Fig. 5 lineup, in the paper's order.
    pub const ALL: [PrefetcherKind; 6] = [
        PrefetcherKind::None,
        PrefetcherKind::FnlMma,
        PrefetcherKind::FnlMmaPlusPlus,
        PrefetcherKind::DJolt,
        PrefetcherKind::Ep,
        PrefetcherKind::EpPlusPlus,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "NONE",
            PrefetcherKind::FnlMma => "FNL-MMA",
            PrefetcherKind::FnlMmaPlusPlus => "FNL-MMA++",
            PrefetcherKind::DJolt => "D-JOLT",
            PrefetcherKind::Ep => "EP",
            PrefetcherKind::EpPlusPlus => "EP++",
        }
    }
}

/// Which confidence estimator triggers UCP (Fig. 12b).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfKind {
    /// Seznec's original TAGE confidence.
    Tage,
    /// The paper's extended estimator.
    Ucp,
}

/// The UCP engine configuration (§IV).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UcpConfig {
    /// Master switch.
    pub enabled: bool,
    /// Attach the 4 KB Alt-Ind ITTAGE (UCP vs UCP-NoIND, Fig. 12a).
    pub use_alt_ind: bool,
    /// Prefetch only into the L1I, skipping decode + µ-op cache fill
    /// (UCP-TillL1I, Fig. 15).
    pub till_l1i: bool,
    /// Share the 6 demand decoders instead of dedicated alt-decoders
    /// (UCP-SharedDecoders, §VI-F).
    pub shared_decoders: bool,
    /// Ignore BTB bank conflicts (UCP-NoBTBConflict, §VI-F).
    pub ideal_btb_banking: bool,
    /// Stopping-heuristic threshold (§IV-E; 500 in the paper, swept in
    /// Fig. 15).
    pub stop_threshold: u32,
    /// Confidence estimator used to detect H2P triggers.
    pub conf: ConfKind,
    /// Alt-FTQ capacity (24 entries, §IV-F).
    pub alt_ftq_entries: usize,
    /// µ-op cache MSHR entries (32, §IV-F).
    pub uop_mshr_entries: usize,
    /// Alternate decode queue capacity (32, §IV-F).
    pub alt_decode_queue: usize,
    /// Dedicated alternate decoders (6, §IV-F).
    pub alt_decoders: u32,
}

impl Default for UcpConfig {
    fn default() -> Self {
        UcpConfig {
            enabled: false,
            use_alt_ind: true,
            till_l1i: false,
            shared_decoders: false,
            ideal_btb_banking: false,
            stop_threshold: 500,
            conf: ConfKind::Ucp,
            alt_ftq_entries: 24,
            uop_mshr_entries: 32,
            alt_decode_queue: 32,
            alt_decoders: 6,
        }
    }
}

/// The complete simulator configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Frontend widths and penalties.
    pub frontend: FrontendConfig,
    /// Backend widths and latencies.
    pub backend: BackendConfig,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// Main conditional predictor preset.
    pub bpred: SclPreset,
    /// µ-op cache model.
    pub uop_cache: UopCacheModel,
    /// Standalone L1I prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Fig. 5's `L1I-Hits` idealization: any line resident in the L1I
    /// counts as a µ-op cache hit.
    pub l1i_hits_ideal: bool,
    /// Fig. 5's `IdealBRCond-N`: after a conditional misprediction, all
    /// fetches count as µ-op cache hits until `N` conditional branches
    /// have been fetched.
    pub ideal_brcond: Option<u32>,
    /// Attach a Misprediction Recovery Cache with this many entries
    /// (Fig. 16).
    pub mrc_entries: Option<usize>,
    /// The UCP engine.
    pub ucp: UcpConfig,
}

impl SimConfig {
    /// The paper's Table II baseline: Alder Lake-class core, 4Kops µ-op
    /// cache, 64 KB TAGE-SC-L, 64 KB ITTAGE, 64K-entry BTB, no prefetcher,
    /// UCP off.
    pub fn baseline() -> Self {
        SimConfig {
            frontend: FrontendConfig::default(),
            backend: BackendConfig::default(),
            mem: HierarchyConfig::alder_lake(),
            btb: BtbConfig::baseline(),
            bpred: SclPreset::Main64K,
            uop_cache: UopCacheModel::kops_4(),
            prefetcher: PrefetcherKind::None,
            l1i_hits_ideal: false,
            ideal_brcond: None,
            mrc_entries: None,
            ucp: UcpConfig::default(),
        }
    }

    /// Baseline without a µ-op cache (Fig. 2 / Fig. 10 denominator).
    pub fn no_uop_cache() -> Self {
        SimConfig {
            uop_cache: UopCacheModel::None,
            ..SimConfig::baseline()
        }
    }

    /// Baseline + the full UCP proposal (Alt-BP + Alt-Ind, dedicated
    /// decoders, threshold 500, UCP-Conf, 32 BTB banks).
    pub fn ucp() -> Self {
        let mut c = SimConfig::baseline();
        c.ucp.enabled = true;
        c.btb = BtbConfig::ucp_32_banks();
        c
    }

    /// UCP without the dedicated indirect predictor (8.95 KB flavour).
    pub fn ucp_no_ind() -> Self {
        let mut c = SimConfig::ucp();
        c.ucp.use_alt_ind = false;
        c
    }

    /// The *additional* storage this configuration uses on top of the
    /// no-extras baseline, in KB — the x-axis of Fig. 16.
    pub fn extra_storage_kb(&self) -> f64 {
        let mut bits = 0.0f64;
        if self.ucp.enabled {
            // Alt-BP 8 KB + Alt-FTQ 0.14 KB + µ-op MSHR 0.19 KB + PQ
            // 0.25 KB + alt decode queue 0.12 KB + Alt-RAS 0.06 KB
            // (§IV-F), plus Alt-Ind 4 KB if present.
            let alt_bp = ucp_bpred::TageScL::new(SclPreset::Alt8K).storage_bits() as f64;
            bits += alt_bp + (0.14 + 0.19 + 0.25 + 0.12 + 0.06) * 8192.0;
            if self.ucp.use_alt_ind {
                bits +=
                    ucp_bpred::Ittage::new(ucp_bpred::IttageParams::alt_4k()).storage_bits() as f64;
            }
        }
        bits += ucp_prefetch::by_name(self.prefetcher.name())
            .expect("every PrefetcherKind has a name")
            .storage_bits() as f64;
        if let Some(entries) = self.mrc_entries {
            bits += ucp_prefetch::Mrc::new(entries).storage_bits() as f64;
        }
        // Larger-than-baseline µ-op cache counts its delta.
        if let UopCacheModel::Real(cfg) = &self.uop_cache {
            let base = UopCacheConfig::kops_4().storage_bits() as f64;
            let this = cfg.storage_bits() as f64;
            if this > base {
                bits += this - base;
            }
        }
        // Larger-than-baseline main predictor counts its delta.
        if self.bpred == SclPreset::Big128K {
            let base = ucp_bpred::TageScL::new(SclPreset::Main64K).storage_bits() as f64;
            bits += ucp_bpred::TageScL::new(SclPreset::Big128K).storage_bits() as f64 - base;
        }
        bits / 8192.0
    }

    /// Self-check printout of the Table II parameters actually
    /// instantiated (the `table2` harness).
    pub fn describe_table2(&self) -> String {
        let uc = match &self.uop_cache {
            UopCacheModel::None => "none".to_owned(),
            UopCacheModel::Ideal => "ideal".to_owned(),
            UopCacheModel::Real(c) => format!(
                "{} ops, {} sets, {} ways, {} uops/entry",
                c.capacity_uops(),
                c.sets,
                c.ways,
                c.uops_per_entry
            ),
        };
        format!(
            "BTB: {} entries, {} banks, {}-way\n\
             Cond predictor: {:?}\n\
             uop cache: {uc}\n\
             Frontend: {} windows/cycle, decode {}, dispatch {}, FTQ {} blocks\n\
             Backend: ROB {}, commit {}\n\
             L1I: {} KB {}c | L1D: {} KB {}c | L2: {} KB {}c | LLC: {} KB {}c",
            self.btb.total_entries,
            self.btb.banks,
            self.btb.ways,
            self.bpred,
            self.frontend.windows_per_cycle,
            self.frontend.decode_width,
            self.frontend.dispatch_width,
            self.frontend.ftq_entries,
            self.backend.rob_entries,
            self.backend.commit_width,
            self.mem.l1i.capacity_bytes() / 1024,
            self.mem.l1i.latency,
            self.mem.l1d.capacity_bytes() / 1024,
            self.mem.l1d.latency,
            self.mem.l2.capacity_bytes() / 1024,
            self.mem.l2.latency,
            self.mem.llc.capacity_bytes() / 1024,
            self.mem.llc.latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_ii() {
        let c = SimConfig::baseline();
        assert_eq!(c.btb.total_entries, 64 * 1024);
        assert_eq!(c.btb.banks, 16);
        assert_eq!(c.backend.rob_entries, 512);
        assert_eq!(c.mem.l1i.capacity_bytes(), 32 * 1024);
        match &c.uop_cache {
            UopCacheModel::Real(u) => assert_eq!(u.capacity_uops(), 4096),
            other => panic!("{other:?}"),
        }
        assert!(!c.ucp.enabled);
    }

    #[test]
    fn ucp_preset_doubles_banks() {
        let c = SimConfig::ucp();
        assert!(c.ucp.enabled);
        assert_eq!(c.btb.banks, 32);
        assert_eq!(c.ucp.stop_threshold, 500);
    }

    #[test]
    fn ucp_storage_overheads_match_paper() {
        // §IV-F: 12.95 KB with Alt-Ind, 8.95 KB without.
        let with_ind = SimConfig::ucp().extra_storage_kb();
        let without = SimConfig::ucp_no_ind().extra_storage_kb();
        assert!((11.0..15.0).contains(&with_ind), "got {with_ind:.2} KB");
        assert!((7.5..10.5).contains(&without), "got {without:.2} KB");
        assert!(with_ind - without > 3.0, "Alt-Ind ≈ 4 KB");
    }

    #[test]
    fn baseline_has_no_extra_storage() {
        assert_eq!(SimConfig::baseline().extra_storage_kb(), 0.0);
    }

    #[test]
    fn prefetcher_storage_counted() {
        let mut c = SimConfig::baseline();
        c.prefetcher = PrefetcherKind::DJolt;
        assert!(c.extra_storage_kb() > 100.0);
    }

    #[test]
    fn describe_table2_mentions_key_numbers() {
        let d = SimConfig::baseline().describe_table2();
        assert!(d.contains("65536 entries"));
        assert!(d.contains("4096 ops"));
        assert!(d.contains("ROB 512"));
    }
}
