//! One function per table/figure of the paper's evaluation. Every report
//! prints the paper's headline numbers next to the measured ones; see
//! EXPERIMENTS.md for the recorded comparison.

use crate::harness::{amean, cached_suite_run, sorted_curve, summary_line};
use ucp_bpred::Provider;
use ucp_core::{
    align_by_workload, geomean_speedup_pct, speedups_pct, ConfKind, Knobs, PrefetcherKind, Profile,
    RunResult, SimConfig, SuiteRun, UopCacheModel,
};
use ucp_frontend::UopCacheConfig;

fn header(id: &str, title: &str, paper: &str, profile: Profile) -> String {
    format!(
        "=== {id}: {title} [profile {}] ===\npaper: {paper}\n",
        profile.tag()
    )
}

/// Per-workload speedups over the workloads present in *both* sets —
/// degraded runs shrink the comparison instead of crashing it.
fn per_workload_speedups(base: &[RunResult], new: &[RunResult]) -> Vec<(String, f64)> {
    let (b, n) = align_by_workload(base, new);
    speedups_pct(&b, &n)
        .into_iter()
        .zip(&b)
        .map(|(s, r)| (r.workload.clone(), s))
        .collect()
}

/// Geomean IPC speedup of `new` over `base` in percent, over the
/// workloads present in both sets.
pub fn geomean(base: &[RunResult], new: &[RunResult]) -> f64 {
    let (base, new) = align_by_workload(base, new);
    let b: Vec<f64> = base.iter().map(|r| r.stats.ipc()).collect();
    let n: Vec<f64> = new.iter().map(|r| r.stats.ipc()).collect();
    geomean_speedup_pct(&b, &n)
}

/// The inline ` [DEGRADED (k/n)]` row marker, empty for complete runs.
fn mark(r: &SuiteRun) -> String {
    r.marker().map_or(String::new(), |m| format!(" [{m}]"))
}

/// One `NOTE:` line per degraded run, naming the failed workloads and
/// failure kinds; empty when every listed run is complete.
fn degraded_note(runs: &[(&str, &SuiteRun)]) -> String {
    let mut out = String::new();
    for (tag, r) in runs {
        if let Some(m) = r.marker() {
            out += &format!("  NOTE: {tag} {m}:");
            for (w, e) in &r.failures {
                out += &format!(" `{w}` ({})", e.kind());
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 2: IPC improvement of a 4Kops µ-op cache over no µ-op cache.
pub fn fig02(knobs: &Knobs) -> String {
    let mut out = header(
        "fig02",
        "4Kops uop cache vs no uop cache (sorted)",
        "beneficial for 80.7% of traces, range ~ -2%..+6%",
        knobs.profile(),
    );
    let no_uc = cached_suite_run(&SimConfig::no_uop_cache(), knobs);
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut pairs = per_workload_speedups(&no_uc, &base);
    let vals: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let beneficial = vals.iter().filter(|&&v| v > 0.0).count();
    out += &sorted_curve(&mut pairs, "% IPC");
    out += &summary_line("speedup", &vals);
    out += &format!(
        "beneficial: {}/{} ({:.1}%)   geomean {:+.2}%\n",
        beneficial,
        vals.len(),
        100.0 * beneficial as f64 / vals.len() as f64,
        geomean(&no_uc, &base),
    );
    out += &degraded_note(&[("no-uop-cache", &no_uc), ("baseline", &base)]);
    out
}

/// Fig. 3: µ-op cache hit rate and switch PKI per workload.
pub fn fig03(knobs: &Knobs) -> String {
    let mut out = header(
        "fig03",
        "uop cache hit rate and switch PKI (sorted by hit rate)",
        "amean hit rate 71.6%, min 30.7%; switch PKI up to ~22",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut rows: Vec<(String, f64, f64)> = base
        .iter()
        .map(|r| {
            (
                r.workload.clone(),
                r.stats.uop_hit_rate_pct(),
                r.stats.switch_pki(),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (name, hit, pki) in &rows {
        out += &format!("  {name:<10} hit {hit:>6.1}%   switch {pki:>6.2} PKI\n");
    }
    let hits: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let pkis: Vec<f64> = rows.iter().map(|r| r.2).collect();
    out += &summary_line("hit rate %", &hits);
    out += &summary_line("switch PKI", &pkis);
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 4: µ-op cache size sweep 4K→64Kops vs the ideal µ-op cache.
pub fn fig04(knobs: &Knobs) -> String {
    let mut out = header(
        "fig04",
        "uop cache size sweep (speedup over 4Kops baseline; hit rate)",
        "8K +0.18%, 16x larger +1.2% @ 91.2% hit; ideal +10.8%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    for kops in [8usize, 16, 32, 64] {
        let mut cfg = SimConfig::baseline();
        cfg.uop_cache = UopCacheModel::Real(UopCacheConfig::kops(kops));
        let r = cached_suite_run(&cfg, knobs);
        let hit: Vec<f64> = r.iter().map(|x| x.stats.uop_hit_rate_pct()).collect();
        out += &format!(
            "  {kops:>2}Kops: speedup {:+.2}%  hit rate {:.1}%{}\n",
            geomean(&base, &r),
            amean(&hit),
            mark(&r)
        );
    }
    let mut ideal = SimConfig::baseline();
    ideal.uop_cache = UopCacheModel::Ideal;
    let r = cached_suite_run(&ideal, knobs);
    out += &format!(
        "  ideal: speedup {:+.2}%  hit rate 100.0%{}\n",
        geomean(&base, &r),
        mark(&r)
    );
    let base_hit: Vec<f64> = base.iter().map(|x| x.stats.uop_hit_rate_pct()).collect();
    out += &format!("  (4Kops baseline hit rate {:.1}%)\n", amean(&base_hit));
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 5: L1I prefetchers × µ-op-cache idealizations.
pub fn fig05(knobs: &Knobs) -> String {
    let mut out = header(
        "fig05",
        "L1I prefetchers vs alternate-path idealizations",
        "Base +1.1..1.6%; L1I-Hits up to +1.9% @97% hit; IdealBRCond-8 +2.3%; -16 +2.9%",
        knobs.profile(),
    );
    let baseline = cached_suite_run(&SimConfig::baseline(), knobs);
    out += &format!(
        "  {:<10} {:>8} {:>8} {:>10} {:>11}\n",
        "prefetcher", "Base", "L1I-Hits", "IdealBR-8", "IdealBR-16"
    );
    for pk in PrefetcherKind::ALL {
        let mut row = format!("  {:<10}", pk.name());
        for variant in 0..4 {
            let mut cfg = SimConfig::baseline();
            cfg.prefetcher = pk;
            match variant {
                1 => cfg.l1i_hits_ideal = true,
                2 => cfg.ideal_brcond = Some(8),
                3 => cfg.ideal_brcond = Some(16),
                _ => {}
            }
            let r = cached_suite_run(&cfg, knobs);
            let hit: Vec<f64> = r.iter().map(|x| x.stats.uop_hit_rate_pct()).collect();
            row += &format!(
                " {:+6.2}%({:>4.1}){}",
                geomean(&baseline, &r),
                amean(&hit),
                mark(&r)
            );
        }
        out += &row;
        out.push('\n');
    }
    out += "  (each cell: geomean speedup over NONE/Base, and amean uop hit rate %)\n";
    out += &degraded_note(&[("baseline", &baseline)]);
    out
}

/// Fig. 6: per-component misprediction rate vs counter value.
pub fn fig06(knobs: &Knobs) -> String {
    let mut out = header(
        "fig06",
        "miss rate per TAGE-SC-L component and counter value",
        "saturated HitBank/bimodal ~0%; bimodal(>1in8) >6%; AltBank high at all counters; \
         SC 10-50% by |sum|; LP <3%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut agg: std::collections::BTreeMap<(Provider, i32), (u64, u64)> = Default::default();
    for r in base.iter() {
        for (&k, b) in &r.stats.provider_buckets {
            let e = agg.entry(k).or_default();
            e.0 += b.preds;
            e.1 += b.misses;
        }
    }
    let mut last: Option<Provider> = None;
    for ((p, v), (preds, misses)) in &agg {
        if last != Some(*p) {
            out += &format!("  {p}:\n");
            last = Some(*p);
        }
        if *preds < 50 {
            continue; // too few samples to report a rate
        }
        out += &format!(
            "    ctr {v:>4}: {:>6.2}% miss ({preds} preds)\n",
            100.0 * *misses as f64 / *preds as f64
        );
    }
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 7: contribution of each component to total mispredictions.
pub fn fig07(knobs: &Knobs) -> String {
    let mut out = header(
        "fig07",
        "share of total mispredictions per component",
        "HitBank 66.7%, SC 11.1%, AltBank 8.1%, bimodal(>1in8) 7.5%, bimodal 6.2%, LP 0.1%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut misses: std::collections::BTreeMap<Provider, u64> = Default::default();
    let mut total = 0u64;
    for r in base.iter() {
        for (&p, b) in &r.stats.provider_totals {
            *misses.entry(p).or_default() += b.misses;
            total += b.misses;
        }
    }
    for p in Provider::ALL {
        let m = misses.get(&p).copied().unwrap_or(0);
        out += &format!(
            "  {p:<16} {:>6.2}%\n",
            100.0 * m as f64 / total.max(1) as f64
        );
    }
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 8 / §IV-F: the structures UCP adds and their storage, measured
/// from the instantiated hardware (not hand-quoted).
pub fn fig08() -> String {
    use ucp_bpred::{Ittage, IttageParams, SclPreset, TageScL};
    use ucp_frontend::Ras;
    let mut out = String::from(
        "=== fig08: UCP structures and storage (measured vs paper §IV-F) ===\n         paper: Alt-BP 8 KB, Alt-Ind 4 KB, Alt-RAS 0.06 KB, Alt-FTQ 0.14 KB,          uop MSHR 0.19 KB, L1I PQ 0.25 KB, alt decode queue 0.12 KB;          total 12.95 KB (8.95 KB without Alt-Ind)\n",
    );
    let alt_bp = TageScL::new(SclPreset::Alt8K);
    let alt_ind = Ittage::new(IttageParams::alt_4k());
    let alt_ras = Ras::new(16);
    out += &format!("  Alt-BP (TAGE-SC-L)   {:>7.2} KB\n", alt_bp.storage_kb());
    out += &format!("  Alt-Ind (ITTAGE)     {:>7.2} KB\n", alt_ind.storage_kb());
    out += &format!(
        "  Alt-RAS (16 entries) {:>7.2} KB\n",
        alt_ras.storage_bits() as f64 / 8192.0
    );
    out += "  Alt-FTQ (24 entries)    0.14 KB (queue of uop-window addresses)\n";
    out += "  uop cache MSHR (32)     0.19 KB\n";
    out += "  L1I PQ (32)             0.25 KB\n";
    out += "  alt decode queue (32)   0.12 KB\n";
    out += &format!(
        "  TOTAL with Alt-Ind   {:>7.2} KB   (paper 12.95 KB)\n",
        SimConfig::ucp().extra_storage_kb()
    );
    out += &format!(
        "  TOTAL without        {:>7.2} KB   (paper  8.95 KB)\n",
        SimConfig::ucp_no_ind().extra_storage_kb()
    );
    out
}

/// Fig. 9: H2P coverage and accuracy of TAGE-Conf vs UCP-Conf.
pub fn fig09(knobs: &Knobs) -> String {
    let mut out = header(
        "fig09",
        "H2P detector coverage and accuracy",
        "TAGE-Conf: coverage 48.5%, accuracy 12%; UCP-Conf: coverage 70%, accuracy 14.66%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut t = ucp_core::H2pCounts::default();
    let mut u = ucp_core::H2pCounts::default();
    for r in base.iter() {
        t.marked += r.stats.h2p_tage.marked;
        t.marked_mispredicted += r.stats.h2p_tage.marked_mispredicted;
        t.mispredicted += r.stats.h2p_tage.mispredicted;
        u.marked += r.stats.h2p_ucp.marked;
        u.marked_mispredicted += r.stats.h2p_ucp.marked_mispredicted;
        u.mispredicted += r.stats.h2p_ucp.mispredicted;
    }
    out += &format!(
        "  TAGE-Conf: coverage {:.1}%  accuracy {:.2}%\n",
        t.coverage_pct(),
        t.accuracy_pct()
    );
    out += &format!(
        "  UCP-Conf:  coverage {:.1}%  accuracy {:.2}%\n",
        u.coverage_pct(),
        u.accuracy_pct()
    );
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 10: IPC of the 4Kops baseline and UCP, both over no-µ-op-cache.
pub fn fig10(knobs: &Knobs) -> String {
    let mut out = header(
        "fig10",
        "baseline and UCP vs no uop cache (sorted)",
        "UCP lifts the share of workloads benefiting from a uop cache from 80.7% to 90%",
        knobs.profile(),
    );
    let no_uc = cached_suite_run(&SimConfig::no_uop_cache(), knobs);
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let ucp = cached_suite_run(&SimConfig::ucp(), knobs);
    let mut b_pairs = per_workload_speedups(&no_uc, &base);
    let mut u_pairs = per_workload_speedups(&no_uc, &ucp);
    out += "4Kops baseline vs no uop cache:\n";
    out += &sorted_curve(&mut b_pairs, "%");
    out += "UCP vs no uop cache:\n";
    out += &sorted_curve(&mut u_pairs, "%");
    let bb: Vec<f64> = b_pairs.iter().map(|p| p.1).collect();
    let uu: Vec<f64> = u_pairs.iter().map(|p| p.1).collect();
    out += &format!(
        "beneficial: baseline {}/{}  UCP {}/{}\n",
        bb.iter().filter(|&&v| v > 0.0).count(),
        bb.len(),
        uu.iter().filter(|&&v| v > 0.0).count(),
        uu.len()
    );
    out += &degraded_note(&[("no-uop-cache", &no_uc), ("baseline", &base), ("UCP", &ucp)]);
    out
}

/// Fig. 11: UCP speedup over baseline with conditional MPKI.
pub fn fig11(knobs: &Knobs) -> String {
    let mut out = header(
        "fig11",
        "UCP speedup and conditional MPKI (sorted by speedup)",
        "average +2%, max +12%; average MPKI 1.56, best workload MPKI 6.17",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let ucp = cached_suite_run(&SimConfig::ucp(), knobs);
    let (ab, au) = align_by_workload(&base, &ucp);
    let sp = speedups_pct(&ab, &au);
    let mut rows: Vec<(String, f64, f64)> = sp
        .iter()
        .zip(&au)
        .map(|(&s, r)| (r.workload.clone(), s, r.stats.cond_mpki()))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (name, s, mpki) in &rows {
        out += &format!("  {name:<10} {s:>+6.2}%   MPKI {mpki:>5.2}\n");
    }
    out += &summary_line("speedup %", &sp);
    let mpkis: Vec<f64> = rows.iter().map(|r| r.2).collect();
    out += &summary_line("cond MPKI", &mpkis);
    out += &format!("geomean speedup {:+.2}%\n", geomean(&base, &ucp));
    out += &degraded_note(&[("baseline", &base), ("UCP", &ucp)]);
    out
}

/// Fig. 12: UCP vs UCP-NoIND and UCP-Conf vs TAGE-Conf triggering.
pub fn fig12(knobs: &Knobs) -> String {
    let mut out = header(
        "fig12",
        "indirect predictor and confidence-estimator ablations",
        "UCP 2.0% vs UCP-NoIND 1.9%; UCP-Conf 2.0% vs TAGE-Conf 1.8%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let ucp = cached_suite_run(&SimConfig::ucp(), knobs);
    let no_ind = cached_suite_run(&SimConfig::ucp_no_ind(), knobs);
    let mut tage_conf_cfg = SimConfig::ucp();
    tage_conf_cfg.ucp.conf = ConfKind::Tage;
    let tage_conf = cached_suite_run(&tage_conf_cfg, knobs);
    let sp = |r: &[RunResult]| {
        let (b, n) = align_by_workload(&base, r);
        let v = speedups_pct(&b, &n);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (geomean(&base, r), min, max)
    };
    for (name, r) in [
        ("UCP", &ucp),
        ("UCP-NoIND", &no_ind),
        ("UCP(TAGE-Conf)", &tage_conf),
    ] {
        let (g, min, max) = sp(r);
        out += &format!(
            "  {name:<15} geomean {g:+.2}%  min {min:+.2}%  max {max:+.2}%{}\n",
            mark(r)
        );
    }
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 13: µ-op cache hit rate under UCP.
pub fn fig13(knobs: &Knobs) -> String {
    let mut out = header(
        "fig13",
        "uop cache hit rate under UCP (sorted)",
        "modest improvement: 71.4% -> 74% on average; ~10 lines prefetched per alternate path",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let ucp = cached_suite_run(&SimConfig::ucp(), knobs);
    let mut pairs: Vec<(String, f64)> = ucp
        .iter()
        .map(|r| (r.workload.clone(), r.stats.uop_hit_rate_pct()))
        .collect();
    out += &sorted_curve(&mut pairs, "% hit");
    let b: Vec<f64> = base.iter().map(|r| r.stats.uop_hit_rate_pct()).collect();
    let u: Vec<f64> = ucp.iter().map(|r| r.stats.uop_hit_rate_pct()).collect();
    let lines_per_walk: Vec<f64> = ucp
        .iter()
        .map(|r| r.stats.ucp.lines_prefetched as f64 / r.stats.ucp.walks_started.max(1) as f64)
        .collect();
    out += &format!(
        "amean hit rate: baseline {:.1}% -> UCP {:.1}%; lines per alternate path {:.1}\n",
        amean(&b),
        amean(&u),
        amean(&lines_per_walk)
    );
    out += &degraded_note(&[("baseline", &base), ("UCP", &ucp)]);
    out
}

/// Fig. 14: UCP prefetch accuracy.
pub fn fig14(knobs: &Knobs) -> String {
    let mut out = header(
        "fig14",
        "UCP prefetch accuracy (timely / inserted, entry granularity)",
        "average 67.7%; plus ~8% (max 18%) of entries used late",
        knobs.profile(),
    );
    let ucp = cached_suite_run(&SimConfig::ucp(), knobs);
    let mut pairs: Vec<(String, f64)> = ucp
        .iter()
        .filter(|r| r.stats.ucp.entries_inserted > 0)
        .map(|r| (r.workload.clone(), r.stats.ucp.prefetch_accuracy_pct()))
        .collect();
    out += &sorted_curve(&mut pairs, "% timely");
    let acc: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let late: Vec<f64> = ucp
        .iter()
        .filter(|r| r.stats.ucp.entries_inserted > 0)
        .map(|r| r.stats.ucp.late_use_pct())
        .collect();
    out += &summary_line("accuracy %", &acc);
    out += &summary_line("late-use %", &late);
    out += &degraded_note(&[("UCP", &ucp)]);
    out
}

/// Fig. 15: stopping-threshold sensitivity, µ-op-cache vs L1I-only.
pub fn fig15(knobs: &Knobs) -> String {
    let mut out = header(
        "fig15",
        "stopping-threshold sweep (geomean speedup over baseline)",
        "uop-cache prefetch plateaus ~500 then thrashes past ~1000; L1I-only peaks at 1000 (~1.6-1.7%)",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    out += &format!(
        "  {:>9} {:>12} {:>12}\n",
        "threshold", "UCP(uop$)", "UCP(L1I)"
    );
    for thr in [16u32, 64, 256, 500, 1024, 4096] {
        let mut ucp = SimConfig::ucp();
        ucp.ucp.stop_threshold = thr;
        let mut l1i = SimConfig::ucp();
        l1i.ucp.stop_threshold = thr;
        l1i.ucp.till_l1i = true;
        let r_u = cached_suite_run(&ucp, knobs);
        let r_l = cached_suite_run(&l1i, knobs);
        out += &format!(
            "  {thr:>9} {:>+11.2}% {:>+11.2}%{}{}\n",
            geomean(&base, &r_u),
            geomean(&base, &r_l),
            mark(&r_u),
            mark(&r_l)
        );
    }
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Fig. 16: storage vs speedup Pareto front.
pub fn fig16(knobs: &Knobs) -> String {
    let mut out = header(
        "fig16",
        "storage (KB) vs geomean speedup (%) Pareto",
        "UCP flavours on the Pareto front at 8.95/12.95 KB ~ +1.9/+2.0%; \
         D-JOLT 125 KB below UCP; TAGE-SC-Lx2 marginal at high cost; MRC 0.3-0.7%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut points: Vec<(String, SimConfig)> = Vec::new();
    points.push(("UCP-NoIndirect".into(), SimConfig::ucp_no_ind()));
    points.push(("UCP-ITTAGE".into(), SimConfig::ucp()));
    {
        let mut c = SimConfig::ucp();
        c.ucp.shared_decoders = true;
        points.push(("UCP-SharedDecoders".into(), c));
    }
    {
        let mut c = SimConfig::ucp();
        c.ucp.till_l1i = true;
        c.ucp.stop_threshold = 1000;
        points.push(("UCP-L1I(T=1000)".into(), c));
    }
    {
        let mut c = SimConfig::ucp();
        c.ucp.ideal_btb_banking = true;
        points.push(("UCP-NoBTBConflict".into(), c));
    }
    for pk in [
        PrefetcherKind::FnlMma,
        PrefetcherKind::FnlMmaPlusPlus,
        PrefetcherKind::DJolt,
        PrefetcherKind::Ep,
        PrefetcherKind::EpPlusPlus,
    ] {
        let mut c = SimConfig::baseline();
        c.prefetcher = pk;
        points.push((pk.name().into(), c));
    }
    {
        let mut c = SimConfig::baseline();
        c.bpred = ucp_bpred::SclPreset::Big128K;
        points.push(("TAGE-SC-Lx2".into(), c));
    }
    for entries in [64usize, 128, 256, 512] {
        let mut c = SimConfig::baseline();
        c.mrc_entries = Some(entries);
        points.push((format!("MRC-{entries}e"), c));
    }
    for kops in [8usize, 16, 32] {
        let mut c = SimConfig::baseline();
        c.uop_cache = UopCacheModel::Real(UopCacheConfig::kops(kops));
        points.push((format!("uop-{kops}Kops"), c));
    }
    out += &format!("  {:<20} {:>10} {:>10}\n", "config", "extra KB", "speedup");
    for (name, cfg) in points {
        let r = cached_suite_run(&cfg, knobs);
        out += &format!(
            "  {name:<20} {:>10.2} {:>+9.2}%{}\n",
            cfg.extra_storage_kb(),
            geomean(&base, &r),
            mark(&r)
        );
    }
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Interval time series: per-workload CSVs of IPC, µ-op cache hit rate,
/// L1I MPKI and the stall breakdown over the run, for the baseline and UCP
/// configurations. Files land under `target/ucp-figs/timeseries/<config>/`;
/// the returned report lists what was written.
pub fn timeseries(knobs: &Knobs) -> String {
    use ucp_telemetry::intervals_to_csv;
    let mut out = header(
        "timeseries",
        "interval time series (CSV per workload)",
        "n/a (observability report, no paper counterpart)",
        knobs.profile(),
    );
    let root = std::path::Path::new("target/ucp-figs/timeseries");
    for (tag, cfg) in [
        ("baseline", SimConfig::baseline()),
        ("ucp", SimConfig::ucp()),
    ] {
        let results = cached_suite_run(&cfg, knobs);
        let dir = root.join(tag);
        if std::fs::create_dir_all(&dir).is_err() {
            out += &format!("  {tag}: cannot create {}\n", dir.display());
            continue;
        }
        let mut written = 0usize;
        let mut records = 0usize;
        for r in results.iter() {
            if r.intervals.is_empty() {
                continue; // sampling off
            }
            let path = dir.join(format!("{}.csv", r.workload));
            if std::fs::write(&path, intervals_to_csv(&r.intervals)).is_ok() {
                written += 1;
                records += r.intervals.len();
            }
        }
        if written == 0 {
            out += &format!(
                "  {tag}: no interval data (rerun with UCP_NO_CACHE=1 and UCP_INTERVAL set)\n"
            );
        } else {
            out += &format!(
                "  {tag}: {written} workload CSVs, {records} intervals -> {}\n",
                dir.display()
            );
        }
    }
    out
}

/// Table I self-check: the stopping weights the engine actually uses.
pub fn table1() -> String {
    use ucp_bpred::{SclPreset, TageScL};
    let mut out = String::from("=== table1: stopping weights (engine self-check vs paper) ===\n");
    let bp = TageScL::new(SclPreset::Alt8K);
    let h = bp.new_history();
    let mut p = bp.predict(&h, sim_isa::Addr::new(0x40));
    let mut check = |prov: Provider, ctr: i8, sum: i32, expect: u32| {
        p.provider = prov;
        p.tage.provider_ctr = ctr;
        p.sc.sum = sum;
        let w = ucp_core::ucp::cond_stop_weight(&p);
        out_push(
            &mut out,
            &format!(
                "  {prov:<16} ctr {ctr:>3} sum {sum:>4} -> weight {w} (paper {expect}) {}\n",
                if w == expect { "OK" } else { "MISMATCH" }
            ),
        );
        assert_eq!(w, expect, "Table I mismatch for {prov}");
    };
    check(Provider::Bimodal, 1, 0, 1);
    check(Provider::Bimodal, 0, 0, 2);
    check(Provider::BimodalLow8, -2, 0, 2);
    check(Provider::BimodalLow8, 0, 0, 6);
    check(Provider::HitBank, 3, 0, 1);
    check(Provider::HitBank, -3, 0, 3);
    check(Provider::HitBank, -2, 0, 4);
    check(Provider::HitBank, -1, 0, 6);
    check(Provider::AltBank, -4, 0, 5);
    check(Provider::AltBank, 1, 0, 7);
    check(Provider::LoopPred, 0, 0, 1);
    check(Provider::Sc, 0, 200, 3);
    check(Provider::Sc, 0, 100, 6);
    check(Provider::Sc, 0, 40, 8);
    check(Provider::Sc, 0, 10, 10);
    out
}

fn out_push(out: &mut String, s: &str) {
    out.push_str(s);
}

/// Table II self-check: the baseline configuration actually instantiated.
pub fn table2() -> String {
    format!(
        "=== table2: baseline configuration (self-check vs paper Table II) ===\n{}\n",
        SimConfig::baseline().describe_table2()
    )
}

/// The artifact-appendix variant table: UCP / TillL1I / SharedDecoders /
/// IdealBTBBanking.
pub fn table_artifact(knobs: &Knobs) -> String {
    let mut out = header(
        "table_artifact",
        "UCP variant IPC improvements (artifact appendix)",
        "UCP 2%, UCP-TillL1I 1.6%, UCP-SharedDecoders 1.8%, UCP-IdealBTBBanking 2.2%",
        knobs.profile(),
    );
    let base = cached_suite_run(&SimConfig::baseline(), knobs);
    let mut variants: Vec<(&str, SimConfig)> = vec![("UCP", SimConfig::ucp())];
    {
        let mut c = SimConfig::ucp();
        c.ucp.till_l1i = true;
        variants.push(("UCP-TillL1I", c));
    }
    {
        let mut c = SimConfig::ucp();
        c.ucp.shared_decoders = true;
        variants.push(("UCP-SharedDecoders", c));
    }
    {
        let mut c = SimConfig::ucp();
        c.ucp.ideal_btb_banking = true;
        variants.push(("UCP-IdealBTBBanking", c));
    }
    for (name, cfg) in variants {
        let r = cached_suite_run(&cfg, knobs);
        out += &format!("  {name:<22} {:+.2}%{}\n", geomean(&base, &r), mark(&r));
    }
    out += &degraded_note(&[("baseline", &base)]);
    out
}

/// Every report in paper order (the `all_figures` binary).
pub fn all(knobs: &Knobs) -> String {
    let mut out = String::new();
    out += &table2();
    out += &table1();
    out += &fig08();
    for f in [
        fig02, fig03, fig04, fig05, fig06, fig07, fig09, fig10, fig11, fig12, fig13, fig14, fig15,
        fig16,
    ] {
        out += &f(knobs);
        out.push('\n');
    }
    out += &table_artifact(knobs);
    out.push('\n');
    out += &timeseries(knobs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_self_check_passes() {
        let report = table1();
        assert!(report.contains("OK"));
        assert!(!report.contains("MISMATCH"));
        // All 15 Table I rows present.
        assert_eq!(report.matches("-> weight").count(), 15);
    }

    #[test]
    fn table2_reports_key_parameters() {
        let report = table2();
        for needle in [
            "65536 entries",
            "16 banks",
            "4096 ops",
            "ROB 512",
            "32 KB 4c",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn header_names_profile() {
        let h = header("figX", "t", "p", Profile::Quick);
        assert!(h.contains("figX"));
        assert!(h.contains("quick"));
    }
}
