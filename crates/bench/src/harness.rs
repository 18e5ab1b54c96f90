//! Shared harness plumbing: the knobs every binary starts from, the
//! fault-isolated resumable per-workload result cache, host-side
//! self-profiling, and formatting.

use sim_isa::fnv1a64;
use std::path::{Path, PathBuf};
use ucp_core::{run_suite_outcome, Knobs, RunResult, SimConfig, SimError, SuiteRun};
use ucp_telemetry::envelope::{quarantine, read_envelope, write_envelope, CacheReadError};
use ucp_telemetry::AccountingBreakdown;
use ucp_workloads::WorkloadSpec;

/// [`Knobs::from_env`] for binaries, called once at the top of `main`: a
/// malformed knob prints one `bad configuration` line and exits with
/// status 2 before anything is simulated.
pub fn env_knobs() -> Knobs {
    Knobs::from_env().unwrap_or_else(|detail| {
        eprintln!("error: {}", SimError::BadConfig { detail });
        std::process::exit(2);
    })
}

/// Bump when a model-affecting code change invalidates cached results.
/// (v2: results gained cycle accounting and interval time series; v3:
/// entries moved into the integrity envelope, which also carries this
/// version — stale entries now quarantine instead of silently orphaning.)
pub const MODEL_VERSION: u32 = 3;

/// Retention cap for `*.quarantined.*` forensic copies in the result
/// cache.
const MAX_QUARANTINED: usize = 16;

/// Prunes the cache directory's `*.quarantined.*` forensic copies down
/// to `max_quarantined`, oldest first by mtime, logging every eviction.
/// Cache entries are never touched.
fn prune_cache_litter(dir: &Path, max_quarantined: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut quarantined: Vec<_> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".quarantined"))
        .filter_map(|e| {
            let md = e.metadata().ok().filter(std::fs::Metadata::is_file)?;
            Some((md.modified().ok(), e.path()))
        })
        .collect();
    if quarantined.len() <= max_quarantined {
        return;
    }
    // Unreadable mtimes (`None`) sort oldest and go first.
    quarantined.sort_by_key(|(t, _)| *t);
    let excess = quarantined.len() - max_quarantined;
    for (_, path) in quarantined.drain(..excess) {
        match std::fs::remove_file(&path) {
            Ok(()) => eprintln!("[ucp-cache] pruned stale {}", path.display()),
            Err(e) => eprintln!("[ucp-cache] could not prune {}: {e}", path.display()),
        }
    }
}

/// The fault-isolated, resumable, integrity-checked suite runner behind
/// [`cached_suite_run`]. `knobs` configure every simulation and name the
/// cache (`result_dir`, bypassed under `no_cache`), so tests use private
/// directories.
///
/// Each workload's result is one enveloped `<key>.json` under
/// `knobs.result_dir`, written as soon as the workload finishes, where
/// `<key>` hashes the configuration, the full workload spec, the run
/// lengths and the sampling interval. Verified entries fill their slots
/// without simulating, so a killed or degraded run resumes where it
/// stopped; entries that fail verification are moved aside as
/// `*.quarantined.*` and regenerated. Per-workload failures degrade the
/// returned [`SuiteRun`].
pub fn suite_run_with_cache(
    cfg: &SimConfig,
    suite: &[WorkloadSpec],
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
) -> SuiteRun {
    let (dir, use_cache) = (&knobs.result_dir, !knobs.no_cache);
    // Cached results embed the interval series sampled at the run's
    // UCP_INTERVAL, so the effective interval is part of the key (0 =
    // sampling off).
    let interval = knobs.interval.unwrap_or(0);
    let cfg_json = serde_json::to_string(cfg).expect("config serializes");
    let paths: Vec<PathBuf> = suite
        .iter()
        .map(|spec| {
            let spec_json = serde_json::to_string(spec).expect("workload spec serializes");
            let key = format!("{cfg_json}|{spec_json}|{warmup}|{measure}|iv{interval}");
            dir.join(format!("{:016x}.json", fnv1a64(key.as_bytes())))
        })
        .collect();

    let mut prefilled = Vec::new();
    if use_cache {
        prefilled = suite
            .iter()
            .zip(&paths)
            .map(|(spec, path)| load_entry(path, &spec.name))
            .collect();
        if prefilled.iter().any(Option::is_none) {
            prune_cache_litter(dir, MAX_QUARANTINED);
        }
    }
    let persist = |i: usize, r: &RunResult| {
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        if let Ok(text) = serde_json::to_string(r) {
            let _ = write_envelope(
                &paths[i],
                MODEL_VERSION,
                &[text.as_bytes()],
                knobs.fault.as_deref(),
            );
        }
    };
    run_suite_outcome(
        suite,
        cfg,
        warmup,
        measure,
        knobs,
        prefilled,
        use_cache.then_some(&persist as ucp_core::PersistFn<'_>),
    )
}

/// Loads and verifies one workload's cache entry; quarantines corrupt or
/// misnamed entries and reports a miss (the workload just re-simulates).
fn load_entry(path: &Path, expect_workload: &str) -> Option<RunResult> {
    match read_envelope(path, MODEL_VERSION) {
        Ok(payload) => match serde_json::from_str::<RunResult>(&payload) {
            Ok(r) if r.workload == expect_workload => Some(r),
            _ => {
                eprintln!(
                    "warning: cache entry {} is unusable; quarantining",
                    path.display()
                );
                quarantine(path);
                None
            }
        },
        Err(CacheReadError::Missing) => None,
        Err(CacheReadError::Corrupt(why)) => {
            eprintln!(
                "warning: cache entry {} is corrupt ({why}); quarantining",
                path.display()
            );
            quarantine(path);
            None
        }
    }
}

/// Runs `cfg` over the profile's suite (`knobs.profile()`), caching
/// each workload's result on disk (see [`suite_run_with_cache`]).
/// Workload failures degrade the returned [`SuiteRun`] (see
/// [`SuiteRun::marker`]) and are reported on stderr.
pub fn cached_suite_run(cfg: &SimConfig, knobs: &Knobs) -> SuiteRun {
    let profile = knobs.profile();
    let (warmup, measure) = profile.lengths();
    let run = suite_run_with_cache(cfg, &profile.suite(), warmup, measure, knobs);
    for (name, e) in &run.failures {
        eprintln!("warning: workload `{name}` failed: {e}");
    }
    run
}

/// Sums the per-workload telemetry snapshots of a result set into one
/// suite-wide [`ucp_telemetry::RegistrySnapshot`]. Empty when every result
/// came from a cache written before telemetry existed — rerun with
/// `UCP_NO_CACHE=1` to repopulate.
pub fn merged_telemetry(results: &[RunResult]) -> ucp_telemetry::RegistrySnapshot {
    let mut total = ucp_telemetry::RegistrySnapshot::default();
    for r in results {
        total.merge(&r.telemetry);
    }
    total
}

/// Suite-wide cycle-accounting breakdown: the per-workload accounting
/// counters summed, then decoded. Empty (all-zero) when the results carry
/// no telemetry.
pub fn suite_breakdown(results: &[RunResult]) -> AccountingBreakdown {
    AccountingBreakdown::from_snapshot(&merged_telemetry(results))
}

/// Checks the cycle-accounting invariant on every result: the per-category
/// cycles must sum to the accounting total, which must equal the measured
/// cycle count. Returns one message per violating workload (empty = all
/// good). Results without telemetry (pre-accounting caches) are skipped —
/// there is nothing to check.
pub fn check_accounting(results: &[RunResult]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        if r.telemetry.is_empty() {
            continue;
        }
        let b = AccountingBreakdown::from_snapshot(&r.telemetry);
        if let Err(e) = b.verify() {
            bad.push(format!("{}: {e}", r.workload));
        } else if b.total != r.stats.cycles {
            bad.push(format!(
                "{}: accounting charged {} cycles but the run measured {}",
                r.workload, b.total, r.stats.cycles
            ));
        }
    }
    bad
}

/// Renders a per-workload stall-breakdown table: one row per workload with
/// the percentage of measured cycles charged to each category, plus an
/// aggregate row. Category columns are ordered by the aggregate's largest
/// share first.
pub fn stall_breakdown_table(results: &[RunResult]) -> String {
    use ucp_telemetry::CycleCause;
    let agg = suite_breakdown(results);
    if agg.is_empty() {
        return "  (no accounting data — cache predates cycle accounting; \
                rerun with UCP_NO_CACHE=1)\n"
            .to_string();
    }
    let order: Vec<CycleCause> = agg.sorted().into_iter().map(|(c, _)| c).collect();
    let mut out = format!("  {:<10}", "workload");
    for c in &order {
        out += &format!(" {:>13}", c.name());
    }
    out.push('\n');
    let row = |label: &str, b: &AccountingBreakdown| {
        let mut line = format!("  {label:<10}");
        for c in &order {
            line += &format!(" {:>12.1}%", b.share_pct(*c));
        }
        line.push('\n');
        line
    };
    for r in results {
        let b = AccountingBreakdown::from_snapshot(&r.telemetry);
        if b.is_empty() {
            continue;
        }
        out += &row(&r.workload, &b);
    }
    out += &row("ALL", &agg);
    out
}

/// Arithmetic mean.
pub fn amean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Renders a sorted per-workload curve (the paper's "Sorted traces"
/// x-axes): one `name value` row per workload, ascending.
pub fn sorted_curve(pairs: &mut [(String, f64)], unit: &str) -> String {
    pairs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite values"));
    let mut out = String::new();
    for (name, v) in pairs.iter() {
        out.push_str(&format!("  {name:<10} {v:>8.2} {unit}\n"));
    }
    out
}

/// Renders a `min / mean / max` summary line.
pub fn summary_line(label: &str, v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{label}: min {min:.2}  mean {:.2}  max {max:.2}\n",
        amean(v)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use ucp_core::Profile;

    #[test]
    fn profile_lengths_monotone() {
        assert!(Profile::Quick.lengths().1 < Profile::Std.lengths().1);
        assert!(Profile::Std.lengths().1 < Profile::Full.lengths().1);
        assert_eq!(Profile::Quick.suite().len(), 8);
        assert_eq!(Profile::Std.suite().len(), 30);
    }

    #[test]
    fn fnv_distinguishes() {
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }

    #[test]
    fn sorted_curve_sorts() {
        let mut v = vec![("b".into(), 2.0), ("a".into(), 1.0)];
        let s = sorted_curve(&mut v, "%");
        let a_pos = s.find('a').unwrap();
        let b_pos = s.find('b').unwrap();
        assert!(a_pos < b_pos);
    }

    #[test]
    fn amean_basic() {
        assert_eq!(amean(&[1.0, 3.0]), 2.0);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn merged_telemetry_sums_counters() {
        use ucp_core::RunResult;
        use ucp_core::SimStats;
        let mut a = ucp_telemetry::RegistrySnapshot::default();
        a.counters.insert("ucp.walks_started".into(), 2);
        let mut b = ucp_telemetry::RegistrySnapshot::default();
        b.counters.insert("ucp.walks_started".into(), 3);
        let results = vec![
            RunResult {
                workload: "a".into(),
                stats: SimStats::default(),
                telemetry: a,
                intervals: Vec::new(),
                digests: Vec::new(),
                knobs: Default::default(),
            },
            RunResult {
                workload: "b".into(),
                stats: SimStats::default(),
                telemetry: b,
                intervals: Vec::new(),
                digests: Vec::new(),
                knobs: Default::default(),
            },
        ];
        assert_eq!(merged_telemetry(&results).counters["ucp.walks_started"], 5);
    }

    fn result_with_accounting(workload: &str, cycles: u64, uop: u64, miss: u64) -> RunResult {
        use ucp_core::SimStats;
        use ucp_telemetry::{CycleCause, TOTAL_CYCLES_PATH};
        let mut snap = ucp_telemetry::RegistrySnapshot::default();
        snap.counters
            .insert(CycleCause::DeliverUop.counter_path(), uop);
        snap.counters
            .insert(CycleCause::L1iMiss.counter_path(), miss);
        snap.counters.insert(TOTAL_CYCLES_PATH.into(), uop + miss);
        let stats = SimStats {
            cycles,
            ..Default::default()
        };
        RunResult {
            workload: workload.into(),
            stats,
            telemetry: snap,
            intervals: Vec::new(),
            digests: Vec::new(),
            knobs: Default::default(),
        }
    }

    #[test]
    fn check_accounting_flags_mismatches_only() {
        let good = result_with_accounting("good", 10, 7, 3);
        let bad = result_with_accounting("bad", 11, 7, 3); // total != cycles
        let legacy = RunResult {
            workload: "legacy".into(),
            stats: ucp_core::SimStats::default(),
            telemetry: ucp_telemetry::RegistrySnapshot::default(),
            intervals: Vec::new(),
            digests: Vec::new(),
            knobs: Default::default(),
        };
        assert!(check_accounting(&[good.clone(), legacy]).is_empty());
        let msgs = check_accounting(&[good, bad]);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("bad:"), "{msgs:?}");
    }

    #[test]
    fn stall_table_orders_by_aggregate_share() {
        let r = vec![
            result_with_accounting("w0", 10, 7, 3),
            result_with_accounting("w1", 10, 6, 4),
        ];
        let table = stall_breakdown_table(&r);
        // deliver_uop dominates the aggregate, so its column comes first.
        let uop = table.find("deliver_uop").unwrap();
        let miss = table.find("l1i_miss").unwrap();
        assert!(uop < miss, "{table}");
        assert!(table.contains("ALL"));
        assert_eq!(suite_breakdown(&r).total, 20);
    }

    #[test]
    fn prune_cache_litter_caps_quarantine_only() {
        let dir = std::env::temp_dir().join(format!("ucp-prune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Three quarantined files, plus a cache entry that must never be
        // touched.
        for i in 0..3 {
            std::fs::write(dir.join(format!("e{i}.json.quarantined.0")), "x").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        std::fs::write(dir.join("abcd.json"), "{}").unwrap();

        prune_cache_litter(&dir, 1);

        assert!(!dir.join("e0.json.quarantined.0").exists());
        assert!(!dir.join("e1.json.quarantined.0").exists());
        assert!(dir.join("e2.json.quarantined.0").exists(), "newest kept");
        assert!(dir.join("abcd.json").exists(), "cache entries untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
