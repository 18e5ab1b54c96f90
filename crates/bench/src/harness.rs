//! Shared harness plumbing: the knobs every binary starts from, the
//! fault-isolated resumable result cache, host-side self-profiling, and
//! formatting.

use crate::cache::{quarantine, read_envelope, write_envelope, CacheReadError};
use sim_isa::fnv1a64;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::time::Instant;
use ucp_core::{run_suite_outcome, Knobs, RunResult, SimConfig, SimError, SuiteOptions};
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

/// A suite's results plus how the run got them: complete or degraded,
/// fresh or resumed. Derefs to the *successful* results (in suite order),
/// so aggregation code written for `Vec<RunResult>` keeps working; the
/// failure records ride alongside for report markers.
#[derive(Debug, Default)]
pub struct SuiteRun {
    results: Vec<RunResult>,
    /// Workloads that failed every attempt: `(name, final error)`.
    pub failures: Vec<(String, SimError)>,
    /// Suite size (`results.len() + failures.len()`).
    pub total: usize,
    /// How many results were resumed from partial persistence instead of
    /// simulated in this invocation.
    pub resumed: usize,
}

impl Deref for SuiteRun {
    type Target = [RunResult];
    fn deref(&self) -> &[RunResult] {
        &self.results
    }
}

impl SuiteRun {
    /// Wraps a complete, trusted result set (cache hits, tests).
    pub fn complete(results: Vec<RunResult>) -> Self {
        let total = results.len();
        SuiteRun {
            results,
            failures: Vec::new(),
            total,
            resumed: 0,
        }
    }

    /// The successful results, in suite order.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// True when every workload produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The `DEGRADED (k/n)` report marker, or `None` when complete.
    pub fn marker(&self) -> Option<String> {
        (!self.is_complete()).then(|| format!("DEGRADED ({}/{})", self.results.len(), self.total))
    }
}

/// Retention caps for result-cache litter: stale `partial-<key>/` resume
/// directories (a partial can only resume a run with the *same* key, so
/// old ones are dead weight) and `*.quarantined.*` forensic copies.
const MAX_PARTIAL_DIRS: usize = 8;
const MAX_QUARANTINED: usize = 16;

/// Prunes the cache directory's recoverable litter down to the retention
/// caps, oldest first by mtime, logging every eviction. `active_partial`
/// (the in-flight run's resume directory) is never pruned, and the
/// combined `<key>.json` entries are never touched.
pub fn prune_cache_litter(
    dir: &Path,
    active_partial: &Path,
    max_partial_dirs: usize,
    max_quarantined: usize,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut partials = Vec::new();
    let mut quarantined = Vec::new();
    for e in entries.flatten() {
        let path = e.path();
        if path == active_partial {
            continue;
        }
        let Ok(md) = e.metadata() else { continue };
        let name = e.file_name().to_string_lossy().into_owned();
        let mtime = md.modified().ok();
        if md.is_dir() && name.starts_with("partial-") {
            partials.push((mtime, path));
        } else if md.is_file() && name.contains(".quarantined") {
            quarantined.push((mtime, path));
        }
    }
    prune_oldest(partials, max_partial_dirs, true);
    prune_oldest(quarantined, max_quarantined, false);
}

fn prune_oldest(
    mut entries: Vec<(Option<std::time::SystemTime>, PathBuf)>,
    cap: usize,
    is_dir: bool,
) {
    if entries.len() <= cap {
        return;
    }
    // Unreadable mtimes (`None`) sort oldest and go first.
    entries.sort_by_key(|(t, _)| *t);
    let excess = entries.len() - cap;
    for (_, path) in entries.drain(..excess) {
        let removed = if is_dir {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
        match removed {
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
/// Cache layout under `knobs.result_dir`:
///
/// - `<key>.json` — the complete suite result set, enveloped
///   (written only when every workload succeeded);
/// - `partial-<key>/NN-<workload>.json` — per-workload results, enveloped,
///   persisted as each workload finishes so a killed run resumes instead
///   of re-simulating (cleared once the combined entry lands);
/// - `*.quarantined.*` — entries that failed integrity verification,
///   moved aside for debugging and regenerated.
///
/// Per-workload failures degrade the returned [`SuiteRun`].
pub fn suite_run_with_cache(
    cfg: &SimConfig,
    suite: &[WorkloadSpec],
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
    opts: &SuiteOptions,
) -> SuiteRun {
    let (dir, use_cache) = (&knobs.result_dir, !knobs.no_cache);
    // Cached results embed the interval series sampled at the run's
    // UCP_INTERVAL, so the effective interval is part of the key (0 =
    // sampling off).
    let interval = knobs.interval.unwrap_or(0);
    let fault = knobs.fault.as_deref();
    let cfg_json = serde_json::to_string(cfg).expect("config serializes");
    let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
    let key = format!("{cfg_json}|{names:?}|{warmup}|{measure}|iv{interval}");
    let key = format!("{:016x}", fnv1a64(key.as_bytes()));
    let combined = dir.join(format!("{key}.json"));
    let partial_dir = dir.join(format!("partial-{key}"));

    if use_cache {
        if let Some(results) = load_combined(&combined, suite) {
            return SuiteRun::complete(results);
        }
        prune_cache_litter(dir, &partial_dir, MAX_PARTIAL_DIRS, MAX_QUARANTINED);
    }

    // Resume: adopt verified per-workload partials from a previous run.
    let mut prefilled: Vec<Option<RunResult>> = vec![None; suite.len()];
    if use_cache {
        for (i, spec) in suite.iter().enumerate() {
            prefilled[i] = load_partial(&partial_path(&partial_dir, i, spec), &spec.name);
        }
    }
    let resumed = prefilled.iter().flatten().count();

    let persist = |i: usize, r: &RunResult| {
        if std::fs::create_dir_all(&partial_dir).is_err() {
            return;
        }
        if let Ok(text) = serde_json::to_string(r) {
            let _ = write_envelope(
                &partial_path(&partial_dir, i, &suite[i]),
                MODEL_VERSION,
                &text,
                fault,
            );
        }
    };
    let run_opts = SuiteOptions {
        prefilled,
        ..opts.clone()
    };
    let outcome = run_suite_outcome(
        suite,
        cfg,
        warmup,
        measure,
        knobs,
        &run_opts,
        use_cache.then_some(&persist as ucp_core::PersistFn<'_>),
    );

    let total = outcome.total();
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for o in outcome.outcomes {
        match o.outcome {
            Ok(r) => results.push(r),
            Err(e) => failures.push((o.workload, e)),
        }
    }
    let run = SuiteRun {
        results,
        failures,
        total,
        resumed,
    };
    if use_cache && run.is_complete() {
        let _ = std::fs::create_dir_all(dir);
        if let Ok(text) = serde_json::to_string(&run.results) {
            let _ = write_envelope(&combined, MODEL_VERSION, &text, fault);
        }
        // The combined entry supersedes the partials.
        let _ = std::fs::remove_dir_all(&partial_dir);
    }
    run
}

fn partial_path(partial_dir: &Path, i: usize, spec: &WorkloadSpec) -> PathBuf {
    partial_dir.join(format!("{i:02}-{}.json", spec.name))
}

/// Loads and verifies the combined cache entry; quarantines anything
/// corrupt or misaligned (wrong suite length/order — a key collision or
/// a stale layout) and reports a miss.
fn load_combined(path: &Path, suite: &[WorkloadSpec]) -> Option<Vec<RunResult>> {
    match read_envelope(path, MODEL_VERSION) {
        Ok(payload) => match serde_json::from_str::<Vec<RunResult>>(&payload) {
            Ok(results)
                if results.len() == suite.len()
                    && results.iter().zip(suite).all(|(r, s)| r.workload == s.name) =>
            {
                Some(results)
            }
            Ok(_) => {
                eprintln!(
                    "warning: cache entry {} does not match the suite; quarantining",
                    path.display()
                );
                quarantine(path);
                None
            }
            Err(e) => {
                eprintln!(
                    "warning: cache entry {} holds unparseable payload ({e}); quarantining",
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

/// Loads and verifies one per-workload partial; quarantines corrupt or
/// misnamed entries and reports a miss (the workload just re-simulates).
fn load_partial(path: &Path, expect_workload: &str) -> Option<RunResult> {
    match read_envelope(path, MODEL_VERSION) {
        Ok(payload) => match serde_json::from_str::<RunResult>(&payload) {
            Ok(r) if r.workload == expect_workload => Some(r),
            _ => {
                eprintln!(
                    "warning: partial result {} is unusable; quarantining",
                    path.display()
                );
                quarantine(path);
                None
            }
        },
        Err(CacheReadError::Missing) => None,
        Err(CacheReadError::Corrupt(why)) => {
            eprintln!(
                "warning: partial result {} is corrupt ({why}); quarantining",
                path.display()
            );
            quarantine(path);
            None
        }
    }
}

/// Runs `cfg` over the profile's suite (`knobs.profile()`), caching
/// results on disk. The cache key covers the full configuration, the
/// suite composition, the run lengths and the sampling interval, so
/// distinct experiments never collide. Workload failures degrade the
/// returned [`SuiteRun`] (see [`SuiteRun::marker`]) and are reported on
/// stderr.
pub fn cached_suite_run(cfg: &SimConfig, knobs: &Knobs) -> SuiteRun {
    let profile = knobs.profile();
    let (warmup, measure) = profile.lengths();
    let opts = SuiteOptions::default();
    let run = suite_run_with_cache(cfg, &profile.suite(), warmup, measure, knobs, &opts);
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

/// Host-side self-profiling for one harness phase: wall-clock time next to
/// the simulated volume it covered, so runs report simulation throughput
/// (simulated MIPS) alongside simulated results.
#[derive(Clone, Debug)]
pub struct HostPhase {
    /// Phase label (e.g. a config name).
    pub name: String,
    /// Wall-clock seconds spent in the phase.
    pub wall_seconds: f64,
    /// Simulated instructions committed during the phase.
    pub instructions: u64,
    /// Simulated cycles elapsed during the phase.
    pub cycles: u64,
}

impl HostPhase {
    /// Simulated millions of instructions per wall-clock second.
    pub fn mips(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / 1e6 / self.wall_seconds
        }
    }
}

/// Runs `cfg` over the profile's suite (`knobs.profile()`) with the
/// host-side wall clock running — always uncached, since a cache hit
/// would time disk I/O instead of simulation. The returned [`HostPhase`]
/// sums the measured windows of every *successful* workload; failures
/// degrade the [`SuiteRun`] as in [`cached_suite_run`].
pub fn profiled_suite_run(name: &str, cfg: &SimConfig, knobs: &Knobs) -> (SuiteRun, HostPhase) {
    let profile = knobs.profile();
    let suite = profile.suite();
    let (warmup, measure) = profile.lengths();
    let t0 = Instant::now();
    let opts = SuiteOptions::default();
    let outcome = run_suite_outcome(&suite, cfg, warmup, measure, knobs, &opts, None);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let total = outcome.total();
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for o in outcome.outcomes {
        match o.outcome {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("warning: workload `{}` failed: {e}", o.workload);
                failures.push((o.workload, e));
            }
        }
    }
    let run = SuiteRun {
        results,
        failures,
        total,
        resumed: 0,
    };
    let phase = HostPhase {
        name: name.to_string(),
        wall_seconds,
        instructions: run.iter().map(|r| r.stats.instructions).sum(),
        cycles: run.iter().map(|r| r.stats.cycles).sum(),
    };
    (run, phase)
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
    fn suite_run_marker_reports_degradation() {
        use ucp_core::SimStats;
        let ok = RunResult {
            workload: "a".into(),
            stats: SimStats::default(),
            telemetry: ucp_telemetry::RegistrySnapshot::default(),
            intervals: Vec::new(),
            digests: Vec::new(),
            knobs: Default::default(),
        };
        let complete = SuiteRun::complete(vec![ok.clone()]);
        assert!(complete.is_complete());
        assert_eq!(complete.marker(), None);
        let degraded = SuiteRun {
            results: vec![ok],
            failures: vec![(
                "b".into(),
                SimError::WorkloadPanic {
                    workload: "b".into(),
                    payload: "boom".into(),
                },
            )],
            total: 2,
            resumed: 0,
        };
        assert_eq!(degraded.marker().as_deref(), Some("DEGRADED (1/2)"));
        // Deref exposes only the successful results.
        assert_eq!(degraded.len(), 1);
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
    fn prune_cache_litter_caps_partials_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("ucp-prune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Four stale partial dirs plus the active one, three quarantined
        // files, and a combined entry that must never be touched.
        for i in 0..4 {
            std::fs::create_dir_all(dir.join(format!("partial-old{i}"))).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let active = dir.join("partial-active");
        std::fs::create_dir_all(&active).unwrap();
        for i in 0..3 {
            std::fs::write(dir.join(format!("e{i}.json.quarantined.0")), "x").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        std::fs::write(dir.join("abcd.json"), "{}").unwrap();

        prune_cache_litter(&dir, &active, 2, 1);

        assert!(!dir.join("partial-old0").exists(), "oldest partial evicted");
        assert!(
            !dir.join("partial-old1").exists(),
            "2nd-oldest partial evicted"
        );
        assert!(dir.join("partial-old2").exists(), "newest partials kept");
        assert!(dir.join("partial-old3").exists());
        assert!(active.exists(), "active partial never pruned");
        assert!(!dir.join("e0.json.quarantined.0").exists());
        assert!(!dir.join("e1.json.quarantined.0").exists());
        assert!(dir.join("e2.json.quarantined.0").exists(), "newest kept");
        assert!(dir.join("abcd.json").exists(), "combined entries untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_phase_mips() {
        let p = HostPhase {
            name: "x".into(),
            wall_seconds: 2.0,
            instructions: 8_000_000,
            cycles: 1,
        };
        assert_eq!(p.mips(), 4.0);
        let z = HostPhase {
            wall_seconds: 0.0,
            ..p
        };
        assert_eq!(z.mips(), 0.0);
    }
}
