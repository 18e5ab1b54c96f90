//! Experiment runner: runs configurations over workload suites, in
//! parallel across workloads, deterministically — and fault-isolated:
//! one panicking, hanging or invariant-violating workload degrades the
//! suite instead of killing it.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::knobs::Knobs;
use crate::pipeline::{RunOutput, Simulator};
use crate::snapshot::DigestRecord;
use crate::stats::SimStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use ucp_telemetry::fault::FaultPlan;
use ucp_telemetry::interval::IntervalRecord;
use ucp_telemetry::RegistrySnapshot;
use ucp_workloads::WorkloadSpec;

/// Default warm-up instructions per run (the paper uses 50 M on 100 M-inst
/// traces; synthetic workloads reach steady state much sooner — see
/// DESIGN.md §1).
pub const DEFAULT_WARMUP: u64 = 1_000_000;

/// Default measured instructions per run.
pub const DEFAULT_MEASURE: u64 = 4_000_000;

/// Per-workload persistence hook for [`run_suite_outcome`]: invoked from
/// the worker thread with the workload's suite index and result as soon
/// as it completes.
pub type PersistFn<'a> = &'a (dyn Fn(usize, &RunResult) + Sync);

/// One workload's result under one configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Collected statistics.
    pub stats: SimStats,
    /// Telemetry counters over the measurement window. Empty for results
    /// deserialized from caches written before telemetry existed
    /// (`#[serde(default)]` keeps those readable).
    #[serde(default)]
    pub telemetry: RegistrySnapshot,
    /// Interval time series over the measurement window (empty when
    /// sampling was off, or for results cached before it existed).
    #[serde(default)]
    pub intervals: Vec<IntervalRecord>,
    /// Determinism-auditor digest samples (empty unless `UCP_DIGEST` was
    /// set, or for results cached before the auditor existed).
    #[serde(default)]
    pub digests: Vec<DigestRecord>,
    /// The run's manifest: the [`Knobs::to_env`] map of the knobs it ran
    /// under, in environment syntax. Empty (unknown, not the defaults)
    /// for results cached before manifests existed.
    #[serde(default)]
    pub knobs: BTreeMap<String, String>,
}

/// How [`run_suite_outcome`] isolates, retries and resumes workloads.
#[derive(Clone, Default)]
pub struct SuiteOptions {
    /// Attempts per workload before giving up (0 or unset → 3). Only
    /// retryable failures ([`SimError::is_retryable`]) consume retries;
    /// deterministic ones fail on the first attempt.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff in milliseconds
    /// (`base << (attempt − 1)`); 0 disables sleeping (tests).
    pub backoff_base_ms: u64,
    /// Resume support: slots already holding a result (from a previous,
    /// partially-persisted run) are not re-simulated. Shorter than the
    /// suite means the tail is unfilled.
    pub prefilled: Vec<Option<RunResult>>,
}

impl SuiteOptions {
    fn attempts(&self) -> u32 {
        if self.max_attempts == 0 {
            3
        } else {
            self.max_attempts
        }
    }
}

/// One workload's fate after isolation and retries.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// Workload name.
    pub workload: String,
    /// Attempts spent (1 = first try succeeded; 0 = prefilled/resumed).
    pub attempts: u32,
    /// The result, or the error from the final attempt.
    pub outcome: Result<RunResult, SimError>,
}

/// A whole suite's fate: every workload accounted for, in suite order,
/// whether it succeeded, was resumed from a previous run, or failed.
#[derive(Debug, Default)]
pub struct SuiteOutcome {
    /// Per-workload outcomes, in suite order.
    pub outcomes: Vec<WorkloadOutcome>,
}

impl SuiteOutcome {
    /// Workloads that produced a result.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.outcome.is_ok()).count()
    }

    /// Suite size.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// True when every workload completed.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.total()
    }

    /// The failures, as `(suite index, error)`.
    pub fn failures(&self) -> Vec<(usize, &SimError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.outcome.as_ref().err().map(|e| (i, e)))
            .collect()
    }

    /// All results when complete; the first failure otherwise.
    pub fn into_results(self) -> Result<Vec<RunResult>, SimError> {
        self.outcomes
            .into_iter()
            .map(|o| o.outcome)
            .collect::<Result<Vec<_>, _>>()
    }
}

/// Salt for deterministic retry re-seeding: attempt `k ≥ 2` of a
/// retryable failure perturbs the workload seed by `salt · (k − 1)`, so
/// a seed-sensitive corner (or an injected transient fault) gets a
/// genuinely different roll while staying reproducible.
const RESEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One attempt at one workload, with the fault-injection hooks armed.
/// Panics (including injected ones) unwind to the caller's
/// `catch_unwind`.
fn run_one_attempt(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
    index: usize,
) -> Result<RunOutput, SimError> {
    let fault = knobs.fault.as_deref();
    if fault.is_some_and(|p| p.armed_at("panic", index)) {
        panic!("injected fault: panic at suite index {index}");
    }
    let prog = spec.build();
    let mut sim = Simulator::with_knobs(&prog, spec.seed, cfg, knobs);
    if fault.is_some_and(|p| p.armed_at("hang", index)) {
        sim.inject_hang();
    }
    if fault.is_some_and(|p| p.armed_at("invariant", index)) {
        sim.inject_invariant_skew();
    }
    // Under `UCP_CKPT` this resumes from the newest valid checkpoint of
    // a previous (killed) run of the same trajectory instead of
    // re-simulating from cycle zero. A failed attempt keeps its
    // checkpoints on disk for the next resume; only a completed run
    // removes them.
    sim.arm_checkpointing(spec, warmup, measure, knobs);
    let out = sim.run_full(warmup, measure)?;
    sim.finish_checkpointing();
    Ok(out)
}

/// Runs one workload to its final outcome: isolation boundary
/// (`catch_unwind`), bounded retries with exponential backoff, and
/// deterministic re-seeding on attempts ≥ 2.
fn run_one_isolated(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    index: usize,
    knobs: &Knobs,
    opts: &SuiteOptions,
) -> WorkloadOutcome {
    let max_attempts = opts.attempts();
    let mut attempt = 0;
    let outcome = loop {
        attempt += 1;
        if attempt > 1 && opts.backoff_base_ms > 0 {
            let ms = opts.backoff_base_ms << (attempt - 2).min(16);
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let mut spec = spec.clone();
        if attempt > 1 {
            spec.seed ^= RESEED_SALT.wrapping_mul(attempt as u64 - 1);
        }
        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            run_one_attempt(&spec, cfg, warmup, measure, knobs, index)
        }))
        .unwrap_or_else(|payload| {
            let payload = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Err(SimError::WorkloadPanic {
                workload: String::new(),
                payload,
            })
        });
        match attempt_result {
            Ok(out) => {
                break Ok(RunResult {
                    workload: spec.name.clone(),
                    stats: out.stats,
                    telemetry: out.telemetry,
                    intervals: out.intervals,
                    digests: out.digests,
                    knobs: knobs.to_env(),
                })
            }
            Err(e) => {
                let e = e.for_workload(&spec.name);
                if !e.is_retryable() || attempt >= max_attempts {
                    break Err(e);
                }
            }
        }
    };
    WorkloadOutcome {
        workload: spec.name.clone(),
        attempts: attempt,
        outcome,
    }
}

/// Runs `cfg` over every workload in `suite`, in parallel,
/// deterministically, with per-workload fault isolation.
///
/// A pool of `min(available_parallelism, suite.len())` workers pulls
/// workload indices from a shared atomic cursor, so a slow workload never
/// holds idle threads hostage the way chunk barriers would. Each worker
/// writes into the slot matching its workload's suite index, so results
/// come back in suite order (and with per-workload determinism) regardless
/// of completion order — duplicate workload names included.
///
/// Each workload runs behind a `catch_unwind` isolation boundary with
/// bounded retries ([`SuiteOptions::max_attempts`]); `persist`, when
/// given, is invoked from the worker as soon as a workload completes, so
/// a killed process loses at most the in-flight workloads (crash-resume
/// via [`SuiteOptions::prefilled`]). Every simulator is configured from
/// `knobs`, and every result records them.
pub fn run_suite_outcome(
    suite: &[WorkloadSpec],
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
    opts: &SuiteOptions,
    persist: Option<PersistFn<'_>>,
) -> SuiteOutcome {
    let max_par = std::thread::available_parallelism().map_or(4, |n| n.get());
    let workers = max_par.max(1).min(suite.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<WorkloadOutcome>>> =
        (0..suite.len()).map(|_| Mutex::new(None)).collect();
    for (i, r) in opts.prefilled.iter().enumerate().take(suite.len()) {
        if let Some(r) = r {
            *slots[i].lock().expect("result slot poisoned") = Some(WorkloadOutcome {
                workload: r.workload.clone(),
                attempts: 0,
                outcome: Ok(r.clone()),
            });
        }
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = suite.get(i) else { break };
                if slots[i].lock().expect("result slot poisoned").is_some() {
                    continue; // resumed from a previous run
                }
                let outcome = run_one_isolated(spec, cfg, warmup, measure, i, knobs, opts);
                if let (Some(persist), Ok(r)) = (persist, &outcome.outcome) {
                    persist(i, r);
                }
                *slots[i].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    SuiteOutcome {
        outcomes: slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("all slots filled")
            })
            .collect(),
    }
}

/// Runs `cfg` over every workload in `suite` with default isolation
/// options, returning the results only if every workload completed.
///
/// # Errors
///
/// The first per-workload failure that survived retries.
pub fn run_suite(
    suite: &[WorkloadSpec],
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
) -> Result<Vec<RunResult>, SimError> {
    let opts = SuiteOptions::default();
    run_suite_outcome(suite, cfg, warmup, measure, knobs, &opts, None).into_results()
}

/// The first interval at which a replayed run's state digest stopped
/// matching the recorded run's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayDivergence {
    /// Committed-instruction count of the first divergent digest sample
    /// (from run A; the runs agreed on every earlier sample).
    pub committed: u64,
    /// Cycle at which run A took the divergent sample.
    pub cycle_a: u64,
    /// Cycle at which run B took the divergent sample.
    pub cycle_b: u64,
    /// Run A's state digest at the divergent sample.
    pub digest_a: u64,
    /// Run B's state digest at the divergent sample.
    pub digest_b: u64,
}

/// Outcome of [`replay_verify`]: a run-vs-replay digest comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Workload name.
    pub workload: String,
    /// Digest samples compared (the shorter run bounds this).
    pub intervals_compared: usize,
    /// The first divergent interval, or `None` when every compared
    /// sample matched.
    pub first_divergence: Option<ReplayDivergence>,
}

impl ReplayReport {
    /// True when the replay matched the original at every compared
    /// sample.
    pub fn is_deterministic(&self) -> bool {
        self.first_divergence.is_none()
    }
}

/// The determinism auditor's replay mode: runs `spec` twice with a
/// rolling state digest every `every` committed instructions and reports
/// the first interval at which the two runs diverge.
///
/// A clean simulator is bit-deterministic, so the report normally shows
/// no divergence. `fault` with an `invariant` site armed at index 0
/// skews run A mid-flight (the `UCP_FAULT` invariant injection), which
/// the auditor then localizes to the first digest sample after the skew
/// — the self-test that proves the auditor can see real divergence.
///
/// # Errors
///
/// Any [`SimError`] from the underlying runs, except an invariant
/// violation in an intentionally-skewed run A (expected there; the
/// digests collected up to the violation are still compared).
pub fn replay_verify(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    every: u64,
    fault: Option<&FaultPlan>,
) -> Result<ReplayReport, SimError> {
    let digests_of = |inject: bool| -> Result<Vec<DigestRecord>, SimError> {
        let prog = spec.build();
        let mut sim = Simulator::new(&prog, spec.seed, cfg);
        sim.set_digest_interval(Some(every));
        if inject {
            sim.inject_invariant_skew();
        }
        match sim.run_full(warmup, measure) {
            Ok(out) => Ok(out.digests),
            Err(SimError::InvariantViolation { .. }) if inject => Ok(sim.digests().to_vec()),
            Err(e) => Err(e),
        }
    };
    let skew = fault.is_some_and(|p| p.armed_at("invariant", 0));
    let a = digests_of(skew)?;
    let b = digests_of(false)?;
    let n = a.len().min(b.len());
    let first_divergence = (0..n).find(|&i| a[i] != b[i]).map(|i| ReplayDivergence {
        committed: a[i].committed,
        cycle_a: a[i].cycle,
        cycle_b: b[i].cycle,
        digest_a: a[i].digest,
        digest_b: b[i].digest,
    });
    Ok(ReplayReport {
        workload: spec.name.clone(),
        intervals_compared: n,
        first_divergence,
    })
}

/// Per-workload speedups `new/base − 1` in percent, paired by suite order.
///
/// # Panics
///
/// Panics if the result sets differ in length or workload order.
pub fn speedups_pct(base: &[RunResult], new: &[RunResult]) -> Vec<f64> {
    assert_eq!(base.len(), new.len());
    base.iter()
        .zip(new)
        .map(|(b, n)| {
            assert_eq!(b.workload, n.workload, "result sets must align");
            (n.stats.ipc() / b.stats.ipc() - 1.0) * 100.0
        })
        .collect()
}

/// Pairs two (possibly degraded) result sets by workload name, in `base`
/// order, dropping workloads present in only one set. Duplicate names
/// pair positionally (first unmatched `new` occurrence wins), matching
/// the suite runner's slot semantics. The returned sets satisfy
/// [`speedups_pct`]'s alignment requirement by construction.
pub fn align_by_workload(
    base: &[RunResult],
    new: &[RunResult],
) -> (Vec<RunResult>, Vec<RunResult>) {
    let mut taken = vec![false; new.len()];
    let mut b_out = Vec::new();
    let mut n_out = Vec::new();
    for b in base {
        let hit = new
            .iter()
            .enumerate()
            .find(|(j, n)| !taken[*j] && n.workload == b.workload);
        if let Some((j, n)) = hit {
            taken[j] = true;
            b_out.push(b.clone());
            n_out.push(n.clone());
        }
    }
    (b_out, n_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_workloads::WorkloadSpec;

    fn suite_ok(suite: &[WorkloadSpec], cfg: &SimConfig, w: u64, m: u64) -> Vec<RunResult> {
        run_suite(suite, cfg, w, m, &Knobs::default()).expect("suite run failed")
    }

    #[test]
    fn run_suite_preserves_order_and_determinism() {
        let suite = vec![WorkloadSpec::tiny("a", 1), WorkloadSpec::tiny("b", 2)];
        let cfg = SimConfig::baseline();
        let r1 = suite_ok(&suite, &cfg, 5_000, 20_000);
        let r2 = suite_ok(&suite, &cfg, 5_000, 20_000);
        assert_eq!(r1[0].workload, "a");
        assert_eq!(r1[1].workload, "b");
        assert_eq!(r1[0].stats.cycles, r2[0].stats.cycles, "deterministic");
        assert!((20_000..20_016).contains(&r1[1].stats.instructions));
    }

    #[test]
    fn run_suite_handles_duplicate_names() {
        // Same name, different seeds: slot indexing must not key on names.
        let suite = vec![
            WorkloadSpec::tiny("dup", 1),
            WorkloadSpec::tiny("dup", 2),
            WorkloadSpec::tiny("dup", 3),
            WorkloadSpec::tiny("other", 4),
        ];
        let cfg = SimConfig::baseline();
        let r = suite_ok(&suite, &cfg, 5_000, 20_000);
        assert_eq!(r.len(), 4);
        assert_eq!(r[3].workload, "other");
        // Each slot must hold its own seed's run: seeds 1..3 diverge.
        let solo: Vec<u64> = suite
            .iter()
            .map(|s| Simulator::run_spec(s, &cfg, 5_000, 20_000).cycles)
            .collect();
        for (got, want) in r.iter().zip(&solo) {
            assert_eq!(got.stats.cycles, *want, "slot matched to wrong workload");
        }
    }

    #[test]
    fn run_suite_results_carry_telemetry() {
        let suite = vec![WorkloadSpec::tiny("a", 1)];
        let r = suite_ok(&suite, &SimConfig::baseline(), 5_000, 20_000);
        let snap = &r[0].telemetry;
        assert!(!snap.is_empty(), "measurement window should tick counters");
        assert!(snap.counters.contains_key("frontend.uopc.hits"));
        // Cycle accounting rides in the same window delta and must tile
        // the measured cycles exactly.
        let b = ucp_telemetry::AccountingBreakdown::from_snapshot(snap);
        b.verify().expect("accounting invariant");
        assert_eq!(b.total, r[0].stats.cycles);
        // Default sampling is on: at least the final partial interval.
        assert!(!r[0].intervals.is_empty());
        let sampled: u64 = r[0].intervals.iter().map(|iv| iv.cycles()).sum();
        assert_eq!(sampled, r[0].stats.cycles, "intervals tile the window");
    }

    #[test]
    fn legacy_results_deserialize_without_telemetry() {
        // A cache entry written before RunResult.telemetry existed.
        let stats = SimStats::default();
        let mut v = serde_json::to_value(&RunResult {
            workload: "w".into(),
            stats,
            telemetry: RegistrySnapshot::default(),
            intervals: Vec::new(),
            digests: Vec::new(),
            knobs: BTreeMap::new(),
        })
        .unwrap();
        if let serde_json::Value::Map(entries) = &mut v {
            entries
                .retain(|(k, _)| !["telemetry", "intervals", "digests", "knobs"].contains(&&**k));
        }
        let back: RunResult = serde_json::from_value(v).unwrap();
        assert!(back.telemetry.is_empty());
        assert!(back.intervals.is_empty());
        assert!(back.knobs.is_empty(), "an old entry's manifest is unknown");
    }

    #[test]
    fn speedups_align_by_name() {
        let suite = vec![WorkloadSpec::tiny("a", 3)];
        let base = suite_ok(&suite, &SimConfig::no_uop_cache(), 5_000, 20_000);
        let with = suite_ok(&suite, &SimConfig::baseline(), 5_000, 20_000);
        let s = speedups_pct(&base, &with);
        assert_eq!(s.len(), 1);
    }

    fn fake_result(name: &str, cycles: u64) -> RunResult {
        RunResult {
            workload: name.into(),
            stats: SimStats {
                cycles,
                instructions: cycles,
                ..Default::default()
            },
            telemetry: RegistrySnapshot::default(),
            intervals: Vec::new(),
            digests: Vec::new(),
            knobs: BTreeMap::new(),
        }
    }

    #[test]
    fn align_by_workload_drops_unmatched_and_handles_dups() {
        let base = vec![
            fake_result("a", 1),
            fake_result("b", 2),
            fake_result("b", 3),
        ];
        let new = vec![
            fake_result("b", 10),
            fake_result("c", 11),
            fake_result("b", 12),
        ];
        let (b, n) = align_by_workload(&base, &new);
        assert_eq!(b.len(), 2, "only the two `b`s pair");
        assert_eq!((b[0].stats.cycles, n[0].stats.cycles), (2, 10));
        assert_eq!((b[1].stats.cycles, n[1].stats.cycles), (3, 12));
        // The aligned sets satisfy speedups_pct's precondition.
        let _ = speedups_pct(&b, &n);
    }

    fn with_fault(spec: &str) -> Knobs {
        Knobs {
            fault: Some(std::sync::Arc::new(FaultPlan::parse(spec).unwrap())),
            ..Knobs::default()
        }
    }

    fn outcome(suite: &[WorkloadSpec], knobs: &Knobs, opts: &SuiteOptions) -> SuiteOutcome {
        run_suite_outcome(
            suite,
            &SimConfig::baseline(),
            5_000,
            20_000,
            knobs,
            opts,
            None,
        )
    }

    #[test]
    fn injected_panic_degrades_not_kills() {
        let suite = vec![WorkloadSpec::tiny("a", 1), WorkloadSpec::tiny("b", 2)];
        let opts = SuiteOptions {
            max_attempts: 2,
            ..Default::default()
        };
        let out = outcome(&suite, &with_fault("panic:2"), &opts);
        assert_eq!(out.completed(), 1);
        assert!(!out.is_complete());
        let fails = out.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, 1, "workload 2 (index 1) is the victim");
        assert_eq!(fails[0].1.kind(), "workload-panic");
        assert!(fails[0].1.to_string().contains("`b`"));
        assert_eq!(
            out.outcomes[1].attempts, 2,
            "panic is retryable; both spent"
        );
        // The survivor's manifest names the plan it ran under.
        let survivor = out.outcomes[0].outcome.as_ref().unwrap();
        assert_eq!(survivor.knobs["UCP_FAULT"], "panic:2");
        assert!(out.into_results().is_err());
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        let suite = vec![WorkloadSpec::tiny("a", 1)];
        let opts = SuiteOptions {
            max_attempts: 3,
            ..Default::default()
        };
        let out = outcome(&suite, &with_fault("panic:1:1"), &opts);
        assert!(out.is_complete());
        assert_eq!(out.outcomes[0].attempts, 2, "one failure, one success");
    }

    #[test]
    fn injected_hang_is_caught_by_watchdog() {
        let suite = vec![WorkloadSpec::tiny("a", 1)];
        let opts = SuiteOptions {
            max_attempts: 1,
            ..Default::default()
        };
        let knobs = Knobs {
            watchdog: Some(2_000),
            ..with_fault("hang:1")
        };
        let out = outcome(&suite, &knobs, &opts);
        let fails = out.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].1.kind(), "hang");
        let snap = fails[0].1.snapshot().expect("hang carries a snapshot");
        assert_eq!(snap.committed, 0, "hang injected from cycle zero");
    }

    #[test]
    fn prefilled_slots_resume_without_resimulating() {
        let suite = vec![WorkloadSpec::tiny("a", 1), WorkloadSpec::tiny("b", 2)];
        // Slot 0 prefilled with a sentinel: if the runner re-simulated it,
        // the fake cycles value would be overwritten.
        let opts = SuiteOptions {
            prefilled: vec![Some(fake_result("a", 777)), None],
            ..Default::default()
        };
        let persisted = Mutex::new(Vec::new());
        let persist = |i: usize, _r: &RunResult| {
            persisted.lock().unwrap().push(i);
        };
        let out = run_suite_outcome(
            &suite,
            &SimConfig::baseline(),
            5_000,
            20_000,
            &Knobs::default(),
            &opts,
            Some(&persist),
        );
        assert!(out.is_complete());
        assert_eq!(out.outcomes[0].attempts, 0, "resumed, not re-run");
        let r = out.into_results().unwrap();
        assert_eq!(r[0].stats.cycles, 777, "prefilled result kept verbatim");
        assert!(r[1].stats.cycles > 0);
        assert_eq!(
            *persisted.lock().unwrap(),
            vec![1],
            "only fresh work persisted"
        );
    }
}
