//! Experiment runner: runs configurations over workload suites, in
//! parallel across workloads, deterministically — and fault-isolated:
//! one panicking, hanging or invariant-violating workload degrades the
//! suite instead of killing it.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::knobs::Knobs;
use crate::pipeline::Simulator;
use crate::snapshot::DigestRecord;
use crate::stats::SimStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use ucp_telemetry::fault::FaultPlan;
use ucp_telemetry::interval::IntervalRecord;
use ucp_telemetry::RegistrySnapshot;
use ucp_workloads::WorkloadSpec;

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
    /// Telemetry counters over the measurement window.
    pub telemetry: RegistrySnapshot,
    /// Interval time series over the measurement window (empty when
    /// sampling was off).
    pub intervals: Vec<IntervalRecord>,
    /// Determinism-auditor digest samples (empty unless `UCP_DIGEST` was
    /// set).
    pub digests: Vec<DigestRecord>,
    /// The run's manifest: the [`Knobs::to_env`] map of the knobs it ran
    /// under, in environment syntax.
    pub knobs: BTreeMap<String, String>,
}

/// A suite's fate: the successful results, the failures, and which
/// workloads were simulated. Derefs to the *successful* results (in
/// suite order), so aggregation code written for `Vec<RunResult>` keeps
/// working; the failure records ride alongside for report markers.
#[derive(Debug, Default)]
pub struct SuiteRun {
    results: Vec<RunResult>,
    /// Workloads that failed: `(name, error)`, in suite order.
    pub failures: Vec<(String, SimError)>,
    /// Per workload, in suite order: `true` = simulated by this run,
    /// `false` = served from a prefilled slot.
    pub simulated: Vec<bool>,
}

impl Deref for SuiteRun {
    type Target = [RunResult];
    fn deref(&self) -> &[RunResult] {
        &self.results
    }
}

impl SuiteRun {
    /// Suite size (`len() + failures.len()`).
    pub fn total(&self) -> usize {
        self.simulated.len()
    }

    /// True when every workload produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The `DEGRADED (k/n)` report marker, or `None` when complete.
    pub fn marker(&self) -> Option<String> {
        (!self.is_complete()).then(|| format!("DEGRADED ({}/{})", self.len(), self.total()))
    }

    /// All results when complete; the first failure otherwise.
    pub fn into_results(self) -> Result<Vec<RunResult>, SimError> {
        match self.failures.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(self.results),
        }
    }
}

/// One run of one workload, with the fault-injection hooks armed.
/// Panics (including injected ones) unwind to the caller's
/// `catch_unwind`.
fn run_one(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
    index: usize,
) -> Result<RunResult, SimError> {
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
    // re-simulating from cycle zero. A failed run keeps its checkpoints
    // on disk for the next resume; only a completed run removes them.
    sim.arm_checkpointing(spec, warmup, measure, knobs);
    let out = sim.run_full(warmup, measure)?;
    sim.finish_checkpointing();
    Ok(RunResult {
        workload: spec.name.clone(),
        stats: out.stats,
        telemetry: out.telemetry,
        intervals: out.intervals,
        digests: out.digests,
        knobs: knobs.to_env(),
    })
}

/// Runs one workload behind the isolation boundary (`catch_unwind`):
/// a panic becomes [`SimError::WorkloadPanic`], and every error is
/// stamped with the workload's name.
fn run_one_isolated(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
    index: usize,
) -> Result<RunResult, SimError> {
    catch_unwind(AssertUnwindSafe(|| {
        run_one(spec, cfg, warmup, measure, knobs, index)
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
    })
    .map_err(|e| e.for_workload(&spec.name))
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
/// Slots already holding a result in `prefilled` (a cache hit, or a
/// previous run's persisted work; shorter than the suite means the tail
/// is unfilled) are not re-simulated. Each other workload runs once,
/// with its own seed, behind a `catch_unwind` isolation boundary; a
/// failure is recorded, not retried. `persist`, when given, is invoked
/// from the worker as soon as a workload completes, so a killed process
/// loses at most the in-flight workloads. Every simulator is configured
/// from `knobs`, and every result records them.
pub fn run_suite_outcome(
    suite: &[WorkloadSpec],
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    knobs: &Knobs,
    prefilled: Vec<Option<RunResult>>,
    persist: Option<PersistFn<'_>>,
) -> SuiteRun {
    type Slot = Mutex<Option<(bool, Result<RunResult, SimError>)>>;
    let max_par = std::thread::available_parallelism().map_or(4, |n| n.get());
    let workers = max_par.max(1).min(suite.len().max(1));
    let next = AtomicUsize::new(0);
    let mut prefilled = prefilled.into_iter();
    let slots: Vec<Slot> = suite
        .iter()
        .map(|_| Mutex::new(prefilled.next().flatten().map(|r| (false, Ok(r)))))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = suite.get(i) else { break };
                if slots[i].lock().expect("result slot poisoned").is_some() {
                    continue; // prefilled
                }
                let outcome = run_one_isolated(spec, cfg, warmup, measure, knobs, i);
                if let (Ok(r), Some(persist)) = (&outcome, persist) {
                    persist(i, r);
                }
                *slots[i].lock().expect("result slot poisoned") = Some((true, outcome));
            });
        }
    });
    let mut run = SuiteRun::default();
    for (spec, slot) in suite.iter().zip(slots) {
        let (simulated, outcome) = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("all slots filled");
        run.simulated.push(simulated);
        match outcome {
            Ok(r) => run.results.push(r),
            Err(e) => run.failures.push((spec.name.clone(), e)),
        }
    }
    run
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
        run_suite_outcome(suite, cfg, w, m, &Knobs::default(), Vec::new(), None)
            .into_results()
            .expect("suite run failed")
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
        assert!(
            snap.counters.values().any(|&v| v > 0),
            "measurement window should tick counters"
        );
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

    fn outcome(suite: &[WorkloadSpec], knobs: &Knobs) -> SuiteRun {
        run_suite_outcome(
            suite,
            &SimConfig::baseline(),
            5_000,
            20_000,
            knobs,
            Vec::new(),
            None,
        )
    }

    #[test]
    fn injected_panic_degrades_not_kills() {
        let suite = vec![WorkloadSpec::tiny("a", 1), WorkloadSpec::tiny("b", 2)];
        let out = outcome(&suite, &with_fault("panic:2"));
        assert_eq!(out.len(), 1);
        assert!(!out.is_complete());
        assert_eq!(out.marker().as_deref(), Some("DEGRADED (1/2)"));
        assert_eq!(out.failures.len(), 1);
        let (name, err) = &out.failures[0];
        assert_eq!(name, "b", "workload 2 (index 1) is the victim");
        assert_eq!(err.kind(), "workload-panic");
        assert!(err.to_string().contains("`b`"));
        assert_eq!(out.simulated, vec![true, true], "each workload ran once");
        // The survivor's manifest names the plan it ran under.
        assert_eq!(out[0].knobs["UCP_FAULT"], "panic:2");
        assert!(out.into_results().is_err());
    }

    #[test]
    fn injected_hang_is_caught_by_watchdog() {
        let suite = vec![WorkloadSpec::tiny("a", 1)];
        let knobs = Knobs {
            watchdog: Some(2_000),
            ..with_fault("hang:1")
        };
        let out = outcome(&suite, &knobs);
        assert_eq!(out.failures.len(), 1);
        let err = &out.failures[0].1;
        assert_eq!(err.kind(), "hang");
        let snap = err.snapshot().expect("hang carries a snapshot");
        assert_eq!(snap.committed, 0, "hang injected from cycle zero");
    }

    #[test]
    fn prefilled_slots_resume_without_resimulating() {
        let suite = vec![WorkloadSpec::tiny("a", 1), WorkloadSpec::tiny("b", 2)];
        // Slot 0 prefilled with a sentinel: if the runner re-simulated it,
        // the fake cycles value would be overwritten.
        let persisted = Mutex::new(Vec::new());
        let persist = |i: usize, _r: &RunResult| persisted.lock().unwrap().push(i);
        let out = run_suite_outcome(
            &suite,
            &SimConfig::baseline(),
            5_000,
            20_000,
            &Knobs::default(),
            vec![Some(fake_result("a", 777))],
            Some(&persist),
        );
        assert!(out.is_complete());
        assert_eq!(
            out.simulated,
            vec![false, true],
            "slot 0 served, not re-run"
        );
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
