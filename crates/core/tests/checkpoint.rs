//! Checkpoint/restore property tests: a killed run resumed from its
//! newest checkpoint must be bit-identical to an uninterrupted one, torn
//! checkpoint writes must quarantine and fall back, and the determinism
//! auditor must localize an injected divergence.
//!
//! These live in an integration test (not `mod tests`) deliberately: the
//! pipeline's accounting invariant panics under `cfg(test)` but returns
//! [`ucp_core::SimError::InvariantViolation`] in all other builds, and
//! `replay_verify` relies on the structured error.

use std::sync::Arc;
use ucp_core::snapshot::{latest_valid_checkpoint, remove_run_checkpoints, run_slug};
use ucp_core::{replay_verify, CheckpointPolicy, Knobs, RunOutput, SimConfig, Simulator};
use ucp_telemetry::fault::FaultPlan;
use ucp_workloads::WorkloadSpec;

const WARMUP: u64 = 5_000;
const MEASURE: u64 = 20_000;
const DIGEST_EVERY: u64 = 4_000;

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn run_dir(spec: &WorkloadSpec, cfg: &SimConfig) -> std::path::PathBuf {
    let slug = run_slug(&spec.name, spec.seed, &json(cfg), WARMUP, MEASURE);
    Knobs::default().ckpt_dir.join(slug)
}

fn checkpointing(policy: CheckpointPolicy, fault: Option<Arc<FaultPlan>>) -> Knobs {
    Knobs {
        ckpt: Some(policy),
        fault,
        ..Knobs::default()
    }
}

fn reference_run(spec: &WorkloadSpec, cfg: &SimConfig) -> RunOutput {
    let prog = spec.build();
    let mut sim = Simulator::new(&prog, spec.seed, cfg);
    sim.set_digest_interval(Some(DIGEST_EVERY));
    sim.run_full(WARMUP, MEASURE).expect("reference run")
}

/// Runs `spec` with checkpointing armed and "crashes" (drops the
/// simulator without `finish_checkpointing`), leaving checkpoints on
/// disk exactly as a killed process would.
fn crashed_run(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    policy: CheckpointPolicy,
    fault: Option<Arc<FaultPlan>>,
) {
    let prog = spec.build();
    let mut sim = Simulator::new(&prog, spec.seed, cfg);
    sim.set_digest_interval(Some(DIGEST_EVERY));
    let resumed = sim.arm_checkpointing(spec, WARMUP, MEASURE, &checkpointing(policy, fault));
    assert!(
        resumed.is_none(),
        "directory was cleaned; nothing to resume"
    );
    sim.run_full(WARMUP, MEASURE).expect("interrupted run");
    // Crash: no finish_checkpointing — the checkpoints survive.
}

fn resumed_run(spec: &WorkloadSpec, cfg: &SimConfig, policy: CheckpointPolicy) -> (u64, RunOutput) {
    let prog = spec.build();
    let mut sim = Simulator::new(&prog, spec.seed, cfg);
    sim.set_digest_interval(Some(DIGEST_EVERY));
    let resumed = sim
        .arm_checkpointing(spec, WARMUP, MEASURE, &checkpointing(policy, None))
        .expect("a valid checkpoint must be found");
    let out = sim.run_full(WARMUP, MEASURE).expect("resumed run");
    sim.finish_checkpointing();
    (resumed, out)
}

#[test]
fn resume_from_checkpoint_is_bit_identical_across_seeds() {
    let cfg = SimConfig::baseline();
    for seed in [1u64, 2, 3] {
        let spec = WorkloadSpec::tiny(&format!("ckpt-id-s{seed}"), seed);
        let dir = run_dir(&spec, &cfg);
        remove_run_checkpoints(&dir);

        let reference = reference_run(&spec, &cfg);
        let policy = CheckpointPolicy {
            every: 6_000,
            keep: 2,
        };
        crashed_run(&spec, &cfg, policy, None);
        assert!(
            latest_valid_checkpoint(&dir).is_some(),
            "crash left checkpoints behind (seed {seed})"
        );

        let (resumed, out) = resumed_run(&spec, &cfg, policy);
        assert!(
            resumed >= policy.every,
            "resumed mid-run, not from cycle zero (seed {seed}, resumed at {resumed})"
        );
        assert_eq!(
            json(&out.stats),
            json(&reference.stats),
            "stats bit-identical (seed {seed})"
        );
        assert_eq!(
            json(&out.intervals),
            json(&reference.intervals),
            "interval series bit-identical (seed {seed})"
        );
        assert_eq!(
            out.telemetry, reference.telemetry,
            "telemetry bit-identical (seed {seed})"
        );
        assert_eq!(
            out.digests, reference.digests,
            "digest stream bit-identical (seed {seed})"
        );
        assert!(!dir.exists(), "completed run removed its checkpoints");
    }
}

#[test]
fn torn_checkpoint_write_quarantines_and_falls_back() {
    let cfg = SimConfig::baseline();
    let spec = WorkloadSpec::tiny("ckpt-torn", 9);
    let dir = run_dir(&spec, &cfg);
    remove_run_checkpoints(&dir);

    let reference = reference_run(&spec, &cfg);
    // Every checkpoint write from the 3rd onward is torn mid-write, so
    // only the first two land intact. keep must retain them.
    let plan = Arc::new(FaultPlan::parse("torn_write:3").expect("valid plan"));
    let policy = CheckpointPolicy {
        every: 6_000,
        keep: 10,
    };
    crashed_run(&spec, &cfg, policy, Some(plan));

    let (resumed, out) = resumed_run(&spec, &cfg, policy);
    assert!(
        resumed >= policy.every && resumed < 3 * policy.every,
        "resumed from the 2nd (newest intact) checkpoint, got {resumed}"
    );
    assert_eq!(
        json(&out.stats),
        json(&reference.stats),
        "stats bit-identical"
    );
    assert_eq!(
        out.digests, reference.digests,
        "digest stream bit-identical"
    );
    // resumed_run's finish_checkpointing removed the run directory —
    // quarantined torn files included.
    assert!(!dir.exists());
}

#[test]
fn torn_newest_checkpoint_is_quarantined_on_disk() {
    let cfg = SimConfig::baseline();
    let spec = WorkloadSpec::tiny("ckpt-quar", 11);
    let dir = run_dir(&spec, &cfg);
    remove_run_checkpoints(&dir);

    let plan = Arc::new(FaultPlan::parse("torn_write:3").expect("valid plan"));
    let policy = CheckpointPolicy {
        every: 6_000,
        keep: 10,
    };
    crashed_run(&spec, &cfg, policy, Some(plan));

    let intact_before: Vec<_> = std::fs::read_dir(&dir)
        .expect("run dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        intact_before.iter().any(|n| n.starts_with("ckpt-")),
        "checkpoints written: {intact_before:?}"
    );

    // Loading must reject (and quarantine) every torn checkpoint and
    // return the newest intact one.
    let (meta, _) = latest_valid_checkpoint(&dir).expect("an intact checkpoint survives");
    assert!(
        meta.committed < 3 * policy.every,
        "third and later checkpoints were torn, got {}",
        meta.committed
    );
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("run dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.contains("quarantined")),
        "torn checkpoints quarantined aside: {names:?}"
    );
    remove_run_checkpoints(&dir);
}

#[test]
fn injected_kill_after_first_checkpoint_resumes_bit_identically() {
    let cfg = SimConfig::baseline();
    let spec = WorkloadSpec::tiny("ckpt-kill", 21);
    let dir = run_dir(&spec, &cfg);
    remove_run_checkpoints(&dir);

    let reference = reference_run(&spec, &cfg);
    // The `kill` site panics right after the first checkpoint write
    // lands — an actual mid-run death, unlike crashed_run above, which
    // runs to completion and merely skips the cleanup.
    let plan = Arc::new(FaultPlan::parse("kill:1:1").expect("valid plan"));
    let policy = CheckpointPolicy {
        every: 6_000,
        keep: 3,
    };
    let prog = spec.build();
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Simulator::new(&prog, spec.seed, &cfg);
        sim.set_digest_interval(Some(DIGEST_EVERY));
        sim.arm_checkpointing(&spec, WARMUP, MEASURE, &checkpointing(policy, Some(plan)));
        sim.run_full(WARMUP, MEASURE).map(|_| ())
    }));
    assert!(killed.is_err(), "kill site must panic mid-run");
    let (meta, _) = latest_valid_checkpoint(&dir).expect("the checkpoint written before the kill");
    assert!(
        meta.committed >= policy.every && meta.committed < 2 * policy.every,
        "died right after the first checkpoint, got {}",
        meta.committed
    );

    let (resumed, out) = resumed_run(&spec, &cfg, policy);
    assert_eq!(resumed, meta.committed);
    assert_eq!(
        json(&out.stats),
        json(&reference.stats),
        "stats bit-identical"
    );
    assert_eq!(
        out.digests, reference.digests,
        "digest stream bit-identical"
    );
    assert!(!dir.exists(), "completed run removed its checkpoints");
}

#[test]
fn replay_verify_clean_run_is_deterministic() {
    let spec = WorkloadSpec::tiny("replay-clean", 5);
    let report = replay_verify(
        &spec,
        &SimConfig::baseline(),
        WARMUP,
        MEASURE,
        DIGEST_EVERY,
        None,
    )
    .expect("clean replay");
    assert!(report.is_deterministic(), "{:?}", report.first_divergence);
    assert!(
        report.intervals_compared >= 4,
        "digest cadence produced samples: {}",
        report.intervals_compared
    );
    assert_eq!(report.workload, "replay-clean");
}

#[test]
fn replay_verify_names_first_divergent_interval_on_skewed_run() {
    let spec = WorkloadSpec::tiny("replay-skew", 5);
    let plan = FaultPlan::parse("invariant:1").expect("valid plan");
    let report = replay_verify(
        &spec,
        &SimConfig::baseline(),
        WARMUP,
        MEASURE,
        DIGEST_EVERY,
        Some(&plan),
    )
    .expect("skewed replay");
    let d = report.first_divergence.expect("skew must diverge");
    // The skew perturbs state at the start of the measurement window
    // (WARMUP committed), so the pre-warmup digest sample still matches
    // and the first divergent one lands after it.
    assert!(
        d.committed > DIGEST_EVERY,
        "first sample (pre-skew) matches, got divergence at {}",
        d.committed
    );
    assert!(
        d.committed >= WARMUP,
        "divergence at/after the measurement window opens, got {}",
        d.committed
    );
    assert_ne!(d.digest_a, d.digest_b);
}
