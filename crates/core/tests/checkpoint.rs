//! Checkpoint/restore property tests: a killed run resumed from its
//! newest checkpoint must be bit-identical to an uninterrupted one, torn
//! checkpoint writes must quarantine and fall back, and the determinism
//! auditor must localize an injected divergence.
//!
//! These live in an integration test (not `mod tests`) deliberately: the
//! pipeline's accounting invariant panics under `cfg(test)` but returns
//! [`ucp_core::SimError::InvariantViolation`] in all other builds, and
//! `replay_verify` relies on the structured error.

use sim_isa::{fnv1a64, StateWriter};
use std::sync::Arc;
use ucp_core::snapshot::{latest_valid_checkpoint, remove_run_checkpoints, run_slug};
use ucp_core::{
    replay_verify, CheckpointPolicy, Knobs, PrefetcherKind, RunOutput, SimConfig, Simulator,
};
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
    let plan = Arc::new(FaultPlan::parse("kill:1").expect("valid plan"));
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

/// Offset of section mark `tag` in saved state bytes (the writer stores
/// each tag XOR-masked, little-endian), searching from `from`.
fn mark_offset(state: &[u8], tag: u32, from: usize) -> usize {
    let pattern = (tag ^ 0x5AFE_5AFE).to_le_bytes();
    from + state[from..]
        .windows(4)
        .position(|w| w == pattern)
        .unwrap_or_else(|| panic!("mark {tag:#x} not found"))
}

/// Entries in the resolve queue, the last field before mark `SIM3`: a
/// `u64` length, then `(cycle, record id)` pairs of `u64`s.
fn resolve_queue_len(state: &[u8], sim3: usize) -> usize {
    (0..64)
        .find(|&n| {
            let at = sim3 - 16 * n - 8;
            u64::from_le_bytes(state[at..at + 8].try_into().unwrap()) == n as u64
        })
        .expect("resolve queue length")
}

/// Codec field perturbation: restore must accept only bytes that save
/// writes. Flipping one byte of a mid-run state moves its digest, and
/// restore either rejects the bytes (panics) or yields a machine that
/// re-saves exactly them — so no two byte strings restore to the same
/// machine. The flips sit at evenly spaced offsets in each section before
/// mark `SIM3`, plus every byte of that section's tail, which holds the
/// resolve queue (saved sorted). The serde-JSON sections after `SIM3` are
/// not covered.
#[test]
fn perturbed_state_is_rejected_or_resaved_verbatim() {
    const PER_SECTION: usize = 32;
    const TAIL: usize = 64;
    let cfg = SimConfig::ucp();
    let spec = WorkloadSpec::tiny("perturb", 3);
    let prog = spec.build();
    let mut sim = Simulator::new(&prog, spec.seed, &cfg);
    // A mid-run point where the resolve queue holds several entries, so
    // reordering them is among the perturbations.
    let mut target = WARMUP + MEASURE / 2;
    let (state, marks) = loop {
        sim.run_to_committed(target, WARMUP).expect("mid-run state");
        let mut w = StateWriter::new();
        sim.save_state(&mut w);
        let state = w.into_bytes();
        let mut marks = vec![0];
        for tag in 0x5349_4d31..=0x5349_4d33 {
            marks.push(mark_offset(&state, tag, marks[marks.len() - 1] + 4));
        }
        if resolve_queue_len(&state, marks[3]) >= 2 {
            break (state, marks);
        }
        target += 97;
        assert!(
            target < WARMUP + MEASURE,
            "no state with a busy resolve queue"
        );
    };
    let digest = fnv1a64(&state);

    let mut offsets: Vec<usize> = marks
        .windows(2)
        .flat_map(|m| {
            let (start, end) = (m[0] + 4, m[1]);
            (0..PER_SECTION).map(move |k| start + (end - start) * k / PER_SECTION)
        })
        .collect();
    offsets.extend(marks[3] - TAIL..marks[3]);
    for off in offsets {
        let mut perturbed = state.clone();
        perturbed[off] ^= 0xFF;
        assert_ne!(fnv1a64(&perturbed), digest, "digest moves (offset {off})");
        let resaved = std::panic::catch_unwind(|| {
            let mut restored = Simulator::new(&prog, spec.seed, &cfg);
            restored.restore_from_bytes(&perturbed);
            let mut w = StateWriter::new();
            restored.save_state(&mut w);
            w.into_bytes()
        });
        if let Ok(resaved) = resaved {
            assert!(
                resaved == perturbed,
                "restore accepted bytes save never writes (offset {off}, {} before SIM3)",
                marks[3] - off
            );
        }
    }
}

/// `state_digest` hashes the state as it serializes; it must equal the
/// FNV-1a digest of the buffered bytes, mid-run, whatever the machine
/// holds: UCP's walk and mirror checkpoints, EP++'s tables, no µ-op cache.
#[test]
fn streamed_digest_equals_digest_of_saved_bytes() {
    let ep = SimConfig {
        prefetcher: PrefetcherKind::EpPlusPlus,
        ..SimConfig::baseline()
    };
    let spec = ucp_workloads::suite::by_name("srv04").expect("srv04 exists");
    let prog = spec.build();
    for cfg in [SimConfig::ucp(), ep, SimConfig::no_uop_cache()] {
        let mut sim = Simulator::new(&prog, spec.seed, &cfg);
        for target in [WARMUP / 2, WARMUP + MEASURE / 2] {
            sim.run_to_committed(target, WARMUP).expect("mid-run state");
            let mut w = StateWriter::new();
            sim.save_state(&mut w);
            assert_eq!(sim.state_digest(), fnv1a64(w.bytes()));
            assert_eq!(w.digest(), fnv1a64(w.bytes()));
        }
    }
}

/// UCP's mirror histories are pushed in step with the main ones, so a
/// branch record's mirror checkpoints sit at its main checkpoints'
/// pointers. Copying another in-flight record's Alt-BP or Alt-Ind
/// checkpoint over one record's plants a checkpoint the mirror could have
/// written, at another pointer: restore must reject it.
#[test]
fn a_mirror_checkpoint_off_its_main_pointer_is_rejected() {
    // A saved checkpoint: pointer, fold count, 56 fold slots.
    const CP: usize = 8 + 1 + 56 * 4;
    // A record's main conditional and path checkpoints, its RAS
    // checkpoint (stack pointer, depth, top), the mirrors' presence byte,
    // then the Alt-BP and Alt-Ind checkpoints.
    const ALT_BP: usize = 2 * CP + 24 + 1;
    const ALT_IND: usize = ALT_BP + CP;
    let u64_at = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().unwrap());

    let cfg = SimConfig::ucp();
    let spec = ucp_workloads::suite::by_name("srv04").expect("srv04 exists");
    let prog = spec.build();
    let mut sim = Simulator::new(&prog, spec.seed, &cfg);
    sim.run_to_committed(WARMUP + MEASURE / 2, WARMUP)
        .expect("mid-run state");
    let mut w = StateWriter::new();
    sim.save_state(&mut w);
    let state = w.into_bytes();
    let sim2 = mark_offset(&state, 0x5349_4d32, 0);
    let sim3 = mark_offset(&state, 0x5349_4d33, sim2 + 4);

    // Records, by the fold counts of their four checkpoints (Main64K
    // TAGE-SC-L 42, ITTAGE-64K 24, Alt8K 21, Alt-4K 12) and the mirrors'
    // pointers equal to the main ones.
    let records: Vec<usize> = (sim2..sim3 - ALT_IND - CP)
        .filter(|&o| {
            state[o + 8] == 42
                && state[o + CP + 8] == 24
                && state[o + ALT_BP + 8] == 21
                && state[o + ALT_IND + 8] == 12
                && u64_at(&state, o + ALT_BP) == u64_at(&state, o)
                && u64_at(&state, o + ALT_IND) == u64_at(&state, o + CP)
        })
        .collect();
    for (mirror, main) in [(ALT_BP, 0), (ALT_IND, CP)] {
        let (a, b) = records
            .iter()
            .flat_map(|&a| records.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| u64_at(&state, a + main) != u64_at(&state, b + main))
            .expect("two in-flight records at different pointers");
        let mut bad = state.clone();
        bad.copy_within(b + mirror..b + mirror + CP, a + mirror);
        let err = std::panic::catch_unwind(|| {
            Simulator::new(&prog, spec.seed, &cfg).restore_from_bytes(&bad);
        })
        .expect_err("a mirror checkpoint off its main pointer must be rejected");
        let text = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            text.contains("checkpoint state corrupt: UCP mirror checkpoints"),
            "mirror at +{mirror}: {text}"
        );
    }
}
