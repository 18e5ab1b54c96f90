//! End-to-end tests for the resilience layer: fault-isolated degraded
//! suite runs, resume from per-workload cache entries, cache integrity
//! (corruption → quarantine → regenerate), and the hang watchdog's
//! structured error — all through the same `suite_run_with_cache` path
//! the figure binaries use.
//!
//! Every test owns a private cache directory (its own `Knobs`, no
//! environment), so the suite is safe under the default parallel test
//! runner. `cfg(test)` does not apply to integration-test builds of the
//! core crate, so these tests exercise the *release-mode* error paths —
//! e.g. `SimError::InvariantViolation` instead of the unit-test assert.

use std::path::{Path, PathBuf};
use ucp_bench::{suite_run_with_cache, MODEL_VERSION};
use ucp_core::snapshot::run_slug;
use ucp_core::{CheckpointPolicy, Knobs, RunResult, SimConfig, SuiteRun};
use ucp_telemetry::envelope::{read_envelope, write_envelope};
use ucp_telemetry::fault::FaultPlan;
use ucp_workloads::WorkloadSpec;

const WARMUP: u64 = 5_000;
const MEASURE: u64 = 20_000;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ucp-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn suite(n: usize) -> Vec<WorkloadSpec> {
    (0..n)
        .map(|i| WorkloadSpec::tiny(&format!("w{i}"), i as u64 + 1))
        .collect()
}

/// Knobs caching under `dir` with `fault` armed (`""`: none).
fn knobs(dir: &Path, fault: &str) -> Knobs {
    Knobs::parse(|name| match name {
        "UCP_RESULT_DIR" => Some(dir.display().to_string()),
        "UCP_FAULT" => Some(fault.to_string()),
        _ => None,
    })
    .expect("valid knobs")
}

fn uncached(dir: &Path, fault: &str) -> Knobs {
    Knobs {
        no_cache: true,
        ..knobs(dir, fault)
    }
}

fn run(suite: &[WorkloadSpec], knobs: &Knobs) -> SuiteRun {
    suite_run_with_cache(&SimConfig::baseline(), suite, WARMUP, MEASURE, knobs)
}

fn clean_run(suite: &[WorkloadSpec], dir: &Path) -> SuiteRun {
    run(suite, &knobs(dir, ""))
}

/// A result without its manifest: what the simulation produced.
fn simulated(r: &RunResult) -> String {
    serde_json::to_string(&RunResult {
        knobs: Default::default(),
        ..r.clone()
    })
    .unwrap()
}

fn assert_same_results(got: &SuiteRun, want: &SuiteRun, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(simulated(g), simulated(w), "{what} ({})", w.workload);
    }
}

fn files_matching(dir: &Path, needle: &str) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.file_name().unwrap().to_string_lossy().contains(needle))
                .collect()
        })
        .unwrap_or_default()
}

/// The cache entries: `<key>.json`, not quarantined copies.
fn entries(dir: &Path) -> Vec<PathBuf> {
    files_matching(dir, ".json")
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect()
}

/// The cache entry holding `workload`'s result.
fn entry_of(dir: &Path, workload: &str) -> PathBuf {
    entries(dir)
        .into_iter()
        .find(|p| {
            let payload = read_envelope(p, MODEL_VERSION).unwrap();
            serde_json::from_str::<RunResult>(&payload)
                .unwrap()
                .workload
                == workload
        })
        .unwrap_or_else(|| panic!("no cache entry for {workload}"))
}

/// The acceptance scenario: a deterministic injected panic in an
/// 8-workload suite degrades it to 7/8, every surviving result is
/// bit-for-bit identical to an uninjected run, a re-invocation simulates
/// only the victim, and a further invocation simulates nothing.
#[test]
fn injected_panic_degrades_resumes_and_matches_uninjected() {
    let dir_fault = tmpdir("panic-fault");
    let dir_clean = tmpdir("panic-clean");
    let s = suite(8);

    let degraded = run(&s, &knobs(&dir_fault, "panic:7"));
    assert_eq!(degraded.marker().as_deref(), Some("DEGRADED (7/8)"));
    assert_eq!(degraded.failures.len(), 1);
    assert_eq!(degraded.failures[0].0, "w6", "7th workload (index 6) died");
    assert_eq!(degraded.failures[0].1.kind(), "workload-panic");
    assert_eq!(entries(&dir_fault).len(), 7, "one entry per survivor");

    // Surviving results are bit-for-bit identical to an uninjected run;
    // only their manifests name the fault plan.
    let clean = clean_run(&s, &dir_clean);
    assert!(clean.is_complete());
    for r in degraded.iter() {
        let c = clean.iter().find(|c| c.workload == r.workload).unwrap();
        assert_eq!(
            simulated(r),
            simulated(c),
            "fault isolation must not perturb other workloads ({})",
            r.workload
        );
        assert_eq!(r.knobs["UCP_FAULT"], "panic:7");
        assert!(!c.knobs.contains_key("UCP_FAULT"));
    }

    // Re-invocation without the fault serves the 7 survivors from the
    // cache and only simulates the victim.
    let resumed = clean_run(&s, &dir_fault);
    assert!(resumed.is_complete());
    let only_w6: Vec<bool> = (0..8).map(|i| i == 6).collect();
    assert_eq!(resumed.simulated, only_w6, "only w6 re-simulated");
    assert_same_results(&resumed, &clean, "resumed suite equals a clean run");
    assert_eq!(entries(&dir_fault).len(), 8);

    // And a further invocation simulates nothing.
    let hit = clean_run(&s, &dir_fault);
    assert_eq!(hit.simulated, vec![false; 8]);
    assert_same_results(&hit, &clean, "cache hit equals a clean run");
    let _ = std::fs::remove_dir_all(&dir_fault);
    let _ = std::fs::remove_dir_all(&dir_clean);
}

/// A killed workload is not run again under another seed: a suite run
/// whose every checkpoint write kills its workload leaves exactly one
/// checkpoint directory per workload, named for the workload's own seed,
/// and the next clean invocation resumes both and removes them.
#[test]
fn killed_run_leaves_one_checkpoint_directory_per_workload() {
    let dir = tmpdir("kill-ckpt");
    let ckpt_dir = dir.join("ckpt");
    let s = suite(2);
    let killing = Knobs {
        ckpt: Some(CheckpointPolicy {
            every: 5_000,
            keep: 3,
        }),
        ckpt_dir: ckpt_dir.clone(),
        ..uncached(&dir, "kill:1")
    };
    let killed = run(&s, &killing);
    assert_eq!(killed.marker().as_deref(), Some("DEGRADED (0/2)"));
    assert_eq!(killed.simulated, vec![true, true], "each workload ran once");

    let run_dirs = || {
        let mut names: Vec<String> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let cfg_json = serde_json::to_string(&SimConfig::baseline()).unwrap();
    let interval = killing.interval.unwrap_or(0);
    let mut own_seeds: Vec<String> = s
        .iter()
        .map(|w| run_slug(&w.name, w.seed, &cfg_json, WARMUP, MEASURE, interval))
        .collect();
    own_seeds.sort();
    assert_eq!(run_dirs(), own_seeds, "one directory per workload");

    let resumed = run(
        &s,
        &Knobs {
            fault: None,
            ..killing
        },
    );
    assert!(resumed.is_complete());
    assert!(run_dirs().is_empty(), "a completed resume leaves no run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint holds the interval sampler's state, so a run resumes only
/// checkpoints taken under its own sampling interval: killed under one
/// interval and re-run under another (or with sampling off), every
/// workload starts fresh, finishes with the results of an uninterrupted
/// run under the new interval, and leaves the killed run's checkpoints
/// for a re-run under the old one.
#[test]
fn checkpoints_resume_only_under_their_own_sampling_interval() {
    let s = suite(2);
    for (killed_under, resumed_under) in [("1000", "3000"), ("3000", "off")] {
        let dir = tmpdir(&format!("ckpt-iv-{killed_under}-{resumed_under}"));
        let ckpt_dir = dir.join("ckpt");
        let under = |interval: &str, fault: &str| Knobs {
            ckpt: Some(CheckpointPolicy {
                every: 5_000,
                keep: 3,
            }),
            ckpt_dir: ckpt_dir.clone(),
            ..Knobs::parse(|name| match name {
                "UCP_RESULT_DIR" => Some(dir.display().to_string()),
                "UCP_NO_CACHE" => Some("1".to_string()),
                "UCP_INTERVAL" => Some(interval.to_string()),
                "UCP_FAULT" => Some(fault.to_string()),
                _ => None,
            })
            .expect("valid knobs")
        };
        let what =
            format!("killed under UCP_INTERVAL={killed_under}, resumed under {resumed_under}");
        let killed = run(&s, &under(killed_under, "kill:2"));
        assert_eq!(killed.marker().as_deref(), Some("DEGRADED (0/2)"), "{what}");
        let left_behind = files_matching(&ckpt_dir, "-");
        assert_eq!(
            left_behind.len(),
            2,
            "{what}: one run directory per workload"
        );

        let resumed = run(&s, &under(resumed_under, ""));
        assert!(resumed.is_complete(), "{what}: {:?}", resumed.failures);
        let uninterrupted = Knobs {
            ckpt: None,
            ..under(resumed_under, "")
        };
        assert_same_results(&resumed, &run(&s, &uninterrupted), &what);
        for p in &left_behind {
            assert!(p.exists(), "{what}: {} kept", p.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An injected hang is terminated by the watchdog with a structured
/// `SimError::Hang` whose snapshot names the stuck fetch PC.
#[test]
fn injected_hang_reports_structured_snapshot() {
    let dir = tmpdir("hang");
    let s = suite(2);
    let knobs = Knobs {
        watchdog: Some(3_000),
        ..uncached(&dir, "hang:2")
    };
    let out = run(&s, &knobs);
    assert_eq!(out.marker().as_deref(), Some("DEGRADED (1/2)"));
    let (name, err) = &out.failures[0];
    assert_eq!(name, "w1");
    assert_eq!(err.kind(), "hang");
    let snap = err.snapshot().expect("hang carries a snapshot");
    assert!(snap.cycle >= 3_000, "watchdog window elapsed");
    // The rendering names where fetch is stuck.
    let text = err.to_string();
    assert!(text.contains("agen_pc 0x"), "{text}");
    assert!(text.contains("no retirement for 3000 cycles"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected accounting skew surfaces as `SimError::InvariantViolation`
/// (the release-mode downgrade of the end-of-run assert) and does not
/// take the suite down.
#[test]
fn injected_invariant_violation_is_structured() {
    let dir = tmpdir("invariant");
    let s = suite(2);
    let out = run(&s, &uncached(&dir, "invariant:1"));
    assert_eq!(out.marker().as_deref(), Some("DEGRADED (1/2)"));
    assert_eq!(out.simulated, vec![true, true], "each workload ran once");
    let (name, err) = &out.failures[0];
    assert_eq!(name, "w0");
    assert_eq!(err.kind(), "invariant-violation");
    assert!(err.to_string().contains("accounting"), "{err}");
    assert!(err.snapshot().is_some(), "violation carries machine state");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache-corruption matrix: a torn write, a truncated file, a stale model
/// version, another workload's result and a well-formed entry missing a
/// field are each quarantined, and only the damaged workload is
/// regenerated.
#[test]
fn corrupt_cache_entries_quarantine_and_regenerate() {
    let dir = tmpdir("corrupt");
    let s = suite(2);
    let first = clean_run(&s, &dir);
    assert!(first.is_complete());
    let entry = entry_of(&dir, "w0");
    let intact = read_envelope(&entry, MODEL_VERSION).unwrap();
    let other = read_envelope(&entry_of(&dir, "w1"), MODEL_VERSION).unwrap();
    let torn = FaultPlan::parse("torn_write:1").unwrap();
    let mut no_telemetry = serde_json::parse_value(&intact).unwrap();
    if let serde_json::Value::Map(fields) = &mut no_telemetry {
        fields.retain(|(k, _)| k != "telemetry");
    }
    let no_telemetry = serde_json::to_string(&no_telemetry).unwrap();
    assert_ne!(no_telemetry, intact);

    let corruptions: [(&str, &dyn Fn()); 5] = [
        ("torn write", &|| {
            write_envelope(&entry, MODEL_VERSION, &[intact.as_bytes()], Some(&torn)).unwrap()
        }),
        ("truncated file", &|| {
            let bytes = std::fs::read(&entry).unwrap();
            std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        }),
        ("stale model version", &|| {
            write_envelope(&entry, MODEL_VERSION - 1, &[intact.as_bytes()], None).unwrap()
        }),
        ("wrong workload", &|| {
            write_envelope(&entry, MODEL_VERSION, &[other.as_bytes()], None).unwrap()
        }),
        ("missing telemetry", &|| {
            write_envelope(&entry, MODEL_VERSION, &[no_telemetry.as_bytes()], None).unwrap()
        }),
    ];
    for (i, (what, corrupt)) in corruptions.iter().enumerate() {
        corrupt();
        let again = clean_run(&s, &dir);
        assert_eq!(
            again.simulated,
            vec![true, false],
            "only w0 regenerated ({what})"
        );
        assert_same_results(&again, &first, what);
        assert_eq!(
            files_matching(&dir, "quarantined").len(),
            i + 1,
            "one new quarantine file per corruption ({what})"
        );
        assert_eq!(
            read_envelope(&entry, MODEL_VERSION).unwrap(),
            intact,
            "entry regenerated after {what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn cache write (simulated crash mid-write) is detected on the next
/// read, quarantined, and regenerated.
#[test]
fn torn_cache_write_heals_on_next_run() {
    let dir = tmpdir("torn");
    let s = suite(2);
    // A 2-workload cached run performs exactly two envelope writes, one
    // per workload; tearing the 2nd models a crash mid-way through the
    // last one.
    let first = run(&s, &knobs(&dir, "torn_write:2"));
    assert!(first.is_complete(), "tearing a write does not fail the run");
    let second = clean_run(&s, &dir);
    assert!(second.is_complete());
    assert_eq!(files_matching(&dir, "quarantined").len(), 1);
    assert_eq!(
        second.simulated.iter().filter(|&&s| s).count(),
        1,
        "only the torn entry re-simulated"
    );
    // Third run: everything verified, straight cache hit.
    let third = clean_run(&s, &dir);
    assert_eq!(third.simulated, vec![false, false]);
    assert_same_results(&third, &second, "cache hit equals the healed run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_full` returns `Err(SimError::Hang)` (rather than panicking) when
/// the pipeline genuinely stops retiring — driven end-to-end through a
/// simulator whose retirement is wedged by the injection hook.
#[test]
fn watchdog_terminates_wedged_pipeline_with_hang_error() {
    let spec = WorkloadSpec::tiny("wedge", 7);
    let prog = spec.build();
    let mut sim = ucp_core::Simulator::new(&prog, spec.seed, &SimConfig::baseline());
    sim.set_watchdog(Some(1_500));
    sim.inject_hang();
    let err = sim.run_full(WARMUP, MEASURE).expect_err("must hang");
    assert_eq!(err.kind(), "hang");
    let snap = err.snapshot().unwrap();
    assert_eq!(snap.committed, 0);
    assert_eq!(snap.last_retired_pc, None, "nothing ever retired");
    assert!(err.to_string().contains("last_retired_pc <none>"), "{err}");
}
