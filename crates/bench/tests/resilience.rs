//! End-to-end tests for the resilience layer: fault-isolated degraded
//! suite runs, crash-resume from partial persistence, cache integrity
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
use ucp_bench::cache::{read_envelope, write_envelope};
use ucp_bench::{suite_run_with_cache, SuiteRun, MODEL_VERSION};
use ucp_core::{Knobs, RunResult, SimConfig, SuiteOptions};
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

fn retry_twice() -> SuiteOptions {
    SuiteOptions {
        max_attempts: 2,
        ..Default::default()
    }
}

fn run(suite: &[WorkloadSpec], knobs: &Knobs, opts: &SuiteOptions) -> SuiteRun {
    suite_run_with_cache(&SimConfig::baseline(), suite, WARMUP, MEASURE, knobs, opts)
}

fn clean_run(suite: &[WorkloadSpec], dir: &Path) -> SuiteRun {
    run(suite, &knobs(dir, ""), &SuiteOptions::default())
}

/// A result without its manifest: what the simulation produced.
fn simulated(r: &RunResult) -> String {
    serde_json::to_string(&RunResult {
        knobs: Default::default(),
        ..r.clone()
    })
    .unwrap()
}

fn files_matching(dir: &Path, needle: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(rd) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in rd.filter_map(Result::ok) {
        let p = e.path();
        if p.file_name().unwrap().to_string_lossy().contains(needle) {
            out.push(p.clone());
        }
        if p.is_dir() {
            out.extend(files_matching(&p, needle));
        }
    }
    out
}

/// The ISSUE's acceptance scenario: a deterministic injected panic in an
/// 8-workload suite degrades it to 7/8, every surviving result is
/// bit-for-bit identical to an uninjected run, and a re-invocation
/// resumes from the persisted partials without re-simulating.
#[test]
fn injected_panic_degrades_resumes_and_matches_uninjected() {
    let dir_fault = tmpdir("panic-fault");
    let dir_clean = tmpdir("panic-clean");
    let s = suite(8);

    let degraded = run(&s, &knobs(&dir_fault, "panic:7"), &retry_twice());
    assert_eq!(degraded.marker().as_deref(), Some("DEGRADED (7/8)"));
    assert_eq!(degraded.failures.len(), 1);
    assert_eq!(degraded.failures[0].0, "w6", "7th workload (index 6) died");
    assert_eq!(degraded.failures[0].1.kind(), "workload-panic");

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

    // No combined cache entry for the degraded run, but partials exist.
    assert!(!files_matching(&dir_fault, "partial-").is_empty());

    // Re-invocation without the fault resumes the 7 persisted workloads
    // and only simulates the victim.
    let resumed = clean_run(&s, &dir_fault);
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed, 7, "only w6 re-simulated");
    for (r, c) in resumed.iter().zip(clean.iter()) {
        assert_eq!(
            simulated(r),
            simulated(c),
            "resumed suite equals a clean run ({})",
            r.workload
        );
    }
    // Completion promotes partials into the combined entry.
    assert!(
        files_matching(&dir_fault, "partial-").is_empty(),
        "partial dir cleared after completion"
    );

    // And a further invocation is a pure cache hit.
    let hit = clean_run(&s, &dir_fault);
    assert!(hit.is_complete());
    assert_eq!(hit.resumed, 0);
    let _ = std::fs::remove_dir_all(&dir_fault);
    let _ = std::fs::remove_dir_all(&dir_clean);
}

/// An injected hang is terminated by the watchdog with a structured
/// `SimError::Hang` whose snapshot names the stuck fetch PC.
#[test]
fn injected_hang_reports_structured_snapshot() {
    let dir = tmpdir("hang");
    let s = suite(2);
    let opts = SuiteOptions {
        max_attempts: 1,
        ..Default::default()
    };
    let knobs = Knobs {
        watchdog: Some(3_000),
        ..uncached(&dir, "hang:2")
    };
    let out = run(&s, &knobs, &opts);
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
    let opts = SuiteOptions {
        max_attempts: 3,
        ..Default::default()
    };
    let out = run(&s, &uncached(&dir, "invariant:1"), &opts);
    assert_eq!(out.marker().as_deref(), Some("DEGRADED (1/2)"));
    let (name, err) = &out.failures[0];
    assert_eq!(name, "w0");
    assert_eq!(err.kind(), "invariant-violation");
    assert!(!err.is_retryable(), "invariant failures are deterministic");
    assert!(err.to_string().contains("accounting"), "{err}");
    assert!(err.snapshot().is_some(), "violation carries machine state");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache-corruption matrix: truncated JSON, wrong-suite-length payloads
/// and stale model versions are all quarantined and regenerated.
#[test]
fn corrupt_cache_entries_quarantine_and_regenerate() {
    let dir = tmpdir("corrupt");
    let s = suite(2);
    let first = clean_run(&s, &dir);
    assert!(first.is_complete());
    let entry = files_matching(&dir, ".json")
        .into_iter()
        .find(|p| !p.to_string_lossy().contains("partial"))
        .expect("combined entry written");

    // A valid envelope whose payload holds too few results for the suite.
    let short_payload = serde_json::to_string(&vec![first.results()[0].clone()]).unwrap();
    let intact = read_envelope(&entry, MODEL_VERSION).unwrap();
    let corruptions: [(&str, &str, u32); 3] = [
        (
            "truncated payload",
            &intact[..intact.len() / 3],
            MODEL_VERSION,
        ),
        ("wrong suite length", &short_payload, MODEL_VERSION),
        ("stale model version", &intact, MODEL_VERSION - 1),
    ];
    for (i, (what, payload, version)) in corruptions.iter().enumerate() {
        if *what == "truncated payload" {
            // Raw truncation: header intact, payload cut mid-JSON.
            std::fs::write(&entry, payload).unwrap();
        } else {
            write_envelope(&entry, *version, payload, None).unwrap();
        }
        let again = clean_run(&s, &dir);
        assert!(again.is_complete(), "regenerated after {what}");
        assert_eq!(
            files_matching(&dir, "quarantined").len(),
            i + 1,
            "one new quarantine file per corruption ({what})"
        );
        // The regenerated entry verifies again.
        assert!(
            read_envelope(&entry, MODEL_VERSION).is_ok(),
            "entry regenerated after {what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn combined-cache write (simulated crash mid-write) is detected on
/// the next read, quarantined, and regenerated.
#[test]
fn torn_cache_write_heals_on_next_run() {
    let dir = tmpdir("torn");
    let s = suite(2);
    // A 2-workload cached run performs exactly three envelope writes:
    // two partials, then the combined entry. Tearing write 3 simulates a
    // crash mid-way through the combined write (the partials are already
    // gone by then, so the next run must regenerate from scratch).
    let first = run(&s, &knobs(&dir, "torn_write:3"), &SuiteOptions::default());
    assert!(first.is_complete(), "tearing a write does not fail the run");
    let second = clean_run(&s, &dir);
    assert!(second.is_complete());
    assert!(
        !files_matching(&dir, "quarantined").is_empty(),
        "the torn entry was quarantined on read"
    );
    // Third run: everything verified, straight cache hit.
    let third = clean_run(&s, &dir);
    assert!(third.is_complete());
    for (a, b) in second.iter().zip(third.iter()) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }
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
