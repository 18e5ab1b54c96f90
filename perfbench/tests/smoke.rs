//! The benchmark's own smoke test, at the tiny run length: every metric
//! `BENCHMARK.json` names is emitted with its unit, a corrupted
//! fingerprint is a failed operation rather than a crash, stray `UCP_*`
//! knobs are refused, and traced and untraced runs simulate the same
//! counts.

use serde_json::Value;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["server-ucp", "loop-base", "server-audit"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--seconds", "0", "--length", "tiny"])
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The run's stdout, after checking it exited cleanly.
fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` in {v:?}")),
        _ => panic!("`{key}` looked up in a non-object {v:?}"),
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(fields) => fields,
        _ => panic!("not an object: {v:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn count(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        _ => panic!("not a whole number: {v:?}"),
    }
}

/// The result object: the last line of stdout.
fn result(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("stdout has a result line");
    serde_json::parse_value(last).expect("result line is JSON")
}

/// `(name, unit)` for every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text_ = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let manifest = serde_json::parse_value(&text_).expect("BENCHMARK.json parses");
    match field(&manifest, section) {
        Value::Seq(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn emitted(result: &Value) -> Vec<(String, String)> {
    entries(field(result, "metrics"))
        .iter()
        .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
        .collect()
}

/// The `simulated-counts` line a run prints before its result.
fn simulated_counts(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("simulated-counts "))
        .expect("a simulated-counts line")
        .to_string()
}

#[test]
fn every_metric_is_emitted_with_its_unit_and_counts_match_across_tracing() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        for seed in ["0", "7"] {
            let untraced = stdout(&perfbench(&[
                "--workload",
                workload,
                "--seed",
                seed,
                "--trace",
                "0",
            ]));
            let traced = stdout(&perfbench(&[
                "--workload",
                workload,
                "--seed",
                seed,
                "--trace",
                "1",
            ]));
            for (out, want) in [(&untraced, &end_to_end), (&traced, &per_layer)] {
                let r = result(out);
                assert_eq!(
                    &emitted(&r),
                    want,
                    "{workload} seed {seed}: metrics or units"
                );
                assert_eq!(
                    count(field(&r, "failed")),
                    0,
                    "{workload} seed {seed} failed operations"
                );
                assert!(count(field(&r, "attempted")) > 0);
            }
            assert_eq!(
                simulated_counts(&untraced),
                simulated_counts(&traced),
                "{workload} seed {seed}: tracing changed simulated counts"
            );
        }
    }
}

#[test]
fn a_corrupted_fingerprint_is_a_failed_operation() {
    let recorded = include_str!("../fingerprints.json");
    let key = "\"tiny/loop-base/crypto02\"";
    let at = recorded.find(key).expect("crypto02 has a tiny fingerprint");
    let cycles = at
        + recorded[at..]
            .find("\"stats.cycles\": \"")
            .expect("a cycles field");
    let value_at = cycles + "\"stats.cycles\": \"".len();
    let corrupted = format!("{}1{}", &recorded[..value_at], &recorded[value_at..]);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).expect("out dir");
    let path = format!("{dir}/corrupted-fingerprints.json");
    std::fs::write(&path, corrupted).expect("write corrupted copy");

    let out = perfbench(&[
        "--workload",
        "loop-base",
        "--seed",
        "0",
        "--trace",
        "0",
        "--fingerprints",
        &path,
    ]);
    let _ = std::fs::remove_file(&path);
    let r = result(&stdout(&out));
    assert!(count(field(&r, "failed")) >= 1);
    assert!(matches!(field(&r, "correct"), Value::Bool(false)));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fingerprint mismatch on crypto02: field `stats.cycles`"),
        "failure names the spec and field: {stderr}"
    );
}

#[test]
fn stray_ucp_knobs_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "loop-base",
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .env("UCP_INTERVAL", "5000")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("UCP_INTERVAL"));
}
