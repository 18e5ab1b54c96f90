//! Behaviour lock: pins the serialized machine state and the canonical
//! statistics of short runs, so a change meant only to make the simulator
//! faster or smaller cannot silently change what it simulates.
//!
//! Each srv04/crypto02 case records the state digest halfway through the
//! measured window (when branch records, checkpoints and queues are all
//! in flight), the final state digest, and an FNV-1a hash of the
//! canonical `SimStats` JSON. The `round-trip` cases also move the
//! machine through a `save_state`/`restore_from_bytes` round trip at the
//! halfway point and finish the run on the restored copy, so between them
//! they cover the state codec of every prefetcher, the MRC, UCP with and
//! without its alternate indirect predictor (with it, the only case whose
//! bytes hold live Alt-Ind and walk path-history checkpoints) and the
//! machine without a µ-op cache.
//!
//! The `srv04/ucp/digest-stream` case digests srv04 under UCP every
//! [`DENSE_DIGEST_EVERY`] committed instructions of a [`MEASURE`]-long
//! window, so saves taken while wrong-path branch records are in flight
//! (and while Alt-BP trains under them) are pinned, not only the two
//! points of the other cases.
//!
//! The `quick/<spec>/ucp` cases run every quick-suite spec, shorter,
//! under UCP and pin its final digest and stats hash, so a drift is
//! caught on every workload, not only srv04 and crypto02.
//!
//! After an intended model change, regenerate with
//! `UCP_UPDATE_GOLDEN=1 cargo test --test behaviour_lock`.

use ucp_sim::core::{PrefetcherKind, SimConfig, Simulator};
use ucp_sim::isa::{fnv1a64, StateWriter};
use ucp_sim::telemetry::Telemetry;
use ucp_sim::workloads::{suite, Program, WorkloadSpec};

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 80_000;
/// Run lengths of the per-workload quick-suite cases.
const QUICK_WARMUP: u64 = 20_000;
const QUICK_MEASURE: u64 = 60_000;
/// Cadence of the dense digest stream.
const DENSE_DIGEST_EVERY: u64 = 4_000;
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/behaviour_lock.json"
);

fn spec(name: &str) -> WorkloadSpec {
    suite::quick_suite()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is a quick-suite spec"))
}

/// A simulator with every environment-driven knob pinned off.
fn simulator<'p>(prog: &'p Program, spec: &WorkloadSpec, cfg: &SimConfig) -> Simulator<'p> {
    let mut sim = Simulator::with_telemetry(prog, spec.seed, cfg, Telemetry::disabled());
    sim.set_interval_sampling(None);
    sim.set_digest_interval(None);
    sim.set_watchdog(None);
    sim
}

/// Runs one case and renders its pinned values as one JSON line.
fn run_case(label: &str, spec_name: &str, cfg: &SimConfig, round_trip: bool) -> String {
    let spec = spec(spec_name);
    let prog = spec.build();
    let mut sim = simulator(&prog, &spec, cfg);
    sim.run_to_committed(WARMUP + MEASURE / 2, WARMUP)
        .expect("first half runs");
    let mid_digest = sim.state_digest();
    if round_trip {
        let mut w = StateWriter::new();
        sim.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = simulator(&prog, &spec, cfg);
        restored.restore_from_bytes(&bytes);
        assert_eq!(
            restored.state_digest(),
            fnv1a64(&bytes),
            "{label}: restore must reproduce the saved bytes"
        );
        sim = restored;
    }
    let out = sim.run_full(WARMUP, MEASURE).expect("second half runs");
    let stats_json = serde_json::to_string(&out.stats).expect("stats serialize");
    format!(
        "  \"{label}\": {{\"mid_digest\": \"{mid_digest:#018x}\", \"final_digest\": \"{:#018x}\", \"stats_hash\": \"{:#018x}\"}}",
        sim.state_digest(),
        fnv1a64(stats_json.as_bytes()),
    )
}

/// Runs srv04 under UCP with a digest every [`DENSE_DIGEST_EVERY`]
/// committed instructions and renders the digest stream as one JSON line.
fn run_dense_digests() -> String {
    let spec = spec("srv04");
    let prog = spec.build();
    let mut sim = simulator(&prog, &spec, &SimConfig::ucp());
    sim.set_digest_interval(Some(DENSE_DIGEST_EVERY));
    let out = sim.run_full(WARMUP, MEASURE).expect("dense run completes");
    let digests: Vec<String> = out
        .digests
        .iter()
        .map(|d| format!("\"{:#018x}\"", d.digest))
        .collect();
    format!(
        "  \"srv04/ucp/digest-stream\": {{\"every\": {DENSE_DIGEST_EVERY}, \"digests\": [{}]}}",
        digests.join(", ")
    )
}

/// Runs one quick-suite spec under UCP and renders its final digest and
/// stats hash as one JSON line.
fn run_quick_ucp(spec: &WorkloadSpec) -> String {
    let prog = spec.build();
    let mut sim = simulator(&prog, spec, &SimConfig::ucp());
    let out = sim
        .run_full(QUICK_WARMUP, QUICK_MEASURE)
        .expect("quick run completes");
    let stats_json = serde_json::to_string(&out.stats).expect("stats serialize");
    format!(
        "  \"quick/{}/ucp\": {{\"final_digest\": \"{:#018x}\", \"stats_hash\": \"{:#018x}\"}}",
        spec.name,
        sim.state_digest(),
        fnv1a64(stats_json.as_bytes()),
    )
}

fn with_prefetcher(prefetcher: PrefetcherKind) -> SimConfig {
    SimConfig {
        prefetcher,
        ..SimConfig::baseline()
    }
}

#[test]
fn short_runs_match_their_golden_fingerprints() {
    let ep = with_prefetcher(PrefetcherKind::EpPlusPlus);
    let mut lines = vec![
        run_case(
            "crypto02/baseline",
            "crypto02",
            &SimConfig::baseline(),
            false,
        ),
        run_case("srv04/ucp/round-trip", "srv04", &SimConfig::ucp(), true),
        run_case("srv04/ep++/round-trip", "srv04", &ep, true),
        run_case(
            "srv04/fnl-mma++/round-trip",
            "srv04",
            &with_prefetcher(PrefetcherKind::FnlMmaPlusPlus),
            true,
        ),
        run_case(
            "srv04/d-jolt/round-trip",
            "srv04",
            &with_prefetcher(PrefetcherKind::DJolt),
            true,
        ),
        run_case(
            "srv04/mrc-256e/round-trip",
            "srv04",
            &SimConfig {
                mrc_entries: Some(256),
                ..SimConfig::baseline()
            },
            true,
        ),
        run_case(
            "srv04/ucp-no-ind/round-trip",
            "srv04",
            &SimConfig::ucp_no_ind(),
            true,
        ),
        run_case(
            "crypto02/no-uop-cache/round-trip",
            "crypto02",
            &SimConfig::no_uop_cache(),
            true,
        ),
    ];
    lines.push(run_dense_digests());
    lines.extend(suite::quick_suite().iter().map(run_quick_ucp));
    let rendered = format!("{{\n{}\n}}\n", lines.join(",\n"));
    if std::env::var("UCP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN}: {e}"));
    assert_eq!(
        rendered, expected,
        "simulated behaviour drifted from tests/golden/behaviour_lock.json"
    );
}
