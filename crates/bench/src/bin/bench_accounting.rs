//! Host-side self-profiling benchmark: times suite runs under the
//! baseline and UCP configurations, always simulating (`UCP_NO_CACHE` is
//! forced on), and records wall-clock seconds, simulated MIPS, and the
//! per-category cycle shares to `BENCH_accounting.json` in the current
//! directory.
//!
//! ```text
//! cargo run --release -p ucp-bench --bin bench_accounting
//! ```
//!
//! Honors `UCP_FIG_PROFILE`, but defaults to the `quick` profile (unlike
//! the figure binaries) so the benchmark stays a minutes-not-hours
//! datapoint.

use serde::Serialize;
use std::time::Instant;
use ucp_bench::{cached_suite_run, check_accounting, suite_breakdown, HostPhase};
use ucp_core::{Profile, SimConfig};
use ucp_telemetry::CycleCause;

#[derive(Serialize)]
struct PhaseReport {
    name: String,
    wall_seconds: f64,
    instructions: u64,
    cycles: u64,
    simulated_mips: f64,
    ipc: f64,
    share_pct: Vec<(String, f64)>,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    profile: String,
    workloads: usize,
    phases: Vec<PhaseReport>,
}

fn main() {
    let mut knobs = ucp_bench::env_knobs();
    let profile = *knobs.fig_profile.get_or_insert(Profile::Quick);
    // Always simulate: a cache hit would time disk I/O instead.
    knobs.no_cache = true;
    let mut report = BenchReport {
        bench: "accounting".into(),
        profile: profile.tag().into(),
        workloads: profile.suite().len(),
        phases: Vec::new(),
    };
    let mut violations = Vec::new();
    for (name, cfg) in [
        ("baseline", SimConfig::baseline()),
        ("ucp", SimConfig::ucp()),
    ] {
        let t0 = Instant::now();
        let results = cached_suite_run(&cfg, &knobs);
        // The simulated volume counts successful workloads only.
        let phase = HostPhase {
            name: name.into(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            instructions: results.iter().map(|r| r.stats.instructions).sum(),
            cycles: results.iter().map(|r| r.stats.cycles).sum(),
        };
        if let Some(m) = results.marker() {
            println!("{name:<10} *** {m} — failed workloads excluded ***");
        }
        violations.extend(check_accounting(&results));
        let b = suite_breakdown(&results);
        let share_pct = CycleCause::ALL
            .iter()
            .map(|&c| (c.name().to_string(), b.share_pct(c)))
            .collect();
        println!(
            "{name:<10} {:>6.2}s wall, {:.2} simulated MIPS, IPC {:.3}",
            phase.wall_seconds,
            phase.mips(),
            phase.instructions as f64 / phase.cycles.max(1) as f64
        );
        report.phases.push(PhaseReport {
            name: name.into(),
            wall_seconds: phase.wall_seconds,
            instructions: phase.instructions,
            cycles: phase.cycles,
            simulated_mips: phase.mips(),
            ipc: phase.instructions as f64 / phase.cycles.max(1) as f64,
            share_pct,
        });
    }
    let text = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_accounting.json", &text).expect("write BENCH_accounting.json");
    println!("wrote BENCH_accounting.json");
    if !violations.is_empty() {
        eprintln!("cycle-accounting invariant violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
