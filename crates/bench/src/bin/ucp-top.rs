//! `ucp-top`: where do the frontend's cycles go?
//!
//! Renders the cycle-accounting breakdown for one or more configurations
//! as sorted plain text — the suite-wide category table, then one line per
//! workload with its dominant category — and verifies the accounting
//! invariant (categories sum to the measured cycle total) on every run.
//!
//! Exit status: 0 when every requested configuration finished at least
//! one workload and no workload tripped the invariant; 1 when a workload
//! tripped it; 2 on an unknown configuration or a malformed `UCP_*` knob;
//! [`NOTHING_FINISHED`] (3) when a requested configuration finished no
//! workload at all (its report is just a header and a `DEGRADED (0/n)`
//! line). An invariant violation takes precedence.
//!
//! ```text
//! cargo run --release -p ucp-bench --bin ucp-top [-- CONFIG...]
//! ```
//!
//! `CONFIG` is any of `baseline`, `ucp`, `noucp` (default: `baseline
//! ucp`). `UCP_FIG_PROFILE` selects the suite/run-length profile; results
//! come from the shared on-disk cache (`UCP_NO_CACHE=1` to re-run).

use ucp_bench::{cached_suite_run, check_accounting, suite_breakdown};
use ucp_core::{RunResult, SimConfig};
use ucp_telemetry::AccountingBreakdown;

/// Exit status when a requested configuration finished no workload.
const NOTHING_FINISHED: i32 = 3;

fn config_named(name: &str) -> Option<(String, SimConfig)> {
    match name {
        "baseline" => Some(("baseline (4Kops uop cache)".into(), SimConfig::baseline())),
        "ucp" => Some(("ucp (alternate-path prefetch)".into(), SimConfig::ucp())),
        "noucp" | "no-uop-cache" => Some(("no uop cache".into(), SimConfig::no_uop_cache())),
        _ => None,
    }
}

/// The suite table and per-workload lines; just the header when no
/// workload finished (the caller's `DEGRADED` line says why).
fn report(title: &str, results: &[RunResult]) -> String {
    let mut out = format!("=== {title}: {} workloads ===\n", results.len());
    if results.is_empty() {
        return out;
    }
    out += &suite_breakdown(results).table();
    out += "\n  per-workload dominant category:\n";
    let mut rows: Vec<(String, f64, &'static str, f64)> = results
        .iter()
        .map(|r| {
            let b = AccountingBreakdown::from_snapshot(&r.telemetry);
            let (top, cycles) = b.sorted()[0];
            let share = 100.0 * cycles as f64 / b.total.max(1) as f64;
            (r.workload.clone(), r.stats.ipc(), top.name(), share)
        })
        .collect();
    rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite"));
    for (name, ipc, top, share) in rows {
        out += &format!("  {name:<10} IPC {ipc:>5.3}   {top:<14} {share:>5.1}%\n");
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["baseline", "ucp"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let knobs = ucp_bench::env_knobs();
    let mut violations = Vec::new();
    let mut empty = Vec::new();
    for name in wanted {
        let Some((title, cfg)) = config_named(name) else {
            eprintln!("unknown config `{name}`; known: baseline, ucp, noucp");
            std::process::exit(2);
        };
        let results = cached_suite_run(&cfg, &knobs);
        print!("{}", report(&title, &results));
        if let Some(m) = results.marker() {
            println!("  *** {m} — failed workloads excluded ***");
        }
        println!();
        for v in check_accounting(&results) {
            violations.push(format!("{name}/{v}"));
        }
        if results.is_empty() {
            empty.push(name);
        }
    }
    if !violations.is_empty() {
        eprintln!("cycle-accounting invariant violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    if !empty.is_empty() {
        eprintln!("no workload finished under: {}", empty.join(", "));
        std::process::exit(NOTHING_FINISHED);
    }
}
