//! Runs one workload with event tracing on and dumps the trace.
//!
//! ```text
//! cargo run --release -p ucp-bench --bin trace_dump -- [--counters] [WORKLOAD] [OUT]
//! ```
//!
//! - `WORKLOAD` — suite workload name (default: the first quick-suite
//!   workload). `--list` prints the available names.
//! - `OUT` — output path. `.jsonl` selects the line-delimited format;
//!   anything else gets Chrome trace-event JSON, loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`. Default
//!   `target/ucp-trace.json`.
//! - `--counters` — also emit Chrome `C` (counter) events from the
//!   interval sampler: IPC, µ-op cache hit rate, L1I MPKI, and the
//!   stacked frontend-cycle breakdown render as counter tracks above the
//!   event rows. Forces a fine sampling interval so short traces still
//!   chart. Ignored for `.jsonl` output.
//!
//! Knobs: `UCP_TRACE` selects categories (default `all` here — unlike
//! the other binaries, this tool exists to trace); `UCP_FIG_PROFILE`
//! picks the suite and the run lengths, as for the figure binaries
//! (`quick`: 0.2 M warm-up + 0.8 M measured instructions); the other
//! simulator knobs apply as usual. The trace ring holds the newest
//! `DEFAULT_TRACE_CAPACITY` (65 536) events; the summary line reports how
//! many older ones it dropped.

use ucp_core::{SimConfig, Simulator};
use ucp_telemetry::interval::DEFAULT_INTERVAL_CAPACITY;
use ucp_telemetry::{
    snapshot_table, to_chrome_trace, to_chrome_trace_with_counters, to_jsonl, CategorySet,
    IntervalSampler,
};

fn main() {
    let mut knobs = ucp_bench::env_knobs();
    knobs.trace = Some(knobs.trace.unwrap_or_else(CategorySet::all));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = knobs.profile();
    let suite = profile.suite();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for s in &suite {
            println!("{}", s.name);
        }
        return;
    }
    let counters = args.iter().any(|a| a == "--counters" || a == "-c");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    let spec = match positional.first() {
        Some(name) => suite
            .iter()
            .find(|s| &s.name == *name)
            .unwrap_or_else(|| {
                eprintln!("unknown workload `{name}`; try --list");
                std::process::exit(2);
            })
            .clone(),
        None => suite[0].clone(),
    };
    let out_path = positional
        .get(1)
        .cloned()
        .cloned()
        .unwrap_or_else(|| "target/ucp-trace.json".to_string());

    let (warmup, measure) = profile.lengths();
    let cfg = SimConfig::ucp();
    let prog = spec.build();
    let mut sim = Simulator::with_knobs(&prog, spec.seed, &cfg, &knobs);
    let telemetry = sim.telemetry().clone();
    if counters {
        // ~200 samples over the measured window even on short runs
        // (cycles ≈ instructions at IPC ≈ 1).
        sim.set_interval_sampling(Some(IntervalSampler::new(
            (measure / 200).max(100),
            DEFAULT_INTERVAL_CAPACITY,
        )));
    }
    let out = sim.run_full(warmup, measure).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (stats, window) = (out.stats, out.telemetry);

    let events = telemetry.tracer.events();
    let text = if out_path.ends_with(".jsonl") {
        to_jsonl(&events)
    } else if counters {
        to_chrome_trace_with_counters(&events, &out.intervals)
    } else {
        to_chrome_trace(&events)
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, text).expect("write trace file");

    println!(
        "{}: {} events ({} dropped) over {} cycles, IPC {:.3} -> {}",
        spec.name,
        events.len(),
        telemetry.tracer.dropped(),
        stats.cycles,
        stats.ipc(),
        out_path
    );
    if counters {
        println!(
            "counter tracks: {} interval samples ({} cycles each)",
            out.intervals.len(),
            (measure / 200).max(100)
        );
    }
    println!(
        "\nmeasurement-window counters:\n{}",
        snapshot_table(&window)
    );
}
