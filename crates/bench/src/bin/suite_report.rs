//! Characterizes the evaluation suite: static footprint, dynamic working
//! set, branch mix and call depth per workload — the properties DESIGN.md
//! §1 claims for the CVP-1 substitution.
//!
//! ```text
//! cargo run --release -p ucp-bench --bin suite_report
//! ```

use std::collections::HashMap;
use ucp_bench::{cached_suite_run, check_accounting, merged_telemetry, stall_breakdown_table};
use ucp_core::SimConfig;
use ucp_telemetry::snapshot_table;
use ucp_workloads::Oracle;

fn main() {
    let knobs = ucp_bench::env_knobs();
    let profile = knobs.profile();
    let suite = profile.suite();
    let insts = profile.lengths().1.min(1_000_000);
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "staticKB", "dyn.wins", "w90", "cond/KI", "call/KI", "ind/KI", "maxdep"
    );
    for spec in &suite {
        let p = spec.build();
        let mut o = Oracle::new(&p, spec.seed);
        let mut windows: HashMap<u64, u64> = HashMap::new();
        let (mut cond, mut call, mut ind, mut maxdep) = (0u64, 0u64, 0u64, 0usize);
        for _ in 0..insts {
            let d = o.next_inst();
            *windows.entry(d.pc.uop_window().raw()).or_default() += 1;
            use sim_isa::InstKind::*;
            match d.inst.kind {
                CondBranch { .. } => cond += 1,
                Call { .. } => call += 1,
                IndirectCall | IndirectJump => ind += 1,
                _ => {}
            }
            maxdep = maxdep.max(o.call_depth());
        }
        let mut counts: Vec<u64> = windows.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let mut acc = 0u64;
        let mut w90 = counts.len();
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc * 10 >= total * 9 {
                w90 = i + 1;
                break;
            }
        }
        let ki = insts as f64 / 1000.0;
        println!(
            "{:<10} {:>9} {:>9} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>8}",
            spec.name,
            p.footprint_bytes() / 1024,
            windows.len(),
            w90,
            cond as f64 / ki,
            call as f64 / ki,
            ind as f64 / ki,
            maxdep
        );
    }
    println!(
        "\n(dyn.wins = distinct 32B windows in {insts} instructions; w90 = windows covering 90% \
         of fetches; a 4Kops uop cache holds 512 window entries)"
    );

    // Suite-wide telemetry under the UCP configuration (cached like every
    // figure run; per-workload snapshots live in the result cache).
    let results = cached_suite_run(&SimConfig::ucp(), &knobs);
    if let Some(m) = results.marker() {
        println!("\n*** UCP suite run {m} — failed workloads are excluded below ***");
    }
    let total = merged_telemetry(&results);
    println!(
        "\naggregate telemetry (UCP config, {} workloads):",
        results.len()
    );
    print!("{}", snapshot_table(&total));

    // Cycle accounting: where each configuration's frontend cycles go, per
    // workload — UCP should shift share out of l1i_miss/resteer relative
    // to the baseline. Every run is also checked against the accounting
    // invariant (categories sum to the measured cycle total); a violation
    // fails the report so CI catches it.
    let baseline = cached_suite_run(&SimConfig::baseline(), &knobs);
    if let Some(m) = baseline.marker() {
        println!("\n*** baseline suite run {m} — failed workloads are excluded below ***");
    }
    println!("\nstall breakdown, baseline (% of measured cycles):");
    print!("{}", stall_breakdown_table(&baseline));
    println!("\nstall breakdown, UCP (% of measured cycles):");
    print!("{}", stall_breakdown_table(&results));
    let mut violations = check_accounting(&baseline);
    violations.extend(check_accounting(&results));
    if !violations.is_empty() {
        eprintln!("cycle-accounting invariant violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
