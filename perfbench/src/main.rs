//! The simulator benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload server-ucp --seed 0 --seconds 30 --trace 0
//! ```
//!
//! Each workload is a fixed set of quick-suite specs, each simulated
//! single-threaded on the main thread through the public `ucp-core` API
//! (never the parallel suite runner), repeated until `--seconds` have
//! passed. Host times take each segment of a repetition at its fastest
//! (see [`run::best`]). With `--trace 1` the run alternates an untraced
//! and a traced repetition and reports the per-layer metrics from spans
//! around replayed calls into every crate. The last line of standard
//! output is the JSON result; a report with the run's manifest (and spans,
//! when traced) goes to `out/`. See `README.md` for every metric.

mod fingerprint;
mod replay;
mod run;
mod trace;

use run::{Bench, Expect, Length, Ops, Plan, Rep, Traced, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Trace;
use ucp_core::SimStats;
use ucp_telemetry::interval::{DEFAULT_INTERVAL_CYCLES, INSTRET_PATH};
use ucp_telemetry::{AccountingBreakdown, CycleCause};

/// Reports and scratch checkpoints live here, inside the package.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Repetitions a run makes at least, so the determinism check off the
/// default seed always has a pair to compare.
const MIN_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    length: Length,
    fingerprints: Option<PathBuf>,
    record: bool,
}

const USAGE: &str = "usage: perfbench --workload <server-ucp|loop-base|server-audit> \
--seed <n> --seconds <s> --trace <0|1> [--length full|tiny] \
[--fingerprints <file>] [--record-fingerprints]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut length, mut fingerprints, mut record) = (Length::Full, None, false);
    while let Some(flag) = it.next() {
        if flag == "--record-fingerprints" {
            record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--length" => length = Length::parse(&value).ok_or_else(bad)?,
            "--fingerprints" => fingerprints = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        length,
        fingerprints,
        record,
    })
}

/// `Simulator::new` and the telemetry layer read `UCP_*` variables on
/// their own; a stray one would silently change what is measured.
fn stray_knobs() -> Vec<String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UCP_"))
        .collect();
    knobs.sort();
    knobs
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered `(name, value, unit)` metrics.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

/// Simulated MIPS over repetitions that all did the same work.
fn mips(reps: &[Rep]) -> f64 {
    reps[0].insts() as f64 / run::best(reps).sim / 1e6
}

fn end_to_end(reps: &[Rep], ops: &Ops) -> Metrics {
    let b = run::best(reps);
    let mut m = Metrics::new();
    push(
        &mut m,
        "sim_mips",
        reps[0].insts() as f64 / b.sim / 1e6,
        "Minst/s",
    );
    push(
        &mut m,
        "host_ns_per_cycle",
        b.sim * 1e9 / reps[0].cycles() as f64,
        "ns",
    );
    push(&mut m, "wall_s", b.wall, "s");
    push(&mut m, "setup_s", b.setup, "s");
    push(&mut m, "peak_rss_mb", peak_rss_mb(), "MB");
    let ok = 1.0 - ops.failures.len() as f64 / ops.attempted.max(1) as f64;
    push(&mut m, "ok_rate", ok, "fraction");
    push(&mut m, "sim_ipc", reps[0].ipc_geomean(), "inst/cycle");
    m
}

/// Sums of the measured-window statistics over a repetition's specs.
fn sum_stats(rep: &Rep, f: impl Fn(&SimStats) -> u64) -> u64 {
    rep.specs.iter().map(|s| f(&s.stats)).sum()
}

fn per_kilo(n: u64, insts: u64) -> f64 {
    1000.0 * n as f64 / insts.max(1) as f64
}

fn pct(n: u64, d: u64) -> f64 {
    100.0 * n as f64 / d.max(1) as f64
}

/// Simulated counts: exact, from an untraced repetition.
fn simulated_counts(rep: &Rep) -> Metrics {
    let mut m = Metrics::new();
    let insts = sum_stats(rep, |s| s.instructions);
    push(
        &mut m,
        "core.cycles",
        sum_stats(rep, |s| s.cycles) as f64,
        "cycles",
    );
    push(&mut m, "core.instructions", insts as f64, "inst");
    let from_cache = sum_stats(rep, |s| s.uops_from_uop_cache);
    let delivered = from_cache + sum_stats(rep, |s| s.uops_from_decode);
    push(
        &mut m,
        "frontend.uopc_hit_pct",
        pct(from_cache, delivered),
        "%",
    );
    push(
        &mut m,
        "mem.l1i_mpki",
        per_kilo(sum_stats(rep, |s| s.l1i_misses), insts),
        "1/kinst",
    );
    push(
        &mut m,
        "bpred.cond_mpki",
        per_kilo(sum_stats(rep, |s| s.cond_mispredicts), insts),
        "1/kinst",
    );
    let walks = sum_stats(rep, |s| s.ucp.walks_started);
    let inserted = sum_stats(rep, |s| s.ucp.entries_inserted);
    push(&mut m, "core.ucp.walks_started", walks as f64, "count");
    push(
        &mut m,
        "core.ucp.entries_inserted",
        inserted as f64,
        "count",
    );
    let timely = sum_stats(rep, |s| s.ucp.timely_used);
    push(
        &mut m,
        "core.ucp.prefetch_accuracy_pct",
        pct(timely, inserted),
        "%",
    );
    push(
        &mut m,
        "prefetch.issued",
        sum_stats(rep, |s| s.l1i_prefetches_issued) as f64,
        "count",
    );
    let mut acct = AccountingBreakdown::default();
    for s in &rep.specs {
        let b = AccountingBreakdown::from_snapshot(&s.window);
        for (sum, c) in acct.cycles.iter_mut().zip(b.cycles) {
            *sum += c;
        }
        acct.total += b.total;
    }
    for cause in CycleCause::ALL {
        let name = format!("core.acct.{}_pct", cause.name());
        push(&mut m, &name, acct.share_pct(cause), "%");
    }
    m
}

/// Per-layer metrics from the traced passes, with each layer's share of
/// the untraced simulation time estimated as (ns per replayed call) x
/// (calls the simulator made, from its own counters).
fn per_layer(
    workload: Workload,
    untraced: &[Rep],
    traced: &[Rep],
    passes: &[Vec<Traced>],
    trace: &Trace,
) -> Metrics {
    let totals = trace.totals();
    let ns_per = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |&(ns, calls)| ns as f64 / calls.max(1) as f64)
    };
    let per_pass =
        |name: &str| totals.get(name).map_or(0.0, |&(ns, _)| ns as f64) / passes.len() as f64;
    let mut m = Metrics::new();
    push(
        &mut m,
        "workloads.build_ms",
        per_pass("workloads.build") / 1e6,
        "ms",
    );
    push(&mut m, "core.new_ms", per_pass("core.new") / 1e6, "ms");
    let layer_ns = [
        ("workloads.oracle_ns_per_inst", "workloads.oracle"),
        ("bpred.tage_ns_per_cond", "bpred.tage"),
        ("bpred.ittage_ns_per_indirect", "bpred.ittage"),
        ("bpred.target_history_ns_per_taken", "bpred.target_history"),
        ("bpred.hist_checkpoint_ns", "bpred.hist_checkpoint"),
        ("frontend.btb_ns_per_branch", "frontend.btb"),
        ("frontend.uopc_ns_per_window", "frontend.uopc"),
        ("mem.l1i_ns_per_line", "mem.l1i"),
        ("mem.l1d_ns_per_access", "mem.l1d"),
        ("prefetch.ns_per_access", "prefetch.access"),
        ("telemetry.counter_ns_per_inc", "telemetry.counter_inc"),
    ];
    for (metric, span) in layer_ns {
        push(&mut m, metric, ns_per(span), "ns");
    }
    push(
        &mut m,
        "telemetry.snapshot_us",
        ns_per("telemetry.snapshot") / 1e3,
        "us",
    );
    push(
        &mut m,
        "telemetry.delta_us",
        ns_per("telemetry.delta") / 1e3,
        "us",
    );
    for (metric, span) in [
        ("core.snapshot.save_ms", "core.snapshot.save"),
        ("core.snapshot.restore_ms", "core.snapshot.restore"),
        ("core.digest_ms", "core.digest"),
        ("core.ckpt_write_ms", "core.ckpt_write"),
    ] {
        push(&mut m, metric, ns_per(span) / 1e6, "ms");
    }
    let all: Vec<&Traced> = passes.iter().flatten().collect();
    let mean = |f: fn(&Traced) -> u64| {
        all.iter().map(|t| f(t)).sum::<u64>() as f64 / all.len().max(1) as f64
    };
    push(
        &mut m,
        "core.snapshot.bytes",
        mean(|t| t.snapshot_bytes),
        "bytes",
    );
    push(
        &mut m,
        "telemetry.instruments",
        mean(|t| t.instruments),
        "count",
    );

    // Replay traffic, per kilo-instruction of correct path.
    let traffic = |f: fn(&Traced) -> u64| all.iter().map(|t| f(t)).sum::<u64>();
    let replayed = traffic(|t| t.traffic.insts);
    for (metric, f) in [
        (
            "workloads.cond_per_kinst",
            (|t: &Traced| t.traffic.conds) as fn(&Traced) -> u64,
        ),
        ("workloads.indirect_per_kinst", |t| t.traffic.indirects),
        ("workloads.mem_per_kinst", |t| t.traffic.mems),
        ("workloads.lines_per_kinst", |t| t.traffic.lines),
    ] {
        push(&mut m, metric, per_kilo(traffic(f), replayed), "1/kinst");
    }
    let replay_conds = traffic(|t| t.traffic.window_conds);
    let sim_conds: u64 = traced
        .iter()
        .map(|r| sum_stats(r, |s| s.cond_branches))
        .sum();
    push(
        &mut m,
        "workloads.replay_cond_branches",
        replay_conds as f64,
        "count",
    );
    push(&mut m, "core.sim_cond_branches", sim_conds as f64, "count");

    // Layer shares of the untraced simulation time. Window counters are
    // scaled to the whole run (warm-up included); replay counts are
    // correct-path counts scaled the same way.
    let ucp = workload.config().ucp.enabled;
    let mut layer = BTreeMap::<&str, f64>::new();
    let mut core_ns = 0.0;
    let mut insts = 0u64;
    for (rep, pass) in untraced.iter().zip(passes) {
        for (s, t) in rep.specs.iter().zip(pass) {
            core_ns += s.chunks.iter().map(Duration::as_nanos).sum::<u128>() as f64;
            insts += s.insts;
            let scale = s.insts as f64 / s.stats.instructions.max(1) as f64;
            let replay_scale = s.insts as f64 / t.traffic.insts.max(1) as f64;
            let counters: u64 = s
                .window
                .counters
                .iter()
                .filter(|(k, _)| k.as_str() != INSTRET_PATH)
                .map(|(_, v)| v)
                .sum();
            let observations: u64 = s.window.histograms.values().map(|h| h.count).sum();
            let incs = (counters + observations + s.stats.cycles) as f64 * scale;
            let samples = s.cycles as f64 / DEFAULT_INTERVAL_CYCLES as f64;
            let checkpoints_per_record = if ucp { 4.0 } else { 2.0 };
            let mut add = |k: &'static str, ns: f64| *layer.entry(k).or_default() += ns;
            add("workloads", ns_per("workloads.oracle") * s.insts as f64);
            add(
                "bpred",
                ns_per("bpred.tage") * s.stats.cond_branches as f64 * scale
                    + ns_per("bpred.ittage") * t.traffic.indirects as f64 * replay_scale
                    + ns_per("bpred.target_history") * t.traffic.other_taken as f64 * replay_scale
                    + ns_per("bpred.hist_checkpoint")
                        * t.traffic.records as f64
                        * replay_scale
                        * checkpoints_per_record,
            );
            add(
                "frontend",
                ns_per("frontend.btb") * t.traffic.branches as f64 * replay_scale
                    + ns_per("frontend.uopc") * s.stats.uop_lookups as f64 * scale,
            );
            add(
                "mem",
                ns_per("mem.l1i") * s.stats.l1i_accesses as f64 * scale
                    + ns_per("mem.l1d") * t.traffic.mems as f64 * replay_scale,
            );
            add(
                "prefetch",
                ns_per("prefetch.access") * s.stats.l1i_accesses as f64 * scale,
            );
            add(
                "telemetry",
                ns_per("telemetry.counter_inc") * incs
                    + (ns_per("telemetry.snapshot") + ns_per("telemetry.delta")) * samples,
            );
            add(
                "core.digest",
                ns_per("core.digest") * s.digests.len() as f64,
            );
        }
    }
    let estimated: f64 = layer.values().sum();
    for (name, ns) in &layer {
        if *name != "core.digest" {
            push(
                &mut m,
                &format!("{name}.share_pct"),
                100.0 * ns / core_ns,
                "%",
            );
        }
    }
    push(
        &mut m,
        "core.residual_ns_per_inst",
        (core_ns - estimated) / insts.max(1) as f64,
        "ns",
    );

    push(&mut m, "trace.sim_mips_untraced", mips(untraced), "Minst/s");
    push(&mut m, "trace.sim_mips_traced", mips(traced), "Minst/s");
    push(
        &mut m,
        "trace.overhead_mips",
        mips(traced) - mips(untraced),
        "Minst/s",
    );
    m
}

fn json_metrics(m: &Metrics) -> String {
    let items: Vec<String> = m
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn manifest(args: &Args, plan: &Plan, reps: usize) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let q = |s: &str| serde_json::to_string(s).expect("string serializes");
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"length\": {}, \"seconds\": {}, \
         \"repetitions\": {reps}, \"warmup_insts\": {}, \"measure_insts\": {}, \
         \"digest_every\": {}, \"ckpt_every\": {}, \"sim_threads\": 1, \"host\": {}, \
         \"nproc\": {nproc}, \"git_rev\": {}, \"source_digest\": {}, \"rustc\": {}}}",
        q(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        q(args.length.name()),
        args.seconds,
        plan.warmup,
        plan.measure,
        plan.digest_every.unwrap_or(0),
        plan.ckpt_every.unwrap_or(0),
        q(&host),
        q(&env("PERFBENCH_GIT_REV")),
        q(&env("PERFBENCH_SOURCE_DIGEST")),
        q(&env("PERFBENCH_RUSTC")),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let knobs = stray_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to start with UCP_* variables set ({}); they change what \
             the simulator does. Unset them and run again.",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    // Recording merges into the file on disk; checking uses the book
    // compiled in, unless a file is named.
    let book_path = match (&args.fingerprints, args.record) {
        (Some(path), _) => Some(path.clone()),
        (None, true) => Some(PathBuf::from(fingerprint::RECORD_PATH)),
        (None, false) => None,
    };
    let book_text = match &book_path {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfbench: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }),
        None => fingerprint::RECORDED.to_string(),
    };
    let book = fingerprint::parse(&book_text).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if args.record && (args.seed != DEFAULT_SEED || args.trace) {
        eprintln!("perfbench: --record-fingerprints needs --seed {DEFAULT_SEED} --trace 0");
        std::process::exit(2);
    }

    let workload = args.workload;
    let mut bench = Bench {
        workload,
        specs: workload.specs(args.seed),
        cfg: workload.config(),
        plan: workload.plan(args.length),
        length: args.length,
        expect: if args.seed == DEFAULT_SEED && !args.record {
            Expect::Recorded(&book)
        } else {
            Expect::FirstRep
        },
        scratch: PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id())),
        ops: Ops::default(),
    };
    let mut trace = Trace::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut passes: Vec<Vec<Traced>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        let rep = bench.rep(untraced.first(), None);
        if args.trace {
            let t = bench.rep(Some(untraced.first().unwrap_or(&rep)), Some(&mut trace));
            // The traced repetition must simulate exactly what the
            // untraced one did.
            for (a, b) in rep.specs.iter().zip(&t.specs) {
                let same = fingerprint::first_difference(&a.print, &b.print)
                    .map_or(Ok(()), |d| Err(format!("{} {d}", a.name)));
                let what = format!("{}/{} traced vs untraced", workload.name(), a.name);
                bench.ops.record(&what, same);
            }
            passes.push(bench.traced_pass(&t, &mut trace));
            traced.push(t);
        }
        eprintln!(
            "repetition {}: {:.4} Minst/s, {:.3} s wall",
            untraced.len() + 1,
            rep.sim_mips(),
            rep.wall.as_secs_f64(),
        );
        untraced.push(rep);
        if args.record || (untraced.len() >= MIN_REPS && Instant::now() >= deadline) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&bench.scratch);
    let (plan, ops) = (bench.plan, bench.ops);

    if args.record {
        let mut book = book.clone();
        for run in &untraced[0].specs {
            let key = format!("{}/{}/{}", args.length.name(), workload.name(), run.name);
            book.insert(key, run.print.clone());
        }
        let path = book_path.expect("recording names a fingerprint file");
        if let Err(e) = std::fs::write(&path, fingerprint::render(&book)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "recorded {} fingerprints into {}",
            untraced[0].specs.len(),
            path.display()
        );
    }

    let e2e = end_to_end(&untraced, &ops);
    let counts = simulated_counts(&untraced[0]);
    let manifest = manifest(&args, &plan, untraced.len());
    println!("manifest {manifest}");
    println!("simulated-counts {}", json_metrics(&counts));
    for (name, value, unit) in &e2e {
        println!("  {name:<22} {value:>14.6} {unit}");
    }
    let error_rate = ops.failures.len() as f64 / ops.attempted.max(1) as f64;
    println!("  {:<22} {error_rate:>14.6} fraction", "error_rate");
    let reported = if args.trace {
        let mut m = counts.clone();
        m.extend(per_layer(workload, &untraced, &traced, &passes, &trace));
        for (name, value, unit) in &m {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
        m
    } else {
        e2e.clone()
    };

    let _ = std::fs::create_dir_all(OUT_DIR);
    let report = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let failures: Vec<String> = ops
        .failures
        .iter()
        .map(|f| serde_json::to_string(f.as_str()).expect("string serializes"))
        .collect();
    let mut all = e2e.clone();
    all.extend(if args.trace { reported.clone() } else { counts });
    let body = format!(
        "{{\"manifest\": {manifest}, \"metrics\": {}, \"failures\": [{}], \"spans\": {}}}\n",
        json_metrics(&all),
        failures.join(", "),
        trace.to_json()
    );
    if let Err(e) = std::fs::write(&report, body) {
        eprintln!("perfbench: cannot write {}: {e}", report.display());
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.failures.is_empty(),
        ops.attempted,
        ops.failures.len(),
        json_metrics(&reported)
    );
}
