//! The benchmark's workloads and one repetition of each: every spec is
//! built, simulated single-threaded on this thread through the public
//! `ucp-core` API, and checked.

use crate::fingerprint::{self, Book, Fingerprint};
use crate::replay::{self, Traffic};
use crate::trace::Trace;
use sim_isa::{fnv1a64, StateWriter};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use ucp_core::snapshot::{latest_valid_checkpoint, write_checkpoint};
use ucp_core::{
    CheckpointMeta, DigestRecord, PrefetcherKind, RunOutput, SimConfig, SimStats, Simulator,
    CKPT_VERSION, DEFAULT_WATCHDOG_CYCLES,
};
use ucp_telemetry::interval::{DEFAULT_INTERVAL_CAPACITY, DEFAULT_INTERVAL_CYCLES};
use ucp_telemetry::{IntervalSampler, Registry, RegistrySnapshot, Telemetry, TOTAL_CYCLES_PATH};
use ucp_workloads::{suite, Program, WorkloadSpec};

/// The seed that keeps the suite's own spec seeds (and so the recorded
/// fingerprints). Any other seed re-seeds every spec.
pub const DEFAULT_SEED: u64 = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Quick-suite server specs under UCP: oversubscribed µ-op cache,
    /// L1I misses and alternate-path walks dominate.
    ServerUcp,
    /// Small loopy specs under the baseline: the code fits the µ-op cache,
    /// so per-cycle fixed cost dominates and UCP is off.
    LoopBase,
    /// One server spec under baseline + EP++ with the determinism auditor,
    /// periodic checkpoints and a restore: the only workload where the
    /// prefetcher, state codec and snapshot layers carry weight.
    ServerAudit,
}

/// How long each spec runs. `Tiny` exists for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Length {
    Full,
    Tiny,
}

impl Length {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Length::Full),
            "tiny" => Some(Length::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Length::Full => "full",
            Length::Tiny => "tiny",
        }
    }
}

/// Per-spec run lengths (instructions) and, on `server-audit`, the
/// auditor's digest and checkpoint cadences.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: u64,
    pub measure: u64,
    /// Instructions per timed simulation chunk.
    pub chunk: u64,
    pub digest_every: Option<u64>,
    pub ckpt_every: Option<u64>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServerUcp,
        Workload::LoopBase,
        Workload::ServerAudit,
    ];

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServerUcp => "server-ucp",
            Workload::LoopBase => "loop-base",
            Workload::ServerAudit => "server-audit",
        }
    }

    fn spec_names(self) -> &'static [&'static str] {
        match self {
            Workload::ServerUcp => &["srv00", "srv04", "srv08", "srv12"],
            Workload::LoopBase => &["crypto02", "fp00"],
            Workload::ServerAudit => &["srv04"],
        }
    }

    pub fn config(self) -> SimConfig {
        match self {
            Workload::ServerUcp => SimConfig::ucp(),
            Workload::LoopBase => SimConfig::baseline(),
            Workload::ServerAudit => SimConfig {
                prefetcher: PrefetcherKind::EpPlusPlus,
                ..SimConfig::baseline()
            },
        }
    }

    pub fn plan(self, length: Length) -> Plan {
        let (warmup, measure) = match (self, length) {
            (Workload::ServerUcp, Length::Full) => (100_000, 400_000),
            (Workload::LoopBase, Length::Full) => (200_000, 1_300_000),
            (Workload::ServerAudit, Length::Full) => (100_000, 900_000),
            (_, Length::Tiny) => (5_000, 20_000),
        };
        let audit = self == Workload::ServerAudit;
        // The checkpoint cadence is a whole number of chunks.
        let (chunk, digest, ckpt) = match length {
            Length::Full => (25_000, 200_000, 250_000),
            Length::Tiny => (4_000, 5_000, 8_000),
        };
        Plan {
            warmup,
            measure,
            chunk,
            digest_every: audit.then_some(digest),
            ckpt_every: audit.then_some(ckpt),
        }
    }

    /// The workload's specs, re-seeded unless `seed` is the default.
    pub fn specs(self, seed: u64) -> Vec<WorkloadSpec> {
        let suite = suite::quick_suite();
        self.spec_names()
            .iter()
            .map(|name| {
                let mut spec = suite
                    .iter()
                    .find(|s| s.name == *name)
                    .expect("workload specs are quick-suite specs")
                    .clone();
                if seed != DEFAULT_SEED {
                    spec.seed = spec
                        .seed
                        .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                spec
            })
            .collect()
    }
}

/// Operations attempted and the ones that failed, with the reason.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("FAILED {what}: {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// What the per-spec fingerprint check compares against.
pub enum Expect<'a> {
    /// Recorded fingerprints (default seed), keyed `<length>/<workload>/<spec>`.
    Recorded(&'a Book),
    /// The first repetition of this run (any other seed): the
    /// determinism check.
    FirstRep,
}

/// One spec's simulation.
pub struct SpecRun {
    pub name: String,
    /// `WorkloadSpec::build` plus `Simulator::new`.
    pub setup: Duration,
    /// Host time of each fixed-length simulation chunk, in run order (the
    /// restored run's tail last, on `server-audit`).
    pub chunks: Vec<Duration>,
    /// The whole spec: set-up, simulation, auditor work and checks.
    pub elapsed: Duration,
    /// Instructions and cycles simulated, warm-up and restore included.
    pub insts: u64,
    pub cycles: u64,
    pub stats: SimStats,
    pub window: RegistrySnapshot,
    pub digests: Vec<DigestRecord>,
    pub print: Fingerprint,
    /// Instructions committed when the measured window closed.
    pub end: u64,
    /// Machine state at the end of the uninterrupted run, kept in traced
    /// runs for the snapshot measurements.
    state: Option<Vec<u8>>,
}

/// One repetition of a workload: all specs.
pub struct Rep {
    pub specs: Vec<SpecRun>,
    pub wall: Duration,
}

impl Rep {
    pub fn sim_secs(&self) -> f64 {
        self.specs
            .iter()
            .flat_map(|s| &s.chunks)
            .map(Duration::as_secs_f64)
            .sum()
    }

    pub fn insts(&self) -> u64 {
        self.specs.iter().map(|s| s.insts).sum()
    }

    pub fn cycles(&self) -> u64 {
        self.specs.iter().map(|s| s.cycles).sum()
    }

    pub fn sim_mips(&self) -> f64 {
        self.insts() as f64 / self.sim_secs() / 1e6
    }

    pub fn ipc_geomean(&self) -> f64 {
        let logs: f64 = self.specs.iter().map(|s| s.stats.ipc().ln()).sum();
        (logs / self.specs.len() as f64).exp()
    }
}

/// Host times of a run, taken segment by segment. Every repetition does
/// identical work in identical segments: each spec's set-up, each
/// simulation chunk, and the rest of each spec. The benchmark host is
/// shared, and other tenants slow it by up to 50% in episodes of one to a
/// few seconds; noise only ever adds time. So a segment's time is its
/// fastest repetition, and a run's time is the sum over segments.
pub struct Best {
    pub setup: f64,
    pub sim: f64,
    pub wall: f64,
}

pub fn best(reps: &[Rep]) -> Best {
    let mut b = Best {
        setup: 0.0,
        sim: 0.0,
        wall: 0.0,
    };
    for spec in &reps[0].specs {
        let runs: Vec<&SpecRun> = reps
            .iter()
            .filter_map(|rep| rep.specs.iter().find(|s| s.name == spec.name))
            .collect();
        let fastest =
            |f: &dyn Fn(&SpecRun) -> f64| runs.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min);
        let setup = fastest(&|s| s.setup.as_secs_f64());
        let sim: f64 = (0..spec.chunks.len())
            .map(|i| fastest(&|s| s.chunks.get(i).map_or(f64::INFINITY, Duration::as_secs_f64)))
            .sum();
        let rest = fastest(&|s| {
            let chunks: f64 = s.chunks.iter().map(Duration::as_secs_f64).sum();
            s.elapsed.as_secs_f64() - s.setup.as_secs_f64() - chunks
        });
        b.setup += setup;
        b.sim += sim;
        b.wall += setup + sim + rest;
    }
    b
}

/// A simulator with every knob set explicitly, so no environment read
/// decides what is measured: the default interval sampler, the default
/// watchdog and the plan's digest cadence.
fn machine<'p>(
    prog: &'p Program,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    plan: &Plan,
) -> Simulator<'p> {
    let mut sim = Simulator::with_telemetry(prog, spec.seed, cfg, Telemetry::disabled());
    sim.set_interval_sampling(Some(IntervalSampler::new(
        DEFAULT_INTERVAL_CYCLES,
        DEFAULT_INTERVAL_CAPACITY,
    )));
    sim.set_watchdog(Some(DEFAULT_WATCHDOG_CYCLES));
    sim.set_digest_interval(plan.digest_every);
    sim
}

fn total_cycles(sim: &Simulator<'_>) -> u64 {
    sim.telemetry().registry.counter(TOTAL_CYCLES_PATH).get()
}

fn save(sim: &Simulator<'_>) -> Vec<u8> {
    let mut w = StateWriter::new();
    sim.save_state(&mut w);
    w.into_bytes()
}

fn checkpoint_meta(
    cfg: &SimConfig,
    plan: &Plan,
    spec: &WorkloadSpec,
    sim: &Simulator<'_>,
    state: &[u8],
) -> CheckpointMeta {
    CheckpointMeta {
        version: CKPT_VERSION,
        workload: spec.name.clone(),
        spec_json: serde_json::to_string(spec).expect("spec serializes"),
        cfg_json: serde_json::to_string(cfg).expect("config serializes"),
        seed: spec.seed,
        warmup: plan.warmup,
        measure: plan.measure,
        committed: sim.committed(),
        cycle: total_cycles(sim),
        digest: fnv1a64(state),
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let text = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {text}"))
    })
}

/// Times a step and, in a traced run, records it as a span.
struct Clock<'t> {
    trace: Option<&'t mut Trace>,
    parent: Option<usize>,
}

impl<'t> Clock<'t> {
    fn new(trace: Option<&'t mut Trace>, name: &str) -> Self {
        match trace {
            Some(t) => {
                let top = t.open(name, None);
                Clock {
                    trace: Some(t),
                    parent: Some(top),
                }
            }
            None => Clock {
                trace: None,
                parent: None,
            },
        }
    }

    fn lap(&mut self, name: &str, start: Instant, calls: u64) -> Duration {
        match self.trace.as_deref_mut() {
            Some(t) => t.record(name, self.parent, start, calls),
            None => start.elapsed(),
        }
    }

    fn finish(self) {
        if let (Some(t), Some(top)) = (self.trace, self.parent) {
            t.close(top, 1);
        }
    }
}

/// Per-spec results of the traced pass that the layer estimates need.
pub struct Traced {
    pub traffic: Traffic,
    pub snapshot_bytes: u64,
    pub instruments: u64,
}

/// One workload's run: what it simulates, what it checks against, and the
/// operations attempted so far.
pub struct Bench<'a> {
    pub workload: Workload,
    pub specs: Vec<WorkloadSpec>,
    pub cfg: SimConfig,
    pub plan: Plan,
    pub length: Length,
    pub expect: Expect<'a>,
    /// Private directory for checkpoints, removed when the run ends.
    pub scratch: PathBuf,
    pub ops: Ops,
}

impl Bench<'_> {
    fn label(&self, spec: &WorkloadSpec) -> String {
        format!("{}/{}", self.workload.name(), spec.name)
    }

    /// Runs every spec once and checks each against the recorded
    /// fingerprints or, off the default seed, against `first`, the run's
    /// first repetition.
    pub fn rep(&mut self, first: Option<&Rep>, mut trace: Option<&mut Trace>) -> Rep {
        let t = Instant::now();
        let mut runs = Vec::new();
        for spec in self.specs.clone() {
            let Some(run) = self.spec(&spec, trace.as_deref_mut()) else {
                continue;
            };
            if let Some(outcome) = self.check(first, &spec, &run) {
                let label = self.label(&spec);
                self.ops
                    .record(&format!("{label} fingerprint check"), outcome);
            }
            runs.push(run);
        }
        Rep {
            specs: runs,
            wall: t.elapsed(),
        }
    }

    /// Compares one spec's run with what it must be. `None` when there is
    /// nothing to compare against: the first repetition off the default
    /// seed is the reference itself.
    fn check(
        &self,
        first: Option<&Rep>,
        spec: &WorkloadSpec,
        run: &SpecRun,
    ) -> Option<Result<(), String>> {
        let diff = match &self.expect {
            Expect::Recorded(book) => {
                let key = format!("{}/{}", self.length.name(), self.label(spec));
                match book.get(&key) {
                    None => Some(format!("no recorded fingerprint for {key}")),
                    Some(want) => fingerprint::first_difference(want, &run.print)
                        .map(|d| format!("fingerprint mismatch on {}: {d}", run.name)),
                }
            }
            Expect::FirstRep => {
                let reference = first?.specs.iter().find(|s| s.name == run.name)?;
                if reference.digests != run.digests {
                    Some(format!(
                        "determinism: {} digest stream differs between repetitions",
                        run.name
                    ))
                } else {
                    fingerprint::first_difference(&reference.print, &run.print)
                        .map(|d| format!("determinism: {} {d}", run.name))
                }
            }
        };
        Some(diff.map_or(Ok(()), Err))
    }

    /// Simulates `spec` once, recording each checkpoint write and the
    /// restore check as operations. `None` when the simulation itself
    /// failed (also recorded). With a trace, set-up and simulation steps
    /// become spans and the end state is kept for [`Bench::traced_pass`].
    fn spec(&mut self, spec: &WorkloadSpec, trace: Option<&mut Trace>) -> Option<SpecRun> {
        let keep_state = trace.is_some();
        let mut clock = Clock::new(trace, &format!("spec:{}", spec.name));
        let (cfg, plan) = (&self.cfg, self.plan);
        let label = self.label(spec);
        let dir = self.scratch.join(&spec.name);
        let t0 = Instant::now();
        let prog = spec.build();
        let build = clock.lap("workloads.build", t0, 1);
        let t1 = Instant::now();
        let mut sim = machine(&prog, spec, cfg, &plan);
        let setup = build + clock.lap("core.new", t1, 1);
        let mut chunks = Vec::new();

        // Fixed-length chunks (`run_to_committed` opens the measured
        // window exactly where `run_full` would), then `run_full` closes
        // the window.
        let simulated = guarded(|| {
            let mut target = plan.chunk;
            while target < plan.warmup + plan.measure {
                let (before, t) = (sim.committed(), Instant::now());
                sim.run_to_committed(target, plan.warmup)
                    .map_err(|e| e.to_string())?;
                chunks.push(clock.lap("core.simulate", t, sim.committed() - before));
                if plan.ckpt_every.is_some_and(|every| target % every == 0) {
                    let state = save(&sim);
                    let meta = checkpoint_meta(cfg, &plan, spec, &sim, &state);
                    let written = write_checkpoint(&dir, &meta, &state, 2, None);
                    self.ops.record(
                        &format!("{label} checkpoint@{}", meta.committed),
                        written.map(|_| ()).map_err(|e| e.to_string()),
                    );
                }
                target += plan.chunk;
            }
            let (before, t) = (sim.committed(), Instant::now());
            let out = sim
                .run_full(plan.warmup, plan.measure)
                .map_err(|e| e.to_string())?;
            chunks.push(clock.lap("core.simulate", t, sim.committed() - before));
            Ok(out)
        });
        let out: RunOutput = match simulated {
            Ok(out) => {
                self.ops.record(&format!("{label} simulation"), Ok(()));
                out
            }
            Err(e) => {
                self.ops.record(&format!("{label} simulation"), Err(e));
                let _ = std::fs::remove_dir_all(&dir);
                clock.finish();
                return None;
            }
        };
        let state = save(&sim);
        let mut run = SpecRun {
            name: spec.name.clone(),
            setup,
            chunks,
            elapsed: Duration::ZERO,
            insts: sim.committed(),
            cycles: total_cycles(&sim),
            print: fingerprint::of_run(&out.stats, &out.telemetry, fnv1a64(&state)),
            stats: out.stats,
            window: out.telemetry,
            digests: out.digests,
            end: sim.committed(),
            state: keep_state.then_some(state),
        };
        drop(sim);

        if plan.ckpt_every.is_some() {
            // Resume from the newest checkpoint on a fresh machine; it
            // must end exactly where the uninterrupted run did.
            let restored = guarded(|| {
                let (meta, state) =
                    latest_valid_checkpoint(&dir).ok_or("no valid checkpoint on disk")?;
                let mut again = machine(&prog, spec, cfg, &plan);
                again.restore_from_bytes(&state);
                let t = Instant::now();
                let out = again
                    .run_full(plan.warmup, plan.measure)
                    .map_err(|e| e.to_string())?;
                let insts = again.committed() - meta.committed;
                let elapsed = clock.lap("core.simulate", t, insts);
                let print = fingerprint::of_run(&out.stats, &out.telemetry, again.state_digest());
                if let Some(diff) = fingerprint::first_difference(&run.print, &print) {
                    return Err(format!(
                        "restored from {} committed: {diff}",
                        meta.committed
                    ));
                }
                if out.digests != run.digests {
                    return Err(format!(
                        "restored from {} committed: digest stream differs",
                        meta.committed
                    ));
                }
                Ok((elapsed, insts, total_cycles(&again) - meta.cycle))
            });
            let outcome = restored.map(|(elapsed, insts, cycles)| {
                run.chunks.push(elapsed);
                run.insts += insts;
                run.cycles += cycles;
            });
            self.ops.record(&format!("{label} restore check"), outcome);
            let _ = std::fs::remove_dir_all(&dir);
        }
        clock.finish();
        run.elapsed = t0.elapsed();
        Some(run)
    }

    /// The traced pass over a traced repetition: snapshot save, digest,
    /// checkpoint write, restore and registry measurements on each spec's
    /// end state, then the correct-path replay. Every call sits inside a
    /// span.
    pub fn traced_pass(&mut self, rep: &Rep, trace: &mut Trace) -> Vec<Traced> {
        let reach = self.cfg.backend.rob_entries as u64 + u64::from(self.cfg.backend.commit_width);
        let mut out = Vec::new();
        for run in &rep.specs {
            let spec = self
                .specs
                .iter()
                .find(|s| s.name == run.name)
                .expect("runs come from the listed specs")
                .clone();
            let label = self.label(&spec);
            let end_state = run
                .state
                .as_ref()
                .expect("traced runs keep their end state");
            let top = trace.open(&format!("layers:{}", spec.name), None);
            let parent = Some(top);
            let prog = spec.build();
            // `run_full` hands the interval sampler's records out, so an
            // end state carries no sampler and neither may the machine
            // taking it.
            let end_machine = || {
                let mut m = machine(&prog, &spec, &self.cfg, &self.plan);
                m.set_interval_sampling(None);
                m
            };
            let mut sim = end_machine();
            sim.restore_from_bytes(end_state);
            let state = trace.time("core.snapshot.save", parent, || (save(&sim), 1));
            let digest = trace.time("core.digest", parent, || (sim.state_digest(), 1));
            let same = if state == *end_state && digest == fnv1a64(end_state) {
                Ok(())
            } else {
                Err("end state changed across restore and save".to_string())
            };
            let meta = checkpoint_meta(&self.cfg, &self.plan, &spec, &sim, &state);
            let dir = self.scratch.join(format!("{}-traced", spec.name));
            let written = trace.time("core.ckpt_write", parent, || {
                (write_checkpoint(&dir, &meta, &state, 1, None), 1)
            });
            let _ = std::fs::remove_dir_all(&dir);
            let mut fresh = end_machine();
            trace.time("core.snapshot.restore", parent, || {
                fresh.restore_from_bytes(&state);
                ((), 1)
            });
            self.ops
                .record(&format!("{label} snapshot round trip"), same);
            self.ops.record(
                &format!("{label} traced checkpoint write"),
                written.map(|_| ()).map_err(|e| e.to_string()),
            );

            let counter = Registry::default().counter("perfbench.counter");
            trace.time("telemetry.counter_inc", parent, || {
                const INCS: u64 = 1_000_000;
                for _ in 0..INCS {
                    black_box(&counter).inc();
                }
                ((), INCS)
            });
            const SNAPSHOTS: u64 = 20;
            let registry = &sim.telemetry().registry;
            let snap = trace.time("telemetry.snapshot", parent, || {
                let mut last = registry.snapshot();
                for _ in 1..SNAPSHOTS {
                    last = black_box(registry.snapshot());
                }
                (last, SNAPSHOTS)
            });
            trace.time("telemetry.delta", parent, || {
                for _ in 0..SNAPSHOTS {
                    black_box(snap.delta_since(&run.window));
                }
                ((), SNAPSHOTS)
            });

            let window = (run.end - run.stats.instructions, run.end);
            let replay_top = trace.open("replay", parent);
            let traffic = replay::replay(
                &prog,
                spec.seed,
                &self.cfg,
                run.end,
                window,
                reach,
                trace,
                Some(replay_top),
            );
            trace.close(replay_top, traffic.insts);
            trace.close(top, 1);

            // The replayed correct path must carry the conditional
            // branches the simulator resolved in its measured window, up
            // to the branches that can be in flight at either boundary.
            let gap = traffic.window_conds.abs_diff(run.stats.cond_branches);
            let outcome = if gap <= traffic.boundary_conds {
                Ok(())
            } else {
                Err(format!(
                    "replay fed {} conditional branches, the simulator resolved {} \
                     (gap {gap}, at most {} in flight)",
                    traffic.window_conds, run.stats.cond_branches, traffic.boundary_conds
                ))
            };
            self.ops
                .record(&format!("{label} replay traffic check"), outcome);
            out.push(Traced {
                traffic,
                snapshot_bytes: state.len() as u64,
                instruments: (snap.counters.len() + snap.histograms.len()) as u64,
            });
        }
        out
    }
}
