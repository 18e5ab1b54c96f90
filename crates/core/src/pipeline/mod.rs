//! The cycle-level pipeline: decoupled branch-prediction-driven address
//! generation (FDP), stream/build µ-op cache frontend, event-time
//! out-of-order backend, and all the evaluation idealizations.
//!
//! # Model summary (see DESIGN.md §3 for the rationale)
//!
//! * **Address generation** walks the *predicted* path through the real
//!   static code: the BTB supplies branch targets, TAGE-SC-L directions,
//!   ITTAGE indirect targets and the RAS return addresses. The oracle
//!   stream is consulted only to classify each prediction as
//!   correct/incorrect — after the first misprediction the walker is on
//!   the wrong path and keeps generating (and fetching, and polluting)
//!   until the branch resolves, exactly like a decoupled frontend.
//! * **Fetch/deliver** consumes FTQ blocks: stream mode hits the µ-op
//!   cache (8 µ-ops, 2 windows per cycle); a miss switches to build mode
//!   (1-cycle penalty) where blocks are read from the L1I, decoded 6-wide
//!   and rebuilt into µ-op cache entries under the paper's termination
//!   rules; enough consecutive µ-op cache hits switch back.
//! * **Dispatch/backend**: µ-ops younger than an unresolved misprediction
//!   are squashed at dispatch; everything else enters the event-time
//!   backend. A mispredicted branch's completion flushes the frontend and
//!   redirects it to the corrected — i.e. the *alternate* — path, whose
//!   refill speed is precisely what UCP accelerates.

pub mod backend;
mod records;

use crate::config::{SimConfig, UopCacheModel};
use crate::error::{DiagSnapshot, SimError};
use crate::knobs::Knobs;
use crate::snapshot::{
    latest_valid_checkpoint, remove_run_checkpoints, run_slug, write_checkpoint, CheckpointMeta,
    DigestRecord, CKPT_VERSION,
};
use crate::stats::{SimStats, UcpStats};
use crate::ucp::{AltPred, LazyPredictions, UcpEngine};
use backend::Backend;
use records::RecordRing;
use serde::{Deserialize, Serialize};
use sim_isa::state::{restore_configured, save_configured};
use sim_isa::{fnv1a64, Addr, BranchClass, DynInst, InstKind, State, StateReader, StateWriter};
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use ucp_bpred::{
    push_target_history, ConfidenceEstimator, HistCheckpoint, HistoryState, Ittage, IttageParams,
    IttagePrediction, PathHistory, SclPrediction, TageConf, TageScL, UcpConf,
};
use ucp_frontend::{BoundedQueue, Btb, EntryEnd, Ras, RasCheckpoint, UopCache, UopEntrySpec};
use ucp_mem::{CacheStats, Hierarchy, HitLevel};
use ucp_prefetch::{InstPrefetcher, Mrc};
use ucp_telemetry::interval::{IntervalRecord, IntervalSampler, INSTRET_PATH};
use ucp_telemetry::{
    AccountingBreakdown, Category, Counter, CycleAccounting, CycleCause, FaultPlan, Histogram,
    RegistrySnapshot, Telemetry,
};
use ucp_workloads::{Oracle, Program, WorkloadSpec};

/// The most µ-op cache entries one block builds: a block holds at most 8
/// instructions and every entry but the last holds two branches.
pub(crate) const MAX_BLOCK_ENTRIES: usize = 4;

/// Builds µ-op cache entries for `n` instructions starting at `start`,
/// applying the paper's termination rules: entries never cross the 32 B
/// window (callers pass window-bounded blocks), never exceed 8 µ-ops, and
/// split when a third branch would need a target slot. The entries come
/// first, in order; the rest of the array is `None`.
pub(crate) fn build_entries(
    prog: &Program,
    start: Addr,
    n: u8,
    prefetched: bool,
    trigger: u64,
) -> [Option<UopEntrySpec>; MAX_BLOCK_ENTRIES] {
    debug_assert!(n <= 8, "a block holds at most 8 instructions");
    let mut out = [None; MAX_BLOCK_ENTRIES];
    let mut built = 0;
    let mut entry_start = start;
    let mut count: u8 = 0;
    let mut branches: u8 = 0;
    for i in 0..n {
        let pc = start.offset_insts(u64::from(i));
        let is_branch = prog.inst_at(pc).is_some_and(|x| x.is_branch());
        if is_branch && branches == 2 {
            // Third branch: terminate and start a new entry in the same
            // region (another way of the same set).
            out[built] = Some(UopEntrySpec {
                start: entry_start,
                num_uops: count,
                end: EntryEnd::BranchSlots,
                prefetched,
                trigger,
            });
            built += 1;
            entry_start = pc;
            count = 0;
            branches = 0;
        }
        count += 1;
        branches += u8::from(is_branch);
    }
    if count > 0 {
        out[built] = Some(UopEntrySpec {
            start: entry_start,
            num_uops: count,
            end: EntryEnd::WindowBoundary,
            prefetched,
            trigger,
        });
    }
    out
}

/// Frontend delivery mode (§II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// µ-op cache streaming (fast path).
    Stream,
    /// L1I + decoders (slow path), building µ-op cache entries.
    Build,
}

/// The kind of branch a prediction record tracks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum RecKind {
    #[default]
    Cond,
    Indirect {
        is_call: bool,
    },
    Return,
}

/// One in-flight branch prediction. History checkpoints hold only the
/// write pointer, which UCP's mirror histories share; they serialize as
/// full, zero-padded fold lists (see [`PredRecord::save_in`]).
#[derive(Default)]
struct PredRecord {
    pc: Addr,
    kind: RecKind,
    /// Correct-path position (`None` on the wrong path).
    pos: Option<u64>,
    actual_taken: bool,
    actual_next: Addr,
    mispredicted: bool,
    /// Indirect with no known target: fetch stalls until execution.
    no_target: bool,
    cp_bp: HistCheckpoint,
    cp_it: HistCheckpoint,
    cp_ras: RasCheckpoint,
    scl: Option<SclPrediction>,
    itt: Option<IttagePrediction>,
    alt_scl: AltPred,
    alt_itt: Option<IttagePrediction>,
    h2p_tage: bool,
    h2p_ucp: bool,
}

const MAX_BLOCK_RECS: usize = 4;

/// One FTQ fetch block (≤ 8 instructions inside one 32 B window).
#[derive(Clone, Copy, Debug, Default)]
struct FetchBlock {
    start: Addr,
    n: u8,
    n_cond: u8,
    /// Correct-path position of the first instruction.
    pos: Option<u64>,
    /// Index of the first wrong-path instruction (`u8::MAX` = none).
    diverge_at: u8,
    /// L1I data-ready cycle once fetch was issued.
    fetch_ready: Option<u64>,
    /// (instruction offset, record id) pairs for branches in this block.
    recs: [(u8, u64); MAX_BLOCK_RECS],
    n_recs: u8,
}

impl FetchBlock {
    fn rec_at(&self, offset: u8) -> Option<u64> {
        self.recs[..self.n_recs as usize]
            .iter()
            .find(|&&(o, _)| o == offset)
            .map(|&(_, id)| id)
    }
}

/// One µ-op waiting to dispatch.
#[derive(Clone, Copy, Debug, Default)]
struct UopQEntry {
    /// Correct-path position (`None` = wrong path, squashed at dispatch).
    pos: Option<u64>,
    ready: u64,
    rec: Option<u64>,
}

/// Baselines captured when the measurement window opens. They live on
/// the simulator (not on `run_full`'s stack) so that a checkpoint taken
/// mid-window carries them, and a restored run closes the window against
/// the *original* baselines — bit-identical to an uninterrupted run.
#[derive(Default)]
struct MeasureState {
    start_cycle: u64,
    start_committed: u64,
    l1i0: CacheStats,
    ucp0: Option<UcpStats>,
    reg0: RegistrySnapshot,
}

/// An armed checkpoint writer (`UCP_CKPT`): destination directory,
/// cadence, retention, and the metadata identifying this run's exact
/// trajectory (embedded in every checkpoint so offline tools can rebuild
/// the simulation from the file alone).
struct CkptSink {
    dir: PathBuf,
    every: u64,
    keep: usize,
    workload: String,
    spec_json: String,
    cfg_json: String,
    seed: u64,
    warmup: u64,
    measure: u64,
    fault: Option<Arc<FaultPlan>>,
}

/// The simulator's own telemetry handles (`pipeline.*`, plus the
/// `frontend.*`/`prefetch.*` counters whose increment sites live in the
/// pipeline rather than in the component crates).
struct SimTelemetry {
    handle: Telemetry,
    flushes: Counter,
    resteers: Counter,
    mode_switches: Counter,
    l1i_prefetches: Counter,
    committed: Counter,
    ftq_occupancy: Histogram,
    accounting: CycleAccounting,
}

impl SimTelemetry {
    fn bound_to(handle: Telemetry) -> Self {
        SimTelemetry {
            flushes: handle.registry.counter("pipeline.flushes"),
            resteers: handle.registry.counter("pipeline.btb_resteers"),
            mode_switches: handle.registry.counter("frontend.uopc.mode_switches"),
            l1i_prefetches: handle.registry.counter("prefetch.l1i_issued"),
            committed: handle.registry.counter(INSTRET_PATH),
            ftq_occupancy: handle.registry.histogram("frontend.ftq.occupancy"),
            accounting: CycleAccounting::bound_to(&handle.registry),
            handle,
        }
    }
}

/// Everything one instrumented run produces: aggregate statistics, the
/// measurement-window telemetry delta, and the interval time series
/// (empty when sampling is disabled via `UCP_INTERVAL=0`).
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Aggregate statistics over the measurement window.
    pub stats: SimStats,
    /// Registry delta over the measurement window.
    pub telemetry: RegistrySnapshot,
    /// Interval samples covering the measurement window, oldest first.
    pub intervals: Vec<IntervalRecord>,
    /// Determinism-auditor digest samples over the whole run, oldest
    /// first (empty unless `UCP_DIGEST` or
    /// [`Simulator::set_digest_interval`] enabled the auditor).
    pub digests: Vec<DigestRecord>,
}

/// The full-machine simulator for one workload.
pub struct Simulator<'p> {
    cfg: SimConfig,
    prog: &'p Program,
    oracle: Oracle<'p>,
    stream: VecDeque<DynInst>,
    stream_base: u64,
    now: u64,

    bp: TageScL,
    bp_hist: HistoryState,
    ittage: Ittage,
    it_hist: PathHistory,
    btb: Btb,
    ras: Ras,
    uop_cache: Option<UopCache>,
    uop_ideal: bool,
    hier: Hierarchy,
    prefetcher: Box<dyn InstPrefetcher>,
    prefetch_pq: BoundedQueue<Addr>,
    /// Reused buffer for the candidates the prefetcher drains each cycle.
    prefetch_drain: Vec<Addr>,
    mrc: Option<Mrc>,
    mrc_filling: bool,
    mrc_stream_left: u32,
    ucp: Option<UcpEngine>,

    // Address generation.
    agen_pc: Addr,
    agen_pos: Option<u64>,
    agen_stall_until: u64,
    agen_dead: bool,
    agen_window_penalty: u32,
    pending_mispredict: Option<u64>,
    demand_btb_banks: u64,

    ftq: BoundedQueue<FetchBlock>,
    uopq: BoundedQueue<UopQEntry>,
    mode: Mode,
    fetch_stall_until: u64,
    consec_uop_hits: u32,
    head_delivered: u8,
    ideal_brcond_left: u32,
    demand_uop_banks: [bool; 2],

    records: RecordRing<PredRecord>,

    backend: Backend,
    resolve_q: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,

    committed: u64,
    last_commit_cycle: u64,
    last_retired_pc: Option<Addr>,
    measuring: bool,
    measure_state: Option<MeasureState>,
    stats: SimStats,
    tele: SimTelemetry,
    sampler: Option<IntervalSampler>,

    // Checkpointing (`UCP_CKPT`) and the determinism auditor
    // (`UCP_DIGEST`).
    ckpt: Option<CkptSink>,
    last_ckpt_committed: u64,
    digest_every: Option<u64>,
    last_digest_committed: u64,
    digests: Vec<DigestRecord>,

    // Resilience: hang watchdog window (None = disabled) and the
    // deterministic fault-injection hooks (`UCP_FAULT`).
    watchdog: Option<u64>,
    hang_injected: bool,
    skew_invariant: bool,
    skew_applied: bool,

    // Per-cycle attribution scratch, reset at the top of `cycle()`.
    delivered_uop: bool,
    delivered_decode: bool,
    deliver_blocked: Option<CycleCause>,
    agen_stall_kind: CycleCause,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `prog` under `cfg`, with the workload's
    /// behavioural `seed` and the default knobs ([`Knobs::default`]).
    pub fn new(prog: &'p Program, seed: u64, cfg: &SimConfig) -> Self {
        Simulator::with_knobs(prog, seed, cfg, &Knobs::default())
    }

    /// [`Simulator::new`] configured by `knobs`: their tracer, interval
    /// sampler, digest cadence and hang watchdog. Checkpointing is armed
    /// separately ([`Simulator::arm_checkpointing`]).
    pub fn with_knobs(prog: &'p Program, seed: u64, cfg: &SimConfig, knobs: &Knobs) -> Self {
        Simulator::build(prog, seed, cfg, knobs.telemetry(), knobs)
    }

    /// Creates a simulator wired to `telemetry`, otherwise configured by
    /// [`Knobs::default`]: every layer (µ-op cache, UCP engine, memory
    /// hierarchy, L1I prefetcher, the pipeline itself) registers its
    /// counters in `telemetry.registry` and emits trace events through
    /// `telemetry.tracer`.
    pub fn with_telemetry(
        prog: &'p Program,
        seed: u64,
        cfg: &SimConfig,
        telemetry: Telemetry,
    ) -> Self {
        Simulator::build(prog, seed, cfg, telemetry, &Knobs::default())
    }

    fn build(
        prog: &'p Program,
        seed: u64,
        cfg: &SimConfig,
        telemetry: Telemetry,
        knobs: &Knobs,
    ) -> Self {
        let bp = TageScL::new(cfg.bpred);
        let bp_hist = bp.new_history();
        let ittage = Ittage::new(IttageParams::main_64k());
        let it_hist = ittage.new_history();
        let (mut uop_cache, uop_ideal) = match &cfg.uop_cache {
            UopCacheModel::None => (None, false),
            UopCacheModel::Ideal => (None, true),
            UopCacheModel::Real(c) => (Some(UopCache::new(c.clone())), false),
        };
        if let Some(uc) = uop_cache.as_mut() {
            uc.attach_telemetry(&telemetry);
        }
        let mut prefetcher =
            ucp_prefetch::by_name(cfg.prefetcher.name()).expect("every PrefetcherKind has a name");
        prefetcher.attach_telemetry(&telemetry);
        let mut hier = Hierarchy::new(&cfg.mem);
        hier.attach_telemetry(&telemetry);
        let btb = Btb::new(cfg.btb.clone());
        let ucp = cfg.ucp.enabled.then(|| {
            // The walk probes the BTB at static branches only, which is
            // exact only when no two PCs of the image share a (set, tag).
            assert!(
                btb.tags_distinguish(prog.base(), prog.end()),
                "UCP needs a BTB whose (set, tag) covers the code image {:#x}..{:#x}",
                prog.base().raw(),
                prog.end().raw()
            );
            let mut u = UcpEngine::new(cfg.ucp.clone());
            u.attach_telemetry(&telemetry);
            u
        });
        let entry = prog.entry();
        Simulator {
            oracle: Oracle::new(prog, seed),
            stream: VecDeque::with_capacity(4096),
            stream_base: 0,
            now: 0,
            bp,
            bp_hist,
            ittage,
            it_hist,
            btb,
            ras: Ras::new(64),
            uop_cache,
            uop_ideal,
            hier,
            prefetcher,
            prefetch_pq: BoundedQueue::new(32),
            prefetch_drain: Vec::new(),
            mrc: cfg.mrc_entries.map(Mrc::new),
            mrc_filling: false,
            mrc_stream_left: 0,
            ucp,
            agen_pc: entry,
            agen_pos: Some(0),
            agen_stall_until: 0,
            agen_dead: false,
            agen_window_penalty: 0,
            pending_mispredict: None,
            demand_btb_banks: 0,
            ftq: BoundedQueue::new(cfg.frontend.ftq_entries),
            uopq: BoundedQueue::new(cfg.frontend.uop_queue_entries),
            mode: Mode::Build,
            fetch_stall_until: 0,
            consec_uop_hits: 0,
            head_delivered: 0,
            ideal_brcond_left: 0,
            demand_uop_banks: [false; 2],
            records: RecordRing::with_capacity(1024),
            backend: Backend::new(cfg.backend.clone()),
            resolve_q: BinaryHeap::new(),
            committed: 0,
            last_commit_cycle: 0,
            last_retired_pc: None,
            measuring: false,
            measure_state: None,
            stats: SimStats::default(),
            tele: SimTelemetry::bound_to(telemetry),
            sampler: knobs.sampler(),
            ckpt: None,
            last_ckpt_committed: 0,
            digest_every: knobs.digest,
            last_digest_committed: 0,
            digests: Vec::new(),
            watchdog: knobs.watchdog,
            hang_injected: false,
            skew_invariant: false,
            skew_applied: false,
            delivered_uop: false,
            delivered_decode: false,
            deliver_blocked: None,
            agen_stall_kind: CycleCause::Drained,
            prog,
            cfg: cfg.clone(),
        }
    }

    /// Replaces the interval sampler (`UCP_INTERVAL`'s by default).
    /// `None` disables sampling; tools like `trace_dump` pass an explicit
    /// sampler to force it on.
    pub fn set_interval_sampling(&mut self, sampler: Option<IntervalSampler>) {
        self.sampler = sampler;
    }

    /// Replaces the hang-watchdog window (`UCP_WATCHDOG`'s by default).
    /// `None` disables hang detection — a livelocked pipeline then spins
    /// until killed externally.
    pub fn set_watchdog(&mut self, cycles: Option<u64>) {
        self.watchdog = cycles;
    }

    /// Fault-injection hook (`UCP_FAULT=hang:...`): stops all retirement,
    /// so the hang watchdog must terminate the run with
    /// [`SimError::Hang`].
    pub fn inject_hang(&mut self) {
        self.hang_injected = true;
    }

    /// Fault-injection hook (`UCP_FAULT=invariant:...`): skews the
    /// end-of-run cycle-accounting total by one cycle, forcing
    /// [`SimError::InvariantViolation`].
    pub fn inject_invariant_skew(&mut self) {
        self.skew_invariant = true;
    }

    /// Captures the machine state for failure diagnostics; the
    /// divergence bisector also dumps a replayed and a recorded machine
    /// side by side through this.
    pub fn diag_snapshot(&self) -> DiagSnapshot {
        DiagSnapshot {
            cycle: self.now,
            committed: self.committed,
            last_commit_cycle: self.last_commit_cycle,
            last_retired_pc: self.last_retired_pc.map(Addr::raw),
            agen_pc: self.agen_pc.raw(),
            agen_dead: self.agen_dead,
            pending_mispredict: self.pending_mispredict.is_some(),
            ftq_depth: self.ftq.len(),
            uopq_depth: self.uopq.len(),
            rob_occupancy: self.backend.occupancy(),
            accounting: AccountingBreakdown::from_snapshot(&self.tele.handle.registry.snapshot()),
            state_digest: self.state_digest(),
        }
    }

    /// The hang watchdog: no retirement for a full window means the
    /// pipeline is livelocked (always a simulator bug, never a workload
    /// property) — terminate with a diagnostic snapshot instead of
    /// spinning forever.
    fn hang_check(&self) -> Result<(), SimError> {
        match self.watchdog {
            Some(window) if self.now - self.last_commit_cycle >= window => Err(SimError::Hang {
                workload: String::new(),
                window,
                snapshot: Box::new(self.diag_snapshot()),
            }),
            _ => Ok(()),
        }
    }

    /// The telemetry handle this simulator reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele.handle
    }

    /// Convenience: build the workload's program and run it under the
    /// default knobs, panicking on any [`SimError`] (tests and tools that
    /// prefer a crash to a degraded result).
    pub fn run_spec(spec: &WorkloadSpec, cfg: &SimConfig, warmup: u64, measure: u64) -> SimStats {
        let prog = spec.build();
        Simulator::new(&prog, spec.seed, cfg).run(warmup, measure)
    }

    /// Runs `warmup` instructions with statistics off, then `measure`
    /// instructions with statistics on, and returns the collected stats.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`] — hang-watchdog expiry, accounting
    /// invariant violation. Fallible callers use
    /// [`Simulator::run_full`].
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimStats {
        self.run_full(warmup, measure)
            .unwrap_or_else(|e| panic!("{e}"))
            .stats
    }

    /// Runs `warmup` instructions, then `measure` measured ones, and
    /// returns the statistics, the telemetry registry's delta over the
    /// measurement window and the interval time series. Registry counters
    /// tick through warm-up too (they are not gated on `measuring`); the
    /// window is carved out by snapshotting at the measurement boundary
    /// and diffing at the end — the same pattern as the L1I and UCP
    /// statistics.
    ///
    /// This is the point where failures become structured: the hang
    /// watchdog is checked every cycle, and the end-of-run cycle-accounting
    /// invariant (per-category cycles tile the measured total) is reported
    /// as [`SimError::InvariantViolation`] instead of aborting the process
    /// — one bad workload must not kill a 30-workload suite. Under
    /// `cfg(test)` the invariant stays a hard assert so unit tests fail
    /// loudly at the exact site.
    pub fn run_full(&mut self, warmup: u64, measure: u64) -> Result<RunOutput, SimError> {
        // A simulator restored from a mid-measurement checkpoint re-enters
        // here with `measuring` already true — both loop guards and the
        // restored `measure_state` make the resumed run retrace exactly
        // the cycles the interrupted one would have executed.
        while self.committed < warmup && !self.measuring {
            self.hang_check()?;
            self.cycle();
            self.maybe_digest();
            self.maybe_checkpoint()?;
        }
        if !self.measuring {
            self.begin_measurement();
        }
        let end = self
            .measure_state
            .as_ref()
            .expect("measurement window open")
            .start_committed
            + measure;
        while self.committed < end {
            self.hang_check()?;
            self.cycle();
            self.maybe_digest();
            self.maybe_checkpoint()?;
        }
        let ms = self.measure_state.take().expect("measurement window open");
        self.measuring = false;
        self.stats.cycles = self.now - ms.start_cycle;
        self.stats.instructions = self.committed - ms.start_committed;
        let l1i = *self.hier.l1i_stats();
        self.stats.l1i_accesses = (l1i.hits + l1i.misses) - (ms.l1i0.hits + ms.l1i0.misses);
        self.stats.l1i_misses = l1i.misses - ms.l1i0.misses;
        if let (Some(u), Some(u0)) = (self.ucp.as_ref(), ms.ucp0.as_ref()) {
            self.stats.ucp = u.stats.delta_since(u0);
        }
        let telemetry = self.tele.handle.registry.snapshot().delta_since(&ms.reg0);
        let intervals = match self.sampler.take() {
            Some(mut s) => {
                s.finish(self.now, &self.tele.handle.registry);
                s.into_records()
            }
            None => Vec::new(),
        };
        let stats = std::mem::take(&mut self.stats);
        // The charger runs exactly once per cycle, so over the window the
        // categories must tile the measured cycles exactly. A violation
        // here is always an attribution bug, never a workload property.
        // Unit tests keep the hard assert (fail loudly at the site);
        // everything else gets a structured error the suite runner can
        // isolate to the one affected workload.
        let mut breakdown = AccountingBreakdown::from_snapshot(&telemetry);
        if self.skew_invariant {
            // Fault injection: desynchronise the independently-counted
            // total from the per-category sum.
            breakdown.total += 1;
        }
        let violation = match breakdown.verify() {
            Err(e) => Some(e),
            Ok(()) if breakdown.total != stats.cycles => Some(format!(
                "cycle accounting charged {} cycles but the window ran {}",
                breakdown.total, stats.cycles,
            )),
            Ok(()) => None,
        };
        if let Some(detail) = violation {
            #[cfg(test)]
            panic!("cycle accounting: {detail}");
            #[cfg(not(test))]
            return Err(SimError::InvariantViolation {
                workload: String::new(),
                detail,
                snapshot: Box::new(self.diag_snapshot()),
            });
        }
        Ok(RunOutput {
            stats,
            telemetry,
            intervals,
            digests: std::mem::take(&mut self.digests),
        })
    }

    /// Opens the measurement window: statistics on, baselines snapshotted
    /// (warm-up may overshoot by up to one commit width; measurement runs
    /// from the actual boundary).
    fn begin_measurement(&mut self) {
        self.measuring = true;
        let reg0 = self.tele.handle.registry.snapshot();
        if let Some(s) = self.sampler.as_mut() {
            s.begin(self.now, &self.tele.handle.registry);
        }
        self.measure_state = Some(MeasureState {
            start_cycle: self.now,
            start_committed: self.committed,
            l1i0: *self.hier.l1i_stats(),
            ucp0: self.ucp.as_ref().map(|u| u.stats.clone()),
            reg0,
        });
    }

    /// The materialized correct-path instruction at absolute position `pos`.
    fn oracle_at(&mut self, pos: u64) -> DynInst {
        while self.stream_base + self.stream.len() as u64 <= pos {
            self.stream.push_back(self.oracle.next_inst());
        }
        self.stream[(pos - self.stream_base) as usize]
    }

    /// One machine cycle.
    fn cycle(&mut self) {
        if self.tele.handle.tracer.is_active() {
            self.tele.handle.tracer.set_cycle(self.now);
        }
        self.demand_uop_banks = [false; 2];
        self.delivered_uop = false;
        self.delivered_decode = false;
        self.deliver_blocked = None;
        if self.skew_invariant && self.measuring && !self.skew_applied {
            // Fault injection: perturb one statistic at the start of the
            // measurement window, so the determinism auditor's digest
            // stream visibly diverges from a clean run at this interval
            // (the end-of-run accounting skew alone never touches the
            // serialized state).
            self.stats.mode_switches += 1;
            self.skew_applied = true;
        }
        self.process_resolutions();
        self.commit_stage();
        self.dispatch_stage();
        self.fetch_schedule_stage();
        self.deliver_stage();
        self.ucp_stage();
        self.agen_stage();
        self.l1i_prefetch_stage();
        self.tele.accounting.charge(self.classify_cycle());
        self.tele.ftq_occupancy.observe(self.ftq.len() as u64);
        self.now += 1;
        if let Some(s) = self.sampler.as_mut() {
            s.tick(self.now, &self.tele.handle.registry);
        }
        // Livelock detection lives in the run loops (`hang_check`), which
        // report a structured `SimError::Hang` instead of asserting here.
    }

    /// Attributes the cycle that just executed to one [`CycleCause`],
    /// applying the precedence order documented in
    /// `ucp_telemetry::accounting`: delivery beats every stall, then the
    /// most specific recorded blocker wins.
    fn classify_cycle(&self) -> CycleCause {
        if self.delivered_uop {
            return CycleCause::DeliverUop;
        }
        if self.delivered_decode {
            return CycleCause::DeliverDecode;
        }
        if self.now < self.fetch_stall_until {
            // Covers both an in-progress mode-switch penalty window and
            // the cycle the switch itself was taken.
            return CycleCause::ModeSwitch;
        }
        if let Some(cause) = self.deliver_blocked {
            return cause;
        }
        if self.ftq.is_empty() {
            if self.agen_dead {
                // No-target indirect/return: the frontend drains until
                // the branch executes and redirects.
                return CycleCause::Drained;
            }
            if self.now < self.agen_stall_until {
                // Either a BTB-miss re-steer bubble or a flush-redirect
                // penalty; `agen_stall_kind` remembers which stalled us.
                return self.agen_stall_kind;
            }
            return CycleCause::FtqEmpty;
        }
        CycleCause::Drained
    }

    // ------------------------------------------------------------------
    // Resolution & flush
    // ------------------------------------------------------------------

    fn process_resolutions(&mut self) {
        // Lazily drop ids of records that resolved without a flush.
        self.records.pop_resolved();
        while let Some(&std::cmp::Reverse((t, id))) = self.resolve_q.peek() {
            if t > self.now {
                break;
            }
            self.resolve_q.pop();
            self.resolve(id);
        }
    }

    fn resolve(&mut self, id: u64) {
        let Some(rec) = self.records.take(id) else {
            return; // already freed by an older flush
        };
        debug_assert!(rec.pos.is_some(), "wrong-path records never resolve");
        // Train predictors with the architectural outcome.
        match rec.kind {
            RecKind::Cond => {
                if let Some(scl) = &rec.scl {
                    self.bp.update(rec.pc, scl, rec.actual_taken);
                    if self.measuring {
                        self.stats.cond_branches += 1;
                        self.stats.cond_mispredicts += u64::from(rec.mispredicted);
                        self.stats.record_provider(
                            scl.provider,
                            scl.confidence_value(),
                            rec.mispredicted,
                        );
                        self.stats.h2p_tage.marked += u64::from(rec.h2p_tage);
                        self.stats.h2p_ucp.marked += u64::from(rec.h2p_ucp);
                        if rec.mispredicted {
                            self.stats.h2p_tage.mispredicted += 1;
                            self.stats.h2p_ucp.mispredicted += 1;
                            self.stats.h2p_tage.marked_mispredicted += u64::from(rec.h2p_tage);
                            self.stats.h2p_ucp.marked_mispredicted += u64::from(rec.h2p_ucp);
                        }
                    }
                }
                if rec.actual_taken {
                    // Keep the BTB's taken target fresh (and allocate
                    // never-taken-before branches).
                    self.btb
                        .insert(rec.pc, rec.actual_next, BranchClass::CondDirect);
                }
            }
            RecKind::Indirect { is_call } => {
                if let Some(itt) = &rec.itt {
                    self.ittage.update(rec.pc, itt, rec.actual_next);
                }
                self.btb.insert(
                    rec.pc,
                    rec.actual_next,
                    if is_call {
                        BranchClass::IndirectCall
                    } else {
                        BranchClass::IndirectJump
                    },
                );
                if self.measuring && rec.mispredicted && !rec.no_target {
                    self.stats.indirect_mispredicts += 1;
                }
            }
            RecKind::Return => {
                if self.measuring && rec.mispredicted {
                    self.stats.indirect_mispredicts += 1;
                }
            }
        }
        if rec.mispredicted {
            self.do_flush(&rec, id);
        }
        // Alt-BP trains after the flush, which closes its wrong-path
        // window: inside one, a training snapshots Alt-BP for the window's
        // lazy records (DESIGN.md §11), and the flush discards them all.
        if let Some(ucp) = self.ucp.as_mut() {
            if let AltPred::Eager(alt) = &rec.alt_scl {
                ucp.train_cond(rec.pc, alt, rec.actual_taken);
            }
            if let Some(alt) = &rec.alt_itt {
                ucp.train_indirect(rec.pc, alt, rec.actual_next);
            }
        }
    }

    fn do_flush(&mut self, rec: &PredRecord, rec_id: u64) {
        let pos = rec.pos.expect("flush on a correct-path record");
        self.tele.flushes.inc();
        self.tele
            .handle
            .tracer
            .emit(Category::Pipeline, "flush", || {
                format!(
                    "pc={:#x} kind={:?} next={:#x}",
                    rec.pc.raw(),
                    rec.kind,
                    rec.actual_next.raw()
                )
            });
        // Restore speculative state to just before this branch, then apply
        // the architectural outcome.
        let transferred = rec.actual_next != rec.pc.next_inst() || rec.kind != RecKind::Cond;
        if let Some(ucp) = self.ucp.as_mut() {
            ucp.on_flush(
                &self.bp_hist,
                &self.it_hist,
                &rec.cp_bp,
                &rec.cp_it,
                (rec.kind == RecKind::Cond).then_some(rec.actual_taken),
                transferred.then_some(rec.actual_next),
            );
        }
        self.bp_hist.restore(&rec.cp_bp);
        self.it_hist.restore(&rec.cp_it);
        self.ras.restore(&rec.cp_ras);
        if rec.kind == RecKind::Cond {
            self.bp_hist.push(rec.actual_taken);
        }
        if transferred {
            push_target_history(&mut self.it_hist, rec.actual_next);
        }
        match rec.kind {
            RecKind::Indirect { is_call: true } => self.ras.push(rec.pc.next_inst()),
            RecKind::Return => {
                let _ = self.ras.pop();
            }
            _ => {}
        }
        // Free the flushed record's slot and every younger record.
        self.records.truncate_from(rec_id);
        self.ftq.clear();
        self.uopq.clear();
        self.head_delivered = 0;
        self.agen_pc = rec.actual_next;
        self.agen_pos = Some(pos + 1);
        self.agen_dead = false;
        self.pending_mispredict = None;
        self.agen_stall_until = self.now + self.cfg.frontend.redirect_penalty;
        self.agen_stall_kind = CycleCause::Drained;
        self.prefetcher.on_redirect();
        if rec.kind == RecKind::Cond {
            if let Some(n) = self.cfg.ideal_brcond {
                self.ideal_brcond_left = n;
            }
            if let Some(mrc) = self.mrc.as_mut() {
                if let Some(uops) = mrc.lookup(rec.actual_next) {
                    self.mrc_stream_left = uops;
                    if self.measuring {
                        self.stats.mrc_streamed_uops += u64::from(uops);
                    }
                }
                mrc.allocate(rec.actual_next);
                self.mrc_filling = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit & dispatch
    // ------------------------------------------------------------------

    fn commit_stage(&mut self) {
        if self.hang_injected {
            // Fault injection: retirement is wedged; the watchdog must
            // notice and raise `SimError::Hang`.
            return;
        }
        let retired = self.backend.commit(self.now, self.stream_base);
        for _ in 0..retired {
            self.last_retired_pc = Some(self.stream[0].pc);
            self.stream.pop_front();
            self.stream_base += 1;
            self.committed += 1;
            if self.mrc_filling {
                if let Some(mrc) = self.mrc.as_mut() {
                    mrc.fill_uop();
                }
            }
        }
        if retired > 0 {
            self.tele.committed.add(retired as u64);
            self.last_commit_cycle = self.now;
        }
    }

    fn dispatch_stage(&mut self) {
        let mut budget = self.cfg.frontend.dispatch_width;
        while budget > 0 {
            let Some(e) = self.uopq.front().copied() else {
                break;
            };
            if e.ready > self.now {
                break;
            }
            let Some(pos) = e.pos else {
                // Wrong-path µ-op: squashed at dispatch.
                self.uopq.pop();
                budget -= 1;
                continue;
            };
            if !self.backend.has_space() {
                break;
            }
            let d = self.oracle_at(pos);
            let mem_ready = match d.inst.kind {
                InstKind::Load => match self.hier.access_data(d.mem_addr, self.now + 1, false) {
                    Ok(a) => Some(a.ready),
                    Err(_) => break, // L1D MSHR full: retry next cycle
                },
                InstKind::Store => {
                    // Stores update cache state in the background.
                    let _ = self.hier.access_data(d.mem_addr, self.now + 1, true);
                    None
                }
                _ => None,
            };
            let complete = self.backend.dispatch(self.now, &d, pos, mem_ready, e.rec);
            if let Some(rec) = e.rec {
                self.resolve_q.push(std::cmp::Reverse((complete, rec)));
            }
            self.uopq.pop();
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch scheduling (FDP run-ahead) and delivery
    // ------------------------------------------------------------------

    /// Issues L1I fetches for FTQ blocks ahead of delivery — this is what
    /// makes the frontend *decoupled*: L1I misses (including wrong-path
    /// ones) overlap, and the standalone prefetcher observes the stream.
    #[allow(clippy::explicit_counter_loop)] // `scanned` caps work, `i` indexes
    fn fetch_schedule_stage(&mut self) {
        let mut issued = 0;
        let mut scanned = 0;
        for i in 0..self.ftq.len() {
            if issued >= self.cfg.frontend.l1i_fetches_per_cycle || scanned >= 8 {
                break;
            }
            let Some(blk) = self.ftq.get(i).copied() else {
                break;
            };
            scanned += 1;
            if blk.fetch_ready.is_some() {
                continue;
            }
            // Blocks already resident in the µ-op cache skip the L1I.
            if !self.uop_ideal {
                if let Some(uc) = &self.uop_cache {
                    if uc.probe(blk.start) {
                        self.demand_uop_banks[uc.bank_of(blk.start)] = true;
                        if let Some(b) = self.ftq.get_mut(i) {
                            b.fetch_ready = Some(self.now);
                        }
                        continue;
                    }
                }
            } else {
                if let Some(b) = self.ftq.get_mut(i) {
                    b.fetch_ready = Some(self.now);
                }
                continue;
            }
            match self.hier.access_inst(blk.start, self.now, false) {
                Ok(acc) => {
                    self.prefetcher
                        .on_access(blk.start.line(), acc.level == HitLevel::L1);
                    if let Some(b) = self.ftq.get_mut(i) {
                        b.fetch_ready = Some(acc.ready);
                    }
                    issued += 1;
                }
                Err(_) => break, // MSHR full
            }
        }
    }

    /// `true` if the head block should be treated as a µ-op cache hit.
    fn head_block_hits(&mut self, blk: &FetchBlock) -> (bool, bool, u64) {
        // Returns (hit, counts_as_forced, trigger_of_prefetched_entry).
        if self.uop_ideal {
            return (true, true, 0);
        }
        if self.ideal_brcond_left > 0 || self.mrc_stream_left > 0 {
            return (true, true, 0);
        }
        if let Some(uc) = self.uop_cache.as_mut() {
            self.demand_uop_banks[uc.bank_of(blk.start)] = true;
            if self.measuring {
                self.stats.uop_lookups += 1;
            }
            if let Some(hit) = uc.lookup(blk.start) {
                if hit.num_uops >= blk.n {
                    if self.measuring {
                        self.stats.uop_hits += 1;
                    }
                    let trig = if hit.first_prefetch_use {
                        hit.trigger
                    } else {
                        0
                    };
                    return (true, false, trig);
                }
            }
            if self.cfg.l1i_hits_ideal && self.hier.probe_l1i(blk.start) {
                return (true, true, 0);
            }
            (false, false, 0)
        } else {
            (false, false, 0)
        }
    }

    fn deliver_block_uops(&mut self, blk: FetchBlock, ready: u64, from_cache: bool) -> bool {
        // Room check first: a block is delivered atomically.
        if self.uopq.free() < blk.n as usize {
            self.deliver_blocked = Some(CycleCause::BackendFull);
            return false;
        }
        for i in 0..blk.n {
            let pos = if i < blk.diverge_at {
                blk.pos.map(|p| p + u64::from(i))
            } else {
                None
            };
            let rec = blk.rec_at(i);
            self.uopq
                .push(UopQEntry { pos, ready, rec })
                .expect("room checked above");
        }
        if from_cache {
            self.delivered_uop = true;
        } else {
            self.delivered_decode = true;
        }
        if self.measuring {
            if from_cache {
                self.stats.uops_from_uop_cache += u64::from(blk.n);
            } else {
                self.stats.uops_from_decode += u64::from(blk.n);
            }
        }
        true
    }

    fn switch_mode(&mut self, to: Mode) {
        self.mode = to;
        self.consec_uop_hits = 0;
        self.fetch_stall_until = self.now + 1 + self.cfg.frontend.mode_switch_penalty;
        if self.measuring {
            self.stats.mode_switches += 1;
        }
        self.tele.mode_switches.inc();
        self.tele
            .handle
            .tracer
            .emit(Category::Frontend, "mode_switch", || format!("to={to:?}"));
    }

    fn deliver_stage(&mut self) {
        if self.now < self.fetch_stall_until {
            return;
        }
        let mut cache_uops = self.cfg.frontend.uops_from_cache_per_cycle;
        let mut decode_uops = self.cfg.frontend.decode_width;
        let mut windows = self.cfg.frontend.windows_per_cycle;
        let has_uop_path = self.uop_ideal || self.uop_cache.is_some();
        #[allow(clippy::while_let_loop)] // body also breaks mid-iteration
        loop {
            let Some(blk) = self.ftq.front().copied() else {
                break;
            };
            match self.mode {
                Mode::Stream => {
                    if windows == 0 || cache_uops < u32::from(blk.n) {
                        break;
                    }
                    let (hit, forced, trig) = self.head_block_hits(&blk);
                    if hit {
                        if !self.deliver_block_uops(
                            blk,
                            self.now + self.cfg.frontend.uop_path_delay,
                            true,
                        ) {
                            break;
                        }
                        if trig != 0 {
                            if let Some(ucp) = self.ucp.as_mut() {
                                ucp.record_entry_use(trig);
                            }
                        }
                        if forced {
                            self.consume_forced(&blk);
                        }
                        self.ftq.pop();
                        windows -= 1;
                        cache_uops -= u32::from(blk.n);
                        continue;
                    }
                    self.switch_mode(Mode::Build);
                    break;
                }
                Mode::Build => {
                    // Parallel µ-op cache probe at block starts.
                    if has_uop_path
                        && self.head_delivered == 0
                        && windows > 0
                        && cache_uops >= u32::from(blk.n)
                    {
                        let (hit, forced, trig) = self.head_block_hits(&blk);
                        if hit {
                            if !self.deliver_block_uops(
                                blk,
                                self.now + self.cfg.frontend.uop_path_delay,
                                true,
                            ) {
                                break;
                            }
                            if trig != 0 {
                                if let Some(ucp) = self.ucp.as_mut() {
                                    ucp.record_entry_use(trig);
                                }
                            }
                            if forced {
                                self.consume_forced(&blk);
                            }
                            self.ftq.pop();
                            windows -= 1;
                            cache_uops -= u32::from(blk.n);
                            self.consec_uop_hits += 1;
                            if self.consec_uop_hits >= self.cfg.frontend.stream_switch_hits {
                                self.switch_mode(Mode::Stream);
                                break;
                            }
                            continue;
                        }
                    }
                    // Decode (slow) path.
                    self.consec_uop_hits = 0;
                    let ready = match blk.fetch_ready {
                        Some(r) => r,
                        None => match self.hier.access_inst(blk.start, self.now, false) {
                            Ok(acc) => {
                                self.prefetcher
                                    .on_access(blk.start.line(), acc.level == HitLevel::L1);
                                if let Some(b) = self.ftq.front_mut() {
                                    b.fetch_ready = Some(acc.ready);
                                }
                                acc.ready
                            }
                            Err(_) => {
                                // L1I MSHR full: the instruction fetch
                                // itself cannot even be issued.
                                self.deliver_blocked = Some(CycleCause::L1iMiss);
                                break;
                            }
                        },
                    };
                    if ready > self.now {
                        self.deliver_blocked = Some(CycleCause::L1iMiss);
                        break;
                    }
                    let remaining = blk.n - self.head_delivered;
                    let take = (remaining as u32).min(decode_uops) as u8;
                    if take == 0 {
                        break;
                    }
                    // Deliver `take` µ-ops of the head block.
                    if self.uopq.free() < take as usize {
                        self.deliver_blocked = Some(CycleCause::BackendFull);
                        break;
                    }
                    let base_ready = self.now + self.cfg.frontend.decode_path_delay;
                    for k in 0..take {
                        let i = self.head_delivered + k;
                        let pos = if i < blk.diverge_at {
                            blk.pos.map(|p| p + u64::from(i))
                        } else {
                            None
                        };
                        let rec = blk.rec_at(i);
                        self.uopq
                            .push(UopQEntry {
                                pos,
                                ready: base_ready,
                                rec,
                            })
                            .expect("room checked");
                    }
                    self.delivered_decode = true;
                    if self.measuring {
                        self.stats.uops_from_decode += u64::from(take);
                    }
                    decode_uops -= u32::from(take);
                    self.head_delivered += take;
                    if self.head_delivered == blk.n {
                        // Block fully decoded: build µ-op cache entries.
                        if let Some(uc) = self.uop_cache.as_mut() {
                            for spec in build_entries(self.prog, blk.start, blk.n, false, 0)
                                .into_iter()
                                .flatten()
                            {
                                uc.insert(spec);
                            }
                        }
                        self.consume_forced(&blk);
                        self.ftq.pop();
                        self.head_delivered = 0;
                    }
                    if decode_uops == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// Decrements the IdealBRCond / MRC forced-hit allowances by the
    /// contents of a delivered block.
    fn consume_forced(&mut self, blk: &FetchBlock) {
        if self.ideal_brcond_left > 0 {
            self.ideal_brcond_left = self.ideal_brcond_left.saturating_sub(u32::from(blk.n_cond));
        }
        if self.mrc_stream_left > 0 {
            self.mrc_stream_left = self.mrc_stream_left.saturating_sub(u32::from(blk.n));
        }
    }

    // ------------------------------------------------------------------
    // UCP engine
    // ------------------------------------------------------------------

    fn ucp_stage(&mut self) {
        let Some(ucp) = self.ucp.as_mut() else {
            return;
        };
        let out = ucp.cycle(
            self.now,
            self.prog,
            &self.btb,
            self.uop_cache.as_mut(),
            &mut self.hier,
            self.demand_uop_banks,
            self.demand_btb_banks,
            self.mode == Mode::Stream,
        );
        if out.demand_window_steal {
            self.agen_window_penalty = 1;
        }
    }

    // ------------------------------------------------------------------
    // Address generation (the BPU of Fig. 1)
    // ------------------------------------------------------------------

    fn agen_stage(&mut self) {
        self.demand_btb_banks = 0;
        if self.now < self.agen_stall_until || self.agen_dead {
            return;
        }
        let mut windows = self.cfg.frontend.windows_per_cycle;
        if self.agen_window_penalty > 0 {
            windows = windows.saturating_sub(self.agen_window_penalty);
            self.agen_window_penalty = 0;
        }
        for _ in 0..windows {
            if self.ftq.is_full() || self.agen_dead || self.now < self.agen_stall_until {
                break;
            }
            if let Some(blk) = self.gen_block() {
                let _ = self.ftq.push(blk);
            } else {
                break;
            }
        }
    }

    /// Generates one fetch block along the current (predicted) path.
    fn gen_block(&mut self) -> Option<FetchBlock> {
        let start = self.agen_pc;
        let window_end = Addr::new(start.uop_window().raw() + 32);
        let pos0 = self.agen_pos;
        let mut pc = start;
        let mut cur_pos = pos0;
        let mut n: u8 = 0;
        let mut n_cond: u8 = 0;
        let mut diverge_at = u8::MAX;
        // `next` is definitely assigned on every loop exit path.
        let next;
        let mut recs = [(0u8, 0u64); MAX_BLOCK_RECS];
        let mut n_recs: u8 = 0;

        loop {
            if pc == window_end || n == 8 {
                next = pc;
                break;
            }
            let Some(inst) = self.prog.inst_at(pc) else {
                // Wrong path walked off the code image: nothing to fetch.
                self.agen_dead = true;
                next = pc;
                break;
            };
            let Some(class) = inst.kind.branch_class() else {
                n += 1;
                pc = pc.next_inst();
                if let Some(p) = cur_pos {
                    cur_pos = Some(p + 1);
                }
                continue;
            };
            // Branch: make sure we can attach a record if one is needed.
            let needs_record = !matches!(class, BranchClass::UncondDirect | BranchClass::Call);
            if needs_record && n_recs as usize == MAX_BLOCK_RECS {
                next = pc;
                break;
            }
            let offset = n;
            n += 1;
            n_cond += u8::from(class == BranchClass::CondDirect);
            self.demand_btb_banks |= 1u64 << (self.btb.bank_of(pc) as u64 % 64);
            let btb_entry = self.btb.lookup(pc);

            // BTB-miss re-steer modelling (discovered at predecode): charge
            // the re-steer bubble for taken control flow.
            let btb_missed = btb_entry.is_none();

            // Checkpoints before any speculative update for this branch.
            let cp_bp = self.bp_hist.checkpoint();
            let cp_it = self.it_hist.checkpoint();
            let cp_ras = self.ras.checkpoint();

            let (
                predicted_taken,
                predicted_next,
                kind,
                scl,
                itt,
                alt_scl,
                alt_itt,
                h2p_t,
                h2p_u,
                no_target,
            );
            match class {
                BranchClass::CondDirect => {
                    let target = inst.kind.direct_target().expect("cond direct");
                    let p = self.bp.predict(&self.bp_hist, pc);
                    let h2p_tage_f = TageConf.is_h2p(&p);
                    let h2p_ucp_f = UcpConf.is_h2p(&p);
                    // UCP trigger happens before the mirror push (the
                    // alternate GHR starts from the pre-branch state).
                    let mut a_scl = AltPred::Absent;
                    if let Some(ucp) = self.ucp.as_mut() {
                        // Trigger only on the demand path the paper's
                        // model fetches: ChampSim's frontend stops at an
                        // unresolved misprediction, so wrong-path H2P
                        // branches never preempt a live walk there.
                        if cur_pos.is_some() && ucp.is_h2p(&p) {
                            let alt_target = if p.taken {
                                pc.next_inst()
                            } else {
                                btb_entry.map(|e| e.target).unwrap_or(target)
                            };
                            ucp.trigger(alt_target, p.taken, &self.ras);
                        }
                        a_scl = ucp.on_cond_predicted(pc, p.taken, cur_pos.is_none());
                    }
                    self.bp_hist.push(p.taken);
                    predicted_taken = p.taken;
                    predicted_next = if p.taken { target } else { pc.next_inst() };
                    if p.taken {
                        push_target_history(&mut self.it_hist, target);
                        if let Some(ucp) = self.ucp.as_mut() {
                            ucp.on_taken_target(target);
                        }
                        if btb_missed {
                            self.charge_resteer();
                            self.btb.insert(pc, target, class);
                        }
                    }
                    kind = RecKind::Cond;
                    scl = Some(p);
                    itt = None;
                    alt_scl = a_scl;
                    alt_itt = None;
                    h2p_t = h2p_tage_f;
                    h2p_u = h2p_ucp_f;
                    no_target = false;
                }
                BranchClass::UncondDirect | BranchClass::Call => {
                    let target = inst.kind.direct_target().expect("direct");
                    if class == BranchClass::Call {
                        self.ras.push(pc.next_inst());
                    }
                    push_target_history(&mut self.it_hist, target);
                    if let Some(ucp) = self.ucp.as_mut() {
                        ucp.on_taken_target(target);
                    }
                    if btb_missed {
                        self.charge_resteer();
                        self.btb.insert(pc, target, class);
                    }
                    // Direct unconditional flow cannot mispredict: no record.
                    next = target;
                    if let Some(p) = cur_pos {
                        // Verify against the oracle (must always match).
                        let d = self.oracle_at(p);
                        debug_assert_eq!(d.pc, pc, "agen desynchronized from the oracle");
                        debug_assert_eq!(d.next_pc, target);
                    }
                    self.agen_pos = if diverge_at != u8::MAX {
                        None
                    } else {
                        cur_pos.map(|p| p + 1)
                    };
                    self.agen_pc = next;
                    return Some(FetchBlock {
                        start,
                        n,
                        n_cond,
                        pos: pos0,
                        diverge_at,
                        fetch_ready: None,
                        recs,
                        n_recs,
                    });
                }
                BranchClass::Return => {
                    let ras_target = self.ras.pop();
                    let fallback = btb_entry.map(|e| e.target).filter(|t| !t.is_null());
                    let t = ras_target.or(fallback);
                    if btb_missed {
                        self.charge_resteer();
                        self.btb.insert(pc, t.unwrap_or(Addr::NULL), class);
                    }
                    match t {
                        Some(t) => {
                            predicted_taken = true;
                            predicted_next = t;
                            push_target_history(&mut self.it_hist, t);
                            if let Some(ucp) = self.ucp.as_mut() {
                                ucp.on_taken_target(t);
                            }
                            no_target = false;
                        }
                        None => {
                            predicted_taken = true;
                            predicted_next = Addr::NULL;
                            no_target = true;
                        }
                    }
                    kind = RecKind::Return;
                    scl = None;
                    itt = None;
                    alt_scl = AltPred::Absent;
                    alt_itt = None;
                    h2p_t = false;
                    h2p_u = false;
                }
                BranchClass::IndirectJump | BranchClass::IndirectCall => {
                    let is_call = class == BranchClass::IndirectCall;
                    let p = self.ittage.predict(&self.it_hist, pc);
                    let fallback = btb_entry.map(|e| e.target).filter(|t| !t.is_null());
                    let t = p.target.or(fallback);
                    if btb_missed {
                        self.charge_resteer();
                    }
                    let mut a_itt = None;
                    match t {
                        Some(t) => {
                            if is_call {
                                self.ras.push(pc.next_inst());
                            }
                            if let Some(ucp) = self.ucp.as_mut() {
                                a_itt = ucp.on_indirect_predicted(pc, t);
                            }
                            push_target_history(&mut self.it_hist, t);
                            predicted_taken = true;
                            predicted_next = t;
                            no_target = false;
                        }
                        None => {
                            predicted_taken = true;
                            predicted_next = Addr::NULL;
                            no_target = true;
                        }
                    }
                    kind = RecKind::Indirect { is_call };
                    scl = None;
                    itt = Some(p);
                    alt_scl = AltPred::Absent;
                    alt_itt = a_itt;
                    h2p_t = false;
                    h2p_u = false;
                }
            }

            // Oracle comparison (only meaningful on the correct path).
            let (actual_taken, actual_next, mispredicted) = match cur_pos {
                Some(p) => {
                    let d = self.oracle_at(p);
                    let mis = no_target || d.next_pc != predicted_next;
                    (d.taken, d.next_pc, mis)
                }
                None => (predicted_taken, predicted_next, false),
            };

            let id = self.records.push(PredRecord {
                pc,
                kind,
                pos: cur_pos,
                actual_taken,
                actual_next,
                mispredicted,
                no_target,
                cp_bp,
                cp_it,
                cp_ras,
                scl,
                itt,
                alt_scl,
                alt_itt,
                h2p_tage: h2p_t,
                h2p_ucp: h2p_u,
            });
            recs[n_recs as usize] = (offset, id);
            n_recs += 1;

            if mispredicted && self.pending_mispredict.is_none() {
                self.pending_mispredict = Some(id);
                if no_target {
                    if self.measuring {
                        self.stats.btb_resteers += 1;
                    }
                    self.tele.resteers.inc();
                }
            }

            if no_target {
                // Cannot continue without a target: fetch stalls until the
                // branch executes (resolution redirects).
                self.agen_dead = true;
                pc = pc.next_inst();
                next = pc;
                break;
            }

            // Advance the walk along the predicted path.
            let was_on_correct = cur_pos.is_some();
            if was_on_correct && mispredicted {
                // Everything after this instruction is wrong-path.
                if diverge_at == u8::MAX {
                    diverge_at = n;
                }
                cur_pos = None;
            } else if let Some(p) = cur_pos {
                cur_pos = Some(p + 1);
            }

            pc = pc.next_inst();
            if predicted_taken {
                next = predicted_next;
                break;
            }
        }

        self.agen_pc = next;
        self.agen_pos = if diverge_at != u8::MAX { None } else { cur_pos };
        if n == 0 {
            return None;
        }
        Some(FetchBlock {
            start,
            n,
            n_cond,
            pos: pos0,
            diverge_at,
            fetch_ready: None,
            recs,
            n_recs,
        })
    }

    fn charge_resteer(&mut self) {
        self.agen_stall_until =
            (self.now + self.cfg.frontend.btb_resteer_penalty).max(self.agen_stall_until);
        self.agen_stall_kind = CycleCause::Resteer;
        if self.measuring {
            self.stats.btb_resteers += 1;
        }
        self.tele.resteers.inc();
        self.tele
            .handle
            .tracer
            .emit(Category::Frontend, "btb_resteer", String::new);
    }

    // ------------------------------------------------------------------
    // Standalone L1I prefetcher queue
    // ------------------------------------------------------------------

    fn l1i_prefetch_stage(&mut self) {
        self.prefetcher.drain(&mut self.prefetch_drain);
        for line in self.prefetch_drain.drain(..) {
            let _ = self.prefetch_pq.push(line);
        }
        if let Some(&line) = self.prefetch_pq.front() {
            if self.hier.probe_l1i(line) {
                self.prefetch_pq.pop();
            } else if self.hier.access_inst(line, self.now, true).is_ok() {
                self.prefetch_pq.pop();
                if self.measuring {
                    self.stats.l1i_prefetches_issued += 1;
                }
                self.tele.l1i_prefetches.inc();
                self.tele
                    .handle
                    .tracer
                    .emit(Category::Prefetch, "l1i_issue", || {
                        format!("line={:#x}", line.raw())
                    });
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore and the determinism auditor
    // ------------------------------------------------------------------

    /// Arms checkpointing for this run as `knobs` ask (`UCP_CKPT` under
    /// `UCP_CKPT_DIR`; a no-op when off) and, when a valid checkpoint of
    /// the *same trajectory* (workload, seed, config, run lengths, the
    /// sampler's interval) exists on disk, restores the newest one
    /// instead of re-simulating from cycle zero. Returns the
    /// committed-instruction count resumed from, if any. The knobs' fault
    /// plan arms the `torn_write` and `kill` sites on every checkpoint
    /// write.
    pub fn arm_checkpointing(
        &mut self,
        spec: &WorkloadSpec,
        warmup: u64,
        measure: u64,
        knobs: &Knobs,
    ) -> Option<u64> {
        let policy = knobs.ckpt?;
        let spec_json = serde_json::to_string(spec).expect("workload spec serializes");
        let cfg_json = serde_json::to_string(&self.cfg).expect("sim config serializes");
        let interval = self.sampler.as_ref().map_or(0, IntervalSampler::every);
        let slug = run_slug(&spec.name, spec.seed, &cfg_json, warmup, measure, interval);
        let dir = knobs.ckpt_dir.join(slug);
        let mut resumed = None;
        if let Some((meta, state)) = latest_valid_checkpoint(&dir) {
            // The slug already keys the directory by trajectory; verify
            // anyway — a slug collision must not resume a foreign machine.
            if meta.spec_json == spec_json && meta.cfg_json == cfg_json && meta.seed == spec.seed {
                self.restore_from_bytes(&state);
                self.last_ckpt_committed = meta.committed;
                eprintln!(
                    "[ucp-ckpt] resuming {} (seed {}) at {} committed instructions",
                    spec.name, spec.seed, meta.committed
                );
                resumed = Some(meta.committed);
            } else {
                eprintln!(
                    "[ucp-ckpt] ignoring checkpoint for a different run in {}",
                    dir.display()
                );
            }
        }
        self.ckpt = Some(CkptSink {
            dir,
            every: policy.every,
            keep: policy.keep,
            workload: spec.name.clone(),
            spec_json,
            cfg_json,
            seed: spec.seed,
            warmup,
            measure,
            fault: knobs.fault.clone(),
        });
        resumed
    }

    /// Drops this run's checkpoints (a completed run can never be resumed
    /// again) and disarms the writer.
    pub fn finish_checkpointing(&mut self) {
        if let Some(sink) = self.ckpt.take() {
            remove_run_checkpoints(&sink.dir);
        }
    }

    /// Writes a checkpoint if the armed cadence says one is due.
    fn maybe_checkpoint(&mut self) -> Result<(), SimError> {
        let Some(every) = self.ckpt.as_ref().map(|s| s.every) else {
            return Ok(());
        };
        if self.committed < self.last_ckpt_committed + every {
            return Ok(());
        }
        let mut w = StateWriter::new();
        self.save_state(&mut w);
        let state = w.into_bytes();
        let sink = self.ckpt.as_ref().expect("checkpoint sink armed");
        let meta = CheckpointMeta {
            version: CKPT_VERSION,
            workload: sink.workload.clone(),
            spec_json: sink.spec_json.clone(),
            cfg_json: sink.cfg_json.clone(),
            seed: sink.seed,
            warmup: sink.warmup,
            measure: sink.measure,
            committed: self.committed,
            cycle: self.now,
            digest: fnv1a64(&state),
        };
        write_checkpoint(&sink.dir, &meta, &state, sink.keep, sink.fault.as_deref())?;
        // Fault injection (`UCP_FAULT=kill:<nth>`): die right after the
        // nth checkpoint write lands — the canonical mid-run kill the
        // resume path must recover from. The write above is atomic and
        // complete, so the checkpoint left behind is intact.
        let killed = sink.fault.as_deref().is_some_and(|p| p.should_fire("kill"));
        self.last_ckpt_committed = self.committed;
        if killed {
            panic!(
                "injected fault: killed after checkpoint at {} committed instructions",
                self.committed
            );
        }
        Ok(())
    }

    /// Records a determinism-auditor digest if the cadence says one is
    /// due. Retirement advances up to a commit width per cycle, so the
    /// threshold tracker jumps past every boundary the cycle crossed —
    /// one sample per crossing cycle, deterministically placed.
    fn maybe_digest(&mut self) {
        let Some(every) = self.digest_every else {
            return;
        };
        if self.committed < self.last_digest_committed + every {
            return;
        }
        while self.committed >= self.last_digest_committed + every {
            self.last_digest_committed += every;
        }
        let digest = self.state_digest();
        self.digests.push(DigestRecord {
            committed: self.committed,
            cycle: self.now,
            digest,
        });
    }

    /// FNV-1a digest of the complete serialized machine state, folded
    /// as it is serialized: no buffer holds the bytes.
    pub fn state_digest(&self) -> u64 {
        let mut w = StateWriter::hasher();
        self.save_state(&mut w);
        w.digest()
    }

    /// The determinism auditor's digest samples so far.
    pub fn digests(&self) -> &[DigestRecord] {
        &self.digests
    }

    /// Replaces the digest cadence (`UCP_DIGEST`'s by default). `None`
    /// disables the determinism auditor.
    pub fn set_digest_interval(&mut self, every: Option<u64>) {
        self.digest_every = every;
    }

    /// Instructions committed so far (whole run, not the window).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Runs cycles until `target` committed instructions (whole-run
    /// count), opening the measurement window at the `warmup` boundary
    /// exactly as [`Simulator::run_full`] would, but never closing it —
    /// the divergence bisector's replay primitive. No checkpoints are
    /// written.
    ///
    /// # Errors
    ///
    /// [`SimError::Hang`] when the watchdog expires.
    pub fn run_to_committed(&mut self, target: u64, warmup: u64) -> Result<(), SimError> {
        while self.committed < target {
            if self.committed >= warmup && !self.measuring {
                self.begin_measurement();
            }
            self.hang_check()?;
            self.cycle();
            self.maybe_digest();
        }
        Ok(())
    }

    /// Restores the machine from raw checkpoint state bytes.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not describe a machine built from the same
    /// workload and configuration (geometry asserts), or are truncated or
    /// corrupt (the integrity envelope normally rejects those first).
    pub fn restore_from_bytes(&mut self, state: &[u8]) {
        let mut r = StateReader::new(state);
        self.restore_state(&mut r);
        r.finish();
    }

    /// Serializes the complete mutable machine state (the [`State`]
    /// impl below, callable without importing the trait).
    pub fn save_state(&self, w: &mut StateWriter) {
        State::save_state(self, w);
    }
}

/// A serde value as one length-prefixed JSON string.
fn save_json<T: Serialize>(v: &T, w: &mut StateWriter) {
    w.put_str(&serde_json::to_string(v).expect("checkpoint JSON section serializes"));
}

fn restore_json<T: Deserialize>(r: &mut StateReader, what: &str) -> T {
    serde_json::from_str(r.get_str())
        .unwrap_or_else(|e| panic!("checkpoint state corrupt: {what} does not parse: {e:?}"))
}

sim_isa::state_enum!(Mode { 0 => Stream, 1 => Build });
sim_isa::state_enum!(RecKind {
    0 => Cond,
    1 => Indirect { is_call: false },
    2 => Indirect { is_call: true },
    3 => Return,
});
/// The field-list bytes, hand-written because the history checkpoints
/// hold only a write pointer: the histories they were taken on write and
/// check their folds. With UCP, the mirror histories' checkpoints at the
/// same pointers follow the RAS checkpoint, and the alternate predictions
/// are written in full, Alt-BP's derived if the record holds it lazily.
impl PredRecord {
    /// `ucp` derives lazy predictions, so records must be saved oldest
    /// first.
    fn save_in(
        &self,
        bp_hist: &HistoryState,
        it_hist: &PathHistory,
        ucp: Option<&mut LazyPredictions>,
        w: &mut StateWriter,
    ) {
        let PredRecord {
            pc,
            kind,
            pos,
            actual_taken,
            actual_next,
            mispredicted,
            no_target,
            cp_bp,
            cp_it,
            cp_ras,
            scl,
            itt,
            alt_scl,
            alt_itt,
            h2p_tage,
            h2p_ucp,
        } = self;
        pc.save_state(w);
        kind.save_state(w);
        pos.save_state(w);
        actual_taken.save_state(w);
        actual_next.save_state(w);
        mispredicted.save_state(w);
        no_target.save_state(w);
        bp_hist.save_checkpoint(cp_bp, w);
        it_hist.save_checkpoint(cp_it, w);
        cp_ras.save_state(w);
        w.put_bool(ucp.is_some());
        let alt_scl = match ucp {
            Some(ucp) => {
                ucp.engine().save_checkpoints(cp_bp, cp_it, w);
                ucp.cond(alt_scl, *pc, cp_bp)
            }
            None => None,
        };
        scl.save_state(w);
        itt.save_state(w);
        alt_scl.save_state(w);
        alt_itt.save_state(w);
        h2p_tage.save_state(w);
        h2p_ucp.save_state(w);
    }

    /// Restores what [`PredRecord::save_in`] wrote; the histories and the
    /// UCP engine must already be restored.
    fn restore_in(
        &mut self,
        bp_hist: &HistoryState,
        it_hist: &PathHistory,
        ucp: Option<&UcpEngine>,
        r: &mut StateReader,
    ) {
        let PredRecord {
            pc,
            kind,
            pos,
            actual_taken,
            actual_next,
            mispredicted,
            no_target,
            cp_bp,
            cp_it,
            cp_ras,
            scl,
            itt,
            alt_scl,
            alt_itt,
            h2p_tage,
            h2p_ucp,
        } = self;
        pc.restore_state(r);
        kind.restore_state(r);
        pos.restore_state(r);
        actual_taken.restore_state(r);
        actual_next.restore_state(r);
        mispredicted.restore_state(r);
        no_target.restore_state(r);
        *cp_bp = bp_hist.restore_checkpoint(r);
        *cp_it = it_hist.restore_checkpoint(r);
        cp_ras.restore_state(r);
        assert_eq!(
            r.get_bool(),
            ucp.is_some(),
            "checkpoint state corrupt: UCP mirror checkpoints disagree with the configuration"
        );
        if let Some(ucp) = ucp {
            ucp.restore_checkpoints(cp_bp, cp_it, r);
        }
        scl.restore_state(r);
        itt.restore_state(r);
        let mut a_scl: Option<SclPrediction> = None;
        a_scl.restore_state(r);
        *alt_scl = a_scl.into();
        alt_itt.restore_state(r);
        h2p_tage.restore_state(r);
        h2p_ucp.restore_state(r);
    }
}
sim_isa::state_fields!(FetchBlock {
    start, n, n_cond, pos, diverge_at, fetch_ready, n_recs, recs,
} skip {});
sim_isa::state_fields!(UopQEntry { pos, ready, rec } skip {});

/// The registry baseline goes through serde JSON, like the registry.
impl State for MeasureState {
    fn save_state(&self, w: &mut StateWriter) {
        let MeasureState {
            start_cycle,
            start_committed,
            l1i0,
            ucp0,
            reg0,
        } = self;
        start_cycle.save_state(w);
        start_committed.save_state(w);
        l1i0.save_state(w);
        ucp0.save_state(w);
        save_json(reg0, w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        let MeasureState {
            start_cycle,
            start_committed,
            l1i0,
            ucp0,
            reg0,
        } = self;
        start_cycle.restore_state(r);
        start_committed.restore_state(r);
        l1i0.restore_state(r);
        ucp0.restore_state(r);
        *reg0 = restore_json(r, "registry baseline");
    }
}

/// The whole machine, every component in pipeline order. Hand-written
/// where the bytes are not the field-list shape: the instruction stream
/// keeps only the dynamic fields (instructions are rebuilt from the
/// program), optional components are configuration (asserted, not
/// created), the resolution heap is written sorted (heap order is
/// arbitrary for equal keys), and statistics, registry and sampler go
/// through serde JSON — wide, growing structs whose JSON form already has
/// a stable field order. Geometry, configuration, checkpoint and watchdog
/// arming and per-cycle scratch are never written. Save destructures
/// every field, so a new one does not compile until it is written or
/// named as skipped; restore mirrors save, and the section marks catch a
/// drift. The layout is part of `CKPT_VERSION`: a change that only makes
/// the simulator faster must leave these bytes unchanged.
impl State for Simulator<'_> {
    fn save_state(&self, w: &mut StateWriter) {
        let Simulator {
            cfg: _,
            prog: _,
            oracle,
            stream,
            stream_base,
            now,
            bp,
            bp_hist,
            ittage,
            it_hist,
            btb,
            ras,
            uop_cache,
            uop_ideal: _,
            hier,
            prefetcher,
            prefetch_pq,
            prefetch_drain: _,
            mrc,
            mrc_filling,
            mrc_stream_left,
            ucp,
            agen_pc,
            agen_pos,
            agen_stall_until,
            agen_dead,
            agen_window_penalty,
            pending_mispredict,
            demand_btb_banks,
            ftq,
            uopq,
            mode,
            fetch_stall_until,
            consec_uop_hits,
            head_delivered,
            ideal_brcond_left,
            demand_uop_banks: _,
            records,
            backend,
            resolve_q,
            committed,
            last_commit_cycle,
            last_retired_pc,
            measuring,
            measure_state,
            stats,
            tele,
            sampler,
            ckpt: _,
            last_ckpt_committed: _,
            digest_every: _,
            last_digest_committed,
            digests,
            watchdog: _,
            hang_injected: _,
            skew_invariant: _,
            skew_applied,
            delivered_uop: _,
            delivered_decode: _,
            deliver_blocked: _,
            agen_stall_kind,
        } = self;
        w.mark(0x5349_4d30);
        oracle.save_state(w);
        stream_base.save_state(w);
        stream.len().save_state(w);
        for d in stream {
            d.pc.save_state(w);
            d.next_pc.save_state(w);
            d.taken.save_state(w);
            d.mem_addr.save_state(w);
        }
        now.save_state(w);
        bp.save_state(w);
        bp_hist.save_state(w);
        ittage.save_state(w);
        it_hist.save_state(w);
        btb.save_state(w);
        ras.save_state(w);
        w.mark(0x5349_4d31);
        save_configured(uop_cache.as_ref(), w);
        hier.save_state(w);
        prefetcher.save_state(w);
        prefetch_pq.save_state(w);
        save_configured(mrc.as_ref(), w);
        mrc_filling.save_state(w);
        mrc_stream_left.save_state(w);
        save_configured(ucp.as_ref(), w);
        w.mark(0x5349_4d32);
        agen_pc.save_state(w);
        agen_pos.save_state(w);
        agen_stall_until.save_state(w);
        agen_dead.save_state(w);
        agen_window_penalty.save_state(w);
        pending_mispredict.save_state(w);
        demand_btb_banks.save_state(w);
        agen_stall_kind.save_state(w);
        ftq.save_state(w);
        uopq.save_state(w);
        mode.save_state(w);
        fetch_stall_until.save_state(w);
        consec_uop_hits.save_state(w);
        head_delivered.save_state(w);
        ideal_brcond_left.save_state(w);
        let mut lazy = ucp.as_ref().map(UcpEngine::lazy_predictions);
        records.save_with(w, |rec, w| rec.save_in(bp_hist, it_hist, lazy.as_mut(), w));
        backend.save_state(w);
        let mut rq: Vec<(u64, u64)> = resolve_q.iter().map(|x| x.0).collect();
        rq.sort_unstable();
        rq.save_state(w);
        w.mark(0x5349_4d33);
        committed.save_state(w);
        last_commit_cycle.save_state(w);
        last_retired_pc.save_state(w);
        measuring.save_state(w);
        measure_state.save_state(w);
        save_json(stats, w);
        save_json(&tele.handle.registry.snapshot(), w);
        w.put_bool(sampler.is_some());
        if let Some(s) = sampler {
            save_json(&s.export_state(), w);
        }
        skew_applied.save_state(w);
        last_digest_committed.save_state(w);
        digests.save_state(w);
        w.mark(0x5349_4d34);
    }

    /// # Panics
    ///
    /// Panics on any geometry or configuration mismatch, and on corrupt
    /// or truncated state (the integrity envelope rejects those before
    /// this runs; the suite layer catches the rest at its unwind
    /// boundary).
    fn restore_state(&mut self, r: &mut StateReader) {
        r.check(0x5349_4d30);
        self.oracle.restore_state(r);
        self.stream_base.restore_state(r);
        self.stream.clear();
        for _ in 0..r.get_usize() {
            let pc = r.get_addr();
            let (next_pc, taken, mem_addr) = (r.get_addr(), r.get_bool(), r.get_addr());
            let inst = self
                .prog
                .inst_at(pc)
                .expect("checkpoint stream pc outside the program");
            self.stream.push_back(DynInst {
                pc,
                inst,
                next_pc,
                taken,
                mem_addr,
            });
        }
        self.now.restore_state(r);
        self.bp.restore_state(r);
        self.bp_hist.restore_state(r);
        self.ittage.restore_state(r);
        self.it_hist.restore_state(r);
        self.btb.restore_state(r);
        self.ras.restore_state(r);
        r.check(0x5349_4d31);
        restore_configured(self.uop_cache.as_mut(), r, "µ-op cache");
        self.hier.restore_state(r);
        self.prefetcher.restore_state(r);
        self.prefetch_pq.restore_state(r);
        restore_configured(self.mrc.as_mut(), r, "MRC");
        self.mrc_filling.restore_state(r);
        self.mrc_stream_left.restore_state(r);
        restore_configured(self.ucp.as_mut(), r, "UCP");
        r.check(0x5349_4d32);
        self.agen_pc.restore_state(r);
        self.agen_pos.restore_state(r);
        self.agen_stall_until.restore_state(r);
        self.agen_dead.restore_state(r);
        self.agen_window_penalty.restore_state(r);
        self.pending_mispredict.restore_state(r);
        self.demand_btb_banks.restore_state(r);
        self.agen_stall_kind.restore_state(r);
        self.ftq.restore_state(r);
        self.uopq.restore_state(r);
        self.mode.restore_state(r);
        self.fetch_stall_until.restore_state(r);
        self.consec_uop_hits.restore_state(r);
        self.head_delivered.restore_state(r);
        self.ideal_brcond_left.restore_state(r);
        let (bp_hist, it_hist, ucp) = (&self.bp_hist, &self.it_hist, self.ucp.as_ref());
        self.records
            .restore_with(r, |rec, r| rec.restore_in(bp_hist, it_hist, ucp, r));
        self.backend.restore_state(r);
        let mut rq: Vec<(u64, u64)> = Vec::new();
        rq.restore_state(r);
        // Save writes the heap's entries sorted; accepting another order
        // would let two byte strings restore the same machine.
        assert!(
            rq.is_sorted(),
            "checkpoint state corrupt: resolve queue not sorted"
        );
        self.resolve_q = rq.into_iter().map(std::cmp::Reverse).collect();
        r.check(0x5349_4d33);
        self.committed.restore_state(r);
        self.last_commit_cycle.restore_state(r);
        self.last_retired_pc.restore_state(r);
        self.measuring.restore_state(r);
        self.measure_state.restore_state(r);
        self.stats = restore_json(r, "stats");
        let snap: RegistrySnapshot = restore_json(r, "registry snapshot");
        self.tele.handle.registry.restore(&snap);
        let has_sampler = r.get_bool();
        assert_eq!(
            has_sampler,
            self.sampler.is_some(),
            "interval sampler configuration mismatch \
             (UCP_INTERVAL must match the checkpointed run)"
        );
        if let Some(s) = self.sampler.as_mut() {
            s.import_state(restore_json(r, "sampler state"));
        }
        self.skew_applied.restore_state(r);
        self.last_digest_committed.restore_state(r);
        self.digests.restore_state(r);
        r.check(0x5349_4d34);
        // Per-cycle scratch is dead between cycles and reset at the top of
        // `cycle()`; clear it defensively.
        self.demand_uop_banks = [false; 2];
        self.delivered_uop = false;
        self.delivered_decode = false;
        self.deliver_blocked = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_frontend::BtbConfig;

    /// The record ring's allocation size moves set-up time through the
    /// allocator's thresholds, so a record must not grow.
    #[test]
    fn a_branch_record_stays_within_416_bytes() {
        let size = std::mem::size_of::<PredRecord>();
        assert!(size <= 416, "PredRecord is {size} bytes");
    }

    /// The walk probes the BTB at static branches only, so UCP refuses a
    /// BTB with one set, whose 16-bit tags alias PCs 256 KiB apart.
    #[test]
    #[should_panic(expected = "UCP needs a BTB whose (set, tag) covers the code image")]
    fn ucp_rejects_a_btb_whose_tags_alias_the_image() {
        let spec = ucp_workloads::suite::by_name("srv04").expect("srv04 exists");
        let prog = spec.build();
        assert!(prog.end().raw() - prog.base().raw() > 256 << 10);
        let cfg = SimConfig {
            btb: BtbConfig {
                total_entries: 4,
                ways: 4,
                banks: 1,
            },
            ..SimConfig::ucp()
        };
        Simulator::new(&prog, spec.seed, &cfg);
    }
}
