//! The UCP engine: alternate-path µ-op cache prefetching (§IV).
//!
//! On a low-confidence (H2P) conditional prediction, the engine starts
//! walking the *alternate* path — the direction the main predictor did not
//! choose — using its own small predictors (Alt-BP, Alt-Ind, Alt-RAS) and
//! the shared banked BTB. Generated fetch blocks flow through the Alt-FTQ,
//! a µ-op cache tag check, the µ-op cache MSHR and the L1I prefetch queue;
//! returning lines are decoded by dedicated alternate decoders and
//! inserted into the µ-op cache, ready to accelerate the pipeline refill if
//! the H2P branch indeed mispredicts.
//!
//! The stopping heuristic accumulates the paper's Table I weights into a
//! saturating counter and terminates the walk at a threshold (500 by
//! default, swept in Fig. 15), on a BTB miss, on an indirect branch without
//! Alt-Ind, or after 63 branch-free instructions.
//!
//! Alt-BP and Alt-Ind also predict every predicted-path branch, for
//! training when it resolves. Wrong-path branches never resolve, so
//! Alt-BP's predictions for them are not made when the branch is; a save
//! derives them ([`LazyPredictions`], DESIGN.md §11). Alt-Ind, which sees
//! under 2% as many wrong-path branches, predicts every one eagerly.

use crate::config::{ConfKind, UcpConfig};
use crate::stats::UcpStats;
use sim_isa::{Addr, BranchClass, State, StateReader, StateWriter};
use ucp_bpred::{
    push_target_history, ConfidenceEstimator, HistCheckpoint, HistoryState, Ittage, IttageParams,
    IttagePrediction, PathHistory, Provider, SclPrediction, SclPreset, TageConf, TageScL, UcpConf,
};
use ucp_frontend::{BoundedQueue, Btb, Ras, UopCache};
use ucp_mem::Hierarchy;
use ucp_telemetry::{Category, Counter, Telemetry, Tracer};
use ucp_workloads::Program;

/// A fetch block generated on the alternate path.
#[derive(Clone, Copy, Debug, Default)]
pub struct AltBlock {
    /// First instruction address.
    pub start: Addr,
    /// Instructions in the block (≤ 8, within one 32 B window).
    pub n: u8,
    /// The H2P trigger instance that generated this block.
    pub trigger: u64,
}

/// Alt-BP's output for one conditional branch record: made when the
/// branch was predicted, or, for a wrong-path branch, derived when a save
/// asks for it ([`LazyPredictions`]).
#[derive(Clone, Copy, Debug, Default)]
pub enum AltPred {
    /// No Alt-BP prediction: UCP is off, or the branch is not conditional.
    #[default]
    Absent,
    /// Made when the branch was predicted.
    Eager(SclPrediction),
    /// A wrong-path prediction not made: how many of the window's
    /// trainings preceded it.
    Lazy(u32),
}

impl From<Option<SclPrediction>> for AltPred {
    fn from(p: Option<SclPrediction>) -> Self {
        p.map_or(AltPred::Absent, AltPred::Eager)
    }
}

/// The log is sized for the longest window seen over the quick suite
/// (109 trainings), so that it does not grow mid-run.
const LOG_CAPACITY: usize = 128;

/// Alt-BP's wrong-path window: from the first record predicted lazily on
/// it to the pipeline flush that discards every such record. Trainings
/// inside the window (of older, correct-path branches) change Alt-BP
/// under those records, so the first snapshots it and each is logged.
/// Both buffers live as long as the engine: a window allocates nothing.
/// Never serialized: restored records hold their predictions in full, so
/// a restore closes the window.
#[derive(Debug)]
struct Window {
    /// A lazy record has been handed out since the last flush.
    open: bool,
    /// Alt-BP before the window's first training.
    snapshot: TageScL,
    /// The window's trainings, `(pc, prediction, taken)`, in order.
    log: Vec<(Addr, SclPrediction, bool)>,
}

impl Window {
    fn close(&mut self) {
        self.open = false;
        self.log.clear();
    }
}

impl State for Window {
    fn save_state(&self, _: &mut StateWriter) {}

    fn restore_state(&mut self, _: &mut StateReader) {
        self.close();
    }
}

/// Derives, when the engine is saved, the Alt-BP predictions it did not
/// make for wrong-path records: Alt-BP as of the record's epoch (the
/// window's snapshot with its log replayed up to the epoch) against the
/// mirror history restored to the record's checkpoint. Records must be
/// visited oldest first.
pub struct LazyPredictions<'a> {
    engine: &'a UcpEngine,
    /// The snapshot with a prefix of the log replayed, and the prefix's
    /// length; made on first need.
    replayed: Option<(TageScL, usize)>,
    /// The mirror, restored to one record's checkpoint after another.
    hist: Option<HistoryState>,
}

impl<'a> LazyPredictions<'a> {
    /// The engine the predictions are derived from.
    pub fn engine(&self) -> &'a UcpEngine {
        self.engine
    }

    /// The Alt-BP prediction of the conditional branch at `pc` whose
    /// main-history checkpoint is `cp`.
    ///
    /// # Panics
    ///
    /// Panics if a lazy record's epoch is below one asked for before.
    pub fn cond(&mut self, pred: &AltPred, pc: Addr, cp: &HistCheckpoint) -> Option<SclPrediction> {
        let epoch = match *pred {
            AltPred::Absent => return None,
            AltPred::Eager(p) => return Some(p),
            AltPred::Lazy(epoch) => epoch as usize,
        };
        let engine = self.engine;
        let log = &engine.window.log;
        let bp = if epoch == log.len() {
            &engine.alt_bp
        } else {
            let (bp, applied) = self
                .replayed
                .get_or_insert_with(|| (engine.window.snapshot.clone(), 0));
            assert!(*applied <= epoch, "lazy records visited out of order");
            for (pc, pred, taken) in &log[*applied..epoch] {
                bp.update(*pc, pred, *taken);
            }
            *applied = epoch;
            bp
        };
        // `restore` re-derives the fold registers, stale in the window.
        let hist = self
            .hist
            .get_or_insert_with(|| engine.alt_bp_mirror.clone());
        hist.restore(cp);
        Some(bp.predict(hist, pc))
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PendingPf {
    block: AltBlock,
    ready: u64,
}

/// An alternate-path walk in progress. Its histories live in [`Walk`].
#[derive(Debug, Default)]
struct AltWalk {
    pc: Addr,
    weight: u32,
    threshold: u32,
    insts_since_branch: u32,
    trigger: u64,
    /// 3-bit saturating BTB-conflict delay counter (§IV-C).
    conflict_ctr: u8,
}

/// The alternate-path walk state. The histories outlive walks, so a new
/// walk copies into them instead of allocating.
#[derive(Debug)]
struct Walk {
    /// The walk in progress, if any.
    cur: Option<AltWalk>,
    /// The walk's conditional history (meaningful while `cur` is set).
    hist: HistoryState,
    /// The walk's path history (meaningful while `cur` is set).
    path_hist: PathHistory,
}

/// Why a walk ended (maps to [`UcpStats`] counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopReason {
    Threshold,
    BtbMiss,
    Indirect,
    NoBranch,
}

/// Per-cycle outputs the pipeline needs from the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct UcpCycleOut {
    /// The alternate path saturated its conflict counter and wins the BTB
    /// banks next cycle; the demand path loses one prediction window.
    pub demand_window_steal: bool,
}

/// Telemetry handles for the `ucp.*` namespace; detached until
/// [`UcpEngine::attach_telemetry`]. These mirror the [`UcpStats`] fields
/// the engine already keeps — the duplication is deliberate: `stats` is
/// windowed by the pipeline's measurement delta, while the registry delta
/// is computed independently so cross-layer reports share one mechanism.
#[derive(Debug, Default)]
struct UcpTelemetry {
    tracer: Tracer,
    walks_started: Counter,
    walks_preempted: Counter,
    walks_stopped: Counter,
    lines_prefetched: Counter,
    entries_inserted: Counter,
    filtered_present: Counter,
    demand_steals: Counter,
    btb_conflicts: Counter,
}

impl UcpTelemetry {
    fn bound_to(t: &Telemetry) -> Self {
        UcpTelemetry {
            tracer: t.tracer.clone(),
            walks_started: t.registry.counter("ucp.walks_started"),
            walks_preempted: t.registry.counter("ucp.walks_preempted"),
            walks_stopped: t.registry.counter("ucp.walks_stopped"),
            lines_prefetched: t.registry.counter("ucp.lines_prefetched"),
            entries_inserted: t.registry.counter("ucp.entries_inserted"),
            filtered_present: t.registry.counter("ucp.filtered_present"),
            demand_steals: t.registry.counter("ucp.demand_window_steals"),
            btb_conflicts: t.registry.counter("ucp.btb_conflicts"),
        }
    }
}

/// The UCP alternate-path prefetch engine.
#[derive(Debug)]
pub struct UcpEngine {
    cfg: UcpConfig,
    alt_bp: TageScL,
    /// Predicted-path GHR mirror for Alt-BP (§IV-C: "Alt-BP implements two
    /// GHRs"; the second is cloned per walk). Pushed in step with the
    /// main conditional history, so the main history's checkpoints serve
    /// it too. Inside an open window its fold registers are stale
    /// (wrong-path pushes write only the buffer) until the flush that
    /// closes the window restores it.
    alt_bp_mirror: HistoryState,
    alt_ind: Option<Ittage>,
    /// Predicted-path mirror for Alt-Ind, pushed in step with the main
    /// path history.
    alt_ind_mirror: PathHistory,
    alt_ras: Ras,
    walk: Walk,
    window: Window,
    alt_ftq: BoundedQueue<AltBlock>,
    l1i_pq: BoundedQueue<AltBlock>,
    pending: Vec<PendingPf>,
    decode_q: BoundedQueue<AltBlock>,
    decode_progress: u32,
    trigger_seq: u64,
    /// Trigger instances considered "current" for timeliness accounting.
    recent_triggers: std::collections::VecDeque<u64>,
    /// Statistics (drained into `SimStats` by the pipeline).
    pub stats: UcpStats,
    tele: UcpTelemetry,
}

impl UcpEngine {
    /// Creates the engine with the 8 KB Alt-BP and, if configured, the
    /// 4 KB Alt-Ind and a 16-entry Alt-RAS.
    pub fn new(cfg: UcpConfig) -> Self {
        let alt_bp = TageScL::new(SclPreset::Alt8K);
        let alt_bp_mirror = alt_bp.new_history();
        let alt_ind = cfg.use_alt_ind.then(|| Ittage::new(IttageParams::alt_4k()));
        // Without Alt-Ind the mirror is a placeholder that keeps the
        // checkpoint plumbing uniform.
        let alt_ind_mirror = PathHistory::new(&IttageParams::alt_4k().fold_specs());
        let window = Window {
            open: false,
            snapshot: alt_bp.clone(),
            log: Vec::with_capacity(LOG_CAPACITY),
        };
        UcpEngine {
            walk: Walk {
                cur: None,
                hist: alt_bp_mirror.clone(),
                path_hist: alt_ind_mirror.clone(),
            },
            alt_bp_mirror,
            alt_bp,
            alt_ind,
            alt_ind_mirror,
            alt_ras: Ras::new(16),
            window,
            alt_ftq: BoundedQueue::new(cfg.alt_ftq_entries),
            l1i_pq: BoundedQueue::new(8),
            pending: Vec::with_capacity(cfg.uop_mshr_entries),
            decode_q: BoundedQueue::new(cfg.alt_decode_queue),
            decode_progress: 0,
            trigger_seq: 0,
            recent_triggers: std::collections::VecDeque::with_capacity(16),
            stats: UcpStats::default(),
            tele: UcpTelemetry::default(),
            cfg,
        }
    }

    /// Binds the `ucp.*` counters and the `Ucp` trace category to `t`'s
    /// registry and tracer.
    pub fn attach_telemetry(&mut self, t: &Telemetry) {
        self.tele = UcpTelemetry::bound_to(t);
    }

    /// The configuration.
    pub fn config(&self) -> &UcpConfig {
        &self.cfg
    }

    // ---- predicted-path mirror maintenance (called by the demand BPU) ----

    /// Mirrors a conditional-outcome push and returns the Alt-BP's own
    /// prediction for training at resolution. On the wrong path the
    /// prediction is left to a save to derive, and the push writes only
    /// the mirror's buffer.
    pub fn on_cond_predicted(
        &mut self,
        pc: Addr,
        predicted_taken: bool,
        wrong_path: bool,
    ) -> AltPred {
        if wrong_path {
            self.alt_bp_mirror.push_unfolded(predicted_taken);
            self.window.open = true;
            return AltPred::Lazy(self.window.log.len() as u32);
        }
        debug_assert!(
            !self.window.open,
            "a correct-path branch inside a wrong-path window"
        );
        let p = self.alt_bp.predict(&self.alt_bp_mirror, pc);
        self.alt_bp_mirror.push(predicted_taken);
        AltPred::Eager(p)
    }

    /// Mirrors a taken-transfer target push.
    pub fn on_taken_target(&mut self, target: Addr) {
        push_target_history(&mut self.alt_ind_mirror, target);
    }

    /// Mirrors an indirect branch's target push and returns the Alt-Ind
    /// prediction for training at resolution.
    pub fn on_indirect_predicted(&mut self, pc: Addr, target: Addr) -> Option<IttagePrediction> {
        let pred = self
            .alt_ind
            .as_ref()
            .map(|ind| ind.predict(&self.alt_ind_mirror, pc));
        self.on_taken_target(target);
        pred
    }

    /// A deriver for the predictions of this engine's lazy records, for
    /// one save.
    pub fn lazy_predictions(&self) -> LazyPredictions<'_> {
        LazyPredictions {
            engine: self,
            replayed: None,
            hist: None,
        }
    }

    /// Writes the mirror histories' checkpoints for a branch record whose
    /// main-history checkpoints, still in flight, are `cp_bp` and `cp_it`:
    /// the mirrors share their pointers.
    pub fn save_checkpoints(
        &self,
        cp_bp: &HistCheckpoint,
        cp_it: &HistCheckpoint,
        w: &mut StateWriter,
    ) {
        self.alt_bp_mirror.save_checkpoint(cp_bp, w);
        self.alt_ind_mirror.save_checkpoint(cp_it, w);
    }

    /// Reads the checkpoints [`UcpEngine::save_checkpoints`] wrote for a
    /// record whose main-history checkpoints are `cp_bp` and `cp_it`; the
    /// engine itself must already be restored.
    ///
    /// # Panics
    ///
    /// Panics if a mirror checkpoint is corrupt or its pointer differs
    /// from the main one's.
    pub fn restore_checkpoints(
        &self,
        cp_bp: &HistCheckpoint,
        cp_it: &HistCheckpoint,
        r: &mut StateReader,
    ) {
        let alt_bp = self.alt_bp_mirror.restore_checkpoint(r);
        let alt_ind = self.alt_ind_mirror.restore_checkpoint(r);
        assert!(
            alt_bp == *cp_bp && alt_ind == *cp_it,
            "checkpoint state corrupt: UCP mirror checkpoints {alt_bp:?}, {alt_ind:?} \
             differ from the main histories' {cp_bp:?}, {cp_it:?}"
        );
    }

    /// Restores the mirrors on a pipeline flush to the flushed record's
    /// main-history checkpoints `cp_bp` and `cp_it`, pushes the corrected
    /// outcome, closes Alt-BP's wrong-path window (the flush discards
    /// every lazy record) and aborts any in-flight alternate work (the paper:
    /// terminating the alternate path only requires flushing the Alt-FTQ).
    /// `bp_hist` and `it_hist` are the main histories, not yet restored.
    pub fn on_flush(
        &mut self,
        bp_hist: &HistoryState,
        it_hist: &PathHistory,
        cp_bp: &HistCheckpoint,
        cp_it: &HistCheckpoint,
        actual_cond: Option<bool>,
        actual_target: Option<Addr>,
    ) {
        debug_assert_eq!(
            (
                self.alt_bp_mirror.position(),
                self.alt_ind_mirror.position()
            ),
            (bp_hist.position(), it_hist.position()),
            "UCP mirrors out of step with the main histories"
        );
        self.alt_bp_mirror.restore(cp_bp);
        self.alt_ind_mirror.restore(cp_it);
        self.window.close();
        if let Some(t) = actual_cond {
            self.alt_bp_mirror.push(t);
        }
        if let Some(t) = actual_target {
            push_target_history(&mut self.alt_ind_mirror, t);
        }
        self.walk.cur = None;
        self.alt_ftq.clear();
        // In-flight memory requests complete into the µ-op cache (the
        // lines were requested; fills proceed), mirroring real hardware
        // where MSHR entries drain; the decode queue survives too.
    }

    // ---- training (called at branch resolution) ----

    /// Trains Alt-BP with the resolved conditional outcome, first logging
    /// the training if the window is open.
    pub fn train_cond(&mut self, pc: Addr, pred: &SclPrediction, taken: bool) {
        let window = &mut self.window;
        if window.open {
            if window.log.is_empty() {
                window.snapshot.copy_from(&self.alt_bp);
            }
            window.log.push((pc, *pred, taken));
        }
        self.alt_bp.update(pc, pred, taken);
    }

    /// Trains Alt-Ind with the resolved indirect target.
    pub fn train_indirect(&mut self, pc: Addr, pred: &IttagePrediction, target: Addr) {
        if let Some(ind) = &mut self.alt_ind {
            ind.update(pc, pred, target);
        }
    }

    // ---- triggering ----

    /// Classifies a main-path prediction as H2P under the configured
    /// estimator.
    pub fn is_h2p(&self, scl: &SclPrediction) -> bool {
        match self.cfg.conf {
            ConfKind::Tage => TageConf.is_h2p(scl),
            ConfKind::Ucp => UcpConf.is_h2p(scl),
        }
    }

    /// Starts (or restarts) an alternate-path walk at `alt_target`,
    /// opposite to the predicted direction of the H2P branch. The current
    /// walk, if any, is preempted (§IV-E case 1).
    pub fn trigger(&mut self, alt_target: Addr, h2p_predicted_taken: bool, main_ras: &Ras) {
        if self.walk.cur.is_some() {
            self.stats.preempted += 1;
            self.tele.walks_preempted.inc();
        }
        self.trigger_seq += 1;
        self.stats.walks_started += 1;
        self.tele.walks_started.inc();
        let trigger_seq = self.trigger_seq;
        self.tele.tracer.emit(Category::Ucp, "walk_start", || {
            format!(
                "target={:#x} trigger={trigger_seq} h2p_taken={h2p_predicted_taken}",
                alt_target.raw()
            )
        });
        if self.recent_triggers.len() >= 16 {
            self.recent_triggers.pop_front();
        }
        self.recent_triggers.push_back(self.trigger_seq);
        debug_assert!(
            !self.window.open,
            "a trigger reads the mirror's fold registers, stale in a window"
        );
        // The caller triggers before the H2P branch's predicted outcome is
        // mirrored, so the alternate GHR is the mirror plus the opposite
        // outcome.
        self.walk.hist.clone_from(&self.alt_bp_mirror);
        self.walk.hist.push(!h2p_predicted_taken);
        self.walk.path_hist.clone_from(&self.alt_ind_mirror);
        push_target_history(&mut self.walk.path_hist, alt_target);
        self.alt_ras.copy_from(main_ras);
        self.walk.cur = Some(AltWalk {
            pc: alt_target,
            weight: 0,
            threshold: self.cfg.stop_threshold,
            insts_since_branch: 0,
            trigger: self.trigger_seq,
            conflict_ctr: 0,
        });
    }

    /// Records a demand hit on a prefetched entry (timeliness accounting).
    pub fn record_entry_use(&mut self, trigger: u64) {
        if self.recent_triggers.contains(&trigger) {
            self.stats.timely_used += 1;
        } else {
            self.stats.late_used += 1;
        }
    }

    /// `true` while a walk is generating addresses.
    pub fn walking(&self) -> bool {
        self.walk.cur.is_some()
    }

    fn stop_walk(&mut self, reason: StopReason) {
        self.tele.walks_stopped.inc();
        self.tele
            .tracer
            .emit(Category::Ucp, "walk_stop", || format!("reason={reason:?}"));
        match reason {
            StopReason::Threshold => self.stats.stopped_threshold += 1,
            StopReason::BtbMiss => self.stats.stopped_btb_miss += 1,
            StopReason::Indirect => self.stats.stopped_indirect += 1,
            StopReason::NoBranch => self.stats.stopped_no_branch += 1,
        }
        self.walk.cur = None;
    }

    /// One engine cycle: advance the walk by one block, run the tag-check /
    /// prefetch / fill / decode pipeline.
    ///
    /// `demand_uop_banks` are the µ-op cache tag banks the demand path used
    /// this cycle; `demand_btb_banks` is a bitmask of BTB banks the demand
    /// BPU used; `demand_in_stream_mode` gates shared decoders.
    #[allow(clippy::too_many_arguments)]
    pub fn cycle(
        &mut self,
        now: u64,
        prog: &Program,
        btb: &Btb,
        uop_cache: Option<&mut UopCache>,
        hier: &mut Hierarchy,
        demand_uop_banks: [bool; 2],
        demand_btb_banks: u64,
        demand_in_stream_mode: bool,
    ) -> UcpCycleOut {
        let mut out = UcpCycleOut::default();
        self.step_walk(prog, btb, demand_btb_banks, &mut out);
        self.tag_check(uop_cache.as_deref(), demand_uop_banks);
        self.issue_prefetch(now, hier);
        self.fill(now);
        self.alt_decode(prog, uop_cache, demand_in_stream_mode);
        out
    }

    /// Generates one alternate-path fetch block.
    fn step_walk(
        &mut self,
        prog: &Program,
        btb: &Btb,
        demand_btb_banks: u64,
        out: &mut UcpCycleOut,
    ) {
        let Some(mut walk) = self.walk.cur.take() else {
            return;
        };
        if self.alt_ftq.is_full() {
            self.walk.cur = Some(walk);
            return;
        }
        // BTB bank arbitration at block granularity: the walk needs the
        // bank of its current PC; a conflict delays it unless the 3-bit
        // counter saturated (§IV-C).
        if !self.cfg.ideal_btb_banking {
            let bank = btb.bank_of(walk.pc);
            if demand_btb_banks & (1u64 << (bank as u64 % 64)) != 0 {
                if walk.conflict_ctr >= 7 {
                    out.demand_window_steal = true;
                    self.stats.demand_steals += 1;
                    self.tele.demand_steals.inc();
                    self.tele
                        .tracer
                        .emit(Category::Ucp, "demand_window_steal", || {
                            format!("pc={:#x}", walk.pc.raw())
                        });
                    walk.conflict_ctr = 0;
                } else {
                    walk.conflict_ctr += 1;
                    self.stats.btb_conflicts += 1;
                    self.tele.btb_conflicts.inc();
                    self.walk.cur = Some(walk);
                    return;
                }
            }
        }

        let start = walk.pc;
        let window_end = Addr::new(start.uop_window().raw() + 32);
        let mut pc = start;
        let mut n: u8 = 0;
        let mut next = start;
        let mut stop: Option<StopReason> = None;
        loop {
            if pc == window_end || n == 8 {
                next = pc;
                break;
            }
            // Walked off the code image: nothing to prefetch here.
            let Some(inst) = prog.inst_at(pc) else {
                stop = Some(StopReason::BtbMiss);
                next = pc;
                break;
            };
            n += 1;
            walk.insts_since_branch += 1;
            // BTB entries sit only at static branches, and every PC of the
            // image has its own (set, tag) (asserted when the simulator is
            // built), so no other PC can hit.
            let entry = if inst.kind.branch_class().is_some() {
                btb.probe(pc)
            } else {
                None
            };
            if let Some(entry) = entry {
                walk.insts_since_branch = 0;
                match entry.class {
                    BranchClass::CondDirect => {
                        let pred = self.alt_bp.predict(&self.walk.hist, pc);
                        let w = cond_stop_weight(&pred);
                        walk.weight = walk.weight.saturating_add(w);
                        if w == 1 {
                            // High-confidence branches extend the allowance.
                            walk.threshold = walk.threshold.saturating_add(1);
                        }
                        self.walk.hist.push(pred.taken);
                        if pred.taken {
                            push_target_history(&mut self.walk.path_hist, entry.target);
                            next = entry.target;
                            break;
                        }
                    }
                    BranchClass::UncondDirect => {
                        push_target_history(&mut self.walk.path_hist, entry.target);
                        next = entry.target;
                        break;
                    }
                    BranchClass::Call => {
                        self.alt_ras.push(pc.next_inst());
                        push_target_history(&mut self.walk.path_hist, entry.target);
                        next = entry.target;
                        break;
                    }
                    BranchClass::Return => {
                        walk.weight = walk.weight.saturating_add(1);
                        match self.alt_ras.pop() {
                            Some(ra) => {
                                push_target_history(&mut self.walk.path_hist, ra);
                                next = ra;
                            }
                            None => stop = Some(StopReason::BtbMiss),
                        }
                        break;
                    }
                    BranchClass::IndirectJump | BranchClass::IndirectCall => {
                        match &self.alt_ind {
                            Some(ind) => {
                                walk.weight = walk.weight.saturating_add(1);
                                let p = ind.predict(&self.walk.path_hist, pc);
                                match p.target.or(Some(entry.target)).filter(|t| !t.is_null()) {
                                    Some(t) => {
                                        if entry.class == BranchClass::IndirectCall {
                                            self.alt_ras.push(pc.next_inst());
                                        }
                                        push_target_history(&mut self.walk.path_hist, t);
                                        next = t;
                                    }
                                    None => stop = Some(StopReason::Indirect),
                                }
                            }
                            None => stop = Some(StopReason::Indirect),
                        }
                        break;
                    }
                }
            }
            pc = pc.next_inst();
            next = pc;
        }

        if n > 0 {
            let blk = AltBlock {
                start,
                n,
                trigger: walk.trigger,
            };
            let _ = self.alt_ftq.push(blk);
        }
        walk.pc = next;

        if stop.is_none() && walk.weight >= walk.threshold {
            stop = Some(StopReason::Threshold);
        }
        if stop.is_none() && walk.insts_since_branch >= 63 {
            stop = Some(StopReason::NoBranch);
        }
        match stop {
            Some(r) => self.stop_walk(r),
            None => self.walk.cur = Some(walk),
        }
    }

    /// One µ-op cache tag check per cycle, arbitrated against demand.
    fn tag_check(&mut self, uop_cache: Option<&UopCache>, demand_banks: [bool; 2]) {
        let Some(blk) = self.alt_ftq.front().copied() else {
            return;
        };
        if self.pending.len() >= self.cfg.uop_mshr_entries || self.l1i_pq.is_full() {
            return;
        }
        if let Some(uc) = uop_cache {
            let bank = uc.bank_of(blk.start);
            if demand_banks[bank] {
                // Demand wins the banked tag array; retry next cycle.
                return;
            }
            if uc.probe(blk.start) {
                self.stats.filtered_present += 1;
                self.tele.filtered_present.inc();
                let _ = self.alt_ftq.pop();
                return;
            }
        }
        let _ = self.alt_ftq.pop();
        let _ = self.l1i_pq.push(blk);
    }

    /// One L1I prefetch request per cycle.
    fn issue_prefetch(&mut self, now: u64, hier: &mut Hierarchy) {
        let Some(blk) = self.l1i_pq.front().copied() else {
            return;
        };
        match hier.access_inst(blk.start.line(), now, true) {
            Ok(acc) => {
                let _ = self.l1i_pq.pop();
                self.stats.lines_prefetched += 1;
                self.tele.lines_prefetched.inc();
                self.tele.tracer.emit(Category::Ucp, "line_prefetch", || {
                    format!(
                        "line={:#x} trigger={} ready={}",
                        blk.start.line().raw(),
                        blk.trigger,
                        acc.ready
                    )
                });
                self.pending.push(PendingPf {
                    block: blk,
                    ready: acc.ready,
                });
            }
            Err(_) => { /* L1I MSHR full; retry next cycle */ }
        }
    }

    /// Moves completed prefetches into the alternate decode queue.
    fn fill(&mut self, now: u64) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].ready <= now {
                let pf = self.pending.swap_remove(i);
                if self.cfg.till_l1i {
                    // UCP-TillL1I: the line is in the L1I; no µ-op fill.
                    continue;
                }
                if self.decode_q.push(pf.block).is_err() {
                    // Decode queue full: the line misses its window
                    // (stays in L1I only).
                    continue;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Decodes queued alternate blocks and inserts µ-op cache entries.
    fn alt_decode(
        &mut self,
        prog: &Program,
        uop_cache: Option<&mut UopCache>,
        demand_in_stream_mode: bool,
    ) {
        let Some(uc) = uop_cache else {
            return;
        };
        if self.cfg.till_l1i {
            return;
        }
        let mut budget = if self.cfg.shared_decoders {
            // Shared decoders: the alternate path decodes only while the
            // demand path is streaming from the µ-op cache (§VI-F).
            if demand_in_stream_mode {
                self.cfg.alt_decoders
            } else {
                0
            }
        } else {
            self.cfg.alt_decoders
        };
        while budget > 0 {
            let Some(blk) = self.decode_q.front().copied() else {
                break;
            };
            let remaining = u32::from(blk.n) - self.decode_progress;
            let take = remaining.min(budget);
            self.decode_progress += take;
            budget -= take;
            self.stats.alt_decoded_uops += u64::from(take);
            if self.decode_progress >= u32::from(blk.n) {
                let _ = self.decode_q.pop();
                self.decode_progress = 0;
                for spec in
                    crate::pipeline::build_entries(prog, blk.start, blk.n, true, blk.trigger)
                {
                    uc.insert(spec);
                    self.stats.entries_inserted += 1;
                    self.tele.entries_inserted.inc();
                }
                self.tele.tracer.emit(Category::Ucp, "alt_fill", || {
                    format!(
                        "start={:#x} n={} trigger={}",
                        blk.start.raw(),
                        blk.n,
                        blk.trigger
                    )
                });
            }
        }
    }
}

// Telemetry handles are rebound on attach, not checkpointed.
sim_isa::state_fields!(UcpEngine {
    mark(0x7cb0), alt_bp, alt_bp_mirror, configured(alt_ind), alt_ind_mirror, alt_ras, walk,
    window, alt_ftq, l1i_pq, pending, decode_q, decode_progress, trigger_seq, recent_triggers, stats,
    mark(0x7cb1),
} skip { cfg, tele });

/// Hand-written: the histories are written only while a walk is in
/// progress, inside its presence block between its pc and its counters.
impl State for Walk {
    fn save_state(&self, w: &mut StateWriter) {
        let Walk {
            cur,
            hist,
            path_hist,
        } = self;
        cur.is_some().save_state(w);
        if let Some(walk) = cur {
            walk.pc.save_state(w);
            hist.save_state(w);
            path_hist.save_state(w);
            walk.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        let Walk {
            cur,
            hist,
            path_hist,
        } = self;
        *cur = r.get_bool().then(|| {
            let mut walk = AltWalk::default();
            walk.pc.restore_state(r);
            hist.restore_state(r);
            path_hist.restore_state(r);
            walk.restore_state(r);
            walk
        });
    }
}

// The walk's own state, written after its pc and the walk histories.
sim_isa::state_fields!(AltWalk {
    weight, threshold, insts_since_branch, trigger, conflict_ctr,
} skip { pc });
sim_isa::state_fields!(AltBlock { start, n, trigger } skip {});
sim_isa::state_fields!(PendingPf { block, ready } skip {});

/// The paper's Table I stopping weights for conditional predictions on the
/// alternate path.
pub fn cond_stop_weight(p: &SclPrediction) -> u32 {
    match p.provider {
        Provider::Bimodal => match p.tage.provider_ctr {
            -2 | 1 => 1,
            _ => 2,
        },
        Provider::BimodalLow8 => match p.tage.provider_ctr {
            -2 | 1 => 2,
            _ => 6,
        },
        Provider::HitBank => match p.tage.provider_ctr {
            -4 | 3 => 1,
            -3 | 2 => 3,
            -2 | 1 => 4,
            _ => 6,
        },
        Provider::AltBank => match p.tage.provider_ctr {
            -4 | 3 => 5,
            _ => 7,
        },
        Provider::LoopPred => 1,
        Provider::Sc => {
            let m = p.sc.sum.unsigned_abs();
            if m >= 128 {
                3
            } else if m >= 64 {
                6
            } else if m >= 32 {
                8
            } else {
                10
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred_with(provider: Provider, ctr: i8, sc_sum: i32) -> SclPrediction {
        let bp = TageScL::new(SclPreset::Alt8K);
        let h = bp.new_history();
        let mut p = bp.predict(&h, Addr::new(0x40));
        p.provider = provider;
        p.tage.provider_ctr = ctr;
        p.sc.sum = sc_sum;
        p
    }

    #[test]
    fn table1_weights() {
        assert_eq!(cond_stop_weight(&pred_with(Provider::Bimodal, 1, 0)), 1);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Bimodal, 0, 0)), 2);
        assert_eq!(
            cond_stop_weight(&pred_with(Provider::BimodalLow8, -2, 0)),
            2
        );
        assert_eq!(
            cond_stop_weight(&pred_with(Provider::BimodalLow8, -1, 0)),
            6
        );
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, 3, 0)), 1);
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, -3, 0)), 3);
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, 1, 0)), 4);
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, 0, 0)), 6);
        assert_eq!(cond_stop_weight(&pred_with(Provider::AltBank, 3, 0)), 5);
        assert_eq!(cond_stop_weight(&pred_with(Provider::AltBank, 0, 0)), 7);
        assert_eq!(cond_stop_weight(&pred_with(Provider::LoopPred, 0, 0)), 1);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, 200)), 3);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, -70)), 6);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, 40)), 8);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, 10)), 10);
    }

    #[test]
    fn trigger_and_preempt() {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let ras = Ras::new(64);
        e.trigger(Addr::new(0x1000), true, &ras);
        assert!(e.walking());
        assert_eq!(e.stats.walks_started, 1);
        e.trigger(Addr::new(0x2000), false, &ras);
        assert_eq!(e.stats.preempted, 1);
        assert_eq!(e.stats.walks_started, 2);
    }

    #[test]
    fn flush_aborts_walk_and_clears_ftq() {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let ras = Ras::new(64);
        let bp_hist = TageScL::new(SclPreset::Main64K).new_history();
        let it_hist = Ittage::new(IttageParams::main_64k()).new_history();
        let (cp_bp, cp_it) = (bp_hist.checkpoint(), it_hist.checkpoint());
        e.trigger(Addr::new(0x1000), true, &ras);
        e.on_flush(&bp_hist, &it_hist, &cp_bp, &cp_it, Some(true), None);
        assert!(!e.walking());
        assert!(e.alt_ftq.is_empty());
    }

    #[test]
    fn timeliness_window() {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let ras = Ras::new(64);
        e.trigger(Addr::new(0x1000), true, &ras); // trigger 1
        e.record_entry_use(1);
        assert_eq!(e.stats.timely_used, 1);
        for i in 0..17 {
            e.trigger(Addr::new(0x1000 + i * 4), true, &ras);
        }
        // Trigger 1 has aged out of the 16-deep window.
        e.record_entry_use(1);
        assert_eq!(e.stats.late_used, 1);
    }

    fn bytes<T: State>(v: &T) -> Vec<u8> {
        let mut w = StateWriter::new();
        v.save_state(&mut w);
        w.into_bytes()
    }

    /// A branch pushed through the engine, with the prediction an eagerly
    /// predicting engine makes at push time (as checkpoint bytes).
    struct Pushed {
        pc: Addr,
        cp: HistCheckpoint,
        taken: bool,
        target: Addr,
        scl: AltPred,
        itt: Option<IttagePrediction>,
        want: Vec<u8>,
    }

    /// Eagerly folded twins of the engine's mirror histories.
    struct Twins {
        bp: HistoryState,
        it: PathHistory,
    }

    impl Twins {
        fn cond(&mut self, e: &mut UcpEngine, pc: Addr, taken: bool, wrong_path: bool) -> Pushed {
            let want = bytes(&Some(e.alt_bp.clone().predict(&self.bp, pc)));
            let cp = e.alt_bp_mirror.checkpoint();
            let scl = e.on_cond_predicted(pc, taken, wrong_path);
            self.bp.push(taken);
            Pushed {
                pc,
                cp,
                taken,
                target: Addr::NULL,
                scl,
                itt: None,
                want,
            }
        }

        /// Alt-Ind predicts at push time on either path.
        fn indirect(&mut self, e: &mut UcpEngine, pc: Addr, target: Addr) -> Pushed {
            let ind = e.alt_ind.clone().expect("Alt-Ind configured");
            let want = bytes(&Some(ind.predict(&self.it, pc)));
            let itt = e.on_indirect_predicted(pc, target);
            assert_eq!(bytes(&itt), want, "Alt-Ind prediction at push time");
            push_target_history(&mut self.it, target);
            Pushed {
                pc,
                cp: HistCheckpoint::default(),
                taken: true,
                target,
                scl: AltPred::Absent,
                itt,
                want,
            }
        }
    }

    /// Trains the engine with `r`'s own (eager) prediction.
    fn train(e: &mut UcpEngine, r: &Pushed) {
        match (&r.scl, &r.itt) {
            (AltPred::Eager(p), _) => e.train_cond(r.pc, p, r.taken),
            (_, Some(p)) => e.train_indirect(r.pc, p, r.target),
            _ => panic!("only correct-path records train"),
        }
    }

    /// Every record's prediction as a save writes it, records oldest first.
    fn derived(e: &UcpEngine, recs: &[Pushed]) -> Vec<Vec<u8>> {
        let mut lazy = e.lazy_predictions();
        recs.iter()
            .map(|r| match r.itt {
                None => bytes(&lazy.cond(&r.scl, r.pc, &r.cp)),
                Some(_) => bytes(&r.itt),
            })
            .collect()
    }

    fn wants(recs: &[Pushed]) -> Vec<Vec<u8>> {
        recs.iter().map(|r| r.want.clone()).collect()
    }

    #[test]
    fn lazy_wrong_path_predictions_equal_eager_ones() {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let mut twins = Twins {
            bp: e.alt_bp.new_history(),
            it: e
                .alt_ind
                .as_ref()
                .expect("Alt-Ind configured")
                .new_history(),
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut push = |e: &mut UcpEngine, twins: &mut Twins, i: u32, wrong_path: bool| {
            let r = rand();
            let pc = Addr::new(0x1000 + (r >> 8) % 16 * 4);
            if i % 4 == 3 {
                let target = Addr::new(0x8000 + (r >> 20) % 4 * 0x40);
                twins.indirect(e, pc, target)
            } else {
                twins.cond(e, pc, r & 3 != 0, wrong_path)
            }
        };

        // 1. The correct path: every prediction is made at push time, and
        // branches resolve (train) 48 records behind the predictions.
        let mut pending = std::collections::VecDeque::new();
        for i in 0..400 {
            let r = push(&mut e, &mut twins, i, false);
            let one = std::slice::from_ref(&r);
            assert_eq!(derived(&e, one), wants(one));
            pending.push_back(r);
            if pending.len() > 48 {
                train(&mut e, &pending.pop_front().expect("pending"));
            }
        }
        // A mispredicted branch opens the wrong path.
        let (cp_bp, cp_it) = (e.alt_bp_mirror.checkpoint(), e.alt_ind_mirror.checkpoint());
        let mispredicted = twins.cond(&mut e, Addr::new(0x1400), true, false);

        // 2. A wrong-path window, older branches training between pushes.
        let mut wrong = Vec::new();
        for i in 0..40 {
            wrong.push(push(&mut e, &mut twins, i, true));
            if i % 3 == 0 {
                train(&mut e, &pending.pop_front().expect("pending"));
            }
            assert_eq!(derived(&e, &wrong), wants(&wrong), "push {i}");
        }
        // Alt-BP trained under lazy records, and wrong-path indirects hold
        // their Alt-Ind predictions.
        assert!(wrong
            .iter()
            .any(|r| matches!(r.scl, AltPred::Lazy(n) if n > 0)));
        assert!(wrong.iter().any(|r| r.itt.is_some()));

        // 3. A save in the middle of the window; the run goes on past it
        // (more pushes and trainings), then is rewound to it by a restore
        // in place. The restored records hold their predictions in full,
        // and the window starts afresh.
        let saved = bytes(&e);
        let written = derived(&e, &wrong);
        let (at_save, twin_bp, twin_it) =
            (wrong.len(), twins.bp.checkpoint(), twins.it.checkpoint());
        for i in 40..50 {
            wrong.push(push(&mut e, &mut twins, i, true));
            train(&mut e, &pending.pop_front().expect("pending"));
        }
        let mut rd = StateReader::new(&saved);
        e.restore_state(&mut rd);
        rd.finish();
        assert_eq!(bytes(&e), saved);
        wrong.truncate(at_save);
        twins.bp.restore(&twin_bp);
        twins.it.restore(&twin_it);
        for (r, b) in wrong.iter_mut().zip(written) {
            let mut rd = StateReader::new(&b);
            if r.itt.is_some() {
                r.itt.restore_state(&mut rd);
            } else {
                let mut p: Option<SclPrediction> = None;
                p.restore_state(&mut rd);
                r.scl = p.into();
            }
        }
        for i in 40..80 {
            wrong.push(push(&mut e, &mut twins, i, true));
            if i % 3 == 0 {
                train(&mut e, &pending.pop_front().expect("pending"));
            }
            assert_eq!(derived(&e, &wrong), wants(&wrong), "push {i}");
        }

        // The flush closes the window: the mirror refolds, and predictions
        // are made at push time again.
        e.train_cond(
            mispredicted.pc,
            &match mispredicted.scl {
                AltPred::Eager(p) => p,
                _ => panic!("correct-path prediction"),
            },
            false,
        );
        e.on_flush(&twins.bp, &twins.it, &cp_bp, &cp_it, Some(false), None);
        twins.bp.restore(&cp_bp);
        twins.bp.push(false);
        twins.it.restore(&cp_it);
        assert!(!e.window.open && e.window.log.is_empty());
        for i in 0..twins.bp.num_folds() {
            assert_eq!(e.alt_bp_mirror.folded(i), twins.bp.folded(i), "fold {i}");
        }
        for i in 0..40 {
            let r = push(&mut e, &mut twins, i, false);
            assert!(!matches!(r.scl, AltPred::Lazy(_)));
            let one = std::slice::from_ref(&r);
            assert_eq!(derived(&e, one), wants(one));
            train(&mut e, &r);
        }
    }
}
