//! Property-based tests for the branch predictors: determinism,
//! checkpoint/restore transparency, training convergence and confidence
//! classification consistency under random branch streams.

use proptest::prelude::*;
use sim_isa::{Addr, State, StateReader, StateWriter};
use ucp_bpred::history::MAX_FOLDS;
use ucp_bpred::{
    push_target_history, ConfidenceEstimator, FoldSpec, HistCheckpoint, HistoryState, Ittage,
    IttageParams, PathHistory, Provider, ScParams, SclPreset, TageConf, TageParams, TageScL,
    UcpConf,
};

/// Recomputes one folded register from the raw history with the textbook
/// variable-shift update, independently of [`HistoryState`].
fn fold_reference(history: &[bool], spec: FoldSpec) -> u32 {
    let olen = spec.olen as usize;
    let mut comp = 0u32;
    for (i, &b) in history.iter().enumerate() {
        let out = if i >= olen {
            u32::from(history[i - olen])
        } else {
            0
        };
        comp = (comp << 1) | u32::from(b);
        comp ^= out << (spec.olen % spec.clen);
        comp ^= comp >> spec.clen;
        comp &= (1 << spec.clen) - 1;
    }
    comp
}

/// The fold layouts the simulator builds histories with.
fn fold_layouts() -> Vec<(&'static str, Vec<FoldSpec>)> {
    let scl = |t: TageParams, s: ScParams| {
        let mut v = t.fold_specs();
        v.extend(s.fold_specs());
        v
    };
    vec![
        ("Main64K", scl(TageParams::main_64k(), ScParams::main_64k())),
        ("Alt8K", scl(TageParams::alt_8k(), ScParams::alt_8k())),
        ("ITTAGE-64K", IttageParams::main_64k().fold_specs()),
        ("Alt-4K", IttageParams::alt_4k().fold_specs()),
    ]
}

/// Capacity of the histories' circular bit buffer.
const BUFFER_BITS: usize = 8192;

/// The fold the textbook update leaves after `history`. It depends only on
/// the last `olen` bits (each bit is cancelled as it leaves the window),
/// so only those are replayed.
fn fold_of(history: &[bool], spec: FoldSpec) -> u32 {
    fold_reference(
        &history[history.len().saturating_sub(spec.olen as usize)..],
        spec,
    )
}

/// A textbook model of a history's bytes: the architectural bits, and
/// the circular buffer with every bit ever written, wrong-path ones
/// included (a restore rewinds the pointer, not the buffer).
struct HistoryModel {
    raw: Vec<bool>,
    buffer: Vec<bool>,
}

impl HistoryModel {
    fn new() -> Self {
        HistoryModel {
            raw: Vec::new(),
            buffer: vec![false; BUFFER_BITS],
        }
    }

    fn push(&mut self, b: bool) {
        self.buffer[self.raw.len() % BUFFER_BITS] = b;
        self.raw.push(b);
    }

    /// The history's bytes: the pointer, the buffer as a table of 64-bit
    /// words, then the fold count and the folds.
    fn history_bytes(&self, specs: &[FoldSpec]) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(self.raw.len() as u64);
        w.put_usize(BUFFER_BITS / 64);
        for word in self.buffer.chunks(64) {
            w.put_u64(word.iter().rev().fold(0, |acc, &b| acc << 1 | u64::from(b)));
        }
        w.put_usize(specs.len());
        for &spec in specs {
            w.put_u32(fold_of(&self.raw, spec));
        }
        w.into_bytes()
    }

    /// A checkpoint's bytes when the history was `len` bits long: the
    /// pointer, the fold count and the folds, zero-padded to
    /// [`MAX_FOLDS`] slots.
    fn checkpoint_bytes(&self, specs: &[FoldSpec], len: usize) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(len as u64);
        w.put_u8(specs.len() as u8);
        for i in 0..MAX_FOLDS {
            w.put_u32(
                specs
                    .get(i)
                    .map_or(0, |&spec| fold_of(&self.raw[..len], spec)),
            );
        }
        w.into_bytes()
    }
}

fn warm_bit(i: u64) -> bool {
    (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63) == 1
}

fn bytes_of(save: impl FnOnce(&mut StateWriter)) -> Vec<u8> {
    let mut w = StateWriter::new();
    save(&mut w);
    w.into_bytes()
}

/// A path history with `n` pseudo-random bits pushed.
fn warmed_path_history(specs: &[FoldSpec], n: u64) -> PathHistory {
    let mut h = PathHistory::new(specs);
    for i in 0..n {
        h.push(warm_bit(i));
    }
    h
}

/// A conditional history with the same `n` bits pushed.
fn warmed_history(specs: &[FoldSpec], n: u64) -> HistoryState {
    let mut h = HistoryState::new(specs);
    for i in 0..n {
        h.push(warm_bit(i));
    }
    h
}

/// One step of a random history workout.
#[derive(Clone, Debug)]
enum HistOp {
    Push(bool),
    Push2(bool, bool),
    Checkpoint,
    Restore,
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    (0u8..14, any::<bool>(), any::<bool>()).prop_map(|(k, a, b)| match k {
        0..=5 => HistOp::Push(a),
        6..=11 => HistOp::Push2(a, b),
        12 => HistOp::Checkpoint,
        _ => HistOp::Restore,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Predicting is a pure function of (tables, history): repeated calls
    /// without updates return identical predictions.
    #[test]
    fn predict_is_pure(outcomes in proptest::collection::vec(any::<bool>(), 1..300), pc in 1u64..4096) {
        let mut bp = TageScL::new(SclPreset::Alt8K);
        let mut h = bp.new_history();
        let pc = Addr::new(pc * 4);
        for &o in &outcomes {
            let a = bp.predict(&h, pc);
            let b = bp.predict(&h, pc);
            prop_assert_eq!(a.taken, b.taken);
            prop_assert_eq!(a.provider, b.provider);
            bp.update(pc, &a, o);
            h.push(o);
        }
    }

    /// Two predictors fed identical streams stay bit-identical in their
    /// observable behaviour.
    #[test]
    fn training_is_deterministic(
        stream in proptest::collection::vec((0u64..64, any::<bool>()), 1..400),
    ) {
        let mut bp1 = TageScL::new(SclPreset::Alt8K);
        let mut h1 = bp1.new_history();
        let mut bp2 = TageScL::new(SclPreset::Alt8K);
        let mut h2 = bp2.new_history();
        for &(pc_i, o) in &stream {
            let pc = Addr::new(0x100 + pc_i * 4);
            let p1 = bp1.predict(&h1, pc);
            let p2 = bp2.predict(&h2, pc);
            prop_assert_eq!(p1.taken, p2.taken);
            bp1.update(pc, &p1, o);
            bp2.update(pc, &p2, o);
            h1.push(o);
            h2.push(o);
        }
    }

    /// An always-taken branch converges to near-perfect accuracy whatever
    /// noise preceded it.
    #[test]
    fn converges_on_constant_branch(noise in proptest::collection::vec(any::<bool>(), 0..100)) {
        let mut bp = TageScL::new(SclPreset::Alt8K);
        let mut h = bp.new_history();
        let pc = Addr::new(0x2000);
        for &o in &noise {
            let p = bp.predict(&h, pc);
            bp.update(pc, &p, o);
            h.push(o);
        }
        let mut correct = 0;
        for _ in 0..200 {
            let p = bp.predict(&h, pc);
            correct += u32::from(p.taken);
            bp.update(pc, &p, true);
            h.push(true);
        }
        prop_assert!(correct >= 190, "constant branch must converge: {correct}/200");
    }

    /// Confidence estimators are consistent with the provider taxonomy:
    /// UCP-Conf never trusts AltBank or SC, always trusts LP.
    #[test]
    fn ucp_conf_taxonomy(
        stream in proptest::collection::vec((0u64..32, any::<bool>()), 50..300),
    ) {
        let mut bp = TageScL::new(SclPreset::Alt8K);
        let mut h = bp.new_history();
        for &(pc_i, o) in &stream {
            let pc = Addr::new(0x100 + pc_i * 4);
            let p = bp.predict(&h, pc);
            match p.provider {
                Provider::AltBank | Provider::Sc => prop_assert!(UcpConf.is_h2p(&p)),
                Provider::LoopPred => prop_assert!(!UcpConf.is_h2p(&p)),
                _ => {}
            }
            // Both estimators agree on saturated clean bimodal = confident.
            if p.provider == Provider::Bimodal && p.tage.provider_saturated() && !p.bim_low8 {
                prop_assert!(!TageConf.is_h2p(&p));
                prop_assert!(!UcpConf.is_h2p(&p));
            }
            bp.update(pc, &p, o);
            h.push(o);
        }
    }

    /// ITTAGE only ever predicts targets it has been trained with.
    #[test]
    fn ittage_predicts_only_seen_targets(
        stream in proptest::collection::vec(0u8..4, 20..200),
    ) {
        let mut it = Ittage::new(IttageParams::alt_4k());
        let mut h = it.new_history();
        let pc = Addr::new(0x300);
        let targets: Vec<Addr> = (0..4).map(|k| Addr::new(0x8000 + k * 0x40)).collect();
        for &k in &stream {
            let p = it.predict(&h, pc);
            if let Some(t) = p.target {
                prop_assert!(targets.contains(&t), "invented target {t}");
            }
            let actual = targets[k as usize];
            it.update(pc, &p, actual);
            push_target_history(&mut h, actual);
        }
    }

    /// Checkpoint/restore leaves a predictor's view of any history-derived
    /// prediction unchanged.
    #[test]
    fn checkpoint_transparency(
        pre in proptest::collection::vec(any::<bool>(), 1..200),
        spec in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let bp = TageScL::new(SclPreset::Alt8K);
        let mut h = bp.new_history();
        for &o in &pre {
            h.push(o);
        }
        let pc = Addr::new(0x500);
        let before = bp.predict(&h, pc);
        let cp = h.checkpoint();
        for &o in &spec {
            h.push(o);
        }
        h.restore(&cp);
        let after = bp.predict(&h, pc);
        prop_assert_eq!(before.taken, after.taken);
        prop_assert_eq!(before.provider, after.provider);
        prop_assert_eq!(before.sc.sum, after.sc.sum);
    }

    /// After any mix of single and fused pushes, checkpoints and restores,
    /// every fold of every simulator layout equals its recomputation from
    /// the raw (restored) history.
    #[test]
    fn folds_match_reference_after_random_ops(
        ops in proptest::collection::vec(hist_op(), 1..700),
    ) {
        for (name, specs) in fold_layouts() {
            let mut h = HistoryState::new(&specs);
            let mut raw: Vec<bool> = Vec::new();
            let mut saved: Vec<(HistCheckpoint, usize)> = Vec::new();
            for op in &ops {
                match *op {
                    HistOp::Push(b) => {
                        h.push(b);
                        raw.push(b);
                    }
                    HistOp::Push2(a, b) => {
                        h.push(a);
                        h.push(b);
                        raw.extend([a, b]);
                    }
                    HistOp::Checkpoint => saved.push((h.checkpoint(), raw.len())),
                    HistOp::Restore => {
                        if let Some((cp, len)) = saved.pop() {
                            h.restore(&cp);
                            raw.truncate(len);
                        }
                    }
                }
            }
            prop_assert_eq!(h.position(), raw.len() as u64);
            for (i, &spec) in specs.iter().enumerate() {
                prop_assert_eq!(h.folded(i), fold_reference(&raw, spec), "{} fold {}", name, i);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both history kinds, fed the same pushes, checkpoints and restores
    /// (a restore drops every younger checkpoint, as a flush drops younger
    /// records), read the folds and write the bytes of a textbook model:
    /// the raw bits folded by the variable-shift update, and a buffer of
    /// every bit written. Checked on every simulator layout, after every
    /// restore and for every live checkpoint; the registers `push` keeps
    /// are checked after every step. The warm-up wraps the buffer.
    #[test]
    fn derived_folds_and_bytes_match_a_textbook_model(
        warm in BUFFER_BITS as u64..20_000,
        ops in proptest::collection::vec(hist_op(), 1..500),
    ) {
        for (name, specs) in fold_layouts() {
            let mut lazy = PathHistory::new(&specs);
            let mut eager = HistoryState::new(&specs);
            let mut model = HistoryModel::new();
            for i in 0..warm {
                lazy.push(warm_bit(i));
                eager.push(warm_bit(i));
                model.push(warm_bit(i));
            }
            let mut live: Vec<(HistCheckpoint, HistCheckpoint, usize)> = Vec::new();
            for op in &ops {
                match *op {
                    HistOp::Push(b) => {
                        lazy.push(b);
                        eager.push(b);
                        model.push(b);
                    }
                    HistOp::Push2(a, b) => {
                        lazy.push2(a, b);
                        eager.push(a);
                        eager.push(b);
                        model.push(a);
                        model.push(b);
                    }
                    HistOp::Checkpoint => {
                        live.push((lazy.checkpoint(), eager.checkpoint(), model.raw.len()));
                    }
                    HistOp::Restore => {
                        if let Some((lcp, ecp, len)) = live.pop() {
                            lazy.restore(&lcp);
                            eager.restore(&ecp);
                            model.raw.truncate(len);
                            for (i, &spec) in specs.iter().enumerate() {
                                let want = fold_of(&model.raw, spec);
                                prop_assert_eq!(eager.folded(i), want, "{} fold {}", name, i);
                                prop_assert_eq!(lazy.folded(i), want, "{} path fold {}", name, i);
                            }
                        }
                    }
                }
                // The registers `push` keeps, which every prediction reads,
                // against the folds derived from the ring.
                for i in 0..specs.len() {
                    prop_assert_eq!(eager.folded(i), lazy.folded(i), "{} fold {} after {:?}", name, i, op);
                }
            }
            prop_assert_eq!(eager.position(), model.raw.len() as u64);
            prop_assert_eq!(lazy.position(), model.raw.len() as u64);
            for (i, &spec) in specs.iter().enumerate() {
                prop_assert_eq!(eager.folded(i), fold_of(&model.raw, spec), "{} final fold {}", name, i);
            }
            let want = model.history_bytes(&specs);
            prop_assert!(bytes_of(|w| eager.save_state(w)) == want, "{} history bytes", name);
            prop_assert!(bytes_of(|w| lazy.save_state(w)) == want, "{} path history bytes", name);
            let mut back = HistoryState::new(&specs);
            let mut r = StateReader::new(&want);
            back.restore_state(&mut r);
            r.finish();
            for (i, &spec) in specs.iter().enumerate() {
                prop_assert_eq!(back.folded(i), fold_of(&model.raw, spec), "{} restored fold {}", name, i);
            }
            for (lcp, ecp, len) in &live {
                let want = model.checkpoint_bytes(&specs, *len);
                prop_assert!(bytes_of(|w| eager.save_checkpoint(ecp, w)) == want, "{} checkpoint bytes", name);
                prop_assert!(bytes_of(|w| lazy.save_checkpoint(lcp, w)) == want, "{} path checkpoint bytes", name);
                let mut r = StateReader::new(&want);
                prop_assert_eq!(back.restore_checkpoint(&mut r), *ecp);
                r.finish();
            }
        }
    }
}

/// A stored fold that disagrees with the restored buffer is rejected, in
/// the history's own bytes and in a checkpoint's, by both history kinds on
/// every simulator layout.
#[test]
fn a_fold_that_disagrees_with_the_buffer_is_rejected() {
    for (name, specs) in fold_layouts() {
        let path = warmed_path_history(&specs, 3_000);
        let cond = warmed_history(&specs, 3_000);
        let state = bytes_of(|w| cond.save_state(w));
        assert!(state == bytes_of(|w| path.save_state(w)), "{name}");
        let cp_bytes = bytes_of(|w| cond.save_checkpoint(&cond.checkpoint(), w));
        assert!(
            cp_bytes == bytes_of(|w| path.save_checkpoint(&path.checkpoint(), w)),
            "{name}"
        );
        let n = specs.len();
        // Flip a low bit of each stored fold in turn: the history's folds
        // are its last `n` words; a checkpoint's follow its pointer and
        // count (9 bytes).
        for i in 0..n {
            let mut bad = state.clone();
            bad[state.len() - 4 * (n - i)] ^= 1;
            assert_rejected(&format!("{name} path history fold {i}"), || {
                PathHistory::new(&specs).restore_state(&mut StateReader::new(&bad));
            });
            assert_rejected(&format!("{name} history fold {i}"), || {
                HistoryState::new(&specs).restore_state(&mut StateReader::new(&bad));
            });
            let mut bad = cp_bytes.clone();
            bad[9 + 4 * i] ^= 1;
            assert_rejected(&format!("{name} path checkpoint fold {i}"), || {
                path.restore_checkpoint(&mut StateReader::new(&bad));
            });
            assert_rejected(&format!("{name} checkpoint fold {i}"), || {
                cond.restore_checkpoint(&mut StateReader::new(&bad));
            });
        }
    }
}

fn assert_rejected(what: &str, restore: impl FnOnce() + std::panic::UnwindSafe) {
    let err = std::panic::catch_unwind(restore).expect_err("corrupt state must be rejected");
    assert!(
        panic_text(&err).contains("checkpoint state corrupt"),
        "{what}: {}",
        panic_text(&err)
    );
}

#[test]
#[should_panic(expected = "checkpoint state corrupt")]
fn a_hand_crafted_path_checkpoint_with_a_wrong_fold_panics() {
    let specs = IttageParams::alt_4k().fold_specs();
    let h = warmed_path_history(&specs, 500);
    let mut w = StateWriter::new();
    w.put_u64(h.position());
    w.put_u8(specs.len() as u8);
    for i in 0..specs.len() {
        // Every fold right but the third.
        w.put_u32(h.folded(i) ^ u32::from(i == 2));
    }
    for _ in specs.len()..MAX_FOLDS {
        w.put_u32(0);
    }
    h.restore_checkpoint(&mut StateReader::new(w.bytes()));
}

fn panic_text(err: &Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}
