//! Speculative global histories with folded (compressed) views and O(1)
//! checkpoint/restore.
//!
//! TAGE-family predictors index their tables with hashes of very long
//! global histories. A *folded history* compresses the last `olen` history
//! bits into a `clen`-bit value: the bit `k` pushes ago lands in bit
//! `k mod clen`. Both history kinds keep the bits in one circular buffer
//! with a monotonic write pointer and differ in when they fold:
//!
//! * [`PathHistory`] (ITTAGE target paths) is pushed on every taken branch
//!   but read only by the rare indirect prediction, so a push writes only
//!   the buffer and [`PathHistory::folded`] folds the window when asked;
//! * [`HistoryState`] (conditional outcomes: TAGE, SC) is read on every
//!   prediction, so it is a path history plus a register per fold,
//!   updated as bits are pushed.
//!
//! Either way a [`HistCheckpoint`] is the write pointer alone, and the
//! folds at a checkpoint are derived from the buffer: when it is
//! serialized, and, for a [`HistoryState`], when it is restored.
//!
//! Restoring a checkpoint never rewinds the buffer: positions at and past
//! the restored pointer are rewritten before they are read back. Folds
//! derived for a checkpoint are exact only while its window
//! `[ptr − olen, ptr)` is intact. That holds because a flush discards
//! every record younger than the one it restores, so the buffer is only
//! ever rewritten ahead of every live checkpoint, and the buffer is longer
//! than the longest history plus the in-flight run-ahead
//! ([`PathHistory::restore`] and the checkpoint codec assert the latter).

use serde::Serialize;
use sim_isa::{State, StateReader, StateWriter};

/// Capacity of the circular history buffer in bits. Must exceed the longest
/// history length plus the deepest speculative run-ahead.
const GHR_CAPACITY_BITS: usize = 8192;
const GHR_WORDS: usize = GHR_CAPACITY_BITS / 64;

/// Maximum folded views a history can carry, and the fold slots a
/// serialized [`HistCheckpoint`] always holds.
pub const MAX_FOLDS: usize = 56;

/// Specification of one folded history register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct FoldSpec {
    /// Original (uncompressed) history length in bits.
    pub olen: u32,
    /// Compressed register width in bits (1..=16).
    pub clen: u32,
}

/// The folds a TAGE-style predictor reads per tagged table, for each
/// history length: the index (`log_entries` bits) and the two tag parts
/// (`tag_bits` and `tag_bits − 1` bits).
pub(crate) fn tagged_fold_specs(
    hist_len: &[u32],
    log_entries: u32,
    tag_bits: u32,
) -> Vec<FoldSpec> {
    hist_len
        .iter()
        .flat_map(|&olen| [log_entries, tag_bits, tag_bits - 1].map(|clen| FoldSpec { olen, clen }))
        .collect()
}

/// Checks a fold layout and returns its longest history.
fn max_olen(specs: &[FoldSpec]) -> u32 {
    assert!(specs.len() <= MAX_FOLDS, "too many folded histories");
    for s in specs {
        assert!(s.clen >= 1 && s.clen <= 16, "clen out of range");
        assert!(s.olen >= 1, "olen must be nonzero");
    }
    let max_olen = specs.iter().map(|s| s.olen).max().unwrap_or(1);
    assert!(
        (max_olen as usize) < GHR_CAPACITY_BITS / 2,
        "history length {max_olen} too large for buffer"
    );
    max_olen
}

/// The circular bit buffer and its monotonic write pointer, shared by
/// both history kinds.
#[derive(Clone)]
struct Ring {
    bits: Box<[u64; GHR_WORDS]>,
    /// Monotonic bit write position (mod capacity when indexing).
    ptr: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            bits: Box::new([0; GHR_WORDS]),
            ptr: 0,
        }
    }

    fn copy_from(&mut self, source: &Ring) {
        *self.bits = *source.bits;
        self.ptr = source.ptr;
    }

    #[inline]
    fn bit_at(&self, pos: u64) -> u32 {
        let p = (pos % GHR_CAPACITY_BITS as u64) as usize;
        ((self.bits[p / 64] >> (p % 64)) & 1) as u32
    }

    #[inline]
    fn set_bit(&mut self, pos: u64, bit: u32) {
        let p = (pos % GHR_CAPACITY_BITS as u64) as usize;
        let w = &mut self.bits[p / 64];
        *w = (*w & !(1u64 << (p % 64))) | ((bit as u64) << (p % 64));
    }

    /// The bit leaving a window of `olen` bits when the bit at `pos` is
    /// pushed, as all ones or all zeros; zero during the cold start.
    #[inline]
    fn out_bit(&self, pos: u64, olen: u32) -> u32 {
        let olen = u64::from(olen);
        if pos >= olen {
            self.bit_at(pos - olen).wrapping_neg()
        } else {
            0
        }
    }

    /// The 64 bits from position `pos` on, bit `i` holding position
    /// `pos + i`.
    #[inline]
    fn word_at(&self, pos: u64) -> u64 {
        let p = (pos % GHR_CAPACITY_BITS as u64) as usize;
        let (w, o) = (p / 64, p % 64);
        let lo = self.bits[w] >> o;
        if o == 0 {
            lo
        } else {
            lo | self.bits[(w + 1) % GHR_WORDS] << (64 - o)
        }
    }

    /// The value an incrementally updated fold of `spec` holds when the
    /// write pointer is `end`: the bit `k` positions before `end − 1`
    /// lands in bit `k mod clen`, and positions before 0 read as zero.
    fn fold_at(&self, end: u64, spec: FoldSpec) -> u32 {
        let c = spec.clen;
        let len = end.min(u64::from(spec.olen));
        let start = end - len;
        // Fold the window in position order, offset `t` into bit
        // `t mod c` (kept in `r`: no division per word), one 64-bit word
        // at a time...
        let step = 64 % c;
        let (mut f, mut t, mut r) = (0, 0, 0);
        while t < len {
            let mut word = self.word_at(start + t);
            if len - t < 64 {
                word &= (1 << (len - t)) - 1;
            }
            f ^= rotl(fold_word(word, c), r, c);
            t += 64;
            r += step;
            if r >= c {
                r -= c;
            }
        }
        // ...then turn offsets into ages (`len − 1 − t`): reflect the bits
        // and rotate by `len mod c` (`len ≤ olen` fits a `u32`).
        rotl(f.reverse_bits() >> (32 - c), len as u32 % c, c)
    }
}

/// XOR-folds `word` into `c` bits, bit `i` into bit `i mod c`. The trip
/// count depends on `c` alone, so the loop branch predicts.
#[inline]
fn fold_word(word: u64, c: u32) -> u32 {
    let mask = (1u64 << c) - 1;
    let mut f = 0;
    let mut s = 0;
    while s < 64 {
        f ^= (word >> s) & mask;
        s += c;
    }
    f as u32
}

/// Rotates the `c`-bit value `x` left by `r < c`.
#[inline]
fn rotl(x: u32, r: u32, c: u32) -> u32 {
    if r == 0 {
        x
    } else {
        ((x << r) | (x >> (c - r))) & ((1 << c) - 1)
    }
}

/// The write pointer, then the buffer as a fixed table.
impl State for Ring {
    fn save_state(&self, w: &mut StateWriter) {
        let Ring { bits, ptr } = self;
        ptr.save_state(w);
        bits.len().save_state(w);
        bits.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        let Ring { bits, ptr } = self;
        ptr.restore_state(r);
        sim_isa::state::restore_geometry(&bits.len(), r, "history buffer words");
        bits.restore_state(r);
    }
}

/// The constants one fold's update needs, precomputed so that a push
/// shifts each register by exactly one and masks with fixed values.
#[derive(Clone, Copy, Debug, Default)]
struct FoldShape {
    /// `1 << (olen % clen)`: where the outgoing bit is cancelled.
    out_mask: u32,
    /// `1 << clen`: the bit a one-bit shift carries out of the register.
    top: u32,
}

impl FoldShape {
    fn new(spec: FoldSpec) -> Self {
        FoldShape {
            out_mask: 1 << (spec.olen % spec.clen),
            top: 1 << spec.clen,
        }
    }

    /// Shifts `new_bit` into `comp`, cancels `out_bit` (all ones or all
    /// zeros) and wraps the carried-out bit back into bit 0.
    #[inline(always)]
    fn step(self, comp: u32, new_bit: u32, out_bit: u32) -> u32 {
        let c = ((comp << 1) | new_bit) ^ (self.out_mask & out_bit);
        // The carry is as random as the history bits: keep it branch-free.
        std::hint::select_unpredictable(c >= self.top, c ^ (self.top | 1), c)
    }
}

/// A run of consecutive folds with one history length: the bit leaving
/// their window is read once per push for the whole run.
#[derive(Clone, Copy, Debug, Default)]
struct FoldGroup {
    olen: u32,
    /// One past the group's last fold index.
    end: u8,
}

/// A checkpoint of a [`PathHistory`] or [`HistoryState`]: the write
/// pointer alone, taken before each prediction and restored on a pipeline
/// flush. The folds at that pointer are derived from the history it was
/// taken on, so only that history can serialize it
/// ([`PathHistory::save_checkpoint`]) or restore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistCheckpoint {
    ptr: u64,
}

/// A checkpoint's serialized form: what an eagerly folding history's
/// checkpoint held, the write pointer, the fold count and every fold,
/// zero-padded to [`MAX_FOLDS`] slots.
#[derive(PartialEq, Eq)]
struct SavedCheckpoint {
    ptr: u64,
    n: u8,
    comps: [u32; MAX_FOLDS],
}

sim_isa::state_fields!(SavedCheckpoint { ptr, n, comps } skip {});

/// A speculative path history whose folds are computed from the buffer
/// when read (see the module docs). A push writes only the buffer.
///
/// Its bytes are the buffer, the fold count and the folds, derived on save
/// and checked against the buffer on restore.
pub struct PathHistory {
    ring: Ring,
    specs: Vec<FoldSpec>,
    max_olen: u32,
    /// The furthest the write pointer has reached, so the window checks
    /// also see wrong-path bits a restore rewound past.
    high: u64,
}

impl Clone for PathHistory {
    fn clone(&self) -> Self {
        PathHistory {
            ring: self.ring.clone(),
            specs: self.specs.clone(),
            max_olen: self.max_olen,
            high: self.high,
        }
    }

    /// Copies `source` without allocating when both histories share a
    /// geometry (the UCP engine re-seeds its walk histories this way).
    fn clone_from(&mut self, source: &Self) {
        self.ring.copy_from(&source.ring);
        self.specs.clone_from(&source.specs);
        self.max_olen = source.max_olen;
        self.high = source.high;
    }
}

impl std::fmt::Debug for PathHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathHistory")
            .field("ptr", &self.ring.ptr)
            .field("folds", &self.specs.len())
            .field("max_olen", &self.max_olen)
            .finish()
    }
}

impl PathHistory {
    /// Creates a path history with the given folded views.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_FOLDS`] folds are requested or any history
    /// length exceeds the buffer's safe window.
    pub fn new(specs: &[FoldSpec]) -> Self {
        PathHistory {
            ring: Ring::new(),
            specs: specs.to_vec(),
            max_olen: max_olen(specs),
            high: 0,
        }
    }

    /// Pushes one history bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.ring.set_bit(self.ring.ptr, u32::from(bit));
        self.ring.ptr += 1;
    }

    /// Pushes two history bits, `first` then `second`.
    #[inline]
    pub fn push2(&mut self, first: bool, second: bool) {
        self.push(first);
        self.push(second);
    }

    /// The folded value of view `i`, computed from the buffer.
    pub fn folded(&self, i: usize) -> u32 {
        self.ring.fold_at(self.ring.ptr, self.specs[i])
    }

    /// Total bits pushed so far.
    #[inline]
    pub fn position(&self) -> u64 {
        self.ring.ptr
    }

    /// Captures the write pointer.
    #[inline]
    pub fn checkpoint(&self) -> HistCheckpoint {
        HistCheckpoint { ptr: self.ring.ptr }
    }

    /// Restores a checkpoint taken earlier on this history.
    ///
    /// # Panics
    ///
    /// Panics if bits pushed since the checkpoint may have overwritten
    /// its window.
    #[inline]
    pub fn restore(&mut self, cp: &HistCheckpoint) {
        self.high = self.high.max(self.ring.ptr);
        self.assert_window_intact(cp);
        self.ring.ptr = cp.ptr;
    }

    /// The ring invariant: no bit pushed since `cp` was taken, on any path,
    /// has wrapped around onto `cp`'s longest window.
    fn assert_window_intact(&self, cp: &HistCheckpoint) {
        let high = self.high.max(self.ring.ptr);
        assert!(
            self.window_holds(cp.ptr, high),
            "history checkpoint at {} outside the buffer window ending at {high}",
            cp.ptr
        );
    }

    /// Whether the longest window ending at `end` survives pushes up to
    /// `high` without being wrapped over.
    fn window_holds(&self, end: u64, high: u64) -> bool {
        end <= high && high - end + u64::from(self.max_olen) <= GHR_CAPACITY_BITS as u64
    }

    /// Every fold at write pointer `end`, zero-padded to [`MAX_FOLDS`]. A
    /// fold with the same spec as the one before it (a TAGE table's index
    /// and first tag fold) is folded once.
    fn folds_at(&self, end: u64) -> [u32; MAX_FOLDS] {
        let mut folds = [0; MAX_FOLDS];
        let mut prev: Option<(FoldSpec, u32)> = None;
        for (f, &spec) in folds.iter_mut().zip(&self.specs) {
            *f = match prev {
                Some((p, v)) if p == spec => v,
                _ => self.ring.fold_at(end, spec),
            };
            prev = Some((spec, *f));
        }
        folds
    }

    /// The bytes an eagerly folding history would have written for `cp`.
    fn saved_checkpoint(&self, cp: &HistCheckpoint) -> SavedCheckpoint {
        SavedCheckpoint {
            ptr: cp.ptr,
            n: self.specs.len() as u8,
            comps: self.folds_at(cp.ptr),
        }
    }

    /// Writes `cp`, a checkpoint of this history still in flight, as the
    /// pointer, fold count and zero-padded folds an eagerly folding
    /// history would write.
    pub fn save_checkpoint(&self, cp: &HistCheckpoint, w: &mut StateWriter) {
        self.assert_window_intact(cp);
        self.saved_checkpoint(cp).save_state(w);
    }

    /// Reads a checkpoint of this history written by
    /// [`PathHistory::save_checkpoint`]. The buffer must already be
    /// restored.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is not one this history could have
    /// written: a fold count, fold or padding slot that disagrees with the
    /// buffer, or a window the buffer no longer holds.
    pub fn restore_checkpoint(&self, r: &mut StateReader) -> HistCheckpoint {
        let mut saved = SavedCheckpoint {
            ptr: 0,
            n: 0,
            comps: [0; MAX_FOLDS],
        };
        saved.restore_state(r);
        let cp = HistCheckpoint { ptr: saved.ptr };
        assert!(
            self.window_holds(cp.ptr, self.ring.ptr),
            "checkpoint state corrupt: history checkpoint outside the buffer window"
        );
        assert!(
            saved == self.saved_checkpoint(&cp),
            "checkpoint state corrupt: checkpoint folds disagree with the history buffer"
        );
        cp
    }
}

/// The buffer, the fold count, then the folds, derived on save and
/// checked against the buffer on restore.
impl State for PathHistory {
    fn save_state(&self, w: &mut StateWriter) {
        let n = self.specs.len();
        self.ring.save_state(w);
        n.save_state(w);
        self.folds_at(self.ring.ptr)[..n].save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        let n = self.specs.len();
        self.ring.restore_state(r);
        self.high = self.ring.ptr;
        sim_isa::state::restore_geometry(&n, r, "history fold count");
        let mut folds = [0; MAX_FOLDS];
        folds[..n].restore_state(r);
        assert!(
            folds == self.folds_at(self.ring.ptr),
            "checkpoint state corrupt: folds disagree with the history buffer"
        );
    }
}

/// A speculative global history whose folds are also registers updated on
/// every push (see the module docs): a [`PathHistory`] plus those
/// registers.
///
/// The same type serves any history read on every prediction; what the
/// bits mean is up to the pusher. Checkpoints, their codec and the
/// history's bytes are the path history's: a restore re-derives the
/// registers from the buffer.
pub struct HistoryState {
    path: PathHistory,
    comps: [u32; MAX_FOLDS],
    shapes: [FoldShape; MAX_FOLDS],
    groups: Vec<FoldGroup>,
}

impl Clone for HistoryState {
    fn clone(&self) -> Self {
        HistoryState {
            path: self.path.clone(),
            comps: self.comps,
            shapes: self.shapes,
            groups: self.groups.clone(),
        }
    }

    /// Copies `source` without allocating when both histories share a
    /// geometry (the UCP engine re-seeds its walk histories this way).
    fn clone_from(&mut self, source: &Self) {
        self.path.clone_from(&source.path);
        self.comps = source.comps;
        self.shapes = source.shapes;
        self.groups.clone_from(&source.groups);
    }
}

impl std::fmt::Debug for HistoryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryState")
            .field("ptr", &self.path.ring.ptr)
            .field("folds", &self.path.specs.len())
            .finish()
    }
}

impl HistoryState {
    /// Creates a history with the given folded views.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_FOLDS`] folds are requested or any history
    /// length exceeds the buffer's safe window.
    pub fn new(specs: &[FoldSpec]) -> Self {
        let path = PathHistory::new(specs);
        let mut shapes = [FoldShape::default(); MAX_FOLDS];
        let mut groups: Vec<FoldGroup> = Vec::new();
        for (i, &spec) in specs.iter().enumerate() {
            shapes[i] = FoldShape::new(spec);
            match groups.last_mut() {
                Some(g) if g.olen == spec.olen => g.end += 1,
                _ => groups.push(FoldGroup {
                    olen: spec.olen,
                    end: i as u8 + 1,
                }),
            }
        }
        HistoryState {
            path,
            comps: [0; MAX_FOLDS],
            shapes,
            groups,
        }
    }

    /// Pushes one history bit, updating every folded view.
    pub fn push(&mut self, bit: bool) {
        let new_bit = u32::from(bit);
        let ring = &mut self.path.ring;
        let ptr = ring.ptr;
        ring.set_bit(ptr, new_bit);
        let mut start = 0;
        for g in 0..self.groups.len() {
            let FoldGroup { olen, end } = self.groups[g];
            let out = ring.out_bit(ptr, olen);
            let end = usize::from(end);
            for (c, shape) in self.comps[start..end]
                .iter_mut()
                .zip(&self.shapes[start..end])
            {
                *c = shape.step(*c, new_bit, out);
            }
            start = end;
        }
        ring.ptr = ptr + 1;
    }

    /// The folded value of view `i`.
    #[inline]
    pub fn folded(&self, i: usize) -> u32 {
        debug_assert!(i < self.num_folds(), "fold {i} out of range");
        self.comps[i]
    }

    /// Number of folded views.
    #[inline]
    pub fn num_folds(&self) -> usize {
        self.path.specs.len()
    }

    /// Total bits pushed so far.
    #[inline]
    pub fn position(&self) -> u64 {
        self.path.position()
    }

    /// Captures the write pointer.
    #[inline]
    pub fn checkpoint(&self) -> HistCheckpoint {
        self.path.checkpoint()
    }

    /// Restores a checkpoint taken earlier on this history and re-derives
    /// the fold registers from the buffer. Out of line: it runs once per
    /// flush, and its folding loops would bloat every caller.
    ///
    /// # Panics
    ///
    /// Panics if bits pushed since the checkpoint may have overwritten
    /// its window.
    #[inline(never)]
    pub fn restore(&mut self, cp: &HistCheckpoint) {
        self.path.restore(cp);
        self.comps = self.path.folds_at(cp.ptr);
    }

    /// Writes `cp`, a checkpoint of this history still in flight (see
    /// [`PathHistory::save_checkpoint`]).
    pub fn save_checkpoint(&self, cp: &HistCheckpoint, w: &mut StateWriter) {
        self.path.save_checkpoint(cp, w);
    }

    /// Reads a checkpoint of this history (see
    /// [`PathHistory::restore_checkpoint`]).
    pub fn restore_checkpoint(&self, r: &mut StateReader) -> HistCheckpoint {
        self.path.restore_checkpoint(r)
    }
}

/// The path history's bytes; a restore re-derives the registers, so
/// stored folds that disagree with the buffer are rejected.
impl State for HistoryState {
    fn save_state(&self, w: &mut StateWriter) {
        self.path.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        self.path.restore_state(r);
        self.comps = self.path.folds_at(self.path.ring.ptr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<FoldSpec> {
        vec![
            FoldSpec { olen: 5, clen: 5 },
            FoldSpec { olen: 16, clen: 11 },
            FoldSpec {
                olen: 130,
                clen: 11,
            },
        ]
    }

    /// Reference: recompute the fold from the raw history with the
    /// textbook variable-shift update.
    fn fold_reference(history: &[bool], spec: FoldSpec) -> u32 {
        let mut comp = 0u32;
        for (i, &b) in history.iter().enumerate() {
            let out = if i >= spec.olen as usize {
                u32::from(history[i - spec.olen as usize])
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

    #[test]
    fn folds_match_reference_recomputation() {
        let mut h = HistoryState::new(&specs());
        let mut raw = Vec::new();
        let mut x = 0x12345u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 62) & 1 == 1;
            h.push(b);
            raw.push(b);
        }
        for (i, s) in specs().iter().enumerate() {
            assert_eq!(h.folded(i), fold_reference(&raw, *s), "fold {i}");
        }
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut h = HistoryState::new(&specs());
        for i in 0..300 {
            h.push(i % 3 == 0);
        }
        let cp = h.checkpoint();
        let saved: Vec<u32> = (0..h.num_folds()).map(|i| h.folded(i)).collect();
        // Wrong-path pushes.
        for i in 0..50 {
            h.push(i % 2 == 0);
        }
        h.restore(&cp);
        let now: Vec<u32> = (0..h.num_folds()).map(|i| h.folded(i)).collect();
        assert_eq!(saved, now);
        assert_eq!(h.position(), 300);
    }

    #[test]
    fn restore_then_divergent_future_stays_consistent() {
        // After restore, pushing the *correct* outcomes must give the same
        // folds as a history that never went down the wrong path.
        let mut a = HistoryState::new(&specs());
        let mut b = HistoryState::new(&specs());
        let outcome = |i: u64| (i * 2654435761) % 7 < 3;
        for i in 0..400 {
            a.push(outcome(i));
            b.push(outcome(i));
        }
        let cp = a.checkpoint();
        for i in 0..60 {
            a.push(i % 2 == 1); // wrong path
        }
        a.restore(&cp);
        for i in 400..900 {
            a.push(outcome(i));
            b.push(outcome(i));
        }
        for i in 0..a.num_folds() {
            assert_eq!(a.folded(i), b.folded(i), "fold {i} diverged after restore");
        }
    }

    #[test]
    fn different_histories_give_different_folds() {
        let mut a = HistoryState::new(&specs());
        let mut b = HistoryState::new(&specs());
        for i in 0..64 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        assert_ne!(a.folded(2), b.folded(2));
    }

    #[test]
    fn folds_sharing_a_length_form_one_group() {
        let h = HistoryState::new(&[
            FoldSpec { olen: 8, clen: 7 },
            FoldSpec { olen: 8, clen: 9 },
            FoldSpec { olen: 8, clen: 8 },
            FoldSpec { olen: 20, clen: 7 },
            FoldSpec { olen: 8, clen: 7 },
        ]);
        let ends: Vec<(u32, u8)> = h.groups.iter().map(|g| (g.olen, g.end)).collect();
        assert_eq!(ends, vec![(8, 3), (20, 4), (8, 5)]);
    }

    #[test]
    #[should_panic(
        expected = "checkpoint state corrupt: checkpoint folds disagree with the history buffer"
    )]
    fn checkpoint_restore_rejects_nonzero_padding() {
        let h = HistoryState::new(&specs());
        let mut w = sim_isa::StateWriter::new();
        h.save_checkpoint(&h.checkpoint(), &mut w);
        let mut bytes = w.into_bytes();
        // The last byte belongs to the final padding slot.
        *bytes.last_mut().unwrap() = 1;
        h.restore_checkpoint(&mut sim_isa::StateReader::new(&bytes));
    }

    #[test]
    #[should_panic(expected = "outside the buffer window")]
    fn restore_past_a_wrapped_window_panics() {
        let mut h = PathHistory::new(&[FoldSpec {
            olen: 340,
            clen: 10,
        }]);
        for _ in 0..100 {
            h.push(true);
        }
        let old = h.checkpoint();
        for _ in 0..100 {
            h.push(false);
        }
        let young = h.checkpoint();
        for _ in 0..7800 {
            h.push(true);
        }
        // The young window is intact; the old one was overwritten by bits
        // pushed before the first restore rewound past them.
        h.restore(&young);
        h.restore(&old);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_history_rejected() {
        let _ = HistoryState::new(&[FoldSpec {
            olen: 5000,
            clen: 12,
        }]);
    }
}
