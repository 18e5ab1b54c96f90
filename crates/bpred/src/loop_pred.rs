//! Loop predictor: recognizes branches with a constant trip count and
//! predicts their exit iteration (the L in TAGE-SC-L).

use sim_isa::Addr;

const CONF_MAX: u8 = 7;
const CONF_USE: u8 = 7;

/// Minimum learned trip count before the predictor dares to override
/// TAGE: short loops are in-flight-speculation hazards (see DESIGN.md on
/// the retire-time iteration simplification).
const MIN_TRIP: u16 = 8;

#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    tag: u16,
    valid: bool,
    /// Trip count observed on the last completed trip.
    past_iter: u16,
    /// Iterations observed in the current trip.
    curr_iter: u16,
    /// Confidence that `past_iter` is stable.
    conf: u8,
    /// Age for replacement.
    age: u8,
    /// Body direction (direction taken on non-exit iterations).
    dir: bool,
}

/// A loop-prediction result, kept for the update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopPrediction {
    /// A confident entry produced a prediction.
    pub hit: bool,
    /// Predicted direction (valid when `hit`).
    pub taken: bool,
    /// Entry confidence (for the paper's Fig. 6b buckets).
    pub conf: u8,
    pub(crate) set: u16,
    pub(crate) way: u8,
}

/// Seznec-style loop predictor, 4-way set-associative.
///
/// Iteration state advances at update (retire) time; see DESIGN.md for the
/// speculative-iteration simplification.
#[derive(Clone, Debug)]
pub struct LoopPredictor {
    entries: Box<[LoopEntry]>,
    sets: usize,
    ways: usize,
    /// Usefulness of the loop predictor vs TAGE (`WITHLOOP`).
    with_loop: i8,
    tick: u8,
}

impl LoopPredictor {
    /// Creates a loop predictor with `sets` × `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0 && ways > 0);
        LoopPredictor {
            entries: vec![LoopEntry::default(); sets * ways].into_boxed_slice(),
            sets,
            ways,
            with_loop: -1,
            tick: 0,
        }
    }

    /// Default TAGE-SC-L geometry: 64 entries.
    pub fn default_64_entry() -> Self {
        LoopPredictor::new(16, 4)
    }

    #[inline]
    fn set_and_tag(&self, pc: Addr) -> (usize, u16) {
        let v = pc.raw() >> 2;
        (
            (v as usize) & (self.sets - 1),
            ((v >> self.sets.trailing_zeros()) & 0x3fff) as u16,
        )
    }

    fn find(&self, pc: Addr) -> Option<(usize, usize)> {
        let (set, tag) = self.set_and_tag(pc);
        (0..self.ways).map(|w| (set, w)).find(|&(s, w)| {
            let e = &self.entries[s * self.ways + w];
            e.valid && e.tag == tag
        })
    }

    /// Predicts the branch at `pc`. `hit` is only set when the entry is
    /// confident enough to override TAGE.
    pub fn predict(&self, pc: Addr) -> LoopPrediction {
        if let Some((s, w)) = self.find(pc) {
            let e = &self.entries[s * self.ways + w];
            if e.conf >= CONF_USE && e.past_iter >= MIN_TRIP {
                let exit_now = e.curr_iter + 1 >= e.past_iter;
                return LoopPrediction {
                    hit: true,
                    taken: if exit_now { !e.dir } else { e.dir },
                    conf: e.conf,
                    set: s as u16,
                    way: w as u8,
                };
            }
            return LoopPrediction {
                hit: false,
                taken: e.dir,
                conf: e.conf,
                set: s as u16,
                way: w as u8,
            };
        }
        LoopPrediction {
            hit: false,
            taken: false,
            conf: 0,
            set: u16::MAX,
            way: 0,
        }
    }

    /// `true` when loop predictions should override TAGE (the `WITHLOOP`
    /// usefulness counter is non-negative).
    pub fn useful(&self) -> bool {
        self.with_loop >= 0
    }

    /// Trains on a resolved conditional branch. `tage_taken` is TAGE's
    /// direction for the same instance (trains `WITHLOOP`);
    /// `tage_mispredicted` gates new allocations.
    pub fn update(&mut self, pc: Addr, taken: bool, tage_taken: bool, tage_mispredicted: bool) {
        let (set, tag) = self.set_and_tag(pc);
        if let Some((s, w)) = self.find(pc) {
            let lp = self.predict(pc);
            let e = &mut self.entries[s * self.ways + w];
            // WITHLOOP trains whenever the loop predictor would have
            // disagreed with TAGE.
            if lp.hit && lp.taken != tage_taken {
                self.with_loop = if lp.taken == taken {
                    (self.with_loop + 1).min(7)
                } else {
                    (self.with_loop - 1).max(-8)
                };
            }
            if taken == e.dir {
                e.curr_iter = e.curr_iter.saturating_add(1);
                if e.curr_iter > e.past_iter && e.conf > 0 && e.past_iter > 0 {
                    // Ran past the learned trip count: trip unstable.
                    e.conf = 0;
                    e.past_iter = 0;
                }
                e.age = e.age.saturating_add(1).min(7);
            } else {
                // Exit iteration.
                let trip = e.curr_iter + 1;
                if e.past_iter == trip {
                    e.conf = (e.conf + 1).min(CONF_MAX);
                } else {
                    e.past_iter = trip;
                    e.conf = 0;
                }
                e.curr_iter = 0;
            }
            return;
        }
        // Allocate on a TAGE misprediction (a loop exit TAGE failed on).
        if tage_mispredicted {
            self.tick = self.tick.wrapping_add(1);
            if !self.tick.is_multiple_of(4) {
                return;
            }
            let base = set * self.ways;
            if let Some(victim) = (0..self.ways).min_by_key(|&w| {
                let e = &self.entries[base + w];
                if e.valid {
                    1 + u16::from(e.age) + u16::from(e.conf) * 8
                } else {
                    0
                }
            }) {
                self.entries[base + victim] = LoopEntry {
                    tag,
                    valid: true,
                    past_iter: 0,
                    curr_iter: 0,
                    conf: 0,
                    age: 0,
                    // The direction seen now is the exit direction; the
                    // body direction is its opposite for a loop branch.
                    dir: !taken,
                };
            }
        }
    }

    /// Storage in bits: each entry ≈ tag(14) + past(16) + curr(16) +
    /// conf(3) + age(3) + dir(1) + valid(1).
    pub fn storage_bits(&self) -> u64 {
        (self.sets * self.ways) as u64 * 54 + 4
    }
}

sim_isa::state_fields!(LoopPredictor { entries, with_loop, tick } skip { sets, ways });
sim_isa::state_fields!(LoopEntry { tag, valid, past_iter, curr_iter, conf, age, dir } skip {});
sim_isa::state_fields!(LoopPrediction { hit, taken, conf, set, way } skip {});

#[cfg(test)]
mod tests {
    use super::*;

    /// Train a fixed-trip loop: `trip-1` taken iterations then one not.
    fn train(lp: &mut LoopPredictor, pc: Addr, trip: u16, reps: usize) {
        for _ in 0..reps {
            for i in 0..trip {
                let taken = i + 1 < trip;
                // Claim TAGE said "taken" and mispredicted the exits so
                // allocation happens.
                lp.update(pc, taken, true, !taken);
            }
        }
    }

    #[test]
    fn learns_fixed_trip_count() {
        let mut lp = LoopPredictor::default_64_entry();
        let pc = Addr::new(0x100);
        train(&mut lp, pc, 10, 24);
        // Start of a fresh trip: predict the body then the exit.
        for i in 0..10u16 {
            let p = lp.predict(pc);
            let expect = i + 1 < 10;
            assert!(p.hit, "entry must be confident at iter {i}");
            assert_eq!(p.taken, expect, "iteration {i}");
            lp.update(pc, expect, true, false);
        }
    }

    #[test]
    fn unstable_trip_never_confident() {
        let mut lp = LoopPredictor::default_64_entry();
        let pc = Addr::new(0x200);
        // Alternate trip counts 5 and 9.
        for r in 0..30 {
            let trip = if r % 2 == 0 { 5 } else { 9 };
            for i in 0..trip {
                let taken = i + 1 < trip;
                lp.update(pc, taken, true, !taken);
            }
        }
        let p = lp.predict(pc);
        assert!(!p.hit, "variable trips must not reach confidence");
    }

    #[test]
    fn with_loop_counter_moves() {
        let mut lp = LoopPredictor::default_64_entry();
        let pc = Addr::new(0x300);
        assert!(!lp.useful(), "starts negative");
        train(&mut lp, pc, 12, 30);
        // Exits where TAGE is wrong and LP right push WITHLOOP up.
        for _ in 0..20 {
            for i in 0..12u16 {
                let taken = i + 1 < 12;
                let tage_taken = true; // TAGE misses every exit
                lp.update(pc, taken, tage_taken, !taken);
            }
        }
        assert!(lp.useful(), "LP beat TAGE repeatedly");
    }

    #[test]
    fn miss_returns_no_hit() {
        let lp = LoopPredictor::default_64_entry();
        assert!(!lp.predict(Addr::new(0x999c)).hit);
    }

    #[test]
    fn storage_is_small() {
        let lp = LoopPredictor::default_64_entry();
        assert!(lp.storage_bits() / 8 < 1024, "LP must stay well under 1 KB");
    }
}
