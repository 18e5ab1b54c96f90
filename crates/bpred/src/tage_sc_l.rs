//! TAGE-SC-L: the composite conditional predictor (TAGE + statistical
//! corrector + loop predictor), with full provider attribution.
//!
//! Provider attribution drives the paper's Figs. 6, 7 and 9: every
//! prediction reports whether it came from the bimodal table (and whether
//! the bimodal had missed recently), the HitBank, the AltBank, the loop
//! predictor or the statistical corrector.

use crate::history::HistoryState;
use crate::loop_pred::{LoopPrediction, LoopPredictor};
use crate::sc::{Sc, ScParams, ScPrediction};
use crate::tage::{Tage, TageParams, TagePrediction, TageProvider};
use serde::{Deserialize, Serialize};
use sim_isa::Addr;

/// Which TAGE-SC-L component provided the final direction — the categories
/// of the paper's Figs. 6 and 7.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Provider {
    /// Bimodal, with no miss among its last 8 predictions.
    #[default]
    Bimodal,
    /// Bimodal, with ≥1 miss among its last 8 predictions
    /// (`bimodal >1in8` in the paper).
    BimodalLow8,
    /// Longest matching tagged table.
    HitBank,
    /// Second-longest matching tagged table.
    AltBank,
    /// Loop predictor.
    LoopPred,
    /// Statistical corrector (reverted TAGE).
    Sc,
}

impl Provider {
    /// All providers, in the paper's Fig. 7 order.
    pub const ALL: [Provider; 6] = [
        Provider::HitBank,
        Provider::AltBank,
        Provider::Bimodal,
        Provider::BimodalLow8,
        Provider::Sc,
        Provider::LoopPred,
    ];
}

impl std::fmt::Display for Provider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Provider::Bimodal => "bimodal",
            Provider::BimodalLow8 => "bimodal(>1in8)",
            Provider::HitBank => "HitBank",
            Provider::AltBank => "AltBank",
            Provider::LoopPred => "LP",
            Provider::Sc => "SC",
        };
        f.write_str(s)
    }
}

/// Size presets for the composite predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SclPreset {
    /// 64 KB main predictor (Table II).
    Main64K,
    /// 8 KB alternate-path predictor (Alt-BP, §IV-F).
    Alt8K,
    /// 128 KB predictor (Fig. 16's `TAGE-SC-Lx2`).
    Big128K,
}

/// One complete TAGE-SC-L prediction with provider attribution and all the
/// state needed for the eventual update.
#[derive(Clone, Copy, Debug, Default)]
pub struct SclPrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Final provider.
    pub provider: Provider,
    /// Underlying TAGE detail.
    pub tage: TagePrediction,
    /// Underlying SC detail (its `sum` feeds Fig. 6b).
    pub sc: ScPrediction,
    /// Underlying loop-predictor detail.
    pub lp: LoopPrediction,
    /// The bimodal's last-8 register held ≥1 miss at prediction time
    /// (needed by the baseline TAGE-Conf estimator regardless of the final
    /// provider).
    pub bim_low8: bool,
}

impl SclPrediction {
    /// The provider counter value used for confidence bucketing: the TAGE
    /// provider counter for TAGE/bimodal providers, the SC sum for SC, the
    /// loop confidence for LP.
    pub fn confidence_value(&self) -> i32 {
        match self.provider {
            Provider::Sc => self.sc.sum,
            Provider::LoopPred => i32::from(self.lp.conf),
            _ => i32::from(self.tage.provider_ctr),
        }
    }
}

/// The TAGE-SC-L composite. Tables live here; speculative history lives in
/// a caller-owned [`HistoryState`] (see [`TageScL::new_history`]), so the
/// UCP engine can run an alternate-path history against the same tables.
#[derive(Clone, Debug)]
pub struct TageScL {
    tage: Tage,
    sc: Sc,
    lp: LoopPredictor,
    /// Correctness of the last 8 bimodal-provided predictions (bit set =
    /// misprediction).
    bim_miss_hist: u8,
    sc_fold_base: usize,
    preset: SclPreset,
}

impl TageScL {
    /// Creates a predictor of the given size class.
    pub fn new(preset: SclPreset) -> Self {
        let (tp, sp, lp) = match preset {
            SclPreset::Main64K => (
                TageParams::main_64k(),
                ScParams::main_64k(),
                LoopPredictor::default_64_entry(),
            ),
            SclPreset::Alt8K => (
                TageParams::alt_8k(),
                ScParams::alt_8k(),
                LoopPredictor::new(8, 4),
            ),
            SclPreset::Big128K => (
                TageParams::big_128k(),
                ScParams::big_128k(),
                LoopPredictor::default_64_entry(),
            ),
        };
        let sc_fold_base = tp.fold_specs().len();
        TageScL {
            tage: Tage::new(tp),
            sc: Sc::new(sp),
            lp,
            bim_miss_hist: 0,
            sc_fold_base,
            preset,
        }
    }

    /// The preset this predictor was built with.
    pub fn preset(&self) -> SclPreset {
        self.preset
    }

    /// Builds a [`HistoryState`] with this predictor's fold layout
    /// (TAGE folds first, then SC folds).
    pub fn new_history(&self) -> HistoryState {
        let mut specs = self.tage.params().fold_specs();
        specs.extend(self.sc.params().fold_specs());
        HistoryState::new(&specs)
    }

    /// Predicts the conditional branch at `pc` against `hist`.
    pub fn predict(&self, hist: &HistoryState, pc: Addr) -> SclPrediction {
        let tage = self.tage.predict(hist, pc, 0);
        let lp = self.lp.predict(pc);
        // Loop predictor overrides when confident and globally useful.
        if lp.hit && self.lp.useful() {
            // SC is still computed for training and Fig. 6b statistics.
            let sc = self
                .sc
                .predict(hist, pc, self.sc_fold_base, tage.taken, centered(&tage));
            return SclPrediction {
                taken: lp.taken,
                provider: Provider::LoopPred,
                tage,
                sc,
                lp,
                bim_low8: self.bim_miss_hist != 0,
            };
        }
        let sc = self
            .sc
            .predict(hist, pc, self.sc_fold_base, tage.taken, centered(&tage));
        let (taken, provider) = if sc.used {
            (sc.taken, Provider::Sc)
        } else {
            let p = match tage.provider {
                TageProvider::Hit => Provider::HitBank,
                TageProvider::Alt => Provider::AltBank,
                TageProvider::Bimodal => {
                    if self.bim_miss_hist != 0 {
                        Provider::BimodalLow8
                    } else {
                        Provider::Bimodal
                    }
                }
            };
            (tage.taken, p)
        };
        SclPrediction {
            taken,
            provider,
            tage,
            sc,
            lp,
            bim_low8: self.bim_miss_hist != 0,
        }
    }

    /// Trains all components with the resolved outcome. `pred` must be the
    /// value returned by [`TageScL::predict`] for this dynamic branch.
    pub fn update(&mut self, pc: Addr, pred: &SclPrediction, taken: bool) {
        let tage_mispred = pred.tage.taken != taken;
        self.lp.update(pc, taken, pred.tage.taken, tage_mispred);
        self.sc.update(&pred.sc, taken, pred.tage.taken);
        self.tage.update(pc, &pred.tage, taken);
        if matches!(pred.provider, Provider::Bimodal | Provider::BimodalLow8) {
            self.bim_miss_hist = (self.bim_miss_hist << 1) | u8::from(pred.taken != taken);
        }
    }

    /// Copies `source`'s tables and state into this predictor's own
    /// buffers, allocating nothing (UCP snapshots its Alt-BP this way).
    ///
    /// # Panics
    ///
    /// Panics if the two predictors were built from different presets.
    pub fn copy_from(&mut self, source: &Self) {
        let TageScL {
            tage,
            sc,
            lp,
            bim_miss_hist,
            sc_fold_base: _,
            preset,
        } = source;
        assert_eq!(self.preset, *preset, "copy between predictor presets");
        self.tage.copy_from(tage);
        self.sc.copy_from(sc);
        self.lp.copy_from(lp);
        self.bim_miss_hist = *bim_miss_hist;
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.tage.storage_bits() + self.sc.storage_bits() + self.lp.storage_bits() + 8
    }

    /// Total storage in KiB.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8192.0
    }
}

sim_isa::state_fields!(TageScL { tage, sc, lp, bim_miss_hist } skip { sc_fold_base, preset });
sim_isa::state_enum!(Provider {
    0 => Bimodal,
    1 => BimodalLow8,
    2 => HitBank,
    3 => AltBank,
    4 => LoopPred,
    5 => Sc,
});
sim_isa::state_fields!(SclPrediction { taken, provider, tage, sc, lp, bim_low8 } skip {});

#[inline]
fn centered(t: &TagePrediction) -> i32 {
    // Map the provider counter to a signed confidence term. Bimodal
    // counters (−2..=1) are widened to roughly match tagged ones (−4..=3).
    match t.provider {
        TageProvider::Bimodal => (2 * i32::from(t.provider_ctr) + 1) * 2,
        _ => 2 * i32::from(t.provider_ctr) + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (TageScL, HistoryState) {
        let p = TageScL::new(SclPreset::Alt8K);
        let h = p.new_history();
        (p, h)
    }

    #[test]
    fn storage_budgets_match_paper() {
        let main = TageScL::new(SclPreset::Main64K);
        assert!(
            (52.0..70.0).contains(&main.storage_kb()),
            "64 KB class, got {:.1} KB",
            main.storage_kb()
        );
        let alt = TageScL::new(SclPreset::Alt8K);
        assert!(
            (6.0..9.5).contains(&alt.storage_kb()),
            "8 KB class, got {:.1} KB",
            alt.storage_kb()
        );
        let big = TageScL::new(SclPreset::Big128K);
        assert!(
            big.storage_kb() > 1.8 * main.storage_kb(),
            "128 KB ≈ 2× 64 KB"
        );
    }

    #[test]
    fn cold_prediction_is_bimodal() {
        let (p, h) = fresh();
        let pr = p.predict(&h, Addr::new(0x1000));
        assert!(matches!(
            pr.provider,
            Provider::Bimodal | Provider::BimodalLow8
        ));
    }

    #[test]
    fn learns_biased_branch_to_high_accuracy() {
        let (mut p, mut h) = fresh();
        let pc = Addr::new(0x2000);
        let mut correct = 0;
        for i in 0..2000 {
            let pr = p.predict(&h, pc);
            let outcome = true;
            if i >= 100 && pr.taken == outcome {
                correct += 1;
            }
            p.update(pc, &pr, outcome);
            h.push(outcome);
        }
        assert!(
            correct >= 1899,
            "always-taken must be ~100%: {correct}/1900"
        );
    }

    #[test]
    fn learns_alternating_pattern() {
        let (mut p, mut h) = fresh();
        let pc = Addr::new(0x3000);
        let mut correct = 0;
        for i in 0..4000u32 {
            let outcome = (i / 2) % 2 == 0; // period-4 pattern TTNN
            let pr = p.predict(&h, pc);
            if i >= 2000 && pr.taken == outcome {
                correct += 1;
            }
            p.update(pc, &pr, outcome);
            h.push(outcome);
        }
        assert!(correct > 1800, "period-4 pattern: {correct}/2000");
    }

    #[test]
    fn random_branch_stays_near_chance() {
        let (mut p, mut h) = fresh();
        let pc = Addr::new(0x4000);
        let mut correct = 0;
        let mut x = 88172645463325252u64;
        for i in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let outcome = x & 1 == 1;
            let pr = p.predict(&h, pc);
            if i >= 2000 && pr.taken == outcome {
                correct += 1;
            }
            p.update(pc, &pr, outcome);
            h.push(outcome);
        }
        let acc = correct as f64 / 2000.0;
        assert!(acc < 0.65, "xorshift branch must stay hard: {acc}");
    }

    #[test]
    fn provider_attribution_covers_tagged_banks() {
        let (mut p, mut h) = fresh();
        let mut saw_hitbank = false;
        // Train several pattern branches to populate tagged tables.
        for i in 0..6000u32 {
            let pc = Addr::new(0x5000 + u64::from(i % 8) * 4);
            let outcome = (i / (1 + i % 3)) % 2 == 0;
            let pr = p.predict(&h, pc);
            if pr.provider == Provider::HitBank {
                saw_hitbank = true;
            }
            p.update(pc, &pr, outcome);
            h.push(outcome);
        }
        assert!(
            saw_hitbank,
            "trained predictor must produce HitBank predictions"
        );
    }

    #[test]
    fn confidence_value_tracks_provider() {
        let (p, h) = fresh();
        let pr = p.predict(&h, Addr::new(0x100));
        // Cold bimodal: ctr 0.
        assert_eq!(pr.confidence_value(), 0);
    }

    #[test]
    fn checkpoint_restore_respects_predictions() {
        let (mut p, mut h) = fresh();
        let pc = Addr::new(0x700);
        for i in 0..500u32 {
            let pr = p.predict(&h, pc);
            let outcome = i % 2 == 0;
            p.update(pc, &pr, outcome);
            h.push(outcome);
        }
        let cp = h.checkpoint();
        let before = p.predict(&h, pc).taken;
        // Wrong-path speculation.
        for _ in 0..10 {
            h.push(true);
        }
        h.restore(&cp);
        let after = p.predict(&h, pc).taken;
        assert_eq!(
            before, after,
            "restore must reproduce the pre-speculation prediction"
        );
    }
}
