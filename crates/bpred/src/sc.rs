//! Statistical corrector (the SC in TAGE-SC-L): a GEHL-style adder tree
//! that can revert TAGE's direction when the statistical evidence against
//! it is strong.

use crate::history::{FoldSpec, HistoryState};
use sim_isa::state::Tables;
use sim_isa::Addr;

/// Upper bound on SC tables.
pub const MAX_SC_TABLES: usize = 8;

const CTR_MAX: i8 = 31;
const CTR_MIN: i8 = -32;

/// Geometry of the statistical corrector.
#[derive(Clone, Debug)]
pub struct ScParams {
    /// Number of global-history GEHL tables.
    pub num_tables: usize,
    /// log2 entries per table.
    pub log_entries: u32,
    /// History length per table.
    pub hist_len: Vec<u32>,
    /// log2 entries of the (pc, tage-direction)-indexed bias table.
    pub log_bias: u32,
}

impl ScParams {
    /// ~5.4 KB corrector for the 64 KB TAGE-SC-L.
    pub fn main_64k() -> Self {
        ScParams {
            num_tables: 6,
            log_entries: 10,
            hist_len: vec![3, 6, 12, 21, 36, 60],
            log_bias: 10,
        }
    }

    /// ~0.8 KB corrector for the 8 KB alternate TAGE-SC-L.
    pub fn alt_8k() -> Self {
        ScParams {
            num_tables: 3,
            log_entries: 8,
            hist_len: vec![4, 10, 24],
            log_bias: 8,
        }
    }

    /// ~10.8 KB corrector for the 128 KB TAGE-SC-L.
    pub fn big_128k() -> Self {
        ScParams {
            num_tables: 6,
            log_entries: 11,
            hist_len: vec![3, 6, 12, 21, 36, 60],
            log_bias: 11,
        }
    }

    /// Fold specs this corrector needs (one per GEHL table).
    pub fn fold_specs(&self) -> Vec<FoldSpec> {
        self.hist_len
            .iter()
            .map(|&olen| FoldSpec {
                olen,
                clen: self.log_entries,
            })
            .collect()
    }
}

/// One SC decision, kept by the pipeline for the update.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScPrediction {
    /// Signed sum of the adder tree (TAGE-biased); the paper's Fig. 6b
    /// buckets its absolute value.
    pub sum: i32,
    /// SC's direction (`sum >= 0`).
    pub taken: bool,
    /// SC disagreed with TAGE *and* cleared the confidence threshold, so
    /// its direction is the final prediction.
    pub used: bool,
    pub(crate) indices: [u16; MAX_SC_TABLES],
    pub(crate) bias_idx: u32,
}

/// The statistical corrector.
#[derive(Clone, Debug)]
pub struct Sc {
    params: ScParams,
    /// All GEHL tables back to back, `1 << log_entries` counters each.
    tables: Tables<i8>,
    bias: Box<[i8]>,
    /// Dynamic use threshold.
    thr: i32,
    /// Threshold-training counter.
    tc: i8,
}

impl Sc {
    /// Creates an empty corrector.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters.
    pub fn new(params: ScParams) -> Self {
        assert_eq!(params.hist_len.len(), params.num_tables);
        assert!(params.num_tables <= MAX_SC_TABLES);
        Sc {
            tables: Tables::new(params.num_tables, 1 << params.log_entries, 0),
            bias: vec![0; 1 << params.log_bias].into_boxed_slice(),
            thr: 12,
            tc: 0,
            params,
        }
    }

    /// The geometry.
    pub fn params(&self) -> &ScParams {
        &self.params
    }

    /// Flat position of counter `idx` of GEHL table `t`.
    #[inline]
    fn slot(&self, t: usize, idx: u16) -> usize {
        (t << self.params.log_entries) | usize::from(idx)
    }

    #[inline]
    fn index(&self, pc: Addr, hist: &HistoryState, t: usize, fold_base: usize) -> u16 {
        let pcs = pc.raw() >> 2;
        let mask = (1u64 << self.params.log_entries) - 1;
        let h = u64::from(hist.folded(fold_base + t));
        ((pcs ^ h ^ (t as u64 * 0x9e37)) & mask) as u16
    }

    #[inline]
    fn bias_index(&self, pc: Addr, tage_taken: bool) -> u32 {
        let pcs = pc.raw() >> 2;
        let mask = (1u64 << self.params.log_bias) - 1;
        (((pcs << 1) | u64::from(tage_taken)) & mask) as u32
    }

    /// Computes the SC decision. `tage_centered` is the TAGE provider
    /// counter mapped to a signed "confidence" term (`2*ctr + 1`, in
    /// `-7..=7` for tagged counters).
    pub fn predict(
        &self,
        hist: &HistoryState,
        pc: Addr,
        fold_base: usize,
        tage_taken: bool,
        tage_centered: i32,
    ) -> ScPrediction {
        let mut indices = [0u16; MAX_SC_TABLES];
        let mut sum: i32 = tage_centered * 6;
        let bias_idx = self.bias_index(pc, tage_taken);
        sum += 2 * i32::from(self.bias[bias_idx as usize]) + 1;
        for (t, slot) in indices.iter_mut().enumerate().take(self.params.num_tables) {
            let i = self.index(pc, hist, t, fold_base);
            *slot = i;
            sum += 2 * i32::from(self.tables[self.slot(t, i)]) + 1;
        }
        let taken = sum >= 0;
        let used = taken != tage_taken && sum.unsigned_abs() as i32 >= self.thr;
        ScPrediction {
            sum,
            taken,
            used,
            indices,
            bias_idx,
        }
    }

    /// Trains the corrector with the resolved outcome.
    pub fn update(&mut self, p: &ScPrediction, taken: bool, tage_taken: bool) {
        // Adaptive threshold: learn from disagreements.
        if p.taken != tage_taken {
            if p.taken == taken {
                self.tc = (self.tc - 1).max(-64);
            } else {
                self.tc = (self.tc + 1).min(63);
            }
            if self.tc == 63 {
                self.thr = (self.thr + 2).min(120);
                self.tc = 0;
            } else if self.tc == -64 {
                self.thr = (self.thr - 2).max(4);
                self.tc = 0;
            }
        }
        // GEHL update rule: train on a wrong final direction or a weak sum.
        let final_taken = if p.used { p.taken } else { tage_taken };
        if final_taken != taken || p.sum.unsigned_abs() as i32 <= self.thr * 3 {
            let b = &mut self.bias[p.bias_idx as usize];
            *b = bump6(*b, taken);
            for t in 0..self.params.num_tables {
                let slot = self.slot(t, p.indices[t]);
                let c = &mut self.tables[slot];
                *c = bump6(*c, taken);
            }
        }
    }

    /// Storage in bits: 6-bit counters plus the threshold machinery.
    pub fn storage_bits(&self) -> u64 {
        let gehl = self.params.num_tables as u64 * (1u64 << self.params.log_entries) * 6;
        let bias = (1u64 << self.params.log_bias) * 6;
        gehl + bias + 16
    }

    /// Copies `source`'s state into this corrector's buffers.
    pub(crate) fn copy_from(&mut self, source: &Self) {
        let Sc {
            params: _,
            tables,
            bias,
            thr,
            tc,
        } = source;
        self.tables.copy_from_slice(tables);
        self.bias.copy_from_slice(bias);
        self.thr = *thr;
        self.tc = *tc;
    }
}

sim_isa::state_fields!(Sc { tables, bias, thr, tc } skip { params });
sim_isa::state_fields!(ScPrediction { sum, taken, used, indices, bias_idx } skip {});

#[inline]
fn bump6(c: i8, taken: bool) -> i8 {
    if taken {
        (c + 1).min(CTR_MAX)
    } else {
        (c - 1).max(CTR_MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc_and_hist() -> (Sc, HistoryState) {
        let sc = Sc::new(ScParams::alt_8k());
        let h = HistoryState::new(&sc.params().fold_specs());
        (sc, h)
    }

    #[test]
    fn cold_sc_agrees_with_tage() {
        let (sc, h) = sc_and_hist();
        let p = sc.predict(&h, Addr::new(0x100), 0, true, 7);
        assert!(!p.used, "cold SC must not override a confident TAGE");
        assert!(p.taken);
    }

    #[test]
    fn sc_learns_to_revert_a_consistently_wrong_tage() {
        let (mut sc, mut h) = sc_and_hist();
        let pc = Addr::new(0x204);
        // TAGE keeps saying taken (weak counter), reality is not-taken.
        for _ in 0..300 {
            let p = sc.predict(&h, pc, 0, true, 1);
            sc.update(&p, false, true);
            h.push(false);
        }
        let p = sc.predict(&h, pc, 0, true, 1);
        assert!(p.used, "SC must now override (sum {})", p.sum);
        assert!(!p.taken);
    }

    #[test]
    fn strong_tage_term_resists_noise() {
        let (sc, h) = sc_and_hist();
        // Saturated TAGE counter → centered 7 → +42 bias toward TAGE.
        let p = sc.predict(&h, Addr::new(0x300), 0, false, -7);
        assert!(!p.taken);
        assert!(p.sum < 0);
    }

    #[test]
    fn update_moves_sum_toward_outcome() {
        let (mut sc, h) = sc_and_hist();
        let pc = Addr::new(0x400);
        let before = sc.predict(&h, pc, 0, true, 0).sum;
        for _ in 0..10 {
            let p = sc.predict(&h, pc, 0, true, 0);
            sc.update(&p, true, true);
        }
        let after = sc.predict(&h, pc, 0, true, 0).sum;
        assert!(after > before, "{after} vs {before}");
    }

    #[test]
    fn storage_accounting() {
        let main = Sc::new(ScParams::main_64k());
        let kb = main.storage_bits() as f64 / 8192.0;
        assert!((4.0..7.0).contains(&kb), "main SC ≈ 5.4 KB, got {kb}");
        let alt = Sc::new(ScParams::alt_8k());
        assert!(alt.storage_bits() / 8192 < 2);
    }
}
