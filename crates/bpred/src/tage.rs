//! TAGE: tagged geometric-history-length predictor (Seznec & Michaud).
//!
//! The prediction is provided by the longest-history tagged table whose tag
//! matches (the *HitBank*); the second-longest match is the *AltBank*. The
//! paper's confidence estimator cares precisely about which of
//! HitBank/AltBank/bimodal provided the prediction and whether the
//! provider's counter was saturated, so [`TagePrediction`] carries all of
//! that.

use crate::bimodal::Bimodal;
use crate::history::{tagged_fold_specs, FoldSpec, HistoryState};
use sim_isa::state::Tables;
use sim_isa::Addr;

/// Upper bound on tagged tables (fixed-size arrays in [`TagePrediction`]).
pub const MAX_TABLES: usize = 14;

/// Geometry of a TAGE predictor.
#[derive(Clone, Debug)]
pub struct TageParams {
    /// Number of tagged tables.
    pub num_tables: usize,
    /// log2 entries per tagged table.
    pub log_entries: u32,
    /// Tag width in bits (≤ 15).
    pub tag_bits: u32,
    /// Geometric history lengths, shortest first.
    pub hist_len: Vec<u32>,
    /// log2 entries of the bimodal base table.
    pub log_bimodal: u32,
    /// Updates between halvings of all usefulness counters.
    pub u_reset_period: u64,
}

impl TageParams {
    /// ~53 KB TAGE used inside the 64 KB TAGE-SC-L.
    pub fn main_64k() -> Self {
        TageParams {
            num_tables: 12,
            log_entries: 11,
            tag_bits: 11,
            hist_len: vec![4, 6, 10, 16, 26, 42, 67, 107, 171, 274, 438, 640],
            log_bimodal: 14,
            u_reset_period: 256 * 1024,
        }
    }

    /// ~6.5 KB TAGE used inside the 8 KB alternate-path TAGE-SC-L (Alt-BP).
    pub fn alt_8k() -> Self {
        TageParams {
            num_tables: 6,
            log_entries: 9,
            tag_bits: 9,
            hist_len: vec![4, 9, 18, 36, 72, 144],
            log_bimodal: 12,
            u_reset_period: 64 * 1024,
        }
    }

    /// ~106 KB TAGE used inside the 128 KB TAGE-SC-L (Fig. 16's
    /// doubled-budget predictor).
    pub fn big_128k() -> Self {
        TageParams {
            num_tables: 12,
            log_entries: 12,
            tag_bits: 12,
            hist_len: vec![4, 6, 10, 16, 26, 42, 67, 107, 171, 274, 438, 640],
            log_bimodal: 15,
            u_reset_period: 512 * 1024,
        }
    }

    /// Fold specs this predictor needs in its [`HistoryState`]
    /// (3 per table: index, tag part 1, tag part 2).
    pub fn fold_specs(&self) -> Vec<FoldSpec> {
        tagged_fold_specs(&self.hist_len, self.log_entries, self.tag_bits)
    }
}

/// One tagged entry in 4 bytes. Bit 15 of `tag` ([`VALID`]) marks an
/// allocated entry (models tag-mismatch on cold entries; free in
/// hardware, where cold tags simply never match), so a lookup compares
/// `tag` against the computed tag with that bit set. Tags are at most 15
/// bits.
#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    ctr: i8, // 3-bit signed: -4..=3
    u: u8,   // 2-bit usefulness
    tag: u16,
}

/// The valid bit of [`TageEntry::tag`].
const VALID: u16 = 1 << 15;

/// Which component of TAGE provided the final direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TageProvider {
    /// No tagged match (or the alternate fell through to bimodal).
    #[default]
    Bimodal,
    /// Longest tag match provided the prediction.
    Hit,
    /// Newly-allocated HitBank was overridden by the AltBank.
    Alt,
}

/// Everything about one TAGE prediction, kept by the pipeline and passed
/// back to [`Tage::update`] at branch resolution.
#[derive(Clone, Copy, Debug, Default)]
pub struct TagePrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Component that provided the direction.
    pub provider: TageProvider,
    /// Counter of the providing component (bimodal counter in `-2..=1`,
    /// tagged counter in `-4..=3`).
    pub provider_ctr: i8,
    /// Index of the longest matching table, or -1.
    pub hit_bank: i8,
    /// Index of the second-longest matching table, or -1.
    pub alt_bank: i8,
    /// Direction from the hit bank (valid if `hit_bank >= 0`).
    pub hit_taken: bool,
    /// Direction from the alternate chain (alt bank, else bimodal).
    pub alt_taken: bool,
    /// Bimodal direction and counter.
    pub bim_taken: bool,
    /// Bimodal counter in `-2..=1`.
    pub bim_ctr: i8,
    /// The hit entry looked newly allocated (weak counter, `u == 0`).
    pub newly_alloc: bool,
    pub(crate) indices: [u16; MAX_TABLES],
    pub(crate) tags: [u16; MAX_TABLES],
}

impl TagePrediction {
    /// `true` if the providing counter is saturated (the paper's
    /// high-confidence criterion for HitBank/bimodal providers).
    pub fn provider_saturated(&self) -> bool {
        match self.provider {
            TageProvider::Bimodal => self.provider_ctr == -2 || self.provider_ctr == 1,
            TageProvider::Hit | TageProvider::Alt => {
                self.provider_ctr == -4 || self.provider_ctr == 3
            }
        }
    }
}

/// A TAGE predictor (tables only; history lives in a [`HistoryState`]
/// owned by the caller, enabling independent predicted-path and
/// alternate-path histories as §IV-C of the paper requires).
#[derive(Clone, Debug)]
pub struct Tage {
    params: TageParams,
    bimodal: Bimodal,
    /// All tagged tables back to back, `1 << log_entries` entries each.
    tables: Tables<TageEntry>,
    use_alt_on_na: i8,
    lfsr: u32,
    updates: u64,
}

impl Tage {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if the parameter shape is inconsistent.
    pub fn new(params: TageParams) -> Self {
        assert_eq!(params.hist_len.len(), params.num_tables);
        assert!(params.num_tables <= MAX_TABLES);
        assert!(params.tag_bits >= 2 && params.tag_bits <= 15);
        Tage {
            bimodal: Bimodal::new(params.log_bimodal),
            tables: Tables::new(
                params.num_tables,
                1 << params.log_entries,
                TageEntry::default(),
            ),
            use_alt_on_na: 0,
            lfsr: 0xACE1_1234,
            updates: 0,
            params,
        }
    }

    /// The geometry.
    pub fn params(&self) -> &TageParams {
        &self.params
    }

    /// Creates a [`HistoryState`] shaped for this predictor alone (the
    /// TAGE-SC-L composite builds a combined one instead).
    pub fn new_history(&self) -> HistoryState {
        HistoryState::new(&self.params.fold_specs())
    }

    /// Flat position of entry `idx` of tagged table `t`.
    #[inline]
    fn slot(&self, t: usize, idx: u16) -> usize {
        (t << self.params.log_entries) | usize::from(idx)
    }

    #[inline]
    fn index(&self, pc: Addr, hist: &HistoryState, t: usize, fold_base: usize) -> u16 {
        let pcs = pc.raw() >> 2;
        let mask = (1u64 << self.params.log_entries) - 1;
        let h = u64::from(hist.folded(fold_base + t * 3));
        ((pcs ^ (pcs >> (self.params.log_entries as u64 - (t as u64 % 4))) ^ h) & mask) as u16
    }

    #[inline]
    fn tag(&self, pc: Addr, hist: &HistoryState, t: usize, fold_base: usize) -> u16 {
        let pcs = pc.raw() >> 2;
        let mask = (1u64 << self.params.tag_bits) - 1;
        let h1 = u64::from(hist.folded(fold_base + t * 3 + 1));
        let h2 = u64::from(hist.folded(fold_base + t * 3 + 2));
        ((pcs ^ h1 ^ (h2 << 1)) & mask) as u16
    }

    /// Predicts the direction of the conditional branch at `pc` given a
    /// history whose folds start at `fold_base` (0 when using
    /// [`Tage::new_history`]).
    pub fn predict(&self, hist: &HistoryState, pc: Addr, fold_base: usize) -> TagePrediction {
        let n = self.params.num_tables;
        let mut indices = [0u16; MAX_TABLES];
        let mut tags = [0u16; MAX_TABLES];
        let mut hit: i8 = -1;
        let mut alt: i8 = -1;
        for t in 0..n {
            indices[t] = self.index(pc, hist, t, fold_base);
            tags[t] = self.tag(pc, hist, t, fold_base);
            let e = &self.tables[self.slot(t, indices[t])];
            if e.tag == tags[t] | VALID {
                alt = hit;
                hit = t as i8;
            }
        }
        let bim_ctr = self.bimodal.counter(pc);
        let bim_taken = bim_ctr >= 0;
        let (taken, provider, provider_ctr, hit_taken, alt_taken, newly_alloc);
        if hit >= 0 {
            let e = self.tables[self.slot(hit as usize, indices[hit as usize])];
            hit_taken = e.ctr >= 0;
            newly_alloc = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
            let (a_taken, a_ctr, a_is_table) = if alt >= 0 {
                let a = self.tables[self.slot(alt as usize, indices[alt as usize])];
                (a.ctr >= 0, a.ctr, true)
            } else {
                (bim_taken, bim_ctr, false)
            };
            alt_taken = a_taken;
            if newly_alloc && self.use_alt_on_na >= 0 {
                taken = a_taken;
                if a_is_table {
                    provider = TageProvider::Alt;
                    provider_ctr = a_ctr;
                } else {
                    provider = TageProvider::Bimodal;
                    provider_ctr = bim_ctr;
                }
            } else {
                taken = hit_taken;
                provider = TageProvider::Hit;
                provider_ctr = e.ctr;
            }
        } else {
            hit_taken = bim_taken;
            alt_taken = bim_taken;
            newly_alloc = false;
            taken = bim_taken;
            provider = TageProvider::Bimodal;
            provider_ctr = bim_ctr;
        }
        TagePrediction {
            taken,
            provider,
            provider_ctr,
            hit_bank: hit,
            alt_bank: alt,
            hit_taken,
            alt_taken,
            bim_taken,
            bim_ctr,
            newly_alloc,
            indices,
            tags,
        }
    }

    #[inline]
    fn next_rand(&mut self) -> u32 {
        // xorshift32 — deterministic allocation tie-breaking.
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.lfsr = x;
        x
    }

    /// Trains the predictor with the resolved outcome. `pred` must be the
    /// value returned by [`Tage::predict`] for this dynamic branch.
    pub fn update(&mut self, pc: Addr, pred: &TagePrediction, taken: bool) {
        self.updates += 1;
        if self.updates.is_multiple_of(self.params.u_reset_period) {
            for e in self.tables.iter_mut() {
                e.u >>= 1;
            }
        }

        let n = self.params.num_tables;
        let mispred = pred.taken != taken;

        // Allocation: on a misprediction, try to allocate in a longer table.
        let alloc_start = (i16::from(pred.hit_bank) + 1) as usize;
        if mispred && alloc_start < n {
            let start = alloc_start;
            // Randomize the first candidate to spread allocations.
            let skip = (self.next_rand() as usize) % 2;
            let mut allocated = false;
            let mut j = start + skip.min(n - 1 - start);
            while j < n {
                let slot = self.slot(j, pred.indices[j]);
                let e = &mut self.tables[slot];
                if e.u == 0 {
                    *e = TageEntry {
                        ctr: if taken { 0 } else { -1 },
                        u: 0,
                        tag: pred.tags[j] | VALID,
                    };
                    allocated = true;
                    break;
                }
                j += 1;
            }
            if !allocated {
                for j in start..n {
                    let slot = self.slot(j, pred.indices[j]);
                    let e = &mut self.tables[slot];
                    e.u = e.u.saturating_sub(1);
                }
            }
        }

        // Counter updates.
        if pred.hit_bank >= 0 {
            let hb = pred.hit_bank as usize;
            let hit_slot = self.slot(hb, pred.indices[hb]);
            {
                let e = &mut self.tables[hit_slot];
                e.ctr = bump3(e.ctr, taken);
            }
            if pred.newly_alloc {
                // Also train the alternate chain while the hit entry is cold.
                if pred.alt_bank >= 0 {
                    let ab = pred.alt_bank as usize;
                    let slot = self.slot(ab, pred.indices[ab]);
                    let e = &mut self.tables[slot];
                    e.ctr = bump3(e.ctr, taken);
                } else {
                    self.bimodal.update(pc, taken);
                }
                // use_alt_on_na learns whether alt beats a cold hit entry.
                if pred.hit_taken != pred.alt_taken {
                    self.use_alt_on_na = if pred.alt_taken == taken {
                        (self.use_alt_on_na + 1).min(7)
                    } else {
                        (self.use_alt_on_na - 1).max(-8)
                    };
                }
            }
            // Usefulness: the hit entry is useful when it disagrees with
            // the alternate and is right.
            if pred.hit_taken != pred.alt_taken {
                let e = &mut self.tables[hit_slot];
                if pred.hit_taken == taken {
                    e.u = (e.u + 1).min(3);
                } else {
                    e.u = e.u.saturating_sub(1);
                }
            }
        } else {
            self.bimodal.update(pc, taken);
        }
    }

    /// Total storage in bits (tagged tables + bimodal).
    pub fn storage_bits(&self) -> u64 {
        let per_entry = 3 + 2 + u64::from(self.params.tag_bits);
        let tagged = self.params.num_tables as u64 * (1u64 << self.params.log_entries) * per_entry;
        tagged + self.bimodal.storage_bits()
    }

    /// Copies `source`'s state into this predictor's buffers.
    pub(crate) fn copy_from(&mut self, source: &Self) {
        let Tage {
            params: _,
            bimodal,
            tables,
            use_alt_on_na,
            lfsr,
            updates,
        } = source;
        self.bimodal.copy_from(bimodal);
        self.tables.copy_from_slice(tables);
        self.use_alt_on_na = *use_alt_on_na;
        self.lfsr = *lfsr;
        self.updates = *updates;
    }
}

sim_isa::state_fields!(Tage { bimodal, tables, use_alt_on_na, lfsr, updates } skip { params });
/// The bytes of the unpacked entry: `ctr`, the tag without its valid
/// bit, `u`, then the valid bit as a bool.
impl sim_isa::State for TageEntry {
    fn save_state(&self, w: &mut sim_isa::StateWriter) {
        w.put_i8(self.ctr);
        w.put_u16(self.tag & !VALID);
        w.put_u8(self.u);
        w.put_bool(self.tag & VALID != 0);
    }

    /// # Panics
    ///
    /// Panics if the saved tag has bit 15 set, which save never writes.
    fn restore_state(&mut self, r: &mut sim_isa::StateReader) {
        self.ctr = r.get_i8();
        let tag = r.get_u16();
        assert_eq!(
            tag & VALID,
            0,
            "checkpoint state corrupt: TAGE tag {tag:#x} wider than 15 bits"
        );
        self.u = r.get_u8();
        self.tag = if r.get_bool() { tag | VALID } else { tag };
    }
}

sim_isa::state_enum!(TageProvider { 0 => Bimodal, 1 => Hit, 2 => Alt });
sim_isa::state_fields!(TagePrediction {
    taken, provider, provider_ctr, hit_bank, alt_bank, hit_taken, alt_taken, bim_taken, bim_ctr,
    newly_alloc, indices, tags,
} skip {});

#[inline]
fn bump3(c: i8, taken: bool) -> i8 {
    if taken {
        (c + 1).min(3)
    } else {
        (c - 1).max(-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Tage, HistoryState) {
        let t = Tage::new(TageParams {
            num_tables: 4,
            log_entries: 7,
            tag_bits: 8,
            hist_len: vec![4, 8, 16, 32],
            log_bimodal: 8,
            u_reset_period: 1 << 20,
        });
        let h = t.new_history();
        (t, h)
    }

    #[test]
    fn cold_predictor_uses_bimodal() {
        let (t, h) = small();
        let p = t.predict(&h, Addr::new(0x400), 0);
        assert_eq!(p.provider, TageProvider::Bimodal);
        assert_eq!(p.hit_bank, -1);
    }

    #[test]
    fn learns_a_strong_bias() {
        let (mut t, mut h) = small();
        let pc = Addr::new(0x400);
        for _ in 0..64 {
            let p = t.predict(&h, pc, 0);
            t.update(pc, &p, true);
            h.push(true);
        }
        let p = t.predict(&h, pc, 0);
        assert!(p.taken);
        assert!(p.provider_saturated());
    }

    #[test]
    fn learns_a_history_pattern_bimodal_cannot() {
        // Alternating T,N,T,N ... with a 2-deep history is trivially
        // TAGE-predictable but 50% for bimodal.
        let (mut t, mut h) = small();
        let pc = Addr::new(0x880);
        let mut correct_late = 0;
        for i in 0..4000u32 {
            let outcome = i % 2 == 0;
            let p = t.predict(&h, pc, 0);
            if i >= 2000 && p.taken == outcome {
                correct_late += 1;
            }
            t.update(pc, &p, outcome);
            h.push(outcome);
        }
        assert!(
            correct_late > 1900,
            "TAGE should nail the pattern: {correct_late}/2000"
        );
    }

    #[test]
    fn tagged_provider_appears_after_training() {
        let (mut t, mut h) = small();
        let pc = Addr::new(0x880);
        let mut tagged = 0;
        for i in 0..4000u32 {
            let outcome = (i / 2) % 2 == 0; // TTNN: bimodal cannot settle
            let p = t.predict(&h, pc, 0);
            if i >= 3000 && p.provider != TageProvider::Bimodal {
                tagged += 1;
            }
            t.update(pc, &p, outcome);
            h.push(outcome);
        }
        assert!(
            tagged > 700,
            "pattern must mostly come from tagged tables: {tagged}/1000"
        );
    }

    #[test]
    fn update_with_checkpointed_prediction_is_consistent() {
        // predict → push → (later) update must not panic and must train.
        let (mut t, mut h) = small();
        let pc = Addr::new(0x120);
        let p1 = t.predict(&h, pc, 0);
        h.push(true);
        let p2 = t.predict(&h, pc, 0);
        h.push(true);
        t.update(pc, &p1, true);
        t.update(pc, &p2, true);
    }

    #[test]
    fn storage_accounting() {
        let t = Tage::new(TageParams::main_64k());
        let kb = t.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (40.0..70.0).contains(&kb),
            "64K-class TAGE ≈ 53 KB, got {kb:.1}"
        );
        let a = Tage::new(TageParams::alt_8k());
        let kb = a.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (4.0..8.0).contains(&kb),
            "8K-class TAGE ≈ 6 KB, got {kb:.1}"
        );
    }

    #[test]
    fn provider_saturated_rules() {
        let p = TagePrediction {
            taken: true,
            provider: TageProvider::Bimodal,
            provider_ctr: 1,
            hit_bank: -1,
            alt_bank: -1,
            hit_taken: true,
            alt_taken: true,
            bim_taken: true,
            bim_ctr: 1,
            newly_alloc: false,
            indices: [0; MAX_TABLES],
            tags: [0; MAX_TABLES],
        };
        assert!(p.provider_saturated());
        let weak = TagePrediction {
            provider_ctr: 0,
            ..p
        };
        assert!(!weak.provider_saturated());
        let hit_sat = TagePrediction {
            provider: TageProvider::Hit,
            provider_ctr: -4,
            ..p
        };
        assert!(hit_sat.provider_saturated());
        let hit_weak = TagePrediction {
            provider: TageProvider::Hit,
            provider_ctr: 1,
            ..p
        };
        assert!(!hit_weak.provider_saturated());
    }

    #[test]
    fn packed_entry_is_four_bytes() {
        assert_eq!(std::mem::size_of::<TageEntry>(), 4);
    }

    #[test]
    fn packed_entry_saves_ctr_tag_u_valid() {
        use sim_isa::{State, StateReader, StateWriter};
        for (entry, valid) in [
            (
                TageEntry {
                    ctr: -3,
                    u: 2,
                    tag: 0x7abc | VALID,
                },
                true,
            ),
            (
                TageEntry {
                    ctr: 1,
                    u: 0,
                    tag: 0x0123,
                },
                false,
            ),
        ] {
            let mut w = StateWriter::new();
            entry.save_state(&mut w);
            let mut expected = StateWriter::new();
            expected.put_i8(entry.ctr);
            expected.put_u16(entry.tag & !VALID);
            expected.put_u8(entry.u);
            expected.put_bool(valid);
            assert_eq!(w.bytes(), expected.bytes());
            let mut back = TageEntry::default();
            let mut r = StateReader::new(w.bytes());
            back.restore_state(&mut r);
            r.finish();
            assert_eq!(
                (back.ctr, back.u, back.tag),
                (entry.ctr, entry.u, entry.tag)
            );
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint state corrupt: TAGE tag 0x8001")]
    fn restore_rejects_a_tag_with_bit_15_set() {
        use sim_isa::{State, StateReader, StateWriter};
        let mut w = StateWriter::new();
        w.put_i8(0);
        w.put_u16(0x8001);
        w.put_u8(0);
        w.put_bool(true);
        TageEntry::default().restore_state(&mut StateReader::new(w.bytes()));
    }
}
