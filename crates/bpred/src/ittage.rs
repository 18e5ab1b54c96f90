//! ITTAGE: indirect-target predictor with tagged geometric history tables
//! (Seznec, JWAC-2 2011). Used at 64 KB as the main indirect predictor and
//! at 4 KB as UCP's alternate-path indirect predictor (Alt-Ind).

use crate::history::{tagged_fold_specs, FoldSpec, PathHistory};
use sim_isa::state::Tables;
use sim_isa::Addr;

/// Upper bound on tagged tables.
pub const MAX_ITT_TABLES: usize = 10;

/// Geometry of an ITTAGE predictor.
#[derive(Clone, Debug)]
pub struct IttageParams {
    /// Number of tagged tables.
    pub num_tables: usize,
    /// log2 entries per tagged table.
    pub log_entries: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Geometric path-history lengths.
    pub hist_len: Vec<u32>,
    /// log2 entries of the pc-indexed base table.
    pub log_base: u32,
}

impl IttageParams {
    /// ~54 KB main indirect predictor (Table II).
    pub fn main_64k() -> Self {
        IttageParams {
            num_tables: 8,
            log_entries: 10,
            tag_bits: 13,
            hist_len: vec![4, 8, 15, 28, 52, 97, 181, 340],
            log_base: 12,
        }
    }

    /// ~4 KB alternate indirect predictor (Alt-Ind, §IV-F).
    pub fn alt_4k() -> Self {
        IttageParams {
            num_tables: 4,
            log_entries: 7,
            tag_bits: 9,
            hist_len: vec![4, 12, 36, 108],
            log_base: 9,
        }
    }

    /// Fold specs for a [`PathHistory`] (3 per table).
    pub fn fold_specs(&self) -> Vec<FoldSpec> {
        tagged_fold_specs(&self.hist_len, self.log_entries, self.tag_bits)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct IttEntry {
    tag: u16,
    target: Addr,
    ctr: u8, // 2-bit confidence
    u: u8,   // 2-bit usefulness
}

#[derive(Clone, Copy, Debug, Default)]
struct BaseEntry {
    target: Addr,
    ctr: u8,
}

/// One ITTAGE prediction, kept for the update.
#[derive(Clone, Copy, Debug, Default)]
pub struct IttagePrediction {
    /// Predicted target, if any component has one.
    pub target: Option<Addr>,
    /// Providing table (−1 = base table).
    pub provider: i8,
    /// Provider confidence counter (0..=3).
    pub ctr: u8,
    indices: [u16; MAX_ITT_TABLES],
    tags: [u16; MAX_ITT_TABLES],
    base_idx: u32,
}

/// The ITTAGE predictor. Path history lives in a caller-owned
/// [`PathHistory`]; push two target bits per taken control transfer with
/// [`push_target_history`].
#[derive(Clone, Debug)]
pub struct Ittage {
    params: IttageParams,
    /// All tagged tables back to back, `1 << log_entries` entries each.
    tables: Tables<IttEntry>,
    base: Box<[BaseEntry]>,
    lfsr: u32,
    updates: u64,
}

/// Pushes the canonical two target bits for a taken control transfer into
/// an ITTAGE path history.
pub fn push_target_history(hist: &mut PathHistory, target: Addr) {
    // Aligned code means the low target bits are constant; mix higher bits
    // down so distinct targets produce distinct history bits.
    let h = (target.raw() >> 2).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
    hist.push2(h & 1 == 1, (h >> 1) & 1 == 1);
}

impl Ittage {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters.
    pub fn new(params: IttageParams) -> Self {
        assert_eq!(params.hist_len.len(), params.num_tables);
        assert!(params.num_tables <= MAX_ITT_TABLES);
        Ittage {
            tables: Tables::new(
                params.num_tables,
                1 << params.log_entries,
                IttEntry::default(),
            ),
            base: vec![BaseEntry::default(); 1 << params.log_base].into_boxed_slice(),
            lfsr: 0xBEEF_5678,
            updates: 0,
            params,
        }
    }

    /// The geometry.
    pub fn params(&self) -> &IttageParams {
        &self.params
    }

    /// Builds a path history with this predictor's fold layout; its
    /// folds are computed when a prediction reads them.
    pub fn new_history(&self) -> PathHistory {
        PathHistory::new(&self.params.fold_specs())
    }

    /// Flat position of entry `idx` of tagged table `t`.
    #[inline]
    fn slot(&self, t: usize, idx: u16) -> usize {
        (t << self.params.log_entries) | usize::from(idx)
    }

    #[inline]
    fn index(&self, pc: Addr, hist: &PathHistory, t: usize) -> u16 {
        let pcs = pc.raw() >> 2;
        let mask = (1u64 << self.params.log_entries) - 1;
        let h = u64::from(hist.folded(t * 3));
        ((pcs ^ (pcs >> 5) ^ h) & mask) as u16
    }

    #[inline]
    fn tag(&self, pc: Addr, hist: &PathHistory, t: usize) -> u16 {
        let pcs = pc.raw() >> 2;
        let mask = (1u64 << self.params.tag_bits) - 1;
        let h1 = u64::from(hist.folded(t * 3 + 1));
        let h2 = u64::from(hist.folded(t * 3 + 2));
        ((pcs ^ h1 ^ (h2 << 1)) & mask) as u16
    }

    /// Predicts the target of the indirect branch at `pc`.
    pub fn predict(&self, hist: &PathHistory, pc: Addr) -> IttagePrediction {
        let n = self.params.num_tables;
        let mut indices = [0u16; MAX_ITT_TABLES];
        let mut tags = [0u16; MAX_ITT_TABLES];
        let mut provider: i8 = -1;
        for t in 0..n {
            indices[t] = self.index(pc, hist, t);
            tags[t] = self.tag(pc, hist, t);
            let e = &self.tables[self.slot(t, indices[t])];
            if !e.target.is_null() && e.tag == tags[t] {
                provider = t as i8;
            }
        }
        let base_idx = ((pc.raw() >> 2) & ((1 << self.params.log_base) - 1)) as u32;
        if provider >= 0 {
            let p = provider as usize;
            let e = &self.tables[self.slot(p, indices[p])];
            // Weak entries fall back to the base table if it has a target.
            if e.ctr == 0 && !self.base[base_idx as usize].target.is_null() {
                return IttagePrediction {
                    target: Some(self.base[base_idx as usize].target),
                    provider: -1,
                    ctr: self.base[base_idx as usize].ctr,
                    indices,
                    tags,
                    base_idx,
                };
            }
            return IttagePrediction {
                target: Some(e.target),
                provider,
                ctr: e.ctr,
                indices,
                tags,
                base_idx,
            };
        }
        let b = &self.base[base_idx as usize];
        IttagePrediction {
            target: (!b.target.is_null()).then_some(b.target),
            provider: -1,
            ctr: b.ctr,
            indices,
            tags,
            base_idx,
        }
    }

    #[inline]
    fn next_rand(&mut self) -> u32 {
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.lfsr = x;
        x
    }

    /// Trains with the resolved target.
    pub fn update(&mut self, _pc: Addr, pred: &IttagePrediction, actual: Addr) {
        self.updates += 1;
        if self.updates.is_multiple_of(64 * 1024) {
            for e in self.tables.iter_mut() {
                e.u >>= 1;
            }
        }
        let correct = pred.target == Some(actual);
        let n = self.params.num_tables;

        // Provider update.
        if pred.provider >= 0 {
            let p = pred.provider as usize;
            let slot = self.slot(p, pred.indices[p]);
            let e = &mut self.tables[slot];
            if e.target == actual {
                e.ctr = (e.ctr + 1).min(3);
                e.u = (e.u + 1).min(3);
            } else if e.ctr > 0 {
                e.ctr -= 1;
                e.u = e.u.saturating_sub(1);
            } else {
                e.target = actual;
                e.ctr = 1;
            }
        }
        // Base table always trains.
        {
            let b = &mut self.base[pred.base_idx as usize];
            if b.target == actual {
                b.ctr = (b.ctr + 1).min(3);
            } else if b.ctr > 0 {
                b.ctr -= 1;
            } else {
                b.target = actual;
                b.ctr = 1;
            }
        }
        // Allocate a longer entry on a wrong target.
        if !correct {
            let start = (pred.provider + 1) as usize;
            if start < n {
                let skip = (self.next_rand() as usize) % 2;
                let mut j = (start + skip).min(n - 1);
                let mut allocated = false;
                while j < n {
                    let slot = self.slot(j, pred.indices[j]);
                    let e = &mut self.tables[slot];
                    if e.u == 0 {
                        *e = IttEntry {
                            tag: pred.tags[j],
                            target: actual,
                            ctr: 1,
                            u: 0,
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
        }
    }

    /// Storage in bits (targets accounted as 24-bit compressed, as real
    /// implementations store region-relative targets).
    pub fn storage_bits(&self) -> u64 {
        let per = u64::from(self.params.tag_bits) + 24 + 2 + 2;
        let tagged = self.params.num_tables as u64 * (1u64 << self.params.log_entries) * per;
        let base = (1u64 << self.params.log_base) * 26;
        tagged + base
    }

    /// Storage in KiB.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8192.0
    }
}

sim_isa::state_fields!(Ittage { tables, base, lfsr, updates } skip { params });
sim_isa::state_fields!(IttEntry { tag, target, ctr, u } skip {});
sim_isa::state_fields!(BaseEntry { target, ctr } skip {});
sim_isa::state_fields!(IttagePrediction { target, provider, ctr, indices, tags, base_idx } skip {});

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Ittage, PathHistory) {
        let i = Ittage::new(IttageParams::alt_4k());
        let h = i.new_history();
        (i, h)
    }

    #[test]
    fn cold_predicts_nothing() {
        let (i, h) = fresh();
        assert_eq!(i.predict(&h, Addr::new(0x100)).target, None);
    }

    #[test]
    fn learns_monomorphic_target() {
        let (mut i, mut h) = fresh();
        let pc = Addr::new(0x100);
        let t = Addr::new(0x4000);
        for _ in 0..20 {
            let p = i.predict(&h, pc);
            i.update(pc, &p, t);
            push_target_history(&mut h, t);
        }
        assert_eq!(i.predict(&h, pc).target, Some(t));
    }

    #[test]
    fn learns_history_correlated_targets() {
        // Target alternates A,B,A,B — pure pc indexing can't exceed 50%,
        // path history disambiguates.
        let (mut i, mut h) = fresh();
        let pc = Addr::new(0x200);
        let a = Addr::new(0x5000);
        let b = Addr::new(0x6000);
        let mut correct = 0;
        for k in 0..3000u32 {
            let t = if k % 2 == 0 { a } else { b };
            let p = i.predict(&h, pc);
            if k >= 1500 && p.target == Some(t) {
                correct += 1;
            }
            i.update(pc, &p, t);
            push_target_history(&mut h, t);
        }
        assert!(
            correct > 1350,
            "alternating targets must be learned: {correct}/1500"
        );
    }

    #[test]
    fn scrambled_targets_stay_hard() {
        let (mut i, mut h) = fresh();
        let pc = Addr::new(0x300);
        let targets: Vec<Addr> = (0..8).map(|k| Addr::new(0x7000 + k * 0x100)).collect();
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut correct = 0;
        for k in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = targets[(x % 8) as usize];
            let p = i.predict(&h, pc);
            if k >= 2000 && p.target == Some(t) {
                correct += 1;
            }
            i.update(pc, &p, t);
            push_target_history(&mut h, t);
        }
        let acc = correct as f64 / 2000.0;
        assert!(acc < 0.5, "8-way scramble must stay hard: {acc}");
    }

    #[test]
    fn storage_budgets() {
        let main = Ittage::new(IttageParams::main_64k());
        assert!(
            (40.0..70.0).contains(&main.storage_kb()),
            "{}",
            main.storage_kb()
        );
        let alt = Ittage::new(IttageParams::alt_4k());
        assert!(
            (2.0..5.0).contains(&alt.storage_kb()),
            "{}",
            alt.storage_kb()
        );
    }
}
