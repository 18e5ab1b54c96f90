//! Banked instruction BTB (branch target buffer).
//!
//! Table II: 64K-entry, 16-bank instruction BTB with LRU. UCP (§IV-C)
//! doubles the banks to 32 and shares them between the predicted and
//! alternate paths; conflicts are arbitrated by the pipeline using
//! [`Btb::bank_of`] and a 3-bit alternate-delay counter.

use serde::{Deserialize, Serialize};
use sim_isa::{Addr, BranchClass};

/// BTB geometry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbConfig {
    /// Total entries (sets × ways).
    pub total_entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Number of banks (address-interleaved).
    pub banks: usize,
}

impl BtbConfig {
    /// Table II baseline: 64K entries, 4-way, 16 banks.
    pub fn baseline() -> Self {
        BtbConfig {
            total_entries: 64 * 1024,
            ways: 4,
            banks: 16,
        }
    }

    /// UCP configuration: same capacity, 32 banks (§IV-C).
    pub fn ucp_32_banks() -> Self {
        BtbConfig {
            total_entries: 64 * 1024,
            ways: 4,
            banks: 32,
        }
    }
}

/// One BTB entry as returned by a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbEntry {
    /// Predicted target (last seen taken target for conditionals).
    pub target: Addr,
    /// Branch class recorded at insertion.
    pub class: BranchClass,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    valid: bool,
    tag: u32,
    target: Addr,
    class: BranchClass,
    lru: u64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            valid: false,
            tag: 0,
            target: Addr::NULL,
            class: BranchClass::CondDirect,
            lru: 0,
        }
    }
}

/// A set-associative, banked BTB.
#[derive(Clone, Debug)]
pub struct Btb {
    cfg: BtbConfig,
    sets: usize,
    /// `banks - 1` when the bank count is a power of two.
    bank_mask: Option<usize>,
    slots: Box<[Slot]>,
    stamp: u64,
    lookups: u64,
    hits: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count or banks is 0.
    pub fn new(cfg: BtbConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.banks > 0);
        assert_eq!(cfg.total_entries % cfg.ways, 0);
        let sets = cfg.total_entries / cfg.ways;
        assert!(sets.is_power_of_two(), "BTB sets must be a power of two");
        Btb {
            sets,
            bank_mask: cfg.banks.is_power_of_two().then(|| cfg.banks - 1),
            slots: vec![Slot::default(); cfg.total_entries].into_boxed_slice(),
            stamp: 0,
            lookups: 0,
            hits: 0,
            cfg,
        }
    }

    /// The geometry.
    pub fn config(&self) -> &BtbConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, pc: Addr) -> u32 {
        (((pc.raw() >> 2) >> self.sets.trailing_zeros()) & 0xffff) as u32
    }

    /// The bank an access to `pc` uses (for conflict modelling).
    #[inline]
    pub fn bank_of(&self, pc: Addr) -> usize {
        let i = (pc.raw() >> 2) as usize;
        match self.bank_mask {
            Some(mask) => i & mask,
            None => i % self.cfg.banks,
        }
    }

    /// Looks up `pc`, updating LRU and statistics.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        self.lookups += 1;
        self.stamp += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        for s in &mut self.slots[base..base + self.cfg.ways] {
            if s.valid && s.tag == tag {
                s.lru = self.stamp;
                self.hits += 1;
                return Some(BtbEntry {
                    target: s.target,
                    class: s.class,
                });
            }
        }
        None
    }

    /// Presence/content check without LRU or statistics effects.
    pub fn probe(&self, pc: Addr) -> Option<BtbEntry> {
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        self.slots[base..base + self.cfg.ways]
            .iter()
            .find(|s| s.valid && s.tag == tag)
            .map(|s| BtbEntry {
                target: s.target,
                class: s.class,
            })
    }

    /// Whether every instruction address in `[lo, hi)` has its own
    /// (set, tag) pair, so that an entry inserted at one of them never
    /// matches a probe at another. The pair holds address bits
    /// `2 .. 2 + log2(sets) + 16`.
    pub fn tags_distinguish(&self, lo: Addr, hi: Addr) -> bool {
        let slots = (hi.raw().saturating_sub(lo.raw()) + 3) >> 2;
        let bits = self.sets.trailing_zeros() + 16;
        1u64.checked_shl(bits).is_none_or(|pairs| slots <= pairs)
    }

    /// Inserts or updates the entry for the branch at `pc`.
    pub fn insert(&mut self, pc: Addr, target: Addr, class: BranchClass) {
        self.stamp += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        // Update in place on a tag match.
        if let Some(s) = self.slots[base..base + self.cfg.ways]
            .iter_mut()
            .find(|s| s.valid && s.tag == tag)
        {
            s.target = target;
            s.class = class;
            s.lru = self.stamp;
            return;
        }
        let victim = self.slots[base..base + self.cfg.ways]
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("ways nonempty");
        *victim = Slot {
            valid: true,
            tag,
            target,
            class,
            lru: self.stamp,
        };
    }

    /// Demand hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Storage in bits: tag(16) + target(32, compressed) + class(3) +
    /// valid(1) + LRU(2) per entry.
    pub fn storage_bits(&self) -> u64 {
        self.cfg.total_entries as u64 * 54
    }
}

sim_isa::state_fields!(Btb { slots, stamp, lookups, hits } skip { cfg, sets, bank_mask });
sim_isa::state_fields!(Slot { valid, tag, target, class, lru } skip {});

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Btb {
        Btb::new(BtbConfig {
            total_entries: 64,
            ways: 4,
            banks: 8,
        })
    }

    #[test]
    fn tags_distinguish_exactly_the_spans_without_aliases() {
        // One set: the (set, tag) pair is the 16 address bits above bit 1,
        // so PCs 2^18 bytes apart alias.
        let mut btb = Btb::new(BtbConfig {
            total_entries: 4,
            ways: 4,
            banks: 1,
        });
        let lo = Addr::new(0x40_0000);
        let span = 4 << 16;
        assert!(btb.tags_distinguish(lo, Addr::new(lo.raw() + span)));
        assert!(!btb.tags_distinguish(lo, Addr::new(lo.raw() + span + 4)));
        let alias = Addr::new(lo.raw() + span);
        btb.insert(lo, Addr::new(0x100), BranchClass::UncondDirect);
        assert!(
            btb.probe(alias).is_some(),
            "the first PC past the span aliases"
        );
        assert!(btb.probe(Addr::new(alias.raw() - 4)).is_none());
        // The baseline geometry tells apart every PC in 4 GiB of code.
        let big = Btb::new(BtbConfig::baseline());
        assert!(big.tags_distinguish(lo, Addr::new(lo.raw() + (1 << 32))));
        assert!(!big.tags_distinguish(lo, Addr::new(lo.raw() + (1 << 32) + 4)));
    }

    #[test]
    fn insert_then_lookup() {
        let mut b = small();
        let pc = Addr::new(0x1000);
        assert_eq!(b.lookup(pc), None);
        b.insert(pc, Addr::new(0x2000), BranchClass::CondDirect);
        assert_eq!(
            b.lookup(pc),
            Some(BtbEntry {
                target: Addr::new(0x2000),
                class: BranchClass::CondDirect
            })
        );
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut b = small();
        let pc = Addr::new(0x1000);
        b.insert(pc, Addr::new(0x2000), BranchClass::IndirectJump);
        b.insert(pc, Addr::new(0x3000), BranchClass::IndirectJump);
        assert_eq!(b.probe(pc).unwrap().target, Addr::new(0x3000));
    }

    #[test]
    fn lru_within_set() {
        let mut b = small();
        // 16 sets; same set = pcs 4 instructions apart × 16 sets.
        let pcs: Vec<Addr> = (0..5).map(|i| Addr::new(0x1000 + i * 16 * 4)).collect();
        for &pc in &pcs[..4] {
            b.insert(pc, Addr::new(0x9000), BranchClass::UncondDirect);
        }
        let _ = b.lookup(pcs[0]); // refresh oldest
        b.insert(pcs[4], Addr::new(0x9000), BranchClass::UncondDirect);
        assert!(b.probe(pcs[0]).is_some(), "recently used survives");
        assert!(b.probe(pcs[1]).is_none(), "LRU victim evicted");
    }

    #[test]
    fn banks_interleave_by_pc() {
        let b = small();
        assert_ne!(b.bank_of(Addr::new(0x1000)), b.bank_of(Addr::new(0x1004)));
        assert_eq!(
            b.bank_of(Addr::new(0x1000)),
            b.bank_of(Addr::new(0x1000 + 8 * 4))
        );
    }

    #[test]
    fn bank_of_handles_any_bank_count() {
        for banks in [1, 6, 16, 32] {
            let b = Btb::new(BtbConfig {
                total_entries: 64,
                ways: 4,
                banks,
            });
            for i in 0..200u64 {
                assert_eq!(b.bank_of(Addr::new(i * 4)), i as usize % banks);
            }
        }
    }

    #[test]
    fn hit_rate_tracks() {
        let mut b = small();
        b.insert(Addr::new(0x40), Addr::new(0x80), BranchClass::Call);
        let _ = b.lookup(Addr::new(0x40));
        let _ = b.lookup(Addr::new(0x44));
        assert!((b.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn baseline_storage_is_hundreds_of_kb() {
        let b = Btb::new(BtbConfig::baseline());
        let kb = b.storage_bits() / 8192;
        assert!((300..600).contains(&kb), "got {kb} KB");
    }
}
