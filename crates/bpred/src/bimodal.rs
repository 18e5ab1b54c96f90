//! Bimodal base predictor: a table of 2-bit saturating counters.

use sim_isa::Addr;

/// A classic bimodal predictor with 2-bit counters in `-2..=1`
/// (negative = not taken), matching the counter ranges the paper's Fig. 6a
/// reports for the TAGE base predictor.
#[derive(Clone, Debug)]
pub struct Bimodal {
    ctrs: Box<[i8]>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal table with `2^log_entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `log_entries` is 0 or > 24.
    pub fn new(log_entries: u32) -> Self {
        assert!((1..=24).contains(&log_entries));
        let n = 1usize << log_entries;
        Bimodal {
            ctrs: vec![0; n].into_boxed_slice(),
            mask: (n - 1) as u64,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) & self.mask) as usize
    }

    /// The raw counter for `pc` (in `-2..=1`).
    #[inline]
    pub fn counter(&self, pc: Addr) -> i8 {
        self.ctrs[self.index(pc)]
    }

    /// Predicted direction for `pc`.
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        self.counter(pc) >= 0
    }

    /// `true` if the counter for `pc` is saturated (−2 or 1).
    #[inline]
    pub fn saturated(&self, pc: Addr) -> bool {
        let c = self.counter(pc);
        c == -2 || c == 1
    }

    /// Trains the counter toward `taken`.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.ctrs[i];
        *c = if taken {
            (*c + 1).min(1)
        } else {
            (*c - 1).max(-2)
        };
    }

    /// Storage in bits (2 bits per counter).
    pub fn storage_bits(&self) -> u64 {
        self.ctrs.len() as u64 * 2
    }
}

sim_isa::state_fields!(Bimodal { ctrs } skip { mask });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate() {
        let mut b = Bimodal::new(4);
        let pc = Addr::new(0x100);
        for _ in 0..5 {
            b.update(pc, true);
        }
        assert_eq!(b.counter(pc), 1);
        assert!(b.saturated(pc));
        assert!(b.predict(pc));
        for _ in 0..5 {
            b.update(pc, false);
        }
        assert_eq!(b.counter(pc), -2);
        assert!(!b.predict(pc));
    }

    #[test]
    fn weak_states_not_saturated() {
        let mut b = Bimodal::new(4);
        let pc = Addr::new(0x100);
        assert!(
            !b.saturated(pc),
            "initial weak-not-taken is 0? counter starts 0 = weak taken"
        );
        b.update(pc, false);
        assert_eq!(b.counter(pc), -1);
        assert!(!b.saturated(pc));
    }

    #[test]
    fn distinct_pcs_map_to_distinct_counters() {
        let mut b = Bimodal::new(6);
        b.update(Addr::new(0x100), true);
        b.update(Addr::new(0x100), true);
        assert!(b.predict(Addr::new(0x100)));
        assert!(b.counter(Addr::new(0x104)) == 0, "neighbour untouched");
    }

    #[test]
    fn storage_bits() {
        assert_eq!(Bimodal::new(12).storage_bits(), 8192);
    }
}
