//! Top-down frontend cycle accounting.
//!
//! Every simulated cycle of fetch/decode bandwidth is charged to exactly
//! one [`CycleCause`] — either the frontend delivered µ-ops (and we record
//! which path supplied them) or it did not (and we record the single
//! highest-precedence reason why). The invariant that makes the numbers
//! trustworthy is structural: the charger ([`CycleAccounting::charge`])
//! bumps one category counter *and* the total counter per call, and the
//! simulator calls it exactly once per cycle, so for any measurement
//! window
//!
//! ```text
//! Σ category cycles == total cycles == SimStats::cycles
//! ```
//!
//! [`AccountingBreakdown::verify`] checks the first equality on any
//! snapshot; the experiment runner checks the second per run.
//!
//! # Precedence
//!
//! When several stall causes coincide in one cycle, the charged category
//! is the first match in this order (delivery always wins — a cycle that
//! moved µ-ops is a delivery cycle no matter what else was pending):
//!
//! 1. [`CycleCause::DeliverUop`] — ≥1 µ-op entered the µ-op queue from
//!    the µ-op cache path.
//! 2. [`CycleCause::DeliverDecode`] — else, ≥1 µ-op from the L1I+decode
//!    path.
//! 3. [`CycleCause::ModeSwitch`] — else, delivery was inside a
//!    stream↔build mode-switch penalty window.
//! 4. [`CycleCause::BackendFull`] — else, delivery was blocked because
//!    the µ-op queue had no room (backpressure from dispatch/backend).
//! 5. [`CycleCause::L1iMiss`] — else, the head fetch block's L1I data was
//!    not ready (miss in flight, or the L1I MSHR rejected the fetch).
//! 6. [`CycleCause::Drained`] / [`CycleCause::Resteer`] — else, the FTQ
//!    was empty because the frontend was squashed (flush redirect, or a
//!    no-target indirect draining until resolution) or stalled on a
//!    BTB-miss re-steer bubble.
//! 7. [`CycleCause::FtqEmpty`] — else, the FTQ was empty with address
//!    generation live (the walker simply has not caught up).
//! 8. [`CycleCause::Drained`] — anything left (conservative catch-all).

use crate::registry::{Counter, Registry, RegistrySnapshot};
use serde::{Deserialize, Serialize};

/// The category a simulated frontend cycle is charged to. See the module
/// docs for definitions and the precedence order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CycleCause {
    /// Delivered µ-ops from the µ-op cache (stream path, or a build-mode
    /// parallel probe hit).
    DeliverUop,
    /// Delivered µ-ops through the L1I + decoders.
    DeliverDecode,
    /// Stalled inside a stream↔build mode-switch penalty window.
    ModeSwitch,
    /// Delivery blocked by a full µ-op queue (backend backpressure).
    BackendFull,
    /// Head fetch block waiting on the L1I (miss in flight or MSHR full).
    L1iMiss,
    /// FTQ empty behind a BTB-miss re-steer bubble.
    Resteer,
    /// FTQ empty with a live walker that has not caught up.
    FtqEmpty,
    /// Frontend drained: flush redirect penalty, a no-target branch
    /// awaiting resolution, or any residual unattributed cycle.
    Drained,
}

// Checkpoint codes follow `ALL`.
sim_isa::state_enum!(CycleCause {
    0 => DeliverUop,
    1 => DeliverDecode,
    2 => ModeSwitch,
    3 => BackendFull,
    4 => L1iMiss,
    5 => Resteer,
    6 => FtqEmpty,
    7 => Drained,
});

impl CycleCause {
    /// Every category, in display order.
    pub const ALL: [CycleCause; 8] = [
        CycleCause::DeliverUop,
        CycleCause::DeliverDecode,
        CycleCause::ModeSwitch,
        CycleCause::BackendFull,
        CycleCause::L1iMiss,
        CycleCause::Resteer,
        CycleCause::FtqEmpty,
        CycleCause::Drained,
    ];

    /// Number of categories.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (the counter-path suffix).
    pub fn name(self) -> &'static str {
        match self {
            CycleCause::DeliverUop => "deliver_uop",
            CycleCause::DeliverDecode => "deliver_decode",
            CycleCause::ModeSwitch => "mode_switch",
            CycleCause::BackendFull => "backend_full",
            CycleCause::L1iMiss => "l1i_miss",
            CycleCause::Resteer => "resteer",
            CycleCause::FtqEmpty => "ftq_empty",
            CycleCause::Drained => "drained",
        }
    }

    /// Registry path of this category's cycle counter.
    pub fn counter_path(self) -> String {
        format!("account.{}", self.name())
    }
}

/// Registry path of the total-cycles counter the charger maintains.
pub const TOTAL_CYCLES_PATH: &str = "account.total_cycles";

/// The per-cycle charger. Holds one counter handle per category plus the
/// total, so a charge is two relaxed atomic adds — cheap enough to leave
/// on for every run. Detached by default (increments tick into
/// unobservable cells); bind with [`CycleAccounting::bound_to`].
#[derive(Clone, Debug, Default)]
pub struct CycleAccounting {
    counters: [Counter; CycleCause::COUNT],
    total: Counter,
}

impl CycleAccounting {
    /// A charger whose counters live in `registry` under `account.*`.
    pub fn bound_to(registry: &Registry) -> Self {
        CycleAccounting {
            counters: std::array::from_fn(|i| registry.counter(&CycleCause::ALL[i].counter_path())),
            total: registry.counter(TOTAL_CYCLES_PATH),
        }
    }

    /// Charges one cycle to `cause` (and to the total).
    #[inline]
    pub fn charge(&self, cause: CycleCause) {
        self.counters[cause as usize].inc();
        self.total.inc();
    }

    /// Cycles charged to `cause` so far.
    pub fn charged(&self, cause: CycleCause) -> u64 {
        self.counters[cause as usize].get()
    }

    /// Total cycles charged so far.
    pub fn total(&self) -> u64 {
        self.total.get()
    }
}

/// A decoded per-category cycle breakdown, extracted from any
/// [`RegistrySnapshot`] (a whole run, a measurement-window delta, an
/// interval delta, or a suite-wide merge — they all carry `account.*`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountingBreakdown {
    /// Cycles per category, indexed like [`CycleCause::ALL`].
    pub cycles: [u64; CycleCause::COUNT],
    /// The independently-maintained total-cycles counter.
    pub total: u64,
}

impl AccountingBreakdown {
    /// Reads the `account.*` counters out of `snap`. Missing counters
    /// read as zero, so snapshots from runs without accounting decode to
    /// an empty breakdown.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        Self::from_counters(&snap.counters)
    }

    /// Like [`AccountingBreakdown::from_snapshot`], but from a bare
    /// counter map (the form interval records carry).
    pub fn from_counters(counters: &std::collections::BTreeMap<String, u64>) -> Self {
        let cycles = std::array::from_fn(|i| {
            counters
                .get(&CycleCause::ALL[i].counter_path())
                .copied()
                .unwrap_or(0)
        });
        AccountingBreakdown {
            cycles,
            total: counters.get(TOTAL_CYCLES_PATH).copied().unwrap_or(0),
        }
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: CycleCause) -> u64 {
        self.cycles[cause as usize]
    }

    /// Sum of the per-category cycles.
    pub fn sum(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Share of total cycles charged to `cause`, in percent.
    pub fn share_pct(&self, cause: CycleCause) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.get(cause) as f64 / self.total as f64
        }
    }

    /// Checks the accounting invariant: per-category cycles sum to the
    /// total. An empty breakdown verifies (no accounting ran).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the mismatch.
    pub fn verify(&self) -> Result<(), String> {
        let sum = self.sum();
        if sum == self.total {
            Ok(())
        } else {
            Err(format!(
                "cycle-accounting invariant violated: categories sum to {sum} \
                 but total_cycles is {} (diff {})",
                self.total,
                sum.abs_diff(self.total)
            ))
        }
    }

    /// Categories with their cycle counts, largest first (stable for
    /// ties, following [`CycleCause::ALL`] order).
    pub fn sorted(&self) -> Vec<(CycleCause, u64)> {
        let mut rows: Vec<(CycleCause, u64)> =
            CycleCause::ALL.iter().map(|&c| (c, self.get(c))).collect();
        rows.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles));
        rows
    }

    /// Renders a sorted plain-text breakdown table (`category  cycles
    /// share%` rows plus a total line).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (cause, cycles) in self.sorted() {
            out.push_str(&format!(
                "  {:<16} {:>14} {:>7.2}%\n",
                cause.name(),
                cycles,
                self.share_pct(cause)
            ));
        }
        out.push_str(&format!("  {:<16} {:>14} 100.00%\n", "total", self.total));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{State, StateReader, StateWriter};

    #[test]
    fn checkpoint_codes_are_positions_in_all() {
        for (code, cause) in CycleCause::ALL.into_iter().enumerate() {
            let mut w = StateWriter::new();
            cause.save_state(&mut w);
            assert_eq!(w.bytes(), [code as u8]);
            let mut back = CycleCause::Drained;
            back.restore_state(&mut StateReader::new(w.bytes()));
            assert_eq!(back, cause);
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint state corrupt: CycleCause code 8")]
    fn checkpoint_restore_rejects_a_code_past_all() {
        let mut cause = CycleCause::Drained;
        cause.restore_state(&mut StateReader::new(&[CycleCause::COUNT as u8]));
    }

    #[test]
    fn charge_maintains_invariant() {
        let reg = Registry::default();
        let acc = CycleAccounting::bound_to(&reg);
        acc.charge(CycleCause::DeliverUop);
        acc.charge(CycleCause::DeliverUop);
        acc.charge(CycleCause::L1iMiss);
        acc.charge(CycleCause::Drained);
        let b = AccountingBreakdown::from_snapshot(&reg.snapshot());
        assert_eq!(b.total, 4);
        assert_eq!(b.get(CycleCause::DeliverUop), 2);
        assert_eq!(b.get(CycleCause::L1iMiss), 1);
        assert_eq!(b.sum(), 4);
        b.verify().expect("invariant holds");
        assert!((b.share_pct(CycleCause::DeliverUop) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn verify_catches_tampering() {
        let reg = Registry::default();
        let acc = CycleAccounting::bound_to(&reg);
        acc.charge(CycleCause::FtqEmpty);
        // A stray write to the total outside charge() breaks the sum.
        reg.counter(TOTAL_CYCLES_PATH).inc();
        let b = AccountingBreakdown::from_snapshot(&reg.snapshot());
        let err = b.verify().unwrap_err();
        assert!(err.contains("invariant violated"), "{err}");
    }

    #[test]
    fn empty_snapshot_decodes_and_verifies() {
        let b = AccountingBreakdown::from_snapshot(&RegistrySnapshot::default());
        assert_eq!((b.total, b.sum()), (0, 0));
        b.verify().expect("empty breakdown is consistent");
        assert_eq!(b.share_pct(CycleCause::Drained), 0.0);
    }

    #[test]
    fn breakdown_survives_window_delta() {
        let reg = Registry::default();
        let acc = CycleAccounting::bound_to(&reg);
        acc.charge(CycleCause::DeliverDecode);
        let warmup_end = reg.snapshot();
        acc.charge(CycleCause::DeliverUop);
        acc.charge(CycleCause::ModeSwitch);
        let window = reg.snapshot().delta_since(&warmup_end);
        let b = AccountingBreakdown::from_snapshot(&window);
        assert_eq!(b.total, 2);
        assert_eq!(b.get(CycleCause::DeliverDecode), 0);
        b.verify().expect("delta windows keep the invariant");
    }

    #[test]
    fn table_sorts_by_cycles() {
        let reg = Registry::default();
        let acc = CycleAccounting::bound_to(&reg);
        for _ in 0..3 {
            acc.charge(CycleCause::L1iMiss);
        }
        acc.charge(CycleCause::DeliverUop);
        let b = AccountingBreakdown::from_snapshot(&reg.snapshot());
        let t = b.table();
        let l1i = t.find("l1i_miss").unwrap();
        let uop = t.find("deliver_uop").unwrap();
        assert!(l1i < uop, "largest category first:\n{t}");
        assert!(t.contains("total"));
    }

    #[test]
    fn paths_are_stable() {
        assert_eq!(CycleCause::DeliverUop.counter_path(), "account.deliver_uop");
        assert_eq!(TOTAL_CYCLES_PATH, "account.total_cycles");
        assert_eq!(CycleCause::ALL.len(), CycleCause::COUNT);
    }
}
