//! DRAM timing: channels, banks and tRP/tRCD/tCAS, per the paper's Table II
//! (2 channels, 8 banks, 12.5 ns each for tRP/tRCD/tCAS).

use serde::{Deserialize, Serialize};
use sim_isa::Addr;

/// DRAM timing parameters, expressed in core cycles.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Row-precharge time in cycles.
    pub t_rp: u64,
    /// RAS-to-CAS delay in cycles.
    pub t_rcd: u64,
    /// CAS latency in cycles.
    pub t_cas: u64,
}

impl DramConfig {
    /// Table II values at a 4 GHz core: 12.5 ns = 50 cycles each.
    pub fn alder_lake() -> Self {
        DramConfig {
            channels: 2,
            banks: 8,
            t_rp: 50,
            t_rcd: 50,
            t_cas: 50,
        }
    }
}

/// Open-row DRAM model: each bank remembers its open row; a row hit pays
/// only tCAS, a row conflict pays tRP + tRCD + tCAS, and requests queue
/// behind the bank's busy time.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Per-bank (busy_until_cycle, open_row).
    banks: Box<[(u64, u64)]>,
    accesses: u64,
    row_hits: u64,
}

impl Dram {
    /// Creates an idle DRAM.
    ///
    /// # Panics
    ///
    /// Panics if channels or banks are zero.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.banks > 0);
        let n = cfg.channels * cfg.banks;
        Dram {
            cfg: cfg.clone(),
            banks: vec![(0, u64::MAX); n].into_boxed_slice(),
            accesses: 0,
            row_hits: 0,
        }
    }

    /// Performs one line access starting no earlier than `now`; returns the
    /// cycle at which the data is available.
    pub fn access(&mut self, addr: Addr, now: u64) -> u64 {
        let line = addr.raw() >> 6;
        let nbanks = self.banks.len() as u64;
        // Line-interleave across banks; row = higher-order bits.
        let bank = (line % nbanks) as usize;
        let row = line / nbanks / 128; // 128 lines (8 KB) per row
        let (busy_until, open_row) = self.banks[bank];
        let start = now.max(busy_until);
        let lat = if open_row == row {
            self.row_hits += 1;
            self.cfg.t_cas
        } else {
            self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
        };
        self.accesses += 1;
        let done = start + lat;
        // The bank is occupied for the data-burst duration (a few cycles);
        // use tCAS/4 as the burst occupancy.
        self.banks[bank] = (start + (self.cfg.t_cas / 4).max(1), row);
        done
    }
}

sim_isa::state_fields!(Dram { banks, accesses, row_hits } skip { cfg });

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(&DramConfig::alder_lake())
    }

    #[test]
    fn cold_access_pays_full_latency() {
        let mut d = dram();
        let done = d.access(Addr::new(0x1000), 100);
        assert_eq!(done, 100 + 150);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let a = Addr::new(0x10_0000);
        let first = d.access(a, 0);
        // Same line again: row is open now.
        let second = d.access(a, first);
        assert_eq!(second - first, 50, "row hit pays only tCAS");
        assert_eq!((d.row_hits, d.accesses), (1, 2));
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut d = dram();
        let a = Addr::new(0x0);
        let t1 = d.access(a, 0);
        // Immediately hitting the same bank queues behind the burst.
        let t2 = d.access(a, 0);
        assert!(t2 > 50, "second access must queue: {t2}");
        let _ = t1;
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut d = dram();
        let t1 = d.access(Addr::new(0x00), 0);
        let t2 = d.access(Addr::new(0x40), 0); // next line → next bank
        assert_eq!(t1, t2, "independent banks see identical start");
    }
}
