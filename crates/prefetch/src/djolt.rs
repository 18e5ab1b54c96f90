//! D-JOLT (Nakamura et al., IPC1 2020): the "distant jolt" prefetcher.
//!
//! D-JOLT observes that instruction misses recur in stable long-range
//! sequences tied to the calling context. It keeps a *signature* of recent
//! control-flow (here: a rolling hash of recent miss lines, standing in
//! for the return-address-based signature of the original), and two
//! signature-indexed tables:
//!
//! * a **long-range** table predicting the miss `DL` misses ahead,
//! * a **short-range** table predicting the next couple of misses,
//!
//! plus an *exact-miss* fallback table keyed by the current miss line.
//! The original is one of the largest IPC1 entries (~125 KB); the tables
//! here are sized to match that budget.

use crate::{InstPrefetcher, PrefetchTelemetry};
use sim_isa::Addr;
use std::collections::VecDeque;
use ucp_telemetry::Telemetry;

const LONG_DIST: usize = 8;
const SHORT_DIST: usize = 2;

#[derive(Clone, Copy, Default, Debug)]
struct Entry {
    tag: u16,
    target: u64,
    valid: bool,
}

/// The D-JOLT prefetcher.
#[derive(Debug)]
pub struct DJolt {
    /// Long-range table: signature → distant miss line (2^14 entries).
    long: Box<[Entry]>,
    /// Short-range table: signature → next miss line (2^13 entries).
    short: Box<[Entry]>,
    /// Fallback: miss line → next miss line (2^12 entries).
    next_miss: Box<[Entry]>,
    miss_hist: VecDeque<u64>,
    /// Rolling signatures aligned with `miss_hist` (signature *before*
    /// each miss).
    sig_hist: VecDeque<u64>,
    sig: u64,
    pending: Vec<Addr>,
    tele: PrefetchTelemetry,
}

impl DJolt {
    /// Creates the IPC1-budget configuration.
    pub fn new() -> Self {
        DJolt {
            long: vec![Entry::default(); 1 << 14].into_boxed_slice(),
            short: vec![Entry::default(); 1 << 13].into_boxed_slice(),
            next_miss: vec![Entry::default(); 1 << 12].into_boxed_slice(),
            miss_hist: VecDeque::with_capacity(32),
            sig_hist: VecDeque::with_capacity(32),
            sig: 0,
            pending: Vec::new(),
            tele: PrefetchTelemetry::default(),
        }
    }

    #[inline]
    fn slot(table_bits: u32, key: u64) -> (usize, u16) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (
            ((h >> 20) as usize) & ((1 << table_bits) - 1),
            ((h >> 48) & 0x3ff) as u16,
        )
    }
}

impl Default for DJolt {
    fn default() -> Self {
        DJolt::new()
    }
}

sim_isa::state_fields!(DJolt {
    long, short, next_miss, miss_hist, sig_hist, sig, pending,
} skip { tele });
sim_isa::state_fields!(Entry { tag, target, valid } skip {});

impl InstPrefetcher for DJolt {
    fn name(&self) -> &'static str {
        "D-JOLT"
    }

    fn storage_bits(&self) -> u64 {
        // ~125 KB, matching the published budget.
        let e = 10 + 26 + 1;
        (1u64 << 14) * e + (1u64 << 13) * e + (1u64 << 12) * e + 64 * 32
    }

    fn on_access(&mut self, line_addr: Addr, hit: bool) {
        if hit {
            return;
        }
        let line = line_addr.raw() >> 6;

        // Train: the signature seen LONG_DIST misses ago predicts this miss.
        if self.sig_hist.len() >= LONG_DIST {
            let old_sig = self.sig_hist[self.sig_hist.len() - LONG_DIST];
            let (i, t) = Self::slot(14, old_sig);
            self.long[i] = Entry {
                tag: t,
                target: line,
                valid: true,
            };
        }
        if self.sig_hist.len() >= SHORT_DIST {
            let old_sig = self.sig_hist[self.sig_hist.len() - SHORT_DIST];
            let (i, t) = Self::slot(13, old_sig);
            self.short[i] = Entry {
                tag: t,
                target: line,
                valid: true,
            };
        }
        if let Some(&prev) = self.miss_hist.back() {
            let (i, t) = Self::slot(12, prev);
            self.next_miss[i] = Entry {
                tag: t,
                target: line,
                valid: true,
            };
        }

        // Advance the signature: a fold of the last 8 miss lines, so the
        // same recurring subsequence reproduces the same signature.
        self.miss_hist.push_back(line);
        if self.miss_hist.len() > 32 {
            self.miss_hist.pop_front();
        }
        let mut sig = 0u64;
        for &m in self.miss_hist.iter().rev().take(8) {
            sig = sig.rotate_left(9) ^ m;
        }
        self.sig = sig;
        self.sig_hist.push_back(self.sig);
        if self.sig_hist.len() > 32 {
            self.sig_hist.pop_front();
        }

        // Predict from the current signature and the current miss.
        let (il, tl) = Self::slot(14, self.sig);
        if self.long[il].valid && self.long[il].tag == tl {
            self.pending.push(Addr::new(self.long[il].target << 6));
        }
        let (is, ts) = Self::slot(13, self.sig);
        if self.short[is].valid && self.short[is].tag == ts {
            self.pending.push(Addr::new(self.short[is].target << 6));
        }
        let (inm, tnm) = Self::slot(12, line);
        if self.next_miss[inm].valid && self.next_miss[inm].tag == tnm {
            self.pending
                .push(Addr::new(self.next_miss[inm].target << 6));
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele.attach(telemetry);
    }

    fn drain(&mut self, out: &mut Vec<Addr>) {
        self.tele.on_drain(self.name(), &self.pending);
        out.append(&mut self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_chain(p: &mut DJolt, chain: &[Addr], reps: usize) {
        for _ in 0..reps {
            for &a in chain {
                p.on_access(a, false);
                let mut sink = Vec::new();
                p.drain(&mut sink);
            }
        }
    }

    #[test]
    fn learns_recurring_miss_sequences() {
        let mut p = DJolt::new();
        let chain: Vec<Addr> = (0..12)
            .map(|i| Addr::new(0x40_0000 + i * 0x2_0000))
            .collect();
        run_chain(&mut p, &chain, 4);
        // Replay the prefix; expect predictions covering later chain lines.
        let mut predicted = Vec::new();
        for &a in &chain[..4] {
            p.on_access(a, false);
            p.drain(&mut predicted);
        }
        let hits = chain[4..]
            .iter()
            .filter(|a| predicted.contains(&a.line()))
            .count();
        assert!(
            hits >= 2,
            "must predict distant chain members, got {hits} ({predicted:?})"
        );
    }

    #[test]
    fn hits_are_ignored() {
        let mut p = DJolt::new();
        for i in 0..20u64 {
            p.on_access(Addr::new(0x1000 + i * 64), true);
        }
        let mut out = Vec::new();
        p.drain(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_is_about_125_kb() {
        let kb = DJolt::new().storage_bits() / 8192;
        assert!((100..150).contains(&kb), "got {kb} KB");
    }
}
