//! FNL+MMA (Seznec, IPC1 2020): "Footprint Next Line + Multiple Miss
//! Ahead".
//!
//! Two cooperating components:
//!
//! * **FNL** — a footprint table keyed by the current line records which of
//!   the following few lines were touched soon after it; on any access the
//!   recorded footprint is prefetched.
//! * **MMA** — a miss-ahead table keyed by a missing line records the line
//!   that missed `D` misses later; on a miss the predicted distant miss is
//!   prefetched, jumping ahead of the sequential footprint.
//!
//! The `++` variant doubles both tables and runs MMA two distances deep.

use crate::{InstPrefetcher, PrefetchTelemetry};
use sim_isa::Addr;
use std::collections::VecDeque;
use ucp_telemetry::Telemetry;

const FOOTPRINT_LINES: u64 = 8;

#[derive(Clone, Copy, Default)]
struct FnlEntry {
    tag: u16,
    footprint: u8,
    valid: bool,
}

#[derive(Clone, Copy, Default)]
struct MmaEntry {
    tag: u16,
    target: u64, // line address
    valid: bool,
}

/// The FNL+MMA prefetcher.
#[derive(Debug)]
pub struct FnlMma {
    plus_plus: bool,
    log_fnl: u32,
    log_mma: u32,
    fnl: Box<[FnlEntry]>,
    mma: Box<[MmaEntry]>,
    mma2: Box<[MmaEntry]>,
    /// Recent demand lines (newest at back) for footprint training.
    recent: VecDeque<u64>,
    /// Recent miss lines for MMA training.
    miss_hist: VecDeque<u64>,
    pending: Vec<Addr>,
    mma_dist: usize,
    tele: PrefetchTelemetry,
}

impl std::fmt::Debug for FnlEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnlEntry({:x},{:b})", self.tag, self.footprint)
    }
}

impl std::fmt::Debug for MmaEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MmaEntry({:x}->{:x})", self.tag, self.target)
    }
}

impl FnlMma {
    /// Creates the IPC1 configuration (`plus_plus = false`) or the updated
    /// FNL-MMA++ (`true`).
    pub fn new(plus_plus: bool) -> Self {
        let (log_fnl, log_mma) = if plus_plus { (13, 13) } else { (12, 12) };
        FnlMma {
            plus_plus,
            log_fnl,
            log_mma,
            fnl: vec![FnlEntry::default(); 1 << log_fnl].into_boxed_slice(),
            mma: vec![MmaEntry::default(); 1 << log_mma].into_boxed_slice(),
            mma2: vec![MmaEntry::default(); if plus_plus { 1 << log_mma } else { 0 }]
                .into_boxed_slice(),
            recent: VecDeque::with_capacity(32),
            miss_hist: VecDeque::with_capacity(32),
            pending: Vec::new(),
            mma_dist: if plus_plus { 6 } else { 4 },
            tele: PrefetchTelemetry::default(),
        }
    }

    #[inline]
    fn fnl_slot(&self, line: u64) -> (usize, u16) {
        let h = line ^ (line >> self.log_fnl as u64);
        (
            (h as usize) & ((1 << self.log_fnl) - 1),
            ((line >> 7) & 0x3ff) as u16,
        )
    }

    #[inline]
    fn mma_slot(&self, line: u64) -> (usize, u16) {
        let h = line ^ (line >> (self.log_mma as u64 + 2));
        (
            (h as usize) & ((1 << self.log_mma) - 1),
            ((line >> 9) & 0x3ff) as u16,
        )
    }

    fn train_footprint(&mut self, line: u64) {
        // Mark `line` in the footprints of the recent preceding lines that
        // are within FOOTPRINT_LINES ahead of it.
        for &prev in self.recent.iter().rev().take(12) {
            if line > prev && line - prev <= FOOTPRINT_LINES {
                let (idx, tag) = self.fnl_slot(prev);
                let e = &mut self.fnl[idx];
                if !e.valid || e.tag != tag {
                    *e = FnlEntry {
                        tag,
                        footprint: 0,
                        valid: true,
                    };
                }
                e.footprint |= 1 << (line - prev - 1);
            }
        }
    }
}

sim_isa::state_fields!(FnlMma {
    fnl, mma, mma2, recent, miss_hist, pending,
} skip { plus_plus, log_fnl, log_mma, mma_dist, tele });
sim_isa::state_fields!(FnlEntry { tag, footprint, valid } skip {});
sim_isa::state_fields!(MmaEntry { tag, target, valid } skip {});

impl InstPrefetcher for FnlMma {
    fn name(&self) -> &'static str {
        if self.plus_plus {
            "FNL-MMA++"
        } else {
            "FNL-MMA"
        }
    }

    fn storage_bits(&self) -> u64 {
        let fnl = (1u64 << self.log_fnl) * (10 + 8 + 1);
        let mma = (1u64 << self.log_mma) * (10 + 26 + 1);
        let mma2 = if self.plus_plus { mma } else { 0 };
        fnl + mma + mma2 + 64 * 26
    }

    fn on_access(&mut self, line_addr: Addr, hit: bool) {
        let line = line_addr.raw() >> 6;
        self.train_footprint(line);
        self.recent.push_back(line);
        if self.recent.len() > 24 {
            self.recent.pop_front();
        }

        // FNL: prefetch the learned footprint of this line.
        let (idx, tag) = self.fnl_slot(line);
        let e = self.fnl[idx];
        if e.valid && e.tag == tag {
            for b in 0..FOOTPRINT_LINES {
                if e.footprint & (1 << b) != 0 {
                    self.pending.push(Addr::new((line + b + 1) << 6));
                }
            }
        }

        if !hit {
            // MMA training: the line that missed `mma_dist` misses ago
            // predicts this miss.
            if self.miss_hist.len() >= self.mma_dist {
                let src = self.miss_hist[self.miss_hist.len() - self.mma_dist];
                let (i, t) = self.mma_slot(src);
                self.mma[i] = MmaEntry {
                    tag: t,
                    target: line,
                    valid: true,
                };
            }
            if self.plus_plus && self.miss_hist.len() >= self.mma_dist * 2 {
                let src = self.miss_hist[self.miss_hist.len() - self.mma_dist * 2];
                let (i, t) = self.mma_slot(src);
                self.mma2[i] = MmaEntry {
                    tag: t,
                    target: line,
                    valid: true,
                };
            }
            self.miss_hist.push_back(line);
            if self.miss_hist.len() > 32 {
                self.miss_hist.pop_front();
            }
            // MMA prediction: run ahead from this miss.
            let (i, t) = self.mma_slot(line);
            let m = self.mma[i];
            if m.valid && m.tag == t {
                self.pending.push(Addr::new(m.target << 6));
            }
            if self.plus_plus {
                let m2 = self.mma2[i];
                if m2.valid && m2.tag == t {
                    self.pending.push(Addr::new(m2.target << 6));
                }
            }
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

    fn drain(p: &mut FnlMma) -> Vec<Addr> {
        let mut v = Vec::new();
        p.drain(&mut v);
        v
    }

    #[test]
    fn footprint_learned_and_prefetched() {
        let mut p = FnlMma::new(false);
        // Touch A, then A+2 lines repeatedly: footprint of A learns +2.
        for _ in 0..3 {
            p.on_access(Addr::new(0x10_0000), false);
            p.on_access(Addr::new(0x10_0080), false);
            let _ = drain(&mut p);
        }
        p.on_access(Addr::new(0x10_0000), true);
        let out = drain(&mut p);
        assert!(
            out.contains(&Addr::new(0x10_0080)),
            "footprint must include line +2: {out:?}"
        );
    }

    #[test]
    fn mma_jumps_ahead_on_miss_chain() {
        let mut p = FnlMma::new(false);
        // A fixed miss chain of 6 widely separated lines, repeated.
        let chain: Vec<Addr> = (0..6)
            .map(|i| Addr::new(0x20_0000 + i * 0x1_0000))
            .collect();
        for _ in 0..4 {
            for &a in &chain {
                p.on_access(a, false);
                let _ = drain(&mut p);
            }
        }
        // On the first miss, MMA should predict the miss `dist` ahead.
        p.on_access(chain[0], false);
        let out = drain(&mut p);
        assert!(
            out.contains(&chain[4].line()),
            "MMA (dist 4) must predict {:?}, got {out:?}",
            chain[4]
        );
    }

    #[test]
    fn hits_do_not_train_mma() {
        let mut p = FnlMma::new(false);
        for i in 0..10u64 {
            p.on_access(Addr::new(0x30_0000 + i * 0x1000), true);
        }
        assert!(p.miss_hist.is_empty());
    }

    #[test]
    fn storage_budgets() {
        let base = FnlMma::new(false).storage_bits() / 8192;
        let pp = FnlMma::new(true).storage_bits() / 8192;
        assert!((15..40).contains(&base), "FNL-MMA ≈ 24 KB, got {base}");
        assert!(pp > base, "++ must be larger");
    }
}
