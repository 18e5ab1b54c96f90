//! The Entangling instruction prefetcher (Ros & Jimborean, IPC1 2020 /
//! ISCA 2021), EP and its wrong-path-aware EP++ refinement.
//!
//! On an L1I miss of line `D`, EP searches the recent access stream for a
//! *source* line `S` fetched early enough to have hidden `D`'s miss
//! latency, and **entangles** `S → D`. From then on, any access to `S`
//! prefetches its entangled destinations, making them timely by
//! construction.
//!
//! EP++ additionally (a) holds more destinations per source and (b) is
//! wrong-path aware: training triggered by accesses that are squashed by a
//! pipeline redirect is discarded rather than polluting the entangling
//! table.

use crate::{InstPrefetcher, PrefetchTelemetry};
use sim_isa::Addr;
use std::collections::VecDeque;
use ucp_telemetry::Telemetry;

/// How many accesses back the entangled source is chosen (stands in for
/// "miss latency expressed in fetched lines").
const ENTANGLE_DIST: usize = 12;

#[derive(Clone, Debug, Default)]
struct EntEntry {
    tag: u16,
    dests: Vec<u64>,
    valid: bool,
}

/// The entangling prefetcher.
#[derive(Debug)]
pub struct Entangling {
    plus_plus: bool,
    log_entries: u32,
    max_dests: usize,
    table: Box<[EntEntry]>,
    /// Recent demand lines, newest at the back.
    recent: VecDeque<u64>,
    /// Recent training, undoable by EP++ on a redirect:
    /// (table index, destination added, tick of training).
    speculative_training: Vec<(usize, u64, u64)>,
    /// Drain ticks (≈ cycles); training older than the commit window is
    /// considered architecturally confirmed.
    ticks: u64,
    pending: Vec<Addr>,
    tele: PrefetchTelemetry,
}

impl Entangling {
    /// Creates EP (`plus_plus = false`, cost-effective ISCA'21 version) or
    /// EP++ (`true`, the wrong-path-aware TC'24 version).
    pub fn new(plus_plus: bool) -> Self {
        let log_entries = if plus_plus { 12 } else { 11 };
        Entangling {
            plus_plus,
            log_entries,
            max_dests: if plus_plus { 4 } else { 2 },
            table: vec![EntEntry::default(); 1 << log_entries].into_boxed_slice(),
            recent: VecDeque::with_capacity(ENTANGLE_DIST + 4),
            speculative_training: Vec::new(),
            ticks: 0,
            pending: Vec::new(),
            tele: PrefetchTelemetry::default(),
        }
    }

    #[inline]
    fn slot(&self, line: u64) -> (usize, u16) {
        let h = line.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (
            ((h >> 16) as usize) & ((1 << self.log_entries) - 1),
            ((h >> 50) & 0x3ff) as u16,
        )
    }

    fn entangle(&mut self, src: u64, dst: u64) {
        let (i, t) = self.slot(src);
        let max_dests = self.max_dests;
        let e = &mut self.table[i];
        if !e.valid || e.tag != t {
            *e = EntEntry {
                tag: t,
                dests: Vec::with_capacity(max_dests),
                valid: true,
            };
        }
        if e.dests.contains(&dst) {
            return;
        }
        if e.dests.len() >= max_dests {
            e.dests.remove(0);
        }
        e.dests.push(dst);
        if self.plus_plus {
            let tick = self.ticks;
            self.speculative_training.push((i, dst, tick));
        }
    }
}

sim_isa::state_fields!(Entangling {
    table, recent, speculative_training, ticks, pending,
} skip { plus_plus, log_entries, max_dests, tele });
sim_isa::state_fields!(EntEntry { tag, valid, dests } skip {});

impl InstPrefetcher for Entangling {
    fn name(&self) -> &'static str {
        if self.plus_plus {
            "EP++"
        } else {
            "EP"
        }
    }

    fn storage_bits(&self) -> u64 {
        // tag(10) + valid(1) + max_dests × 26-bit compressed lines.
        (1u64 << self.log_entries) * (11 + self.max_dests as u64 * 26) + 32 * 26
    }

    fn on_access(&mut self, line_addr: Addr, hit: bool) {
        let line = line_addr.raw() >> 6;
        if !hit {
            // Entangle with the line fetched ENTANGLE_DIST accesses ago
            // (early enough to hide the miss), falling back to the oldest
            // recorded access.
            let src = if self.recent.len() >= ENTANGLE_DIST {
                Some(self.recent[self.recent.len() - ENTANGLE_DIST])
            } else {
                self.recent.front().copied()
            };
            if let Some(src) = src {
                if src != line {
                    self.entangle(src, line);
                }
            }
        }
        self.recent.push_back(line);
        if self.recent.len() > ENTANGLE_DIST + 4 {
            self.recent.pop_front();
        }
        // Fire this line's entangled destinations.
        let (i, t) = self.slot(line);
        let e = &self.table[i];
        if e.valid && e.tag == t {
            for &d in &e.dests {
                self.pending.push(Addr::new(d << 6));
            }
        }
    }

    fn on_redirect(&mut self) {
        if !self.plus_plus {
            return;
        }
        // Wrong-path awareness: undo entanglements trained since the last
        // redirect — they were driven by squashed fetches.
        for (i, dst, _) in self.speculative_training.drain(..) {
            let e = &mut self.table[i];
            if let Some(pos) = e.dests.iter().position(|&d| d == dst) {
                e.dests.remove(pos);
            }
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele.attach(telemetry);
    }

    fn drain(&mut self, out: &mut Vec<Addr>) {
        self.tele.on_drain(self.name(), &self.pending);
        out.append(&mut self.pending);
        if self.plus_plus {
            self.ticks += 1;
            let horizon = self.ticks.saturating_sub(32);
            // Training older than the commit window is confirmed.
            self.speculative_training.retain(|&(_, _, t)| t >= horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut Entangling) -> Vec<Addr> {
        let mut v = Vec::new();
        p.drain(&mut v);
        v
    }

    /// A stream where line D always misses ENTANGLE_DIST accesses after S.
    fn stream(s: u64, d: u64) -> Vec<(Addr, bool)> {
        let mut v = vec![(Addr::new(s << 6), true)];
        for i in 0..ENTANGLE_DIST as u64 - 1 {
            v.push((Addr::new((0x9000 + i) << 6), true));
        }
        v.push((Addr::new(d << 6), false));
        v
    }

    #[test]
    fn entangles_source_with_destination() {
        let mut p = Entangling::new(false);
        for _ in 0..3 {
            for (a, hit) in stream(0x100, 0x500) {
                p.on_access(a, hit);
            }
            let _ = drain(&mut p);
        }
        // Touching the source now prefetches the destination.
        p.on_access(Addr::new(0x100 << 6), true);
        let out = drain(&mut p);
        assert!(out.contains(&Addr::new(0x500 << 6)), "{out:?}");
    }

    #[test]
    fn destination_capacity_is_bounded() {
        let mut p = Entangling::new(false);
        for d in 0..5u64 {
            for (a, hit) in stream(0x100, 0x500 + d) {
                p.on_access(a, hit);
            }
            let _ = drain(&mut p);
        }
        p.on_access(Addr::new(0x100 << 6), true);
        let out = drain(&mut p);
        assert!(out.len() <= 2, "EP holds 2 destinations: {out:?}");
    }

    #[test]
    fn plus_plus_discards_wrong_path_training() {
        let mut p = Entangling::new(true);
        for (a, hit) in stream(0x100, 0x500) {
            p.on_access(a, hit);
        }
        p.on_redirect(); // everything above was wrong-path
        p.on_access(Addr::new(0x100 << 6), true);
        let out = drain(&mut p);
        assert!(
            !out.contains(&Addr::new(0x500 << 6)),
            "squashed training must not fire: {out:?}"
        );
    }

    #[test]
    fn plus_plus_keeps_committed_training() {
        let mut p = Entangling::new(true);
        for _ in 0..3 {
            for (a, hit) in stream(0x100, 0x500) {
                p.on_access(a, hit);
            }
            let _ = drain(&mut p); // drains age out speculative markers
        }
        // Force the speculative buffer to be considered committed.
        for _ in 0..70 {
            p.on_access(Addr::new(0xf000 << 6), true);
            let _ = drain(&mut p);
        }
        p.on_redirect();
        p.on_access(Addr::new(0x100 << 6), true);
        let out = drain(&mut p);
        assert!(out.contains(&Addr::new(0x500 << 6)), "{out:?}");
    }

    #[test]
    fn storage_budgets() {
        let ep = Entangling::new(false).storage_bits() / 8192;
        let epp = Entangling::new(true).storage_bits() / 8192;
        assert!((10..30).contains(&ep), "EP ≈ 16 KB, got {ep}");
        assert!(epp > ep);
    }
}
