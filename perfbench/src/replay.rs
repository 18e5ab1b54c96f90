//! The traced replay: a spec's correct-path instruction stream fed through
//! the public functions of each simulator crate, batch by batch, with one
//! span per layer and batch.
//!
//! The replay is not a simulation. It isolates what one call into each
//! layer costs on this workload's real address and branch streams, so the
//! per-call costs can be multiplied by how often the simulator itself made
//! those calls. Work the replay does to prepare a batch (forming fetch
//! windows, collecting line and data addresses) happens outside the spans.

use crate::trace::Trace;
use sim_isa::{Addr, BranchClass, DynInst, InstKind};
use std::hint::black_box;
use ucp_bpred::{push_target_history, Ittage, IttageParams, TageScL};
use ucp_core::{SimConfig, UopCacheModel};
use ucp_frontend::{Btb, EntryEnd, UopCache, UopEntrySpec};
use ucp_mem::{Hierarchy, HitLevel};
use ucp_workloads::{Oracle, Program};

/// Instructions per replay batch (one span per layer per batch).
const BATCH: usize = 32_768;

/// Correct-path traffic the replay saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    pub insts: u64,
    pub conds: u64,
    pub indirects: u64,
    /// Taken transfers other than indirect jumps and calls.
    pub other_taken: u64,
    pub branches: u64,
    /// Branches the simulator attaches a prediction record to
    /// (conditional, indirect, return).
    pub records: u64,
    pub mems: u64,
    pub lines: u64,
    /// Conditional branches at positions inside the measured window.
    pub window_conds: u64,
    /// Conditional branches close enough after either window boundary
    /// to be in flight there: the allowed gap against the simulator's
    /// resolved count.
    pub boundary_conds: u64,
}

/// Replays `prog`'s first `len` correct-path instructions. `window` is the
/// simulator's measured window `[start, end)` in instruction positions and
/// `reach` how far past a boundary an instruction can still be in flight.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    prog: &Program,
    seed: u64,
    cfg: &SimConfig,
    len: u64,
    window: (u64, u64),
    reach: u64,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Traffic {
    let mut oracle = Oracle::new(prog, seed);
    let mut bp = TageScL::new(cfg.bpred);
    let mut bp_hist = bp.new_history();
    let mut ittage = Ittage::new(IttageParams::main_64k());
    let mut it_hist = ittage.new_history();
    let mut other_hist = ittage.new_history();
    let mut btb = Btb::new(cfg.btb.clone());
    let mut uop_cache = match &cfg.uop_cache {
        UopCacheModel::Real(c) => Some(UopCache::new(c.clone())),
        UopCacheModel::None | UopCacheModel::Ideal => None,
    };
    // Separate hierarchies keep each side's clock monotonic while the two
    // sides are replayed in separate passes.
    let mut l1i = Hierarchy::new(&cfg.mem);
    let mut l1d = Hierarchy::new(&cfg.mem);
    let (mut now_i, mut now_d) = (0u64, 0u64);
    let mut prefetcher =
        ucp_prefetch::by_name(cfg.prefetcher.name()).expect("every PrefetcherKind has a name");

    let total = len + reach;
    let mut t = Traffic::default();
    let mut batch: Vec<DynInst> = Vec::with_capacity(BATCH);
    let mut blocks: Vec<(Addr, u8)> = Vec::new();
    let mut lines: Vec<Addr> = Vec::new();
    let mut hits: Vec<bool> = Vec::new();
    let mut mems: Vec<(Addr, bool)> = Vec::new();
    let mut drained: Vec<Addr> = Vec::new();
    let mut open_block: Option<(Addr, u8)> = None;
    let mut last_line = Addr::NULL;
    let mut pos = 0u64;
    while pos < total {
        let n = (total - pos).min(BATCH as u64) as usize;
        batch.clear();
        trace.time("workloads.oracle", parent, || {
            for _ in 0..n {
                batch.push(oracle.next_inst());
            }
            ((), n as u64)
        });

        // Traffic counts and the batch's fetch windows, line and data
        // streams (untimed preparation).
        blocks.clear();
        lines.clear();
        mems.clear();
        for (i, d) in batch.iter().enumerate() {
            let p = pos + i as u64;
            let class = d.inst.kind.branch_class();
            if class == Some(BranchClass::CondDirect) {
                t.conds += 1;
                if (window.0..window.1).contains(&p) {
                    t.window_conds += 1;
                }
                if (window.0..window.0 + reach).contains(&p)
                    || (window.1..window.1 + reach).contains(&p)
                {
                    t.boundary_conds += 1;
                }
            }
            if is_indirect(d) {
                t.indirects += 1;
            } else if d.redirects() {
                t.other_taken += 1;
            }
            if let Some(c) = class {
                t.branches += 1;
                t.records += u64::from(!matches!(c, BranchClass::UncondDirect | BranchClass::Call));
            }
            match d.inst.kind {
                InstKind::Load => mems.push((d.mem_addr, false)),
                InstKind::Store => mems.push((d.mem_addr, true)),
                _ => {}
            }
            let (start, count) = match open_block {
                Some((s, c)) => (s, c + 1),
                None => (d.pc, 1),
            };
            let ends = count == 8 || d.redirects() || d.next_pc.uop_window() != start.uop_window();
            if ends {
                blocks.push((start, count));
                if start.line() != last_line {
                    last_line = start.line();
                    lines.push(last_line);
                }
                open_block = None;
            } else {
                open_block = Some((start, count));
            }
        }
        t.insts += n as u64;
        t.mems += mems.len() as u64;
        t.lines += lines.len() as u64;

        trace.time("bpred.tage", parent, || {
            let mut calls = 0;
            for d in batch
                .iter()
                .filter(|d| d.inst.kind.branch_class() == Some(BranchClass::CondDirect))
            {
                let p = bp.predict(&bp_hist, d.pc);
                bp.update(d.pc, &p, d.taken);
                bp_hist.push(d.taken);
                calls += 1;
            }
            ((), calls)
        });
        trace.time("bpred.ittage", parent, || {
            let mut calls = 0;
            for d in batch.iter().filter(|d| is_indirect(d)) {
                let p = ittage.predict(&it_hist, d.pc);
                ittage.update(d.pc, &p, d.next_pc);
                push_target_history(&mut it_hist, d.next_pc);
                calls += 1;
            }
            ((), calls)
        });
        // Every other taken transfer also moves the target history; timed
        // on a second history so the pass above keeps its own.
        trace.time("bpred.target_history", parent, || {
            let mut calls = 0;
            for d in batch.iter().filter(|d| d.redirects() && !is_indirect(d)) {
                push_target_history(&mut other_hist, d.next_pc);
                calls += 1;
            }
            ((), calls)
        });
        trace.time("bpred.hist_checkpoint", parent, || {
            let mut calls = 0;
            for d in &batch {
                if matches!(
                    d.inst.kind.branch_class(),
                    Some(
                        BranchClass::CondDirect
                            | BranchClass::IndirectJump
                            | BranchClass::IndirectCall
                            | BranchClass::Return
                    )
                ) {
                    black_box(bp_hist.checkpoint());
                    calls += 1;
                }
            }
            ((), calls)
        });
        trace.time("frontend.btb", parent, || {
            let mut calls = 0;
            for d in &batch {
                let Some(class) = d.inst.kind.branch_class() else {
                    continue;
                };
                let known = btb.lookup(d.pc).map(|e| e.target);
                if d.redirects() && known != Some(d.next_pc) {
                    btb.insert(d.pc, d.next_pc, class);
                }
                calls += 1;
            }
            ((), calls)
        });
        if let Some(uc) = uop_cache.as_mut() {
            trace.time("frontend.uopc", parent, || {
                for &(start, n) in &blocks {
                    let hit = uc.lookup(start).is_some_and(|h| h.num_uops >= n);
                    if !hit {
                        uc.insert(UopEntrySpec {
                            start,
                            num_uops: n,
                            end: EntryEnd::WindowBoundary,
                            prefetched: false,
                            trigger: 0,
                        });
                    }
                }
                ((), blocks.len() as u64)
            });
        }
        // A blocking fetch: the instruction-side clock waits for each miss.
        // An access refused for a full MSHR is retried a cycle later, as
        // the pipeline does, and every attempt counts as a call.
        hits.clear();
        trace.time("mem.l1i", parent, || {
            let mut calls = 0;
            for &line in &lines {
                let acc = loop {
                    calls += 1;
                    match l1i.access_inst(line, now_i, false) {
                        Ok(a) => break a,
                        Err(_) => now_i += 1,
                    }
                };
                let hit = acc.level == HitLevel::L1;
                now_i = if hit { now_i + 1 } else { acc.ready };
                hits.push(hit);
            }
            ((), calls)
        });
        trace.time("mem.l1d", parent, || {
            let mut calls = 0;
            for &(addr, store) in &mems {
                loop {
                    now_d += 1;
                    calls += 1;
                    if l1d.access_data(addr, now_d, store).is_ok() {
                        break;
                    }
                }
            }
            ((), calls)
        });
        trace.time("prefetch.access", parent, || {
            for (&line, &hit) in lines.iter().zip(&hits) {
                prefetcher.on_access(line, hit);
                prefetcher.drain(&mut drained);
                drained.clear();
            }
            ((), lines.len() as u64)
        });
        pos += n as u64;
    }
    t
}

fn is_indirect(d: &DynInst) -> bool {
    matches!(d.inst.kind, InstKind::IndirectJump | InstKind::IndirectCall)
}
