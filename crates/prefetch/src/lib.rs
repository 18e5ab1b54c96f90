//! Baseline instruction prefetchers for the UCP reproduction.
//!
//! §III-C of the paper compares UCP against the leading IPC1 standalone
//! L1I prefetchers — FNL+MMA (and its updated `++` version), D-JOLT and the
//! Entangling prefetcher (EP / EP++) — and §VI-F against the Misprediction
//! Recovery Cache (MRC). All five are implemented here behind the
//! [`InstPrefetcher`] trait, plus [`Mrc`], which is not an L1I prefetcher
//! and has its own interface.
//!
//! These are faithful-in-spirit reimplementations from the IPC1
//! descriptions, sized to their published storage budgets (reported by
//! `storage_bits`, plotted in Fig. 16). Absolute coverage depends on the
//! rest of the model; the property that matters for the paper's argument —
//! standalone L1I prefetchers lift L1I hit rates but barely move the µ-op
//! cache — is structural and survives the approximation.
//!
//! # Examples
//!
//! ```
//! use ucp_prefetch::{InstPrefetcher, NextLine};
//! use sim_isa::Addr;
//!
//! let mut p = NextLine::new(2);
//! p.on_access(Addr::new(0x1000), false);
//! let mut out = Vec::new();
//! p.drain(&mut out);
//! assert_eq!(out, vec![Addr::new(0x1040), Addr::new(0x1080)]);
//! ```

pub mod djolt;
pub mod entangling;
pub mod fnl_mma;
pub mod mrc;

pub use djolt::DJolt;
pub use entangling::Entangling;
pub use fnl_mma::FnlMma;
pub use mrc::Mrc;

use sim_isa::{Addr, State};
use ucp_telemetry::{Category, Counter, Telemetry, Tracer};

/// A standalone L1I prefetcher.
///
/// The pipeline reports every demand L1I access (line granularity) via
/// [`InstPrefetcher::on_access`] and drains candidates once per cycle into
/// the L1I prefetch queue. Its [`State`] is part of the simulator
/// checkpoint.
pub trait InstPrefetcher: State + Send + std::fmt::Debug {
    /// Display name for figures (`FNL-MMA`, `D-JOLT`, `EP`, …).
    fn name(&self) -> &'static str;

    /// Storage budget in bits (plotted in Fig. 16).
    fn storage_bits(&self) -> u64;

    /// A demand access to `line` (64 B aligned) with its hit/miss outcome.
    fn on_access(&mut self, line: Addr, hit: bool);

    /// The frontend was redirected (misprediction flush). Wrong-path-aware
    /// prefetchers (EP++) discard not-yet-committed training.
    fn on_redirect(&mut self) {}

    /// Binds `prefetch.*` counters and the `Prefetch` trace category.
    /// Stateless prefetchers keep the default no-op.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Moves pending prefetch candidates (line addresses) into `out`.
    fn drain(&mut self, out: &mut Vec<Addr>);
}

/// Telemetry handles shared by the prefetcher implementations: a counter
/// of generated candidates plus trace events on every non-empty drain.
/// Detached (unobservable, still cheap) until [`PrefetchTelemetry::attach`].
#[derive(Clone, Debug, Default)]
pub struct PrefetchTelemetry {
    tracer: Tracer,
    candidates: Counter,
}

impl PrefetchTelemetry {
    /// Rebinds the handles to `t`'s registry and tracer.
    pub fn attach(&mut self, t: &Telemetry) {
        self.tracer = t.tracer.clone();
        self.candidates = t.registry.counter("prefetch.candidates");
    }

    /// Accounts one drain of `lines` produced by prefetcher `name`.
    pub fn on_drain(&self, name: &'static str, lines: &[Addr]) {
        if lines.is_empty() {
            return;
        }
        self.candidates.add(lines.len() as u64);
        self.tracer.emit(Category::Prefetch, "candidates", || {
            format!("src={name} n={} first={:#x}", lines.len(), lines[0].raw())
        });
    }
}

/// The trivial sequential prefetcher (fetches the next `n` lines on every
/// miss). Not part of the paper's comparison set, but a useful sanity
/// baseline and example implementation.
#[derive(Debug, Default)]
pub struct NextLine {
    degree: u64,
    pending: Vec<Addr>,
    tele: PrefetchTelemetry,
}

impl NextLine {
    /// Creates a next-`degree`-lines prefetcher.
    pub fn new(degree: u64) -> Self {
        NextLine {
            degree,
            pending: Vec::new(),
            tele: PrefetchTelemetry::default(),
        }
    }
}

sim_isa::state_fields!(NextLine { pending } skip { degree, tele });

impl InstPrefetcher for NextLine {
    fn name(&self) -> &'static str {
        "NextLine"
    }

    fn storage_bits(&self) -> u64 {
        8
    }

    fn on_access(&mut self, line: Addr, hit: bool) {
        if !hit {
            for i in 1..=self.degree {
                self.pending.push(Addr::new(line.line().raw() + i * 64));
            }
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele.attach(telemetry);
    }

    fn drain(&mut self, out: &mut Vec<Addr>) {
        self.tele.on_drain("NextLine", &self.pending);
        out.append(&mut self.pending);
    }
}

/// A no-op prefetcher (the paper's `NONE` configuration).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPrefetch;

sim_isa::state_fields!(NoPrefetch {} skip {});

impl InstPrefetcher for NoPrefetch {
    fn name(&self) -> &'static str {
        "NONE"
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn on_access(&mut self, _line: Addr, _hit: bool) {}

    fn drain(&mut self, _out: &mut Vec<Addr>) {}
}

/// Builds the paper's Fig. 5 prefetcher lineup by name.
///
/// Recognized names: `NONE`, `FNL-MMA`, `FNL-MMA++`, `D-JOLT`, `EP`,
/// `EP++`. Returns `None` for anything else.
pub fn by_name(name: &str) -> Option<Box<dyn InstPrefetcher>> {
    match name {
        "NONE" => Some(Box::new(NoPrefetch)),
        "FNL-MMA" => Some(Box::new(FnlMma::new(false))),
        "FNL-MMA++" => Some(Box::new(FnlMma::new(true))),
        "D-JOLT" => Some(Box::new(DJolt::new())),
        "EP" => Some(Box::new(Entangling::new(false))),
        "EP++" => Some(Box::new(Entangling::new(true))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_only_fires_on_miss() {
        let mut p = NextLine::new(1);
        p.on_access(Addr::new(0x40), true);
        let mut out = Vec::new();
        p.drain(&mut out);
        assert!(out.is_empty());
        p.on_access(Addr::new(0x40), false);
        p.drain(&mut out);
        assert_eq!(out, vec![Addr::new(0x80)]);
    }

    #[test]
    fn none_never_prefetches() {
        let mut p = NoPrefetch;
        p.on_access(Addr::new(0x40), false);
        let mut out = Vec::new();
        p.drain(&mut out);
        assert!(out.is_empty());
        assert_eq!(p.storage_bits(), 0);
    }

    #[test]
    fn telemetry_counts_drained_candidates() {
        let t = ucp_telemetry::Telemetry::with_trace("prefetch", 16);
        let mut p = NextLine::new(2);
        p.attach_telemetry(&t);
        p.on_access(Addr::new(0x1000), false);
        let mut out = Vec::new();
        p.drain(&mut out);
        p.drain(&mut out); // empty drain must not emit
        assert_eq!(t.registry.snapshot().counters["prefetch.candidates"], 2);
        assert_eq!(t.tracer.events().len(), 1);
    }

    #[test]
    fn by_name_builds_the_fig5_lineup() {
        for n in ["NONE", "FNL-MMA", "FNL-MMA++", "D-JOLT", "EP", "EP++"] {
            let p = by_name(n).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(p.name(), n);
        }
        assert!(by_name("bogus").is_none());
    }

    #[test]
    fn plus_plus_variants_cost_more_storage() {
        assert!(
            by_name("FNL-MMA++").unwrap().storage_bits()
                > by_name("FNL-MMA").unwrap().storage_bits()
        );
        assert!(by_name("EP++").unwrap().storage_bits() > by_name("EP").unwrap().storage_bits());
    }
}
