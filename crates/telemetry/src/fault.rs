//! Deterministic fault injection (`UCP_FAULT`).
//!
//! The resilience layer (structured errors, hang watchdog, retry,
//! cache-integrity quarantine) is only trustworthy if every failure path
//! is exercised, not just claimed. This module arms named fault *sites*
//! from a `UCP_FAULT` spec so tests and CI can force panics, hangs,
//! accounting-invariant violations and torn cache writes at precisely
//! reproducible points.
//!
//! # Syntax
//!
//! ```text
//! UCP_FAULT=<site>:<nth>[:<times>][,<site>:<nth>[:<times>]...]
//! ```
//!
//! * `site` — one of [`SITES`]:
//!   * `panic` — the `nth` workload (1-based suite index) panics at the
//!     start of its run,
//!   * `hang` — the `nth` workload stops retiring instructions, so the
//!     hang watchdog must terminate it,
//!   * `invariant` — the `nth` workload's cycle accounting is skewed by
//!     one cycle, forcing an `InvariantViolation`,
//!   * `torn_write` — the `nth` result-cache write is torn: only half the
//!     payload reaches disk, so the next read must quarantine the entry,
//!   * `kill` — the `nth` checkpoint write panics the process right
//!     *after* the write lands: a mid-run kill the `UCP_CKPT` resume
//!     path must recover from bit-identically.
//! * `nth` — for the per-workload sites, the 1-based suite index of the
//!   victim workload; for the counter-keyed sites (`torn_write`, `kill`),
//!   the 1-based ordinal of the write.
//! * `times` — optional cap on how many times the site fires in total
//!   (default: unlimited). `panic:3` makes workload 3 fail on *every*
//!   retry (a deterministic fault the runner must give up on);
//!   `panic:3:1` fires once, so the first retry succeeds (a transient
//!   fault).
//!
//! A malformed spec is a hard configuration error: `Knobs::from_env` (in
//! `ucp-core`) rejects it before anything is simulated. The parsed plan
//! rides in the run's `Knobs` as one shared `Arc<FaultPlan>`, so `times`
//! budgets and write counters span the whole process.
//!
//! # Determinism
//!
//! The per-workload sites key off the workload's suite index, not thread
//! scheduling, so the same spec always hits the same workload no matter
//! how the parallel suite runner interleaves. `torn_write` counts write
//! calls with an atomic counter, which is deterministic for single-writer
//! flows (the CI smoke) and merely bounded for concurrent ones.

use std::sync::atomic::{AtomicU64, Ordering};

/// The named fault sites `UCP_FAULT` can arm.
pub const SITES: &[&str] = &["panic", "hang", "invariant", "torn_write", "kill"];

#[derive(Debug)]
struct SiteState {
    site: String,
    nth: u64,
    times: u64,
    /// Counter-based sites: calls to [`FaultPlan::should_fire`] so far.
    hits: AtomicU64,
    /// Firings consumed from the `times` budget so far.
    fired: AtomicU64,
}

/// A parsed, armed `UCP_FAULT` specification. All state is interior and
/// atomic, so one plan can be shared by every worker thread of a suite
/// run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    spec: String,
    sites: Vec<SiteState>,
}

impl FaultPlan {
    /// Parses a `site:nth[:times]` list. Empty input means "no faults".
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut sites = Vec::new();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let mut parts = item.split(':');
            let site = parts.next().unwrap_or("").trim().to_string();
            if !SITES.contains(&site.as_str()) {
                return Err(format!(
                    "UCP_FAULT: unknown site `{site}` in `{item}`; valid sites: {}",
                    SITES.join(", ")
                ));
            }
            let nth = parts
                .next()
                .ok_or_else(|| format!("UCP_FAULT: `{item}` is missing `:<nth>`"))?
                .trim()
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    format!("UCP_FAULT: `{item}` needs an integer nth >= 1 (got `{item}`)")
                })?;
            let times = match parts.next() {
                None => u64::MAX,
                Some(t) => t
                    .trim()
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("UCP_FAULT: `{item}` needs an integer times >= 1"))?,
            };
            if parts.next().is_some() {
                return Err(format!(
                    "UCP_FAULT: `{item}` has trailing fields; expected <site>:<nth>[:<times>]"
                ));
            }
            sites.push(SiteState {
                site,
                nth,
                times,
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan {
            spec: spec.trim().to_string(),
            sites,
        })
    }

    /// The `UCP_FAULT` text this plan was parsed from (trimmed).
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// True when the plan arms no sites at all.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    fn consume(s: &SiteState) -> bool {
        // `fired` only ever grows, so the budget check is race-free
        // enough: at most `times` callers win the fetch_add.
        s.fired.fetch_add(1, Ordering::Relaxed) < s.times
    }

    /// Index-keyed sites (`panic`, `hang`, `invariant`): fires when
    /// `index` (0-based) is the armed workload and the `times` budget is
    /// not exhausted. Each call for the armed index consumes one firing,
    /// so retries re-trigger deterministic faults and `times: 1` models a
    /// transient one.
    pub fn armed_at(&self, site: &str, index: usize) -> bool {
        self.sites
            .iter()
            .filter(|s| s.site == site && s.nth == index as u64 + 1)
            .any(Self::consume)
    }

    /// Counter-keyed sites (`torn_write`, `kill`): every call is one
    /// hit; the site fires from the `nth` hit onward while the `times`
    /// budget lasts.
    pub fn should_fire(&self, site: &str) -> bool {
        self.sites
            .iter()
            .filter(|s| s.site == site)
            .filter(|s| s.hits.fetch_add(1, Ordering::Relaxed) + 1 >= s.nth)
            .any(Self::consume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_sites_and_lists() {
        let p = FaultPlan::parse("panic:3,hang:2:1, torn_write:1 ,invariant:4:2").unwrap();
        assert_eq!(p.sites.len(), 4);
        assert_eq!(p.sites[0].times, u64::MAX);
        assert_eq!(p.sites[1].times, 1);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "explode:1",     // unknown site
            "panic",         // missing nth
            "panic:zero",    // non-numeric nth
            "panic:0",       // nth < 1
            "panic:1:0",     // times < 1
            "panic:1:2:3",   // trailing fields
            "panic:1,bad:2", // one bad item poisons the list
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should fail");
        }
        let e = FaultPlan::parse("explode:1").unwrap_err();
        assert!(e.contains("torn_write"), "error lists valid sites: {e}");
    }

    #[test]
    fn armed_at_is_index_keyed_and_budgeted() {
        let p = FaultPlan::parse("panic:2:2").unwrap();
        assert!(!p.armed_at("panic", 0), "index 0 is not armed");
        assert!(p.armed_at("panic", 1), "first firing");
        assert!(p.armed_at("panic", 1), "second firing");
        assert!(!p.armed_at("panic", 1), "budget of 2 exhausted");
        assert!(!p.armed_at("hang", 1), "other sites unarmed");
    }

    #[test]
    fn deterministic_fault_fires_on_every_retry() {
        let p = FaultPlan::parse("hang:1").unwrap();
        for _ in 0..10 {
            assert!(p.armed_at("hang", 0));
        }
    }

    #[test]
    fn should_fire_counts_hits_from_nth() {
        let p = FaultPlan::parse("torn_write:3:2").unwrap();
        assert!(!p.should_fire("torn_write"), "hit 1 < nth");
        assert!(!p.should_fire("torn_write"), "hit 2 < nth");
        assert!(p.should_fire("torn_write"), "hit 3 fires");
        assert!(p.should_fire("torn_write"), "hit 4 fires (budget 2)");
        assert!(!p.should_fire("torn_write"), "budget exhausted");
    }
}
