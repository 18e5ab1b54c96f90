//! Deterministic fault injection (`UCP_FAULT`).
//!
//! The resilience layer (structured errors, hang watchdog,
//! cache-integrity quarantine) is only trustworthy if every failure path
//! is exercised, not just claimed. This module arms named fault *sites*
//! from a `UCP_FAULT` spec so tests and CI can force panics, hangs,
//! accounting-invariant violations and torn cache writes at precisely
//! reproducible points.
//!
//! # Syntax
//!
//! ```text
//! UCP_FAULT=<site>:<nth>[,<site>:<nth>...]
//! ```
//!
//! * `site` — one of [`SITES`]:
//!   * `panic` — the `nth` workload (1-based suite index) panics at the
//!     start of its run,
//!   * `hang` — the `nth` workload stops retiring instructions, so the
//!     hang watchdog must terminate it,
//!   * `invariant` — the `nth` workload's cycle accounting is skewed by
//!     one cycle, forcing an `InvariantViolation`,
//!   * `torn_write` — result-cache writes from the `nth` on are torn:
//!     only half the payload reaches disk, so the next read must
//!     quarantine the entry,
//!   * `kill` — checkpoint writes from the `nth` on panic the run right
//!     *after* the write lands: a mid-run kill the `UCP_CKPT` resume
//!     path must recover from bit-identically.
//! * `nth` — for the per-workload sites, the 1-based suite index of the
//!   victim workload, which fails whenever it runs; for the
//!   counter-keyed sites (`torn_write`, `kill`), the 1-based ordinal of
//!   the first write that fires.
//!
//! A malformed spec is a hard configuration error: `Knobs::from_env` (in
//! `ucp-core`) rejects it before anything is simulated. The parsed plan
//! rides in the run's `Knobs` as one shared `Arc<FaultPlan>`, so write
//! counters span the whole process.
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
    /// Counter-based sites: calls to [`FaultPlan::should_fire`] so far.
    hits: AtomicU64,
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
    /// Parses a `site:nth` list. Empty input means "no faults".
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
            if parts.next().is_some() {
                return Err(format!(
                    "UCP_FAULT: `{item}` has trailing fields; expected <site>:<nth>"
                ));
            }
            sites.push(SiteState {
                site,
                nth,
                hits: AtomicU64::new(0),
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

    /// Index-keyed sites (`panic`, `hang`, `invariant`): fires whenever
    /// `index` (0-based) is the armed workload.
    pub fn armed_at(&self, site: &str, index: usize) -> bool {
        self.sites
            .iter()
            .any(|s| s.site == site && s.nth == index as u64 + 1)
    }

    /// Counter-keyed sites (`torn_write`, `kill`): every call is one
    /// hit; the site fires from the `nth` hit on.
    pub fn should_fire(&self, site: &str) -> bool {
        self.sites
            .iter()
            .any(|s| s.site == site && s.hits.fetch_add(1, Ordering::Relaxed) + 1 >= s.nth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_sites_and_lists() {
        let p = FaultPlan::parse("panic:3,hang:2, torn_write:1 ,invariant:4").unwrap();
        let nths: Vec<u64> = p.sites.iter().map(|s| s.nth).collect();
        assert_eq!(nths, vec![3, 2, 1, 4]);
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
            "panic:1:1",     // a third field
            "panic:1,bad:2", // one bad item poisons the list
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should fail");
        }
        let e = FaultPlan::parse("explode:1").unwrap_err();
        assert!(e.contains("torn_write"), "error lists valid sites: {e}");
        let e = FaultPlan::parse("panic:1:1").unwrap_err();
        assert!(e.contains("<site>:<nth>"), "error names the syntax: {e}");
    }

    #[test]
    fn armed_at_is_index_keyed_and_fires_every_run() {
        let p = FaultPlan::parse("panic:2").unwrap();
        assert!(!p.armed_at("panic", 0), "index 0 is not armed");
        for _ in 0..10 {
            assert!(p.armed_at("panic", 1), "fires whenever workload 2 runs");
        }
        assert!(!p.armed_at("hang", 1), "other sites unarmed");
    }

    #[test]
    fn should_fire_counts_hits_from_nth() {
        let p = FaultPlan::parse("torn_write:3").unwrap();
        assert!(!p.should_fire("torn_write"), "hit 1 < nth");
        assert!(!p.should_fire("torn_write"), "hit 2 < nth");
        for hit in 3..10 {
            assert!(p.should_fire("torn_write"), "hit {hit} fires");
        }
        assert!(!p.should_fire("kill"), "other sites unarmed");
    }
}
