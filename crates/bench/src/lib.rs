//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation.
//!
//! Each figure lives in [`figs`] as a function returning a printable
//! report; the `src/bin/fig*.rs` binaries are thin wrappers. Every binary
//! reads its `UCP_*` knobs once ([`env_knobs`]) and passes the
//! [`ucp_core::Knobs`] down.
//!
//! # Profiles
//!
//! Simulation volume is controlled by the `UCP_FIG_PROFILE` knob:
//!
//! * `quick` — 8-workload suite, 0.2 M + 0.8 M instructions per run,
//! * `std` (default) — full 30-workload suite, 0.5 M + 2 M,
//! * `full` — full suite, 1 M + 4 M (the paper-scale setting).
//!
//! Suite runs are cached under `target/ucp-results` keyed by
//! configuration + profile, so reruns and figure interdependencies (many
//! figures share the baseline) are free. Set `UCP_NO_CACHE=1` to disable.
//!
//! # Resilience
//!
//! Suite execution is fault-isolated: a panicking, hanging or
//! invariant-violating workload degrades the run (reports carry a
//! `DEGRADED (k/n)` marker) instead of killing it; per-workload results
//! persist incrementally so a killed run resumes; and every cache entry
//! is integrity-checked (checksum + model version), with corrupt entries
//! quarantined and regenerated. See [`cache`] and
//! `ucp_core::run_suite_outcome`.

pub mod cache;
pub mod figs;
pub mod harness;

pub use harness::{
    cached_suite_run, check_accounting, env_knobs, merged_telemetry, profiled_suite_run,
    prune_cache_litter, stall_breakdown_table, suite_breakdown, suite_run_with_cache, HostPhase,
    SuiteRun, MODEL_VERSION,
};
