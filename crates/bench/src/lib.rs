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
//! Each workload's result is cached under `target/ucp-results` as one
//! entry keyed by configuration, workload spec, run lengths and sampling
//! interval, so reruns and figure interdependencies (many figures share
//! the baseline) are free. Set `UCP_NO_CACHE=1` to disable.
//!
//! # Resilience
//!
//! Suite execution is fault-isolated: a panicking, hanging or
//! invariant-violating workload degrades the run (reports carry a
//! `DEGRADED (k/n)` marker) instead of killing it; each workload's entry
//! is written as soon as it finishes, so a killed or degraded run resumes
//! with only the missing workloads; and every entry is integrity-checked
//! (checksum + model version + workload name), with corrupt entries
//! quarantined and regenerated. See [`suite_run_with_cache`],
//! `ucp_core::run_suite_outcome` and `ucp_telemetry::envelope`.

pub mod figs;
pub mod harness;

pub use harness::{
    cached_suite_run, check_accounting, env_knobs, merged_telemetry, stall_breakdown_table,
    suite_breakdown, suite_run_with_cache, MODEL_VERSION,
};
