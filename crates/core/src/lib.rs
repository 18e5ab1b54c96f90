//! The UCP reproduction's core: a cycle-level CPU-frontend simulator with
//! an event-time out-of-order backend, and the paper's contribution — the
//! UCP alternate-path µ-op cache prefetch engine — plus configuration,
//! statistics and an experiment runner.
//!
//! The model follows the paper's ChampSim setup (§V): a decoupled frontend
//! (FDP) with a stream/build µ-op cache, Table II's Alder Lake-class core
//! and memory hierarchy, TAGE-SC-L + ITTAGE + banked BTB prediction, and
//! the full §IV UCP machinery (H2P triggering, alternate walker with
//! Alt-BP/Alt-Ind/Alt-RAS, Table I stopping weights, Alt-FTQ → tag check →
//! MSHR → L1I PQ → alt decoders → µ-op cache fill).
//!
//! # Quickstart
//!
//! ```
//! use ucp_core::{SimConfig, Simulator};
//! use ucp_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::tiny("demo", 1);
//! let base = Simulator::run_spec(&spec, &SimConfig::baseline(), 10_000, 50_000);
//! let ucp = Simulator::run_spec(&spec, &SimConfig::ucp(), 10_000, 50_000);
//! println!("baseline IPC {:.3}, UCP IPC {:.3}", base.ipc(), ucp.ipc());
//! ```

pub mod config;
pub mod error;
pub mod experiment;
pub mod knobs;
pub mod pipeline;
pub mod snapshot;
pub mod stats;
pub mod ucp;

pub use config::{
    BackendConfig, ConfKind, FrontendConfig, PrefetcherKind, SimConfig, UcpConfig, UopCacheModel,
};
pub use error::{DiagSnapshot, SimError, DEFAULT_WATCHDOG_CYCLES};
pub use experiment::{
    align_by_workload, replay_verify, run_suite, run_suite_outcome, speedups_pct, PersistFn,
    ReplayDivergence, ReplayReport, RunResult, SuiteRun,
};
pub use knobs::{Knobs, Profile};
pub use pipeline::{RunOutput, Simulator};
pub use snapshot::{CheckpointMeta, CheckpointPolicy, DigestRecord, CKPT_VERSION};
pub use stats::{geomean_speedup_pct, BucketCount, H2pCounts, SimStats, UcpStats};
pub use ucp::UcpEngine;
