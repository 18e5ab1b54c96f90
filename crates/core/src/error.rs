//! Structured simulation errors and failure diagnostics.
//!
//! Long suite runs (hours at the `full` profile) must survive partial
//! failure: one panicking workload, one livelocked pipeline or one
//! corrupted cache entry must degrade the run, not abort it. Every
//! fallible layer therefore reports a [`SimError`] instead of panicking,
//! and the pipeline-level failures ([`SimError::Hang`],
//! [`SimError::InvariantViolation`]) carry a [`DiagSnapshot`] of the
//! machine state at the point of failure so a degraded report is still
//! actionable.

use serde::{Deserialize, Serialize};
use std::fmt;
use ucp_telemetry::AccountingBreakdown;

/// Default hang-watchdog window: cycles without a single retired
/// instruction before the run is declared hung (`UCP_WATCHDOG`
/// overrides; `0`/`off` disables the watchdog entirely).
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 500_000;

/// Machine state captured at the point of a simulation failure. Attached
/// to [`SimError::Hang`] and [`SimError::InvariantViolation`] so degraded
/// suite reports can say *where* a workload died, not just that it did.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DiagSnapshot {
    /// Machine cycle at capture time.
    pub cycle: u64,
    /// Instructions committed so far (whole run, not the window).
    pub committed: u64,
    /// Cycle of the most recent retirement (== `cycle` unless hung).
    pub last_commit_cycle: u64,
    /// PC of the last retired instruction (`None`: nothing retired yet).
    pub last_retired_pc: Option<u64>,
    /// Address-generation PC — on a hang, where fetch is stuck.
    pub agen_pc: u64,
    /// Whether address generation is drained (no-target indirect/return).
    pub agen_dead: bool,
    /// Whether an unresolved misprediction is pending.
    pub pending_mispredict: bool,
    /// FTQ occupancy.
    pub ftq_depth: usize,
    /// µ-op queue occupancy.
    pub uopq_depth: usize,
    /// Backend (ROB) occupancy.
    pub rob_occupancy: usize,
    /// Cycle-accounting breakdown over the whole run so far.
    pub accounting: AccountingBreakdown,
    /// FNV-1a digest of the full serialized machine state at capture time
    /// (0 in reports written before checkpointing existed).
    #[serde(default)]
    pub state_digest: u64,
}

impl fmt::Display for DiagSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pc = match self.last_retired_pc {
            Some(pc) => format!("{pc:#x}"),
            None => "<none>".to_string(),
        };
        write!(
            f,
            "cycle {} committed {} last_retired_pc {} (at cycle {}) \
             agen_pc {:#x}{} ftq {} uopq {} rob {}",
            self.cycle,
            self.committed,
            pc,
            self.last_commit_cycle,
            self.agen_pc,
            if self.agen_dead { " (drained)" } else { "" },
            self.ftq_depth,
            self.uopq_depth,
            self.rob_occupancy,
        )?;
        if self.pending_mispredict {
            write!(f, " pending-mispredict")?;
        }
        if self.state_digest != 0 {
            write!(f, " digest {:#018x}", self.state_digest)?;
        }
        Ok(())
    }
}

/// Every way a simulation (or the harness around it) can fail. The suite
/// runner runs each workload once and records its failure beside the
/// other workloads' results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SimError {
    /// The hang watchdog saw no retirement for `window` cycles.
    Hang {
        /// Workload name (empty when raised outside a suite run).
        workload: String,
        /// The watchdog window that expired, in cycles.
        window: u64,
        /// Machine state at expiry — `agen_pc`/`last_retired_pc` name the
        /// stuck location.
        snapshot: Box<DiagSnapshot>,
    },
    /// A model invariant failed (e.g. cycle accounting no longer tiles
    /// the measured cycles). Always a simulator bug, never a workload
    /// property — but one bad workload must not kill a 30-workload suite.
    InvariantViolation {
        /// Workload name (empty when raised outside a suite run).
        workload: String,
        /// What was violated, human-readable.
        detail: String,
        /// Machine state at the violation.
        snapshot: Box<DiagSnapshot>,
    },
    /// Malformed configuration — bad environment knobs, inconsistent
    /// suite setup. Detected before simulating anything.
    BadConfig {
        /// What was wrong, including the accepted values.
        detail: String,
    },
    /// A workload's simulation panicked and was caught at the isolation
    /// boundary.
    WorkloadPanic {
        /// Workload name.
        workload: String,
        /// The panic payload, stringified.
        payload: String,
    },
    /// An I/O failure in the harness (result cache, report files).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
}

impl SimError {
    /// A short stable tag for matching in logs and CI greps.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Hang { .. } => "hang",
            SimError::InvariantViolation { .. } => "invariant-violation",
            SimError::BadConfig { .. } => "bad-config",
            SimError::WorkloadPanic { .. } => "workload-panic",
            SimError::Io { .. } => "io",
        }
    }

    /// Stamps the workload name onto errors raised below the suite layer
    /// (where the name is unknown).
    #[must_use]
    pub fn for_workload(mut self, name: &str) -> Self {
        match &mut self {
            SimError::Hang { workload, .. }
            | SimError::InvariantViolation { workload, .. }
            | SimError::WorkloadPanic { workload, .. } => {
                if workload.is_empty() {
                    *workload = name.to_string();
                }
            }
            SimError::BadConfig { .. } | SimError::Io { .. } => {}
        }
        self
    }

    /// The diagnostic snapshot, when this error carries one.
    pub fn snapshot(&self) -> Option<&DiagSnapshot> {
        match self {
            SimError::Hang { snapshot, .. } | SimError::InvariantViolation { snapshot, .. } => {
                Some(snapshot)
            }
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hang {
                workload,
                window,
                snapshot,
            } => {
                write!(
                    f,
                    "hang: no retirement for {window} cycles{}; {snapshot}",
                    ctx(workload)
                )
            }
            SimError::InvariantViolation {
                workload,
                detail,
                snapshot,
            } => {
                write!(
                    f,
                    "invariant violation{}: {detail}; {snapshot}",
                    ctx(workload)
                )
            }
            SimError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
            SimError::WorkloadPanic { workload, payload } => {
                write!(f, "workload panic{}: {payload}", ctx(workload))
            }
            SimError::Io { path, detail } => write!(f, "io error at {path}: {detail}"),
        }
    }
}

fn ctx(workload: &str) -> String {
    if workload.is_empty() {
        String::new()
    } else {
        format!(" in workload `{workload}`")
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_stuck_pc_on_hang() {
        let e = SimError::Hang {
            workload: "srv0".into(),
            window: 500_000,
            snapshot: Box::new(DiagSnapshot {
                cycle: 123,
                last_retired_pc: Some(0x40a0),
                agen_pc: 0x5000,
                ..Default::default()
            }),
        };
        let s = e.to_string();
        assert!(s.contains("srv0"), "{s}");
        assert!(s.contains("0x40a0"), "{s}");
        assert!(s.contains("0x5000"), "{s}");
        assert_eq!(e.kind(), "hang");
        assert!(e.snapshot().is_some());
    }

    #[test]
    fn for_workload_stamps_only_empty_names() {
        let e = SimError::WorkloadPanic {
            workload: String::new(),
            payload: "boom".into(),
        }
        .for_workload("a");
        assert!(e.to_string().contains("`a`"));
        let e = e.for_workload("b");
        assert!(e.to_string().contains("`a`"), "existing name kept");
    }

    #[test]
    fn sim_error_round_trips_through_serde() {
        let e = SimError::InvariantViolation {
            workload: "w".into(),
            detail: "sum != total".into(),
            snapshot: Box::new(DiagSnapshot {
                cycle: 9,
                committed: 4,
                ..Default::default()
            }),
        };
        let text = serde_json::to_string(&e).unwrap();
        let back: SimError = serde_json::from_str(&text).unwrap();
        assert_eq!(back.kind(), "invariant-violation");
        assert_eq!(back.snapshot().unwrap().cycle, 9);
    }
}
