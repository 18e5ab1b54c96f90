//! Mid-run checkpoint/restore and the determinism auditor.
//!
//! A checkpoint is the *complete* mutable state of a [`crate::Simulator`]
//! — pipeline, predictors, µ-op cache, UCP engine, memory hierarchy,
//! statistics and telemetry — serialized with the [`sim_isa::StateWriter`]
//! codec and wrapped in the result cache's integrity envelope (checksummed
//! header + atomic rename), so a torn or corrupted checkpoint is detected
//! on read and quarantined rather than silently restored.
//!
//! File layout inside the envelope payload:
//!
//! ```text
//! <CheckpointMeta as one JSON line>\n
//! <raw component state bytes>
//! ```
//!
//! [`write_checkpoint`] hands the envelope writer the meta line, the
//! newline and the state as separate slices, which it checksums and
//! streams to disk; [`read_checkpoint`] verifies the file in the buffer
//! it was read into and returns the state in that buffer. A write or a
//! restore therefore holds one copy of the state.
//!
//! The meta line embeds the workload spec and simulator config as JSON, so
//! offline tools (`ucp-bisect`) can rebuild the exact simulation from the
//! checkpoint directory alone. Checkpoints are named
//! `ckpt-<committed>.bin` under a per-run directory keyed by a slug of
//! (workload, seed, config, run lengths, sampling interval); a keep-last-k
//! policy bounds disk use.

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use sim_isa::fnv1a64;
use std::path::{Path, PathBuf};
use ucp_telemetry::envelope::{quarantine, read_envelope_bytes, write_envelope};
use ucp_telemetry::{CacheReadError, FaultPlan};

/// Checkpoint format version; bumped whenever any component's serialized
/// layout changes. Doubles as the envelope `model_version`, so stale
/// checkpoints fail integrity verification instead of mis-restoring.
pub const CKPT_VERSION: u32 = 1;

/// Default number of checkpoints retained per run.
pub const DEFAULT_CKPT_KEEP: usize = 3;

/// Everything needed to identify and resume a checkpoint, stored as the
/// first (JSON) line of the payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// Checkpoint format version ([`CKPT_VERSION`]).
    pub version: u32,
    /// Workload name.
    pub workload: String,
    /// The full `WorkloadSpec`, as JSON.
    pub spec_json: String,
    /// The full `SimConfig`, as JSON.
    pub cfg_json: String,
    /// Workload seed.
    pub seed: u64,
    /// Warm-up length of the interrupted run (instructions) — replaying
    /// tools need it to open the measurement window at the same boundary.
    pub warmup: u64,
    /// Measured length of the interrupted run (instructions).
    pub measure: u64,
    /// Instructions committed at capture time (whole run).
    pub committed: u64,
    /// Machine cycle at capture time.
    pub cycle: u64,
    /// FNV-1a digest of the state bytes that follow the meta line.
    pub digest: u64,
}

/// One determinism-auditor sample: the machine digest after `committed`
/// instructions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestRecord {
    /// Instructions committed (whole run) when the digest was taken.
    pub committed: u64,
    /// Machine cycle when the digest was taken.
    pub cycle: u64,
    /// FNV-1a digest of the full serialized machine state.
    pub digest: u64,
}

sim_isa::state_fields!(DigestRecord { committed, cycle, digest } skip {});

/// `UCP_CKPT` policy: checkpoint every `every` committed instructions,
/// keep the newest `keep` on disk (`Knobs::ckpt`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint interval in committed instructions.
    pub every: u64,
    /// Checkpoints retained per run directory.
    pub keep: usize,
}

/// Stable per-run directory slug: a digest of everything that determines
/// the simulated trajectory, so a run never resumes a checkpoint from a
/// different trajectory. A checkpoint carries the interval sampler's
/// state, so the sampling interval in cycles (`0`: sampling off) is part
/// of the key, as it is of the result-cache key.
pub fn run_slug(
    workload: &str,
    seed: u64,
    cfg_json: &str,
    warmup: u64,
    measure: u64,
    interval: u64,
) -> String {
    let key = format!("{workload}|{seed:#x}|{cfg_json}|w{warmup}|m{measure}|iv{interval}");
    format!("{workload}-{:016x}", fnv1a64(key.as_bytes()))
}

/// Path of the checkpoint taken at `committed` instructions.
pub fn checkpoint_path(dir: &Path, committed: u64) -> PathBuf {
    dir.join(format!("ckpt-{committed:012}.bin"))
}

fn committed_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let n = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    n.parse().ok()
}

/// Checkpoints in `dir`, sorted by committed-instruction count ascending.
/// Quarantined and foreign files are ignored.
pub fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let p = e.path();
            committed_of(&p).map(|c| (c, p))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Splits an envelope payload into meta and state bytes, verifying the
/// meta's own state digest (defence in depth below the envelope
/// checksum, and the hook the divergence bisector keys on). The state is
/// returned in `payload`'s own allocation, meta line drained off.
fn parse_checkpoint(mut payload: Vec<u8>) -> Result<(CheckpointMeta, Vec<u8>), String> {
    let split = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("checkpoint payload has no meta line")?;
    let meta_line = std::str::from_utf8(&payload[..split])
        .map_err(|e| format!("checkpoint meta line is not UTF-8: {e}"))?;
    let meta: CheckpointMeta =
        serde_json::from_str(meta_line).map_err(|e| format!("unparseable checkpoint meta: {e}"))?;
    if meta.version != CKPT_VERSION {
        return Err(format!(
            "checkpoint version {} (current {CKPT_VERSION})",
            meta.version
        ));
    }
    let digest = fnv1a64(&payload[split + 1..]);
    if digest != meta.digest {
        return Err(format!(
            "state digest {digest:#018x} != meta digest {:#018x}",
            meta.digest
        ));
    }
    payload.drain(..=split);
    Ok((meta, payload))
}

/// Reads and verifies the checkpoint at `path`: `Ok(None)` when there is
/// no file, `Err` saying why when it fails either integrity check.
pub fn read_checkpoint(path: &Path) -> Result<Option<(CheckpointMeta, Vec<u8>)>, String> {
    match read_envelope_bytes(path, CKPT_VERSION) {
        Ok(payload) => parse_checkpoint(payload).map(Some),
        Err(CacheReadError::Missing) => Ok(None),
        Err(CacheReadError::Corrupt(why)) => Err(why),
    }
}

/// Writes a checkpoint atomically inside the integrity envelope and prunes
/// the directory down to the newest `keep` checkpoints. `fault` lets the
/// injection harness tear this write (the `torn_write` site).
///
/// # Errors
///
/// Returns [`SimError::Io`] on any filesystem failure.
pub fn write_checkpoint(
    dir: &Path,
    meta: &CheckpointMeta,
    state: &[u8],
    keep: usize,
    fault: Option<&FaultPlan>,
) -> Result<PathBuf, SimError> {
    let io_err = |path: &Path, e: std::io::Error| SimError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = checkpoint_path(dir, meta.committed);
    let meta_line = serde_json::to_string(meta).expect("checkpoint meta serializes");
    let payload = [meta_line.as_bytes(), b"\n", state];
    write_envelope(&path, CKPT_VERSION, &payload, fault).map_err(|e| io_err(&path, e))?;
    // Keep-last-k: drop the oldest beyond `keep` (the just-written one is
    // always newest by construction — commit counts only grow).
    let all = list_checkpoints(dir);
    if all.len() > keep {
        for (_, old) in &all[..all.len() - keep] {
            if let Err(e) = std::fs::remove_file(old) {
                eprintln!("[ucp-ckpt] could not prune {}: {e}", old.display());
            }
        }
    }
    Ok(path)
}

/// Loads the newest checkpoint in `dir` that passes integrity
/// verification. Corrupt checkpoints are quarantined (renamed aside) and
/// the next-older one is tried — the crash-recovery path after a torn
/// write. Returns `None` when no valid checkpoint exists.
pub fn latest_valid_checkpoint(dir: &Path) -> Option<(CheckpointMeta, Vec<u8>)> {
    for (_, path) in list_checkpoints(dir).into_iter().rev() {
        match read_checkpoint(&path) {
            Ok(Some(ok)) => return Some(ok),
            Ok(None) => continue,
            Err(detail) => reject(&path, &detail),
        }
    }
    None
}

fn reject(path: &Path, detail: &str) {
    match quarantine(path) {
        Some(q) => eprintln!(
            "[ucp-ckpt] corrupt checkpoint {}: {detail}; quarantined as {}",
            path.display(),
            q.display()
        ),
        None => eprintln!(
            "[ucp-ckpt] corrupt checkpoint {}: {detail}; could not quarantine",
            path.display()
        ),
    }
}

/// Removes a run's checkpoint directory (called after a successful run —
/// its checkpoints can never be resumed again).
pub fn remove_run_checkpoints(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(committed: u64, state: &[u8]) -> CheckpointMeta {
        CheckpointMeta {
            version: CKPT_VERSION,
            workload: "t".into(),
            spec_json: "{}".into(),
            cfg_json: "{}".into(),
            seed: 7,
            warmup: 0,
            measure: 1000,
            committed,
            cycle: committed * 2,
            digest: fnv1a64(state),
        }
    }

    /// A checkpoint payload built by hand: meta line, `\n`, state.
    fn payload_of(m: &CheckpointMeta, state: &[u8]) -> Vec<u8> {
        [serde_json::to_string(m).unwrap().as_bytes(), b"\n", state].concat()
    }

    /// The state of a real machine: the `tiny` spec after a few thousand
    /// instructions.
    fn tiny_state() -> Vec<u8> {
        let spec = ucp_workloads::WorkloadSpec::tiny("snapshot-bytes", 3);
        let prog = spec.build();
        let mut sim = crate::Simulator::new(&prog, spec.seed, &crate::SimConfig::baseline());
        sim.run_to_committed(3_000, 1_000).unwrap();
        let mut w = sim_isa::StateWriter::new();
        sim.save_state(&mut w);
        w.into_bytes()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ucp-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn payload_round_trips() {
        let state = vec![1u8, 2, 3, 4, 5];
        let m = meta(100, &state);
        let (back, state2) = parse_checkpoint(payload_of(&m, &state)).unwrap();
        assert_eq!(back.committed, 100);
        assert_eq!(state2, state);
    }

    #[test]
    fn digest_mismatch_is_rejected() {
        let state = vec![1u8, 2, 3];
        let mut m = meta(5, &state);
        m.digest ^= 1;
        let payload = payload_of(&m, &state);
        assert!(parse_checkpoint(payload).unwrap_err().contains("digest"));
    }

    #[test]
    fn checkpoint_files_are_header_meta_line_and_state() {
        let state = tiny_state();
        let m = meta(3_000, &state);
        let payload = payload_of(&m, &state);
        let header = format!(
            "{{\"schema\":1,\"model_version\":{CKPT_VERSION},\"checksum\":\"{:016x}\",\"len\":{}}}\n",
            fnv1a64(&payload),
            payload.len()
        );
        let dir = tmpdir("bytes");
        let path = write_checkpoint(&dir, &m, &state, 3, None).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == [header.as_bytes(), &payload].concat(),
            "whole file"
        );
        let torn = FaultPlan::parse("torn_write:1").unwrap();
        write_checkpoint(&dir, &m, &state, 3, Some(&torn)).unwrap();
        let half = &payload[..payload.len() / 2];
        assert!(
            std::fs::read(&path).unwrap() == [header.as_bytes(), half].concat(),
            "torn file: the header and the first half of the payload"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_return_the_state_in_the_payload_buffer() {
        let state = tiny_state();
        let m = meta(3_000, &state);
        let payload = payload_of(&m, &state);
        let at = payload.as_ptr();
        let (_, parsed) = parse_checkpoint(payload).unwrap();
        assert_eq!(parsed.as_ptr(), at, "no copy");
        assert!(parsed == state);

        let dir = tmpdir("nocopy");
        let path = write_checkpoint(&dir, &m, &state, 3, None).unwrap();
        let (back, read) = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(back.committed, 3_000);
        assert!(read == state, "binary envelope round trip");
        let text = dir.join("entry.json");
        ucp_telemetry::envelope::write_envelope(&text, 4, &[b"{\"a\":", b"1}"], None).unwrap();
        let read = ucp_telemetry::envelope::read_envelope(&text, 4).unwrap();
        assert_eq!(read, "{\"a\":1}", "text envelope round trip");

        // A state byte flipped on disk: corrupt, and quarantined on load.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let Err(CacheReadError::Corrupt(why)) = read_envelope_bytes(&path, CKPT_VERSION) else {
            panic!("a flipped byte must be corrupt");
        };
        assert!(why.contains("checksum"), "{why}");
        assert!(latest_valid_checkpoint(&dir).is_none());
        assert!(!path.exists(), "quarantined");
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().contains(".quarantined."));
        assert!(quarantined);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_prune_and_load_newest() {
        let dir = std::env::temp_dir().join(format!("ucp-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for committed in [10u64, 20, 30, 40, 50] {
            let state = committed.to_le_bytes().to_vec();
            write_checkpoint(&dir, &meta(committed, &state), &state, 3, None).unwrap();
        }
        let listed = list_checkpoints(&dir);
        assert_eq!(
            listed.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![30, 40, 50],
            "keep-last-3"
        );
        let (m, state) = latest_valid_checkpoint(&dir).unwrap();
        assert_eq!(m.committed, 50);
        assert_eq!(state, 50u64.to_le_bytes().to_vec());
        // Corrupt the newest: loader must quarantine it and fall back.
        let (_, newest) = listed.last().unwrap().clone();
        std::fs::write(&newest, b"garbage").unwrap();
        let (m, _) = latest_valid_checkpoint(&dir).unwrap();
        assert_eq!(m.committed, 40, "fell back past the corrupt newest");
        assert!(!newest.exists(), "corrupt checkpoint was quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slug_depends_on_every_input() {
        let a = run_slug("w", 1, "{}", 100, 200, 50);
        assert_ne!(a, run_slug("w", 2, "{}", 100, 200, 50));
        assert_ne!(a, run_slug("w", 1, "{\"x\":1}", 100, 200, 50));
        assert_ne!(a, run_slug("w", 1, "{}", 101, 200, 50));
        assert_ne!(a, run_slug("w", 1, "{}", 100, 201, 50));
        assert_ne!(a, run_slug("w", 1, "{}", 100, 200, 0));
        assert_eq!(a, run_slug("w", 1, "{}", 100, 200, 50));
        assert!(a.starts_with("w-"));
    }
}
