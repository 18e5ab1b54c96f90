//! On-disk integrity envelopes: checksummed headers, atomic writes, and
//! quarantine for corrupt entries.
//!
//! The result cache in `ucp-bench` and the checkpoint writer in
//! `ucp-core::snapshot` share this machinery. Entries are written as an
//! *envelope*:
//!
//! ```text
//! {"schema":1,"model_version":3,"checksum":"<fnv1a hex>","len":<bytes>}\n
//! <payload bytes>
//! ```
//!
//! Readers verify the schema, the model version, the payload length and
//! the checksum before deserializing a byte of payload. Anything that
//! fails verification is [quarantined](quarantine) — renamed aside, never
//! deleted, so the evidence survives for debugging — and the caller
//! regenerates the entry.
//!
//! Writes go through [`write_atomic`]: a uniquely-named temp file in the
//! destination directory, then a rename. The temp name includes both the
//! pid and a process-wide counter, so two threads of one process writing
//! the same entry concurrently cannot collide on the temp path.
//!
//! Text payloads (JSON result caches) use [`write_envelope`] /
//! [`read_envelope`]; binary payloads (whole-simulation checkpoints) use
//! [`write_envelope_bytes`] / [`read_envelope_bytes`]. Both share one
//! header format and one verification path, and both honour the
//! `torn_write` fault site.

use crate::fault::FaultPlan;
use sim_isa::fnv1a64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Envelope format version. Bump only when the header/payload framing
/// itself changes (payload-invalidating model changes bump the caller's
/// own model version instead).
pub const CACHE_SCHEMA: u32 = 1;

/// The envelope's first line.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct CacheHeader {
    schema: u32,
    model_version: u32,
    checksum: String,
    len: usize,
}

/// Why a cache entry could not be used.
#[derive(Debug)]
pub enum CacheReadError {
    /// No entry at this path — a plain miss, nothing to quarantine.
    Missing,
    /// The entry exists but failed integrity verification; the string
    /// says how. The caller should [`quarantine`] it and regenerate.
    Corrupt(String),
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, then a rename. The temp name carries a process-wide
/// counter besides the pid, so concurrent writers inside one process
/// (parallel figure binaries, parallel tests) never interleave on the
/// same temp file.
pub fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("cache"),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Text-payload form of [`write_atomic_bytes`].
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    write_atomic_bytes(path, text.as_bytes())
}

fn envelope_header(model_version: u32, payload: &[u8]) -> String {
    let header = CacheHeader {
        schema: CACHE_SCHEMA,
        model_version,
        checksum: format!("{:016x}", fnv1a64(payload)),
        len: payload.len(),
    };
    serde_json::to_string(&header).expect("header serializes")
}

/// Writes `payload` to `path` inside an integrity envelope, atomically.
///
/// When `fault` arms the `torn_write` site, the header still describes
/// the full payload but only the first half of it reaches disk —
/// modelling a write torn by a crash — so the next read must detect the
/// damage and quarantine the entry.
pub fn write_envelope_bytes(
    path: &Path,
    model_version: u32,
    payload: &[u8],
    fault: Option<&FaultPlan>,
) -> std::io::Result<()> {
    let header = envelope_header(model_version, payload);
    let torn = fault.is_some_and(|p| p.should_fire("torn_write"));
    let written = if torn {
        &payload[..payload.len() / 2]
    } else {
        payload
    };
    let mut out = Vec::with_capacity(header.len() + 1 + written.len());
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(written);
    write_atomic_bytes(path, &out)
}

/// Text-payload form of [`write_envelope_bytes`].
pub fn write_envelope(
    path: &Path,
    model_version: u32,
    payload: &str,
    fault: Option<&FaultPlan>,
) -> std::io::Result<()> {
    write_envelope_bytes(path, model_version, payload.as_bytes(), fault)
}

fn verify_envelope(
    header: &[u8],
    payload: &[u8],
    model_version: u32,
) -> Result<(), CacheReadError> {
    let header = std::str::from_utf8(header)
        .map_err(|e| CacheReadError::Corrupt(format!("non-UTF-8 header: {e}")))?;
    let header: CacheHeader = serde_json::from_str(header)
        .map_err(|e| CacheReadError::Corrupt(format!("unparseable header (legacy entry?): {e}")))?;
    if header.schema != CACHE_SCHEMA {
        return Err(CacheReadError::Corrupt(format!(
            "schema {} != supported {CACHE_SCHEMA}",
            header.schema
        )));
    }
    if header.model_version != model_version {
        return Err(CacheReadError::Corrupt(format!(
            "stale model version {} (current {model_version})",
            header.model_version
        )));
    }
    if header.len != payload.len() {
        return Err(CacheReadError::Corrupt(format!(
            "payload is {} bytes, header promised {} (torn write?)",
            payload.len(),
            header.len
        )));
    }
    let sum = format!("{:016x}", fnv1a64(payload));
    if sum != header.checksum {
        return Err(CacheReadError::Corrupt(format!(
            "checksum {sum} != header {}",
            header.checksum
        )));
    }
    Ok(())
}

/// Reads and verifies a binary-payload envelope, returning the payload.
///
/// # Errors
///
/// [`CacheReadError::Missing`] when the file does not exist;
/// [`CacheReadError::Corrupt`] for any integrity failure — unreadable
/// header, wrong schema, stale model version, length or checksum
/// mismatch (including pre-envelope legacy files).
pub fn read_envelope_bytes(path: &Path, model_version: u32) -> Result<Vec<u8>, CacheReadError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CacheReadError::Missing),
        Err(e) => return Err(CacheReadError::Corrupt(format!("unreadable: {e}"))),
    };
    let Some(split) = bytes.iter().position(|&b| b == b'\n') else {
        return Err(CacheReadError::Corrupt(
            "no header line (legacy or truncated entry)".into(),
        ));
    };
    let (header, payload) = (&bytes[..split], &bytes[split + 1..]);
    verify_envelope(header, payload, model_version)?;
    Ok(payload.to_vec())
}

/// Text-payload form of [`read_envelope_bytes`].
pub fn read_envelope(path: &Path, model_version: u32) -> Result<String, CacheReadError> {
    let payload = read_envelope_bytes(path, model_version)?;
    String::from_utf8(payload)
        .map_err(|e| CacheReadError::Corrupt(format!("non-UTF-8 payload: {e}")))
}

/// Moves a corrupt entry aside (never deletes it) so the slot can be
/// regenerated while the evidence survives. Returns the quarantine path,
/// or `None` when the rename itself failed (the caller still regenerates;
/// the next read will re-quarantine).
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    static QUARANTINE_COUNTER: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let dest = path.with_file_name(format!(
        "{name}.quarantined.{}.{}",
        std::process::id(),
        QUARANTINE_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::rename(path, &dest).ok().map(|()| dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ucp-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn envelope_round_trips() {
        let dir = tmpdir("roundtrip");
        let p = dir.join("e.json");
        write_envelope(&p, 3, "{\"hello\":1}", None).unwrap();
        assert_eq!(read_envelope(&p, 3).unwrap(), "{\"hello\":1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_envelope_round_trips_non_utf8_payloads() {
        let dir = tmpdir("binary");
        let p = dir.join("ckpt.bin");
        // Includes a 0x0A byte and invalid UTF-8 — the binary path must
        // split on the *first* newline only and never decode the payload.
        let payload = [0xFFu8, 0x0A, 0x00, 0xC3, 0x28, 0x0A, 0x42];
        write_envelope_bytes(&p, 7, &payload, None).unwrap();
        assert_eq!(read_envelope_bytes(&p, 7).unwrap(), payload);
        let Err(CacheReadError::Corrupt(why)) = read_envelope_bytes(&p, 8) else {
            panic!("stale model version must be corrupt");
        };
        assert!(why.contains("stale model version 7"), "{why}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_rejects_missing_stale_and_corrupt() {
        let dir = tmpdir("reject");
        let p = dir.join("e.json");
        assert!(matches!(read_envelope(&p, 3), Err(CacheReadError::Missing)));

        write_envelope(&p, 2, "x", None).unwrap();
        let Err(CacheReadError::Corrupt(why)) = read_envelope(&p, 3) else {
            panic!("stale model version must be corrupt");
        };
        assert!(why.contains("stale model version 2"), "{why}");

        // Legacy pre-envelope entry: raw JSON, no header line.
        std::fs::write(&p, "[{\"workload\":\"a\"}]").unwrap();
        assert!(matches!(
            read_envelope(&p, 3),
            Err(CacheReadError::Corrupt(_))
        ));

        // Flipped payload byte: checksum catches it.
        write_envelope(&p, 3, "abcdef", None).unwrap();
        let text = std::fs::read_to_string(&p)
            .unwrap()
            .replace("abcdef", "abcdeF");
        std::fs::write(&p, text).unwrap();
        let Err(CacheReadError::Corrupt(why)) = read_envelope(&p, 3) else {
            panic!("bit flip must be corrupt");
        };
        assert!(why.contains("checksum"), "{why}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_detected_and_quarantined() {
        let dir = tmpdir("torn");
        let p = dir.join("e.json");
        let plan = FaultPlan::parse("torn_write:1:1").unwrap();
        write_envelope(&p, 3, "0123456789", Some(&plan)).unwrap();
        let Err(CacheReadError::Corrupt(why)) = read_envelope(&p, 3) else {
            panic!("torn write must be corrupt");
        };
        assert!(why.contains("torn write"), "{why}");
        let q = quarantine(&p).expect("quarantine renames");
        assert!(q.exists());
        assert!(!p.exists());
        assert!(matches!(read_envelope(&p, 3), Err(CacheReadError::Missing)));
        // The budget was 1: the rewrite goes through intact.
        write_envelope(&p, 3, "0123456789", Some(&plan)).unwrap();
        assert_eq!(read_envelope(&p, 3).unwrap(), "0123456789");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_is_collision_free_across_threads() {
        let dir = tmpdir("atomic");
        let p = dir.join("e.json");
        std::thread::scope(|s| {
            for i in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for j in 0..50 {
                        write_atomic(&p, &format!("writer {i} iteration {j}")).unwrap();
                    }
                });
            }
        });
        // The final file is some writer's complete text, and no temp
        // files survive (a pid-only temp name loses files or races here).
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("writer "), "{text}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
