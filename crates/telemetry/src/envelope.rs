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
//! [`write_envelope`] takes the payload as byte slices (a checkpoint's
//! meta line and machine state, say), checksums them with
//! [`fnv1a64_parts`] and streams the header and each slice straight into
//! a uniquely-named temp file in the destination directory, then renames
//! it into place; the temp file is removed on every failure. The temp
//! name includes both the pid and a process-wide counter, so two threads
//! of one process writing the same entry concurrently cannot collide on
//! the temp path. [`read_envelope_bytes`] verifies the file in the buffer
//! it was read into and returns that buffer with the header drained off,
//! so a write or a read holds one copy of the payload; [`read_envelope`]
//! is its text form (JSON result caches). Every write honours the
//! `torn_write` fault site.

use crate::fault::FaultPlan;
use sim_isa::{fnv1a64, fnv1a64_parts};
use std::io::Write;
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

/// Writes the concatenation of `parts` to `path` atomically: each part
/// goes straight into a unique temp file in the same directory, then a
/// rename. The temp name carries a process-wide counter besides the pid,
/// so concurrent writers inside one process (parallel figure binaries,
/// parallel tests) never interleave on the same temp file. The temp file
/// is removed on every failure.
fn write_atomic(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("cache"),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        parts.iter().try_for_each(|part| f.write_all(part))?;
        drop(f);
        std::fs::rename(&tmp, path)
    });
    written.inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes the concatenation of `payload`'s slices to `path` inside an
/// integrity envelope, atomically, streaming each slice to disk: no
/// buffer holds the whole payload.
///
/// When `fault` arms the `torn_write` site, the header still describes
/// the full payload but only the first half of it reaches disk —
/// modelling a write torn by a crash — so the next read must detect the
/// damage and quarantine the entry.
pub fn write_envelope(
    path: &Path,
    model_version: u32,
    payload: &[&[u8]],
    fault: Option<&FaultPlan>,
) -> std::io::Result<()> {
    let len: usize = payload.iter().map(|p| p.len()).sum();
    let header = CacheHeader {
        schema: CACHE_SCHEMA,
        model_version,
        checksum: format!("{:016x}", fnv1a64_parts(payload)),
        len,
    };
    let header = serde_json::to_string(&header).expect("header serializes") + "\n";
    let mut budget = if fault.is_some_and(|p| p.should_fire("torn_write")) {
        len / 2
    } else {
        len
    };
    let mut parts = vec![header.as_bytes()];
    for part in payload {
        let take = part.len().min(budget);
        parts.push(&part[..take]);
        budget -= take;
    }
    write_atomic(path, &parts)
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

/// Reads and verifies a binary-payload envelope where it lies, returning
/// the payload in the buffer the file was read into, header removed.
///
/// # Errors
///
/// [`CacheReadError::Missing`] when the file does not exist;
/// [`CacheReadError::Corrupt`] for any integrity failure — unreadable
/// header, wrong schema, stale model version, length or checksum
/// mismatch (including pre-envelope legacy files).
pub fn read_envelope_bytes(path: &Path, model_version: u32) -> Result<Vec<u8>, CacheReadError> {
    let mut bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CacheReadError::Missing),
        Err(e) => return Err(CacheReadError::Corrupt(format!("unreadable: {e}"))),
    };
    let Some(split) = bytes.iter().position(|&b| b == b'\n') else {
        return Err(CacheReadError::Corrupt(
            "no header line (legacy or truncated entry)".into(),
        ));
    };
    verify_envelope(&bytes[..split], &bytes[split + 1..], model_version)?;
    bytes.drain(..=split);
    Ok(bytes)
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
        write_envelope(&p, 3, &[b"{\"hello\":1}"], None).unwrap();
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
        write_envelope(&p, 7, &[&payload[..2], &payload[2..]], None).unwrap();
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

        write_envelope(&p, 2, &[b"x"], None).unwrap();
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
        write_envelope(&p, 3, &[b"abcdef"], None).unwrap();
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
        let plan = FaultPlan::parse("torn_write:1").unwrap();
        write_envelope(&p, 3, &[b"0123456789"], Some(&plan)).unwrap();
        let Err(CacheReadError::Corrupt(why)) = read_envelope(&p, 3) else {
            panic!("torn write must be corrupt");
        };
        assert!(why.contains("torn write"), "{why}");
        let q = quarantine(&p).expect("quarantine renames");
        assert!(q.exists());
        assert!(!p.exists());
        assert!(matches!(read_envelope(&p, 3), Err(CacheReadError::Missing)));
        // An intact rewrite heals the entry.
        write_envelope(&p, 3, &[b"0123456789"], None).unwrap();
        assert_eq!(read_envelope(&p, 3).unwrap(), "0123456789");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_keeps_the_first_half_of_the_payload_across_slices() {
        let dir = tmpdir("torn-slices");
        let p = dir.join("e.bin");
        let plan = FaultPlan::parse("torn_write:1").unwrap();
        write_envelope(&p, 3, &[b"0123", b"", b"456789"], Some(&plan)).unwrap();
        let torn = std::fs::read(&p).unwrap();
        write_envelope(&p, 3, &[b"0123456789"], None).unwrap();
        let whole = std::fs::read(&p).unwrap();
        let header = &whole[..whole.len() - 10];
        assert!(header.ends_with(b",\"len\":10}\n"));
        assert_eq!(torn, [header, b"01234"].concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let dir = tmpdir("failed");
        // A non-empty directory at the destination: the rename fails.
        let p = dir.join("e.json");
        std::fs::create_dir_all(p.join("occupied")).unwrap();
        assert!(write_envelope(&p, 3, &[b"abc"], None).is_err());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["e.json"], "the temp file was removed");
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
                        let text = format!("writer {i} iteration {j}");
                        write_atomic(&p, &[text.as_bytes()]).unwrap();
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
