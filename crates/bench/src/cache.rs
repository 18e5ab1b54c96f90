//! Result-cache integrity: an enveloped on-disk format with checksums,
//! atomic writes, and quarantine for corrupt entries.
//!
//! The implementation moved to [`ucp_telemetry::envelope`] so the
//! checkpoint writer in `ucp-core::snapshot` can share the exact same
//! machinery (it sits below `ucp-core` in the dependency graph; this
//! crate sits above it). This module re-exports everything under its
//! original PR 3 paths so existing callers and the CI fault smoke are
//! unaffected.

pub use ucp_telemetry::envelope::{
    quarantine, read_envelope, read_envelope_bytes, write_atomic, write_atomic_bytes,
    write_envelope, write_envelope_bytes, CacheReadError, CACHE_SCHEMA,
};
