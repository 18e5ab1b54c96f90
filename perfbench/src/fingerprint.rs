//! Behaviour lock: a per-spec fingerprint of everything a run simulates.
//!
//! A fingerprint is an ordered list of `(field, value)` pairs covering the
//! canonical `SimStats` (nested objects flattened to dotted paths, lists
//! hashed), the cycle-accounting breakdown and the final state digest. The
//! recorded fingerprints for the default seed live in `fingerprints.json`
//! beside this package; a run at the default seed checks every spec against
//! them, so a change that alters simulated results cannot pass as a pure
//! speed-up.

use serde_json::Value;
use sim_isa::fnv1a64;
use std::collections::BTreeMap;
use ucp_core::SimStats;
use ucp_telemetry::{AccountingBreakdown, CycleCause, RegistrySnapshot};

/// The recorded fingerprints, compiled in so a run needs no file lookup.
pub const RECORDED: &str = include_str!("../fingerprints.json");

/// Where `--record-fingerprints` writes.
pub const RECORD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.json");

/// Ordered `(field, value)` pairs; values are strings so 64-bit digests
/// survive the JSON round trip exactly.
pub type Fingerprint = Vec<(String, String)>;

/// Fingerprints keyed by `<length>/<workload>/<spec>`.
pub type Book = BTreeMap<String, Fingerprint>;

/// The fingerprint of one finished spec simulation.
pub fn of_run(stats: &SimStats, window: &RegistrySnapshot, final_digest: u64) -> Fingerprint {
    let mut out = Fingerprint::new();
    let stats = serde_json::to_value(stats).expect("SimStats serializes");
    flatten("stats", &stats, &mut out);
    let acct = AccountingBreakdown::from_snapshot(window);
    for cause in CycleCause::ALL {
        out.push((
            format!("acct.{}", cause.name()),
            acct.get(cause).to_string(),
        ));
    }
    out.push(("acct.total".into(), acct.total.to_string()));
    out.push(("state_digest".into(), format!("{final_digest:#018x}")));
    out
}

fn flatten(path: &str, v: &Value, out: &mut Fingerprint) {
    match v {
        Value::Map(fields) => {
            for (k, v) in fields {
                flatten(&format!("{path}.{k}"), v, out);
            }
        }
        Value::Seq(_) => {
            let text = serde_json::to_string(v).expect("value serializes");
            out.push((path.into(), format!("{:#018x}", fnv1a64(text.as_bytes()))));
        }
        scalar => out.push((
            path.into(),
            serde_json::to_string(scalar).expect("value serializes"),
        )),
    }
}

/// The first field where `actual` departs from `expected`, described for
/// the failure message; `None` when they agree on every field.
pub fn first_difference(expected: &Fingerprint, actual: &Fingerprint) -> Option<String> {
    let got: BTreeMap<&str, &str> = actual
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    for (field, want) in expected {
        match got.get(field.as_str()) {
            Some(have) if *have == want => {}
            Some(have) => return Some(format!("field `{field}`: expected {want}, got {have}")),
            None => return Some(format!("field `{field}` is missing")),
        }
    }
    let known: BTreeMap<&str, ()> = expected.iter().map(|(k, _)| (k.as_str(), ())).collect();
    actual
        .iter()
        .find(|(k, _)| !known.contains_key(k.as_str()))
        .map(|(k, _)| format!("field `{k}` was not recorded"))
}

/// Parses a fingerprint book.
pub fn parse(text: &str) -> Result<Book, String> {
    let bad = |what: &str| format!("fingerprint file: {what}");
    let Value::Map(entries) = serde_json::parse_value(text).map_err(|e| bad(&e.to_string()))?
    else {
        return Err(bad("top level is not an object"));
    };
    let mut book = Book::new();
    for (key, fields) in entries {
        let Value::Map(fields) = fields else {
            return Err(bad(&format!("entry `{key}` is not an object")));
        };
        let print = fields
            .into_iter()
            .map(|(k, v)| match v {
                Value::Str(s) => Ok((k, s)),
                _ => Err(bad(&format!("`{key}`.`{k}` is not a string"))),
            })
            .collect::<Result<_, _>>()?;
        book.insert(key, print);
    }
    Ok(book)
}

/// Serializes a fingerprint book, one field per line so diffs stay readable.
pub fn render(book: &Book) -> String {
    let quote = |s: &str| serde_json::to_string(s).expect("string serializes");
    let mut out = String::from("{\n");
    for (i, (key, print)) in book.iter().enumerate() {
        out.push_str(&format!("  {}: {{\n", quote(key)));
        for (j, (k, v)) in print.iter().enumerate() {
            let comma = if j + 1 < print.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{comma}\n", quote(k), quote(v)));
        }
        let comma = if i + 1 < book.len() { "," } else { "" };
        out.push_str(&format!("  }}{comma}\n"));
    }
    out.push_str("}\n");
    out
}
