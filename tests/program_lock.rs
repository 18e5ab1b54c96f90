//! Program lock: pins every suite workload's built program, so a change to
//! how the generator lays out or stores the image cannot silently change
//! the code the simulator runs.
//!
//! For each spec of the full suite and the quick suite it hashes the
//! entry point and, for every instruction in layout order, its address,
//! the decoded `StaticInst` and its behaviour, and compares the hash and
//! the instruction count with `tests/golden/program_lock.json`.
//!
//! After an intended generator change, regenerate with
//! `UCP_UPDATE_GOLDEN=1 cargo test --test program_lock`.

use std::fmt::Write as _;
use ucp_sim::workloads::{suite, Program, WorkloadSpec};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/program_lock.json"
);

/// FNV-1a over the rendered text, fed as it is formatted.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(prog: &Program) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    writeln!(h, "entry {:?}", prog.entry()).expect("hashing cannot fail");
    for i in 0..prog.len() {
        let pc = prog.addr_of(i);
        writeln!(h, "{pc:?} {:?} {:?}", prog.inst_at(pc), prog.behavior(i))
            .expect("hashing cannot fail");
    }
    h.0
}

fn render(spec: &WorkloadSpec) -> String {
    let prog = spec.build();
    format!(
        "  \"{}\": {{\"insts\": {}, \"entry\": \"{:?}\", \"digest\": \"{:#018x}\"}}",
        spec.name,
        prog.len(),
        prog.entry(),
        digest(&prog)
    )
}

#[test]
fn every_suite_program_matches_its_golden_digest() {
    let mut specs = suite::workload_suite();
    for q in suite::quick_suite() {
        match specs.iter().find(|s| s.name == q.name) {
            Some(s) => assert_eq!(*s, q, "quick-suite {} differs from the suite's", q.name),
            None => specs.push(q),
        }
    }
    let lines: Vec<String> = specs.iter().map(render).collect();
    let rendered = format!("{{\n{}\n}}\n", lines.join(",\n"));
    if std::env::var("UCP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN}: {e}"));
    assert_eq!(
        rendered, expected,
        "generated programs drifted from tests/golden/program_lock.json"
    );
}
