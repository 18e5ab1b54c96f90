//! `ucp-bisect`: localize a determinism divergence to one
//! inter-checkpoint window.
//!
//! ```text
//! cargo run --release -p ucp-bench --bin ucp-bisect -- <ckpt-dir>
//! ```
//!
//! `<ckpt-dir>` is one run's checkpoint directory as written under
//! `UCP_CKPT` (`$UCP_CKPT_DIR/<workload>-<slug>/`, default root
//! `target/ucp-ckpt`). The tool rebuilds the simulated machine from the
//! metadata embedded in the checkpoints, replays the workload from cycle
//! zero, and binary-searches the recorded checkpoints for the first one
//! whose machine state the replay cannot reproduce bit-for-bit. Replay
//! determinism makes "matches checkpoint k" a prefix property, so the
//! search localizes the divergence to a single inter-checkpoint window
//! and dumps the replayed and the recorded machine diagnostics side by
//! side at its right edge.
//!
//! Run it under the *same* knobs as the original run — `UCP_INTERVAL` and
//! `UCP_DIGEST` change what state the machine carries, so a mismatch
//! there reports as divergence at the first checkpoint.
//!
//! Exit status: 0 when the replay reproduces every checkpoint, 1 when a
//! divergent window was found, 2 on usage or configuration errors.

use std::path::{Path, PathBuf};
use ucp_core::snapshot::{list_checkpoints, read_checkpoint};
use ucp_core::{CheckpointMeta, Knobs, SimConfig, Simulator};
use ucp_workloads::WorkloadSpec;

struct Ckpt {
    meta: CheckpointMeta,
    state: Vec<u8>,
    path: PathBuf,
}

fn load_checkpoints(dir: &Path) -> Vec<Ckpt> {
    let mut out = Vec::new();
    for (_, path) in list_checkpoints(dir) {
        match read_checkpoint(&path) {
            Ok(Some((meta, state))) => out.push(Ckpt { meta, state, path }),
            Ok(None) => {}
            Err(why) => eprintln!(
                "warning: skipping corrupt checkpoint {}: {why}",
                path.display()
            ),
        }
    }
    out
}

/// A replay that only ever moves forward, rebuilt from scratch whenever
/// the bisection probes behind its current position.
struct Replay<'a> {
    prog: &'a ucp_workloads::Program,
    seed: u64,
    cfg: &'a SimConfig,
    knobs: &'a Knobs,
    warmup: u64,
    sim: Option<Simulator<'a>>,
}

impl<'a> Replay<'a> {
    fn machine(&self) -> Simulator<'a> {
        Simulator::with_knobs(self.prog, self.seed, self.cfg, self.knobs)
    }

    fn at(&mut self, target: u64) -> &mut Simulator<'a> {
        if self.sim.as_ref().is_some_and(|s| s.committed() > target) {
            self.sim = None;
        }
        if self.sim.is_none() {
            self.sim = Some(self.machine());
        }
        let sim = self.sim.as_mut().expect("replay machine just built");
        sim.run_to_committed(target, self.warmup)
            .unwrap_or_else(|e| {
                eprintln!("error: replay failed at {target} committed: {e}");
                std::process::exit(2);
            });
        sim
    }
}

fn main() {
    let knobs = ucp_bench::env_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: ucp-bisect <ckpt-dir>");
        std::process::exit(2);
    };
    let dir = PathBuf::from(dir);
    let ckpts = load_checkpoints(&dir);
    if ckpts.is_empty() {
        eprintln!("error: no valid checkpoints in {}", dir.display());
        std::process::exit(2);
    }
    let meta0 = &ckpts[0].meta;
    let spec: WorkloadSpec = serde_json::from_str(&meta0.spec_json).unwrap_or_else(|e| {
        eprintln!("error: checkpoint workload spec does not parse: {e}");
        std::process::exit(2);
    });
    let cfg: SimConfig = serde_json::from_str(&meta0.cfg_json).unwrap_or_else(|e| {
        eprintln!("error: checkpoint sim config does not parse: {e}");
        std::process::exit(2);
    });
    println!(
        "bisecting {} checkpoints of workload `{}` (seed {:#x}) in {}",
        ckpts.len(),
        meta0.workload,
        meta0.seed,
        dir.display()
    );

    let prog = spec.build();
    let mut replay = Replay {
        prog: &prog,
        seed: spec.seed,
        cfg: &cfg,
        knobs: &knobs,
        warmup: meta0.warmup,
        sim: None,
    };
    let matches = |replay: &mut Replay, c: &Ckpt| {
        let sim = replay.at(c.meta.committed);
        sim.state_digest() == c.meta.digest
    };

    // Cheap common case first: the newest checkpoint replays clean.
    let last = ckpts.len() - 1;
    if matches(&mut replay, &ckpts[last]) {
        println!(
            "replay reproduces every checkpoint bit-for-bit (through {} committed); \
             no divergence",
            ckpts[last].meta.committed
        );
        return;
    }
    // `matches` is a prefix property of a deterministic replay: find the
    // first checkpoint it fails.
    let mut lo = 0; // first candidate that might mismatch
    let mut hi = last; // known mismatch
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if matches(&mut replay, &ckpts[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let bad = &ckpts[lo];
    let window_start = if lo == 0 {
        0
    } else {
        ckpts[lo - 1].meta.committed
    };
    println!(
        "divergence localized to the window ({window_start}, {}] committed instructions",
        bad.meta.committed
    );
    println!("  first divergent checkpoint: {}", bad.path.display());

    // Side-by-side diagnostics at the window's right edge: the replayed
    // machine vs the recorded one.
    let replayed = replay.at(bad.meta.committed).diag_snapshot();
    let mut recorded_sim = replay.machine();
    recorded_sim.restore_from_bytes(&bad.state);
    let recorded = recorded_sim.diag_snapshot();
    println!("  replayed : {replayed}");
    println!("  recorded : {recorded}");
    println!(
        "  digests  : replayed {:#018x} vs recorded {:#018x}",
        replayed.state_digest, recorded.state_digest
    );
    std::process::exit(1);
}
