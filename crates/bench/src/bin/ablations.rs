//! Ablations beyond the paper's grid: sensitivity of the headline result
//! to the model knobs DESIGN.md calls out — the stream↔build switch
//! hysteresis and penalty, the µ-op-path vs decode-path depth gap, the
//! alternate decoder width, and the Alt-FTQ depth.
//!
//! These quantify how much of UCP's gain depends on each modelling choice.
//!
//! ```text
//! cargo run --release -p ucp-bench --bin ablations
//! ```

use ucp_bench::cached_suite_run;
use ucp_bench::figs::geomean;
use ucp_core::SimConfig;

fn main() {
    let knobs = ucp_bench::env_knobs();
    let profile = knobs.profile();
    println!(
        "=== ablations: model-knob sensitivity [profile {}] ===",
        profile.tag()
    );

    // 1. Stream-switch hysteresis: how many consecutive µ-op cache hits in
    //    build mode before returning to stream mode.
    println!("\nstream_switch_hits (baseline IPC impact + switch PKI):");
    let ref_base = cached_suite_run(&SimConfig::baseline(), &knobs);
    for hits in [1u32, 3, 8] {
        let mut cfg = SimConfig::baseline();
        cfg.frontend.stream_switch_hits = hits;
        let r = cached_suite_run(&cfg, &knobs);
        let pki: f64 = r.iter().map(|x| x.stats.switch_pki()).sum::<f64>() / r.len() as f64;
        println!(
            "  hits={hits}: speedup vs default {:+.2}%, switch PKI {pki:.2}",
            geomean(&ref_base, &r)
        );
    }

    // 2. Mode-switch penalty (the paper uses 1 cycle, per §V).
    println!("\nmode_switch_penalty:");
    for pen in [0u64, 1, 3] {
        let mut cfg = SimConfig::baseline();
        cfg.frontend.mode_switch_penalty = pen;
        let r = cached_suite_run(&cfg, &knobs);
        println!(
            "  penalty={pen}: speedup vs default {:+.2}%",
            geomean(&ref_base, &r)
        );
    }

    // 3. The µ-op path / decode path depth gap — the source of the µ-op
    //    cache's refill advantage. UCP's benefit should track this gap.
    println!("\ndecode_path_delay (uop path fixed at 2) — UCP gain vs same-knob baseline:");
    for delay in [3u64, 5, 8] {
        let mut b = SimConfig::baseline();
        b.frontend.decode_path_delay = delay;
        let mut u = SimConfig::ucp();
        u.frontend.decode_path_delay = delay;
        let rb = cached_suite_run(&b, &knobs);
        let ru = cached_suite_run(&u, &knobs);
        println!("  delay={delay}: UCP speedup {:+.2}%", geomean(&rb, &ru));
    }

    // 4. Alternate decoder width (paper: 6 dedicated decoders).
    println!("\nalt_decoders — UCP gain vs baseline:");
    for w in [2u32, 6] {
        let mut u = SimConfig::ucp();
        u.ucp.alt_decoders = w;
        let ru = cached_suite_run(&u, &knobs);
        println!("  width={w}: UCP speedup {:+.2}%", geomean(&ref_base, &ru));
    }

    // 5. Alt-FTQ depth (paper: 24 entries).
    println!("\nalt_ftq_entries — UCP gain vs baseline:");
    for n in [8usize, 24, 64] {
        let mut u = SimConfig::ucp();
        u.ucp.alt_ftq_entries = n;
        let ru = cached_suite_run(&u, &knobs);
        println!(
            "  entries={n}: UCP speedup {:+.2}%",
            geomean(&ref_base, &ru)
        );
    }
}
