//! The fixed 30-workload suite used by every experiment.
//!
//! Mirrors the CVP-1 population the paper evaluates: a majority of
//! datacenter/server workloads with very large code footprints and *flat*
//! execution profiles (little loop reuse, so the µ-op cache is genuinely
//! oversubscribed), plus integer, FP and crypto workloads with
//! progressively smaller footprints and loopier behaviour. Names, seeds and
//! parameters are fixed so every figure harness sees the same deterministic
//! population.

use crate::gen::{Category, CondMix, WorkloadSpec};

fn base(name: String, category: Category, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name,
        category,
        seed,
        num_funcs: 64,
        stmts_per_func: (6, 14),
        block_len: (4, 10),
        call_milli: 140,
        indirect_call_milli: 80,
        loop_milli: 120,
        if_milli: 420,
        loop_trip: (2, 8),
        variable_trip_milli: 350,
        cond_mix: CondMix {
            easy_milli: 700,
            pattern_milli: 130,
            correlated_milli: 90,
        },
        hard_prob_range: (250, 750),
        easy_bias_milli: 970,
        driver_sites: 12,
        zipf_centi: 80,
        data_span_kb: 128,
        mem_milli: 300,
        store_milli: 300,
        random_mem_milli: 250,
        fp_milli: 40,
        mul_milli: 60,
        div_milli: 4,
        dispatch_milli: 250,
        dispatch_fanout: (4, 10),
    }
}

/// Datacenter/server-class workload: hundreds of functions, hundreds of KB
/// of hot code, flat profiles, deep call chains. The µ-op cache hit rate
/// spans roughly 30–90% across the population, as in the paper's Fig. 3.
fn server(i: usize) -> WorkloadSpec {
    let seed = 0x5EB0_0000 + i as u64;
    let mut s = base(format!("srv{i:02}"), Category::Server, seed);
    // Footprints from ~200 KB to ~900 KB across the server population.
    s.num_funcs = 350 + i * 60;
    s.stmts_per_func = (10, 22);
    s.block_len = (4, 11);
    // Flat profile: many calls, few short loops.
    s.call_milli = 110;
    s.indirect_call_milli = 110;
    s.loop_milli = 50 + (i as u16 % 3) * 15;
    s.loop_trip = (2, 5);
    s.variable_trip_milli = 120;
    s.dispatch_milli = 380;
    s.dispatch_fanout = (8 + i as u32, 16 + i as u32 * 2);
    s.if_milli = 430;
    s.driver_sites = 18 + i * 2;
    // Lower skew = wider instruction footprint per unit time.
    s.zipf_centi = 30 + (i as u32 % 5) * 15;
    s.cond_mix = CondMix {
        easy_milli: 800 + (i as u16 % 4) * 10,
        pattern_milli: 80,
        correlated_milli: 70,
    };
    s.hard_prob_range = (250, 750);
    s.easy_bias_milli = 985;
    s.data_span_kb = 256;
    s.random_mem_milli = 350;
    s
}

/// Integer workload: moderate footprint, loop-heavy with hard branches.
fn int(i: usize) -> WorkloadSpec {
    let seed = 0x1277_0000 + i as u64;
    let mut s = base(format!("int{i:02}"), Category::Int, seed);
    s.num_funcs = 60 + i * 30;
    s.stmts_per_func = (8, 16);
    s.call_milli = 130;
    s.loop_milli = 140;
    s.loop_trip = (3, 9);
    s.variable_trip_milli = 150;
    s.zipf_centi = 50;
    s.driver_sites = 12 + i;
    s.cond_mix = CondMix {
        easy_milli: 760,
        pattern_milli: 110,
        correlated_milli: 70,
    };
    s.easy_bias_milli = 980;
    s.hard_prob_range = (300, 700);
    s
}

/// FP workload: small footprint, long predictable loops, FP latencies.
fn fp(i: usize) -> WorkloadSpec {
    let seed = 0xF900_0000 + i as u64;
    let mut s = base(format!("fp{i:02}"), Category::Fp, seed);
    s.num_funcs = 18 + i * 6;
    s.stmts_per_func = (5, 10);
    s.loop_milli = 320;
    s.loop_trip = (16, 80);
    s.variable_trip_milli = 60;
    s.cond_mix = CondMix {
        easy_milli: 870,
        pattern_milli: 80,
        correlated_milli: 30,
    };
    s.fp_milli = 450;
    s.dispatch_milli = 80;
    s.dispatch_fanout = (2, 4);
    s.mul_milli = 120;
    s.mem_milli = 380;
    s.random_mem_milli = 80;
    s.indirect_call_milli = 20;
    s
}

/// Crypto workload: tiny hot loops, high ILP, almost no hard branches.
fn crypto(i: usize) -> WorkloadSpec {
    let seed = 0xC0DE_0000 + i as u64;
    let mut s = base(format!("crypto{i:02}"), Category::Crypto, seed);
    s.num_funcs = 10 + i * 4;
    s.stmts_per_func = (4, 9);
    s.block_len = (6, 14);
    s.loop_milli = 340;
    s.loop_trip = (8, 64);
    s.variable_trip_milli = 40;
    s.dispatch_milli = 60;
    s.dispatch_fanout = (2, 3);
    s.cond_mix = CondMix {
        easy_milli: 900,
        pattern_milli: 70,
        correlated_milli: 10,
    };
    s.mul_milli = 180;
    s.mem_milli = 240;
    s.random_mem_milli = 60;
    s.indirect_call_milli = 10;
    s.zipf_centi = 40;
    s
}

/// The full 30-workload evaluation suite (14 server, 8 int, 2 fp, 6 crypto),
/// echoing the CVP-1 category proportions with datacenter traces dominating.
pub fn workload_suite() -> Vec<WorkloadSpec> {
    let mut v = Vec::with_capacity(30);
    for i in 0..14 {
        v.push(server(i));
    }
    for i in 0..8 {
        v.push(int(i));
    }
    for i in 0..2 {
        v.push(fp(i));
    }
    for i in 0..6 {
        v.push(crypto(i));
    }
    v
}

/// A reduced 8-workload suite for quick runs (CI smoke figures, the
/// `quick` profile): 4 server, 2 int, 1 fp, 1 crypto.
pub fn quick_suite() -> Vec<WorkloadSpec> {
    vec![
        server(0),
        server(4),
        server(8),
        server(12),
        int(1),
        int(5),
        fp(0),
        crypto(2),
    ]
}

/// Looks a workload up by name in the full suite.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    workload_suite().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_has_30_unique_names_and_seeds() {
        let suite = workload_suite();
        assert_eq!(suite.len(), 30);
        let names: HashSet<_> = suite.iter().map(|s| s.name.clone()).collect();
        let seeds: HashSet<_> = suite.iter().map(|s| s.seed).collect();
        assert_eq!(names.len(), 30);
        assert_eq!(seeds.len(), 30);
    }

    #[test]
    fn quick_suite_is_subset_of_full() {
        let full: HashSet<_> = workload_suite().into_iter().map(|s| s.name).collect();
        for s in quick_suite() {
            assert!(full.contains(&s.name), "{} not in full suite", s.name);
        }
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("srv03").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn server_footprints_oversubscribe_uop_cache() {
        // A 4Kops µ-op cache reaches 16 KB of code; server workloads must
        // exceed that by an order of magnitude.
        let p = server(0).build();
        assert!(
            p.footprint_bytes() > 160 * 1024,
            "srv00 footprint only {} bytes",
            p.footprint_bytes()
        );
    }

    #[test]
    fn crypto_footprints_are_small() {
        let p = crypto(0).build();
        assert!(
            p.footprint_bytes() < 64 * 1024,
            "crypto00 footprint {} bytes",
            p.footprint_bytes()
        );
    }

    #[test]
    fn all_specs_build_and_validate() {
        for s in workload_suite() {
            let p = s.build();
            p.validate();
            assert!(p.len() > 100, "{} too small", s.name);
        }
    }
}
