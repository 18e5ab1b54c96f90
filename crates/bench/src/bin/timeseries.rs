//! Writes per-workload interval time-series CSVs (see DESIGN.md §7).
fn main() {
    let knobs = ucp_bench::env_knobs();
    print!("{}", ucp_bench::figs::timeseries(&knobs));
}
