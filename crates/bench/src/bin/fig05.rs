//! Regenerates the paper's Fig. 05 (see DESIGN.md §4).
fn main() {
    let knobs = ucp_bench::env_knobs();
    print!("{}", ucp_bench::figs::fig05(&knobs));
}
