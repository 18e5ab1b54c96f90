//! Regenerates the paper's Fig. 16 (see DESIGN.md §4).
fn main() {
    let knobs = ucp_bench::env_knobs();
    print!("{}", ucp_bench::figs::fig16(&knobs));
}
