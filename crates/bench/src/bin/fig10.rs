//! Regenerates the paper's Fig. 10 (see DESIGN.md §4).
fn main() {
    let knobs = ucp_bench::env_knobs();
    print!("{}", ucp_bench::figs::fig10(&knobs));
}
