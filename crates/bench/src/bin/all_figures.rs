//! Regenerates every table and figure in paper order.
fn main() {
    let knobs = ucp_bench::env_knobs();
    print!("{}", ucp_bench::figs::all(&knobs));
}
