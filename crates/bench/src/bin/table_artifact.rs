//! Regenerates the artifact-appendix UCP variant table.
fn main() {
    let knobs = ucp_bench::env_knobs();
    print!("{}", ucp_bench::figs::table_artifact(&knobs));
}
