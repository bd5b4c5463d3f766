//! Ablations beyond the paper: trunk width, the Eq. (1) α factor, seed
//! sensitivity and VM lifetimes — each varies one design choice the paper
//! fixes.

use criterion::Criterion;
use risa_sim::experiments;

fn main() {
    println!("{}", experiments::ablation_trunk_width(7, &[1, 2, 4, 8]));
    println!("{}", experiments::ablation_alpha(7, &[0.5, 0.7, 0.9, 1.0]));
    println!("{}", experiments::ablation_seeds(&[1, 2, 3, 4, 5], 1200));
    println!("{}", experiments::ablation_lifetimes(7, 1200));
    println!(
        "{}",
        experiments::fig5_seed_sweep(&[1, 2, 3, 4, 5, 6, 7, 8], 1200)
    );

    // No kernel benchmark here — the tables above are the artifact — but
    // keep Criterion's argument handling so `cargo bench ablation` works
    // uniformly.
    let c = Criterion::default().configure_from_args();
    c.final_summary();
}
