//! Two-point correlation function of a clustered field — the
//! "n-point correlation" cosmology workload, computed by tree pair
//! counting with the Peebles–Hauser estimator.
//!
//! ```text
//! cargo run --release --example two_point_correlation -- [n] [bins]
//! ```

use paratreet::core_api::Configuration;
use paratreet_apps::correlation::{two_point_correlation, SeparationBins};
use paratreet_particles::gen;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let n_bins: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);

    let data = gen::clustered(n, 5, 11, 1.0, 1.0);
    let random = gen::uniform_cube(n, 997, 1.0, 1.0);
    let bins = SeparationBins::logarithmic(0.01, 1.0, n_bins);
    let config =
        Configuration { bucket_size: 16, n_subtrees: 8, n_partitions: 8, ..Default::default() };

    let xi = two_point_correlation(data, random, &bins, config);

    println!("two-point correlation of a {n}-particle clustered field");
    println!("{:>10} {:>12}", "r", "xi(r)");
    for (c, v) in bins.centers().iter().zip(&xi) {
        let bar_len = ((v.max(0.0).ln_1p() * 8.0) as usize).min(40);
        println!("{c:>10.4} {v:>12.3}  {}", "#".repeat(bar_len));
    }
    println!("\nclustered fields correlate strongly at small separations (ξ ≫ 0)");
    println!("and decorrelate at the box scale (ξ → 0) — exactly what the curve shows.");
}
