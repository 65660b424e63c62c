//! Wall-clock scaling of the real worker pool: assemble/solve time and
//! speedup at 1/2/4/8 threads for the six Figure 3/4 concurrency schemes
//! plus the angle-threaded default.
//!
//! ```text
//! cargo run --release -p unsnap-bench --bin scaling_threads \
//!     [-- --threads 1,2,4,8] [--full] [--figure4] [--quick] [--csv]
//! ```
//!
//! Until the `rayon` stand-in grew a worker pool, every scheme was a pure
//! ordering and this table would have been flat at 1.00x; it now measures
//! genuine parallel speedup.  `--quick` shrinks the problem for CI smoke
//! runs, `--figure4` switches to cubic elements.  Note that the
//! `RAYON_NUM_THREADS` override forces every pool to one width and makes
//! the sweep meaningless — leave it unset here.

use unsnap_bench::{
    emit_scaling_metrics, print_header, run_scaling_experiment, scaling_csv, HarnessOptions,
};
use unsnap_core::problem::Problem;
use unsnap_sweep::ConcurrencyScheme;

fn main() {
    let opts = HarnessOptions::from_args();
    let cubic = std::env::args().any(|a| a == "--figure4");
    let base = match (opts.quick, cubic, opts.full) {
        (true, false, _) => Problem::figure3_scaled()
            .with_mesh(4)
            .with_phase_space(4, 8),
        (true, true, _) => Problem::figure4_scaled()
            .with_mesh(3)
            .with_phase_space(4, 4),
        (false, false, false) => Problem::figure3_scaled(),
        (false, false, true) => Problem::figure3_full(),
        (false, true, false) => Problem::figure4_scaled(),
        (false, true, true) => Problem::figure4_full(),
    };
    let threads = opts.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let mut schemes = ConcurrencyScheme::figure_schemes();
    // The seventh row: one fork per sweep instead of one per bucket.
    schemes.push(ConcurrencyScheme::best());

    if !opts.csv {
        print_header(
            if cubic {
                "Thread scaling of the worker pool — Figure 4 problem (cubic elements)"
            } else {
                "Thread scaling of the worker pool — Figure 3 problem (linear elements)"
            },
            &base,
            opts.full,
        );
    }
    let points = run_scaling_experiment(&base, &threads, &schemes);
    // Both shapes merge into one trajectory: the bin tag tells them apart.
    let bin = if cubic {
        "scaling_threads/figure4"
    } else {
        "scaling_threads/figure3"
    };
    emit_scaling_metrics(&opts, bin, base.strategy, &points);
    if opts.csv {
        print!("{}", scaling_csv(&points));
        return;
    }

    // Speedup table relative to the first (narrowest) thread count.
    let baseline_threads = threads[0];
    println!(
        "{:<28} {}",
        "scheme \\ threads",
        threads
            .iter()
            .map(|t| format!("{t:>16}"))
            .collect::<String>()
    );
    let mut labels: Vec<String> = points.iter().map(|p| p.scheme.clone()).collect();
    labels.dedup();
    let mut angle_parallel_speedup_at_4 = None;
    for label in &labels {
        let baseline = points
            .iter()
            .find(|p| &p.scheme == label && p.threads == baseline_threads)
            .expect("baseline point")
            .seconds;
        print!("{label:<28}");
        for &t in &threads {
            let p = points
                .iter()
                .find(|p| &p.scheme == label && p.threads == t)
                .expect("point exists");
            let speedup = baseline / p.seconds;
            print!("{:>9.3}s {:>4.2}x", p.seconds, speedup);
            if t == 4 && label.starts_with("angle*") {
                angle_parallel_speedup_at_4 = Some(speedup);
            }
        }
        println!();
    }
    println!();
    if let Some(speedup) = angle_parallel_speedup_at_4 {
        println!(
            "angle-parallel scheme at 4 threads: {speedup:.2}x vs {baseline_threads} \
             (acceptance floor: 1.5x on a release build)"
        );
    }
    println!(
        "Every scheme is bit-for-bit deterministic across widths.  The six element/group \
         rows fork per wavefront bucket (the paper's subject); the angle* row forks once \
         per sweep and reduces the scalar flux afterwards, in ascending angle order."
    );
}
