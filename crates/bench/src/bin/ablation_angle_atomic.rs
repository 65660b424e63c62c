//! Ablation (§IV-A.3 of the paper): threading over **angles**.  The paper
//! threads the angles of an octant around an atomic/critical scalar-flux
//! update and finds it does not scale — the runtime *increases* with the
//! thread count — so it threads the element × group loops of a wavefront
//! bucket instead.  UnSNAP stores the full angular flux anyway (Table I),
//! so here every angle owns a slab of ψ, one parallel region spans the
//! whole sweep, and φ is reduced afterwards in a fixed order: no atomic,
//! and bit-for-bit the same flux at every width.
//!
//! ```text
//! cargo run --release -p unsnap-bench --bin ablation_angle_atomic \
//!     [-- --threads 1,2,4] [--quick] [--csv]
//! ```
//!
//! The harness runs that scheme (`angle*/element/group`, the repository
//! default) beside the paper's winner (`angle/element*/group*`, one
//! parallel region per bucket) across the same thread counts.

use unsnap_bench::{
    emit_scaling_metrics, print_header, run_scaling_experiment, scaling_csv, scaling_table,
    HarnessOptions,
};
use unsnap_core::problem::Problem;
use unsnap_sweep::{ConcurrencyScheme, LoopOrder, ThreadedLoops};

fn main() {
    let opts = HarnessOptions::from_args();
    let mut base = if opts.full {
        Problem::figure3_full()
    } else {
        Problem::figure3_scaled()
    };
    // Few groups and many angles: small buckets, where a fork per bucket
    // costs the most against the work it spreads.
    if !opts.full {
        base.angles_per_octant = 8;
        base.num_groups = 8;
    }
    if opts.quick {
        base = base.with_mesh(4);
    }
    let threads = opts.thread_sweep();
    let schemes = [
        ConcurrencyScheme::angle_threaded(LoopOrder::ElementThenGroup),
        ConcurrencyScheme::new(LoopOrder::ElementThenGroup, ThreadedLoops::Collapsed),
    ];

    if !opts.csv {
        print_header(
            "Ablation — angle-threaded sweep (ordered reduction) vs the paper's per-bucket threading",
            &base,
            opts.full,
        );
    }
    let points = run_scaling_experiment(&base, &threads, &schemes);
    emit_scaling_metrics(&opts, "ablation_angle_atomic", base.strategy, &points);
    if opts.csv {
        print!("{}", scaling_csv(&points));
    } else {
        print!("{}", scaling_table(&points, &threads));
        println!();
        println!(
            "Paper finding: threading over angles around an atomic (or critical) \
             scalar-flux update did not scale — the runtime rose with the thread count — \
             so Figures 3 and 4 thread the element/group loops inside each bucket (the \
             element*/group* row).  Here the reduction runs after the sweep, over the \
             stored angular flux, in ascending angle order: the angle* row forks once per \
             sweep instead of once per bucket, needs no atomic, and should fall with the \
             thread count at least as fast as the row below it."
        );
    }
}
