//! Loop-ordering / concurrency-scheme study (a miniature of Figures 3
//! and 4 of the paper).
//!
//! ```text
//! cargo run --release --example loop_ordering_study [-- <threads,...>]
//! ```
//!
//! Runs the scaled-down Figure-3 problem under each of the six concurrency
//! schemes (loop order × which loops are threaded, with the matching data
//! layouts) for a sweep of thread counts, and prints the assemble/solve
//! time of each combination.  The full-size experiment lives in
//! `unsnap-bench` (`cargo run --release -p unsnap-bench --bin reproduce -- figure3`).

use unsnap::prelude::*;

fn main() {
    let threads: Vec<usize> = std::env::args()
        .nth(1)
        .map(|arg| {
            arg.split(',')
                .filter_map(|t| t.parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| {
            let machine = report::MachineInfo::detect();
            machine.thread_sweep()
        });

    let base = Problem::figure3_scaled();
    println!("Loop-ordering study (scaled Figure 3 problem)");
    println!(
        "mesh {}^3, {} angles/octant, {} groups, order {}",
        base.nx, base.angles_per_octant, base.num_groups, base.element_order
    );
    println!();
    println!("{:<28} assemble/solve seconds per thread count", "scheme");
    print!("{:<28}", "");
    for t in &threads {
        print!(" {t:>9}");
    }
    println!();

    for scheme in ConcurrencyScheme::figure_schemes() {
        print!("{:<28}", scheme.label());
        for &t in &threads {
            let mut session = Session::new(&base.clone().with_scheme(scheme).with_threads(t))
                .expect("valid problem");
            let outcome = session.run().expect("solve");
            print!(" {:>9.3}", outcome.assemble_solve_seconds);
        }
        println!();
    }

    println!();
    println!(
        "(The paper's conclusion: at high thread counts the angle/element*/group* \
         scheme — threading the collapsed element x group space with the group \
         index fastest in memory — is fastest; see Figures 3 and 4.)"
    );
}
