//! `reproduce <experiment>… [flags]` — regenerate the paper's tables and
//! figures, record them (`--out`) and diff a fresh run's deterministic
//! counters against a committed record (`--compare`).
//!
//! ```text
//! cargo run --release -p unsnap-bench --bin reproduce                  # the experiment table
//! cargo run --release -p unsnap-bench --bin reproduce -- figure3 --threads 1,2,4
//! cargo run --release -p unsnap-bench --bin reproduce -- \
//!     figure3 figure4 table2 table1 --compare BENCH_38.json
//! ```
//!
//! Exit status: 0 clean, 1 on counter drift against `--compare`, 2 on a
//! command-line, I/O or refused-run error.

#![forbid(unsafe_code)]

use unsnap_bench::{HarnessOptions, USAGE};

fn main() {
    let code = match HarnessOptions::parse(std::env::args().skip(1)) {
        Ok(opts) => unsnap_bench::run(&opts),
        Err(reason) => {
            eprintln!("reproduce: {reason}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
