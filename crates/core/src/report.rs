//! Table I data and small reporting helpers shared by the examples and the
//! `reproduce` harness.

use unsnap_fem::element::{local_matrix_footprint_bytes, nodes_for_order};

use crate::solver::SolveOutcome;

/// One row of Table I of the paper: the size of the local matrix for a
/// finite-element order and its FP64 footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Finite-element order.
    pub order: usize,
    /// Local matrix dimension, `(order + 1)³`.
    pub matrix_size: usize,
    /// FP64 footprint of the matrix in kilobytes.
    pub footprint_kb: f64,
}

/// Generate Table I for orders `1..=max_order`.
pub fn table1(max_order: usize) -> Vec<Table1Row> {
    (1..=max_order)
        .map(|order| Table1Row {
            order,
            matrix_size: nodes_for_order(order),
            footprint_kb: local_matrix_footprint_bytes(order) as f64 / 1024.0,
        })
        .collect()
}

/// Render Table I as fixed-width text matching the layout of the paper.
pub fn table1_text(max_order: usize) -> String {
    let mut out = String::from("Order  Matrix size   FP64 footprint (kB)\n");
    for row in table1(max_order) {
        out.push_str(&format!(
            "{:>5}  {:>4} x {:<4}  {:>10.1}\n",
            row.order, row.matrix_size, row.matrix_size, row.footprint_kb
        ));
    }
    out
}

/// One-line iteration summary of a solve — single-domain or block-Jacobi
/// (whose counters are sums over ranks) — including the Krylov counters
/// when the run used a Krylov strategy.
pub fn iteration_summary(outcome: &SolveOutcome) -> String {
    let mut out = format!(
        "{} in {} sweeps ({} inner iterations)",
        if outcome.converged {
            "converged"
        } else {
            "NOT converged"
        },
        outcome.sweep_count,
        outcome.inner_iterations,
    );
    if outcome.krylov_iterations > 0 {
        out.push_str(&format!(
            ", {} Krylov iterations",
            outcome.krylov_iterations
        ));
        // A block-Jacobi outcome keeps counters only: per-rank residual
        // trajectories stream through the observer.
        if let Some(final_residual) = outcome.krylov_residual_history.last() {
            out.push_str(&format!(", final residual {final_residual:.2e}"));
        }
    }
    out
}

/// A short description of the machine the benchmark ran on, recorded in the
/// harness output so results can be compared against the paper's dual-socket
/// 56-core Skylake node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Number of logical CPUs visible to the process.
    pub logical_cpus: usize,
    /// Operating system family.
    pub os: String,
    /// CPU architecture.
    pub arch: String,
}

impl MachineInfo {
    /// Detect the current machine.
    pub fn detect() -> Self {
        Self {
            logical_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }

    /// Thread counts to sweep for the Figure 3/4 scaling study: powers of
    /// two (plus the full count) capped at the available CPUs, mirroring
    /// the paper's 1 · 2 · 4 · 8 · 14 · 28 · 56 series on its 56-core node.
    pub fn thread_sweep(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        let mut t = 1;
        while t < self.logical_cpus {
            counts.push(t);
            t *= 2;
        }
        counts.push(self.logical_cpus);
        counts.dedup();
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_values() {
        let rows = table1(5);
        assert_eq!(rows.len(), 5);
        let expected = [
            (1usize, 8usize, 0.5f64),
            (2, 27, 5.7),
            (3, 64, 32.0),
            (4, 125, 122.1),
            (5, 216, 364.5),
        ];
        for (row, (order, size, kb)) in rows.iter().zip(expected.iter()) {
            assert_eq!(row.order, *order);
            assert_eq!(row.matrix_size, *size);
            assert!(
                (row.footprint_kb - kb).abs() < 0.06,
                "order {order}: {} vs {kb}",
                row.footprint_kb
            );
        }
    }

    #[test]
    fn table1_text_contains_all_rows() {
        let text = table1_text(5);
        assert!(text.contains("216 x 216"));
        assert!(text.contains("8 x 8"));
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn iteration_summary_mentions_krylov_only_when_used() {
        let mut outcome = SolveOutcome {
            inner_iterations: 12,
            outer_iterations: 1,
            sweep_count: 12,
            krylov_iterations: 0,
            krylov_residual_history: Vec::new(),
            accel_cg_iterations: 0,
            accel_residual_history: Vec::new(),
            converged: true,
            convergence_history: vec![0.1, 0.01],
            assemble_solve_seconds: 0.0,
            kernel_assemble_seconds: 0.0,
            kernel_solve_seconds: 0.0,
            kernel_invocations: 0,
            scalar_flux_total: 1.0,
            scalar_flux_max: 1.0,
            scalar_flux_min: 0.0,
            metrics: crate::metrics::RunMetrics::default(),
            trace: Default::default(),
            ranks: None,
        };
        let text = iteration_summary(&outcome);
        assert!(text.contains("converged in 12 sweeps"));
        assert!(!text.contains("Krylov"));

        outcome.krylov_iterations = 9;
        outcome.krylov_residual_history = vec![1.0, 1e-9];
        outcome.sweep_count = 12;
        let text = iteration_summary(&outcome);
        assert!(text.contains("9 Krylov iterations"));
        assert!(text.contains("1.00e-9"));
    }

    #[test]
    fn machine_info_detects_something() {
        let m = MachineInfo::detect();
        assert!(m.logical_cpus >= 1);
        assert!(!m.os.is_empty());
        assert!(!m.arch.is_empty());
        let sweep = m.thread_sweep();
        assert!(!sweep.is_empty());
        assert_eq!(*sweep.first().unwrap(), 1);
        assert_eq!(*sweep.last().unwrap(), m.logical_cpus);
        // Strictly increasing.
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }
}
