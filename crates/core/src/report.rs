//! Table I data and small reporting helpers shared by the examples and the
//! benchmark binaries.

use serde::{Deserialize, Serialize};

use unsnap_fem::element::{local_matrix_footprint_bytes, nodes_for_order};

use crate::solver::SolveOutcome;

/// One row of Table I of the paper: the size of the local matrix for a
/// finite-element order and its FP64 footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// One row of the three-way acceleration ablation (`ablation_dsa`): the
/// sweeps SI, DSA-SI and sweep-preconditioned GMRES each needed at one
/// scattering ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelAblationRow {
    /// Within-group scattering ratio `c` of the scenario.
    pub scattering_ratio: f64,
    /// Sweeps source iteration needed.
    pub si_sweeps: usize,
    /// Sweeps DSA-accelerated source iteration needed.
    pub dsa_sweeps: usize,
    /// Sweeps the GMRES strategy needed (incl. RHS/consistency sweeps).
    pub gmres_sweeps: usize,
    /// Low-order CG iterations the DSA runs spent (not sweeps).
    pub dsa_cg_iterations: usize,
    /// Whether each strategy met the tolerance within its budget, in
    /// (SI, DSA-SI, GMRES) order.
    pub converged: [bool; 3],
    /// Relative difference of the DSA-SI flux total against SI.
    pub dsa_flux_rel_diff: f64,
    /// Relative difference of the GMRES flux total against SI.
    pub gmres_flux_rel_diff: f64,
}

impl AccelAblationRow {
    /// Sweep-count ratio SI / DSA-SI (the DSA acceleration factor).
    pub fn dsa_speedup(&self) -> f64 {
        if self.dsa_sweeps == 0 {
            0.0
        } else {
            self.si_sweeps as f64 / self.dsa_sweeps as f64
        }
    }

    /// Sweep-count ratio SI / GMRES.
    pub fn gmres_speedup(&self) -> f64 {
        if self.gmres_sweeps == 0 {
            0.0
        } else {
            self.si_sweeps as f64 / self.gmres_sweeps as f64
        }
    }
}

/// Render the three-way acceleration ablation as fixed-width text.
pub fn accel_table_text(rows: &[AccelAblationRow]) -> String {
    let mut out = String::from(
        "     c   SI sweeps  DSA sweeps  GMRES sweeps  DSA speedup  GMRES speedup  \
         DSA CG its\n",
    );
    for row in rows {
        let mark = |converged: bool| if converged { ' ' } else { '!' };
        out.push_str(&format!(
            "{:>6.3}  {:>9}{} {:>10}{} {:>12}{} {:>11.1}  {:>13.1}  {:>10}\n",
            row.scattering_ratio,
            row.si_sweeps,
            mark(row.converged[0]),
            row.dsa_sweeps,
            mark(row.converged[1]),
            row.gmres_sweeps,
            mark(row.converged[2]),
            row.dsa_speedup(),
            row.gmres_speedup(),
            row.dsa_cg_iterations,
        ));
    }
    out
}

/// One row of the source-iteration-versus-GMRES ablation: how many
/// sweeps each strategy needed at one scattering ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyAblationRow {
    /// Within-group scattering ratio `c` of the scenario.
    pub scattering_ratio: f64,
    /// Sweeps source iteration needed (its inner-iteration count).
    pub si_sweeps: usize,
    /// Sweeps the GMRES strategy needed (including RHS/consistency
    /// sweeps).
    pub gmres_sweeps: usize,
    /// Whether source iteration met the tolerance within its budget.
    pub si_converged: bool,
    /// Whether GMRES met the tolerance within its budget.
    pub gmres_converged: bool,
    /// Relative difference of the two scalar-flux totals.
    pub flux_rel_diff: f64,
}

impl StrategyAblationRow {
    /// Sweep-count ratio SI / GMRES (the acceleration factor).
    pub fn speedup(&self) -> f64 {
        if self.gmres_sweeps == 0 {
            0.0
        } else {
            self.si_sweeps as f64 / self.gmres_sweeps as f64
        }
    }
}

/// Render the SI-versus-GMRES ablation as fixed-width text.
pub fn strategy_table_text(rows: &[StrategyAblationRow]) -> String {
    let mut out = String::from("    c   SI sweeps  GMRES sweeps  speedup  flux rel diff\n");
    for row in rows {
        let mark = |converged: bool| if converged { ' ' } else { '!' };
        out.push_str(&format!(
            "{:>5.2}  {:>9}{} {:>12}{} {:>8.1}  {:>13.2e}\n",
            row.scattering_ratio,
            row.si_sweeps,
            mark(row.si_converged),
            row.gmres_sweeps,
            mark(row.gmres_converged),
            row.speedup(),
            row.flux_rel_diff,
        ));
    }
    out
}

/// Format a duration in seconds with sensible precision for tables.
pub fn format_seconds(seconds: f64) -> String {
    if seconds >= 100.0 {
        format!("{seconds:.1}")
    } else if seconds >= 1.0 {
        format!("{seconds:.2}")
    } else {
        format!("{seconds:.4}")
    }
}

/// A short description of the machine the benchmark ran on, recorded in the
/// harness output so results can be compared against the paper's dual-socket
/// 56-core Skylake node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    fn strategy_table_lists_all_rows_and_flags_nonconvergence() {
        let rows = [
            StrategyAblationRow {
                scattering_ratio: 0.5,
                si_sweeps: 40,
                gmres_sweeps: 10,
                si_converged: true,
                gmres_converged: true,
                flux_rel_diff: 1e-10,
            },
            StrategyAblationRow {
                scattering_ratio: 0.99,
                si_sweeps: 1000,
                gmres_sweeps: 25,
                si_converged: false,
                gmres_converged: true,
                flux_rel_diff: 2e-6,
            },
        ];
        assert!((rows[0].speedup() - 4.0).abs() < 1e-12);
        let text = strategy_table_text(&rows);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("0.99"));
        assert!(
            text.contains("1000!"),
            "non-converged rows are flagged: {text}"
        );
    }

    #[test]
    fn accel_table_lists_all_rows_and_speedups() {
        let rows = [AccelAblationRow {
            scattering_ratio: 0.99,
            si_sweeps: 1200,
            dsa_sweeps: 40,
            gmres_sweeps: 30,
            dsa_cg_iterations: 500,
            converged: [false, true, true],
            dsa_flux_rel_diff: 1e-7,
            gmres_flux_rel_diff: 2e-8,
        }];
        assert!((rows[0].dsa_speedup() - 30.0).abs() < 1e-12);
        assert!((rows[0].gmres_speedup() - 40.0).abs() < 1e-12);
        let text = accel_table_text(&rows);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("0.990"));
        assert!(text.contains("1200!"), "unconverged SI is flagged: {text}");
        assert!(text.contains("DSA CG its"));
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(format_seconds(1426.98), "1427.0");
        assert_eq!(format_seconds(4.29), "4.29");
        assert_eq!(format_seconds(0.01234), "0.0123");
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
