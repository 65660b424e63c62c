//! The structured diamond-difference baseline — the spatial discretisation
//! of the original SNAP mini-app.
//!
//! §II-A and §II-C of the paper describe the finite-difference (diamond
//! difference) method that SNAP uses on its structured Cartesian grid and
//! compare its cost against the finite-element method: a single
//! multiply–add per diamond-difference relation, one unknown per cell per
//! angle per group (versus `(p+1)³` nodal unknowns for the FEM), and
//! second-order accuracy (versus third order for linear DG elements).
//!
//! This module implements that baseline so the repository can reproduce the
//! FD-versus-FEM trade-off discussion (memory footprint, work per cell) and
//! serve as an independent cross-check of the transport physics: on the
//! same problem both discretisations must converge towards the same
//! infinite-medium limits and show the same qualitative flux shapes.

use crate::angular::AngularQuadrature;
use crate::data::ProblemData;
use crate::error::Result;
use crate::problem::Problem;

/// Outcome of a diamond-difference solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FdOutcome {
    /// Inner iterations executed.
    pub inner_iterations: usize,
    /// Maximum relative scalar-flux change per inner iteration.
    pub convergence_history: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Sum of the cell scalar fluxes over all cells and groups.
    pub scalar_flux_total: f64,
    /// Maximum cell scalar flux.
    pub scalar_flux_max: f64,
    /// Minimum cell scalar flux.
    pub scalar_flux_min: f64,
    /// Wall-clock seconds in the sweep region.
    pub sweep_seconds: f64,
}

/// Diamond-difference (SNAP) solver on the structured grid of a
/// [`Problem`].
///
/// The mesh twist is ignored — the finite-difference method is only defined
/// on the regular Cartesian grid, which is exactly why the paper needed the
/// finite-element formulation for unstructured meshes.
pub struct DiamondDifferenceSolver {
    problem: Problem,
    quadrature: AngularQuadrature,
    data: ProblemData,
    /// Scalar flux per (cell, group), cell-major.
    phi: Vec<f64>,
}

impl DiamondDifferenceSolver {
    /// Build the FD solver for a problem (uses the problem's structured
    /// grid, angular quadrature, cross sections and iteration counts).
    pub fn new(problem: &Problem) -> Result<Self> {
        problem.validate()?;
        let grid = problem.grid();
        let quadrature = AngularQuadrature::product(problem.angles_per_octant);
        let centroid = |cell: usize| {
            let (i, j, k) = grid.cell_ijk(cell);
            let (dx, dy, dz) = grid.cell_widths();
            [
                (i as f64 + 0.5) * dx,
                (j as f64 + 0.5) * dy,
                (k as f64 + 0.5) * dz,
            ]
        };
        let data = ProblemData::generate(
            grid.num_cells(),
            centroid,
            [grid.lx, grid.ly, grid.lz],
            problem.num_groups,
            problem.material,
            problem.source,
        );
        Ok(Self {
            problem: problem.clone(),
            quadrature,
            data,
            phi: vec![0.0; grid.num_cells() * problem.num_groups],
        })
    }

    /// Scalar flux of `(cell, group)` after `run`.
    pub fn scalar_flux(&self, cell: usize, group: usize) -> f64 {
        self.phi[cell * self.problem.num_groups + group]
    }

    /// Number of angular-flux unknowns of the FD method (one per cell per
    /// angle per group) — 1/(p+1)³ of the FEM count on the same mesh.
    pub fn angular_flux_unknowns(&self) -> usize {
        self.problem.num_cells() * self.problem.num_groups * self.quadrature.num_angles()
    }

    /// Run the source iteration with diamond-difference sweeps.
    pub fn run(&mut self) -> Result<FdOutcome> {
        let p = &self.problem;
        let grid = p.grid();
        let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
        let (dx, dy, dz) = grid.cell_widths();
        let ng = p.num_groups;
        let ncells = grid.num_cells();

        let mut history = Vec::new();
        let mut converged = false;
        let mut inners_run = 0usize;
        let mut sweep_seconds = 0.0f64;
        let mut phi_outer = self.phi.clone();

        for _outer in 0..p.outer_iterations {
            phi_outer.copy_from_slice(&self.phi);
            for _inner in 0..p.inner_iterations {
                inners_run += 1;

                // Total source per (cell, group).
                let mut source = vec![0.0f64; ncells * ng];
                for cell in 0..ncells {
                    let mat = self.data.material(cell);
                    let q = self.data.fixed_source(cell);
                    for g in 0..ng {
                        let mut s = q;
                        for g_from in 0..ng {
                            let sigma_s = self.data.xs.scatter(mat, g_from, g);
                            if sigma_s == 0.0 {
                                continue;
                            }
                            let phi_ref = if g_from == g {
                                self.phi[cell * ng + g_from]
                            } else {
                                phi_outer[cell * ng + g_from]
                            };
                            s += sigma_s * phi_ref;
                        }
                        source[cell * ng + g] = s;
                    }
                }

                let phi_old = self.phi.clone();
                let mut phi_new = vec![0.0f64; ncells * ng];

                let t0 = std::time::Instant::now();
                for d in self.quadrature.directions() {
                    let omega = d.omega;
                    let w = d.weight;
                    // Sweep order per axis follows the direction sign.
                    let xs_range: Vec<usize> = if omega[0] > 0.0 {
                        (0..nx).collect()
                    } else {
                        (0..nx).rev().collect()
                    };
                    let ys_range: Vec<usize> = if omega[1] > 0.0 {
                        (0..ny).collect()
                    } else {
                        (0..ny).rev().collect()
                    };
                    let zs_range: Vec<usize> = if omega[2] > 0.0 {
                        (0..nz).collect()
                    } else {
                        (0..nz).rev().collect()
                    };
                    let boundary_in = 0.0_f64.max(self.problem.boundaries.face(0).incoming_flux());

                    for g in 0..ng {
                        // Incoming-face storage: x faces (ny × nz),
                        // y faces (nx × nz), z faces (nx × ny).
                        let mut in_x = vec![boundary_in; ny * nz];
                        let mut in_y = vec![boundary_in; nx * nz];
                        let mut in_z = vec![boundary_in; nx * ny];

                        let cx = 2.0 * omega[0].abs() / dx;
                        let cy = 2.0 * omega[1].abs() / dy;
                        let cz = 2.0 * omega[2].abs() / dz;

                        for &k in &zs_range {
                            for &j in &ys_range {
                                for &i in &xs_range {
                                    let cell = grid.cell_id(i, j, k);
                                    let mat = self.data.material(cell);
                                    let sigma_t = self.data.xs.total(mat, g);
                                    let psi_in_x = in_x[j + ny * k];
                                    let psi_in_y = in_y[i + nx * k];
                                    let psi_in_z = in_z[i + nx * j];
                                    let numerator = source[cell * ng + g]
                                        + cx * psi_in_x
                                        + cy * psi_in_y
                                        + cz * psi_in_z;
                                    let psi_c = numerator / (sigma_t + cx + cy + cz);
                                    // Diamond-difference closure for the
                                    // outgoing faces, with a simple negative
                                    // flux fix-up (set-to-zero) as in SNAP.
                                    let out_x = (2.0 * psi_c - psi_in_x).max(0.0);
                                    let out_y = (2.0 * psi_c - psi_in_y).max(0.0);
                                    let out_z = (2.0 * psi_c - psi_in_z).max(0.0);
                                    in_x[j + ny * k] = out_x;
                                    in_y[i + nx * k] = out_y;
                                    in_z[i + nx * j] = out_z;
                                    phi_new[cell * ng + g] += w * psi_c;
                                }
                            }
                        }
                    }
                }
                sweep_seconds += t0.elapsed().as_secs_f64();

                self.phi.copy_from_slice(&phi_new);
                let diff = phi_new
                    .iter()
                    .zip(phi_old.iter())
                    .fold(0.0f64, |m, (a, b)| {
                        m.max((a - b).abs() / b.abs().max(1e-12))
                    });
                history.push(diff);
                if p.convergence_tolerance > 0.0 && diff < p.convergence_tolerance {
                    converged = true;
                    break;
                }
            }
            if converged {
                break;
            }
        }

        let total: f64 = self.phi.iter().sum();
        let max = self.phi.iter().fold(f64::MIN, |m, &x| m.max(x));
        let min = self.phi.iter().fold(f64::MAX, |m, &x| m.min(x));
        Ok(FdOutcome {
            inner_iterations: inners_run,
            convergence_history: history,
            converged,
            scalar_flux_total: total,
            scalar_flux_max: max,
            scalar_flux_min: min,
            sweep_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_mesh::boundary::DomainBoundaries;

    #[test]
    fn fd_solver_runs_and_is_positive() {
        let mut p = Problem::tiny();
        p.inner_iterations = 4;
        let mut fd = DiamondDifferenceSolver::new(&p).unwrap();
        let out = fd.run().unwrap();
        assert_eq!(out.inner_iterations, 4);
        assert!(out.scalar_flux_total > 0.0);
        assert!(out.scalar_flux_min >= 0.0);
        assert!(out.sweep_seconds > 0.0);
    }

    #[test]
    fn fd_reaches_infinite_medium_limit_with_inflow() {
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.inner_iterations = 80;
        p.convergence_tolerance = 1e-10;
        let xs = crate::data::CrossSections::generate(1, 1);
        let psi_inf = 1.0 / (xs.total(0, 0) - xs.scatter(0, 0, 0));
        p.boundaries = DomainBoundaries::uniform_inflow(psi_inf);
        let mut fd = DiamondDifferenceSolver::new(&p).unwrap();
        let out = fd.run().unwrap();
        assert!(out.converged);
        assert!((out.scalar_flux_max - psi_inf).abs() < 1e-6);
        assert!((out.scalar_flux_min - psi_inf).abs() < 1e-6);
    }

    #[test]
    fn fd_flux_bounded_by_infinite_medium_for_vacuum() {
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.inner_iterations = 40;
        p.convergence_tolerance = 1e-9;
        let mut fd = DiamondDifferenceSolver::new(&p).unwrap();
        let out = fd.run().unwrap();
        let xs = crate::data::CrossSections::generate(1, 1);
        let psi_inf = 1.0 / (xs.total(0, 0) - xs.scatter(0, 0, 0));
        assert!(out.scalar_flux_max < psi_inf);
        assert!(out.scalar_flux_min > 0.0);
    }

    #[test]
    fn fd_memory_footprint_is_one_eighth_of_linear_fem() {
        let p = Problem::tiny();
        let fd = DiamondDifferenceSolver::new(&p).unwrap();
        assert_eq!(fd.angular_flux_unknowns() * 8, p.angular_flux_unknowns());
    }

    #[test]
    fn fd_centre_flux_exceeds_corner_flux() {
        // Leakage makes the flux peak in the middle of the domain.
        let mut p = Problem::tiny();
        p.nx = 5;
        p.ny = 5;
        p.nz = 5;
        p.num_groups = 1;
        p.inner_iterations = 30;
        p.convergence_tolerance = 1e-8;
        let grid = p.grid();
        let mut fd = DiamondDifferenceSolver::new(&p).unwrap();
        fd.run().unwrap();
        let centre = fd.scalar_flux(grid.cell_id(2, 2, 2), 0);
        let corner = fd.scalar_flux(grid.cell_id(0, 0, 0), 0);
        assert!(centre > corner);
    }

    #[test]
    fn fd_and_fem_agree_on_converged_scalar_flux_scale() {
        // The two discretisations solve the same physics; on a small,
        // optically thin problem their converged mean scalar flux should
        // agree to within a few percent.
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.inner_iterations = 50;
        p.convergence_tolerance = 1e-9;
        p.twist = 0.0;
        let mut fd = DiamondDifferenceSolver::new(&p).unwrap();
        let fd_out = fd.run().unwrap();
        let fd_mean = fd_out.scalar_flux_total / p.num_cells() as f64;

        let mut fem = crate::solver::TransportSolver::new(&p).unwrap();
        let fem_out = fem.run().unwrap();
        let fem_mean = fem_out.scalar_flux_total / (p.num_cells() * p.nodes_per_element()) as f64;

        let rel = (fd_mean - fem_mean).abs() / fem_mean;
        assert!(
            rel < 0.05,
            "FD mean {fd_mean} vs FEM mean {fem_mean} differ by {rel:.3}"
        );
    }
}
