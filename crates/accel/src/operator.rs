//! The assembled cell-centred diffusion operator.
//!
//! Two-point flux finite volumes over the [`DiffusionTopology`]: for the
//! cell-average error `e` of group `g`,
//!
//! ```text
//! (A e)_c = (σ_t − σ_s)_c V_c e_c
//!         + Σ_{faces f: c↔n}  W_f (e_c − e_n)
//!         + Σ_{boundary f}    W_b e_c
//! ```
//!
//! with `W_f = (A_f / d_cn) · harmonic(D_c, D_n)`, `D = 1/(3 σ_t)`, and
//! homogeneous Dirichlet ghosts on boundary (and rank-cut) faces.  The
//! off-diagonal couplings are symmetric and non-positive, the diagonal
//! dominates, and every cell touches at least one boundary face chain —
//! so the operator is symmetric positive definite even in the
//! conservative limit `σ_s = σ_t`, and conjugate gradients applies.
//!
//! Groups are uncoupled (the within-group error equation is solved per
//! group); they are folded into one block-diagonal operator of dimension
//! `cells × groups` so one CG solve handles all groups at once, matching
//! how the high-order Krylov strategies span all groups with one space.

use unsnap_linalg::krylov::LinearOperator;

use crate::topology::DiffusionTopology;

/// One assembled interior coupling: cell pair plus per-group weights.
#[derive(Debug, Clone)]
struct AssembledFace {
    left: usize,
    right: usize,
    /// `W_f` per group.
    weights: Vec<f64>,
}

/// The symmetric positive definite low-order diffusion operator, applied
/// matrix-free over flat `cell × group` vectors (`index = cell · ng + g`).
#[derive(Debug, Clone)]
pub struct DiffusionOperator {
    num_cells: usize,
    num_groups: usize,
    /// Diagonal: removal + boundary + interior couplings.
    diag: Vec<f64>,
    /// Interior couplings (symmetric off-diagonal pairs).
    faces: Vec<AssembledFace>,
}

/// Harmonic mean, the standard two-point diffusion-coefficient average
/// (exact for a 1-D two-material interface).
fn harmonic(a: f64, b: f64) -> f64 {
    2.0 * a * b / (a + b)
}

impl DiffusionOperator {
    /// Assemble the operator for `ng` groups.
    ///
    /// `diffusion` and `removal` are flat `cell × group` arrays
    /// (`index = cell · ng + g`) holding `D = 1/(3σ_t)` and
    /// `σ_r = σ_t − σ_s(g→g)` respectively.
    ///
    /// # Panics
    /// If the coefficient arrays do not match `topology.num_cells · ng`,
    /// or any diffusion coefficient is non-positive.
    pub fn assemble(
        topology: &DiffusionTopology,
        ng: usize,
        diffusion: &[f64],
        removal: &[f64],
    ) -> Self {
        let n = topology.num_cells;
        assert_eq!(diffusion.len(), n * ng, "diffusion coefficient shape");
        assert_eq!(removal.len(), n * ng, "removal coefficient shape");
        assert!(
            diffusion.iter().all(|&d| d > 0.0),
            "diffusion coefficients must be positive"
        );

        let mut diag = vec![0.0f64; n * ng];
        for c in 0..n {
            let volume = topology.volumes[c];
            for g in 0..ng {
                // Removal is σ_t − σ_s ≥ 0 (zero only at c = 1).
                diag[c * ng + g] = removal[c * ng + g].max(0.0) * volume;
            }
        }
        for b in &topology.boundary {
            for g in 0..ng {
                // Marshak vacuum condition: zero incoming partial
                // current at the face gives the leakage coefficient
                // A · D / (d_b + 2D) — the P1 analogue of the vacuum
                // boundary the transport error satisfies (both iterates
                // see the same prescribed inflow, so their difference
                // sees vacuum).
                let d = diffusion[b.cell * ng + g];
                diag[b.cell * ng + g] += b.area * d / (b.distance + 2.0 * d);
            }
        }
        let faces: Vec<AssembledFace> = topology
            .faces
            .iter()
            .map(|f| {
                let weights: Vec<f64> = (0..ng)
                    .map(|g| {
                        f.geometric
                            * harmonic(diffusion[f.left * ng + g], diffusion[f.right * ng + g])
                    })
                    .collect();
                for (g, &w) in weights.iter().enumerate() {
                    diag[f.left * ng + g] += w;
                    diag[f.right * ng + g] += w;
                }
                AssembledFace {
                    left: f.left,
                    right: f.right,
                    weights,
                }
            })
            .collect();

        Self {
            num_cells: n,
            num_groups: ng,
            diag,
            faces,
        }
    }
}

impl LinearOperator for DiffusionOperator {
    fn dim(&self) -> usize {
        self.num_cells * self.num_groups
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim());
        for ((yi, &xi), &di) in y.iter_mut().zip(x.iter()).zip(self.diag.iter()) {
            *yi = di * xi;
        }
        let ng = self.num_groups;
        for f in &self.faces {
            let lb = f.left * ng;
            let rb = f.right * ng;
            for (g, &w) in f.weights.iter().enumerate() {
                y[lb + g] -= w * x[rb + g];
                y[rb + g] -= w * x[lb + g];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_mesh::{StructuredGrid, UnstructuredMesh};

    fn operator(n: usize, ng: usize, c: f64) -> DiffusionOperator {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001);
        let topo = DiffusionTopology::from_mesh(&mesh);
        let cells = topo.num_cells;
        let mut d = vec![0.0; cells * ng];
        let mut r = vec![0.0; cells * ng];
        for cell in 0..cells {
            for g in 0..ng {
                let sigma_t = 1.0 + 0.01 * g as f64;
                d[cell * ng + g] = 1.0 / (3.0 * sigma_t);
                r[cell * ng + g] = (1.0 - c) * sigma_t;
            }
        }
        DiffusionOperator::assemble(&topo, ng, &d, &r)
    }

    fn dense(op: &mut DiffusionOperator) -> Vec<Vec<f64>> {
        let n = op.dim();
        let mut cols = Vec::with_capacity(n);
        let mut x = vec![0.0; n];
        let mut y = vec![0.0; n];
        for j in 0..n {
            x[j] = 1.0;
            op.apply(&x, &mut y);
            cols.push(y.clone());
            x[j] = 0.0;
        }
        cols
    }

    #[test]
    fn operator_is_symmetric() {
        let mut op = operator(3, 2, 0.9);
        let a = dense(&mut op);
        let n = a.len();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (a[i][j] - a[j][i]).abs() < 1e-14,
                    "asymmetry at ({i}, {j}): {} vs {}",
                    a[i][j],
                    a[j][i]
                );
            }
        }
    }

    #[test]
    fn operator_is_positive_definite_even_at_c_of_one() {
        // c = 1 zeroes the removal term; the Dirichlet boundary faces
        // must keep the quadratic form strictly positive.
        let mut op = operator(3, 1, 1.0);
        let n = op.dim();
        let mut y = vec![0.0; n];
        for seed in 0..5 {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 31 + seed * 17) % 13) as f64 / 13.0 - 0.4)
                .collect();
            op.apply(&x, &mut y);
            let xtax: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            let norm: f64 = x.iter().map(|v| v * v).sum();
            assert!(xtax > 1e-12 * norm, "xᵀAx = {xtax} for ‖x‖² = {norm}");
        }
    }

    #[test]
    fn groups_are_uncoupled() {
        // A vector supported on group 0 must map to a vector supported
        // on group 0.
        let mut op = operator(2, 3, 0.5);
        let n = op.dim();
        let ng = op.num_groups;
        let mut x = vec![0.0; n];
        for cell in 0..op.num_cells {
            x[cell * ng] = 1.0 + cell as f64;
        }
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for (i, &v) in y.iter().enumerate() {
            if i % ng != 0 {
                assert_eq!(v, 0.0, "group leak at flat index {i}");
            }
        }
    }

    #[test]
    fn constant_vector_sees_removal_plus_boundary_only() {
        // A e for e ≡ 1: interior couplings cancel, leaving the removal
        // mass plus the boundary Dirichlet terms — all positive.
        let mut op = operator(3, 1, 0.9);
        let x = vec![1.0; op.dim()];
        let mut y = vec![0.0; op.dim()];
        op.apply(&x, &mut y);
        assert!(y.iter().all(|&v| v > 0.0));
    }

    #[test]
    #[should_panic(expected = "diffusion coefficient shape")]
    fn mismatched_coefficients_are_rejected() {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(2, 1.0), 0.0);
        let topo = DiffusionTopology::from_mesh(&mesh);
        let _ = DiffusionOperator::assemble(&topo, 2, &[1.0; 3], &[1.0; 16]);
    }
}
