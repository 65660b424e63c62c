//! The DSA accelerator: restriction/prolongation glue between the
//! high-order DG flux storage and the low-order diffusion solver of
//! `unsnap-accel`.
//!
//! The low-order error equation lives on *cell averages* — one unknown
//! per (cell, group) — while the transport flux carries `(p + 1)³` nodal
//! values per cell.  The [`DsaAccelerator`] owns the standard
//! restriction/prolongation pair for that gap:
//!
//! * **restriction** integrates the nodal sweep residual
//!   `σ_s (φ^{l+1/2} − φ^l)` over each cell with the element mass-matrix
//!   row sums (`∫ φ_i dV`, the Lagrange quadrature weights), yielding
//!   the finite-volume right-hand side;
//! * the **low-order solve** runs the SPD diffusion operator of
//!   [`unsnap_accel`] through CG (with reused
//!   [`CgWorkspace`](unsnap_linalg::krylov::CgWorkspace) buffers), streaming
//!   every residual as a
//!   [`SolveEvent::AccelResidual`];
//! * **prolongation** adds the cell-wise correction to every node of the
//!   cell (constant prolongation — the exact adjoint of the integral
//!   restriction for a partition-of-unity basis).
//!
//! One accelerator is built lazily per
//! [`SweepDomain`](crate::domain::SweepDomain): the single-domain
//! solver's covers the whole mesh; each block-Jacobi rank's covers its
//! own cells with Dirichlet-zero coupling at cut faces (see
//! [`DiffusionTopology::from_mesh_subset`](unsnap_accel::DiffusionTopology::from_mesh_subset)).
//! Everything is sequential, so corrections are bit-for-bit identical at
//! every thread count.

use unsnap_accel::{DiffusionOperator, DiffusionTopology, DsaConfig, DsaSolver};
use unsnap_fem::element::ReferenceElement;
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::{ElementIntegrals, IntegralStore};
use unsnap_mesh::UnstructuredMesh;

use crate::data::ProblemData;
use crate::error::Result;
use crate::layout::FluxLayout;
use crate::session::{Lane, RunObserver, SolveEvent};
use crate::solver::RunStats;

/// Dimensionless coefficient of the `(σ_t h)²` thick-cell inflation of
/// the diffusion coefficient (see the comment in
/// `DsaAccelerator::new`).  Chosen empirically: large enough that
/// DSA-SI never diverges on optically thick cells (the bare
/// inconsistent scheme diverges for `σ_t h ≳ 3`), small enough that the
/// `σ_t h ≈ 1` regime keeps its full acceleration.
pub(crate) const THICK_CELL_STABILISATION: f64 = 0.0625;

/// Restriction/prolongation glue plus the owned low-order solver; see
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct DsaAccelerator {
    solver: DsaSolver,
    /// Layout of the scalar-flux slices this accelerator corrects
    /// (`num_elements` local cells).
    layout: FluxLayout,
    /// Within-group scattering `σ_s(g → g)` per (local cell, group),
    /// cell-major.
    sigma_s: Vec<f64>,
    /// Nodal integration weights `∫ φ_i dV` per local cell, cell-major
    /// (`cell · nodes + i`).
    node_weights: Vec<f64>,
    /// Low-order right-hand side scratch (`cells × groups`).
    rhs: Vec<f64>,
}

impl DsaAccelerator {
    /// Build the accelerator for the local cells `cells` (global mesh
    /// ids, in local order) of `mesh`, reading each cell's mass matrix from
    /// its block of the solver's `integrals` (indexed by *global* cell id).
    ///
    /// `layout` describes the scalar-flux slices that will be corrected
    /// (its `num_elements` must equal `cells.len()`).
    pub(crate) fn new(
        mesh: &UnstructuredMesh,
        cells: &[usize],
        integrals: &IntegralStore,
        data: &ProblemData,
        layout: FluxLayout,
        config: DsaConfig,
    ) -> Self {
        assert_eq!(layout.num_elements, cells.len(), "layout/cell mismatch");
        assert_eq!(layout.num_angles, 1, "scalar layout expected");
        let ng = layout.num_groups;
        let nodes = layout.nodes_per_element;

        let topology = DiffusionTopology::from_mesh_subset(mesh, cells);

        let mut sigma_s = Vec::with_capacity(cells.len() * ng);
        let mut diffusion = Vec::with_capacity(cells.len() * ng);
        let mut removal = Vec::with_capacity(cells.len() * ng);
        let mut node_weights = Vec::with_capacity(cells.len() * nodes);
        for (local, &global) in cells.iter().enumerate() {
            let mat = data.material(global);
            // Characteristic cell size for the thick-cell stabilisation.
            let h = topology.volumes[local].cbrt();
            for g in 0..ng {
                let sigma_t = data.xs.total(mat, g);
                let s = data.xs.scatter(mat, g, g);
                sigma_s.push(s);
                // D = 1/(3σ_t) plus Larsen-style thick-cell inflation:
                // the inconsistent (cell-centred FV under DG transport)
                // discretisation over-corrects — and eventually diverges
                // — when cells are optically thick, because the
                // low-order solve attributes sweep-attenuated
                // high-frequency residuals to diffusive modes.  Inflating
                // D by O((σ_t h)²) damps exactly those spatial
                // overshoots while leaving the flat (infinite-medium)
                // mode kill untouched — the flat-mode correction is
                // independent of D.
                let tau = sigma_t * h;
                diffusion
                    .push(1.0 / (3.0 * sigma_t) + THICK_CELL_STABILISATION * tau * tau / sigma_t);
                removal.push(sigma_t - s);
            }
            // ∫ φ_i dV = Σ_j M_ij (partition of unity): the mass-matrix
            // row sums are the nodal quadrature weights of the cell.
            let mass = integrals.block(global).mass();
            node_weights.extend(mass.chunks_exact(nodes).map(|row| row.iter().sum::<f64>()));
        }

        let operator = DiffusionOperator::assemble(&topology, ng, &diffusion, &removal);
        Self {
            solver: DsaSolver::new(operator, config),
            layout,
            sigma_s,
            node_weights,
            rhs: vec![0.0; cells.len() * ng],
        }
    }

    /// The accelerator the solver builds from its store, for a caller that
    /// holds per-element [`ElementIntegrals`] (`Some`, indexed by global
    /// cell id) or none (`None`: every cell's are integrated here).  They
    /// are packed into an [`IntegralStore`] first.  Only the frozen benchmark
    /// package's layer probe (`benchmark/src/layers.rs`) calls it, with
    /// `Some(..)` (ROADMAP items 1(c) and 17(a)); the solver passes its
    /// store to `new`.
    pub fn build(
        mesh: &UnstructuredMesh,
        cells: &[usize],
        element: &ReferenceElement,
        integrals: Option<&[ElementIntegrals]>,
        data: &ProblemData,
        layout: FluxLayout,
        config: DsaConfig,
    ) -> Self {
        let store = match integrals {
            Some(list) => IntegralStore::pack(list),
            None => IntegralStore::build(element, mesh.num_cells(), |cell| HexVertices {
                corners: *mesh.cell_corners(cell),
            }),
        };
        Self::new(mesh, cells, &store, data, layout, config)
    }

    /// Apply one DSA correction to `phi` in place.
    ///
    /// `previous` is the iterate the sweep started from (`φ^l`); `phi`
    /// holds the post-sweep iterate (`φ^{l+1/2}`) on entry and the
    /// corrected iterate (`φ^{l+1}`) on return.  CG work is accounted in
    /// `stats` (`accel_cg_iterations`, `accel_residual_history`) and
    /// every CG residual streams as a
    /// [`SolveEvent::AccelResidual`].
    pub(crate) fn correct(
        &mut self,
        phi: &mut [f64],
        previous: &[f64],
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<()> {
        let ne = self.layout.num_elements;
        let ng = self.layout.num_groups;
        let nodes = self.layout.nodes_per_element;
        debug_assert_eq!(phi.len(), self.layout.len());
        debug_assert_eq!(previous.len(), self.layout.len());

        for c in 0..ne {
            let weights = &self.node_weights[c * nodes..(c + 1) * nodes];
            for g in 0..ng {
                let base = self.layout.base(c, g, 0);
                let mut moment = 0.0;
                for (i, &w) in weights.iter().enumerate() {
                    moment += w * (phi[base + i] - previous[base + i]);
                }
                self.rhs[c * ng + g] = self.sigma_s[c * ng + g] * moment;
            }
        }

        let (correction, outcome) =
            self.solver
                .solve(&self.rhs, |iteration, relative_residual| {
                    let event = SolveEvent::AccelResidual {
                        iteration,
                        relative_residual,
                    };
                    observer.on_event(Lane::Driver, &event)
                })?;

        for c in 0..ne {
            for g in 0..ng {
                let e = correction[c * ng + g];
                let base = self.layout.base(c, g, 0);
                for node in phi[base..base + nodes].iter_mut() {
                    *node += e;
                }
            }
        }

        stats.accel_cg_iterations += outcome.iterations;
        stats
            .accel_residual_history
            .extend_from_slice(&outcome.residual_history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{MaterialOption, SourceOption};
    use crate::session::NoopObserver;
    use unsnap_mesh::StructuredGrid;
    use unsnap_sweep::LoopOrder;

    fn accelerator(n: usize, ng: usize, c: f64) -> DsaAccelerator {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001);
        let cells: Vec<usize> = (0..mesh.num_cells()).collect();
        let element = ReferenceElement::new(1);
        let mut data = ProblemData::generate(
            mesh.num_cells(),
            |cell| mesh.cell_centroid(cell),
            [1.0, 1.0, 1.0],
            ng,
            MaterialOption::Option1,
            SourceOption::Option1,
        );
        data.xs = crate::data::CrossSections::with_scattering_ratio(ng, 1, c);
        let layout = FluxLayout::scalar(8, mesh.num_cells(), ng, LoopOrder::ElementThenGroup);
        DsaAccelerator::build(
            &mesh,
            &cells,
            &element,
            None,
            &data,
            layout,
            DsaConfig::default(),
        )
    }

    #[test]
    fn every_constructor_reads_the_same_node_weights() {
        // The solver's store, the benchmark's per-element integrals and
        // none at all: one set of nodal weights, bit for bit.
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(3, 1.0), 0.001);
        let cells: Vec<usize> = (0..mesh.num_cells()).collect();
        let element = ReferenceElement::new(2);
        let hex = |cell: usize| HexVertices {
            corners: *mesh.cell_corners(cell),
        };
        let store = IntegralStore::build(&element, cells.len(), hex);
        let elements: Vec<ElementIntegrals> = (cells.iter())
            .map(|&cell| ElementIntegrals::compute(&element, &hex(cell)))
            .collect();
        let data = ProblemData::generate(
            mesh.num_cells(),
            |cell| mesh.cell_centroid(cell),
            [1.0, 1.0, 1.0],
            1,
            MaterialOption::Option1,
            SourceOption::Option1,
        );
        let layout = FluxLayout::scalar(27, cells.len(), 1, LoopOrder::ElementThenGroup);
        let config = DsaConfig::default();
        let bits = |a: &DsaAccelerator| {
            a.node_weights
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>()
        };
        let from_store = DsaAccelerator::new(&mesh, &cells, &store, &data, layout, config);
        for integrals in [Some(elements.as_slice()), None] {
            let built =
                DsaAccelerator::build(&mesh, &cells, &element, integrals, &data, layout, config);
            assert_eq!(bits(&built), bits(&from_store), "{}", integrals.is_some());
        }
    }

    #[test]
    fn zero_residual_leaves_the_flux_untouched() {
        let mut acc = accelerator(2, 2, 0.9);
        let n = acc.layout.len();
        let phi_ref: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut phi = phi_ref.clone();
        let mut stats = RunStats::default();
        acc.correct(&mut phi, &phi_ref, &mut stats, &mut NoopObserver)
            .unwrap();
        assert_eq!(phi, phi_ref);
        assert_eq!(stats.accel_cg_iterations, 0);
    }

    #[test]
    fn positive_residual_pushes_the_flux_up() {
        // A uniformly positive sweep update means the error estimate is
        // positive everywhere: the correction must add, not subtract.
        let mut acc = accelerator(3, 1, 0.95);
        let n = acc.layout.len();
        let previous = vec![0.0; n];
        let half = vec![1.0; n];
        let mut phi = half.clone();
        let mut stats = RunStats::default();
        acc.correct(&mut phi, &previous, &mut stats, &mut NoopObserver)
            .unwrap();
        assert!(stats.accel_cg_iterations > 0);
        assert!(!stats.accel_residual_history.is_empty());
        assert!(
            phi.iter().zip(half.iter()).all(|(a, b)| a > b),
            "correction must be positive for a positive residual"
        );
    }

    #[test]
    fn correction_is_nodewise_constant_per_cell() {
        let mut acc = accelerator(2, 1, 0.9);
        let layout = acc.layout;
        let n = layout.len();
        let previous = vec![0.0; n];
        // A non-uniform update: cell averages differ.
        let half: Vec<f64> = (0..n).map(|i| 1.0 + ((i / 8) % 4) as f64).collect();
        let mut phi = half.clone();
        acc.correct(
            &mut phi,
            &previous,
            &mut RunStats::default(),
            &mut NoopObserver,
        )
        .unwrap();
        for c in 0..layout.num_elements {
            let base = layout.base(c, 0, 0);
            let delta: Vec<f64> = (0..layout.nodes_per_element)
                .map(|i| phi[base + i] - half[base + i])
                .collect();
            for d in &delta {
                assert!((d - delta[0]).abs() < 1e-14, "non-constant prolongation");
            }
        }
    }
}
