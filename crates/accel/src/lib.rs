//! # unsnap-accel
//!
//! Diffusion synthetic acceleration (DSA) for the UnSNAP transport
//! solver: a mesh-consistent low-order diffusion operator plus a
//! conjugate-gradient correction solver.
//!
//! ## Why this crate exists
//!
//! Source iteration resolves the within-group scattering fixed point
//!
//! ```text
//! φ^{l+1} = D L⁻¹ (S_w φ^l + q_ext)
//! ```
//!
//! whose error contracts by the scattering ratio `c = σ_s/σ_t` per
//! sweep: as `c → 1` (scattering-dominated media) the iteration stalls.
//! The slowly-converging modes are exactly the *diffusive* ones — flat,
//! long-wavelength error shapes that a transport sweep barely touches —
//! so the classic cure is to estimate them with a cheap low-order
//! diffusion solve after every sweep and subtract them:
//!
//! ```text
//! −∇·( 1/(3σ_t) ∇e ) + (σ_t − σ_s) e  =  σ_s (φ^{l+1/2} − φ^l)
//! φ^{l+1} = φ^{l+1/2} + e
//! ```
//!
//! This collapses the spectral radius from `≈ c` to `≈ 0.22 c`, turning
//! thousands of sweeps into a handful in the high-`c` regime.
//!
//! ## What lives here
//!
//! * [`DiffusionTopology`] — the low-order geometry, extracted from an
//!   [`UnstructuredMesh`](unsnap_mesh::UnstructuredMesh) with
//!   `unsnap-fem` quadrature (cell volumes and face areas are integrated
//!   on the twisted hex geometry, not assumed Cartesian).  A *subset*
//!   constructor restricts the operator to a rank's subdomain with
//!   homogeneous Dirichlet coupling at cut faces, which is what the
//!   distributed block-Jacobi driver uses per rank.
//! * [`DiffusionOperator`] — the assembled cell-centred finite-volume
//!   diffusion operator (diffusion coefficient `1/(3σ_t)`, removal
//!   `σ_t − σ_s`, harmonic face averaging), exposed as a matrix-free
//!   [`LinearOperator`](unsnap_linalg::krylov::LinearOperator).  It is symmetric
//!   positive definite by construction, so CG applies.
//! * [`DsaSolver`] — owns the operator, a reusable
//!   [`CgWorkspace`](unsnap_linalg::krylov::CgWorkspace) and the correction
//!   vector, and solves one error equation per call through
//!   [`ConjugateGradient::solve`](unsnap_linalg::krylov::ConjugateGradient::solve),
//!   streaming every CG residual to the caller.
//!
//! The restriction of the high-order (DG nodal) residual to cell
//! averages and the prolongation of the cell-wise correction back onto
//! the nodes live with the flux layouts in `unsnap-core`
//! (`unsnap_core::dsa`); this crate is deliberately ignorant of flux
//! storage and works on plain `cell × group` vectors.
//!
//! Everything here is sequential and allocation-stable: a DSA solve is
//! bit-for-bit reproducible at any thread count, which is what lets the
//! transport driver keep its determinism contract when acceleration is
//! switched on.
//!
//! ## Example
//!
//! ```
//! use unsnap_accel::{DiffusionOperator, DiffusionTopology, DsaConfig, DsaSolver};
//! use unsnap_mesh::{StructuredGrid, UnstructuredMesh};
//!
//! let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(3, 1.0), 0.001);
//! let topology = DiffusionTopology::from_mesh(&mesh);
//! let ng = 1;
//! // σ_t = 1, c = 0.9: D = 1/3, removal = 0.1.
//! let d = vec![1.0 / 3.0; mesh.num_cells() * ng];
//! let removal = vec![0.1; mesh.num_cells() * ng];
//! let operator = DiffusionOperator::assemble(&topology, ng, &d, &removal);
//! let mut solver = DsaSolver::new(operator, DsaConfig::default());
//! let rhs = vec![1.0; mesh.num_cells() * ng];
//! let (correction, outcome) = solver.solve(&rhs, |_, _| {}).unwrap();
//! assert!(outcome.converged);
//! assert!(correction.iter().all(|&e| e > 0.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod operator;
pub mod solver;
pub mod topology;

pub use operator::DiffusionOperator;
pub use solver::{DsaConfig, DsaSolver};
pub use topology::DiffusionTopology;
