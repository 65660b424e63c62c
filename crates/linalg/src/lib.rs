//! # unsnap-linalg
//!
//! The linear algebra of the UnSNAP mini-app: the small dense solves of
//! the sweep, and the matrix-free Krylov solvers ([`krylov`]) that call
//! that sweep fewer times.
//!
//! The discontinuous Galerkin discrete-ordinates transport solve assembles
//! one small dense linear system `A ψ = b` per *element × angle × energy
//! group*.  The matrix dimension is the number of Lagrange nodes in the
//! element, `(p + 1)³` for polynomial order `p`:
//!
//! | order | matrix size | FP64 footprint |
//! |-------|-------------|----------------|
//! | 1     | 8 × 8       | 0.5 kB         |
//! | 2     | 27 × 27     | 5.7 kB         |
//! | 3     | 64 × 64     | 32.0 kB        |
//! | 4     | 125 × 125   | 122.1 kB       |
//! | 5     | 216 × 216   | 364.5 kB       |
//!
//! (Table I of the paper.)  These are tiny by LAPACK standards, which is
//! exactly why the paper compares a hand-written Gaussian-elimination
//! routine against Intel MKL's `dgesv`.  This crate provides both sides of
//! that comparison in pure Rust:
//!
//! * [`GaussSolver`] — a direct Gaussian-elimination solver with partial
//!   pivoting, written the way the paper's hand-rolled solver is written
//!   (tight inner loops over contiguous rows so the compiler can
//!   auto-vectorise them).
//! * [`LuSolver`] — an unblocked, partially-pivoted LU factorisation in the
//!   style of LAPACK's `dgetrf`/`dgetrs` reference implementation.
//! * [`BlockedLuSolver`] — a right-looking, panel-blocked LU factorisation
//!   standing in for the optimised MKL `dgesv` path.  Blocking keeps the
//!   trailing-matrix update operating on cache-resident panels, which is
//!   where the library solver overtakes the hand-written one once the
//!   matrix no longer fits in L1 (order ≥ 4 in the paper).
//!
//! All solvers implement the [`LinearSolver`] trait so the transport kernel
//! can switch between them at run time.  [`GaussSolver`] also solves the
//! energy groups of one order-1 element in lockstep, one system per SIMD
//! lane ([`LinearSolver::solve_lanes_in_place`]) — the batch §IV-B of the
//! paper describes and could not use under flat MPI.
//!
//! ## Choosing a solver
//!
//! The dense solvers above pick themselves: the problem's solver kind
//! and the element size decide the routine of every local system.  The
//! iterative solvers of [`krylov`] are for the systems whose matrix is
//! never formed — the within-group transport operator, one sweep per
//! application, and the low-order diffusion correction:
//!
//! | situation | reach for |
//! |-----------|-----------|
//! | operator nonsymmetric (transport `I − L⁻¹S`, upwinded anything) | [`krylov::Gmres`] |
//! | operator SPD (diffusion, mass matrices, normal equations) | [`krylov::ConjugateGradient`] |
//! | `c ≲ 0.5`, a handful of sweeps converge anyway | plain source iteration — a Krylov basis buys nothing |
//! | `c ≥ 0.9` or tight tolerances | GMRES(m): sweep count grows like `√` of the SI count |
//! | memory-bound at huge `n` | shrink the GMRES `restart`; CG if symmetry allows |
//!
//! Rules of thumb: GMRES(m) stores `m + 1` vectors of the operator
//! dimension — on a transport problem that dimension is
//! `nodes × cells × groups`, so restart lengths of 10–30 are plenty and
//! memory stays far below the angular flux.  CG on a nonsymmetric
//! operator silently diverges or errors with
//! [`LinalgError::NotPositiveDefinite`]; when in doubt, use GMRES.
//!
//! ## Example
//!
//! ```
//! use unsnap_linalg::{DenseMatrix, GaussSolver, LinearSolver};
//!
//! // A small diagonally dominant system.
//! let n = 4;
//! let a = DenseMatrix::from_fn(n, n, |i, j| if i == j { 10.0 } else { 1.0 });
//! let b = vec![13.0, 13.0, 13.0, 13.0];
//! let solver = GaussSolver::new();
//! let x = solver.solve(&a, &b).unwrap();
//! for xi in &x {
//!     assert!((xi - 1.0).abs() < 1e-12);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blas;
pub mod error;
pub mod gauss;
pub mod krylov;
pub mod lu;
pub mod matrix;
pub mod solver;
pub mod vector;

pub use error::LinalgError;
pub use gauss::GaussSolver;
pub use lu::{BlockedLuSolver, LuFactors, LuSolver};
pub use matrix::DenseMatrix;
pub use solver::{solve_flops, LinearSolver, SolverKind};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
