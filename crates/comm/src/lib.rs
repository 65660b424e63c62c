//! # unsnap-comm
//!
//! Simulated distributed-memory substrate for UnSNAP: rank subdomains
//! and the parallel block-Jacobi global schedule.
//!
//! The original mini-app distributes the spatial mesh over MPI ranks with a
//! KBA-style 2-D decomposition and couples the subdomains with a *parallel
//! block Jacobi* schedule: every rank sweeps its own subdomain using
//! *last-iteration* values of the angular flux on faces shared with other
//! ranks, and a halo exchange refreshes those values once per iteration
//! (§III-A.1 of the paper).  The pay-off is that every rank can start
//! working immediately (no pipeline fill as in KBA); the price is a slower
//! convergence rate that degrades as the number of Jacobi blocks grows —
//! the trade-off Garrett studied and that UnSNAP is designed to let people
//! re-examine on modern nodes.
//!
//! This crate reproduces that behaviour without an MPI launcher:
//!
//! * [`jacobi`] — [`BlockJacobiSolver`]: partitions the mesh with the KBA
//!   2-D decomposition, sweeps each rank's subdomain with its own masked
//!   wavefront schedules, and reads cross-rank upwind data from the
//!   previous iteration (the algorithmic content of the halo exchange; the
//!   physical message passing is replaced by each rank publishing the
//!   cells on its cuts into a shared halo buffer, which holds exactly
//!   what arrives in the halo of a real run).  Each
//!   rank's within-group solve dispatches through the single-domain
//!   [`IterationStrategy`](unsnap_core::strategy::IterationStrategy)
//!   machinery via a per-rank
//!   [`InnerSolveContext`](unsnap_core::strategy::InnerSolveContext), so
//!   plain source iteration *and* sweep-preconditioned GMRES (with a
//!   reused per-rank [`GmresWorkspace`](unsnap_krylov::GmresWorkspace))
//!   both scale out, and per-rank progress streams to the
//!   [`RunObserver`](unsnap_core::session::RunObserver) on
//!   [`Lane::Rank`](unsnap_core::session::Lane) in deterministic rank
//!   order.  The run returns the same
//!   [`SolveOutcome`](unsnap_core::solver::SolveOutcome) as a
//!   single-domain solve, with per-rank sweep/Krylov counters in its
//!   [`RankDetail`](unsnap_core::solver::RankDetail); the outer loop,
//!   checkpoint shape and resume contract are the shared
//!   [`run_outers`](unsnap_core::solver::run_outers) protocol.
//! * [`halo`] — [`HaloMessage`], the byte-packed wire form of one halo
//!   face; no solve path sends one (the ranks share an address space).
//! * [`error`] — [`CommError`], the layer's typed failure modes,
//!   convertible into the workspace-wide `unsnap_core::error::Error`.
//!
//! The repository's `docs/ARCHITECTURE.md` shows where this crate sits
//! in the stack and how a distributed solve flows through it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod halo;
pub mod jacobi;

pub use error::CommError;
pub use halo::HaloMessage;
pub use jacobi::BlockJacobiSolver;

/// The block-Jacobi outcome is the one
/// [`SolveOutcome`](unsnap_core::solver::SolveOutcome).  This name survives
/// only because `benchmark/src/{solve,layers}.rs` compile against it and
/// `benchmark/` is frozen — delete it with the next `benchmark/` PR.
pub type BlockJacobiOutcome = unsnap_core::solver::SolveOutcome;
