//! # unsnap-core
//!
//! The core of the UnSNAP mini-app: discrete-ordinates angular quadrature,
//! multigroup artificial problem data, the discontinuous Galerkin
//! assemble/solve kernel, the threaded sweep driver with its selectable
//! concurrency schemes, and the structured diamond-difference (SNAP)
//! baseline.
//!
//! The crate reproduces the computational structure of Figure 2 of the
//! paper:
//!
//! ```text
//! for all angular directions do
//!   for all elements in angle schedule do
//!     for all energy groups do
//!       Assemble matrix A from Sn quadrature, cross sections and
//!         element basis functions
//!       Assemble vector b from source terms, element basis functions
//!         and upwind neighbour ψ
//!       Solve A ψ = b
//! ```
//!
//! with the two middle loops interchangeable and threadable according to a
//! [`unsnap_sweep::ConcurrencyScheme`], and the storage layout of the flux
//! and source arrays following the loop order (the data-layout experiment
//! of Figures 3 and 4).
//!
//! ## Module map
//!
//! * [`error`] — the workspace-wide typed [`enum@Error`]/[`Result`]: one
//!   variant per failure domain, `From` conversions from every crate's
//!   local error type.
//! * [`cancel`] — [`CancelToken`]: cooperative cancellation of in-flight
//!   solves, polled at outer-iteration boundaries.
//! * [`wire`] — the canonical JSON wire format for problem
//!   configurations (serve requests, cross-process tooling) and the
//!   byte stream behind [`Problem::canonical_hash`].
//! * [`session`] — the observable solve API: [`Session`],
//!   [`RunObserver`] and [`RecordingObserver`] stream per-iteration
//!   progress instead of returning a black-box summary; the
//!   [`session::SolveEvent`] vocabulary and the [`session::Phase`]
//!   taxonomy live here too.
//! * [`metrics`] — the aggregation layer over the observer stream:
//!   [`metrics::MetricsObserver`] folds events into a
//!   [`metrics::RunMetrics`] snapshot (attached to every
//!   [`SolveOutcome`]), and
//!   [`metrics::JsonlObserver`] streams the raw events
//!   to a JSONL run log.
//! * [`angular`] — Sn product quadrature over the unit sphere (angles per
//!   octant, direction cosines, weights, octant bookkeeping).
//! * [`data`] — artificial multigroup cross sections, materials and fixed
//!   source ("Source and Material Option 1" of the paper's experiments).
//! * [`layout`] — flat storage with explicit extent ordering for the
//!   angular flux, scalar flux and source arrays.
//! * [`kernel`] — the per-element/angle/group assemble + solve kernel.
//! * [`domain`] — the one sweep path: a `SweepDomain` (owned cells,
//!   masked schedules, flux buffers), the `HaloFlux` domains read each
//!   other through, and the `DomainContext` that assembles sources,
//!   sweeps and DSA-corrects on a domain, iterating each wavefront
//!   bucket as the concurrency scheme's descriptor says.
//! * [`solver`] — the single-domain driver: outer iteration structure,
//!   checkpoint hooks, timers and convergence monitoring.
//! * [`strategy`] — pluggable inner-iteration strategies: classic source
//!   iteration, DSA-accelerated source iteration and
//!   sweep-preconditioned GMRES (via `unsnap-krylov`), plus the
//!   [`AcceleratorKind`](strategy::AcceleratorKind) knob.
//! * [`dsa`] — restriction/prolongation glue between the DG flux
//!   storage and the low-order diffusion solver of `unsnap-accel`.
//! * [`fd`] — the structured diamond-difference baseline (the original
//!   SNAP spatial discretisation) for the FD-versus-FEM comparison.
//! * [`problem`] — [`Problem`], the one description of a run: the paper's
//!   experiment presets, `with_*` setters and the [`Problem::validate`]
//!   rules every solver constructor enforces.
//! * [`report`] — Table I data and small formatting helpers used by the
//!   benchmark binaries.
//!
//! ## Quickstart
//!
//! ```
//! use unsnap_core::{Problem, Session};
//!
//! // A tiny problem that runs in well under a second: pick a preset,
//! // open a session (which validates it), run it.
//! let mut session = Session::new(&Problem::tiny()).unwrap();
//! let outcome = session.run().unwrap();
//! assert!(outcome.scalar_flux_total() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod angular;
pub mod cancel;
pub mod data;
pub mod domain;
pub mod dsa;
pub mod error;
pub mod fd;
pub mod kernel;
pub mod layout;
pub mod metrics;
pub mod problem;
pub mod report;
pub mod session;
pub mod solver;
pub mod strategy;
mod team;
pub mod trace;
pub mod wire;

pub use angular::{AngularQuadrature, Direction};
pub use cancel::CancelToken;
pub use data::{CrossSections, MaterialOption, SourceOption};
pub use error::{Error, Result};
pub use layout::{FluxLayout, FluxStorage};
pub use metrics::{JsonlObserver, MetricsObserver, RunMetrics};
pub use problem::Problem;
pub use session::{
    NoopObserver, Phase, ProgressObserver, RecordingObserver, RunObserver, Session, TeeObserver,
};
pub use solver::{RunStats, SolveOutcome, TransportSolver};
pub use strategy::{IterationStrategy, SourceIteration, StrategyKind, SweepGmres};
