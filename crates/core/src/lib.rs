//! # unsnap-core
//!
//! The core of the UnSNAP mini-app: discrete-ordinates angular quadrature,
//! multigroup artificial problem data, the discontinuous Galerkin
//! assemble/solve kernel, and the threaded sweep driver with its
//! selectable concurrency schemes.
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
//! * [`session`] — the observable solve API and the event stream's one
//!   home: [`Session`], [`RunObserver`], the [`session::SolveEvent`]
//!   vocabulary and [`session::Phase`] taxonomy, the [`session::EventLog`]
//!   buffer, and the three folds — [`RunMetrics`] (the snapshot attached
//!   to every [`SolveOutcome`]), the one JSONL encoding that
//!   [`JsonlObserver`] writes, and the span tree.
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
//! * [`team`] — how a team forks (scoped threads, the caller as member
//!   0; [`team::map`], [`team::width`], [`team::forced_width`]) and how
//!   the members of a sweep share it out and hand it in.
//! * [`solver`] — the single-domain driver: outer iteration structure,
//!   checkpoint hooks, timers and convergence monitoring.
//! * [`strategy`] — the inner iterations of one outer iteration:
//!   [`StrategyKind::run_inners`] is classic source iteration,
//!   DSA-accelerated source iteration or sweep-preconditioned GMRES (via
//!   `unsnap-krylov`) over the [`strategy::InnerSolveContext`] a driver
//!   hands it, plus the [`AcceleratorKind`](strategy::AcceleratorKind)
//!   knob.
//! * [`dsa`] — restriction/prolongation glue between the DG flux
//!   storage and the low-order diffusion solver of `unsnap-accel`.
//! * [`problem`] — [`Problem`], the one description of a run: the paper's
//!   experiment presets, `with_*` setters and the [`Problem::validate`]
//!   rules every solver constructor enforces.
//! * [`report`] — Table I data and the one-line iteration summary used
//!   by `quickstart` and the `reproduce` harness.
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
pub mod kernel;
pub mod layout;
pub mod problem;
pub mod report;
pub mod session;
pub mod solver;
pub mod strategy;
pub mod team;
pub mod wire;

pub use angular::{AngularQuadrature, Direction};
pub use cancel::CancelToken;
pub use data::{CrossSections, MaterialOption, SourceOption};
pub use error::{Error, Result};
pub use layout::{FluxLayout, FluxStorage};
pub use problem::Problem;
pub use session::{
    JsonlObserver, NoopObserver, Phase, RunMetrics, RunObserver, Session, TeeObserver,
};
pub use solver::{RunStats, SolveOutcome, TransportSolver};
pub use strategy::StrategyKind;
