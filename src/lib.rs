//! # UnSNAP-rs
//!
//! A Rust reproduction of **UnSNAP**, the discontinuous Galerkin
//! discrete-ordinates neutral-particle transport mini-app for unstructured
//! hexahedral meshes (Deakin et al., *WRAp @ IEEE CLUSTER 2018*).
//!
//! This umbrella crate re-exports the public API of every workspace crate
//! and hosts the `quickstart` example (`examples/`) and the workspace-wide
//! integration tests (`tests/`); the paper's experiments run from the
//! `reproduce` binary of `unsnap-bench`.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`mesh`] (`unsnap-mesh`) | structured-derived unstructured hex meshes, twisting, KBA decomposition, `MeshError` |
//! | [`fem`] (`unsnap-fem`) | arbitrary-order Lagrange elements, quadrature, per-element integrals |
//! | [`linalg`] (`unsnap-linalg`) | small dense solvers: Gaussian elimination, reference LU, blocked LU (MKL stand-in); and in [`linalg::krylov`] the matrix-free Krylov solvers (restarted GMRES, CG) over an abstract `LinearOperator`, with residual streaming and reusable workspaces |
//! | [`accel`] (`unsnap-accel`) | diffusion synthetic acceleration: mesh-consistent low-order diffusion operator + CG correction solver |
//! | [`sweep`] (`unsnap-sweep`) | wavefront (tlevel-bucket) schedules, one per upwind pattern, and concurrency schemes |
//! | [`obs`] (`unsnap-obs`) | dependency-free observability: `Clock`/`MockClock`, metrics registry with deterministic/wall-clock split, fixed-bucket histograms, JSON writer/reader, JSONL run logs |
//! | [`core`] (`unsnap-core`) | typed errors, `Problem` (presets, `with_*` setters, `validate`), the wire format, the solve-event stream, Sn quadrature, multigroup data, assemble/solve kernel, sweep driver, the three inner-iteration strategies (`StrategyKind::run_inners`) |
//! | [`comm`] (`unsnap-comm`) | simulated ranks, block-Jacobi coupling over a shared halo buffer, the halo wire message, `CommError` |
//! | [`runlog`] (`unsnap-runlog`) | durable runs: append-only write-ahead run log with checksummed checkpoint frames, torn-tail recovery, bit-for-bit resume for both solver paths, crash fault injection |
//! | [`serve`] (`unsnap-serve`) | solver-as-a-service: hand-rolled HTTP/1.1 front-end, bounded job queue with cooperative cancellation, live JSONL event streaming, content-addressed LRU result cache, checkpointed jobs resumable across server restarts |
//!
//! ## Quickstart
//!
//! A run has one description, [`Problem`](prelude::Problem): start from
//! a preset, adjust it with the `with_*` setters or struct-update syntax
//! (`Problem { lx: 12.0, ..Problem::quickstart() }`), and build a
//! [`TransportSolver`](prelude::TransportSolver) on it.  Every solver constructor runs
//! [`Problem::validate`](prelude::Problem::validate), so the same rules
//! hold however the problem was put together.  Run it — optionally under
//! a [`RunObserver`](prelude::RunObserver) that streams per-iteration
//! progress:
//!
//! ```
//! use unsnap::prelude::*;
//!
//! let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);
//! let mut solver = TransportSolver::new(&problem).unwrap();
//! let mut log = EventLog::default();
//! let outcome = solver.run_observed(&mut log).unwrap();
//! assert!(outcome.scalar_flux_total > 0.0);
//! let residuals = log.events.iter().filter_map(|(_, event)| match *event {
//!     SolveEvent::KrylovResidual { relative_residual, .. } => Some(relative_residual),
//!     _ => None,
//! });
//! assert_eq!(residuals.collect::<Vec<_>>(), outcome.krylov_residual_history);
//! ```
//!
//! Every fallible call returns the workspace-wide typed
//! [`Error`](unsnap_core::error::Error) (re-exported in the prelude), so
//! callers can match on the failure domain — `InvalidProblem { field, .. }`,
//! `Mesh(..)`, `Singular { pivot, .. }`, `KrylovBreakdown { .. }`,
//! `Schedule { .. }`, `Comm { .. }` — instead of parsing strings.
//!
//! ## Execution model
//!
//! A sweep forks once, into a team of scoped threads as wide as
//! `Problem::num_threads` / `Problem::with_threads` (force-overridable
//! with `RAYON_NUM_THREADS`; [`core::team`]), with the caller as member 0.
//! The team claims angles, or shares of a bucket region, and φ takes the
//! swept angles in ascending order; the set-up maps and block Jacobi's
//! rank solves reassemble their chunks in input order.  So the physics is
//! **bit-for-bit identical at every thread count** — the invariant
//! `tests/parallel_determinism.rs` pins for both iteration strategies
//! and the CI matrix enforces at widths 1, 2 and 8, for every
//! concurrency scheme.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use unsnap_accel as accel;
pub use unsnap_comm as comm;
pub use unsnap_core as core;
pub use unsnap_fem as fem;
pub use unsnap_linalg as linalg;
pub use unsnap_mesh as mesh;
pub use unsnap_obs as obs;
pub use unsnap_runlog as runlog;
pub use unsnap_serve as serve;
pub use unsnap_sweep as sweep;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use unsnap_accel::{DiffusionOperator, DiffusionTopology, DsaConfig, DsaSolver};
    pub use unsnap_comm::{BlockJacobiSolver, CommError};
    pub use unsnap_core::angular::AngularQuadrature;
    pub use unsnap_core::cancel::CancelToken;
    pub use unsnap_core::data::{CrossSections, MaterialOption, SourceOption};
    pub use unsnap_core::dsa::DsaAccelerator;
    pub use unsnap_core::error::{Error, Result};
    pub use unsnap_core::kernel::{KernelEngine, KernelKind};
    pub use unsnap_core::layout::{FluxLayout, FluxStorage, Precision};
    pub use unsnap_core::problem::Problem;
    pub use unsnap_core::report;
    pub use unsnap_core::session::{
        EventLog, JsonlObserver, Lane, NoopObserver, Phase, RunMetrics, RunObserver, SolveEvent,
        TeeObserver,
    };
    pub use unsnap_core::solver::{
        CheckpointSink, CheckpointView, RankDetail, ResumePoint, RunStats, SolveOutcome,
        TransportSolver,
    };
    pub use unsnap_core::strategy::{InnerSolveContext, StrategyKind};
    pub use unsnap_fem::{ElementIntegrals, HexVertices, ReferenceElement};
    pub use unsnap_linalg::krylov::{
        CgConfig, CgWorkspace, ConjugateGradient, Gmres, GmresConfig, GmresWorkspace,
        LinearOperator, MatrixOperator,
    };
    pub use unsnap_linalg::{DenseMatrix, LinearSolver, SolverKind};
    pub use unsnap_mesh::{Decomposition2D, MeshError, StructuredGrid, UnstructuredMesh};
    pub use unsnap_obs::clock::{Clock, MockClock, SystemClock};
    pub use unsnap_obs::metrics::{Determinism, Histogram, MetricsRegistry};
    pub use unsnap_obs::stream::{ChannelWriter, LineChannel};
    pub use unsnap_runlog::{
        reopen, CheckpointObserver, CheckpointSinkHandle, FaultyWriter, Manifest, Recovered,
        Reopened, RunMode, SharedBuffer,
    };
    pub use unsnap_serve::{
        CancelDisposition, JobQueue, JobState, JobStatus, ResultStore, ServeConfig, Server,
        SubmitReceipt,
    };
    pub use unsnap_sweep::{ConcurrencyScheme, LoopOrder, SweepSchedule, ThreadedLoops};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(3, 1.0), 0.001);
        let schedule = SweepSchedule::build(&mesh, [0.5, 0.6, 0.62]).unwrap();
        assert_eq!(schedule.num_cells_scheduled(), mesh.num_cells());
        let rows = report::table1(3);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn prelude_exposes_the_session_api() {
        let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
        let outcome = solver.run().unwrap();
        assert!(outcome.converged || outcome.sweep_count > 0);
        // The typed error surfaces through the prelude too.
        let err = TransportSolver::new(&Problem::tiny().with_mesh(0))
            .err()
            .unwrap();
        assert!(matches!(err, Error::InvalidProblem { field: "nx", .. }));
    }
}
