//! # UnSNAP-rs
//!
//! A Rust reproduction of **UnSNAP**, the discontinuous Galerkin
//! discrete-ordinates neutral-particle transport mini-app for unstructured
//! hexahedral meshes (Deakin et al., *WRAp @ IEEE CLUSTER 2018*).
//!
//! This umbrella crate re-exports the public API of every workspace crate
//! and hosts the runnable examples (`examples/`) and the workspace-wide
//! integration tests (`tests/`).
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`mesh`] (`unsnap-mesh`) | structured-derived unstructured hex meshes, twisting, KBA decomposition, `MeshError` |
//! | [`fem`] (`unsnap-fem`) | arbitrary-order Lagrange elements, quadrature, per-element integrals |
//! | [`linalg`] (`unsnap-linalg`) | small dense solvers: Gaussian elimination, reference LU, blocked LU (MKL stand-in) |
//! | [`krylov`] (`unsnap-krylov`) | matrix-free Krylov solvers (restarted GMRES, CG) over an abstract `LinearOperator`, with observed solves and reusable workspaces |
//! | [`accel`] (`unsnap-accel`) | diffusion synthetic acceleration: mesh-consistent low-order diffusion operator + CG correction solver |
//! | [`sweep`] (`unsnap-sweep`) | per-angle wavefront (tlevel-bucket) schedules and concurrency schemes |
//! | [`obs`] (`unsnap-obs`) | dependency-free observability: `Clock`/`MockClock`, metrics registry with deterministic/wall-clock split, fixed-bucket histograms, JSON writer/reader, JSONL run logs |
//! | [`core`] (`unsnap-core`) | typed errors, `Problem` (presets, `with_*` setters, `validate`), the wire format, the observable `Session` API, Sn quadrature, multigroup data, assemble/solve kernel, sweep driver, iteration strategies, FD baseline |
//! | [`comm`] (`unsnap-comm`) | simulated ranks, block-Jacobi coupling over a shared halo buffer, the halo wire message, `CommError` |
//! | [`runlog`] (`unsnap-runlog`) | durable runs: append-only write-ahead run log with checksummed checkpoint frames, torn-tail recovery, bit-for-bit resume for both solver paths, crash fault injection |
//! | [`serve`] (`unsnap-serve`) | solver-as-a-service: hand-rolled HTTP/1.1 front-end, bounded job queue with cooperative cancellation, live JSONL event streaming, content-addressed LRU result cache, checkpointed jobs resumable across server restarts |
//!
//! ## Quickstart
//!
//! A run has one description, [`Problem`](prelude::Problem): start from
//! a preset, adjust it with the `with_*` setters or struct-update syntax
//! (`Problem { lx: 12.0, ..Problem::quickstart() }`), and open a
//! [`Session`](prelude::Session) on it.  Every solver constructor runs
//! [`Problem::validate`](prelude::Problem::validate), so the same rules
//! hold however the problem was put together.  Run it — optionally under
//! a [`RunObserver`](prelude::RunObserver) that streams per-iteration
//! progress:
//!
//! ```
//! use unsnap::prelude::*;
//!
//! let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);
//! let mut session = Session::new(&problem).unwrap();
//! let mut recorder = RecordingObserver::default();
//! let outcome = session.run_observed(&mut recorder).unwrap();
//! assert!(outcome.scalar_flux_total > 0.0);
//! assert_eq!(recorder.sweep_count, outcome.sweep_count);
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
//! Sweeps fan out on a real shared worker pool (sized by
//! `Problem::num_threads` / `Problem::with_threads`, force-overridable
//! with `RAYON_NUM_THREADS`).  Work is split into index-ordered chunks
//! and reassembled in input order, so the physics is **bit-for-bit
//! identical at every thread count** — the invariant
//! `tests/parallel_determinism.rs` pins for both iteration strategies
//! and the CI matrix enforces at widths 1, 2 and 8, for every
//! concurrency scheme.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use unsnap_accel as accel;
pub use unsnap_comm as comm;
pub use unsnap_core as core;
pub use unsnap_fem as fem;
pub use unsnap_krylov as krylov;
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
    pub use unsnap_core::fd::DiamondDifferenceSolver;
    pub use unsnap_core::kernel::{KernelEngine, KernelKind};
    pub use unsnap_core::layout::{FluxLayout, FluxStorage, Precision};
    pub use unsnap_core::metrics::{JsonlObserver, MetricsObserver, RunMetrics};
    pub use unsnap_core::problem::Problem;
    pub use unsnap_core::report;
    pub use unsnap_core::session::{
        EventLog, Lane, NoopObserver, Phase, ProgressObserver, RecordingObserver, RunObserver,
        Session, SolveEvent, TeeObserver,
    };
    pub use unsnap_core::solver::{
        CheckpointSink, CheckpointView, RankDetail, ResumePoint, RunStats, SolveOutcome,
        TransportSolver,
    };
    pub use unsnap_core::strategy::{
        AcceleratorKind, InnerSolveContext, IterationStrategy, StrategyKind,
    };
    pub use unsnap_fem::{ElementIntegrals, HexVertices, ReferenceElement};
    pub use unsnap_krylov::{
        CgConfig, CgWorkspace, ConjugateGradient, Gmres, GmresConfig, LinearOperator,
        MatrixOperator, ObservedOperator,
    };
    pub use unsnap_linalg::{DenseMatrix, LinearSolver, SolverKind};
    pub use unsnap_mesh::{Decomposition2D, MeshError, StructuredGrid, UnstructuredMesh};
    pub use unsnap_obs::clock::{Clock, MockClock, SystemClock};
    pub use unsnap_obs::metrics::{Determinism, Histogram, MetricsRegistry};
    pub use unsnap_obs::stream::{ChannelWriter, LineChannel};
    pub use unsnap_runlog::{
        resume_block_jacobi, CheckpointObserver, CheckpointSinkHandle, FaultyWriter, Manifest,
        Recovered, RunMode, SessionResume, SharedBuffer,
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
        let mut session = Session::new(&Problem::tiny()).unwrap();
        let outcome = session.run().unwrap();
        assert!(outcome.converged || outcome.sweep_count > 0);
        // The typed error surfaces through the prelude too.
        let err = Session::new(&Problem::tiny().with_mesh(0)).err().unwrap();
        assert!(matches!(err, Error::InvalidProblem { field: "nx", .. }));
    }
}
