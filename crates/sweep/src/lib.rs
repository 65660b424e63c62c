//! # unsnap-sweep
//!
//! Wavefront sweep scheduling over the unstructured hexahedral mesh: one
//! schedule per upwind pattern.
//!
//! Solving the discrete-ordinates transport equation requires, for every
//! angular direction, a *sweep* of the spatial mesh: a cell can only be
//! solved once all of its upwind neighbours (faces through which particles
//! enter, `Ω · n < 0`) have been solved.  On an unstructured mesh the
//! resulting dependency graph is *potentially* unique per direction
//! (§III-A.2 of the paper), so the schedules are computed from the
//! directions rather than assumed — but the graph reads only which faces
//! each cell is entered through, and directions that agree on that share
//! one schedule.  On the paper's meshes that is one schedule per octant.
//!
//! The schedule used by UnSNAP computes the *tlevel* of every element — the
//! length of the longest upwind dependency chain, following Pautz — and
//! places cells with the same tlevel into a **bucket**.  Buckets must be
//! processed in order, but every cell inside a bucket is independent, and
//! that is where the on-node parallelism of the paper's "fat node" schedule
//! comes from (§III-B).
//!
//! Provided modules:
//!
//! * [`upwind`] — the outward face normals the upwind classification
//!   reads ([`face_outward_normal`]);
//! * [`schedule`] — one bucketed wavefront schedule per upwind pattern
//!   ([`SweepSchedules`]; Kahn's algorithm over each pattern's dependency
//!   counters), cycle detection ([`ScheduleError`]), and schedule
//!   statistics ([`ScheduleStats`]);
//! * [`scheme`] — the concurrency-scheme descriptors
//!   ([`ConcurrencyScheme`]: [`LoopOrder`] × [`ThreadedLoops`]) that name
//!   the six parallel variants benchmarked in Figures 3 and 4 of the
//!   paper.
//!
//! Consumers: every sweep domain in `unsnap-core` — the single-domain
//! driver's one, and the per-rank subdomains of the block-Jacobi driver in
//! `unsnap-comm` — builds the schedules of all its angles, *masked* to the
//! cells it owns, with [`SweepSchedules::build`];
//! [`SweepSchedule::build`] is the one-direction, whole-mesh case.  See
//! the repository's `docs/ARCHITECTURE.md` for the full data flow.
//!
//! ## Example
//!
//! ```
//! use unsnap_mesh::{StructuredGrid, UnstructuredMesh};
//! use unsnap_sweep::schedule::SweepSchedule;
//!
//! let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(4, 1.0), 0.001);
//! let omega = [0.5, 0.3, 0.8];
//! let schedule = SweepSchedule::build(&mesh, omega).unwrap();
//! // Every cell appears exactly once across the buckets.
//! assert_eq!(schedule.num_cells_scheduled(), mesh.num_cells());
//! // A structured-derived cube swept along a diagonal has 3(n-1)+1 wavefronts.
//! assert_eq!(schedule.num_buckets(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod schedule;
pub mod scheme;
pub mod upwind;

pub use schedule::{ScheduleError, ScheduleStats, SweepSchedule, SweepSchedules};
pub use scheme::{ConcurrencyScheme, LoopOrder, ThreadedLoops};
pub use upwind::face_outward_normal;
