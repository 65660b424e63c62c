//! The one sweep path: a [`SweepDomain`] and the [`DomainContext`] that
//! solves on it.
//!
//! A DG-Sn sweep is a wavefront-ordered stream of small assemble-and-solve
//! tasks (§III-A of the paper); §IV-A varies only *how that one stream is
//! iterated*.  This module spells the stream once:
//!
//! * [`SharedAssets`] — everything a solve reads and never writes (mesh,
//!   element, integrals, quadrature, cross sections, dense back end,
//!   kernel engine, clock), built by one routine for every driver;
//! * [`SweepDomain`] — the cells one domain owns, its per-angle masked
//!   wavefront schedules, its φ/source buffers over *local* cells, the
//!   pool of slabs its sweeps hold ψ in — one angle each, a few at a time —
//!   and the ψ of the cells it exports;
//! * [`HaloFlux`] — the ψ node blocks of the cells that touch a cut
//!   between domains: what one domain reads of another, and with φ all
//!   that survives an iteration boundary;
//! * [`DomainContext`] — a borrowed view (assets + pool + the global
//!   previous-outer flux + an optional halo + one domain) carrying the
//!   only real [`InnerSolveContext`] implementation: one source assembly,
//!   one sweep, one DSA correction.
//!
//! The single-domain `TransportSolver` owns exactly one domain covering
//! every cell, with no halo; the block-Jacobi driver in `unsnap-comm`
//! owns one per rank and one [`HaloFlux`] they all read, into which each
//! publishes the cells it exports once the ranks of an iteration are done.
//! Inside a sweep there is one per-task function (`SweepView::solve`:
//! gather the upwind ψ, assemble, solve — for one group, or for a run of
//! groups in lockstep where the kernel offers that) and one task loop
//! (`SweepView::walk`: tasks of a bucket in loop-nest order —
//! `SweepView::sweep_angle` walks the buckets of an angle whole, in
//! wavefront order), so a sweep optimisation has exactly one place to go.
//! `SweepView::sweep` forks once, into a team, and picks the parallel axis:
//! the workers of the default scheme claim the angles in ascending order,
//! sweep each into a slab of their own and hand it in
//! (`SlabInHand::exchange`); those of the paper's six schemes are all in
//! the same angle and claim shares of one region of a bucket at a time, cut
//! the way `region_cut` — a Figure 3/4 scheme label as data — says
//! (`BucketTeam::work`); one worker does neither.  ψ is scratch:
//! whatever the axis, a swept angle is folded into φ in ascending angle order
//! (`AngleFold::fold`, which also copies the exported cells and, for a
//! caller that asked, all of it) and its slab is swept into again, so a
//! sweep holds two slabs per worker, not one per angle.  Every level
//! keeps to the work it owns: a task does what depends on the group (what
//! depends on the element and the angle alone sits in the worker's
//! `TaskScratch`), and a warm sweep on one worker neither allocates nor,
//! unless the problem asks for Table II's per-task split, reads the clock
//! per task.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use unsnap_fem::element::ReferenceElement;
use unsnap_fem::face::{face_node_indices, FACES};
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::ElementIntegrals;
use unsnap_krylov::GmresWorkspace;
use unsnap_linalg::LinearSolver;
use unsnap_mesh::{NeighborRef, UnstructuredMesh, NUM_FACES};
use unsnap_obs::clock::{Clock, SystemClock};
use unsnap_sweep::{LoopOrder, SweepSchedule, ThreadedLoops};

use crate::angular::AngularQuadrature;
use crate::data::{CrossSections, ProblemData};
use crate::dsa::DsaAccelerator;
use crate::error::{Error, Result};
use crate::kernel::{KernelEngine, KernelScratch, KernelTiming, UpwindFace, UpwindSource};
use crate::layout::{FluxLayout, FluxStorage, Precision};
use crate::problem::Problem;
use crate::session::{Lane, Phase, RunObserver, SolveEvent};
use crate::solver::RunStats;
use crate::strategy::{AcceleratorKind, InnerSolveContext};
use crate::team::{sweep_team, AngleFold, BucketTeam, SlabInHand, Turn};

/// Build the worker pool a driver fans out on: `Problem::num_threads`
/// wide (the machine's parallelism when unset), capped at `max_width`.
pub fn worker_pool(problem: &Problem, max_width: usize) -> Result<rayon::ThreadPool> {
    let num_threads = problem
        .num_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(max_width.max(1));
    rayon::ThreadPoolBuilder::new()
        .num_threads(num_threads)
        .build()
        .map_err(|e| Error::Execution {
            reason: format!("failed to build thread pool: {e}"),
        })
}

/// The read-only half of a solve, shared by every domain of a driver.
pub struct SharedAssets {
    /// The problem being solved.
    pub problem: Problem,
    /// The (twisted) hexahedral mesh.
    pub mesh: UnstructuredMesh,
    /// The reference element of the problem's order.
    pub element: ReferenceElement,
    /// Face-local node index lists for the six faces (identical for every
    /// element of a given order).
    pub face_nodes: [Vec<usize>; 6],
    /// Precomputed per-element integrals, indexed by global cell id
    /// (`None` = compute on the fly, `Problem::precompute_integrals`).
    pub integrals: Option<Vec<ElementIntegrals>>,
    /// Wall-clock seconds spent precomputing `integrals`.
    pub integrals_seconds: f64,
    /// The angular quadrature.
    pub quadrature: AngularQuadrature,
    /// Materials, cross sections and the fixed source, with the
    /// problem's scattering-ratio/upscatter override applied.
    pub data: ProblemData,
    /// Dense solver back end.
    pub solver: Box<dyn LinearSolver>,
    /// Per-cell assemble+solve engine (kernel implementation ×
    /// precision); its cache key is the *global* cell id.
    pub engine: KernelEngine,
    /// Time source for phase spans and per-sweep latency.  Swappable, so
    /// tests inject a mock; deterministic metrics never read it.
    pub clock: Box<dyn Clock>,
}

impl SharedAssets {
    /// Build the assets of a validated `problem`, precomputing the
    /// per-element integrals on `pool` when the problem asks for them.
    pub fn build(problem: &Problem, pool: &rayon::ThreadPool) -> Self {
        let mesh = problem.build_mesh();
        let element = ReferenceElement::new(problem.element_order);
        let face_nodes: [Vec<usize>; 6] =
            std::array::from_fn(|f| face_node_indices(FACES[f], problem.element_order));
        let quadrature = AngularQuadrature::product(problem.angles_per_octant);
        let grid = problem.grid();
        let mut data = ProblemData::generate(
            mesh.num_cells(),
            |cell| mesh.cell_centroid(cell),
            [grid.lx, grid.ly, grid.lz],
            problem.num_groups,
            problem.material,
            problem.source,
        );
        if let Some(c) = problem.scattering_ratio {
            let materials = data.xs.num_materials();
            data.xs = match problem.upscatter_ratio {
                Some(u) => CrossSections::with_upscatter(problem.num_groups, materials, c, u),
                None => CrossSections::with_scattering_ratio(problem.num_groups, materials, c),
            };
        }

        // The paper's precomputed basis-pair integrals: embarrassingly
        // independent per element.
        let t0 = Instant::now();
        let integrals = problem.precompute_integrals.then(|| {
            pool.install(|| {
                (0..mesh.num_cells())
                    .into_par_iter()
                    .map(|cell| {
                        let hex = HexVertices {
                            corners: *mesh.cell_corners(cell),
                        };
                        ElementIntegrals::compute(&element, &hex)
                    })
                    .collect()
            })
        });
        let integrals_seconds = t0.elapsed().as_secs_f64();

        Self {
            problem: problem.clone(),
            mesh,
            element,
            face_nodes,
            integrals,
            integrals_seconds,
            quadrature,
            data,
            solver: problem.solver.build(),
            engine: KernelEngine::new(problem.kernel, problem.precision),
            clock: Box::new(SystemClock::new()),
        }
    }
}

/// `local_of_cell` entry of a cell the domain does not own, and
/// `slot_of_cell` entry of a cell that touches no cut.
const FOREIGN: usize = usize::MAX;

/// The mutable half of a solve: the cells one domain owns and every
/// buffer indexed by them.
///
/// Buffers are [`FluxStorage`] over *local* cell indices in the problem's
/// loop order, so a domain's memory is its share of the mesh.  For the
/// domain that owns every cell, local and global indices coincide and the
/// buffers *are* the global arrays.
pub struct SweepDomain {
    /// Global ids of the owned cells, in local order.
    cells: Vec<usize>,
    /// Local slot of every global cell ([`FOREIGN`] when not owned).
    local_of_cell: Vec<usize>,
    /// Local slots of the owned cells another domain reads — those with
    /// a face on a cut — in ascending order.
    exports: Vec<usize>,
    /// One wavefront schedule per angle, masked to the owned cells.
    pub(crate) schedules: Vec<SweepSchedule>,
    /// What one sweep of `schedules` walks: buckets, summed over angles.
    sweep_buckets: usize,
    /// What one sweep of `schedules` solves: (element, group, angle)
    /// tasks — one kernel invocation each in every concurrency scheme.
    sweep_tasks: u64,
    /// ψ(node, export, group, angle) of the cells in `exports`, as the last
    /// sweep folded it: what [`SweepDomain::publish`] hands the halo.  (The
    /// domains of a driver sweep concurrently and read each other's
    /// *previous* ψ from the halo, so a sweep cannot write there itself.)
    exported: FluxStorage,
    /// ψ(node, local cell, group, angle) of the last sweep, for a caller
    /// that asked for it ([`SweepDomain::keep_angular_flux`]).
    pub(crate) kept: Option<FluxStorage>,
    /// Scalar flux φ(node, local cell, group).
    pub(crate) phi: FluxStorage,
    /// Scalar flux at the previous inner iteration.
    pub(crate) phi_inner: FluxStorage,
    /// Total source (fixed + scattering), same shape as φ.
    source: FluxStorage,
    /// When set, sweeps treat every *affine* inflow — the domain boundary
    /// and the halo — as vacuum.  The Krylov strategies enable this
    /// during operator applications: the inflow belongs to the right-hand
    /// side, and re-injecting it would make the "linear" operator affine.
    homogeneous: bool,
    /// Reusable Krylov space, so repeated solves on this domain reuse the
    /// Arnoldi basis allocation.
    krylov: Option<GmresWorkspace>,
    /// Lazily-built DSA accelerator over `cells` (Dirichlet-zero coupling
    /// at cut faces), materialised by the first correction.
    dsa: Option<DsaAccelerator>,
    /// Working storage of the sweep, reused across sweeps.
    buffers: BucketBuffers,
    /// One cell's node blocks of zeros: the upwind ψ of a foreign cell
    /// when the sweep has no halo to read.  (Beside `buffers`, not in it:
    /// the tasks read it while the sweep holds `buffers` exclusively.)
    zeros: Vec<f64>,
}

/// Working storage of a sweep that outlives it, so a warm sweep
/// allocates nothing per task, per region or per share of one.
struct BucketBuffers {
    /// The scratch pool: every worker of a sweep checks one out for its
    /// run of tasks and hands it back.
    scratch: Mutex<ScratchPool>,
    /// The idle slabs: ψ of one angle each, in the layout of φ.  A sweep
    /// holds ψ nowhere else, and only until the angle is folded into φ.
    slabs: Vec<Vec<f64>>,
    /// Swept angles waiting for their turn to be folded, with their slabs.
    parked: Vec<(usize, Vec<f64>)>,
}

/// Where the upwind ψ of one inflow face comes from: everything about it
/// that does not depend on the group.
#[derive(Debug, Clone, Copy)]
enum InflowSource {
    /// The domain boundary, with its prescribed (unscaled) incoming flux.
    Boundary(f64),
    /// A cell of this domain, by local slot, solved earlier in the sweep.
    Own { local: usize, face: usize },
    /// A cell of another domain, by halo slot.
    Foreign { slot: usize, face: usize },
}

/// Per-worker state of a sweep: the kernel's scratch, and what the
/// (element, angle) it last solved shares across groups.  In
/// `angle/element/group` order the groups of an element are consecutive,
/// so all of it is built once per element and reused by every later group.
struct TaskScratch {
    kernel: KernelScratch,
    /// The (element, angle) `inflow` describes.  Within one domain the
    /// description never changes, so the key never needs invalidating.
    key: Option<(usize, usize)>,
    /// (face, source) of every inflow face, in ascending face order.
    inflow: Vec<(usize, InflowSource)>,
    /// The integrals of the element of `key`, when the problem does not
    /// precompute them.
    integrals: Option<ElementIntegrals>,
    /// The solved node blocks of a share of a region, in task order, until
    /// the worker may write to the slab the team shares.
    staged: Vec<f64>,
}

impl TaskScratch {
    fn new(nodes: usize) -> Self {
        Self {
            kernel: KernelScratch::new(nodes),
            key: None,
            inflow: Vec::with_capacity(NUM_FACES),
            integrals: None,
            staged: Vec::new(),
        }
    }
}

/// The idle [`TaskScratch`]es of a domain, and what the runs that handed
/// them back had to report.
#[derive(Default)]
struct ScratchPool {
    idle: Vec<TaskScratch>,
    /// Time spent inside the tasks of the current sweep, summed over runs.
    timing: KernelTiming,
}

/// One run of tasks on one thread: a [`TaskScratch`] checked out of the
/// pool, handed back — with the time the run took — on drop.
struct TaskRun<'a> {
    /// `Some` until dropped.
    scratch: Option<TaskScratch>,
    pool: &'a Mutex<ScratchPool>,
    /// Sum of the per-task timings; zero unless the problem times solves.
    timing: KernelTiming,
    /// Running when the tasks are not timed one by one: the whole run is
    /// then one reading, booked as assembly like an untimed task's.
    stopwatch: Option<Instant>,
}

impl<'a> TaskRun<'a> {
    fn begin(pool: &'a Mutex<ScratchPool>, nodes: usize, time_solve: bool) -> Self {
        let pooled = pool.lock().expect("a sweep task panicked").idle.pop();
        Self {
            scratch: Some(pooled.unwrap_or_else(|| TaskScratch::new(nodes))),
            pool,
            timing: KernelTiming::default(),
            stopwatch: (!time_solve).then(Instant::now),
        }
    }
}

impl Drop for TaskRun<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.stopwatch {
            self.timing.assemble_ns += started.elapsed().as_nanos() as u64;
        }
        // A poisoned pool means a task panicked: the panic is already on
        // its way to the caller, the scratch is only a cache and the
        // sweep's timing will never be reported.
        if let (Some(scratch), Ok(mut pool)) = (self.scratch.take(), self.pool.lock()) {
            pool.timing.accumulate(self.timing);
            pool.idle.push(scratch);
        }
    }
}

impl SweepDomain {
    /// Build the domain owning `cells` (global ids, in local order),
    /// constructing its masked per-angle schedules on `pool`.
    pub fn new(assets: &SharedAssets, pool: &rayon::ThreadPool, cells: Vec<usize>) -> Result<Self> {
        let mesh = &assets.mesh;
        let mut local_of_cell = vec![FOREIGN; mesh.num_cells()];
        for (local, &cell) in cells.iter().enumerate() {
            local_of_cell[cell] = local;
        }
        // One wavefront schedule per angle (§III-A.2: potentially unique
        // per direction on an unstructured mesh).  A mask owning every
        // cell yields the whole-mesh schedule.
        let owned: Vec<bool> = local_of_cell.iter().map(|&l| l != FOREIGN).collect();
        let on_a_cut = |cell: usize| {
            (0..NUM_FACES).any(|face| match mesh.neighbor(cell, face) {
                NeighborRef::Interior { cell, .. } => !owned[cell],
                NeighborRef::Boundary { .. } => false,
            })
        };
        let exports: Vec<usize> = (0..cells.len())
            .filter(|&local| on_a_cut(cells[local]))
            .collect();
        let schedules: Vec<SweepSchedule> = pool.install(|| {
            assets
                .quadrature
                .directions()
                .par_iter()
                .map(|d| {
                    SweepSchedule::build_masked(mesh, d.omega, &owned)
                        .map_err(|e| Error::schedule(format!("angle {:?}", d.omega), e))
                })
                .collect::<Result<Vec<_>>>()
        })?;

        let problem = &assets.problem;
        let nodes = assets.element.nodes_per_element();
        let order = problem.scheme.loop_order;
        let exported = FluxLayout::angular(
            nodes,
            exports.len(),
            problem.num_groups,
            assets.quadrature.num_angles(),
            order,
        );
        let scalar = FluxLayout::scalar(nodes, cells.len(), problem.num_groups, order);
        let scheduled: usize = schedules.iter().map(|s| s.num_cells_scheduled()).sum();
        Ok(Self {
            cells,
            local_of_cell,
            exports,
            sweep_buckets: schedules.iter().map(|s| s.num_buckets()).sum(),
            sweep_tasks: (scheduled * problem.num_groups) as u64,
            schedules,
            exported: FluxStorage::zeros(exported),
            kept: None,
            phi: FluxStorage::zeros(scalar),
            phi_inner: FluxStorage::zeros(scalar),
            source: FluxStorage::zeros(scalar),
            homogeneous: false,
            krylov: None,
            dsa: None,
            buffers: BucketBuffers {
                scratch: Mutex::default(),
                slabs: Vec::new(),
                parked: Vec::new(),
            },
            zeros: vec![0.0; nodes * problem.num_groups],
        })
    }

    /// Overwrite this domain's φ with its cells' blocks of the global
    /// array (the exact inverse of [`SweepDomain::scatter_into`]).
    pub fn gather_from(&mut self, phi: &FluxStorage) {
        for (local, &cell) in self.cells.iter().enumerate() {
            for g in 0..phi.layout().num_groups {
                self.phi
                    .nodes_mut(local, g, 0)
                    .copy_from_slice(phi.nodes(cell, g, 0));
            }
        }
    }

    /// Publish this domain's φ into its cells' blocks of the global
    /// array.
    pub fn scatter_into(&self, phi: &mut FluxStorage) {
        for (local, &cell) in self.cells.iter().enumerate() {
            for g in 0..phi.layout().num_groups {
                phi.nodes_mut(cell, g, 0)
                    .copy_from_slice(self.phi.nodes(local, g, 0));
            }
        }
    }

    /// Publish the ψ of the cells this domain exports into their slots
    /// of `halo`: the domain's half of a halo exchange.
    pub fn publish(&self, halo: &mut HaloFlux) {
        let layout = *self.exported.layout();
        for (export, &local) in self.exports.iter().enumerate() {
            let slot = halo.slot_of_cell[self.cells[local]];
            for g in 0..layout.num_groups {
                for angle in 0..layout.num_angles {
                    halo.psi
                        .nodes_mut(slot, g, angle)
                        .copy_from_slice(self.exported.nodes(export, g, angle));
                }
            }
        }
    }

    /// From the next sweep on, keep ψ of every angle — cells × angles of
    /// memory a sweep does not need: it is for callers that compare ψ,
    /// and for a time-dependent run.
    pub(crate) fn keep_angular_flux(&mut self) {
        let layout = FluxLayout {
            num_angles: self.schedules.len(),
            ..*self.phi.layout()
        };
        self.kept.get_or_insert_with(|| FluxStorage::zeros(layout));
    }
}

/// The angular flux that crosses the cuts between the domains of one
/// driver: ψ of the *halo cells* — every cell with a face on a cut —
/// stored compactly, whole node blocks per (cell, group, angle).
///
/// A domain reads a foreign cell here and nowhere else, and keeps no ψ of
/// its own beyond a sweep, so this buffer and φ are the whole of what one
/// iteration hands the next.  A driver with a
/// single domain has no cut and needs no halo.
pub struct HaloFlux {
    /// Slot of every global cell in `psi` ([`FOREIGN`] off the cuts).
    slot_of_cell: Vec<usize>,
    /// ψ(node, slot, group, angle).
    psi: FluxStorage,
}

impl HaloFlux {
    /// The zeroed halo of `domains`, which together own every cell of
    /// the mesh of `assets`: one slot per exported cell, domain after
    /// domain.
    pub fn new(assets: &SharedAssets, domains: &[SweepDomain]) -> Self {
        let mut slot_of_cell = vec![FOREIGN; assets.mesh.num_cells()];
        let exported = domains
            .iter()
            .flat_map(|domain| domain.exports.iter().map(|&local| domain.cells[local]));
        let mut slots = 0;
        for cell in exported {
            slot_of_cell[cell] = slots;
            slots += 1;
        }
        let problem = &assets.problem;
        let layout = FluxLayout::angular(
            assets.element.nodes_per_element(),
            slots,
            problem.num_groups,
            assets.quadrature.num_angles(),
            problem.scheme.loop_order,
        );
        Self {
            slot_of_cell,
            psi: FluxStorage::zeros(layout),
        }
    }

    /// The halo ψ in storage order: with φ, a driver's resumable state.
    pub fn as_slice(&self) -> &[f64] {
        self.psi.as_slice()
    }

    /// Mutable access, for reinstalling checkpointed state.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.psi.as_mut_slice()
    }
}

/// Visit the tasks `tasks` of `bucket` — numbered in loop-nest order, one
/// outer index after another — as an element and a run of its groups.  A
/// run is one group — except in `angle/element/group` order, where those of
/// an element's groups that are in `tasks` are cut greedily into runs of
/// the `widths` (widest first) and only the remainder goes group by group.
fn for_each_task(
    order: LoopOrder,
    bucket: &[usize],
    num_groups: usize,
    widths: &[usize],
    tasks: Range<usize>,
    mut visit: impl FnMut(usize, Range<usize>),
) {
    if tasks.is_empty() {
        return;
    }
    let inner = match order {
        LoopOrder::ElementThenGroup => num_groups,
        LoopOrder::GroupThenElement => bucket.len(),
    };
    for outer in tasks.start / inner..tasks.end.div_ceil(inner) {
        let first = outer * inner;
        let lo = tasks.start.max(first) - first;
        let hi = tasks.end.min(first + inner) - first;
        match order {
            LoopOrder::ElementThenGroup => {
                let mut group = lo;
                for &width in widths {
                    while hi - group >= width {
                        visit(bucket[outer], group..group + width);
                        group += width;
                    }
                }
                (group..hi).for_each(|g| visit(bucket[outer], g..g + 1));
            }
            LoopOrder::GroupThenElement => {
                let group = outer..outer + 1;
                (bucket[lo..hi].iter()).for_each(|&element| visit(element, group.clone()));
            }
        }
    }
}

/// The ψ of the angle a worker is in.
enum Slab<'a> {
    /// The worker's own: blocks are stored as they are solved.
    Own(&'a mut [f64]),
    /// A team's: read by every share of a region, written between regions.
    Shared(&'a [f64]),
}

impl Slab<'_> {
    fn read(&self) -> &[f64] {
        match self {
            Slab::Own(psi) => psi,
            Slab::Shared(psi) => psi,
        }
    }
}

/// Everything the tasks of one sweep read.
struct SweepView<'a> {
    assets: &'a SharedAssets,
    pool: Option<&'a rayon::ThreadPool>,
    local_of_cell: &'a [usize],
    schedules: &'a [SweepSchedule],
    source: &'a FluxStorage,
    /// Shape of the ψ of one angle — and of φ: the angle is the slowest
    /// index of both storage orders, so ψ is one such slab per angle.
    slab: FluxLayout,
    /// Lagged ψ of foreign cells; without one they read zeros.
    halo: Option<&'a HaloFlux>,
    /// Whether this sweep treats every affine inflow as vacuum: the
    /// prescribed boundary flux is scaled by zero and the halo reads
    /// zeros.
    homogeneous: bool,
    zeros: &'a [f64],
    /// Lengths of the group runs an inline walker solves in lockstep,
    /// widest first (see [`lockstep_widths`]).
    lanes: &'static [usize],
}

/// The group-run lengths the sweeps of `assets` solve in lockstep: what the
/// kernel offers for this element size, dense solver and precision, where
/// an element's groups are consecutive in the loop nest and in storage —
/// and nobody asked for a timing of each group's task.
fn lockstep_widths(assets: &SharedAssets) -> &'static [usize] {
    let problem = &assets.problem;
    if problem.scheme.loop_order == LoopOrder::ElementThenGroup && !problem.time_solve {
        let nodes = assets.element.nodes_per_element();
        assets.engine.lane_widths(nodes, assets.solver.as_ref())
    } else {
        &[]
    }
}

impl SweepView<'_> {
    /// Where the node blocks of `groups` of `local` sit in a slab: one
    /// contiguous run when the groups are more than one (the
    /// `angle/element/group` layout).
    fn blocks(&self, local: usize, groups: &Range<usize>) -> Range<usize> {
        let base = self.slab.base(local, groups.start, 0);
        base..base + groups.len() * self.slab.nodes_per_element
    }

    /// The one local task of a sweep: gather the upwind ψ of `element`
    /// for `angle` and `groups`, assemble the local systems and solve
    /// them.  One group leaves ψ(element, group, angle) in
    /// `scratch.kernel.rhs`; a run of groups is solved in lockstep and
    /// leaves its fluxes side by side (`KernelScratch::lane_solution`).
    ///
    /// Own-cell upwind ψ is read from `psi`, the slab of `angle` (written
    /// earlier in the same sweep — the masked schedule guarantees it),
    /// foreign cells from the halo, boundary faces from the scaled inflow.
    /// Which of the three a face reads — and, when they are not
    /// precomputed, the element's integrals — is resolved when `scratch`
    /// last solved another (element, angle); a task then only looks up
    /// its groups' slices.
    fn solve(
        &self,
        angle: usize,
        psi: &[f64],
        element: usize,
        groups: Range<usize>,
        scratch: &mut TaskScratch,
    ) -> KernelTiming {
        let a = self.assets;
        let schedule = &self.schedules[angle];
        if scratch.key != Some((element, angle)) {
            scratch.inflow.clear();
            for face in schedule.inflow_faces(element) {
                let source = match a.mesh.neighbor(element, face) {
                    NeighborRef::Boundary { domain_face } => InflowSource::Boundary(
                        a.problem.boundaries.face(domain_face).incoming_flux(),
                    ),
                    NeighborRef::Interior { cell, face } => match self.local_of_cell[cell] {
                        FOREIGN => InflowSource::Foreign {
                            slot: self.halo.map_or(FOREIGN, |halo| halo.slot_of_cell[cell]),
                            face,
                        },
                        local => InflowSource::Own { local, face },
                    },
                };
                scratch.inflow.push((face, source));
            }
            if a.integrals.is_none() {
                let hex = HexVertices {
                    corners: *a.mesh.cell_corners(element),
                };
                scratch.integrals = Some(ElementIntegrals::compute(&a.element, &hex));
            }
            scratch.key = Some((element, angle));
        }
        let integrals = match a.integrals.as_deref() {
            Some(list) => &list[element],
            None => scratch.integrals.as_ref().expect("computed with the key"),
        };
        let run_len = groups.len() * self.slab.nodes_per_element;
        let boundary_scale = if self.homogeneous { 0.0 } else { 1.0 };
        let mut upwind = [UpwindFace {
            face: 0,
            source: UpwindSource::Boundary(0.0),
        }; NUM_FACES];
        for (slot, &(face, source)) in upwind.iter_mut().zip(&scratch.inflow) {
            let source = match source {
                InflowSource::Boundary(flux) => UpwindSource::Boundary(boundary_scale * flux),
                InflowSource::Own { local, face } => UpwindSource::Interior {
                    neighbor_psi: &psi[self.blocks(local, &groups)],
                    neighbor_face_nodes: &a.face_nodes[face],
                },
                InflowSource::Foreign { slot, face } => UpwindSource::Interior {
                    neighbor_psi: match self.halo {
                        Some(halo) if !self.homogeneous => {
                            let base = halo.psi.layout().base(slot, groups.start, angle);
                            &halo.psi.as_slice()[base..][..run_len]
                        }
                        _ => &self.zeros[..run_len],
                    },
                    neighbor_face_nodes: &a.face_nodes[face],
                },
            };
            *slot = UpwindFace { face, source };
        }
        let upwind = &upwind[..scratch.inflow.len()];
        let sigma_t = a.data.xs.totals(a.data.material(element), groups.clone());
        let source = &self.source.as_slice()[self.blocks(self.local_of_cell[element], &groups)];
        if let [sigma_t] = *sigma_t {
            a.engine.assemble_solve(
                element,
                integrals,
                schedule.omega,
                sigma_t,
                source,
                upwind,
                a.solver.as_ref(),
                a.problem.time_solve,
                &mut scratch.kernel,
            )
        } else {
            a.engine.assemble_solve_lanes(
                element,
                integrals,
                schedule.omega,
                sigma_t,
                source,
                upwind,
                a.solver.as_ref(),
                &mut scratch.kernel,
            );
            KernelTiming::default()
        }
    }

    /// The one task loop: solve the tasks `tasks` of `bucket`, a bucket of
    /// `angle`, in loop-nest order.  A bucket reads only the ψ of earlier
    /// buckets, so a worker with the slab to itself stores a solved block
    /// before the next task starts; a worker of a team stages the blocks of
    /// its share, which no task of the same region reads.
    fn walk(
        &self,
        angle: usize,
        bucket: &[usize],
        tasks: Range<usize>,
        mut psi: Slab,
        run: &mut TaskRun,
    ) {
        let problem = &self.assets.problem;
        let TaskRun {
            scratch, timing, ..
        } = run;
        let scratch = scratch.as_mut().expect("held until the run drops");
        scratch.staged.clear();
        let (order, ng) = (problem.scheme.loop_order, problem.num_groups);
        let nodes = self.slab.nodes_per_element;
        for_each_task(order, bucket, ng, self.lanes, tasks, |element, groups| {
            timing.accumulate(self.solve(angle, psi.read(), element, groups.clone(), scratch));
            let TaskScratch { kernel, staged, .. } = &mut *scratch;
            let run = self.blocks(self.local_of_cell[element], &groups);
            let blocks = match &mut psi {
                Slab::Own(psi) => &mut psi[run],
                Slab::Shared(_) => {
                    let at = staged.len();
                    staged.resize(at + run.len(), 0.0);
                    &mut staged[at..]
                }
            };
            // Node `i` of the run's group `l` is solved at `i · lanes + l`:
            // for one group, its node block.
            let lanes = groups.len();
            let solved = kernel.lane_solution(lanes);
            for (l, block) in blocks.chunks_exact_mut(nodes).enumerate() {
                for (i, p) in block.iter_mut().enumerate() {
                    *p = solved[i * lanes + l];
                }
            }
        });
    }

    /// Move what [`SweepView::walk`] staged of the same tasks into `psi`.
    fn store_staged(&self, bucket: &[usize], tasks: Range<usize>, psi: &mut [f64], run: &TaskRun) {
        let problem = &self.assets.problem;
        let staged = &run
            .scratch
            .as_ref()
            .expect("held until the run drops")
            .staged;
        let (order, ng) = (problem.scheme.loop_order, problem.num_groups);
        let mut blocks = staged.as_slice();
        for_each_task(order, bucket, ng, self.lanes, tasks, |element, groups| {
            let run = self.blocks(self.local_of_cell[element], &groups);
            let (solved, rest) = blocks.split_at(run.len());
            psi[run].copy_from_slice(solved);
            blocks = rest;
        });
    }

    /// Walk one angle's buckets in wavefront order, on one worker.  `psi`
    /// is a slab, every entry of which the walk overwrites with ψ of
    /// `angle` before reading it.
    fn sweep_angle(&self, angle: usize, psi: &mut [f64], run: &mut TaskRun) {
        let ng = self.assets.problem.num_groups;
        for bucket in &self.schedules[angle].buckets {
            self.walk(angle, bucket, 0..bucket.len() * ng, Slab::Own(psi), run);
        }
    }

    /// Sweep every angle, spreading the work over the pool along the
    /// scheme's parallel axis, and fold each into φ (zeroed by the caller)
    /// in ascending order.
    fn sweep(&self, mut fold: AngleFold, buffers: &mut BucketBuffers) -> KernelTiming {
        let problem = &self.assets.problem;
        let nodes = self.slab.nodes_per_element;
        let num_angles = self.schedules.len();
        let BucketBuffers {
            scratch,
            slabs,
            parked,
        } = buffers;
        let width = self.pool.map_or(1, |pool| pool.current_num_threads());
        let (team, window) = sweep_team(problem.scheme, width, num_angles);
        // (Parked slabs are what a sweep that unwound left behind.)
        slabs.extend(parked.drain(..).map(|(_, slab)| slab));
        slabs.resize_with(slabs.len().max(window), || vec![0.0; self.slab.len()]);
        {
            let scratch = &*scratch;
            let begin = || TaskRun::begin(scratch, nodes, problem.time_solve);
            // One fork per sweep: every worker of the team runs `work` once —
            // or one of them, or the caller, runs it once for each.
            let enter = |work: &(dyn Fn(usize) + Sync)| {
                let pool = self.pool.expect("a team has a pool");
                pool.install(|| (0..team).into_par_iter().for_each(work))
            };
            match problem.scheme.threaded {
                // One worker — a 1-wide pool, or a rank of a driver that
                // runs its domains concurrently — walks every angle.
                _ if team == 1 => {
                    let mut run = begin();
                    for angle in 0..num_angles {
                        self.sweep_angle(angle, &mut slabs[0], &mut run);
                        fold.fold(angle, &slabs[0]);
                    }
                }
                // The angle axis.  Each worker claims the next angle — in
                // ascending order: a contiguous share each would park the
                // last worker's first angle behind every angle before it —
                // walks it on its own, and hands it in.
                ThreadedLoops::Angles => {
                    let turn = Mutex::new(Turn {
                        fold,
                        cursor: 0,
                        idle: slabs,
                        parked,
                        failed: false,
                    });
                    let freed = Condvar::new();
                    // Publishes nothing: a claim is only a number nobody
                    // else has.
                    let next = AtomicUsize::new(0);
                    enter(&|_worker| {
                        let mut run = begin();
                        let mut hand = SlabInHand {
                            slab: None,
                            turn: &turn,
                            freed: &freed,
                        };
                        // A slab first, an angle second: whoever claimed
                        // the angle at the cursor holds a slab, sweeps it
                        // and folds it without waiting, so the cursor
                        // always moves and no wait is for ever.
                        let mut swept = None;
                        while hand.exchange(swept) {
                            let angle = next.fetch_add(1, Ordering::Relaxed);
                            if angle >= num_angles {
                                break;
                            }
                            let slab = hand.slab.as_mut().expect("exchanged for one");
                            self.sweep_angle(angle, slab, &mut run);
                            swept = Some(angle);
                        }
                    });
                    let turn = turn.into_inner().expect("a sweep worker panicked");
                    debug_assert_eq!(turn.cursor, num_angles);
                }
                // The bucket axis (Figures 3/4): angle after angle, region
                // after region, every worker a share of the open one.
                _ => {
                    let cut = (problem.scheme, problem.num_groups);
                    let team = BucketTeam::new(self.schedules, cut, team, fold, &mut slabs[0]);
                    enter(&|_worker| {
                        team.work(
                            &mut begin(),
                            |run, angle, bucket, tasks, psi| {
                                self.walk(angle, bucket, tasks, Slab::Shared(psi), run)
                            },
                            |run, bucket, tasks, psi| self.store_staged(bucket, tasks, psi, run),
                        )
                    });
                }
            }
        }
        let pool = scratch.get_mut().expect("a sweep task panicked");
        std::mem::take(&mut pool.timing)
    }
}

/// One domain mid-outer-iteration, as the iteration strategies see it.
///
/// The context is assembled afresh for every strategy invocation from
/// borrows of its driver's fields, so it costs nothing to build.
pub struct DomainContext<'a> {
    /// The read-only half of the solve.
    pub assets: &'a SharedAssets,
    /// The pool a sweep forks on.  `None` sweeps inline on the calling
    /// thread — what a driver that already runs its domains concurrently
    /// passes.
    pub pool: Option<&'a rayon::ThreadPool>,
    /// The *global* scalar flux at the previous outer iteration (the
    /// Jacobi group coupling reads it by global cell id).
    pub phi_outer: &'a FluxStorage,
    /// The lagged angular flux that cross-domain upwind reads come
    /// from; `None` for a domain owning every cell.  The same one at
    /// every solve of a domain, whose workers keep the slots they
    /// resolved.
    pub halo: Option<&'a HaloFlux>,
    /// The domain being solved.
    pub domain: &'a mut SweepDomain,
    /// Inner iterations per strategy invocation.
    pub inner_budget: usize,
}

impl DomainContext<'_> {
    /// Fixed source plus scattering: cross-group from the previous outer
    /// iterate (Jacobi group coupling, as in SNAP), within-group from the
    /// domain's latest φ (the source-iteration lag) unless excluded.
    fn assemble_source(&mut self, include_within_group: bool) {
        let data = &self.assets.data;
        let ng = self.assets.problem.num_groups;
        let SweepDomain {
            cells, phi, source, ..
        } = &mut *self.domain;
        for (local, &cell) in cells.iter().enumerate() {
            let mat = data.material(cell);
            let q_fixed = data.fixed_source(cell);
            for g in 0..ng {
                let q = source.nodes_mut(local, g, 0);
                q.fill(q_fixed);
                for g_from in 0..ng {
                    if g_from == g && !include_within_group {
                        continue;
                    }
                    let sigma_s = data.xs.scatter(mat, g_from, g);
                    if sigma_s == 0.0 {
                        continue;
                    }
                    let phi_from = if g_from == g {
                        phi.nodes(local, g_from, 0)
                    } else {
                        self.phi_outer.nodes(cell, g_from, 0)
                    };
                    for (q, &p) in q.iter_mut().zip(phi_from) {
                        *q += sigma_s * p;
                    }
                }
            }
        }
    }

    /// Sweep every angle of the domain along its wavefront schedules,
    /// accumulating φ.
    fn sweep_all(&mut self) -> KernelTiming {
        let SweepDomain {
            local_of_cell,
            exports,
            schedules,
            exported,
            kept,
            phi,
            source,
            homogeneous,
            buffers,
            zeros,
            ..
        } = &mut *self.domain;
        let view = SweepView {
            assets: self.assets,
            pool: self.pool.filter(|pool| pool.current_num_threads() > 1),
            local_of_cell,
            schedules,
            source,
            slab: *phi.layout(),
            halo: self.halo,
            homogeneous: *homogeneous,
            zeros,
            lanes: lockstep_widths(self.assets),
        };
        let fold = AngleFold {
            directions: self.assets.quadrature.directions(),
            slab: view.slab,
            phi: phi.as_mut_slice(),
            exports,
            exported,
            kept: kept.as_mut(),
        };
        view.sweep(fold, buffers)
    }
}

impl InnerSolveContext for DomainContext<'_> {
    fn inner_iteration_budget(&self) -> usize {
        self.inner_budget
    }

    fn convergence_tolerance(&self) -> f64 {
        self.assets.problem.convergence_tolerance
    }

    fn now(&self) -> Duration {
        self.assets.clock.now()
    }

    fn gmres_restart(&self) -> usize {
        self.assets.problem.gmres_restart
    }

    fn compute_source(&mut self) {
        self.assemble_source(true);
    }

    fn compute_external_source(&mut self) {
        self.assemble_source(false);
    }

    fn set_source_to_within_group_scatter(&mut self, v: &[f64]) {
        let data = &self.assets.data;
        let SweepDomain { cells, source, .. } = &mut *self.domain;
        let layout = *source.layout();
        debug_assert_eq!(v.len(), layout.len());
        for (local, &cell) in cells.iter().enumerate() {
            let mat = data.material(cell);
            for g in 0..layout.num_groups {
                let sigma_s = data.xs.scatter(mat, g, g);
                let base = layout.base(local, g, 0);
                let v = &v[base..base + layout.nodes_per_element];
                for (q, &value) in source.nodes_mut(local, g, 0).iter_mut().zip(v) {
                    *q = sigma_s * value;
                }
            }
        }
    }

    fn set_homogeneous_boundaries(&mut self, on: bool) {
        self.domain.homogeneous = on;
    }

    fn sweep_once(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) {
        self.domain.phi.fill(0.0);
        let phase = Phase::Sweep;
        observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
        let t0 = self.now();
        let timing = self.sweep_all();
        let seconds = self.now().saturating_sub(t0).as_secs_f64();
        observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        stats.sweep_seconds += seconds;
        stats.kernel_timing.accumulate(timing);
        stats.kernel_invocations += self.domain.sweep_tasks;
        stats.sweeps += 1;
        let event = SolveEvent::Sweep {
            sweep: stats.sweeps,
            cells: self.domain.sweep_tasks,
            buckets: self.domain.sweep_buckets,
            seconds,
        };
        observer.on_event(Lane::Driver, &event);
    }

    fn save_phi_inner(&mut self) {
        let SweepDomain { phi, phi_inner, .. } = &mut *self.domain;
        phi_inner.as_mut_slice().copy_from_slice(phi.as_slice());
    }

    fn set_phi(&mut self, v: &[f64]) {
        self.domain.phi.as_mut_slice().copy_from_slice(v);
    }

    fn phi_slice(&self) -> &[f64] {
        self.domain.phi.as_slice()
    }

    fn phi_inner_slice(&self) -> &[f64] {
        self.domain.phi_inner.as_slice()
    }

    fn take_krylov_workspace(&mut self) -> GmresWorkspace {
        self.domain.krylov.take().unwrap_or_default()
    }

    fn put_krylov_workspace(&mut self, workspace: GmresWorkspace) {
        self.domain.krylov = Some(workspace);
    }

    fn accelerator(&self) -> AcceleratorKind {
        self.assets.problem.accelerator
    }

    fn dsa_correct(
        &mut self,
        previous: &[f64],
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<()> {
        let a = self.assets;
        let SweepDomain {
            cells, phi, dsa, ..
        } = &mut *self.domain;
        let dsa = dsa.get_or_insert_with(|| {
            DsaAccelerator::build(
                &a.mesh,
                cells,
                &a.element,
                a.integrals.as_deref(),
                &a.data,
                *phi.layout(),
                unsnap_accel::DsaConfig {
                    tolerance: a.problem.accel_cg_tolerance,
                    max_iterations: a.problem.accel_cg_iterations,
                },
            )
        });
        let phase = Phase::AccelCg;
        observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
        let t0 = a.clock.now();
        let result = dsa.correct(phi.as_mut_slice(), previous, stats, observer);
        if result.is_ok() && a.problem.precision == Precision::Mixed {
            // Mixed mode resolves fluxes at single precision; round the
            // f64 diffusion correction onto the same grid so the next
            // sweep's convergence test sees a self-consistent state.
            for p in phi.as_mut_slice() {
                *p = *p as f32 as f64;
            }
        }
        let seconds = a.clock.now().saturating_sub(t0).as_secs_f64();
        observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        result
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    use unsnap_linalg::{DenseMatrix, GaussSolver};
    use unsnap_sweep::ConcurrencyScheme;

    use super::*;
    use crate::session::NoopObserver;

    /// Gaussian elimination that panics on solve number `at` of its life.
    struct PanicsAt {
        inner: GaussSolver,
        solves: AtomicUsize,
        at: usize,
    }

    impl PanicsAt {
        fn solver(at: usize) -> Box<dyn LinearSolver> {
            Box::new(Self {
                inner: GaussSolver::new(),
                solves: AtomicUsize::new(0),
                at,
            })
        }
    }

    impl LinearSolver for PanicsAt {
        fn solve_in_place(&self, a: &mut DenseMatrix, b: &mut [f64]) -> unsnap_linalg::Result<()> {
            let solve = self.solves.fetch_add(1, Ordering::Relaxed);
            assert_ne!(solve, self.at, "the stub's solve to fail at");
            self.inner.solve_in_place(a, b)
        }

        fn name(&self) -> &'static str {
            "panics-at"
        }
    }

    /// Run `job` on a worker thread of `workers` (on this one if it has none):
    /// where a fork runs its members one after another.
    fn on_a_worker(workers: &rayon::ThreadPool, job: impl FnOnce() + Send) {
        if workers.current_num_threads() == 1 {
            return job();
        }
        let caller = std::thread::current().id();
        let (job, taken) = (Mutex::new(Some(job)), AtomicBool::new(false));
        workers.install(|| {
            (0..2).into_par_iter().for_each(|_| {
                if std::thread::current().id() == caller {
                    // The caller helps with its own fork: it is kept busy
                    // until a worker has the job.
                    while !taken.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else if let Some(job) = job.lock().unwrap().take() {
                    taken.store(true, Ordering::Release);
                    job();
                }
            })
        });
    }

    /// One sweep of every cell of `problem` on a pool `width` wide — issued
    /// from one of its workers if `nested` — with a solver failing `at` each
    /// solve listed, then one with a sound solver: φ of that last sweep, and
    /// of the same sweep on a domain no task of which ever panicked.
    fn sweep_after_panics(
        problem: &Problem,
        (width, nested): (usize, bool),
        at: &[usize],
    ) -> [Vec<u64>; 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let mut assets = SharedAssets::build(problem, &pool);
        let cells = || (0..assets.mesh.num_cells()).collect();
        let mut domains = [(); 2].map(|()| SweepDomain::new(&assets, &pool, cells()).unwrap());
        let phi_outer = FluxStorage::zeros(*domains[0].phi.layout());
        let sweep = |assets: &SharedAssets, domain: &mut SweepDomain| {
            let mut context = DomainContext {
                assets,
                pool: Some(&pool),
                phi_outer: &phi_outer,
                halo: None,
                domain,
                inner_budget: 1,
            };
            // A sweep that unwound left a part of φ behind.
            context.domain.phi.fill(0.0);
            context.compute_source();
            let mut sweep = || context.sweep_once(&mut RunStats::default(), &mut NoopObserver);
            if nested {
                on_a_worker(&pool, sweep);
            } else {
                sweep();
            }
        };
        for &at in at {
            assets.solver = PanicsAt::solver(at);
            let swept = catch_unwind(AssertUnwindSafe(|| sweep(&assets, &mut domains[0])));
            assert!(swept.is_err(), "solve {at} at width {width} did not panic");
        }
        assets.solver = PanicsAt::solver(usize::MAX);
        domains.each_mut().map(|domain| {
            sweep(&assets, domain);
            let BucketBuffers { slabs, parked, .. } = &domain.buffers;
            let width = pool.current_num_threads();
            let (_, window) = sweep_team(problem.scheme, width, problem.num_angles());
            assert_eq!((slabs.len(), parked.len()), (window, 0), "width {width}");
            domain.phi.as_slice().iter().map(|v| v.to_bits()).collect()
        })
    }

    /// The default scheme and the paper's six: both parallel axes.
    fn every_scheme() -> Vec<ConcurrencyScheme> {
        let mut schemes = ConcurrencyScheme::figure_schemes();
        schemes.push(ConcurrencyScheme::best());
        schemes
    }

    #[test]
    fn a_panicking_task_cannot_hang_the_team() {
        // 16 angles × 27 cells × 2 groups.  On the angle axis: the first
        // solve (whoever makes it holds the angle at the cursor or parks
        // behind it), some in the middle, the last (every other worker has
        // gone home).  On the bucket axis, an angle of 54 solves after the
        // other: the first (a region of one element), inside a region, the
        // last share of the last region of an angle (53) and the first of
        // the next, the last of the sweep.
        let at = [0, 1, 7, 53, 54, 300, 431, 700, 863];
        for scheme in every_scheme() {
            let problem = Problem::tiny().with_scheme(scheme);
            assert_eq!(
                problem.num_angles() * problem.num_cells() * problem.num_groups,
                864
            );
            for width in [2, 3, 8] {
                let problem = problem.clone();
                // On a thread of its own: a team left parked would otherwise
                // hang the test instead of failing it.
                let (done, result) = mpsc::channel();
                let body = std::thread::spawn(move || {
                    done.send(sweep_after_panics(&problem, (width, false), &at))
                });
                match result.recv_timeout(Duration::from_secs(120)) {
                    Ok([recovered, reference]) => assert!(
                        recovered == reference,
                        "{scheme} at width {width}: φ after the panics differs"
                    ),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        panic!("{scheme} at width {width}: a panicking task left the team parked")
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {}
                }
                body.join().expect("see the panic above").unwrap();
            }
        }
    }

    #[test]
    fn a_team_not_all_of_which_runs_keeps_the_bits() {
        let sweep = |problem: &Problem, team| sweep_after_panics(problem, team, &[])[0].clone();
        // More workers than angles, past `TransportSolver`'s cap on the pool
        // width — what `RAYON_NUM_THREADS` does to every pool.
        let problem = Problem::tiny()
            .with_scheme(ConcurrencyScheme::best())
            .with_phase_space(1, 2);
        assert_eq!(problem.num_angles(), 8);
        for width in [8, 12] {
            let team = sweep(&problem, (width, false));
            assert!(
                team == sweep(&problem, (1, false)),
                "φ differs at width {width}"
            );
        }
        // Issued from one of the pool's own workers, the members of a team
        // run one after another: the first waits for nobody, and leaves the
        // others nothing.
        for scheme in every_scheme() {
            let problem = Problem::tiny().with_scheme(scheme);
            let team = sweep(&problem, (3, true));
            assert!(
                team == sweep(&problem, (1, false)),
                "φ differs under {scheme}"
            );
        }
    }
}
