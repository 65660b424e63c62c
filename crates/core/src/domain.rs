//! The one sweep path: a [`SweepDomain`] and the [`DomainContext`] that
//! solves on it.
//!
//! A DG-Sn sweep is a wavefront-ordered stream of small assemble-and-solve
//! tasks (§III-A of the paper); §IV-A varies only *how that one stream is
//! iterated*.  This module spells the stream once:
//!
//! * [`SharedAssets`] — everything a solve reads and never writes (mesh,
//!   element, integrals, quadrature, cross sections, dense back end,
//!   clock), built by one routine for every driver;
//! * [`SweepDomain`] — the cells one domain owns, its masked wavefront
//!   schedules (one per upwind pattern, which its angles share), its
//!   φ/source buffers over *local* cells (the source as each block's
//!   `M q`, formed once per source update for the tasks of every angle), the
//!   pool of slabs its sweeps hold ψ in — one angle each, a few at a time —
//!   and the face traces it exports;
//! * [`HaloFlux`] — the face traces of ψ that cross a cut between domains,
//!   one per (cut face, angle) its downwind domain reads: what one domain
//!   reads of another, and with φ all that survives an iteration boundary;
//! * [`DomainContext`] — a borrowed view (assets + team width + the global
//!   previous-outer flux + an optional halo + one domain) carrying the
//!   only real [`InnerSolveContext`] implementation: one source assembly,
//!   one sweep, one DSA correction.
//!
//! The single-domain `TransportSolver` owns exactly one domain covering
//! every cell, with no halo; the block-Jacobi driver in `unsnap-comm`
//! owns one per rank and one [`HaloFlux`] they all read, into which each
//! publishes the traces it exports once the ranks of an iteration are done.
//! Inside a sweep there is one per-task function (`SweepView::solve`:
//! gather the upwind ψ, assemble, solve — one kernel call for a run of
//! tasks, one task or up to 16 consecutive tasks of a bucket in lockstep
//! where the kernel offers that) and one task loop (`SweepView::walk`:
//! the runs `for_each_task` cuts a bucket's tasks into, in loop-nest order —
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
//! (`AngleFold::fold`, which also copies the exported traces and, for a
//! caller that asked, all of it) and its slab is swept into again, so a
//! sweep holds two slabs per worker, not one per angle.  Every level
//! keeps to the work it owns: a task does what depends on the group (what
//! depends on the element and the angle alone sits in the worker's
//! `TaskScratch`, one slot per element of a run), and a warm sweep on one
//! worker neither allocates nor reads the clock per task.  A problem that
//! asks for Table II's split (`Problem::time_solve`) has the kernel read it
//! around each elimination as well, and runs the same route.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use unsnap_fem::element::ReferenceElement;
use unsnap_fem::face::{face_node_indices, FACES};
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::ElementIntegrals;
use unsnap_linalg::krylov::GmresWorkspace;
use unsnap_linalg::LinearSolver;
use unsnap_mesh::{NeighborRef, UnstructuredMesh};
use unsnap_obs::clock::{Clock, SystemClock};
use unsnap_sweep::{LoopOrder, SweepSchedules, ThreadedLoops};

use crate::angular::AngularQuadrature;
use crate::data::{CrossSections, ProblemData};
use crate::dsa::DsaAccelerator;
use crate::error::{Error, Result};
use crate::kernel::{
    self, FaceNodes, KernelEngine, KernelScratch, KernelTiming, LaneSegment, UpwindFace,
    UpwindSource,
};
use crate::layout::{FluxLayout, FluxStorage};
use crate::problem::Problem;
use crate::session::{Lane, Phase, RunObserver, SolveEvent};
use crate::solver::RunStats;
use crate::strategy::InnerSolveContext;
use crate::team::{self, sweep_team, AngleFold, BucketTeam, SlabInHand, Turn};

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
    /// Precomputed per-element integrals, indexed by global cell id.
    pub integrals: Vec<ElementIntegrals>,
    /// Wall-clock seconds spent precomputing `integrals`.
    pub integrals_seconds: f64,
    /// The angular quadrature.
    pub quadrature: AngularQuadrature,
    /// Materials, cross sections and the fixed source, with the
    /// problem's scattering-ratio/upscatter override applied.
    pub data: ProblemData,
    /// Dense solver back end.
    pub solver: Box<dyn LinearSolver>,
    /// Time source for phase spans and per-sweep latency.  Swappable, so
    /// tests inject a mock; deterministic metrics never read it.
    pub clock: Box<dyn Clock>,
}

impl SharedAssets {
    /// Build the assets of a validated `problem`, precomputing the
    /// per-element integrals on a team `width` wide.
    pub fn build(problem: &Problem, width: usize) -> Self {
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
        let integrals = team::map(width, (0..mesh.num_cells()).collect(), |cell| {
            let hex = HexVertices {
                corners: *mesh.cell_corners(cell),
            };
            ElementIntegrals::compute(&element, &hex)
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
            clock: Box::new(SystemClock::new()),
        }
    }
}

/// `local_of_cell` entry of a cell the domain does not own, and the halo
/// slot of a face read without a halo.
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
    /// The traces of the halo this domain writes and reads; empty until a
    /// [`HaloFlux`] is built over it.
    traces: TraceTable,
    /// The wavefront schedule of every angle, masked to the owned cells:
    /// one per upwind pattern.
    pub(crate) schedules: SweepSchedules,
    /// What one sweep of `schedules` walks: buckets, summed over angles.
    sweep_buckets: usize,
    /// What one sweep of `schedules` solves: (element, group, angle)
    /// tasks — one kernel invocation each in every concurrency scheme.
    sweep_tasks: u64,
    /// The traces this domain writes, as the last sweep folded them, in
    /// their order in the halo: what [`SweepDomain::publish`] hands it.
    /// (The domains of a driver sweep
    /// concurrently and read each other's *previous* ψ from the halo, so a
    /// sweep cannot write there itself.)
    exported: Vec<f64>,
    /// ψ(node, local cell, group, angle) of the last sweep, for a caller
    /// that asked for it ([`SweepDomain::keep_angular_flux`]).
    pub(crate) kept: Option<FluxStorage>,
    /// Scalar flux φ(node, local cell, group).
    pub(crate) phi: FluxStorage,
    /// Scalar flux at the previous inner iteration.
    pub(crate) phi_inner: FluxStorage,
    /// Total source (fixed + scattering), same shape as φ, as the source
    /// term `M q` of each (cell, group) block: the part of a local system's
    /// right-hand side that no angle changes ([`kernel::source_term`]).
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

/// A domain's share of the slot table of a [`HaloFlux`]: the traces it
/// writes, in slot order, and the slots of those it reads.
#[derive(Default)]
pub(crate) struct TraceTable {
    /// Where the traces this domain writes start in the halo, in values.
    at: usize,
    /// (local cell, face) of each trace this domain writes, in slot order:
    /// angle after angle.
    writes: Vec<(usize, usize)>,
    /// Where the traces of each angle start in `writes`, and where the last
    /// one ends.
    angle_writes: Vec<usize>,
    /// The halo slot of each trace this domain reads, by (angle, local
    /// cell, face of that cell), in ascending order.
    reads: Vec<((usize, usize, usize), usize)>,
}

impl TraceTable {
    /// The traces written for `angle`: the index of the first among all
    /// this domain writes, and the (local cell, face) of each.
    pub(crate) fn writes_of(&self, angle: usize) -> (usize, &[(usize, usize)]) {
        match self.angle_writes.get(angle..angle + 2) {
            Some(&[first, end]) => (first, &self.writes[first..end]),
            _ => (0, &[]),
        }
    }

    /// The halo slot face `face` of the local cell `local` reads for
    /// `angle` ([`FOREIGN`] when no halo was built).
    fn read_slot(&self, angle: usize, local: usize, face: usize) -> usize {
        let key = (angle, local, face);
        match self.reads.binary_search_by_key(&key, |&(key, _)| key) {
            Ok(at) => self.reads[at].1,
            Err(_) => FOREIGN,
        }
    }
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
    /// A cell of another domain: the halo slot of the face's trace, and the
    /// face as that cell numbers it.
    Foreign { slot: usize, face: usize },
}

/// Per-worker state of a sweep: the kernel's scratch, and what each
/// (element, angle) of the last run shares across groups.
struct TaskScratch {
    kernel: KernelScratch,
    /// One per segment of the last run, in segment order (a task alone
    /// uses the first).  A slot whose next segment is its last element's
    /// reuses all of it: in `angle/element/group` order an element's groups
    /// are consecutive, in `angle/group/element` order a run of 16 elements
    /// meets them again in the next group's run.
    elements: Vec<ElementSlot>,
    /// The solved node blocks of a share of a region, in task order, until
    /// the worker may write to the slab the team shares.
    staged: Vec<f64>,
}

impl TaskScratch {
    fn new(nodes: usize) -> Self {
        Self {
            kernel: KernelScratch::new(nodes),
            elements: Vec::new(),
            staged: Vec::new(),
        }
    }
}

/// What one (element, angle) shares across groups: where its inflow comes
/// from.
#[derive(Default)]
struct ElementSlot {
    /// The (element, angle) `inflow` describes.  Within one domain the
    /// description never changes, so the key never needs invalidating.
    key: Option<(usize, usize)>,
    /// (face, source) of every inflow face, in ascending face order.
    inflow: Vec<(usize, InflowSource)>,
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
/// pool, handed back — with the time the run took — on drop.  The run's
/// wall time is one reading; what its eliminations took of it, read by
/// the kernel only when the problem times solves, is booked as solve and
/// the rest as assembly.
struct TaskRun<'a> {
    /// `Some` until dropped.
    scratch: Option<TaskScratch>,
    pool: &'a Mutex<ScratchPool>,
    started: Instant,
    /// Nanoseconds spent in eliminations; zero unless the problem times
    /// solves.
    solve_ns: u64,
}

impl<'a> TaskRun<'a> {
    fn begin(pool: &'a Mutex<ScratchPool>, nodes: usize) -> Self {
        let pooled = pool.lock().expect("a sweep task panicked").idle.pop();
        Self {
            scratch: Some(pooled.unwrap_or_else(|| TaskScratch::new(nodes))),
            pool,
            started: Instant::now(),
            solve_ns: 0,
        }
    }
}

impl Drop for TaskRun<'_> {
    fn drop(&mut self) {
        let run_ns = self.started.elapsed().as_nanos() as u64;
        let timing = KernelTiming {
            assemble_ns: run_ns.saturating_sub(self.solve_ns),
            solve_ns: self.solve_ns,
        };
        // A poisoned pool means a task panicked: the panic is already on
        // its way to the caller, the scratch is only a cache and the
        // sweep's timing will never be reported.
        if let (Some(scratch), Ok(mut pool)) = (self.scratch.take(), self.pool.lock()) {
            pool.timing.accumulate(timing);
            pool.idle.push(scratch);
        }
    }
}

impl SweepDomain {
    /// Build the domain owning `cells` (global ids, in local order), with
    /// the masked schedules of its angles.
    pub fn new(assets: &SharedAssets, cells: Vec<usize>) -> Result<Self> {
        let mesh = &assets.mesh;
        let mut local_of_cell = vec![FOREIGN; mesh.num_cells()];
        for (local, &cell) in cells.iter().enumerate() {
            local_of_cell[cell] = local;
        }
        // A wavefront schedule is only "potentially unique" per angle
        // (§III-A.2): angles whose upwind patterns agree share one — on the
        // paper's meshes, every angle of an octant.  A mask owning every
        // cell yields whole-mesh schedules.
        let owned: Vec<bool> = local_of_cell.iter().map(|&l| l != FOREIGN).collect();
        let omegas = assets.quadrature.directions().iter().map(|d| d.omega);
        let schedules = SweepSchedules::build(mesh, omegas, &owned)
            .map_err(|e| Error::schedule("an upwind pattern of the quadrature", e))?;

        let problem = &assets.problem;
        let nodes = assets.element.nodes_per_element();
        let order = problem.scheme.loop_order;
        let scalar = FluxLayout::scalar(nodes, cells.len(), problem.num_groups, order);
        let angles = (0..schedules.num_angles()).map(|angle| schedules.schedule(angle));
        let scheduled: usize = angles.clone().map(|s| s.num_cells_scheduled()).sum();
        Ok(Self {
            cells,
            local_of_cell,
            traces: TraceTable::default(),
            sweep_buckets: angles.map(|s| s.num_buckets()).sum(),
            sweep_tasks: (scheduled * problem.num_groups) as u64,
            schedules,
            exported: Vec::new(),
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

    /// Publish the traces this domain exports into their slots of `halo`,
    /// the one range of it this domain writes: the domain's half of a halo
    /// exchange.
    pub fn publish(&self, halo: &mut HaloFlux) {
        let at = self.traces.at;
        halo.psi[at..at + self.exported.len()].copy_from_slice(&self.exported);
    }

    /// From the next sweep on, keep ψ of every angle — cells × angles of
    /// memory a sweep does not need: it is for callers that compare ψ,
    /// and for a time-dependent run.
    pub(crate) fn keep_angular_flux(&mut self) {
        let layout = FluxLayout {
            num_angles: self.schedules.num_angles(),
            ..*self.phi.layout()
        };
        self.kept.get_or_insert_with(|| FluxStorage::zeros(layout));
    }
}

/// The angular flux that crosses the cuts between the domains of one
/// driver, as *face traces*: one slot per (cut face, angle) that the
/// masked schedule of the cell downwind of it lists as an inflow face —
/// what a halo message (`unsnap_comm::halo::HaloMessage`) would carry for
/// each face read, and nothing else.
///
/// A slot holds `groups × nf` values, group after group, each group's face
/// nodes in the writer's canonical face order.  Slots are numbered writing
/// domain by writing domain, so a domain's exports are one range of the
/// halo; within a domain angle by angle, then by (local cell, face).  A domain
/// reads a foreign cell here and nowhere else, and keeps no ψ of its own
/// beyond a sweep, so this buffer and φ are the whole of what one iteration
/// hands the next.  A driver with a single domain has no cut and needs no
/// halo.
pub struct HaloFlux {
    /// The traces, slot after slot.
    psi: Vec<f64>,
    /// Values per slot.
    slot_len: usize,
    /// `0..nf`: where each face node sits in a trace.
    trace_nodes: Vec<usize>,
}

impl HaloFlux {
    /// The zeroed halo of `domains`, which together own every cell of the
    /// mesh of `assets`, with each domain's share of the slot table: from
    /// the readers' schedules, every inflow face whose upwind cell another
    /// domain owns is one slot per angle.
    pub fn new(assets: &SharedAssets, domains: &mut [SweepDomain]) -> Self {
        let mesh = &assets.mesh;
        let mut owner = vec![(FOREIGN, FOREIGN); mesh.num_cells()];
        for (d, domain) in domains.iter().enumerate() {
            for (local, &cell) in domain.cells.iter().enumerate() {
                owner[cell] = (d, local);
            }
        }
        // Every read across a cut: the trace it reads — (writer, angle,
        // writer's local cell, face) — and who reads it.
        let mut reads = Vec::new();
        for (reader, domain) in domains.iter().enumerate() {
            for angle in 0..domain.schedules.num_angles() {
                for (local, &cell) in domain.cells.iter().enumerate() {
                    for face in domain.schedules.schedule(angle).inflow_faces(cell) {
                        let NeighborRef::Interior {
                            cell: up,
                            face: up_face,
                        } = mesh.neighbor(cell, face)
                        else {
                            continue;
                        };
                        let (writer, up_local) = owner[up];
                        if writer != reader {
                            let trace = (writer, angle, up_local, up_face);
                            reads.push((trace, (reader, local, face)));
                        }
                    }
                }
            }
        }
        reads.sort_unstable();

        let num_angles = assets.quadrature.num_angles();
        let nf = assets.face_nodes[0].len();
        let slot_len = assets.problem.num_groups * nf;
        for domain in domains.iter_mut() {
            domain.traces = TraceTable {
                angle_writes: vec![0; num_angles + 1],
                ..TraceTable::default()
            };
        }
        for (slot, &((writer, angle, local, face), (reader, r_local, r_face))) in
            reads.iter().enumerate()
        {
            let traces = &mut domains[writer].traces;
            if traces.writes.is_empty() {
                traces.at = slot * slot_len;
            }
            traces.writes.push((local, face));
            traces.angle_writes[angle + 1] += 1;
            let key = (angle, r_local, r_face);
            domains[reader].traces.reads.push((key, slot));
        }
        for domain in domains.iter_mut() {
            let traces = &mut domain.traces;
            for angle in 0..num_angles {
                traces.angle_writes[angle + 1] += traces.angle_writes[angle];
            }
            traces.reads.sort_unstable();
            domain.exported = vec![0.0; traces.writes.len() * slot_len];
        }
        Self {
            psi: vec![0.0; reads.len() * slot_len],
            slot_len,
            trace_nodes: (0..nf).collect(),
        }
    }

    /// The traces of `groups` in `slot`: one block of `nf` values each.
    fn trace(&self, slot: usize, groups: &Range<usize>) -> &[f64] {
        let nf = self.trace_nodes.len();
        let start = slot * self.slot_len + groups.start * nf;
        &self.psi[start..start + groups.len() * nf]
    }

    /// The halo ψ in storage order: with φ, a driver's resumable state.
    pub fn as_slice(&self) -> &[f64] {
        &self.psi
    }

    /// Mutable access, for reinstalling checkpointed state.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.psi
    }
}

/// Cut the tasks `tasks` of a bucket — numbered in loop-nest order, one
/// outer index after another — into runs of consecutive tasks: greedily
/// into runs of the `widths` (widest first), then the remainder task by
/// task.  A run may span the elements of the bucket; [`Segments`] splits
/// it into its elements' shares.
fn for_each_task(tasks: Range<usize>, widths: &[usize], mut visit: impl FnMut(Range<usize>)) {
    let mut first = tasks.start;
    for &width in widths {
        while tasks.end - first >= width {
            visit(first..first + width);
            first += width;
        }
    }
    (first..tasks.end).for_each(|task| visit(task..task + 1));
}

/// A run's share of one element: its groups `groups`, solved in the run's
/// lanes from `lane` on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    element: usize,
    groups: Range<usize>,
    lane: usize,
}

/// The segments of a run of tasks of one bucket, in loop-nest order: in
/// `angle/element/group` order an element's consecutive groups in the run
/// are one segment, in `angle/group/element` order every task is one.
#[derive(Clone)]
struct Segments<'b> {
    order: LoopOrder,
    bucket: &'b [usize],
    /// Length of the inner loop: the groups, or the bucket's elements.
    inner_len: usize,
    /// Loop-nest position of the next task.
    outer: usize,
    inner: usize,
    /// Tasks not yet visited.
    left: usize,
    /// The lane of the next segment.
    lane: usize,
}

impl<'b> Segments<'b> {
    fn new(order: LoopOrder, bucket: &'b [usize], num_groups: usize, tasks: Range<usize>) -> Self {
        let inner_len = match order {
            LoopOrder::ElementThenGroup => num_groups,
            LoopOrder::GroupThenElement => bucket.len(),
        };
        Self {
            order,
            bucket,
            inner_len,
            outer: tasks.start / inner_len,
            inner: tasks.start % inner_len,
            left: tasks.len(),
            lane: 0,
        }
    }
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.left == 0 {
            return None;
        }
        let (element, groups) = match self.order {
            LoopOrder::ElementThenGroup => {
                let end = self.inner_len.min(self.inner + self.left);
                (self.bucket[self.outer], self.inner..end)
            }
            LoopOrder::GroupThenElement => (self.bucket[self.inner], self.outer..self.outer + 1),
        };
        let (width, lane) = (groups.len(), self.lane);
        (self.left, self.lane, self.inner) = (self.left - width, lane + width, self.inner + width);
        if self.inner == self.inner_len {
            (self.outer, self.inner) = (self.outer + 1, 0);
        }
        Some(Segment {
            element,
            groups,
            lane,
        })
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
    /// How wide a sweep forks; 1 sweeps on the calling thread.
    width: usize,
    local_of_cell: &'a [usize],
    /// The halo slots of the foreign faces this domain reads.
    traces: &'a TraceTable,
    schedules: &'a SweepSchedules,
    /// The source terms `M q` of the tasks.
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
    /// Lengths of the runs of tasks a walker solves in lockstep, widest
    /// first: what the dense solver offers for the element size.
    lanes: &'static [usize],
}

impl SweepView<'_> {
    /// Where the node blocks of `groups` of `local` sit in a slab: one
    /// contiguous run when the groups are more than one (the
    /// `angle/element/group` layout).
    fn blocks(&self, local: usize, groups: &Range<usize>) -> Range<usize> {
        let base = self.slab.base(local, groups.start, 0);
        base..base + groups.len() * self.slab.nodes_per_element
    }

    /// The segments of the run `tasks` of `bucket`.
    fn segments<'b>(&self, bucket: &'b [usize], tasks: Range<usize>) -> Segments<'b> {
        let problem = &self.assets.problem;
        Segments::new(problem.scheme.loop_order, bucket, problem.num_groups, tasks)
    }

    /// The one local task of a sweep: gather the upwind ψ of the run
    /// `tasks` of `bucket`, a bucket of `angle`, assemble the local systems
    /// and solve them, in one kernel call.  One task leaves
    /// ψ(element, group, angle) in `scratch.kernel.rhs`; a longer run leaves
    /// its fluxes side by side (`KernelScratch::lane_solution`).  Returns
    /// the nanoseconds spent in eliminations, read only when the problem
    /// times solves.
    fn solve(
        &self,
        angle: usize,
        psi: &[f64],
        bucket: &[usize],
        tasks: Range<usize>,
        scratch: &mut TaskScratch,
    ) -> u64 {
        let a = self.assets;
        let TaskScratch {
            kernel, elements, ..
        } = scratch;
        for (slot, segment) in self.segments(bucket, tasks.clone()).enumerate() {
            if elements.len() == slot {
                elements.push(ElementSlot::default());
            }
            self.resolve(&mut elements[slot], angle, segment.element);
        }
        let omega = a.quadrature.directions()[angle].omega;
        let face_nodes: FaceNodes = std::array::from_fn(|f| a.face_nodes[f].as_slice());
        let segments = (self.segments(bucket, tasks.clone()).zip(elements.iter()))
            .map(|(segment, slot)| self.lane_segment(psi, &segment, slot));
        KernelEngine.assemble_solve_lanes(
            omega,
            &face_nodes,
            tasks.len(),
            segments,
            a.solver.as_ref(),
            a.problem.time_solve,
            kernel,
        )
    }

    /// Make `slot` describe `element` for `angle`: which of the three
    /// sources each inflow face reads — resolved when the slot last
    /// described another (element, angle), so a task then only looks up
    /// its groups' slices.
    fn resolve(&self, slot: &mut ElementSlot, angle: usize, element: usize) {
        let a = self.assets;
        if slot.key == Some((element, angle)) {
            return;
        }
        slot.inflow.clear();
        for face in self.schedules.schedule(angle).inflow_faces(element) {
            let source = match a.mesh.neighbor(element, face) {
                NeighborRef::Boundary { domain_face } => {
                    InflowSource::Boundary(a.problem.boundaries.face(domain_face).incoming_flux())
                }
                NeighborRef::Interior { cell, face: up } => match self.local_of_cell[cell] {
                    FOREIGN => InflowSource::Foreign {
                        slot: (self.traces).read_slot(angle, self.local_of_cell[element], face),
                        face: up,
                    },
                    local => InflowSource::Own { local, face: up },
                },
            };
            slot.inflow.push((face, source));
        }
        slot.key = Some((element, angle));
    }

    /// What the kernel reads of `segment`, whose element `slot` describes.
    ///
    /// Own-cell upwind ψ is read from `psi`, the slab of the angle (written
    /// earlier in the same sweep — the masked schedule guarantees it) as
    /// node blocks, foreign cells from the halo as face traces, boundary
    /// faces from the scaled inflow.
    fn lane_segment<'s>(
        &'s self,
        psi: &'s [f64],
        segment: &Segment,
        slot: &'s ElementSlot,
    ) -> LaneSegment<'s> {
        let a = self.assets;
        let (element, groups) = (segment.element, &segment.groups);
        let run_len = groups.len() * self.slab.nodes_per_element;
        let boundary_scale = if self.homogeneous { 0.0 } else { 1.0 };
        let upwind = slot.inflow.iter().map(|&(face, source)| {
            let source = match source {
                InflowSource::Boundary(flux) => UpwindSource::Boundary(boundary_scale * flux),
                InflowSource::Own { local, face } => UpwindSource::Interior {
                    neighbor_psi: &psi[self.blocks(local, groups)],
                    neighbor_face_nodes: &a.face_nodes[face],
                },
                InflowSource::Foreign { slot, face } => match self.halo {
                    Some(halo) if !self.homogeneous => UpwindSource::Interior {
                        neighbor_psi: halo.trace(slot, groups),
                        neighbor_face_nodes: &halo.trace_nodes,
                    },
                    _ => UpwindSource::Interior {
                        neighbor_psi: &self.zeros[..run_len],
                        neighbor_face_nodes: &a.face_nodes[face],
                    },
                },
            };
            UpwindFace { face, source }
        });
        let sigma_t = a.data.xs.totals(a.data.material(element), groups.clone());
        let terms = &self.source.as_slice()[self.blocks(self.local_of_cell[element], groups)];
        LaneSegment::new(element, &a.integrals[element], sigma_t, terms, upwind)
    }

    /// The one task loop: solve the tasks `tasks` of `bucket`, a bucket of
    /// `angle`, in loop-nest order, run by run.  A bucket reads only the ψ
    /// of earlier buckets, so a worker with the slab to itself stores a
    /// solved run before the next starts; a worker of a team stages the
    /// blocks of its share, which no task of the same region reads.
    fn walk(
        &self,
        angle: usize,
        bucket: &[usize],
        tasks: Range<usize>,
        mut psi: Slab,
        run: &mut TaskRun,
    ) {
        let TaskRun {
            scratch, solve_ns, ..
        } = run;
        let scratch = scratch.as_mut().expect("held until the run drops");
        scratch.staged.clear();
        let nodes = self.slab.nodes_per_element;
        for_each_task(tasks, self.lanes, |tasks| {
            *solve_ns += self.solve(angle, psi.read(), bucket, tasks.clone(), scratch);
            let TaskScratch { kernel, staged, .. } = &mut *scratch;
            // Node `i` of the run's task `l` is solved at `i · lanes + l`:
            // for one task, its node block.
            let lanes = tasks.len();
            let solved = kernel.lane_solution(lanes);
            for segment in self.segments(bucket, tasks) {
                let at = self.blocks(self.local_of_cell[segment.element], &segment.groups);
                let blocks = match &mut psi {
                    Slab::Own(psi) => &mut psi[at],
                    Slab::Shared(_) => {
                        let end = staged.len() + at.len();
                        staged.resize(end, 0.0);
                        &mut staged[end - at.len()..]
                    }
                };
                for (l, block) in (segment.lane..).zip(blocks.chunks_exact_mut(nodes)) {
                    for (i, p) in block.iter_mut().enumerate() {
                        *p = solved[i * lanes + l];
                    }
                }
            }
        });
    }

    /// Move what [`SweepView::walk`] staged of the same tasks into `psi`,
    /// cut into the same runs.
    fn store_staged(&self, bucket: &[usize], tasks: Range<usize>, psi: &mut [f64], run: &TaskRun) {
        let staged = &run
            .scratch
            .as_ref()
            .expect("held until the run drops")
            .staged;
        let mut blocks = staged.as_slice();
        for_each_task(tasks, self.lanes, |tasks| {
            for segment in self.segments(bucket, tasks) {
                let at = self.blocks(self.local_of_cell[segment.element], &segment.groups);
                let (solved, rest) = blocks.split_at(at.len());
                psi[at].copy_from_slice(solved);
                blocks = rest;
            }
        });
    }

    /// Walk one angle's buckets in wavefront order, on one worker.  `psi`
    /// is a slab, every entry of which the walk overwrites with ψ of
    /// `angle` before reading it.
    fn sweep_angle(&self, angle: usize, psi: &mut [f64], run: &mut TaskRun) {
        let ng = self.assets.problem.num_groups;
        for bucket in &self.schedules.schedule(angle).buckets {
            self.walk(angle, bucket, 0..bucket.len() * ng, Slab::Own(psi), run);
        }
    }

    /// Sweep every angle, spreading the work over a team along the
    /// scheme's parallel axis, and fold each into φ (zeroed by the caller)
    /// in ascending order.
    fn sweep(&self, mut fold: AngleFold, buffers: &mut BucketBuffers) -> KernelTiming {
        let problem = &self.assets.problem;
        let nodes = self.slab.nodes_per_element;
        let num_angles = self.schedules.num_angles();
        let BucketBuffers {
            scratch,
            slabs,
            parked,
        } = buffers;
        let (team, window) = sweep_team(problem.scheme, self.width, num_angles);
        // (Parked slabs are what a sweep that unwound left behind.)
        slabs.extend(parked.drain(..).map(|(_, slab)| slab));
        slabs.resize_with(slabs.len().max(window), || vec![0.0; self.slab.len()]);
        {
            let scratch = &*scratch;
            let begin = || TaskRun::begin(scratch, nodes);
            // One fork per sweep: every member of the team runs `work` once —
            // or the caller runs it for each member it has no thread for.
            let enter = |work: &(dyn Fn(usize) + Sync)| {
                team::fork(team, work);
            };
            match problem.scheme.threaded {
                // One worker — a width of 1, or a rank of a driver that
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
    /// How wide a sweep forks.  1 (or 0) sweeps on the calling thread —
    /// what a driver that already runs its domains concurrently passes.
    pub width: usize,
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
    /// domain's latest φ (the source-iteration lag) unless excluded; then
    /// each block's `M q`.
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
        self.form_source_terms();
    }

    /// Replace `q` in each (cell, group) block of the domain's source by
    /// its source term `M q`, once per source update rather than once per
    /// angle.
    fn form_source_terms(&mut self) {
        let a = self.assets;
        let SweepDomain {
            cells,
            source,
            buffers,
            ..
        } = &mut *self.domain;
        let layout = *source.layout();
        // An idle worker's kernel scratch holds each block's `M q` until it
        // replaces `q`, so a pass allocates nothing the sweep does not keep.
        let pool = buffers.scratch.get_mut().expect("a sweep task panicked");
        let nodes = layout.nodes_per_element;
        let mut worker = pool.idle.pop().unwrap_or_else(|| TaskScratch::new(nodes));
        let b = &mut worker.kernel.rhs;
        for (local, &cell) in cells.iter().enumerate() {
            let mass = &a.integrals[cell].mass;
            for g in 0..layout.num_groups {
                let q = source.nodes_mut(local, g, 0);
                kernel::source_term(mass, q, b);
                q.copy_from_slice(b);
            }
        }
        pool.idle.push(worker);
    }

    /// Sweep every angle of the domain along its wavefront schedules,
    /// accumulating φ.
    fn sweep_all(&mut self) -> KernelTiming {
        let SweepDomain {
            local_of_cell,
            traces,
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
        let nodes = self.assets.element.nodes_per_element();
        let view = SweepView {
            assets: self.assets,
            width: self.width.max(1),
            local_of_cell,
            traces,
            schedules,
            source,
            slab: *phi.layout(),
            halo: self.halo,
            homogeneous: *homogeneous,
            zeros,
            lanes: self.assets.solver.lane_widths(nodes),
        };
        let fold = AngleFold {
            directions: self.assets.quadrature.directions(),
            slab: view.slab,
            phi: phi.as_mut_slice(),
            face_nodes: &self.assets.face_nodes,
            traces,
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
        self.form_source_terms();
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
                Some(&a.integrals),
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
        let seconds = a.clock.now().saturating_sub(t0).as_secs_f64();
        observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        result
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    use unsnap_linalg::{DenseMatrix, GaussSolver};
    use unsnap_mesh::{Decomposition2D, NUM_FACES};
    use unsnap_sweep::ConcurrencyScheme;

    use super::*;
    use crate::session::NoopObserver;
    use crate::team::tests::with_spawns_refused;

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

    /// One sweep of every cell of `problem` by a team `width` wide — with
    /// every member run by the caller, one after another, if its spawns are
    /// `refused` — with a solver failing `at` each solve listed, then one
    /// with a sound solver: φ of that last sweep, and of the same sweep on a
    /// domain no task of which ever panicked.
    fn sweep_after_panics(
        problem: &Problem,
        (width, refused): (usize, bool),
        at: &[usize],
    ) -> [Vec<u64>; 2] {
        let mut assets = SharedAssets::build(problem, width);
        let cells = || (0..assets.mesh.num_cells()).collect();
        let mut domains = [(); 2].map(|()| SweepDomain::new(&assets, cells()).unwrap());
        let phi_outer = FluxStorage::zeros(*domains[0].phi.layout());
        let sweep = |assets: &SharedAssets, domain: &mut SweepDomain| {
            let mut context = DomainContext {
                assets,
                width,
                phi_outer: &phi_outer,
                halo: None,
                domain,
                inner_budget: 1,
            };
            // A sweep that unwound left a part of φ behind.
            context.domain.phi.fill(0.0);
            context.compute_source();
            let mut sweep = || context.sweep_once(&mut RunStats::default(), &mut NoopObserver);
            if refused {
                with_spawns_refused(sweep);
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
    fn the_schedule_and_the_kernel_classify_every_face_alike() {
        // The schedule reads a face as inflow when Ω·n < -1e-12 with the
        // corner normal; the kernel assembles a face as outflow when Ω·n > 0
        // with the quadrature-averaged normal of the element's integrals.
        // A face both or neither would lose or double-count its flux.
        // Every preset mesh, at its own twist and at the workloads' largest.
        for name in Problem::registry_names() {
            let preset = Problem::from_name(name).unwrap();
            // The published Figure 4 and Table II sizes (order 3 on 16³,
            // order 2 on 32³) take minutes to integrate in a debug build, so
            // their meshes are checked with the linear element.  What the
            // kernel reads is a Gauss average of a bilinear face's area
            // vector, exact at every order's rule: orders differ by
            // rounding only, and the scaled presets check 2 and 3 in full.
            let element_order = match preset.num_cells() {
                4096.. => 1,
                _ => preset.element_order,
            };
            for twist in [preset.twist, 0.0015] {
                let problem = Problem {
                    twist,
                    element_order,
                    ..preset.clone()
                };
                let assets = SharedAssets::build(&problem, 2);
                let mesh = &assets.mesh;
                let domain = SweepDomain::new(&assets, (0..mesh.num_cells()).collect()).unwrap();
                for (angle, direction) in assets.quadrature.directions().iter().enumerate() {
                    let omega = direction.omega;
                    let schedule = domain.schedules.schedule(angle);
                    for (cell, integrals) in assets.integrals.iter().enumerate() {
                        let mut inflow = schedule.inflow_faces(cell).peekable();
                        for face in 0..NUM_FACES {
                            let is_inflow = inflow.next_if_eq(&face).is_some();
                            let kernel = integrals.faces[face].direction_dot_normal(omega);
                            if is_inflow == (kernel < 0.0) {
                                continue;
                            }
                            let n = unsnap_sweep::face_outward_normal(mesh, cell, face);
                            let corner = n[0] * omega[0] + n[1] * omega[1] + n[2] * omega[2];
                            panic!(
                                "{name} at twist {twist}: cell {cell}, face {face}, angle \
                                 {angle}: the schedule's Ω·n is {corner:e}, the kernel's {kernel:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_source_holds_the_source_term_of_every_block() {
        // After each of the three source updates, every (cell, group) block
        // of the source is the right-hand side the reference assembly forms
        // from that block's `q` with no inflow: `M q`, bit for bit.
        for name in ["tiny", "dsa-regime"] {
            let problem = Problem::from_name(name).unwrap();
            let assets = SharedAssets::build(&problem, 1);
            let data = &assets.data;
            let cells = assets.mesh.num_cells();
            let mut domain = SweepDomain::new(&assets, (0..cells).collect()).unwrap();
            let layout = *domain.phi.layout();
            let n = layout.nodes_per_element;
            let values = |seed: f64| -> Vec<f64> {
                (0..layout.len())
                    .map(|i| seed + 0.01 * (i % 97) as f64)
                    .collect()
            };
            domain.phi.as_mut_slice().copy_from_slice(&values(0.5));
            let mut phi_outer = FluxStorage::zeros(layout);
            phi_outer.as_mut_slice().copy_from_slice(&values(1.5));
            let v = values(2.5);
            for update in ["compute_source", "compute_external_source", "within-group"] {
                let mut context = DomainContext {
                    assets: &assets,
                    width: 1,
                    phi_outer: &phi_outer,
                    halo: None,
                    domain: &mut domain,
                    inner_budget: 1,
                };
                match update {
                    "compute_source" => context.compute_source(),
                    "compute_external_source" => context.compute_external_source(),
                    _ => context.set_source_to_within_group_scatter(&v),
                }
                let mut reference = KernelScratch::new(n);
                for cell in 0..cells {
                    let mat = data.material(cell);
                    let integrals = &assets.integrals[cell];
                    for g in 0..layout.num_groups {
                        // `q` as the update forms it.
                        let base = layout.base(cell, g, 0);
                        let q: Vec<f64> = if update == "within-group" {
                            let sigma_s = data.xs.scatter(mat, g, g);
                            v[base..base + n].iter().map(|&x| sigma_s * x).collect()
                        } else {
                            let mut q = vec![data.fixed_source(cell); n];
                            for g_from in 0..layout.num_groups {
                                let sigma_s = data.xs.scatter(mat, g_from, g);
                                if sigma_s == 0.0
                                    || (g_from == g && update == "compute_external_source")
                                {
                                    continue;
                                }
                                let phi = if g_from == g { &domain.phi } else { &phi_outer };
                                for (q, &p) in q.iter_mut().zip(phi.nodes(cell, g_from, 0)) {
                                    *q += sigma_s * p;
                                }
                            }
                            q
                        };
                        let omega = assets.quadrature.directions()[0].omega;
                        kernel::assemble(integrals, omega, 1.0, &q, &[], &mut reference);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(domain.source.nodes(cell, g, 0)),
                            bits(&reference.rhs),
                            "{name}, {update}: cell {cell}, group {g}"
                        );
                    }
                }
            }
        }
    }

    /// The domains of `problem` on `npx × npy` ranks, with their halo.
    fn ranks(
        problem: &Problem,
        (npx, npy): (usize, usize),
    ) -> (SharedAssets, Vec<SweepDomain>, HaloFlux) {
        let assets = SharedAssets::build(problem, 1);
        let subdomains = Decomposition2D::new(npx, npy)
            .try_decompose(&assets.mesh)
            .unwrap();
        let mut domains: Vec<SweepDomain> = subdomains
            .into_iter()
            .map(|sd| SweepDomain::new(&assets, sd.global_cells).unwrap())
            .collect();
        let halo = HaloFlux::new(&assets, &mut domains);
        (assets, domains, halo)
    }

    /// One sweep of `domain` from a zero φ, reading `halo`.
    fn sweep_rank(assets: &SharedAssets, domain: &mut SweepDomain, halo: &HaloFlux) {
        let problem = &assets.problem;
        let nodes = assets.element.nodes_per_element();
        let cells = assets.mesh.num_cells();
        let order = problem.scheme.loop_order;
        let phi_outer =
            FluxStorage::zeros(FluxLayout::scalar(nodes, cells, problem.num_groups, order));
        domain.phi.fill(0.0);
        let mut context = DomainContext {
            assets,
            width: 1,
            phi_outer: &phi_outer,
            halo: Some(halo),
            domain,
            inner_budget: 1,
        };
        context.compute_source();
        context.sweep_once(&mut RunStats::default(), &mut NoopObserver);
    }

    #[test]
    fn halo_traces_have_one_writer_and_one_reader() {
        // The `jacobi-2x2` shape of the repository benchmark: 8³ order-1
        // cells, 48 angles, 16 groups on 2 × 2 ranks.
        let problem = Problem {
            nx: 8,
            ny: 8,
            nz: 8,
            angles_per_octant: 6,
            num_groups: 16,
            ..Problem::tiny()
        };
        let (assets, domains, halo) = ranks(&problem, (2, 2));
        let mesh = &assets.mesh;
        // Every (reader cell, inflow face, angle) of the readers' masked
        // schedules whose upwind cell another domain owns.
        let reads: usize = domains
            .iter()
            .flat_map(|domain| {
                let schedules = &domain.schedules;
                (0..schedules.num_angles()).map(move |a| (domain, schedules.schedule(a)))
            })
            .map(|(domain, schedule)| {
                let foreign = |(cell, face): (usize, usize)| match mesh.neighbor(cell, face) {
                    NeighborRef::Interior { cell, .. } => domain.local_of_cell[cell] == FOREIGN,
                    NeighborRef::Boundary { .. } => false,
                };
                let faces = domain
                    .cells
                    .iter()
                    .flat_map(|&c| schedule.inflow_faces(c).map(move |f| (c, f)));
                faces.filter(|&read| foreign(read)).count()
            })
            .sum();
        let nf = assets.face_nodes[0].len();
        let slot_len = problem.num_groups * nf;
        let slots = halo.as_slice().len() / slot_len;
        assert_eq!((slots, reads), (6144, 6144));
        assert_eq!(std::mem::size_of_val(halo.as_slice()), 3_145_728);

        // Each slot has one writer and one reader, on the two sides of one
        // face, for the same angle.
        let mut writer = vec![None; slots];
        for domain in &domains {
            let first = domain.traces.at / slot_len;
            assert_eq!(domain.exported.len(), domain.traces.writes.len() * slot_len);
            for angle in 0..problem.num_angles() {
                let (at, traces) = domain.traces.writes_of(angle);
                for (i, &(local, face)) in traces.iter().enumerate() {
                    let slot = &mut writer[first + at + i];
                    assert!(slot.is_none(), "slot {} written twice", first + at + i);
                    *slot = Some((domain.cells[local], face, angle));
                }
            }
        }
        let mut read = vec![false; slots];
        for domain in &domains {
            for &((angle, local, face), slot) in &domain.traces.reads {
                assert!(
                    !std::mem::replace(&mut read[slot], true),
                    "slot {slot} read twice"
                );
                let (cell, up_face, up_angle) = writer[slot].expect("every slot is written");
                assert_eq!(angle, up_angle, "slot {slot}");
                assert!(
                    matches!(
                        mesh.neighbor(domain.cells[local], face),
                        NeighborRef::Interior { cell: c, face: f } if (c, f) == (cell, up_face)
                    ),
                    "slot {slot} is read across another face than it is written on"
                );
            }
        }
        assert!(read.iter().all(|&r| r), "a slot nobody reads");
    }

    #[test]
    fn halo_traces_are_never_dead() {
        // No slot is dead: each is read by a task whose solve reaches φ.
        let problem = Problem::tiny();
        let (assets, mut domains, mut halo) = ranks(&problem, (2, 2));
        let slot_len = halo.slot_len;
        let slots = halo.as_slice().len() / slot_len;
        assert!(slots > 0);
        for slot in 0..slots {
            let reader = (domains.iter())
                .position(|d| d.traces.reads.iter().any(|&(_, s)| s == slot))
                .expect("every slot is read");
            halo.as_mut_slice().fill(0.0);
            halo.as_mut_slice()[slot * slot_len..][..slot_len].fill(f64::NAN);
            sweep_rank(&assets, &mut domains[reader], &halo);
            let phi = domains[reader].phi.as_slice();
            assert!(
                phi.iter().any(|v| v.is_nan()),
                "slot {slot} never reaches φ"
            );
        }
    }

    #[test]
    fn halo_traces_are_never_stale() {
        // Nothing in the halo is stale: whatever an export buffer held, one
        // sweep of its domain rewrites all of it, in either storage order.
        for loop_order in [LoopOrder::ElementThenGroup, LoopOrder::GroupThenElement] {
            let problem = Problem::tiny()
                .with_scheme(ConcurrencyScheme::new(loop_order, ThreadedLoops::Collapsed));
            let (assets, mut domains, mut halo) = ranks(&problem, (2, 2));
            for domain in &mut domains {
                domain.exported.fill(f64::NAN);
                sweep_rank(&assets, domain, &halo);
                assert!(
                    domain.exported.iter().all(|v| v.is_finite()),
                    "{loop_order:?}"
                );
            }
            // And the domains' exports cover the halo.
            halo.as_mut_slice().fill(f64::NAN);
            for domain in &domains {
                domain.publish(&mut halo);
            }
            assert!(
                halo.as_slice().iter().all(|v| v.is_finite()),
                "{loop_order:?}"
            );
        }
    }

    /// The (element, group) of task `task` of `bucket`, numbered in
    /// loop-nest order.
    fn task_at(order: LoopOrder, bucket: &[usize], groups: usize, task: usize) -> (usize, usize) {
        match order {
            LoopOrder::ElementThenGroup => (bucket[task / groups], task % groups),
            LoopOrder::GroupThenElement => (bucket[task % bucket.len()], task / bucket.len()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        #[test]
        fn run_cuts_visit_every_task_once_in_loop_nest_order(
            group_outer in 0usize..2,
            groups in 1usize..=17,
            elements in 1usize..=21,
            (from, to) in (0usize..1000, 0usize..1000),
        ) {
            let order = [LoopOrder::ElementThenGroup, LoopOrder::GroupThenElement][group_outer];
            let bucket: Vec<usize> = (0..elements).map(|e| 100 + 7 * e).collect();
            // An arbitrary share of the bucket's tasks: the whole bucket, or
            // a team member's part of it.
            let total = elements * groups;
            let (lo, hi) = (from % (total + 1), to % (total + 1));
            let tasks = lo.min(hi)..lo.max(hi);
            let mut next = tasks.start;
            let mut widths = Vec::new();
            for_each_task(tasks.clone(), &[16, 4], |run| {
                assert_eq!(run.start, next, "runs follow each other");
                assert!(run.end <= tasks.end && !run.is_empty());
                widths.push(run.len());
                let mut lane = 0;
                for segment in Segments::new(order, &bucket, groups, run.clone()) {
                    assert_eq!(segment.lane, lane, "segments fill the lanes in order");
                    for g in segment.groups.clone() {
                        let expected = task_at(order, &bucket, groups, next);
                        assert_eq!((segment.element, g), expected, "task {next}");
                        next += 1;
                    }
                    lane += segment.groups.len();
                }
                assert_eq!(lane, run.len(), "a run's segments hold its tasks");
            });
            assert_eq!(next, tasks.end, "every task once");
            // Widest first, and never wider than the widest lane count.
            assert!(widths.windows(2).all(|w| w[0] >= w[1]), "{widths:?}");
            assert!(widths.iter().all(|w| [16, 4, 1].contains(w)), "{widths:?}");
            assert!(widths.iter().filter(|&&w| w < 16).sum::<usize>() < 16);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn staged_blocks_go_back_where_the_walk_solved_them(
            group_outer in 0usize..2,
            groups in 1usize..=17,
            cuts in proptest::collection::vec(0usize..1000, 0..5),
        ) {
            // Both loop orders on a 5³ order-1 mesh (buckets of up to 19
            // elements): every bucket of an angle walked whole on the slab
            // of a worker alone, and again cut into arbitrary shares, each
            // walked on a shared slab, staged and stored.  Both slabs must
            // agree in every bit after every bucket.
            let order = [LoopOrder::ElementThenGroup, LoopOrder::GroupThenElement][group_outer];
            let scheme = ConcurrencyScheme::new(order, ThreadedLoops::Collapsed);
            let problem = Problem::tiny()
                .with_scheme(scheme)
                .with_mesh(5)
                .with_phase_space(1, groups);
            let assets = SharedAssets::build(&problem, 1);
            let cells = (0..assets.mesh.num_cells()).collect();
            let mut domain = SweepDomain::new(&assets, cells).expect("a domain of every cell");
            let len = domain.source.as_slice().len();
            let values = (0..len).map(|i| 0.5 + 0.01 * (i % 53) as f64);
            domain.source.as_mut_slice().iter_mut().zip(values).for_each(|(q, v)| *q = v);
            let view = SweepView {
                assets: &assets,
                width: 1,
                local_of_cell: &domain.local_of_cell,
                traces: &domain.traces,
                schedules: &domain.schedules,
                source: &domain.source,
                slab: *domain.phi.layout(),
                halo: None,
                homogeneous: false,
                zeros: &domain.zeros,
                lanes: assets.solver.lane_widths(assets.element.nodes_per_element()),
            };
            assert_eq!(view.lanes, [16, 4]);
            let pool = Mutex::default();
            let mut run = TaskRun::begin(&pool, assets.element.nodes_per_element());
            let (mut alone, mut shared) = (vec![0.0; view.slab.len()], vec![0.0; view.slab.len()]);
            for angle in [0, 5] {
                for bucket in &domain.schedules.schedule(angle).buckets {
                    let total = bucket.len() * groups;
                    view.walk(angle, bucket, 0..total, Slab::Own(&mut alone), &mut run);
                    let mut ends: Vec<usize> = cuts.iter().map(|c| c % (total + 1)).collect();
                    ends.push(total);
                    ends.sort_unstable();
                    let mut start = 0;
                    for end in ends {
                        let share = start..end;
                        view.walk(angle, bucket, share.clone(), Slab::Shared(&shared), &mut run);
                        view.store_staged(bucket, share, &mut shared, &run);
                        start = end;
                    }
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&alone) == bits(&shared), "{order:?}, {groups} groups, angle {angle}");
                }
            }
        }
    }

    #[test]
    fn a_team_not_all_of_which_runs_keeps_the_bits() {
        let sweep = |problem: &Problem, team| sweep_after_panics(problem, team, &[])[0].clone();
        // More workers than angles, past `TransportSolver`'s cap on the
        // width — what `RAYON_NUM_THREADS` does to every team.
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
        // With no thread for any other member, the caller runs the members
        // of a team one after another: the first waits for nobody, and
        // leaves the others nothing.
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
