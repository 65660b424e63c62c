//! A warm sweep allocates nothing per task or per region of a bucket, a
//! solver's memory does not grow with the angles, and building a solver
//! allocates nothing per cell.
//!
//! The whole file is one test, and it runs without libtest's harness
//! (`harness = false`): the counters are process-wide (worker threads
//! allocate too), so a second test running beside it would be counted —
//! and so would libtest's output capture, which hooks every thread a sweep
//! starts with two allocations of its own that no build outside a test
//! harness makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use unsnap_core::problem::Problem;
use unsnap_core::session::NoopObserver;
use unsnap_core::solver::{RunStats, TransportSolver};
use unsnap_core::strategy::InnerSolveContext;
use unsnap_sweep::ConcurrencyScheme;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most that has been.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every allocation and the bytes live (a
/// `realloc` or an `alloc_zeroed` goes through the default implementation,
/// hence through `alloc`).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fewest allocations of a warm sweep of `problem`: the first sweep warms
/// every buffer, then `sweeps` more are counted one by one.  (One is
/// enough at one thread.  A wider pool creates a worker's scratch the
/// first time that many of its jobs overlap, which need not be during the
/// first sweep — but it never creates more scratches than it has workers,
/// so of `width + 1` sweeps at least one creates none.)
fn warm_sweep_allocations(problem: &Problem, sweeps: u64) -> u64 {
    let mut solver = TransportSolver::new(problem).expect("a valid problem");
    let mut stats = RunStats::default();
    let mut observer = NoopObserver;
    solver.compute_source();
    solver.sweep_once(&mut stats, &mut observer);
    (0..sweeps)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            solver.sweep_once(&mut stats, &mut observer);
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one counted sweep")
}

/// A solver of `problem` built and swept twice: the bytes live once it is
/// built, the most live at once up to the end of the second sweep (both
/// above what was live before), and the bytes of its distinct schedules.
fn footprint_of_two_sweeps(problem: &Problem) -> (usize, usize, usize) {
    let live = || LIVE_BYTES.load(Ordering::Relaxed);
    let before = live();
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let mut solver = TransportSolver::new(problem).expect("a valid problem");
    let built = live() - before;
    let mut stats = RunStats::default();
    solver.compute_source();
    solver.sweep_once(&mut stats, &mut NoopObserver);
    solver.sweep_once(&mut stats, &mut NoopObserver);
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    let held = live();
    let copy = solver.schedules().distinct().to_vec();
    let schedules = live() - held;
    drop(copy);
    (built, peak, schedules)
}

/// Allocations `TransportSolver::new(problem)` makes.
fn setup_allocations(problem: &Problem) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let solver = TransportSolver::new(problem).expect("a valid problem");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(solver);
    made
}

fn main() {
    a_warm_sweep_allocates_nothing_per_task();
    set_up_allocates_nothing_per_cell();
}

/// The integrals of every cell live in one store, integrated chunk by
/// chunk with one scratch per chunk: twice the cells add fewer allocations
/// than cells (one `ElementIntegrals` per cell made 29 each).
fn set_up_allocates_nothing_per_cell() {
    let widths = unsnap_core::team::forced_width().map_or(vec![1, 2], |forced| vec![forced]);
    for width in widths {
        let small = Problem::tiny()
            .with_scheme(ConcurrencyScheme::best())
            .with_threads(width)
            .with_mesh(6);
        let doubled = Problem {
            nx: 2 * small.nx,
            ..small.clone()
        };
        let added = (doubled.num_cells() - small.num_cells()) as u64;
        let (before, after) = (setup_allocations(&small), setup_allocations(&doubled));
        assert!(
            after - before < added,
            "set-up at width {width}: {before} allocations for {} cells, {after} for {}",
            small.num_cells(),
            doubled.num_cells()
        );
    }
}

fn a_warm_sweep_allocates_nothing_per_task() {
    // `RAYON_NUM_THREADS` (the CI determinism matrix) overrides every
    // team's width, so "one thread" exists only when it is unset or 1.
    let forced_width = unsnap_core::team::forced_width();
    let default_scheme = Problem::tiny().with_scheme(ConcurrencyScheme::best());

    if forced_width.unwrap_or(1) == 1 {
        assert_eq!(
            warm_sweep_allocations(&default_scheme.clone().with_threads(1), 1),
            0,
            "a warm single-thread sweep must not allocate"
        );
        // 21 groups of an order-1 element are a run of 16, a run of 4 and
        // one group on its own: the lane buffers are part of the worker's
        // kernel scratch, sized by the first sweep like the rest of it.
        let lockstep = default_scheme.clone().with_threads(1);
        assert_eq!(
            warm_sweep_allocations(&lockstep.with_phase_space(2, 21), 1),
            0,
            "a warm sweep that solves groups in lockstep must not allocate"
        );
    }
    let width = forced_width.unwrap_or(2) as u64;

    // The default scheme forks once per sweep, and a fork allocates in
    // the pool (the item list, a few boxes per worker): a number per sweep
    // that depends on the pool's width and on nothing else.  Both meshes
    // have at least as many angles as the widest pool of the CI matrix has
    // workers.
    let small = default_scheme
        .clone()
        .with_threads(2)
        .with_mesh(4)
        .with_phase_space(2, 32);
    let doubled = Problem {
        nx: 2 * small.nx,
        ..small.clone()
    };
    let per_sweep = warm_sweep_allocations(&small, width + 1);
    let more_angles = small.clone().with_phase_space(4, 32);
    for grown in [&doubled, &more_angles] {
        assert_eq!(
            per_sweep,
            warm_sweep_allocations(grown, width + 1),
            "allocations per sweep must not grow with the cells, buckets or angles"
        );
    }
    assert!(
        per_sweep <= 4 + 3 * width,
        "{per_sweep} allocations per warm sweep at width {width}"
    );

    // Memory is O(workers), not O(angles): ψ is a few slabs of scratch.
    // What two sweeps add to a built solver is the slab window
    // `Problem::sweep_scratch_bytes` states and a kernel scratch per worker;
    // twice the angles are the same schedules — one per upwind pattern,
    // which the angles of an octant share — and not one slab more; and
    // the whole solver — its integrals alone are six slabs of this
    // problem's — stays below half of what storing ψ would take.
    let slabs = default_scheme.with_mesh(6).with_phase_space(6, 16);
    assert_eq!((slabs.num_angles(), slabs.element_order), (48, 1));
    let slab = slabs.angular_flux_bytes() / slabs.num_angles();
    let twice_the_angles = slabs.clone().with_phase_space(12, 16);
    for width in forced_width.map_or(vec![1, 2], |forced| vec![forced]) {
        let problem = slabs.clone().with_threads(width);
        let (built, peak, schedules) = footprint_of_two_sweeps(&problem);
        let window = problem.sweep_scratch_bytes(width);
        assert!(
            peak - built <= window + width * 32 * 1024,
            "two sweeps at width {width} added {} bytes to the solver, the window is {window}",
            peak - built
        );
        if width <= 2 {
            assert!(
                peak < slabs.angular_flux_bytes() / 2,
                "a solver at width {width} peaked at {peak} bytes: {} slabs of 48",
                peak / slab
            );
        }
        let (_, peak_twice, schedules_twice) =
            footprint_of_two_sweeps(&twice_the_angles.clone().with_threads(width));
        assert_eq!(
            schedules_twice, schedules,
            "twice the angles at width {width} hold other schedules"
        );
        assert!(
            peak_twice - peak < 2 * slab,
            "twice the angles at width {width}: {} more bytes, a slab is {slab}",
            peak_twice - peak
        );
    }

    // The paper's schemes fork once per sweep too, into a team that shares
    // every region of every bucket: the same number per sweep, whatever the
    // regions (twice the cells), the tasks in them (four times the groups)
    // and the way the scheme cuts them.
    let labels = [
        "angle/element*/group",
        "angle/element/group*",
        "angle/group*/element*",
    ];
    for label in labels {
        let scheme = label.parse().expect("a figure label");
        let small = Problem::tiny().with_threads(2).with_scheme(scheme);
        let doubled = Problem {
            nx: 2 * small.nx,
            ..small.clone()
        };
        let more_groups = small.clone().with_phase_space(2, 4 * small.num_groups);
        let per_sweep = warm_sweep_allocations(&small, width + 1);
        for grown in [&doubled, &more_groups] {
            assert_eq!(
                per_sweep,
                warm_sweep_allocations(grown, width + 1),
                "{label}: allocations per sweep must not grow with the regions or their tasks"
            );
        }
        assert!(
            per_sweep <= 4 + 3 * width,
            "{label}: {per_sweep} allocations per warm sweep at width {width}"
        );
    }
}
