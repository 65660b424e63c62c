//! A warm sweep allocates nothing per task.
//!
//! The whole file is one test: the counter is process-wide (worker threads
//! allocate too), so a second test running beside it would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use unsnap_core::problem::Problem;
use unsnap_core::session::NoopObserver;
use unsnap_core::solver::{RunStats, TransportSolver};
use unsnap_core::strategy::InnerSolveContext;
use unsnap_sweep::ConcurrencyScheme;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation (a `realloc` goes
/// through the default implementation, hence through `alloc`).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

#[test]
fn a_warm_sweep_allocates_nothing_per_task() {
    // `RAYON_NUM_THREADS` (the CI determinism matrix) overrides every
    // pool width, so "one thread" exists only when it is unset or 1.
    let forced_width = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
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

    // The default scheme forks twice per sweep — the angles, then the
    // tiles of the scalar-flux reduction — and a fork allocates in the
    // pool (the item list, a few boxes per worker): a number per sweep
    // that depends on the pool's width and on nothing else.  Both meshes
    // have at least as many angles and reduction tiles as the widest pool
    // of the CI matrix has workers.
    let small = default_scheme
        .with_threads(2)
        .with_mesh(4)
        .with_phase_space(2, 32);
    let doubled = Problem {
        nx: 2 * small.nx,
        ..small.clone()
    };
    let per_sweep = warm_sweep_allocations(&small, width + 1);
    assert_eq!(
        per_sweep,
        warm_sweep_allocations(&doubled, width + 1),
        "allocations per sweep must not grow with the cells, buckets or tiles"
    );
    assert!(
        per_sweep <= 8 + 5 * width,
        "{per_sweep} allocations per warm sweep at width {width}"
    );

    // The paper's schemes fork per bucket region: a number per region,
    // whatever the number of tasks in it.  Four times the groups is four
    // times the tasks in the same regions.
    let forked = |groups| {
        let problem = Problem::tiny().with_threads(2).with_phase_space(2, groups);
        warm_sweep_allocations(&problem, width + 1)
    };
    assert_eq!(
        forked(2),
        forked(8),
        "allocations per sweep must not grow with the tasks per bucket"
    );
}
