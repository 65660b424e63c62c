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

/// Allocations of the second of two sweeps of `problem` (the first warms
/// every buffer).
fn second_sweep_allocations(problem: &Problem) -> u64 {
    let mut solver = TransportSolver::new(problem).expect("a valid problem");
    let mut stats = RunStats::default();
    let mut observer = NoopObserver;
    solver.compute_source();
    solver.sweep_once(&mut stats, &mut observer);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    solver.sweep_once(&mut stats, &mut observer);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_sweep_allocates_nothing_per_task() {
    // `RAYON_NUM_THREADS` (the CI determinism matrix) overrides every
    // pool width, so "one thread" exists only when it is unset or 1.
    let forced_width = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);

    if forced_width.unwrap_or(1) == 1 {
        assert_eq!(
            second_sweep_allocations(&Problem::tiny().with_threads(1)),
            0,
            "a warm single-thread sweep must not allocate"
        );
    }

    // Forked regions allocate in the pool (the grain list, the chunk
    // jobs): a number per region, whatever the number of tasks in it.
    // Four times the groups is four times the tasks in the same regions.
    let forked = |groups| {
        second_sweep_allocations(&Problem::tiny().with_threads(2).with_phase_space(2, groups))
    };
    assert_eq!(
        forked(2),
        forked(8),
        "allocations per sweep must not grow with the tasks per bucket"
    );
}
