//! How a team forks, and how the workers of one sweep share it out and
//! hand it in.
//!
//! A team is forked with `fork`: the caller runs as member 0 and every
//! other member on a scoped thread of its own, joined before `fork`
//! returns — OpenMP's fork/join, as in SNAP.  [`map`] is the in-order map
//! over contiguous chunks the set-up maps and the rank solves of block
//! Jacobi run on, and [`width`] how wide a driver forks; 1 forks nothing.
//!
//! A sweep forks once, into a team (`sweep_team`), along one of two
//! axes.  On the *angle axis* (the default scheme) the workers claim whole
//! angles, sweep each into a slab of their own and hand it in under one
//! lock (`SlabInHand::exchange`): φ takes the slabs in turn.  On the
//! *bucket axis* (the paper's six schemes) the workers are all in the same
//! angle and claim shares of one region of a bucket at a time
//! (`BucketTeam::work`), cut the way `region_cut` says; whoever
//! hands in the last share of a region opens the next, and the last region
//! of an angle folds it.  Either way ψ leaves a sweep in one place,
//! `AngleFold::fold`, angle after angle in ascending order, and the two
//! teams keep the same two promises: no wait depends on a worker that has
//! not arrived (fewer members running than the team has, down to the
//! caller running them one after another, finish the sweep), and a worker
//! that unwinds releases the others.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};
use std::thread::{Scope, ScopedJoinHandle};

use unsnap_sweep::{ConcurrencyScheme, LoopOrder, SweepSchedule, ThreadedLoops};

use crate::angular::Direction;
use crate::domain::TraceTable;
use crate::layout::{FluxLayout, FluxStorage};
use crate::problem::Problem;

/// The width `RAYON_NUM_THREADS` forces on every team, whatever a problem
/// asks for: the knob the CI determinism matrix replays the whole suite
/// at widths 1, 2 and 8 with.  A value that is not a positive integer
/// (surrounding whitespace aside) forces nothing.
pub fn forced_width() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|raw| parse_width(&raw))
}

fn parse_width(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n > 0)
}

/// How wide a driver of `problem` forks: `Problem::num_threads` (the
/// machine's parallelism when unset), capped at `max_width` — unless
/// [`forced_width`] says otherwise, cap or not.
pub fn width(problem: &Problem, max_width: usize) -> usize {
    forced_width().unwrap_or_else(|| {
        let requested = problem
            .num_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        requested.min(max_width.max(1))
    })
}

/// A member of a forked team, as the caller holds it until the join.
enum Member<'scope, R> {
    Spawned(ScopedJoinHandle<'scope, R>),
    /// The caller runs it: member 0, and one the operating system would
    /// not start a thread for, after that.
    OnCaller,
    Ran(std::thread::Result<R>),
}

/// Start member `m` of a team on a thread of its own; `None` if the
/// operating system refuses one.  Unnamed: a name allocates once a spawn.
fn spawn<'scope, R: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    member: impl FnOnce() -> R + Send + 'scope,
) -> Option<ScopedJoinHandle<'scope, R>> {
    #[cfg(test)]
    if tests::REFUSE_SPAWNS.get() {
        return None;
    }
    std::thread::Builder::new().spawn_scoped(scope, member).ok()
}

/// Run `member` once for each of `members` members of a team — the caller
/// as member 0, the others on scoped threads — and return what each
/// returned, in member order.  The members are joined in that order, and
/// if any panicked the lowest-numbered one's panic resumes on the caller,
/// message and all.  A member whose thread the operating system refuses
/// runs on the caller after its own, so a team must not make a member
/// wait for one that has not started.
pub(crate) fn fork<R: Send>(members: usize, member: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let member = &member;
    let run = |m: usize| catch_unwind(AssertUnwindSafe(|| member(m)));
    std::thread::scope(|scope| {
        let mut team: Vec<Member<R>> = Vec::with_capacity(members);
        team.push(Member::OnCaller);
        for m in 1..members {
            let spawned = spawn(scope, move || member(m));
            team.push(spawned.map_or(Member::OnCaller, Member::Spawned));
        }
        for (m, slot) in team.iter_mut().enumerate() {
            if let Member::OnCaller = slot {
                *slot = Member::Ran(run(m));
            }
        }
        let mut panicked = None;
        let mut results = Vec::with_capacity(members);
        for slot in team {
            let outcome = match slot {
                Member::Spawned(handle) => handle.join(),
                Member::Ran(outcome) => outcome,
                Member::OnCaller => unreachable!("the caller ran it"),
            };
            match outcome {
                Ok(result) => results.push(result),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        results
    })
}

/// `f` of every item, in input order, on a team of up to `width` members,
/// each of which maps one contiguous chunk of the items.  The chunks'
/// lengths differ by at most one, the longer first — a pure function of
/// the item count and the width.  Collect the result into a `Result` for
/// the earliest error.  If `f` panics, the panic of the earliest chunk
/// resumes on the caller once every member is joined.
pub fn map<T: Send, U: Send>(width: usize, items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let members = width.min(items.len());
    if members <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (base, extra) = (items.len() / members, items.len() % members);
    let mut items = items.into_iter();
    let chunks: Vec<Mutex<Vec<T>>> = (0..members)
        .map(|m| Mutex::new(items.by_ref().take(base + usize::from(m < extra)).collect()))
        .collect();
    let mapped = fork(members, |m| {
        let chunk = std::mem::take(&mut *chunks[m].lock().expect("each chunk is taken once"));
        chunk.into_iter().map(&f).collect::<Vec<U>>()
    });
    mapped.into_iter().flatten().collect()
}

/// Slabs per worker of the angle axis.  Two workers drift apart by more
/// than one angle, so with one slab each a worker that finishes out of turn
/// must wait for its turn to fold: measured `op_fast_s` +9…+12 % on
/// `sweep-linear` and `converge-dsa` (0 of 10 pairs, condvar and spin-wait
/// alike).  With two it parks the finished slab and sweeps on; four
/// measured no better than two.
const SLABS_PER_WORKER: usize = 2;

/// How a sweep of `scheme` forking `width` wide is shared out: the
/// workers of its team — 1 takes the angles one after another, whole — and
/// the slabs they hold ψ in.  On the angle axis a team has no use for more
/// workers than angles; on the bucket axis it is in one angle at a time.
pub(crate) fn sweep_team(
    scheme: ConcurrencyScheme,
    width: usize,
    num_angles: usize,
) -> (usize, usize) {
    match scheme.threaded {
        ThreadedLoops::Angles if width.min(num_angles) > 1 => {
            let team = width.min(num_angles);
            (team, SLABS_PER_WORKER * team)
        }
        ThreadedLoops::Angles => (1, 1),
        _ => (width, 1),
    }
}

/// What outlives the slab of a swept angle.  A sweep folds its angles in
/// ascending order whatever its parallel axis and width, so every φ entry
/// is summed in that order and no bit depends on either.
pub(crate) struct AngleFold<'a> {
    pub(crate) directions: &'a [Direction],
    /// Shape of a slab — and of φ.
    pub(crate) slab: FluxLayout,
    pub(crate) phi: &'a mut [f64],
    /// Local node indices of each face, in the canonical face order.
    pub(crate) face_nodes: &'a [Vec<usize>; 6],
    /// The (local cell, face) of each trace `exported` takes, angle by angle.
    pub(crate) traces: &'a TraceTable,
    /// The domain's traces in halo order, `groups × nf` values each.
    pub(crate) exported: &'a mut [f64],
    pub(crate) kept: Option<&'a mut FluxStorage>,
}

impl AngleFold<'_> {
    /// φ += w·ψ for `psi`, the ψ of `angle`, and copy what was asked to
    /// be kept of it — the face traces another domain reads, and all of it
    /// for a caller that asked — while the slab is hot.
    pub(crate) fn fold(&mut self, angle: usize, psi: &[f64]) {
        let weight = self.directions[angle].weight;
        for (p, &v) in self.phi.iter_mut().zip(psi) {
            *p += weight * v;
        }
        let (first, traces) = self.traces.writes_of(angle);
        let nf = self.face_nodes[0].len();
        let groups = self.slab.num_groups;
        let mut exported = self.exported[first * groups * nf..].chunks_exact_mut(nf);
        for &(local, face) in traces {
            for g in 0..groups {
                let block = &psi[self.slab.base(local, g, 0)..];
                let trace = exported.next().expect("sized by the trace table");
                for (value, &node) in trace.iter_mut().zip(&self.face_nodes[face]) {
                    *value = block[node];
                }
            }
        }
        if let Some(kept) = &mut self.kept {
            kept.as_mut_slice()[angle * psi.len()..][..psi.len()].copy_from_slice(psi);
        }
    }
}

/// The hand-off of the angle axis, behind one lock: the workers sweep
/// angles in whatever order they finish them, φ takes them in turn.
pub(crate) struct Turn<'a> {
    pub(crate) fold: AngleFold<'a>,
    /// The angle φ takes next.
    pub(crate) cursor: usize,
    pub(crate) idle: &'a mut Vec<Vec<f64>>,
    /// Swept out of turn, by angle.
    pub(crate) parked: &'a mut Vec<(usize, Vec<f64>)>,
    /// A worker unwound: nobody will fold its angle, so nobody may wait.
    pub(crate) failed: bool,
}

/// The slab a worker of the angle axis sweeps into.  Dropping it returns
/// the slab and, when the worker is unwinding, releases the others.
pub(crate) struct SlabInHand<'t, 'a> {
    pub(crate) slab: Option<Vec<f64>>,
    pub(crate) turn: &'t Mutex<Turn<'a>>,
    pub(crate) freed: &'t Condvar,
}

impl SlabInHand<'_, '_> {
    /// Hand in the slab, ψ of `swept`: park it, and fold every parked slab
    /// the cursor is at — this one, if it is its turn, and those that
    /// waited for it.  Then take an idle slab for the next angle, waiting
    /// for a fold to free one only if there is none.  `false` once a
    /// worker has failed.
    pub(crate) fn exchange(&mut self, swept: Option<usize>) -> bool {
        let mut guard = self.turn.lock().expect("a sweep worker panicked");
        if let Some(angle) = swept {
            let turn = &mut *guard;
            turn.parked
                .extend(self.slab.take().map(|slab| (angle, slab)));
            while let Some(at) = turn.parked.iter().position(|&(a, _)| a == turn.cursor) {
                let (angle, slab) = turn.parked.swap_remove(at);
                turn.fold.fold(angle, &slab);
                turn.cursor += 1;
                turn.idle.push(slab);
            }
            if turn.idle.len() > 1 {
                self.freed.notify_all();
            }
        }
        let mut turn = self
            .freed
            .wait_while(guard, |turn| !turn.failed && turn.idle.is_empty())
            .expect("a sweep worker panicked");
        if !turn.failed {
            self.slab = turn.idle.pop();
        }
        self.slab.is_some()
    }
}

impl Drop for SlabInHand<'_, '_> {
    fn drop(&mut self) {
        // A lost slab is the worst a poisoned turn can hold, and a drop
        // must not panic.
        let mut turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        turn.idle.extend(self.slab.take());
        if std::thread::panicking() {
            turn.failed = true;
            self.freed.notify_all();
        }
    }
}

/// A Figure 3/4 scheme label as data: how the tasks of a bucket of
/// `elements`, numbered in loop-nest order, are cut into *regions* — the
/// team finishes one before it starts the next, OpenMP's implicit barrier —
/// and a region into *grains*, the unit a worker's share of it is counted
/// in.  The regions of the bucket, the grains of a region, the tasks of a
/// grain.
fn region_cut(scheme: ConcurrencyScheme, elements: usize, num_groups: usize) -> [usize; 3] {
    let (outer, inner) = match scheme.loop_order {
        LoopOrder::ElementThenGroup => (elements, num_groups),
        LoopOrder::GroupThenElement => (num_groups, elements),
    };
    match scheme.threaded {
        // collapse(2): one region over all pairs.
        ThreadedLoops::Collapsed => [1, outer * inner, 1],
        // One region whose grains keep an outer index on one worker.
        ThreadedLoops::OuterOnly => [1, outer, inner],
        // One region per outer index: what keeps this scheme distinct from
        // the collapsed one.
        ThreadedLoops::InnerOnly => [outer, inner, 1],
        // Workers that each take an angle share no bucket.
        ThreadedLoops::Angles => [1, 1, outer * inner],
    }
}

/// The hand-off of the bucket axis, behind one lock: the workers of a team
/// are all in the same region, the open one, a share of its grains each.
struct OpenRegion<'a> {
    fold: AngleFold<'a>,
    /// The open region: its angle, its bucket, which of the bucket's
    /// regions it is.  Past the last angle the sweep is over.
    angle: usize,
    bucket: usize,
    region: usize,
    /// The shares the open region is cut into, how many of them a worker
    /// has claimed and how many are handed in.
    shares: usize,
    claimed: usize,
    done: usize,
    /// A worker unwound: its share will never be handed in, so nobody may
    /// wait for the next region.
    failed: bool,
}

/// How often a worker that has to wait asks again before it parks, giving
/// up its processor in between — to the worker it waits for, if that one is
/// waiting to run: a team wider than the machine is not left spinning.  A
/// round is 0.23 µs on an idle processor, and a parked worker takes longer
/// to wake than most waits last: on the 2-vCPU host the two-thread rows of
/// `reproduce figure4` take 1.6–2.1 s parking after 256 rounds, 1.3–1.7 s
/// after 1024 and the same after 4096.
const YIELDS_BEFORE_PARKING: usize = 1024;

fn ask_before_parking<T>(mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    (0..YIELDS_BEFORE_PARKING).find_map(|_| {
        std::thread::yield_now();
        ready()
    })
}

/// The team of the bucket axis.  A worker claims a share of the open region,
/// not a fixed one: it waits only for workers that hold a share, which have
/// arrived, so a team fewer of whose members run than it has — down to one,
/// which then claims every share — finishes the sweep.
///
/// On cache lines of its own: a waiting worker asks by trying `open`, which
/// writes to its line, and a team lives on the stack of the sweep, next to
/// what every task of the worker it waits for reads (measured: a command
/// line one argument longer moved the stack and made the two-thread
/// `angle/element*/group` row of `reproduce figure3` take 0.40 s for 0.26 s).
#[repr(align(128))]
pub(crate) struct BucketTeam<'a> {
    schedules: &'a [SweepSchedule],
    scheme: ConcurrencyScheme,
    num_groups: usize,
    workers: usize,
    open: Mutex<OpenRegion<'a>>,
    /// ψ of the open region's angle: read by the solves of a share, written
    /// by its stores.
    slab: RwLock<&'a mut [f64]>,
    parked: Condvar,
}

impl<'a> BucketTeam<'a> {
    /// A team of `workers` before the first region of a sweep of `schedules`
    /// under `scheme`, each angle of which is swept into `slab` and folded.
    pub(crate) fn new(
        schedules: &'a [SweepSchedule],
        (scheme, num_groups): (ConcurrencyScheme, usize),
        workers: usize,
        fold: AngleFold<'a>,
        slab: &'a mut [f64],
    ) -> Self {
        let at = OpenRegion {
            fold,
            angle: 0,
            bucket: 0,
            region: 0,
            shares: 0,
            claimed: 0,
            done: 0,
            failed: false,
        };
        let team = Self {
            schedules,
            scheme,
            num_groups,
            workers,
            open: Mutex::new(at),
            slab: RwLock::new(slab),
            parked: Condvar::new(),
        };
        team.open_region(&mut team.open.lock().expect("nobody has entered"));
        team
    }

    /// Open the region `at` points to, or the next one there is (no bucket
    /// is empty), folding every angle this steps out of.
    fn open_region(&self, at: &mut OpenRegion) {
        (at.shares, at.claimed, at.done) = (0, 0, 0);
        while let Some(schedule) = self.schedules.get(at.angle) {
            let Some(bucket) = schedule.buckets.get(at.bucket) else {
                let psi = self.slab.read().expect("a sweep worker panicked");
                at.fold.fold(at.angle, &psi);
                (at.angle, at.bucket, at.region) = (at.angle + 1, 0, 0);
                continue;
            };
            let [regions, grains, _] = region_cut(self.scheme, bucket.len(), self.num_groups);
            if at.region < regions {
                at.shares = self.workers.min(grains);
                break;
            }
            (at.bucket, at.region) = (at.bucket + 1, 0);
        }
        // (Its only share is for the worker that opened it.)
        if at.shares != 1 {
            self.parked.notify_all();
        }
    }

    /// Hand in a share, if the worker `holds` one — whoever hands in the last
    /// of a region opens the next — and claim one of the open region: its
    /// angle, its bucket and its tasks.  `None` once the sweep is over, or
    /// a worker has failed.
    fn exchange(&self, holds: bool) -> Option<(usize, &'a [usize], Range<usize>)> {
        let schedules = self.schedules;
        let waits =
            |at: &OpenRegion| !at.failed && at.claimed == at.shares && at.angle < schedules.len();
        let mut at = self.open.lock().expect("a sweep worker panicked");
        if holds {
            at.done += 1;
            if at.done == at.shares {
                at.region += 1;
                self.open_region(&mut at);
            }
        }
        if waits(&at) {
            drop(at);
            let asked = ask_before_parking(|| self.open.try_lock().ok().filter(|at| !waits(at)));
            at = asked.unwrap_or_else(|| {
                let at = self.open.lock().expect("a sweep worker panicked");
                let parked = self.parked.wait_while(at, |at| waits(at));
                parked.expect("a sweep worker panicked")
            });
        }
        if at.failed || at.claimed == at.shares {
            return None;
        }
        // Contiguous shares whose lengths differ by at most one grain, the
        // longer ones first.
        let bucket = &schedules[at.angle].buckets[at.bucket];
        let [_, grains, grain_len] = region_cut(self.scheme, bucket.len(), self.num_groups);
        let (base, extra) = (grains / at.shares, grains % at.shares);
        let first_task =
            |share: usize| (at.region * grains + share * base + share.min(extra)) * grain_len;
        let tasks = first_task(at.claimed)..first_task(at.claimed + 1);
        at.claimed += 1;
        Some((at.angle, bucket, tasks))
    }

    /// One worker's part of the sweep, share after share: `solve` the tasks
    /// of a bucket of an angle reading the slab — while the others solve
    /// theirs — and keep the blocks in `run`; then `store` them in the slab,
    /// held alone; then hand the share in.
    pub(crate) fn work<R>(
        &self,
        run: &mut R,
        solve: impl Fn(&mut R, usize, &'a [usize], Range<usize>, &[f64]),
        store: impl Fn(&R, &'a [usize], Range<usize>, &mut [f64]),
    ) {
        let _member = TeamMember(self);
        let mut share = self.exchange(false);
        while let Some((angle, bucket, tasks)) = share {
            {
                let psi = self.slab.read().expect("a sweep worker panicked");
                solve(run, angle, bucket, tasks.clone(), &psi);
            }
            {
                // The workers still solving hold it for reading.
                let free = ask_before_parking(|| self.slab.try_write().ok());
                let mut psi =
                    free.unwrap_or_else(|| self.slab.write().expect("a sweep worker panicked"));
                store(run, bucket, tasks, &mut psi);
            }
            share = self.exchange(true);
        }
    }
}

/// A worker of the bucket axis; one that unwinds releases the others.
struct TeamMember<'t, 'a>(&'t BucketTeam<'a>);

impl Drop for TeamMember<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A flag is all a poisoned region is written: a drop must not
            // panic.
            let mut at = (self.0.open.lock()).unwrap_or_else(PoisonError::into_inner);
            at.failed = true;
            self.0.parked.notify_all();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    thread_local! {
        /// Whether [`spawn`] refuses every thread this one asks for.
        pub(super) static REFUSE_SPAWNS: Cell<bool> = const { Cell::new(false) };
    }

    /// `job`, with every spawn a fork on this thread asks for refused: the
    /// caller runs each member of a team, one after another.
    pub(crate) fn with_spawns_refused<R>(job: impl FnOnce() -> R) -> R {
        REFUSE_SPAWNS.set(true);
        let result = catch_unwind(AssertUnwindSafe(job));
        REFUSE_SPAWNS.set(false);
        result.unwrap_or_else(|payload| resume_unwind(payload))
    }

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast::<String>()
            .map_or_else(|_| String::new(), |m| *m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn map_keeps_input_order(len in 0usize..400, width in 1usize..=8) {
            let expected: Vec<usize> = (0..len).map(|i| i.wrapping_mul(7)).collect();
            let mapped = map(width, (0..len).collect(), |i: usize| i.wrapping_mul(7));
            prop_assert_eq!(&mapped, &expected);
            let refused = with_spawns_refused(|| map(width, (0..len).collect(), |i: usize| i.wrapping_mul(7)));
            prop_assert_eq!(refused, expected);
        }
    }

    #[test]
    fn the_earliest_error_wins() {
        let odd = |x: i32| if x % 2 == 1 { Err(x) } else { Ok(x) };
        for width in [1, 2, 8] {
            let ok: Result<Vec<i32>, i32> = map(width, vec![0, 2, 4], odd).into_iter().collect();
            assert_eq!(ok, Ok(vec![0, 2, 4]));
            // The odd items fall in the chunks of every member.
            let err: Result<Vec<i32>, i32> = map(width, (0..64).rev().collect(), odd)
                .into_iter()
                .collect();
            assert_eq!(err, Err(63), "width {width}: the earliest failing item");
        }
    }

    #[test]
    fn the_lowest_members_panic_reaches_the_caller_with_its_message() {
        // Every member but the caller panics, each with its own number.
        for refused in [false, true] {
            let team = || fork(8, |m| assert!(m == 0, "member {m} exploded"));
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                if refused {
                    with_spawns_refused(team)
                } else {
                    team()
                }
            }));
            let payload = panicked.expect_err("a member's panic crosses the join");
            assert_eq!(
                message(payload),
                "member 1 exploded",
                "spawns refused: {refused}"
            );
        }
        // One item deep in the third of four chunks.
        let panicked = catch_unwind(|| {
            map(4, (0..128usize).collect(), |i| {
                assert!(i != 77, "item {i} exploded")
            })
        });
        assert_eq!(message(panicked.unwrap_err()), "item 77 exploded");
    }

    #[test]
    fn the_caller_is_member_zero_and_the_others_have_threads_of_their_own() {
        let caller = std::thread::current().id();
        let threads = fork(4, |_| std::thread::current().id());
        assert_eq!(threads[0], caller);
        assert!(threads[1..].iter().all(|&t| t != caller));
        let refused = with_spawns_refused(|| fork(4, |_| std::thread::current().id()));
        assert_eq!(refused, vec![caller; 4]);
    }

    #[test]
    fn the_width_override_is_a_positive_integer_or_nothing() {
        assert_eq!(parse_width("3"), Some(3));
        assert_eq!(parse_width(" 8 "), Some(8));
        for ignored in ["0", "-2", "zero", "", " "] {
            assert_eq!(parse_width(ignored), None, "{ignored:?}");
        }
    }
}
