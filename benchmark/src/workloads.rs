//! The five workloads: what each runs, why it exists, and how its inputs
//! derive from the seed.
//!
//! The program under test only ever receives the generated [`Problem`]s
//! and request bodies; the seed never reaches it.  Work counts (local
//! solves per solve, requests per phase) do not depend on the seed.

use unsnap_core::problem::Problem;
use unsnap_core::strategy::StrategyKind;
use unsnap_core::wire;
use unsnap_sweep::ConcurrencyScheme;

/// The seed used when `--seed` is not given.  The committed references in
/// `reference.json` are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Which driver solves a solve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Session::new` + `Session::run`.
    Session,
    /// `BlockJacobiSolver::new` + `run` on a 2 × 2 decomposition.
    Jacobi2x2,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 shape: many tiny (8 × 8) local systems.
    SweepLinear,
    /// Fig. 4 shape: few large (64 × 64) local systems.
    SweepCubic,
    /// `dsa-regime`: time to a converged solution.
    ConvergeDsa,
    /// The `sweep-linear` problem on four simulated ranks.
    Jacobi2x2,
    /// HTTP serving path, cache misses beside cache hits.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::SweepLinear,
        Workload::SweepCubic,
        Workload::ConvergeDsa,
        Workload::Jacobi2x2,
        Workload::ServeMix,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepLinear => "sweep-linear",
            Workload::SweepCubic => "sweep-cubic",
            Workload::ConvergeDsa => "converge-dsa",
            Workload::Jacobi2x2 => "jacobi-2x2",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also the `why` committed in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepLinear => {
                "Fig. 3 shape, 786 432 local 8x8 solves of ~1 us: assembly, gather, allocation \
                 and bucket scheduling dominate; the dense solve is small"
            }
            Workload::SweepCubic => {
                "Fig. 4 shape, 16 384 local 64x64 solves of ~50 us: ~80 % in the dense solve \
                 (Table II); the bypass for driver-overhead work"
            }
            Workload::ConvergeDsa => {
                "dsa-regime preset to 1e-6: time to a solution of stated accuracy; iteration \
                 counts move it; small buckets, so 2 threads lose to 1 today"
            }
            Workload::Jacobi2x2 => {
                "the sweep-linear problem on 4 simulated ranks: the same sweep layer behind \
                 masked schedules, halo copies and rank-ordered event replay"
            }
            Workload::ServeMix => {
                "2 closed-loop HTTP clients on a 2-worker server, 50 % cache misses then \
                 hit-only replay: request path end to end, misses beside hits"
            }
        }
    }

    /// The driver of a solve workload (`None` for `serve-mix`).
    pub fn driver(self) -> Option<Driver> {
        match self {
            Workload::SweepLinear | Workload::SweepCubic | Workload::ConvergeDsa => {
                Some(Driver::Session)
            }
            Workload::Jacobi2x2 => Some(Driver::Jacobi2x2),
            Workload::ServeMix => None,
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator, enough to derive inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams give
    /// unrelated sequences, so adding a consumer never shifts another's
    /// inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_TWIST: u64 = 1;
const STREAM_ORDER: u64 = 2;
const STREAM_SERVE: u64 = 3;

/// The seed-derived mesh twist of the solve workloads, in
/// `[0.0005, 0.0015]` radians (the paper twists by up to 0.001).
pub fn twist_for(seed: u64) -> f64 {
    0.0005 + 0.001 * Rng::new(seed, STREAM_TWIST).unit()
}

/// Whether the first timed solve of a run is the 2-thread one; the
/// widths then alternate.
pub fn two_threads_first(seed: u64) -> bool {
    Rng::new(seed, STREAM_ORDER).next_u64() & 1 == 1
}

/// The problem of a workload for `seed`, at 1 thread.  Every normative
/// field is spelled out here rather than taken from a preset, so a later
/// change to a preset cannot silently change a workload — except
/// `converge-dsa`, which *is* the `dsa-regime` preset by definition.
/// For `serve-mix` it is the first inline problem of the request plan,
/// which the traced pass also solves in process.
pub fn solve_problem(workload: Workload, seed: u64) -> Problem {
    let fixed_work = Problem {
        twist: twist_for(seed),
        outer_iterations: 1,
        convergence_tolerance: 0.0,
        strategy: StrategyKind::SourceIteration,
        scheme: ConcurrencyScheme::best(),
        num_threads: Some(1),
        ..Problem::tiny()
    };
    match workload {
        Workload::SweepLinear | Workload::Jacobi2x2 => Problem {
            nx: 8,
            ny: 8,
            nz: 8,
            element_order: 1,
            angles_per_octant: 6,
            num_groups: 16,
            // Two sweeps, not the five of Fig. 3: the host's speed changes
            // within seconds (README, "The host"), and only a solve short
            // enough to see one speed can be paced by the probe.
            inner_iterations: 2,
            ..fixed_work
        },
        Workload::SweepCubic => Problem {
            nx: 4,
            ny: 4,
            nz: 4,
            element_order: 3,
            angles_per_octant: 4,
            num_groups: 8,
            inner_iterations: 1,
            ..fixed_work
        },
        Workload::ConvergeDsa => Problem {
            twist: twist_for(seed),
            num_threads: Some(1),
            ..Problem::from_name("dsa-regime").expect("dsa-regime is a registry preset")
        },
        Workload::ServeMix => ServePlan::generate(seed, HOT_SET, 1).distinct[0]
            .problem
            .clone(),
    }
}

/// Local solves of one full sweep: cells × angles × groups.
pub fn tasks_per_sweep(problem: &Problem) -> u64 {
    (problem.num_cells() * problem.num_angles() * problem.num_groups) as u64
}

/// Sweeps of one solve of a fixed-work workload (tolerance 0, plain
/// source iteration: every inner iteration is one sweep).  `None` for
/// `converge-dsa`, whose sweep count is an outcome, not an input.
pub fn fixed_sweeps(workload: Workload, problem: &Problem) -> Option<usize> {
    match workload {
        Workload::ConvergeDsa => None,
        _ => Some(problem.inner_iterations * problem.outer_iterations),
    }
}

/// A `serve-mix` inline problem: `nx` × 5 × 5 linear cells, 2 angles per
/// octant, 4 groups, 6 source iterations at 1 thread.  A distinct
/// `scattering_ratio` makes a distinct canonical hash, so the server's
/// result cache has never seen it.
pub fn serve_problem(nx: usize, scattering_ratio: f64) -> Problem {
    Problem {
        nx,
        ny: 5,
        nz: 5,
        element_order: 1,
        angles_per_octant: 2,
        num_groups: 4,
        inner_iterations: 6,
        outer_iterations: 1,
        convergence_tolerance: 0.0,
        strategy: StrategyKind::SourceIteration,
        scattering_ratio: Some(scattering_ratio),
        num_threads: Some(1),
        ..Problem::tiny()
    }
}

/// Distinct problems replayed in phase B; the server's default result
/// cache holds 64.
pub const HOT_SET: usize = 48;

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRequest {
    /// The problem, for in-process checks.
    pub problem: Problem,
    /// The `POST /v1/solve` body.
    pub body: String,
}

/// The `serve-mix` request plan: a pure function of `(seed, sizes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// The cold request timed by every set-up repetition.
    pub cold: PlannedRequest,
    /// Phase A: each is submitted once (miss) and at once resubmitted
    /// (hit), so phase A is exactly half misses.
    pub distinct: Vec<PlannedRequest>,
    /// Phase B: how many times the hot set (the last [`HOT_SET`] of
    /// `distinct`) is replayed, every request a hit.
    pub hot_rounds: usize,
}

impl ServePlan {
    /// Generate the plan.
    ///
    /// # Panics
    /// Panics when `distinct < HOT_SET`: phase B needs a full hot set.
    pub fn generate(seed: u64, distinct: usize, hot_rounds: usize) -> Self {
        assert!(distinct >= HOT_SET, "phase A must fill the hot set");
        let mut rng = Rng::new(seed, STREAM_SERVE);
        let mut seen = std::collections::BTreeSet::new();
        // Sizes cycle 4, 5, 6 by position, so the work of a plan does not
        // depend on the seed; the seed only picks the scattering ratios
        // (which, at tolerance 0, change no iteration count).
        let mut next = |rng: &mut Rng, nx: usize| loop {
            let problem = serve_problem(nx, 0.3 + 0.6 * rng.unit());
            if seen.insert(problem.canonical_hash()) {
                let body = format!("{{\"problem\": {}}}", wire::problem_to_json(&problem));
                break PlannedRequest { problem, body };
            }
        };
        let cold = next(&mut rng, 5);
        let distinct = (0..distinct).map(|i| next(&mut rng, 4 + i % 3)).collect();
        Self {
            cold,
            distinct,
            hot_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_serve::ServeConfig;

    #[test]
    fn names_round_trip_and_fit_the_contract_alphabet() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn task_counts_match_cells_angles_groups_sweeps() {
        let expect = [
            (Workload::SweepLinear, 8 * 8 * 8 * 48 * 16, 2, 786_432),
            (Workload::SweepCubic, 4 * 4 * 4 * 32 * 8, 1, 16_384),
            (Workload::Jacobi2x2, 8 * 8 * 8 * 48 * 16, 2, 786_432),
        ];
        for (workload, per_sweep, sweeps, total) in expect {
            let p = solve_problem(workload, DEFAULT_SEED);
            p.validate().unwrap();
            assert_eq!(tasks_per_sweep(&p), per_sweep, "{}", workload.name());
            assert_eq!(fixed_sweeps(workload, &p), Some(sweeps));
            assert_eq!(per_sweep * sweeps as u64, total);
        }
        let dsa = solve_problem(Workload::ConvergeDsa, DEFAULT_SEED);
        dsa.validate().unwrap();
        assert_eq!(tasks_per_sweep(&dsa), 6 * 6 * 6 * 32 * 4);
        assert_eq!(fixed_sweeps(Workload::ConvergeDsa, &dsa), None);
        assert_eq!(dsa.strategy, StrategyKind::DsaSourceIteration);
        assert_eq!(dsa.convergence_tolerance, 1e-6);
    }

    #[test]
    fn local_system_sizes_are_the_stated_ones() {
        assert_eq!(
            solve_problem(Workload::SweepLinear, 7).nodes_per_element(),
            8
        );
        assert_eq!(
            solve_problem(Workload::SweepCubic, 7).nodes_per_element(),
            64
        );
    }

    #[test]
    fn seed_moves_the_twist_but_not_the_work() {
        for seed in 0..50 {
            let twist = twist_for(seed);
            assert!((0.0005..=0.0015).contains(&twist), "seed {seed}: {twist}");
            for w in [
                Workload::SweepLinear,
                Workload::SweepCubic,
                Workload::ConvergeDsa,
            ] {
                assert_eq!(
                    tasks_per_sweep(&solve_problem(w, seed)),
                    tasks_per_sweep(&solve_problem(w, DEFAULT_SEED))
                );
            }
        }
        assert_ne!(twist_for(1), twist_for(2));
        assert_eq!(twist_for(9), twist_for(9));
        assert!((0..64).any(two_threads_first) && !(0..64).all(two_threads_first));
    }

    #[test]
    fn serve_plan_is_a_pure_function_of_the_seed() {
        let a = ServePlan::generate(11, 60, 3);
        assert_eq!(a, ServePlan::generate(11, 60, 3));
        let b = ServePlan::generate(12, 60, 3);
        assert_ne!(a.distinct[0].body, b.distinct[0].body);
        // A longer plan extends a shorter one.
        let longer = ServePlan::generate(11, 80, 3);
        assert_eq!(&longer.distinct[..60], &a.distinct[..]);
    }

    #[test]
    fn serve_plan_has_the_stated_hit_miss_split() {
        let plan = ServePlan::generate(5, 100, 4);
        let mut hashes: Vec<u64> = plan
            .distinct
            .iter()
            .chain(std::iter::once(&plan.cold))
            .map(|r| r.problem.canonical_hash())
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 101, "every planned problem is distinct");
        // Phase A: one miss and one hit per distinct problem.
        assert_eq!((plan.distinct.len(), plan.hot_rounds), (100, 4));
        assert_eq!(plan.cold.problem.nx, 5);
        for (index, request) in plan.distinct.iter().enumerate() {
            let p = &request.problem;
            assert_eq!(p.nx, 4 + index % 3, "sizes do not depend on the seed");
            p.validate().unwrap();
            assert_eq!((p.ny, p.nz), (5, 5));
            assert_eq!((p.angles_per_octant, p.num_groups), (2, 4));
            assert_eq!((p.inner_iterations, p.num_threads), (6, Some(1)));
            // The body is what the server parses back to the same problem.
            assert_eq!(
                unsnap_serve::wire::parse_solve_request(&request.body).unwrap(),
                *p
            );
        }
    }

    #[test]
    fn hot_set_fits_the_default_cache() {
        // One in-flight problem per client may sit between the hot set
        // and the cache's eviction edge.
        assert!(HOT_SET + 2 <= ServeConfig::default().cache_capacity);
    }
}
