//! [`ProblemBuilder`]: validating, grouped construction of [`Problem`]s.
//!
//! A [`Problem`] is a flat struct of ~30 fields; filling it by hand is
//! error-prone and its `validate()` only runs deep inside
//! `TransportSolver::new`.  The builder groups the fields into five
//! sub-configurations that mirror how runs are actually specified —
//!
//! * [`GridConfig`] — mesh extents and twist;
//! * [`PhysicsConfig`] — discretisation and data (element order, phase
//!   space, materials, boundaries, scattering ratio);
//! * [`IterationConfig`] — iteration counts, tolerance, the inner
//!   strategy and the distributed subdomain budget;
//! * [`AccelConfig`] — the low-order (DSA) accelerator selection and
//!   its CG tolerance/budget;
//! * [`ExecutionConfig`] — dense back end, concurrency scheme, threads,
//!   precomputation and timing knobs —
//!
//! and validates everything (including cross-field invariants no single
//! setter can check) *up front* in [`ProblemBuilder::build`], reporting
//! failures as [`Error::InvalidProblem`] with the offending field named.
//!
//! Every paper preset is available as a builder shorthand
//! ([`ProblemBuilder::tiny`], [`ProblemBuilder::quickstart`],
//! [`ProblemBuilder::figure3_full`], …), and building an untouched preset
//! reproduces the corresponding `Problem::*` constructor exactly, so
//! existing callers migrate without behaviour change:
//!
//! ```
//! use unsnap_core::builder::ProblemBuilder;
//! use unsnap_core::problem::Problem;
//!
//! let built = ProblemBuilder::quickstart().build().unwrap();
//! assert_eq!(built, Problem::quickstart());
//!
//! let custom = ProblemBuilder::tiny()
//!     .mesh(4)
//!     .scattering_ratio(0.9)
//!     .build()
//!     .unwrap();
//! assert_eq!(custom.num_cells(), 64);
//! ```

use unsnap_linalg::SolverKind;
use unsnap_mesh::boundary::DomainBoundaries;
use unsnap_sweep::ConcurrencyScheme;

use crate::data::{MaterialOption, SourceOption};
use crate::error::{Error, Result};
use crate::kernel::KernelKind;
use crate::layout::Precision;
use crate::problem::Problem;
use crate::session::Session;
use crate::solver::TransportSolver;
use crate::strategy::{AcceleratorKind, StrategyKind};

/// Mesh extents and twist (the spatial half of a [`Problem`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
    /// Domain length along x.
    pub lx: f64,
    /// Domain length along y.
    pub ly: f64,
    /// Domain length along z.
    pub lz: f64,
    /// Maximum mesh twist angle in radians.
    pub twist: f64,
}

impl Default for GridConfig {
    /// The `tiny` preset's grid: a unit cube of 3³ cells, twisted by the
    /// paper's 0.001 rad.
    fn default() -> Self {
        Self {
            nx: 3,
            ny: 3,
            nz: 3,
            lx: 1.0,
            ly: 1.0,
            lz: 1.0,
            twist: 0.001,
        }
    }
}

/// Discretisation and physical data.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicsConfig {
    /// Lagrange element order (1 = linear).
    pub element_order: usize,
    /// Angles per octant of the Sn quadrature.
    pub angles_per_octant: usize,
    /// Number of energy groups.
    pub num_groups: usize,
    /// Artificial material layout.
    pub material: MaterialOption,
    /// Artificial fixed-source layout.
    pub source: SourceOption,
    /// Boundary conditions on the six domain faces.
    pub boundaries: DomainBoundaries,
    /// Optional within-group scattering-ratio override (see
    /// [`Problem::scattering_ratio`]).
    pub scattering_ratio: Option<f64>,
    /// Optional upscatter fraction layered on the scattering-ratio
    /// override (see [`Problem::upscatter_ratio`]).
    pub upscatter_ratio: Option<f64>,
}

impl Default for PhysicsConfig {
    /// The `tiny` preset's physics: linear elements, 2 angles/octant,
    /// 2 groups, Option-1 data, vacuum boundaries.
    fn default() -> Self {
        Self {
            element_order: 1,
            angles_per_octant: 2,
            num_groups: 2,
            material: MaterialOption::Option1,
            source: SourceOption::Option1,
            boundaries: DomainBoundaries::vacuum(),
            scattering_ratio: None,
            upscatter_ratio: None,
        }
    }
}

/// Iteration structure and inner-solve strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationConfig {
    /// Inner (source) iterations per outer iteration.
    pub inner_iterations: usize,
    /// Outer (group-coupling) iterations.
    pub outer_iterations: usize,
    /// Pointwise convergence tolerance (0 = run every iteration).
    pub convergence_tolerance: f64,
    /// Inner-iteration strategy.
    pub strategy: StrategyKind,
    /// GMRES restart length (read by the Krylov strategies).
    pub gmres_restart: usize,
    /// Dedicated per-rank subdomain Krylov budget for the distributed
    /// block-Jacobi driver (`None` = cap with `inner_iterations`, the
    /// historical behaviour; see
    /// [`Problem::subdomain_krylov_budget`]).
    pub subdomain_krylov_budget: Option<usize>,
}

impl Default for IterationConfig {
    /// The `tiny` preset's iteration structure: 2 inners × 1 outer, no
    /// tolerance, source iteration, shared subdomain budget.
    fn default() -> Self {
        Self {
            inner_iterations: 2,
            outer_iterations: 1,
            convergence_tolerance: 0.0,
            strategy: StrategyKind::SourceIteration,
            gmres_restart: 20,
            subdomain_krylov_budget: None,
        }
    }
}

/// Low-order acceleration: accelerator selection and the DSA CG knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Which accelerator (if any) augments the Krylov strategies; the
    /// `DSA-SI` strategy applies DSA regardless (see
    /// [`Problem::accelerator`]).
    pub accelerator: AcceleratorKind,
    /// Relative residual target of the low-order DSA CG solve.
    pub cg_tolerance: f64,
    /// Iteration cap of the low-order DSA CG solve.
    pub cg_iterations: usize,
}

impl Default for AccelConfig {
    /// No accelerator; a tight, cheap low-order solve when one runs.
    fn default() -> Self {
        Self {
            accelerator: AcceleratorKind::None,
            cg_tolerance: 1e-8,
            cg_iterations: 200,
        }
    }
}

/// Execution environment: back end, concurrency and instrumentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Local dense solver back end.
    pub solver: SolverKind,
    /// Concurrency scheme for the sweep.
    pub scheme: ConcurrencyScheme,
    /// Worker threads for the solver's pool (`None` = the machine
    /// default; force-overridable with `RAYON_NUM_THREADS`).
    pub num_threads: Option<usize>,
    /// Precompute per-element integrals.
    pub precompute_integrals: bool,
    /// Time the linear solve separately.
    pub time_solve: bool,
    /// Which assemble kernel runs the per-cell hot loop (see
    /// [`Problem::kernel`]).
    pub kernel: KernelKind,
    /// Storage/solve precision of the per-cell dense solves (see
    /// [`Problem::precision`]).
    pub precision: Precision,
}

impl Default for ExecutionConfig {
    /// The `tiny` preset's execution: Gaussian elimination, serial
    /// scheme, one thread, precomputed integrals, no solve timer, the
    /// reference kernel in full double precision.
    fn default() -> Self {
        Self {
            solver: SolverKind::GaussianElimination,
            scheme: ConcurrencyScheme::serial(),
            num_threads: Some(1),
            precompute_integrals: true,
            time_solve: false,
            kernel: KernelKind::Reference,
            precision: Precision::F64,
        }
    }
}

/// A validating builder for [`Problem`]s.
///
/// Defaults to the `tiny` preset; see the [module docs](self) for the
/// grouping rationale and examples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProblemBuilder {
    /// Mesh extents and twist.
    pub grid: GridConfig,
    /// Discretisation and physical data.
    pub physics: PhysicsConfig,
    /// Iteration structure and strategy.
    pub iteration: IterationConfig,
    /// Low-order acceleration (DSA) knobs.
    pub accel: AccelConfig,
    /// Execution environment.
    pub execution: ExecutionConfig,
}

impl ProblemBuilder {
    /// A builder preloaded with the defaults (the `tiny` preset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decompose an existing [`Problem`] into a builder, so presets and
    /// externally-constructed problems can be tweaked field-by-field.
    pub fn from_problem(p: &Problem) -> Self {
        Self {
            grid: GridConfig {
                nx: p.nx,
                ny: p.ny,
                nz: p.nz,
                lx: p.lx,
                ly: p.ly,
                lz: p.lz,
                twist: p.twist,
            },
            physics: PhysicsConfig {
                element_order: p.element_order,
                angles_per_octant: p.angles_per_octant,
                num_groups: p.num_groups,
                material: p.material,
                source: p.source,
                boundaries: p.boundaries,
                scattering_ratio: p.scattering_ratio,
                upscatter_ratio: p.upscatter_ratio,
            },
            iteration: IterationConfig {
                inner_iterations: p.inner_iterations,
                outer_iterations: p.outer_iterations,
                convergence_tolerance: p.convergence_tolerance,
                strategy: p.strategy,
                gmres_restart: p.gmres_restart,
                subdomain_krylov_budget: p.subdomain_krylov_budget,
            },
            accel: AccelConfig {
                accelerator: p.accelerator,
                cg_tolerance: p.accel_cg_tolerance,
                cg_iterations: p.accel_cg_iterations,
            },
            execution: ExecutionConfig {
                solver: p.solver,
                scheme: p.scheme,
                num_threads: p.num_threads,
                precompute_integrals: p.precompute_integrals,
                time_solve: p.time_solve,
                kernel: p.kernel,
                precision: p.precision,
            },
        }
    }

    // ------------------------------------------------------------------
    // Preset shorthands (each reproduces the matching `Problem::*`).
    // ------------------------------------------------------------------

    /// The `tiny` smoke-test preset.
    pub fn tiny() -> Self {
        Self::from_problem(&Problem::tiny())
    }

    /// The `quickstart` preset.
    pub fn quickstart() -> Self {
        Self::from_problem(&Problem::quickstart())
    }

    /// The full-size Figure 3 preset.
    pub fn figure3_full() -> Self {
        Self::from_problem(&Problem::figure3_full())
    }

    /// The scaled-down Figure 3 preset.
    pub fn figure3_scaled() -> Self {
        Self::from_problem(&Problem::figure3_scaled())
    }

    /// The full-size Figure 4 preset.
    pub fn figure4_full() -> Self {
        Self::from_problem(&Problem::figure4_full())
    }

    /// The scaled-down Figure 4 preset.
    pub fn figure4_scaled() -> Self {
        Self::from_problem(&Problem::figure4_scaled())
    }

    /// The full-size Table II preset.
    pub fn table2_full(element_order: usize, solver: SolverKind) -> Self {
        Self::from_problem(&Problem::table2_full(element_order, solver))
    }

    /// The scaled-down Table II preset.
    pub fn table2_scaled(element_order: usize, solver: SolverKind) -> Self {
        Self::from_problem(&Problem::table2_scaled(element_order, solver))
    }

    // ------------------------------------------------------------------
    // Grouped setters.
    // ------------------------------------------------------------------

    /// Replace the whole grid configuration.
    pub fn grid(mut self, grid: GridConfig) -> Self {
        self.grid = grid;
        self
    }

    /// Replace the whole physics configuration.
    pub fn physics(mut self, physics: PhysicsConfig) -> Self {
        self.physics = physics;
        self
    }

    /// Replace the whole iteration configuration.
    pub fn iteration(mut self, iteration: IterationConfig) -> Self {
        self.iteration = iteration;
        self
    }

    /// Replace the whole acceleration configuration.
    pub fn accel(mut self, accel: AccelConfig) -> Self {
        self.accel = accel;
        self
    }

    /// Replace the whole execution configuration.
    pub fn execution(mut self, execution: ExecutionConfig) -> Self {
        self.execution = execution;
        self
    }

    // ------------------------------------------------------------------
    // Fluent per-field setters.
    // ------------------------------------------------------------------

    /// Cubic mesh with `n` cells per side.
    pub fn mesh(mut self, n: usize) -> Self {
        self.grid.nx = n;
        self.grid.ny = n;
        self.grid.nz = n;
        self
    }

    /// Mesh cell counts per axis.
    pub fn cells(mut self, nx: usize, ny: usize, nz: usize) -> Self {
        self.grid.nx = nx;
        self.grid.ny = ny;
        self.grid.nz = nz;
        self
    }

    /// Domain extents per axis.
    pub fn extents(mut self, lx: f64, ly: f64, lz: f64) -> Self {
        self.grid.lx = lx;
        self.grid.ly = ly;
        self.grid.lz = lz;
        self
    }

    /// Maximum mesh twist angle in radians.
    pub fn twist(mut self, twist: f64) -> Self {
        self.grid.twist = twist;
        self
    }

    /// Lagrange element order.
    pub fn order(mut self, order: usize) -> Self {
        self.physics.element_order = order;
        self
    }

    /// Angles per octant and energy groups.
    pub fn phase_space(mut self, angles_per_octant: usize, num_groups: usize) -> Self {
        self.physics.angles_per_octant = angles_per_octant;
        self.physics.num_groups = num_groups;
        self
    }

    /// Boundary conditions on the six domain faces.
    pub fn boundaries(mut self, boundaries: DomainBoundaries) -> Self {
        self.physics.boundaries = boundaries;
        self
    }

    /// Within-group scattering-ratio override.
    pub fn scattering_ratio(mut self, c: f64) -> Self {
        self.physics.scattering_ratio = Some(c);
        self
    }

    /// Upscatter fraction layered on the scattering-ratio override: the
    /// matrix keeps `(1 − u) · c · σ_t` within group and spreads
    /// `u · c · σ_t` equally over every other group, making the group
    /// coupling irreducible (see [`Problem::upscatter_ratio`]).
    pub fn upscatter(mut self, u: f64) -> Self {
        self.physics.upscatter_ratio = Some(u);
        self
    }

    /// Inner and outer iteration counts.
    pub fn iterations(mut self, inner: usize, outer: usize) -> Self {
        self.iteration.inner_iterations = inner;
        self.iteration.outer_iterations = outer;
        self
    }

    /// Pointwise convergence tolerance.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.iteration.convergence_tolerance = tolerance;
        self
    }

    /// Inner-iteration strategy.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.iteration.strategy = strategy;
        self
    }

    /// GMRES restart length.
    pub fn gmres_restart(mut self, restart: usize) -> Self {
        self.iteration.gmres_restart = restart;
        self
    }

    /// Dedicated per-rank subdomain Krylov budget for the distributed
    /// block-Jacobi driver.
    pub fn subdomain_krylov_budget(mut self, budget: usize) -> Self {
        self.iteration.subdomain_krylov_budget = Some(budget);
        self
    }

    /// Low-order accelerator selection.
    pub fn accelerator(mut self, accelerator: AcceleratorKind) -> Self {
        self.accel.accelerator = accelerator;
        self
    }

    /// Relative residual target of the low-order DSA CG solve.
    pub fn accel_cg_tolerance(mut self, tolerance: f64) -> Self {
        self.accel.cg_tolerance = tolerance;
        self
    }

    /// Iteration cap of the low-order DSA CG solve.
    pub fn accel_cg_iterations(mut self, iterations: usize) -> Self {
        self.accel.cg_iterations = iterations;
        self
    }

    /// Local dense solver back end.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.execution.solver = solver;
        self
    }

    /// Concurrency scheme for the sweep.
    pub fn scheme(mut self, scheme: ConcurrencyScheme) -> Self {
        self.execution.scheme = scheme;
        self
    }

    /// Worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.execution.num_threads = Some(threads);
        self
    }

    /// Precompute per-element integrals.
    pub fn precompute_integrals(mut self, on: bool) -> Self {
        self.execution.precompute_integrals = on;
        self
    }

    /// Time the linear solve separately.
    pub fn time_solve(mut self, on: bool) -> Self {
        self.execution.time_solve = on;
        self
    }

    /// Assemble kernel for the per-cell hot loop.
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.execution.kernel = kernel;
        self
    }

    /// Storage/solve precision of the per-cell dense solves.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.execution.precision = precision;
        self
    }

    /// Apply the `UNSNAP_STRATEGY`, `UNSNAP_ACCEL`, `UNSNAP_SOLVER`,
    /// `UNSNAP_SCHEME`, `UNSNAP_KERNEL`, `UNSNAP_PRECISION`,
    /// `UNSNAP_THREADS` and `UNSNAP_SUBDOMAIN_ITERS`
    /// environment overrides (the enum knobs round-trip through
    /// `FromStr`/`Display`, so any label the workspace prints is
    /// accepted; `UNSNAP_THREADS` is a positive worker-thread count for
    /// the solver's pool and `UNSNAP_SUBDOMAIN_ITERS` a positive
    /// per-rank Krylov budget for the distributed driver).  Unset
    /// variables leave the builder unchanged; a set but unparsable
    /// variable is an [`Error::InvalidProblem`] naming the knob.
    ///
    /// `UNSNAP_PROGRESS_MS` and `UNSNAP_CHECKPOINT_ITERS` are validated
    /// here too — a non-negative millisecond count (zero disables rate
    /// limiting) and a positive outer-iteration cadence respectively —
    /// even though the progress value is consumed by
    /// [`ProgressObserver::from_env`](crate::session::ProgressObserver::from_env)
    /// rather than stored on the builder: a typo'd interval should fail
    /// the run up front, not silently fall back to the default cadence.
    ///
    /// `UNSNAP_THREADS` sizes the pool *request* like
    /// [`ProblemBuilder::threads`] and is subject to builder validation.
    /// The lower-level `RAYON_NUM_THREADS` variable instead
    /// force-overrides every pool at construction time, bypassing problem
    /// validation — that is the CI determinism-matrix knob, not a
    /// configuration surface.
    pub fn env_overrides(mut self) -> Result<Self> {
        fn parse_env<T: std::str::FromStr<Err = String>>(
            var: &str,
            field: &'static str,
        ) -> Result<Option<T>> {
            match std::env::var(var) {
                Ok(raw) => raw
                    .parse()
                    .map(Some)
                    .map_err(|e: String| Error::invalid_problem(field, format!("{var}: {e}"))),
                Err(_) => Ok(None),
            }
        }
        if let Some(strategy) = parse_env::<StrategyKind>("UNSNAP_STRATEGY", "strategy")? {
            self.iteration.strategy = strategy;
        }
        if let Some(accelerator) = parse_env::<AcceleratorKind>("UNSNAP_ACCEL", "accelerator")? {
            self.accel.accelerator = accelerator;
        }
        if let Ok(raw) = std::env::var("UNSNAP_SUBDOMAIN_ITERS") {
            let budget: usize = raw.trim().parse().map_err(|e| {
                Error::invalid_problem(
                    "subdomain_krylov_budget",
                    format!("UNSNAP_SUBDOMAIN_ITERS: {e}"),
                )
            })?;
            if budget == 0 {
                return Err(Error::invalid_problem(
                    "subdomain_krylov_budget",
                    "UNSNAP_SUBDOMAIN_ITERS: per-rank Krylov budget must be at least 1",
                ));
            }
            self.iteration.subdomain_krylov_budget = Some(budget);
        }
        if let Some(solver) = parse_env::<SolverKind>("UNSNAP_SOLVER", "solver")? {
            self.execution.solver = solver;
        }
        if let Some(scheme) = parse_env::<ConcurrencyScheme>("UNSNAP_SCHEME", "scheme")? {
            self.execution.scheme = scheme;
        }
        if let Some(kernel) = parse_env::<KernelKind>("UNSNAP_KERNEL", "kernel")? {
            self.execution.kernel = kernel;
        }
        if let Some(precision) = parse_env::<Precision>("UNSNAP_PRECISION", "precision")? {
            self.execution.precision = precision;
        }
        if let Ok(raw) = std::env::var("UNSNAP_THREADS") {
            let threads: usize = raw.trim().parse().map_err(|e| {
                Error::invalid_problem("num_threads", format!("UNSNAP_THREADS: {e}"))
            })?;
            if threads == 0 {
                return Err(Error::invalid_problem(
                    "num_threads",
                    "UNSNAP_THREADS: thread count must be at least 1",
                ));
            }
            self.execution.num_threads = Some(threads);
        }
        if let Ok(raw) = std::env::var(crate::session::ProgressObserver::INTERVAL_ENV) {
            raw.trim().parse::<u64>().map_err(|e| {
                Error::invalid_problem("progress_interval_ms", format!("UNSNAP_PROGRESS_MS: {e}"))
            })?;
        }
        // `UNSNAP_CHECKPOINT_ITERS` is consumed by the `unsnap-runlog`
        // checkpoint cadence (checkpoint every N outer iterations), but
        // validated here for the same reason as the progress interval:
        // a typo'd cadence should fail the run up front.
        if let Ok(raw) = std::env::var("UNSNAP_CHECKPOINT_ITERS") {
            let every: usize = raw.trim().parse().map_err(|e| {
                Error::invalid_problem("checkpoint_iters", format!("UNSNAP_CHECKPOINT_ITERS: {e}"))
            })?;
            if every == 0 {
                return Err(Error::invalid_problem(
                    "checkpoint_iters",
                    "UNSNAP_CHECKPOINT_ITERS: checkpoint cadence must be at least 1",
                ));
            }
        }
        Ok(self)
    }

    /// Assemble the flat [`Problem`] without validating (used by `build`
    /// and by tests that target `Problem::validate` directly).
    pub fn assemble(&self) -> Problem {
        Problem {
            nx: self.grid.nx,
            ny: self.grid.ny,
            nz: self.grid.nz,
            lx: self.grid.lx,
            ly: self.grid.ly,
            lz: self.grid.lz,
            twist: self.grid.twist,
            element_order: self.physics.element_order,
            angles_per_octant: self.physics.angles_per_octant,
            num_groups: self.physics.num_groups,
            material: self.physics.material,
            source: self.physics.source,
            boundaries: self.physics.boundaries,
            inner_iterations: self.iteration.inner_iterations,
            outer_iterations: self.iteration.outer_iterations,
            convergence_tolerance: self.iteration.convergence_tolerance,
            solver: self.execution.solver,
            strategy: self.iteration.strategy,
            gmres_restart: self.iteration.gmres_restart,
            accelerator: self.accel.accelerator,
            accel_cg_tolerance: self.accel.cg_tolerance,
            accel_cg_iterations: self.accel.cg_iterations,
            subdomain_krylov_budget: self.iteration.subdomain_krylov_budget,
            scattering_ratio: self.physics.scattering_ratio,
            upscatter_ratio: self.physics.upscatter_ratio,
            scheme: self.execution.scheme,
            num_threads: self.execution.num_threads,
            precompute_integrals: self.execution.precompute_integrals,
            time_solve: self.execution.time_solve,
            kernel: self.execution.kernel,
            precision: self.execution.precision,
        }
    }

    /// Validate every field and cross-field invariant, returning the
    /// assembled [`Problem`] or the first [`Error::InvalidProblem`].
    ///
    /// On top of [`Problem::validate`]'s per-field checks, the builder
    /// enforces the invariants only a construction-time view can see:
    ///
    /// * the angular-flux size `(p+1)³ · cells · groups · angles` must
    ///   not overflow `usize` (element order versus mesh size);
    /// * the convergence tolerance must be finite and non-negative.
    ///
    /// Cross-field rules involving only `Problem` fields (such as
    /// rejecting `accelerator = dsa` with plain source iteration, which
    /// would silently ignore the knob) live in [`Problem::validate`] so
    /// they hold on every construction path, not just the builder's.
    pub fn build(&self) -> Result<Problem> {
        let problem = self.assemble();
        problem.validate()?;

        if !(problem.convergence_tolerance >= 0.0 && problem.convergence_tolerance.is_finite()) {
            return Err(Error::invalid_problem(
                "convergence_tolerance",
                format!(
                    "tolerance must be finite and non-negative, got {}",
                    problem.convergence_tolerance
                ),
            ));
        }

        // Element order versus mesh size: the angular flux must be
        // addressable.  `(p+1)³` nodes per element times cells, groups
        // and angles overflows usize long before it allocates.
        let unknowns = (problem.element_order + 1)
            .checked_pow(3)
            .and_then(|nodes| nodes.checked_mul(problem.num_cells()))
            .and_then(|n| n.checked_mul(problem.num_groups))
            .and_then(|n| n.checked_mul(problem.num_angles()));
        if unknowns.is_none() {
            return Err(Error::invalid_problem(
                "element_order",
                format!(
                    "order-{} elements on a {}x{}x{} mesh with {} groups and {} angles \
                     overflow the addressable angular-flux size",
                    problem.element_order,
                    problem.nx,
                    problem.ny,
                    problem.nz,
                    problem.num_groups,
                    problem.num_angles(),
                ),
            ));
        }

        Ok(problem)
    }

    /// Build the problem and a [`TransportSolver`] for it in one step.
    pub fn solver_for(&self) -> Result<TransportSolver> {
        TransportSolver::new(&self.build()?)
    }

    /// Build the problem and open a [`Session`] on it in one step.
    pub fn session(&self) -> Result<Session> {
        Session::new(&self.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_is_the_tiny_preset() {
        assert_eq!(ProblemBuilder::new().build().unwrap(), Problem::tiny());
        assert_eq!(ProblemBuilder::tiny(), ProblemBuilder::default());
    }

    #[test]
    fn presets_round_trip() {
        assert_eq!(
            ProblemBuilder::quickstart().build().unwrap(),
            Problem::quickstart()
        );
        assert_eq!(
            ProblemBuilder::figure3_full().build().unwrap(),
            Problem::figure3_full()
        );
        assert_eq!(
            ProblemBuilder::figure4_scaled().build().unwrap(),
            Problem::figure4_scaled()
        );
        assert_eq!(
            ProblemBuilder::table2_scaled(2, SolverKind::Mkl)
                .build()
                .unwrap(),
            Problem::table2_scaled(2, SolverKind::Mkl)
        );
    }

    #[test]
    fn fluent_setters_apply() {
        let p = ProblemBuilder::tiny()
            .mesh(5)
            .order(2)
            .phase_space(3, 7)
            .threads(2)
            .solver(SolverKind::Mkl)
            .strategy(StrategyKind::SweepGmres)
            .gmres_restart(11)
            .tolerance(1e-7)
            .iterations(9, 2)
            .time_solve(true)
            .build()
            .unwrap();
        assert_eq!(p.num_cells(), 125);
        assert_eq!(p.nodes_per_element(), 27);
        assert_eq!((p.angles_per_octant, p.num_groups), (3, 7));
        assert_eq!(p.num_threads, Some(2));
        assert_eq!(p.solver, SolverKind::Mkl);
        assert_eq!(p.strategy, StrategyKind::SweepGmres);
        assert_eq!(p.gmres_restart, 11);
        assert_eq!(p.convergence_tolerance, 1e-7);
        assert_eq!((p.inner_iterations, p.outer_iterations), (9, 2));
        assert!(p.time_solve);
    }

    #[test]
    fn invalid_fields_name_themselves() {
        let err = ProblemBuilder::tiny().mesh(0).build().unwrap_err();
        assert_eq!(err.invalid_field(), Some("nx"));
        let err = ProblemBuilder::tiny().order(0).build().unwrap_err();
        assert_eq!(err.invalid_field(), Some("element_order"));
        let err = ProblemBuilder::tiny()
            .scattering_ratio(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("scattering_ratio"));
        let err = ProblemBuilder::tiny()
            .scattering_ratio(1.5)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("scattering_ratio"));
    }

    #[test]
    fn upscatter_validation_needs_a_base_ratio_and_two_groups() {
        // Dangling upscatter (no scattering_ratio to split).
        let err = ProblemBuilder::tiny().upscatter(0.2).build().unwrap_err();
        assert_eq!(err.invalid_field(), Some("upscatter_ratio"));
        // One group has nothing to scatter up into.
        let err = ProblemBuilder::tiny()
            .phase_space(2, 1)
            .scattering_ratio(0.9)
            .upscatter(0.2)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("upscatter_ratio"));
        // Out-of-range fractions.
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let err = ProblemBuilder::tiny()
                .scattering_ratio(0.9)
                .upscatter(bad)
                .build()
                .unwrap_err();
            assert_eq!(err.invalid_field(), Some("upscatter_ratio"), "u = {bad}");
        }
        // The valid combination builds.
        let p = ProblemBuilder::tiny()
            .scattering_ratio(0.9)
            .upscatter(0.2)
            .build()
            .unwrap();
        assert_eq!(p.upscatter_ratio, Some(0.2));
    }

    #[test]
    fn cross_field_overflow_is_rejected() {
        let err = ProblemBuilder::tiny()
            .mesh(1 << 21)
            .order(7)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("element_order"));
    }

    #[test]
    fn cross_field_tolerance_must_be_finite() {
        let err = ProblemBuilder::tiny()
            .tolerance(f64::NAN)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("convergence_tolerance"));
        let err = ProblemBuilder::tiny().tolerance(-1e-6).build().unwrap_err();
        assert_eq!(err.invalid_field(), Some("convergence_tolerance"));
    }

    #[test]
    fn cross_field_dangling_accelerator_is_rejected() {
        // DSA with plain SI would silently never run: reject it and
        // point at the dedicated strategy.
        let err = ProblemBuilder::tiny()
            .accelerator(AcceleratorKind::Dsa)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("accelerator"));
        // With a strategy that reads the knob, the same selection is fine.
        for strategy in [StrategyKind::DsaSourceIteration, StrategyKind::SweepGmres] {
            assert!(ProblemBuilder::tiny()
                .strategy(strategy)
                .accelerator(AcceleratorKind::Dsa)
                .build()
                .is_ok());
        }
        // DSA-SI without the knob is also fine (the strategy implies it).
        assert!(ProblemBuilder::tiny()
            .strategy(StrategyKind::DsaSourceIteration)
            .build()
            .is_ok());
    }

    #[test]
    fn accel_and_subdomain_knobs_apply_and_validate() {
        let p = ProblemBuilder::tiny()
            .strategy(StrategyKind::DsaSourceIteration)
            .accel_cg_tolerance(1e-11)
            .accel_cg_iterations(33)
            .subdomain_krylov_budget(5)
            .build()
            .unwrap();
        assert_eq!(p.accel_cg_tolerance, 1e-11);
        assert_eq!(p.accel_cg_iterations, 33);
        assert_eq!(p.subdomain_krylov_budget, Some(5));

        let err = ProblemBuilder::tiny()
            .accel_cg_tolerance(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("accel_cg_tolerance"));
        let err = ProblemBuilder::tiny()
            .accel_cg_iterations(0)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("accel_cg_iterations"));
        let err = ProblemBuilder::tiny()
            .subdomain_krylov_budget(0)
            .build()
            .unwrap_err();
        assert_eq!(err.invalid_field(), Some("subdomain_krylov_budget"));
    }

    #[test]
    fn any_thread_count_builds_and_solves_to_the_same_bits() {
        // The default scheme's axis is the angles of the whole sweep, and
        // a worker without an angle idles: no width is refused — not 8
        // threads on 2 angles per octant, not more threads than angles —
        // and none changes a bit.
        let flux_at = |threads| {
            let mut solver = ProblemBuilder::tiny()
                .scheme(ConcurrencyScheme::best())
                .threads(threads)
                .solver_for()
                .unwrap();
            solver.run().unwrap();
            solver.scalar_flux().as_slice().to_vec()
        };
        let reference = flux_at(1);
        for threads in [2, 8, 16, 40] {
            assert_eq!(reference, flux_at(threads), "{threads} threads");
        }
    }

    #[test]
    fn scattering_ratio_of_one_is_now_expressible() {
        // The conservative-medium limit c = 1 is a valid (if slowly
        // converging) configuration; the seed rejected it and instead
        // accepted the meaningless c = 0.  The whole path must agree:
        // build, cross-section generation and solver construction.
        let problem = ProblemBuilder::tiny()
            .scattering_ratio(1.0)
            .build()
            .unwrap();
        assert!(TransportSolver::new(&problem).is_ok());
    }

    #[test]
    fn builder_solver_and_session_shortcuts_work() {
        let mut solver = ProblemBuilder::tiny().solver_for().unwrap();
        let direct = solver.run().unwrap();
        let mut session = ProblemBuilder::tiny().session().unwrap();
        let via_session = session.run().unwrap();
        assert_eq!(direct.scalar_flux_total, via_session.scalar_flux_total);
    }

    #[test]
    fn env_overrides_apply_and_reject_garbage() {
        // Env vars are process-global; this is the only test that touches
        // the UNSNAP_* names, and it removes them before returning.
        std::env::set_var("UNSNAP_STRATEGY", "gmres");
        std::env::set_var("UNSNAP_ACCEL", "dsa");
        std::env::set_var("UNSNAP_SOLVER", "mkl");
        std::env::set_var("UNSNAP_SCHEME", "best");
        std::env::set_var("UNSNAP_KERNEL", "blocked");
        std::env::set_var("UNSNAP_PRECISION", "mixed");
        std::env::set_var("UNSNAP_THREADS", "3");
        std::env::set_var("UNSNAP_SUBDOMAIN_ITERS", "9");
        let b = ProblemBuilder::tiny().env_overrides().unwrap();
        assert_eq!(b.iteration.strategy, StrategyKind::SweepGmres);
        assert_eq!(b.accel.accelerator, AcceleratorKind::Dsa);
        assert_eq!(b.execution.solver, SolverKind::Mkl);
        assert_eq!(b.execution.scheme, ConcurrencyScheme::best());
        assert_eq!(b.execution.kernel, KernelKind::Blocked);
        assert_eq!(b.execution.precision, Precision::Mixed);
        assert_eq!(b.execution.num_threads, Some(3));
        assert_eq!(b.iteration.subdomain_krylov_budget, Some(9));

        std::env::set_var("UNSNAP_KERNEL", "nonsense");
        let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
        assert_eq!(err.invalid_field(), Some("kernel"));
        std::env::set_var("UNSNAP_KERNEL", "blocked");

        std::env::set_var("UNSNAP_PRECISION", "f16");
        let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
        assert_eq!(err.invalid_field(), Some("precision"));
        std::env::set_var("UNSNAP_PRECISION", "mixed");

        std::env::set_var("UNSNAP_STRATEGY", "nonsense");
        let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
        assert_eq!(err.invalid_field(), Some("strategy"));
        std::env::set_var("UNSNAP_STRATEGY", "gmres");

        std::env::set_var("UNSNAP_ACCEL", "nonsense");
        let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
        assert_eq!(err.invalid_field(), Some("accelerator"));
        std::env::set_var("UNSNAP_ACCEL", "dsa");

        for bad in ["0", "-2", "many"] {
            std::env::set_var("UNSNAP_THREADS", bad);
            let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
            assert_eq!(err.invalid_field(), Some("num_threads"), "'{bad}'");
        }
        std::env::set_var("UNSNAP_THREADS", "3");

        for bad in ["0", "-1", "lots"] {
            std::env::set_var("UNSNAP_SUBDOMAIN_ITERS", bad);
            let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
            assert_eq!(
                err.invalid_field(),
                Some("subdomain_krylov_budget"),
                "'{bad}'"
            );
        }
        std::env::set_var("UNSNAP_SUBDOMAIN_ITERS", "9");

        // The progress-interval knob is validated (zero = unthrottled is
        // legal) even though its value is consumed by
        // ProgressObserver::from_env, not stored on the builder.
        for good in ["0", "250", " 40 "] {
            std::env::set_var("UNSNAP_PROGRESS_MS", good);
            ProblemBuilder::tiny()
                .env_overrides()
                .unwrap_or_else(|e| panic!("'{good}' must validate: {e}"));
        }
        for bad in ["-5", "soon", "1.5"] {
            std::env::set_var("UNSNAP_PROGRESS_MS", bad);
            let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
            assert_eq!(err.invalid_field(), Some("progress_interval_ms"), "'{bad}'");
        }
        std::env::remove_var("UNSNAP_PROGRESS_MS");

        // Same story for the checkpoint cadence consumed by the runlog
        // crate: positive counts pass, zero and garbage name the knob.
        for good in ["1", "5", " 12 "] {
            std::env::set_var("UNSNAP_CHECKPOINT_ITERS", good);
            ProblemBuilder::tiny()
                .env_overrides()
                .unwrap_or_else(|e| panic!("'{good}' must validate: {e}"));
        }
        for bad in ["0", "-3", "often", "2.5"] {
            std::env::set_var("UNSNAP_CHECKPOINT_ITERS", bad);
            let err = ProblemBuilder::tiny().env_overrides().unwrap_err();
            assert_eq!(err.invalid_field(), Some("checkpoint_iters"), "'{bad}'");
        }
        std::env::remove_var("UNSNAP_CHECKPOINT_ITERS");

        std::env::remove_var("UNSNAP_STRATEGY");
        std::env::remove_var("UNSNAP_ACCEL");
        std::env::remove_var("UNSNAP_SOLVER");
        std::env::remove_var("UNSNAP_SCHEME");
        std::env::remove_var("UNSNAP_KERNEL");
        std::env::remove_var("UNSNAP_PRECISION");
        std::env::remove_var("UNSNAP_THREADS");
        std::env::remove_var("UNSNAP_SUBDOMAIN_ITERS");
        let b = ProblemBuilder::tiny().env_overrides().unwrap();
        assert_eq!(b, ProblemBuilder::tiny());
    }
}
