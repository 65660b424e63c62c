//! Problem definitions and the paper's experiment presets.
//!
//! A [`Problem`] gathers every input parameter of an UnSNAP run: the mesh
//! extents and twist, the angular and energy resolution, the finite-element
//! order, the iteration counts, the local dense-solver back end, and the
//! concurrency scheme used by the sweep.  The presets reproduce the two
//! problem configurations of §IV of the paper (the loop-ordering study of
//! Figures 3/4 and the solver comparison of Table II), both at their full
//! published size and at a scaled-down size suitable for laptops and CI.

use unsnap_linalg::SolverKind;
use unsnap_mesh::boundary::DomainBoundaries;
use unsnap_mesh::{StructuredGrid, UnstructuredMesh};
use unsnap_sweep::ConcurrencyScheme;

use crate::data::{MaterialOption, SourceOption};
use crate::error::{Error, Result};
use crate::kernel::KernelKind;
use crate::layout::Precision;
use crate::strategy::{AcceleratorKind, StrategyKind};

/// Full description of an UnSNAP run.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
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
    /// Maximum mesh twist angle in radians (the paper uses up to 0.001).
    pub twist: f64,
    /// Lagrange element order (1 = linear, 3 = cubic, …).
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
    /// Number of inner (source) iterations per outer iteration.
    pub inner_iterations: usize,
    /// Number of outer (group-coupling) iterations.
    pub outer_iterations: usize,
    /// Pointwise scalar-flux convergence tolerance.  The paper's timing
    /// runs deliberately use too few iterations to converge (for constant
    /// iteration counts); set a tolerance of 0 to force every requested
    /// iteration to run.
    pub convergence_tolerance: f64,
    /// Local dense solver back end (GE, reference LU or the MKL stand-in).
    pub solver: SolverKind,
    /// Inner-iteration strategy: classic source iteration or the
    /// sweep-preconditioned Krylov solve.
    pub strategy: StrategyKind,
    /// GMRES restart length `m` (only read by the Krylov strategies).
    pub gmres_restart: usize,
    /// Optional low-order accelerator for the Krylov strategies: with
    /// [`AcceleratorKind::Dsa`], `SweepGmres` solves the
    /// DSA-preconditioned fixed point (each operator application adds a
    /// low-order diffusion correction).  The dedicated
    /// [`StrategyKind::DsaSourceIteration`] strategy always applies DSA
    /// regardless of this knob; plain `SourceIteration` ignores — and
    /// [`Problem::validate`] rejects — a dangling accelerator selection.
    pub accelerator: AcceleratorKind,
    /// Relative residual target of the low-order DSA CG solve (read
    /// whenever a DSA correction runs).
    pub accel_cg_tolerance: f64,
    /// Iteration cap of the low-order DSA CG solve.
    pub accel_cg_iterations: usize,
    /// Dedicated per-rank Krylov budget for the distributed block-Jacobi
    /// driver: the iteration cap of *each rank's subdomain solve per
    /// halo exchange*.  `None` preserves the historical behaviour of
    /// capping both the halo loop and the per-exchange solve with
    /// [`Problem::inner_iterations`].
    pub subdomain_krylov_budget: Option<usize>,
    /// Optional override of the within-group scattering ratio `c`.
    /// `None` keeps the SNAP recipe (`c ≈ 0.5–0.7`); `Some(c)` replaces
    /// the scattering matrix with purely within-group scattering
    /// `σ_s(g → g) = c · σ_t(g)`, the knob for scattering-dominated
    /// scenarios where source iteration stalls.
    pub scattering_ratio: Option<f64>,
    /// Optional upscatter fraction `u` layered on top of
    /// [`Problem::scattering_ratio`] (and requiring it): each group keeps
    /// `(1 − u) · c · σ_t` within group and spreads `u · c · σ_t`
    /// equally over every *other* group, lower- and higher-energy alike.
    /// This makes the group-to-group scattering matrix irreducible — no
    /// group ordering is triangular — so the outer (group-coupling)
    /// iteration has to genuinely converge instead of resolving in one
    /// downstream pass.  Must lie in `(0, 1)` and needs at least two
    /// energy groups.
    pub upscatter_ratio: Option<f64>,
    /// Concurrency scheme for the sweep.
    pub scheme: ConcurrencyScheme,
    /// How many threads a sweep forks into (`None` = the machine's
    /// available parallelism).  A width of 1 runs the sweep on the calling
    /// thread.  The `RAYON_NUM_THREADS` environment variable
    /// ([`crate::team::forced_width`]) force-overrides whatever is
    /// requested here — the knob CI uses to replay the whole test suite
    /// at several widths — and every scheme produces bit-for-bit
    /// identical physics regardless of the effective width.
    pub num_threads: Option<usize>,
    /// Precompute and store the per-element integrals (the paper's
    /// approach) or recompute them on the fly inside the kernel.
    pub precompute_integrals: bool,
    /// Record the time spent inside the linear solve separately from the
    /// assembly (adds a small timing overhead, as the paper notes).
    pub time_solve: bool,
    /// The kernel label.  Inert: every [`KernelKind`] runs the one tiled
    /// assembly, which is bit for bit the reference one.
    pub kernel: KernelKind,
    /// The precision label.  Inert: every local system is solved in `f64`
    /// (see [`Precision`]).
    pub precision: Precision,
}

impl Problem {
    /// A tiny smoke-test problem (runs in milliseconds).
    pub fn tiny() -> Self {
        Self {
            nx: 3,
            ny: 3,
            nz: 3,
            lx: 1.0,
            ly: 1.0,
            lz: 1.0,
            twist: 0.001,
            element_order: 1,
            angles_per_octant: 2,
            num_groups: 2,
            material: MaterialOption::Option1,
            source: SourceOption::Option1,
            boundaries: DomainBoundaries::vacuum(),
            inner_iterations: 2,
            outer_iterations: 1,
            convergence_tolerance: 0.0,
            solver: SolverKind::GaussianElimination,
            strategy: StrategyKind::SourceIteration,
            gmres_restart: 20,
            accelerator: AcceleratorKind::None,
            accel_cg_tolerance: 1e-8,
            accel_cg_iterations: 200,
            subdomain_krylov_budget: None,
            scattering_ratio: None,
            upscatter_ratio: None,
            scheme: ConcurrencyScheme::serial(),
            num_threads: Some(1),
            precompute_integrals: true,
            time_solve: false,
            kernel: KernelKind::Reference,
            precision: Precision::F64,
        }
    }

    /// A small but representative problem used by the quickstart example.
    pub fn quickstart() -> Self {
        Self {
            nx: 6,
            ny: 6,
            nz: 6,
            angles_per_octant: 4,
            num_groups: 4,
            inner_iterations: 4,
            outer_iterations: 2,
            convergence_tolerance: 1e-6,
            scheme: ConcurrencyScheme::best(),
            num_threads: None,
            ..Self::tiny()
        }
    }

    /// The Figure 3 / Figure 4 problem of the paper:
    ///
    /// * 16 × 16 × 16 elements
    /// * 36 angles per octant with isotropic scattering
    /// * 64 energy groups, Source and Material "Option 1"
    /// * linear (Figure 3) or cubic (Figure 4) finite elements
    /// * mesh twisting of up to 0.001 radians
    /// * 5 inner and 1 outer iteration (not enough to converge — by design,
    ///   so every run does the same amount of work)
    pub fn figure3_full() -> Self {
        Self {
            nx: 16,
            ny: 16,
            nz: 16,
            element_order: 1,
            angles_per_octant: 36,
            num_groups: 64,
            twist: 0.001,
            inner_iterations: 5,
            outer_iterations: 1,
            convergence_tolerance: 0.0,
            scheme: ConcurrencyScheme::best(),
            num_threads: None,
            ..Self::tiny()
        }
    }

    /// Scaled-down Figure 3 problem: same shape (linear elements, many
    /// groups relative to angles), small enough to run in seconds.  It
    /// exists for CI time, not for memory: a sweep of [`Problem::figure3_full`]
    /// holds ψ in `sweep_scratch_bytes(2)` = 4 slabs × 16 MiB = 64 MiB at
    /// two threads, not the whole angular flux.
    pub fn figure3_scaled() -> Self {
        Self {
            nx: 8,
            ny: 8,
            nz: 8,
            angles_per_octant: 6,
            num_groups: 16,
            ..Self::figure3_full()
        }
    }

    /// The Figure 4 problem: as Figure 3 but with cubic elements.
    pub fn figure4_full() -> Self {
        Self {
            element_order: 3,
            ..Self::figure3_full()
        }
    }

    /// Scaled-down Figure 4 problem (cubic elements).
    pub fn figure4_scaled() -> Self {
        Self {
            nx: 4,
            ny: 4,
            nz: 4,
            angles_per_octant: 4,
            num_groups: 8,
            element_order: 3,
            ..Self::figure3_full()
        }
    }

    /// The Table II problem of the paper:
    ///
    /// * 32 × 32 × 32 elements
    /// * 10 angles per octant with isotropic scattering
    /// * 16 energy groups, Source and Material "Option 1"
    /// * mesh twisting of up to 0.001 radians
    /// * 5 inner and 1 outer iteration
    /// * element order 1–4, hand-written GE vs the MKL stand-in
    pub fn table2_full(element_order: usize, solver: SolverKind) -> Self {
        Self {
            nx: 32,
            ny: 32,
            nz: 32,
            element_order,
            angles_per_octant: 10,
            num_groups: 16,
            twist: 0.001,
            inner_iterations: 5,
            outer_iterations: 1,
            convergence_tolerance: 0.0,
            solver,
            scheme: ConcurrencyScheme::serial(),
            num_threads: Some(1),
            time_solve: true,
            ..Self::tiny()
        }
    }

    /// Scaled-down Table II problem.
    pub fn table2_scaled(element_order: usize, solver: SolverKind) -> Self {
        Self {
            nx: 4,
            ny: 4,
            nz: 4,
            angles_per_octant: 2,
            num_groups: 4,
            inner_iterations: 2,
            ..Self::table2_full(element_order, solver)
        }
    }

    /// A diffusive (scattering-dominated) preset: the quickstart shape
    /// with the within-group scattering ratio pushed to `c = 0.99` and
    /// the DSA-accelerated source-iteration strategy selected.  Plain
    /// source iteration contracts its error by only `c` per sweep, so
    /// this is the regime the low-order diffusion correction of
    /// `unsnap-accel` exists for; the preset gives servers, tests and
    /// bench bins a shared entry into it.
    pub fn dsa_regime() -> Self {
        Self {
            inner_iterations: 60,
            outer_iterations: 4,
            convergence_tolerance: 1e-6,
            strategy: StrategyKind::DsaSourceIteration,
            scattering_ratio: Some(0.99),
            ..Self::quickstart()
        }
    }

    /// The names [`Problem::from_name`] accepts, in catalogue order.
    ///
    /// The bare figure/table names resolve to the *scaled* presets (the
    /// CI-sized problems); the `-full` variants select the published
    /// problem sizes.
    pub fn registry_names() -> &'static [&'static str] {
        &[
            "tiny",
            "quickstart",
            "figure3",
            "figure3-full",
            "figure4",
            "figure4-full",
            "table2",
            "table2-full",
            "dsa-regime",
        ]
    }

    /// Look a preset up by name — the single catalogue the server wire
    /// format, the tests and the bench bins draw from, so "the tiny
    /// problem" means the same configuration everywhere.
    ///
    /// Names are case-insensitive and trimmed; an unknown name is an
    /// [`Error::InvalidProblem`] on the `problem` field listing the
    /// known catalogue.  `table2` selects order-2 elements on the MKL
    /// stand-in back end (the mid-table configuration).
    pub fn from_name(name: &str) -> Result<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "tiny" => Ok(Self::tiny()),
            "quickstart" => Ok(Self::quickstart()),
            "figure3" => Ok(Self::figure3_scaled()),
            "figure3-full" => Ok(Self::figure3_full()),
            "figure4" => Ok(Self::figure4_scaled()),
            "figure4-full" => Ok(Self::figure4_full()),
            "table2" => Ok(Self::table2_scaled(2, SolverKind::Mkl)),
            "table2-full" => Ok(Self::table2_full(2, SolverKind::Mkl)),
            "dsa-regime" => Ok(Self::dsa_regime()),
            other => Err(Error::invalid_problem(
                "problem",
                format!(
                    "unknown problem name '{other}'; known names: {}",
                    Self::registry_names().join(", ")
                ),
            )),
        }
    }

    /// A deterministic content hash of the full configuration: FNV-1a
    /// (64-bit) over the canonical wire serialisation
    /// ([`wire::problem_to_json`](crate::wire::problem_to_json)), which
    /// writes every field in declared order with shortest-round-trip
    /// floats.  Two problems hash equal **iff** they are field-for-field
    /// equal (modulo the 64-bit collision bound), so the hash is usable
    /// as a cache key for solve results; it is stable across processes
    /// and platforms because nothing machine-dependent enters the
    /// serialisation.
    pub fn canonical_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let canonical = crate::wire::problem_to_json(self);
        let mut hash = FNV_OFFSET;
        for byte in canonical.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// Override the concurrency scheme.
    pub fn with_scheme(mut self, scheme: ConcurrencyScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Override the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = Some(threads);
        self
    }

    /// Override the local solver back end.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Override the inner-iteration strategy.
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the within-group scattering ratio (see
    /// [`Problem::scattering_ratio`]).
    pub fn with_scattering_ratio(mut self, c: f64) -> Self {
        self.scattering_ratio = Some(c);
        self
    }

    /// Override the upscatter fraction (see
    /// [`Problem::upscatter_ratio`]).  Requires a scattering-ratio
    /// override to layer on; `validate` rejects a dangling upscatter.
    pub fn with_upscatter_ratio(mut self, u: f64) -> Self {
        self.upscatter_ratio = Some(u);
        self
    }

    /// Override the low-order accelerator selection.
    pub fn with_accelerator(mut self, accelerator: AcceleratorKind) -> Self {
        self.accelerator = accelerator;
        self
    }

    /// Override the low-order DSA CG tolerance and iteration cap.
    pub fn with_accel_cg(mut self, tolerance: f64, max_iterations: usize) -> Self {
        self.accel_cg_tolerance = tolerance;
        self.accel_cg_iterations = max_iterations;
        self
    }

    /// Override the dedicated per-rank subdomain Krylov budget (see
    /// [`Problem::subdomain_krylov_budget`]).
    pub fn with_subdomain_krylov_budget(mut self, budget: usize) -> Self {
        self.subdomain_krylov_budget = Some(budget);
        self
    }

    /// Override the element order.
    pub fn with_order(mut self, order: usize) -> Self {
        self.element_order = order;
        self
    }

    /// Override the mesh resolution (cubic).
    pub fn with_mesh(mut self, n: usize) -> Self {
        self.nx = n;
        self.ny = n;
        self.nz = n;
        self
    }

    /// Override angles per octant and group count.
    pub fn with_phase_space(mut self, angles_per_octant: usize, num_groups: usize) -> Self {
        self.angles_per_octant = angles_per_octant;
        self.num_groups = num_groups;
        self
    }

    /// Enable/disable the separate solve timer.
    pub fn with_solve_timing(mut self, on: bool) -> Self {
        self.time_solve = on;
        self
    }

    /// Enable/disable precomputed per-element integrals.
    pub fn with_precomputed_integrals(mut self, on: bool) -> Self {
        self.precompute_integrals = on;
        self
    }

    /// Override the assemble kernel (see [`Problem::kernel`]).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The structured grid the mesh is derived from.
    pub fn grid(&self) -> StructuredGrid {
        StructuredGrid::new(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)
    }

    /// Build the (twisted) unstructured mesh for this problem.
    pub fn build_mesh(&self) -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&self.grid(), self.twist)
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Nodes per element, `(order + 1)³`.
    pub fn nodes_per_element(&self) -> usize {
        (self.element_order + 1).pow(3)
    }

    /// Total number of angles (8 × angles per octant).
    pub fn num_angles(&self) -> usize {
        8 * self.angles_per_octant
    }

    /// Number of angular-flux unknowns
    /// (nodes × cells × groups × angles) — the quantity that drives the
    /// "enormous memory footprint" discussion of §II-C.
    pub fn angular_flux_unknowns(&self) -> usize {
        self.nodes_per_element() * self.num_cells() * self.num_groups * self.num_angles()
    }

    /// Size in bytes (FP64) of the angular-flux *unknown set* of §II-C.
    /// Nothing this large is resident during a solve: a sweep holds ψ of a
    /// few angles at a time ([`Problem::sweep_scratch_bytes`]), and only
    /// `TransportSolver::keep_angular_flux` stores all of it.
    pub fn angular_flux_bytes(&self) -> usize {
        self.angular_flux_unknowns() * std::mem::size_of::<f64>()
    }

    /// Bytes of ψ a single-domain sweep on `workers` workers holds: two
    /// slabs — ψ of one angle, the size of φ — per worker of the
    /// angle-threaded scheme, one slab when a single worker or a per-bucket
    /// scheme takes the angles one after another.
    pub fn sweep_scratch_bytes(&self, workers: usize) -> usize {
        let (_, slabs) = crate::team::sweep_team(self.scheme, workers, self.num_angles());
        slabs * self.angular_flux_bytes() / self.num_angles()
    }

    /// Every rule a runnable problem must satisfy, per field and across
    /// fields.
    ///
    /// Each failed check reports the offending field through
    /// [`Error::InvalidProblem`], so callers (and tests) can match on the
    /// rejection class instead of parsing a message.  Every solver
    /// constructor, the wire parser and the run-log manifest call this,
    /// so the same rules hold however the `Problem` was put together —
    /// a preset, `with_*` setters, struct-update syntax or a JSON
    /// document.
    pub fn validate(&self) -> Result<()> {
        for (field, n) in [("nx", self.nx), ("ny", self.ny), ("nz", self.nz)] {
            if n == 0 {
                return Err(Error::invalid_problem(
                    field,
                    format!(
                        "mesh must have at least one cell in every direction, got {}x{}x{}",
                        self.nx, self.ny, self.nz
                    ),
                ));
            }
        }
        for (field, l) in [("lx", self.lx), ("ly", self.ly), ("lz", self.lz)] {
            if !(l > 0.0 && l.is_finite()) {
                return Err(Error::invalid_problem(
                    field,
                    format!(
                        "domain extents must be finite and positive, got {}x{}x{}",
                        self.lx, self.ly, self.lz
                    ),
                ));
            }
        }
        if self.element_order == 0 {
            return Err(Error::invalid_problem(
                "element_order",
                "element order must be at least 1",
            ));
        }
        if self.angles_per_octant == 0 {
            return Err(Error::invalid_problem(
                "angles_per_octant",
                "need at least one angle per octant",
            ));
        }
        if self.num_groups == 0 {
            return Err(Error::invalid_problem(
                "num_groups",
                "need at least one energy group",
            ));
        }
        if self.inner_iterations == 0 {
            return Err(Error::invalid_problem(
                "inner_iterations",
                "iteration counts must be at least 1",
            ));
        }
        if self.outer_iterations == 0 {
            return Err(Error::invalid_problem(
                "outer_iterations",
                "iteration counts must be at least 1",
            ));
        }
        if let Some(0) = self.num_threads {
            return Err(Error::invalid_problem(
                "num_threads",
                "thread count must be at least 1",
            ));
        }
        if !(self.twist >= 0.0 && self.twist.is_finite()) {
            return Err(Error::invalid_problem(
                "twist",
                format!(
                    "twist angle must be finite and non-negative, got {}",
                    self.twist
                ),
            ));
        }
        if self.gmres_restart == 0 {
            return Err(Error::invalid_problem(
                "gmres_restart",
                "GMRES restart length must be at least 1",
            ));
        }
        if !(self.accel_cg_tolerance > 0.0 && self.accel_cg_tolerance.is_finite()) {
            return Err(Error::invalid_problem(
                "accel_cg_tolerance",
                format!(
                    "DSA CG tolerance must be finite and positive, got {}",
                    self.accel_cg_tolerance
                ),
            ));
        }
        if self.accel_cg_iterations == 0 {
            return Err(Error::invalid_problem(
                "accel_cg_iterations",
                "DSA CG iteration cap must be at least 1",
            ));
        }
        if let Some(0) = self.subdomain_krylov_budget {
            return Err(Error::invalid_problem(
                "subdomain_krylov_budget",
                "per-rank Krylov budget must be at least 1",
            ));
        }
        if let Some(c) = self.scattering_ratio {
            if !(c > 0.0 && c <= 1.0) {
                return Err(Error::invalid_problem(
                    "scattering_ratio",
                    format!("scattering ratio must lie in (0, 1], got {c}"),
                ));
            }
        }
        if let Some(u) = self.upscatter_ratio {
            if self.scattering_ratio.is_none() {
                return Err(Error::invalid_problem(
                    "upscatter_ratio",
                    "upscatter needs a scattering_ratio override to split; set one",
                ));
            }
            if self.num_groups < 2 {
                return Err(Error::invalid_problem(
                    "upscatter_ratio",
                    "upscatter needs at least 2 energy groups to scatter up into",
                ));
            }
            if !(u > 0.0 && u < 1.0) {
                return Err(Error::invalid_problem(
                    "upscatter_ratio",
                    format!("upscatter fraction must lie in (0, 1), got {u}"),
                ));
            }
        }
        if self.accelerator == AcceleratorKind::Dsa
            && self.strategy == StrategyKind::SourceIteration
        {
            return Err(Error::invalid_problem(
                "accelerator",
                "plain source iteration never applies the DSA accelerator; select the \
                 dsa-si strategy (StrategyKind::DsaSourceIteration) or the gmres strategy \
                 to make the accelerator effective",
            ));
        }
        if !(self.convergence_tolerance >= 0.0 && self.convergence_tolerance.is_finite()) {
            return Err(Error::invalid_problem(
                "convergence_tolerance",
                format!(
                    "tolerance must be finite and non-negative, got {}",
                    self.convergence_tolerance
                ),
            ));
        }
        // The angular flux must be addressable: cells first (`num_cells`
        // and the size helpers multiply unchecked), then nodes × cells ×
        // groups × angles — both overflow usize long before they allocate.
        let cells = self
            .nx
            .checked_mul(self.ny)
            .and_then(|n| n.checked_mul(self.nz))
            .ok_or_else(|| {
                Error::invalid_problem(
                    "nx",
                    format!(
                        "a {}x{}x{} mesh overflows the addressable cell count",
                        self.nx, self.ny, self.nz
                    ),
                )
            })?;
        let unknowns = self
            .element_order
            .checked_add(1)
            .and_then(|n| n.checked_pow(3))
            .and_then(|nodes| nodes.checked_mul(cells))
            .and_then(|n| n.checked_mul(self.num_groups))
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| n.checked_mul(self.angles_per_octant));
        if unknowns.is_none() {
            return Err(Error::invalid_problem(
                "element_order",
                format!(
                    "order-{} elements on a {}x{}x{} mesh with {} groups and {} angles per \
                     octant overflow the addressable angular-flux size",
                    self.element_order,
                    self.nx,
                    self.ny,
                    self.nz,
                    self.num_groups,
                    self.angles_per_octant,
                ),
            ));
        }
        Ok(())
    }
}

impl Default for Problem {
    fn default() -> Self {
        Self::quickstart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [
            Problem::tiny(),
            Problem::quickstart(),
            Problem::figure3_full(),
            Problem::figure3_scaled(),
            Problem::figure4_full(),
            Problem::figure4_scaled(),
            Problem::table2_full(3, SolverKind::Mkl),
            Problem::table2_scaled(2, SolverKind::GaussianElimination),
        ] {
            assert!(p.validate().is_ok(), "{p:?}");
        }
    }

    #[test]
    fn figure3_matches_paper_parameters() {
        let p = Problem::figure3_full();
        assert_eq!((p.nx, p.ny, p.nz), (16, 16, 16));
        assert_eq!(p.angles_per_octant, 36);
        assert_eq!(p.num_groups, 64);
        assert_eq!(p.element_order, 1);
        assert!(p.twist <= 0.001);
        assert_eq!(p.inner_iterations, 5);
        assert_eq!(p.outer_iterations, 1);
    }

    #[test]
    fn figure4_is_cubic() {
        assert_eq!(Problem::figure4_full().element_order, 3);
        assert_eq!(Problem::figure4_scaled().element_order, 3);
    }

    #[test]
    fn table2_matches_paper_parameters() {
        let p = Problem::table2_full(4, SolverKind::Mkl);
        assert_eq!((p.nx, p.ny, p.nz), (32, 32, 32));
        assert_eq!(p.angles_per_octant, 10);
        assert_eq!(p.num_groups, 16);
        assert_eq!(p.element_order, 4);
        assert_eq!(p.solver, SolverKind::Mkl);
        assert!(p.time_solve);
    }

    #[test]
    fn angular_flux_footprint_scales_with_order() {
        // Linear FEM stores 8× the unknowns of a one-value-per-cell FD
        // method on the same mesh (§II-C of the paper).
        let p1 = Problem::tiny();
        let fd_unknowns = p1.num_cells() * p1.num_groups * p1.num_angles();
        assert_eq!(p1.angular_flux_unknowns(), 8 * fd_unknowns);
        let p3 = Problem::tiny().with_order(3);
        assert_eq!(p3.angular_flux_unknowns(), 64 * fd_unknowns);
        assert_eq!(p1.angular_flux_bytes(), p1.angular_flux_unknowns() * 8);
        // A sweep holds slabs of it: one per angle-at-a-time walker, two
        // per worker of an angle-threaded team.
        let slab = p1.angular_flux_bytes() / p1.num_angles();
        assert_eq!(p1.sweep_scratch_bytes(2), slab);
        let angles = p1.with_scheme(ConcurrencyScheme::best());
        assert_eq!(angles.sweep_scratch_bytes(1), slab);
        assert_eq!(angles.sweep_scratch_bytes(2), 4 * slab);
        assert_eq!(angles.sweep_scratch_bytes(99), 2 * 16 * slab);
        // What `figure3_scaled` does not need to save: the paper-size
        // problem's two-thread sweep holds 4 slabs of 16 MiB.
        assert_eq!(
            Problem::figure3_full().sweep_scratch_bytes(2),
            4 * (16 << 20)
        );
    }

    #[test]
    fn builders_apply() {
        let p = Problem::tiny()
            .with_mesh(5)
            .with_order(2)
            .with_phase_space(3, 7)
            .with_threads(2)
            .with_solver(SolverKind::Mkl)
            .with_scheme(ConcurrencyScheme::best())
            .with_solve_timing(true)
            .with_precomputed_integrals(false);
        assert_eq!(p.num_cells(), 125);
        assert_eq!(p.nodes_per_element(), 27);
        assert_eq!(p.num_angles(), 24);
        assert_eq!(p.num_groups, 7);
        assert_eq!(p.num_threads, Some(2));
        assert_eq!(p.solver, SolverKind::Mkl);
        assert!(p.time_solve);
        assert!(!p.precompute_integrals);
    }

    #[test]
    fn validate_names_the_offending_field() {
        fn tiny_with(edit: impl FnOnce(&mut Problem)) -> Problem {
            let mut problem = Problem::tiny();
            edit(&mut problem);
            problem
        }
        let split = || Problem::tiny().with_scattering_ratio(0.9);
        let rejected = [
            ("nx", tiny_with(|p| p.nx = 0)),
            ("ny", tiny_with(|p| p.ny = 0)),
            ("nz", tiny_with(|p| p.nz = 0)),
            ("lx", tiny_with(|p| p.lx = -1.0)),
            ("ly", tiny_with(|p| p.ly = 0.0)),
            ("lz", tiny_with(|p| p.lz = f64::NAN)),
            ("lx", tiny_with(|p| p.lx = f64::INFINITY)),
            ("element_order", tiny_with(|p| p.element_order = 0)),
            ("angles_per_octant", tiny_with(|p| p.angles_per_octant = 0)),
            ("num_groups", tiny_with(|p| p.num_groups = 0)),
            ("inner_iterations", tiny_with(|p| p.inner_iterations = 0)),
            ("outer_iterations", tiny_with(|p| p.outer_iterations = 0)),
            ("num_threads", tiny_with(|p| p.num_threads = Some(0))),
            ("twist", tiny_with(|p| p.twist = -0.1)),
            ("twist", tiny_with(|p| p.twist = f64::INFINITY)),
            ("twist", tiny_with(|p| p.twist = f64::NAN)),
            ("gmres_restart", tiny_with(|p| p.gmres_restart = 0)),
            (
                "accel_cg_tolerance",
                tiny_with(|p| p.accel_cg_tolerance = 0.0),
            ),
            (
                "accel_cg_tolerance",
                tiny_with(|p| p.accel_cg_tolerance = f64::NAN),
            ),
            (
                "accel_cg_iterations",
                tiny_with(|p| p.accel_cg_iterations = 0),
            ),
            (
                "subdomain_krylov_budget",
                tiny_with(|p| p.subdomain_krylov_budget = Some(0)),
            ),
            (
                "scattering_ratio",
                tiny_with(|p| p.scattering_ratio = Some(0.0)),
            ),
            (
                "scattering_ratio",
                tiny_with(|p| p.scattering_ratio = Some(1.5)),
            ),
            (
                "scattering_ratio",
                tiny_with(|p| p.scattering_ratio = Some(f64::NAN)),
            ),
            // Dangling upscatter: no scattering ratio to split, or one
            // group with nothing to scatter up into.
            (
                "upscatter_ratio",
                tiny_with(|p| p.upscatter_ratio = Some(0.2)),
            ),
            (
                "upscatter_ratio",
                split().with_phase_space(2, 1).with_upscatter_ratio(0.2),
            ),
            ("upscatter_ratio", split().with_upscatter_ratio(0.0)),
            ("upscatter_ratio", split().with_upscatter_ratio(1.0)),
            ("upscatter_ratio", split().with_upscatter_ratio(-0.5)),
            ("upscatter_ratio", split().with_upscatter_ratio(f64::NAN)),
            // Plain source iteration never reads the accelerator: a
            // dangling selection would be silently ignored.
            (
                "accelerator",
                tiny_with(|p| p.accelerator = AcceleratorKind::Dsa),
            ),
            (
                "convergence_tolerance",
                tiny_with(|p| p.convergence_tolerance = f64::NAN),
            ),
            (
                "convergence_tolerance",
                tiny_with(|p| p.convergence_tolerance = -1e-6),
            ),
            (
                "convergence_tolerance",
                tiny_with(|p| p.convergence_tolerance = f64::INFINITY),
            ),
            // nx·ny·nz wraps to 0 in release arithmetic.
            ("nx", Problem::tiny().with_mesh(1 << 22)),
            // The cell count fits; nodes × cells × groups × angles does not.
            (
                "element_order",
                Problem::tiny().with_mesh(1 << 21).with_order(7),
            ),
            (
                "element_order",
                tiny_with(|p| p.angles_per_octant = usize::MAX / 4),
            ),
        ];
        for (field, problem) in rejected {
            assert_eq!(
                problem.validate().unwrap_err().invalid_field(),
                Some(field),
                "{problem:?}"
            );
        }

        let accepted = [
            // The conservative-medium limit c = 1 is expressible.
            Problem::tiny().with_scattering_ratio(1.0),
            split().with_upscatter_ratio(0.2),
            // DSA with a strategy that reads the knob, and DSA-SI without
            // the knob (the strategy implies it).
            Problem::tiny()
                .with_strategy(StrategyKind::DsaSourceIteration)
                .with_accelerator(AcceleratorKind::Dsa),
            Problem::tiny()
                .with_strategy(StrategyKind::SweepGmres)
                .with_accelerator(AcceleratorKind::Dsa),
            Problem::tiny().with_strategy(StrategyKind::DsaSourceIteration),
        ];
        for problem in accepted {
            assert!(problem.validate().is_ok(), "{problem:?}");
        }
    }

    #[test]
    fn kernel_and_precision_builders_apply() {
        let p = Problem::tiny().with_kernel(KernelKind::Blocked);
        assert_eq!(p.kernel, KernelKind::Blocked);
        assert!(p.validate().is_ok());
        // Defaults preserve the seed behaviour.
        assert_eq!(Problem::tiny().kernel, KernelKind::Reference);
        assert_eq!(Problem::tiny().precision, Precision::F64);
    }

    #[test]
    fn accel_and_subdomain_builders_apply() {
        let p = Problem::tiny()
            .with_strategy(StrategyKind::SweepGmres)
            .with_accelerator(AcceleratorKind::Dsa)
            .with_accel_cg(1e-10, 50)
            .with_subdomain_krylov_budget(7);
        assert_eq!(p.accelerator, AcceleratorKind::Dsa);
        assert_eq!(p.accel_cg_tolerance, 1e-10);
        assert_eq!(p.accel_cg_iterations, 50);
        assert_eq!(p.subdomain_krylov_budget, Some(7));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn mesh_construction_matches_extents() {
        let p = Problem::tiny();
        let mesh = p.build_mesh();
        assert_eq!(mesh.num_cells(), p.num_cells());
        assert!((mesh.twist().max_angle - p.twist).abs() < 1e-15);
    }

    #[test]
    fn default_is_quickstart() {
        assert_eq!(Problem::default(), Problem::quickstart());
    }
}
