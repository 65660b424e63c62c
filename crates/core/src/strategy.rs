//! Pluggable inner-iteration strategies for the transport solver.
//!
//! The seed solver resolves the within-group scattering fixed point
//!
//! ```text
//! φ = D L⁻¹ (S_w φ + q_ext)
//! ```
//!
//! by **source iteration** (SI): apply the right-hand side repeatedly and
//! let the contraction — whose rate is the within-group scattering ratio
//! `c` — do the work.  That is [`SourceIteration`], reproduced here
//! bit-for-bit from the original inner loop.  SI needs `O(log tol / log
//! c)` sweeps, which blows up as `c → 1` (scattering-dominated media).
//!
//! [`SweepGmres`] instead treats one full transport sweep `D L⁻¹` as the
//! preconditioner application and hands the equivalent linear system
//!
//! ```text
//! (I − D L⁻¹ S_w) φ = D L⁻¹ q_ext
//! ```
//!
//! to the matrix-free GMRES(m) solver from `unsnap-krylov`.  Every Krylov
//! iteration costs exactly one sweep (the same unit of work as one SI
//! iteration), so sweep counts are directly comparable between the two
//! strategies — and on high-`c` problems GMRES needs dramatically fewer.
//!
//! Strategies are selected per [`Problem`](crate::problem::Problem) via
//! [`StrategyKind`] and run by
//! [`TransportSolver::run`](crate::solver::TransportSolver::run); both see
//! the same convergence tolerance and the same `inner_iterations` budget
//! per outer iteration.  The group-to-group (outer Jacobi) coupling is
//! untouched: within one outer iteration the operator is block-diagonal
//! over groups, so a single Krylov space over the full scalar-flux vector
//! solves every group's within-group equation simultaneously.
//!
//! Strategies do not touch a solver type directly: they drive the
//! [`InnerSolveContext`] trait, whose one real implementation is the
//! [`DomainContext`](crate::domain::DomainContext) both the single-domain
//! [`TransportSolver`](crate::solver::TransportSolver) and the
//! distributed block-Jacobi driver (`unsnap-comm`) build over their
//! sweep domains — the same SI/GMRES objects therefore run whole-domain
//! and rank-decomposed solves alike.

use std::time::Duration;

use unsnap_krylov::{Gmres, GmresConfig, GmresWorkspace, LinearOperator, ObservedOperator};

use crate::error::Result;
use crate::session::{Lane, Phase, RunObserver, SolveEvent};
use crate::solver::{relative_change, RunStats};

/// Which inner-iteration strategy the solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyKind {
    /// Classic lagged source iteration (the SNAP/UnSNAP scheme).
    #[default]
    SourceIteration,
    /// Source iteration with a diffusion-synthetic-acceleration
    /// correction after every sweep: a cheap low-order diffusion solve
    /// estimates the slowly-converging (diffusive) error modes and
    /// subtracts them, collapsing the spectral radius from `≈ c` to
    /// `≈ 0.22 c` in scattering-dominated media.
    DsaSourceIteration,
    /// Sweep-preconditioned GMRES(m) on the within-group fixed point.
    SweepGmres,
}

impl StrategyKind {
    /// All selectable strategies, in report order.
    pub fn all() -> [StrategyKind; 3] {
        [
            StrategyKind::SourceIteration,
            StrategyKind::DsaSourceIteration,
            StrategyKind::SweepGmres,
        ]
    }

    /// Instantiate the strategy object.
    pub fn build(self) -> Box<dyn IterationStrategy> {
        match self {
            StrategyKind::SourceIteration => Box::new(SourceIteration),
            StrategyKind::DsaSourceIteration => Box::new(DsaSourceIteration),
            StrategyKind::SweepGmres => Box::new(SweepGmres),
        }
    }

    /// Short name used in tables, on the wire and for CLI selection.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::SourceIteration => "SI",
            StrategyKind::DsaSourceIteration => "DSA-SI",
            StrategyKind::SweepGmres => "GMRES",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "si" | "source" | "source-iteration" => Ok(StrategyKind::SourceIteration),
            "dsa-si" | "dsa" | "dsa-source-iteration" => Ok(StrategyKind::DsaSourceIteration),
            "gmres" | "sweep-gmres" | "krylov" => Ok(StrategyKind::SweepGmres),
            other => Err(format!("unknown iteration strategy '{other}'")),
        }
    }
}

/// Which low-order accelerator (if any) augments the Krylov strategies.
///
/// [`StrategyKind::DsaSourceIteration`] always applies its DSA
/// correction — that is the strategy's definition.  This knob instead
/// controls the *optional* DSA preconditioning of
/// [`StrategyKind::SweepGmres`]: with [`AcceleratorKind::Dsa`] the
/// Krylov operator (and right-hand side) is the DSA-accelerated
/// iteration map rather than the bare sweep map, so each GMRES iteration
/// costs one sweep plus one low-order CG solve and the Krylov space
/// needs far fewer dimensions in the high-`c` regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AcceleratorKind {
    /// No low-order acceleration.
    #[default]
    None,
    /// Diffusion synthetic acceleration (the `unsnap-accel` operator).
    Dsa,
}

impl AcceleratorKind {
    /// All selectable accelerators, in report order.
    pub fn all() -> [AcceleratorKind; 2] {
        [AcceleratorKind::None, AcceleratorKind::Dsa]
    }

    /// Short name used in tables, on the wire and for CLI selection.
    pub fn label(&self) -> &'static str {
        match self {
            AcceleratorKind::None => "none",
            AcceleratorKind::Dsa => "dsa",
        }
    }
}

impl std::fmt::Display for AcceleratorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for AcceleratorKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "off" => Ok(AcceleratorKind::None),
            "dsa" | "diffusion" => Ok(AcceleratorKind::Dsa),
            other => Err(format!("unknown accelerator '{other}'")),
        }
    }
}

/// The solve surface an [`IterationStrategy`] drives: a within-group
/// transport problem mid-outer-iteration (`phi_outer` freshly saved),
/// exposing exactly the operations the strategies need — source
/// assembly, one-sweep preconditioner applications, and the scalar-flux
/// state vector.
///
/// The one real implementation is
/// [`DomainContext`](crate::domain::DomainContext): a sweep domain's
/// cells (the whole mesh for the single-domain solver, a rank's share
/// under the block-Jacobi driver in `unsnap-comm`, whose sweeps are
/// masked to those cells and read cross-rank upwind data from the lagged
/// halo).  [`TransportSolver`](crate::solver::TransportSolver) forwards
/// to it method by method.  SI and sweep-preconditioned GMRES therefore
/// behave identically whether the domain is whole or decomposed.
pub trait InnerSolveContext {
    /// Maximum inner iterations (sweeps or Krylov steps) per invocation.
    fn inner_iteration_budget(&self) -> usize;

    /// Pointwise convergence tolerance (0 = run every iteration).
    fn convergence_tolerance(&self) -> f64;

    /// The context's current clock reading, used by the strategies to
    /// time the phase spans they open ([`Phase::SourceAssembly`],
    /// [`Phase::Krylov`]).  Both real contexts override this with their
    /// swappable solver clock; the default reads nothing and reports
    /// [`Duration::ZERO`], so span *counts* stay deterministic even for
    /// a context without a clock.
    fn now(&self) -> Duration {
        Duration::ZERO
    }

    /// GMRES restart length for the Krylov strategies.
    fn gmres_restart(&self) -> usize;

    /// Assemble the full source: fixed + cross-group scattering from the
    /// previous outer iterate + within-group scattering from the current
    /// scalar flux.
    fn compute_source(&mut self);

    /// Assemble the *external* source only (within-group term omitted) —
    /// the `q_ext` of the within-group system the Krylov strategies solve.
    fn compute_external_source(&mut self);

    /// Overwrite the source with the within-group scatter of `v`
    /// (`q(e, g) = σ_s(g → g) · v(e, g)`), the `S_w v` half of the
    /// matrix-free operator.
    fn set_source_to_within_group_scatter(&mut self, v: &[f64]);

    /// Enable/disable homogeneous (zero-inflow) treatment of *affine*
    /// inflow for subsequent sweeps.  For a whole domain that is the
    /// boundary condition; for a rank subdomain it is the boundary
    /// condition *and* the lagged halo data — both belong to the
    /// right-hand side, and a sweep that re-injects them during operator
    /// applications is affine rather than linear.
    fn set_homogeneous_boundaries(&mut self, on: bool);

    /// Zero the scalar flux and run one full sweep of the current source
    /// (`φ ← D L⁻¹ q`), accounting the work in `stats` and notifying
    /// `observer` when the sweep completes.
    fn sweep_once(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver);

    /// Snapshot the scalar flux into the previous-inner-iterate buffer.
    fn save_phi_inner(&mut self);

    /// Overwrite the scalar flux with `v`.
    fn set_phi(&mut self, v: &[f64]);

    /// The scalar flux as a flat slice.
    fn phi_slice(&self) -> &[f64];

    /// The previous inner iterate as a flat slice.
    fn phi_inner_slice(&self) -> &[f64];

    /// Hand out the context's reusable Krylov workspace (a fresh one by
    /// default).  Contexts that are invoked repeatedly — one per rank per
    /// halo iteration — override this together with
    /// [`InnerSolveContext::put_krylov_workspace`] so the Krylov basis is
    /// allocated once per rank.
    fn take_krylov_workspace(&mut self) -> GmresWorkspace {
        GmresWorkspace::new()
    }

    /// Return the workspace after the solve (dropped by default).
    fn put_krylov_workspace(&mut self, workspace: GmresWorkspace) {
        let _ = workspace;
    }

    /// Which optional low-order accelerator the Krylov strategies should
    /// apply (the [`Problem::accelerator`](crate::problem::Problem)
    /// knob).  Defaults to none.
    fn accelerator(&self) -> AcceleratorKind {
        AcceleratorKind::None
    }

    /// Apply one DSA correction to the scalar flux in place: restrict
    /// the sweep residual `σ_s (φ − previous)` to cell averages, solve
    /// the low-order diffusion error equation with CG, and prolongate
    /// the correction back onto the flux nodes (see
    /// [`DsaAccelerator`](crate::dsa::DsaAccelerator)).
    ///
    /// `previous` is the iterate the sweep started from — flux-shaped,
    /// in the context's own layout.  CG work is accounted in `stats` and
    /// residuals stream as [`SolveEvent::AccelResidual`].
    /// Contexts that own mesh and material data override this (the
    /// domain context does, building its accelerator lazily on first
    /// use); the default reports an unsupported-context execution error.
    fn dsa_correct(
        &mut self,
        previous: &[f64],
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<()> {
        let _ = (previous, stats, observer);
        Err(crate::error::Error::Execution {
            reason: "this inner-solve context does not support DSA correction".to_string(),
        })
    }
}

/// An inner-iteration scheme: given a solve context mid-outer-iteration
/// (`phi_outer` freshly saved), drive the within-group solve.
///
/// Implementations report work through `stats` (sweep counts, kernel
/// timing, convergence history) and return whether the inner solve met
/// the context's convergence tolerance.
pub trait IterationStrategy {
    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Run the inner iterations of one outer iteration, streaming
    /// progress (inner iterates, sweeps, Krylov residuals) to `observer`.
    fn run_inners(
        &self,
        context: &mut dyn InnerSolveContext,
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<bool>;
}

/// Assemble the total or external source inside a timed
/// [`Phase::SourceAssembly`] span.  Shared by every strategy so the
/// span count per inner iteration is uniform.
fn assemble_source_timed(
    context: &mut dyn InnerSolveContext,
    observer: &mut dyn RunObserver,
    external_only: bool,
) {
    let phase = Phase::SourceAssembly;
    observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
    let t0 = context.now();
    if external_only {
        context.compute_external_source();
    } else {
        context.compute_source();
    }
    let seconds = context.now().saturating_sub(t0).as_secs_f64();
    observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
}

/// Record an inner iterate's convergence measure and announce it.
fn report_iterate(stats: &mut RunStats, relative_change: f64, observer: &mut dyn RunObserver) {
    stats.convergence_history.push(relative_change);
    let inner = stats.inner_iterations;
    let event = SolveEvent::InnerIteration {
        inner,
        relative_change,
    };
    observer.on_event(Lane::Driver, &event);
}

/// The seed's lagged source iteration, unchanged.
pub struct SourceIteration;

impl IterationStrategy for SourceIteration {
    fn name(&self) -> &'static str {
        "source iteration"
    }

    fn run_inners(
        &self,
        context: &mut dyn InnerSolveContext,
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<bool> {
        let inner_iterations = context.inner_iteration_budget();
        let tolerance = context.convergence_tolerance();
        for _inner in 0..inner_iterations {
            stats.inner_iterations += 1;
            assemble_source_timed(context, observer, false);
            context.save_phi_inner();
            context.sweep_once(stats, observer);
            let diff = relative_change(context.phi_slice(), context.phi_inner_slice());
            report_iterate(stats, diff, observer);
            if tolerance > 0.0 && diff < tolerance {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Source iteration with a DSA correction after every sweep.
///
/// Each inner iteration is one transport sweep (the same unit of work
/// as plain SI) followed by one low-order diffusion solve for the
/// iteration error, applied through
/// [`InnerSolveContext::dsa_correct`]:
///
/// ```text
/// φ^{l+1/2} = D L⁻¹ (S_w φ^l + q_ext)          (the sweep)
/// −∇·(D∇e) + σ_r e = σ_s (φ^{l+1/2} − φ^l)     (the correction)
/// φ^{l+1} = φ^{l+1/2} + e
/// ```
///
/// Sweep counts therefore remain directly comparable with SI and
/// sweep-preconditioned GMRES — the correction costs CG iterations on a
/// system that is `nodes × angles` times smaller than a sweep.
pub struct DsaSourceIteration;

impl IterationStrategy for DsaSourceIteration {
    fn name(&self) -> &'static str {
        "DSA-accelerated source iteration"
    }

    fn run_inners(
        &self,
        context: &mut dyn InnerSolveContext,
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<bool> {
        let inner_iterations = context.inner_iteration_budget();
        let tolerance = context.convergence_tolerance();
        let mut previous = Vec::new();
        for _inner in 0..inner_iterations {
            stats.inner_iterations += 1;
            assemble_source_timed(context, observer, false);
            context.save_phi_inner();
            context.sweep_once(stats, observer);
            // The DSA correction needs the pre-sweep iterate; `phi_inner`
            // holds it, but `dsa_correct` mutates the flux, so snapshot
            // it into a reused scratch first.
            previous.clear();
            previous.extend_from_slice(context.phi_inner_slice());
            context.dsa_correct(&previous, stats, observer)?;
            let diff = relative_change(context.phi_slice(), context.phi_inner_slice());
            report_iterate(stats, diff, observer);
            if tolerance > 0.0 && diff < tolerance {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The within-group transport operator `v ↦ (I − D L⁻¹ S_w) v`, applied
/// matrix-free: one scatter-scale plus one full sweep per application.
///
/// With `accelerated` set the operator is the *DSA-preconditioned*
/// iteration map instead: after the homogeneous sweep produces
/// `φ_half = D L⁻¹ S_w x`, the low-order correction
/// `C (φ_half − x)` is added before the difference is formed, i.e.
/// `y = x − [(I + C)(D L⁻¹ S_w x) − C x]` — the linear part of one
/// DSA-SI step.  The correction solve is exact to the (tight) low-order
/// CG tolerance, so the operator is linear to that tolerance and plain
/// GMRES applies; any correction failure is latched in `dsa_error` and
/// surfaced after the Krylov solve ([`LinearOperator::apply`] is
/// infallible).
///
/// The operator also carries the run's observer: every sweep it performs
/// emits [`SolveEvent::Sweep`], and the GMRES driver's residual
/// notifications are forwarded as [`SolveEvent::KrylovResidual`] through
/// the [`ObservedOperator`] hook.
struct SweepOperator<'a, 'b, 'c> {
    context: &'a mut dyn InnerSolveContext,
    stats: &'b mut RunStats,
    observer: &'c mut dyn RunObserver,
    /// Apply the DSA correction inside every operator application.
    accelerated: bool,
    /// First DSA failure, surfaced by the strategy after the solve.
    dsa_error: Option<crate::error::Error>,
}

impl LinearOperator for SweepOperator<'_, '_, '_> {
    fn dim(&self) -> usize {
        self.context.phi_slice().len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.context.set_source_to_within_group_scatter(x);
        // Boundary (and, for rank subdomains, halo) inflow is part of the
        // affine right-hand side, not the operator: sweep with
        // homogeneous (vacuum) inflow so the application stays linear in
        // `x`.
        self.context.set_homogeneous_boundaries(true);
        self.context.sweep_once(self.stats, self.observer);
        self.context.set_homogeneous_boundaries(false);
        if self.accelerated && self.dsa_error.is_none() {
            if let Err(e) = self.context.dsa_correct(x, self.stats, self.observer) {
                self.dsa_error = Some(e);
            }
        }
        for ((yi, xi), phi) in y
            .iter_mut()
            .zip(x.iter())
            .zip(self.context.phi_slice().iter())
        {
            *yi = xi - phi;
        }
    }
}

impl ObservedOperator for SweepOperator<'_, '_, '_> {
    fn on_residual(&mut self, iteration: usize, relative_residual: f64) {
        let event = SolveEvent::KrylovResidual {
            iteration,
            relative_residual,
        };
        self.observer.on_event(Lane::Driver, &event);
    }
}

/// Sweep-preconditioned GMRES(m) on the within-group fixed point.
///
/// When the solve context selects [`AcceleratorKind::Dsa`], the Krylov
/// system is the *DSA-preconditioned* fixed point instead: both the
/// right-hand side and every operator application carry the low-order
/// correction (see `SweepOperator`), so the GMRES space only has to
/// capture what the diffusion solve missed.
pub struct SweepGmres;

impl IterationStrategy for SweepGmres {
    fn name(&self) -> &'static str {
        "sweep-preconditioned GMRES"
    }

    fn run_inners(
        &self,
        context: &mut dyn InnerSolveContext,
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<bool> {
        let config = GmresConfig {
            restart: context.gmres_restart(),
            // One Krylov iteration costs one sweep, so the inner budget
            // carries over unchanged from source iteration.
            max_iterations: context.inner_iteration_budget(),
            tolerance: context.convergence_tolerance(),
        };
        let accelerated = context.accelerator() == AcceleratorKind::Dsa;

        // Warm-start from the current flux (zero on the first outer,
        // the previous outer's solution afterwards).
        let mut x = context.phi_slice().to_vec();

        // Right-hand side b = D L⁻¹ q_ext: one sweep of the external
        // (fixed + cross-group) source — corrected to
        // (I + C) D L⁻¹ q_ext under DSA preconditioning (the affine part
        // of one DSA-SI step from a zero iterate).
        assemble_source_timed(context, observer, true);
        context.sweep_once(stats, observer);
        if accelerated {
            let zeros = vec![0.0f64; context.phi_slice().len()];
            context.dsa_correct(&zeros, stats, observer)?;
        }
        let b = context.phi_slice().to_vec();

        let mut workspace = context.take_krylov_workspace();
        let phase = Phase::Krylov;
        observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
        let krylov_t0 = context.now();
        let (outcome, dsa_error) = {
            let mut operator = SweepOperator {
                context,
                stats,
                observer,
                accelerated,
                dsa_error: None,
            };
            let outcome =
                Gmres::new(config).solve_observed_in(&mut workspace, &mut operator, &b, &mut x);
            (outcome, operator.dsa_error)
        };
        let seconds = context.now().saturating_sub(krylov_t0).as_secs_f64();
        observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        context.put_krylov_workspace(workspace);
        if let Some(e) = dsa_error {
            return Err(e);
        }
        let outcome = outcome?;
        stats.inner_iterations += outcome.iterations;
        stats.krylov_iterations += outcome.iterations;
        stats
            .krylov_residual_history
            .extend_from_slice(&outcome.residual_history);

        // Consistency sweep: regenerate the angular flux (and the final
        // scalar flux) from the converged iterate with the full source,
        // so ψ/φ leave the solver physically consistent exactly as a
        // source-iteration step would.
        context.set_phi(&x);
        context.save_phi_inner();
        assemble_source_timed(context, observer, false);
        context.sweep_once(stats, observer);
        let diff = relative_change(context.phi_slice(), context.phi_inner_slice());
        report_iterate(stats, diff, observer);

        Ok(outcome.converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_strings() {
        for kind in StrategyKind::all() {
            let parsed: StrategyKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!(
            "si".parse::<StrategyKind>().unwrap(),
            StrategyKind::SourceIteration
        );
        assert_eq!(
            "krylov".parse::<StrategyKind>().unwrap(),
            StrategyKind::SweepGmres
        );
        assert_eq!(
            "dsa".parse::<StrategyKind>().unwrap(),
            StrategyKind::DsaSourceIteration
        );
        assert!("nonsense".parse::<StrategyKind>().is_err());
    }

    #[test]
    fn accelerator_kinds_round_trip_through_strings() {
        for kind in AcceleratorKind::all() {
            let parsed: AcceleratorKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!(
            "diffusion".parse::<AcceleratorKind>().unwrap(),
            AcceleratorKind::Dsa
        );
        assert_eq!(
            "off".parse::<AcceleratorKind>().unwrap(),
            AcceleratorKind::None
        );
        assert!("nonsense".parse::<AcceleratorKind>().is_err());
        assert_eq!(AcceleratorKind::default(), AcceleratorKind::None);
    }

    #[test]
    fn default_is_source_iteration() {
        assert_eq!(StrategyKind::default(), StrategyKind::SourceIteration);
    }

    #[test]
    fn build_produces_named_strategies() {
        assert_eq!(
            StrategyKind::SourceIteration.build().name(),
            "source iteration"
        );
        assert_eq!(
            StrategyKind::DsaSourceIteration.build().name(),
            "DSA-accelerated source iteration"
        );
        assert_eq!(
            StrategyKind::SweepGmres.build().name(),
            "sweep-preconditioned GMRES"
        );
    }
}
