//! The JSON wire format for problem configurations.
//!
//! `unsnap-serve` accepts solve requests over HTTP, and bench/test
//! tooling wants to ship problem configurations between processes; both
//! need one canonical, dependency-free serialisation of a [`Problem`].
//! This module provides it, built on the workspace's own JSON writer
//! ([`unsnap_obs::json`]) and reader ([`unsnap_obs::reader`]).
//!
//! The wire shape groups the [`Problem`] fields into five sections, with
//! every enum knob carried as the same label `Display`/`FromStr`
//! round-trip elsewhere in the workspace (`"SI"`, `"dsa"`, `"MKL"`,
//! `"angle/element*/group*"`, `"option1"`):
//!
//! ```json
//! {
//!   "grid":      {"nx": 3, "ny": 3, "nz": 3, "lx": 1, "ly": 1, "lz": 1, "twist": 0.001},
//!   "physics":   {"element_order": 1, "angles_per_octant": 2, "num_groups": 2,
//!                 "material": "option1", "source": "option1",
//!                 "boundaries": ["vacuum", "vacuum", "vacuum", "vacuum", "vacuum", "vacuum"],
//!                 "scattering_ratio": null, "upscatter_ratio": null},
//!   "iteration": {"inner_iterations": 2, "outer_iterations": 1,
//!                 "convergence_tolerance": 0, "strategy": "SI",
//!                 "gmres_restart": 20, "subdomain_krylov_budget": null},
//!   "accel":     {"accelerator": "none", "cg_tolerance": 1e-8, "cg_iterations": 200},
//!   "execution": {"solver": "GE", "scheme": "angle/element*/group", "num_threads": 1,
//!                 "precompute_integrals": true, "time_solve": false,
//!                 "kernel": "reference", "precision": "f64"}
//! }
//! ```
//!
//! Parsing is *lenient about omission, strict about everything else*:
//! any section or field may be left out ([`Problem::tiny`] fills the
//! gap), but an **unknown** section or field name, or a value of the
//! wrong type, is an [`Error::InvalidProblem`] naming the offender.  A
//! request that typos `"num_thread"` should be a 4xx, not a
//! silently-default run.  Both parsers finish with
//! [`Problem::validate`], so a document that parses is a problem a
//! solver accepts.
//!
//! Serialisation always writes every field, in declared order, so the
//! output is canonical: two problems serialise to the same string iff
//! they are equal.  [`Problem::canonical_hash`] relies on exactly this,
//! and `hash_is_stable_across_processes` below pins the bytes.

use std::str::FromStr;

use unsnap_linalg::SolverKind;
use unsnap_mesh::boundary::{BoundaryCondition, DomainBoundaries};
use unsnap_obs::json::{self, JsonObject};
use unsnap_obs::reader::{self, JsonValue};
use unsnap_sweep::ConcurrencyScheme;

use crate::data::{MaterialOption, SourceOption};
use crate::error::{Error, Result};
use crate::kernel::KernelKind;
use crate::layout::Precision;
use crate::problem::Problem;
use crate::strategy::{AcceleratorKind, StrategyKind};

// ---------------------------------------------------------------------
// Serialisation.
// ---------------------------------------------------------------------

fn option_usize(obj: JsonObject, key: &str, value: Option<usize>) -> JsonObject {
    match value {
        Some(v) => obj.field_usize(key, v),
        None => obj.field_raw(key, "null"),
    }
}

fn option_f64(obj: JsonObject, key: &str, value: Option<f64>) -> JsonObject {
    match value {
        Some(v) => obj.field_f64(key, v),
        None => obj.field_raw(key, "null"),
    }
}

fn boundary_json(bc: BoundaryCondition) -> String {
    match bc {
        BoundaryCondition::Vacuum => "\"vacuum\"".to_string(),
        BoundaryCondition::Reflective => "\"reflective\"".to_string(),
        BoundaryCondition::IsotropicInflow(v) => json::number(v),
    }
}

fn grid_json(p: &Problem) -> String {
    JsonObject::new()
        .field_usize("nx", p.nx)
        .field_usize("ny", p.ny)
        .field_usize("nz", p.nz)
        .field_f64("lx", p.lx)
        .field_f64("ly", p.ly)
        .field_f64("lz", p.lz)
        .field_f64("twist", p.twist)
        .finish()
}

fn physics_json(p: &Problem) -> String {
    let boundaries = json::array_raw(p.boundaries.faces.iter().map(|bc| boundary_json(*bc)));
    let obj = JsonObject::new()
        .field_usize("element_order", p.element_order)
        .field_usize("angles_per_octant", p.angles_per_octant)
        .field_usize("num_groups", p.num_groups)
        .field_str("material", p.material.label())
        .field_str("source", p.source.label())
        .field_raw("boundaries", &boundaries);
    let obj = option_f64(obj, "scattering_ratio", p.scattering_ratio);
    option_f64(obj, "upscatter_ratio", p.upscatter_ratio).finish()
}

fn iteration_json(p: &Problem) -> String {
    let obj = JsonObject::new()
        .field_usize("inner_iterations", p.inner_iterations)
        .field_usize("outer_iterations", p.outer_iterations)
        .field_f64("convergence_tolerance", p.convergence_tolerance)
        .field_str("strategy", p.strategy.label())
        .field_usize("gmres_restart", p.gmres_restart);
    option_usize(obj, "subdomain_krylov_budget", p.subdomain_krylov_budget).finish()
}

fn accel_json(p: &Problem) -> String {
    JsonObject::new()
        .field_str("accelerator", p.accelerator.label())
        .field_f64("cg_tolerance", p.accel_cg_tolerance)
        .field_usize("cg_iterations", p.accel_cg_iterations)
        .finish()
}

fn execution_json(p: &Problem) -> String {
    let obj = JsonObject::new()
        .field_str("solver", p.solver.label())
        .field_str("scheme", &p.scheme.label());
    option_usize(obj, "num_threads", p.num_threads)
        .field_bool("precompute_integrals", p.precompute_integrals)
        .field_bool("time_solve", p.time_solve)
        .field_str("kernel", p.kernel.label())
        .field_str("precision", p.precision.label())
        .finish()
}

/// Serialise a [`Problem`] to the canonical wire JSON (every field,
/// declared order).  This is the byte stream
/// [`Problem::canonical_hash`] hashes.
pub fn problem_to_json(problem: &Problem) -> String {
    JsonObject::new()
        .field_raw("grid", &grid_json(problem))
        .field_raw("physics", &physics_json(problem))
        .field_raw("iteration", &iteration_json(problem))
        .field_raw("accel", &accel_json(problem))
        .field_raw("execution", &execution_json(problem))
        .finish()
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

fn describe(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Number(_) => "a number",
        JsonValue::String(_) => "a string",
        JsonValue::Array(_) => "an array",
        JsonValue::Object(_) => "an object",
    }
}

fn expect_usize(value: &JsonValue, field: &'static str) -> Result<usize> {
    value.as_usize().ok_or_else(|| {
        Error::invalid_problem(
            field,
            format!("expected a non-negative integer, got {}", describe(value)),
        )
    })
}

fn expect_f64(value: &JsonValue, field: &'static str) -> Result<f64> {
    value.as_f64().ok_or_else(|| {
        Error::invalid_problem(field, format!("expected a number, got {}", describe(value)))
    })
}

fn expect_bool(value: &JsonValue, field: &'static str) -> Result<bool> {
    value.as_bool().ok_or_else(|| {
        Error::invalid_problem(
            field,
            format!("expected a boolean, got {}", describe(value)),
        )
    })
}

/// Parse a labelled enum knob (strategy, accelerator, solver, scheme,
/// material, source) through its workspace `FromStr`, accepting every
/// alias `reproduce`'s flags accept.
fn expect_label<T: FromStr<Err = String>>(value: &JsonValue, field: &'static str) -> Result<T> {
    let text = value.as_str().ok_or_else(|| {
        Error::invalid_problem(field, format!("expected a string, got {}", describe(value)))
    })?;
    text.parse()
        .map_err(|e: String| Error::invalid_problem(field, e))
}

fn option_of<T>(
    value: &JsonValue,
    field: &'static str,
    parse: impl Fn(&JsonValue, &'static str) -> Result<T>,
) -> Result<Option<T>> {
    if value.is_null() {
        Ok(None)
    } else {
        parse(value, field).map(Some)
    }
}

fn parse_boundary(value: &JsonValue) -> Result<BoundaryCondition> {
    if let Some(text) = value.as_str() {
        return match text.to_ascii_lowercase().as_str() {
            "vacuum" => Ok(BoundaryCondition::Vacuum),
            "reflective" => Ok(BoundaryCondition::Reflective),
            other => Err(Error::invalid_problem(
                "boundaries",
                format!("unknown boundary condition '{other}' (expected 'vacuum', 'reflective' or an inflow value)"),
            )),
        };
    }
    if let Some(v) = value.as_f64() {
        return Ok(BoundaryCondition::IsotropicInflow(v));
    }
    Err(Error::invalid_problem(
        "boundaries",
        format!(
            "each face must be 'vacuum', 'reflective' or an inflow number, got {}",
            describe(value)
        ),
    ))
}

fn parse_boundaries(value: &JsonValue) -> Result<DomainBoundaries> {
    let entries = value.as_array().ok_or_else(|| {
        Error::invalid_problem(
            "boundaries",
            format!(
                "expected an array of 6 face conditions (x-, x+, y-, y+, z-, z+), got {}",
                describe(value)
            ),
        )
    })?;
    if entries.len() != 6 {
        return Err(Error::invalid_problem(
            "boundaries",
            format!("expected exactly 6 face conditions, got {}", entries.len()),
        ));
    }
    let mut faces = [BoundaryCondition::Vacuum; 6];
    for (face, entry) in faces.iter_mut().zip(entries) {
        *face = parse_boundary(entry)?;
    }
    Ok(DomainBoundaries { faces })
}

fn fields_of<'v>(value: &'v JsonValue, section: &'static str) -> Result<&'v [(String, JsonValue)]> {
    value.as_object().ok_or_else(|| {
        Error::invalid_problem(
            section,
            format!(
                "the '{section}' section must be an object, got {}",
                describe(value)
            ),
        )
    })
}

fn unknown_field(section: &'static str, key: &str, known: &[&str]) -> Error {
    Error::invalid_problem(
        section,
        format!(
            "unknown field '{key}' in the '{section}' section; known fields: {}",
            known.join(", ")
        ),
    )
}

fn apply_grid(p: &mut Problem, value: &JsonValue) -> Result<()> {
    const KNOWN: &[&str] = &["nx", "ny", "nz", "lx", "ly", "lz", "twist"];
    for (key, v) in fields_of(value, "grid")? {
        match key.as_str() {
            "nx" => p.nx = expect_usize(v, "nx")?,
            "ny" => p.ny = expect_usize(v, "ny")?,
            "nz" => p.nz = expect_usize(v, "nz")?,
            "lx" => p.lx = expect_f64(v, "lx")?,
            "ly" => p.ly = expect_f64(v, "ly")?,
            "lz" => p.lz = expect_f64(v, "lz")?,
            "twist" => p.twist = expect_f64(v, "twist")?,
            other => return Err(unknown_field("grid", other, KNOWN)),
        }
    }
    Ok(())
}

fn apply_physics(p: &mut Problem, value: &JsonValue) -> Result<()> {
    const KNOWN: &[&str] = &[
        "element_order",
        "angles_per_octant",
        "num_groups",
        "material",
        "source",
        "boundaries",
        "scattering_ratio",
        "upscatter_ratio",
    ];
    for (key, v) in fields_of(value, "physics")? {
        match key.as_str() {
            "element_order" => p.element_order = expect_usize(v, "element_order")?,
            "angles_per_octant" => {
                p.angles_per_octant = expect_usize(v, "angles_per_octant")?;
            }
            "num_groups" => p.num_groups = expect_usize(v, "num_groups")?,
            "material" => {
                p.material = expect_label::<MaterialOption>(v, "material")?;
            }
            "source" => p.source = expect_label::<SourceOption>(v, "source")?,
            "boundaries" => p.boundaries = parse_boundaries(v)?,
            "scattering_ratio" => {
                p.scattering_ratio = option_of(v, "scattering_ratio", expect_f64)?;
            }
            "upscatter_ratio" => {
                p.upscatter_ratio = option_of(v, "upscatter_ratio", expect_f64)?;
            }
            other => return Err(unknown_field("physics", other, KNOWN)),
        }
    }
    Ok(())
}

fn apply_iteration(p: &mut Problem, value: &JsonValue) -> Result<()> {
    const KNOWN: &[&str] = &[
        "inner_iterations",
        "outer_iterations",
        "convergence_tolerance",
        "strategy",
        "gmres_restart",
        "subdomain_krylov_budget",
    ];
    for (key, v) in fields_of(value, "iteration")? {
        match key.as_str() {
            "inner_iterations" => {
                p.inner_iterations = expect_usize(v, "inner_iterations")?;
            }
            "outer_iterations" => {
                p.outer_iterations = expect_usize(v, "outer_iterations")?;
            }
            "convergence_tolerance" => {
                p.convergence_tolerance = expect_f64(v, "convergence_tolerance")?;
            }
            "strategy" => p.strategy = expect_label::<StrategyKind>(v, "strategy")?,
            "gmres_restart" => p.gmres_restart = expect_usize(v, "gmres_restart")?,
            "subdomain_krylov_budget" => {
                p.subdomain_krylov_budget = option_of(v, "subdomain_krylov_budget", expect_usize)?;
            }
            other => return Err(unknown_field("iteration", other, KNOWN)),
        }
    }
    Ok(())
}

fn apply_accel(p: &mut Problem, value: &JsonValue) -> Result<()> {
    const KNOWN: &[&str] = &["accelerator", "cg_tolerance", "cg_iterations"];
    for (key, v) in fields_of(value, "accel")? {
        match key.as_str() {
            "accelerator" => {
                p.accelerator = expect_label::<AcceleratorKind>(v, "accelerator")?;
            }
            "cg_tolerance" => p.accel_cg_tolerance = expect_f64(v, "accel_cg_tolerance")?,
            "cg_iterations" => p.accel_cg_iterations = expect_usize(v, "accel_cg_iterations")?,
            other => return Err(unknown_field("accel", other, KNOWN)),
        }
    }
    Ok(())
}

fn apply_execution(p: &mut Problem, value: &JsonValue) -> Result<()> {
    const KNOWN: &[&str] = &[
        "solver",
        "scheme",
        "num_threads",
        "precompute_integrals",
        "time_solve",
        "kernel",
        "precision",
    ];
    for (key, v) in fields_of(value, "execution")? {
        match key.as_str() {
            "solver" => p.solver = expect_label::<SolverKind>(v, "solver")?,
            "scheme" => p.scheme = expect_label::<ConcurrencyScheme>(v, "scheme")?,
            "num_threads" => {
                p.num_threads = option_of(v, "num_threads", expect_usize)?;
            }
            "precompute_integrals" => {
                p.precompute_integrals = expect_bool(v, "precompute_integrals")?;
            }
            "time_solve" => p.time_solve = expect_bool(v, "time_solve")?,
            "kernel" => p.kernel = expect_label::<KernelKind>(v, "kernel")?,
            "precision" => p.precision = expect_label::<Precision>(v, "precision")?,
            other => return Err(unknown_field("execution", other, KNOWN)),
        }
    }
    Ok(())
}

/// Build a validated [`Problem`] from a parsed wire document.
///
/// Missing sections and fields keep their [`Problem::tiny`] values;
/// unknown names, mistyped values and [`Problem::validate`] failures are
/// [`Error::InvalidProblem`]s naming the offender.
pub fn problem_from_json(value: &JsonValue) -> Result<Problem> {
    let sections = value.as_object().ok_or_else(|| {
        Error::invalid_problem(
            "problem",
            format!(
                "the problem document must be a JSON object, got {}",
                describe(value)
            ),
        )
    })?;
    let mut problem = Problem::tiny();
    for (key, v) in sections {
        match key.as_str() {
            "grid" => apply_grid(&mut problem, v)?,
            "physics" => apply_physics(&mut problem, v)?,
            "iteration" => apply_iteration(&mut problem, v)?,
            "accel" => apply_accel(&mut problem, v)?,
            "execution" => apply_execution(&mut problem, v)?,
            other => {
                return Err(Error::invalid_problem(
                    "problem",
                    format!(
                        "unknown section '{other}'; known sections: \
                         grid, physics, iteration, accel, execution"
                    ),
                ));
            }
        }
    }
    problem.validate()?;
    Ok(problem)
}

/// Parse wire text all the way to a validated [`Problem`]: malformed
/// JSON, wire-shape errors and [`Problem::validate`] failures all
/// surface as [`Error::InvalidProblem`].
pub fn problem_from_json_str(text: &str) -> Result<Problem> {
    let value = reader::parse(text)
        .map_err(|e| Error::invalid_problem("problem", format!("malformed JSON: {e}")))?;
    problem_from_json(&value)
}

/// The name [`problem_from_json_str`] had while the wire carried a
/// builder.  `benchmark/src/layers.rs` (the `serve.wire.parse_ns` loop)
/// is frozen and still calls it; the rename rides the next
/// `[benchmark]` PR (ROADMAP item 1(c)).
pub fn builder_from_json_str(text: &str) -> Result<Problem> {
    problem_from_json_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_preset_round_trips() {
        for name in Problem::registry_names() {
            let problem = Problem::from_name(name).unwrap();
            let text = problem_to_json(&problem);
            let parsed =
                problem_from_json_str(&text).unwrap_or_else(|e| panic!("{name} must parse: {e}"));
            assert_eq!(parsed, problem, "{name} must round-trip");
        }
    }

    #[test]
    fn serialisation_is_canonical() {
        let a = problem_to_json(&Problem::quickstart());
        let b = problem_to_json(&Problem::quickstart());
        assert_eq!(a, b);
        assert_ne!(a, problem_to_json(&Problem::tiny()));
    }

    #[test]
    fn missing_sections_default_to_tiny() {
        let problem = problem_from_json_str(r#"{"grid": {"nx": 5}}"#).unwrap();
        assert_eq!(
            problem,
            Problem {
                nx: 5,
                ..Problem::tiny()
            }
        );
        assert_eq!(problem_from_json_str("{}").unwrap(), Problem::tiny());
    }

    #[test]
    fn unknown_sections_and_fields_are_rejected() {
        let err = problem_from_json_str(r#"{"gird": {}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("problem"));
        assert!(err.to_string().contains("gird"));

        let err = problem_from_json_str(r#"{"grid": {"nx": 3, "mx": 4}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("grid"));
        assert!(err.to_string().contains("mx"));

        let err = problem_from_json_str(r#"{"execution": {"num_thread": 2}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("execution"));
    }

    #[test]
    fn mistyped_values_name_their_field() {
        let err = problem_from_json_str(r#"{"grid": {"nx": "three"}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("nx"));

        let err = problem_from_json_str(r#"{"iteration": {"strategy": 7}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("strategy"));

        let err = problem_from_json_str(r#"{"iteration": {"strategy": "warp"}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("strategy"));
        assert!(err.to_string().contains("warp"));

        let err =
            problem_from_json_str(r#"{"execution": {"precompute_integrals": 1}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("precompute_integrals"));
    }

    #[test]
    fn malformed_json_is_an_invalid_problem() {
        let err = problem_from_json_str("{\"grid\": ").unwrap_err();
        assert_eq!(err.invalid_field(), Some("problem"));
        assert!(err.to_string().contains("malformed JSON"));

        let err = problem_from_json_str("[1, 2]").unwrap_err();
        assert_eq!(err.invalid_field(), Some("problem"));
    }

    #[test]
    fn enum_knobs_accept_workspace_aliases() {
        let problem = problem_from_json_str(
            r#"{
                "iteration": {"strategy": "gmres"},
                "accel": {"accelerator": "diffusion"},
                "execution": {"solver": "dgesv", "scheme": "best",
                              "kernel": "soa", "precision": "fp32"},
                "physics": {"material": "2", "source": "central"}
            }"#,
        )
        .unwrap();
        assert_eq!(problem.strategy, StrategyKind::SweepGmres);
        assert_eq!(problem.accelerator, AcceleratorKind::Dsa);
        assert_eq!(problem.solver, SolverKind::Mkl);
        assert_eq!(problem.scheme, ConcurrencyScheme::best());
        assert_eq!(problem.kernel, KernelKind::Blocked);
        assert_eq!(problem.precision, Precision::Mixed);
        assert_eq!(problem.material, MaterialOption::Option2);
        assert_eq!(problem.source, SourceOption::Option2);
    }

    #[test]
    fn boundaries_parse_all_three_kinds() {
        let problem = problem_from_json_str(
            r#"{"physics": {"boundaries":
                ["vacuum", "reflective", 1.5, "vacuum", "vacuum", "vacuum"]}}"#,
        )
        .unwrap();
        assert_eq!(problem.boundaries.face(1), BoundaryCondition::Reflective);
        assert_eq!(
            problem.boundaries.face(2),
            BoundaryCondition::IsotropicInflow(1.5)
        );

        let err = problem_from_json_str(r#"{"physics": {"boundaries": ["vacuum"]}}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("boundaries"));
        let err = problem_from_json_str(
            r#"{"physics": {"boundaries":
                ["porous", "vacuum", "vacuum", "vacuum", "vacuum", "vacuum"]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("porous"));
    }

    #[test]
    fn nullable_fields_round_trip_both_ways() {
        let problem = problem_from_json_str(
            r#"{
                "physics": {"scattering_ratio": null, "upscatter_ratio": null},
                "iteration": {"subdomain_krylov_budget": 7},
                "execution": {"num_threads": null}
            }"#,
        )
        .unwrap();
        assert_eq!(problem.scattering_ratio, None);
        assert_eq!(problem.upscatter_ratio, None);
        assert_eq!(problem.subdomain_krylov_budget, Some(7));
        assert_eq!(problem.num_threads, None);

        let problem = problem_from_json_str(
            r#"{"physics": {"scattering_ratio": 0.9, "upscatter_ratio": 0.25}}"#,
        )
        .unwrap();
        assert_eq!(problem.upscatter_ratio, Some(0.25));

        let text = problem_to_json(&problem);
        assert_eq!(problem_from_json_str(&text).unwrap(), problem);
    }

    #[test]
    fn parsing_runs_validation() {
        for (text, field) in [
            (r#"{"grid": {"nx": 0}}"#, "nx"),
            // nx·ny·nz wraps to 0 in release arithmetic.
            (
                r#"{"grid": {"nx": 4194304, "ny": 4194304, "nz": 4194304}}"#,
                "nx",
            ),
            // The reader turns an out-of-range literal into +inf.
            (r#"{"grid": {"lx": 1e999}}"#, "lx"),
            (r#"{"grid": {"twist": 1e999}}"#, "twist"),
            (
                r#"{"iteration": {"convergence_tolerance": -1}}"#,
                "convergence_tolerance",
            ),
        ] {
            let err = problem_from_json_str(text).expect_err(text);
            assert_eq!(err.invalid_field(), Some(field), "{text}: {err}");
        }
        // The frozen benchmark's name for the same parser.
        assert_eq!(builder_from_json_str("{}").unwrap(), Problem::tiny());
    }

    #[test]
    fn canonical_hash_matches_equality() {
        let quickstart = Problem::quickstart();
        assert_eq!(
            quickstart.canonical_hash(),
            Problem::quickstart().canonical_hash()
        );
        assert_ne!(
            quickstart.canonical_hash(),
            Problem::tiny().canonical_hash()
        );
        // Every single-field tweak moves the hash.
        let tweaks = [
            Problem::quickstart().with_mesh(7),
            Problem::quickstart().with_order(2),
            Problem {
                convergence_tolerance: 1e-7,
                ..Problem::quickstart()
            },
            Problem::quickstart().with_strategy(StrategyKind::SweepGmres),
            Problem::quickstart().with_threads(3),
            Problem::quickstart().with_scattering_ratio(0.5),
            Problem::quickstart()
                .with_scattering_ratio(0.5)
                .with_upscatter_ratio(0.2),
            Problem::quickstart().with_solve_timing(true),
            Problem::quickstart().with_kernel(KernelKind::Blocked),
            Problem::quickstart().with_precision(Precision::Mixed),
        ];
        for tweaked in tweaks {
            assert_ne!(
                tweaked.canonical_hash(),
                quickstart.canonical_hash(),
                "tweak must change the hash: {tweaked:?}"
            );
        }
    }

    #[test]
    fn hash_is_stable_across_processes() {
        // Pin every registry preset's hash, and with it the canonical
        // wire bytes: a moved constant orphans every existing run log
        // and cache entry, so it must be a deliberate, reviewable event.
        const PINNED: [(&str, u64); 9] = [
            ("tiny", 0xd5ac_8619_75d9_aefe),
            ("quickstart", 0xeb43_babb_8bf3_2bd7),
            ("figure3", 0x714e_8e52_7df5_1009),
            ("figure3-full", 0xf83e_c3bb_12f6_5408),
            ("figure4", 0xcd09_6dd3_cca6_d62a),
            ("figure4-full", 0x1692_4954_7aaa_37f6),
            ("table2", 0x5f0a_a61c_d2a6_72cb),
            ("table2-full", 0x2560_e5bc_3795_3215),
            ("dsa-regime", 0x80d7_a6d4_b66d_7d97),
        ];
        let names: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, Problem::registry_names());
        for (name, pinned) in PINNED {
            let hash = Problem::from_name(name).unwrap().canonical_hash();
            assert_eq!(hash, pinned, "{name}: {hash:#018x}");
        }
    }
}
