//! Property and conformance tests of the canonical problem wire format
//! (`unsnap_core::wire`) and the serving layer's request parsing.
//!
//! * randomised `Problem`s survive a serialise → parse round trip
//!   unchanged (so the HTTP wire format can carry any problem
//!   `Problem::validate` accepts);
//! * the content address (`Problem::canonical_hash`) is invariant under
//!   the round trip — cache keys computed on either side of the wire
//!   agree;
//! * every registry name resolves, round-trips and hashes distinctly;
//! * malformed request bodies map to typed 400s naming the offending
//!   field, never panics.

use proptest::prelude::*;

use unsnap::prelude::*;
use unsnap_core::wire;
use unsnap_mesh::boundary::{BoundaryCondition, DomainBoundaries};
use unsnap_obs::reader;
use unsnap_serve::wire::{parse_solve_request, status_for};

fn strategy_kind() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::SourceIteration),
        Just(StrategyKind::DsaSourceIteration),
        Just(StrategyKind::SweepGmres),
    ]
}

fn solver_kind() -> impl Strategy<Value = SolverKind> {
    prop_oneof![
        Just(SolverKind::GaussianElimination),
        Just(SolverKind::ReferenceLu),
        Just(SolverKind::Mkl),
    ]
}

fn boundary() -> impl Strategy<Value = BoundaryCondition> {
    prop_oneof![
        Just(BoundaryCondition::Vacuum),
        Just(BoundaryCondition::Reflective),
        (0.25f64..4.0).prop_map(BoundaryCondition::IsotropicInflow),
    ]
}

fn boundaries() -> impl Strategy<Value = DomainBoundaries> {
    collection::vec(boundary(), 6).prop_map(|v| DomainBoundaries {
        faces: <[BoundaryCondition; 6]>::try_from(v).expect("exactly six faces"),
    })
}

fn scattering_ratio() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), (0.05f64..0.95).prop_map(Some),]
}

fn thread_count() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (1usize..9).prop_map(Some)]
}

fn flag() -> impl Strategy<Value = bool> {
    (0usize..2).prop_map(|b| b == 1)
}

fn problem() -> impl Strategy<Value = Problem> {
    (
        (1usize..5, 1usize..5, 1usize..5, 0.0f64..0.002),
        (1usize..3, 1usize..4, 1usize..5),
        (1usize..6, 1usize..3, 1e-8f64..1e-2),
        (strategy_kind(), solver_kind(), scattering_ratio()),
        (thread_count(), flag()),
        boundaries(),
    )
        .prop_map(
            |(
                (nx, ny, nz, twist),
                (element_order, angles_per_octant, num_groups),
                (inner_iterations, outer_iterations, convergence_tolerance),
                (strategy, solver, scattering_ratio),
                (num_threads, time_solve),
                boundaries,
            )| Problem {
                nx,
                ny,
                nz,
                twist,
                element_order,
                angles_per_octant,
                num_groups,
                inner_iterations,
                outer_iterations,
                convergence_tolerance,
                strategy,
                solver,
                scattering_ratio,
                num_threads,
                time_solve,
                boundaries,
                ..Problem::tiny()
            },
        )
}

/// Random printable-ASCII junk for the never-panic fuzz (the miniature
/// proptest has no regex string strategies).
fn junk() -> impl Strategy<Value = String> {
    collection::vec(32u32..127, 0..60).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c).expect("printable ASCII"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builders_round_trip_through_the_wire(problem in problem()) {
        prop_assert!(problem.validate().is_ok(), "{:?}", problem.validate());
        let json = wire::problem_to_json(&problem);
        let parsed = wire::problem_from_json_str(&json).expect("canonical JSON parses");
        prop_assert_eq!(&parsed, &problem, "wire round trip must be lossless");
        // Serialisation is canonical: a second trip is byte-stable.
        prop_assert_eq!(wire::problem_to_json(&parsed), json);
    }

    #[test]
    fn content_addresses_agree_across_the_wire(problem in problem()) {
        let json = wire::problem_to_json(&problem);
        let replayed = wire::problem_from_json_str(&json).expect("valid problem replays");
        prop_assert_eq!(replayed.canonical_hash(), problem.canonical_hash());
    }

    #[test]
    fn solve_requests_never_panic(body in junk()) {
        // Arbitrary junk must come back as a typed error, not a panic.
        if let Err(error) = parse_solve_request(&body) {
            prop_assert_eq!(status_for(&error), 400);
        }
    }
}

#[test]
fn every_registry_name_resolves_and_round_trips() {
    let mut hashes = Vec::new();
    for name in Problem::registry_names() {
        let problem = Problem::from_name(name)
            .unwrap_or_else(|e| panic!("registry name '{name}' must resolve: {e}"));
        let json = wire::problem_to_json(&problem);
        let replayed = wire::problem_from_json_str(&json)
            .unwrap_or_else(|e| panic!("'{name}' must round-trip: {e}"));
        assert_eq!(replayed, problem, "'{name}' changed across the wire");
        hashes.push((name, problem.canonical_hash()));

        // The serving layer resolves the same names.
        let via_request = parse_solve_request(&format!(r#"{{"problem": "{name}"}}"#)).unwrap();
        assert_eq!(via_request, problem);
    }
    for (i, (name_a, hash_a)) in hashes.iter().enumerate() {
        for (name_b, hash_b) in &hashes[i + 1..] {
            assert_ne!(
                hash_a, hash_b,
                "registry presets '{name_a}' and '{name_b}' collide"
            );
        }
    }
    assert!(
        Problem::from_name("no-such-preset").is_err(),
        "unknown names are typed errors"
    );
}

#[test]
fn malformed_bodies_name_the_offending_field() {
    for (body, field) in [
        (r#"{"problem": {"grid": {"nx": "three"}}}"#, "nx"),
        (r#"{"problem": {"grid": {"nx": 0}}}"#, "nx"),
        // nx·ny·nz wraps to 0 in release arithmetic.
        (
            r#"{"problem": {"grid": {"nx": 4194304, "ny": 4194304, "nz": 4194304}}}"#,
            "nx",
        ),
        // The reader turns an out-of-range literal into +inf.
        (r#"{"problem": {"grid": {"lx": 1e999}}}"#, "lx"),
        (r#"{"problem": {"grid": {"twist": 1e999}}}"#, "twist"),
        (
            r#"{"problem": {"physics": {"num_groups": -1}}}"#,
            "num_groups",
        ),
        (
            r#"{"problem": {"physics": {"material": "option9"}}}"#,
            "material",
        ),
        (
            r#"{"problem": {"iteration": {"strategy": "warp"}}}"#,
            "strategy",
        ),
        (
            r#"{"problem": {"accel": {"cg_tolerance": true}}}"#,
            "accel_cg_tolerance",
        ),
        (
            r#"{"problem": {"execution": {"solver": "cuda"}}}"#,
            "solver",
        ),
        (r#"{"problem": {"unknown_section": {}}}"#, "problem"),
        (r#"{"problem": [1, 2]}"#, "problem"),
        (r#"{"not_problem": "tiny"}"#, "problem"),
        ("{\"problem\": \"tiny\"", "problem"),
        ("", "problem"),
    ] {
        let error =
            parse_solve_request(body).expect_err(&format!("body {body:?} must be rejected"));
        assert_eq!(status_for(&error), 400, "body {body:?}");
        assert_eq!(
            error.invalid_field(),
            Some(field),
            "body {body:?} must blame '{field}', said: {error}"
        );
    }
}

#[test]
fn a_precision_other_than_f64_is_refused_by_field() {
    // Every local system is solved in f64: the labels of the single-precision
    // solve that once existed are invalid values of the `precision` field.
    for label in ["mixed", "f32", "single", "fp32"] {
        let text = format!(r#"{{"execution": {{"precision": "{label}"}}}}"#);
        let error = wire::problem_from_json_str(&text).expect_err(&text);
        assert!(
            matches!(error, Error::InvalidProblem { .. }),
            "{text}: {error}"
        );
        assert_eq!(error.invalid_field(), Some("precision"), "{text}: {error}");
    }
    // The one value parses, and the canonical document keeps writing it.
    let text = r#"{"execution": {"precision": "f64"}}"#;
    assert_eq!(wire::problem_from_json_str(text).unwrap(), Problem::tiny());
    assert!(wire::problem_to_json(&Problem::tiny()).contains(r#""precision":"f64""#));
}

#[test]
fn boundary_conditions_round_trip_in_place() {
    let faces = [
        BoundaryCondition::Vacuum,
        BoundaryCondition::IsotropicInflow(1.5),
        BoundaryCondition::Reflective,
        BoundaryCondition::Vacuum,
        BoundaryCondition::IsotropicInflow(0.25),
        BoundaryCondition::Reflective,
    ];
    let problem = Problem {
        boundaries: DomainBoundaries { faces },
        ..Problem::tiny()
    };
    let json = wire::problem_to_json(&problem);
    let doc = reader::parse(&json).unwrap();
    let listed = doc
        .get("physics")
        .and_then(|p| p.get("boundaries"))
        .and_then(|v| v.as_array())
        .expect("boundaries serialise as a 6-array");
    assert_eq!(listed.len(), 6);
    assert_eq!(wire::problem_from_json_str(&json).unwrap(), problem);
}
