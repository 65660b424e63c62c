// Byte-exact pins of the event encoding (`SolveEvent::to_json`),
// generated at the commit before `RunObserver` became one method
// (790835b) by feeding these events through that build's hooks: every
// `SolveEvent` variant on `Lane::Driver` and on `Lane::Rank(2)`, in an
// order that is also one well-nested outer iteration per lane.  Columns:
// lane, event, the line — what `JsonlObserver` streams, a run-log frame
// stores and `/v1/jobs/{id}/events` clients see.  A halo exchange never
// rides a rank lane, so that pair has no row.  The two `Sweep` rows were
// re-pinned when the event gained `buckets` (run log format version 3).
//
// This file is one array expression, `include!`d by the tests that pin
// the encoding (`core::session`) and its decoder (`runlog::codec`) and by
// the observer tests that need a representative stream.
[
    (
        Lane::Driver,
        SolveEvent::OuterStart { outer: 3 },
        r#"{"event":"outer_start","outer":3}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::PhaseStart { phase: Phase::Sweep },
        r#"{"event":"phase_start","phase":"sweep"}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::PhaseEnd { phase: Phase::Sweep, seconds: 0.0015 },
        r#"{"event":"phase_end","phase":"sweep","seconds":0.0015}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::Sweep { sweep: 1, cells: 1099511627776, buckets: 132, seconds: 0.0015 },
        r#"{"event":"sweep","sweep":1,"cells":1099511627776,"buckets":132,"seconds":0.0015}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::KrylovResidual { iteration: 3, relative_residual: 1e-9 },
        r#"{"event":"krylov_residual","iteration":3,"relative_residual":0.000000001}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::AccelResidual { iteration: 2, relative_residual: f64::NAN },
        r#"{"event":"accel_residual","iteration":2,"relative_residual":null}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::HaloExchange { iteration: 0, faces: 12, bytes: 9216 },
        r#"{"event":"halo_exchange","iteration":0,"faces":12,"bytes":9216}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::InnerIteration { inner: 1, relative_change: 0.30000000000000004 },
        r#"{"event":"inner_iteration","inner":1,"relative_change":0.30000000000000004}"#,
    ),
    (
        Lane::Driver,
        SolveEvent::OuterEnd { outer: 3, converged: true },
        r#"{"event":"outer_end","outer":3,"converged":true}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::OuterStart { outer: 3 },
        r#"{"event":"outer_start","rank":2,"outer":3}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::PhaseStart { phase: Phase::Sweep },
        r#"{"event":"phase_start","rank":2,"phase":"sweep"}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::PhaseEnd { phase: Phase::Sweep, seconds: 0.0015 },
        r#"{"event":"phase_end","rank":2,"phase":"sweep","seconds":0.0015}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::Sweep { sweep: 1, cells: 1099511627776, buckets: 132, seconds: 0.0015 },
        r#"{"event":"sweep","rank":2,"sweep":1,"cells":1099511627776,"buckets":132,"seconds":0.0015}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::KrylovResidual { iteration: 3, relative_residual: 1e-9 },
        r#"{"event":"krylov_residual","rank":2,"iteration":3,"relative_residual":0.000000001}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::AccelResidual { iteration: 2, relative_residual: f64::NAN },
        r#"{"event":"accel_residual","rank":2,"iteration":2,"relative_residual":null}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::InnerIteration { inner: 1, relative_change: 0.30000000000000004 },
        r#"{"event":"inner_iteration","rank":2,"inner":1,"relative_change":0.30000000000000004}"#,
    ),
    (
        Lane::Rank(2),
        SolveEvent::OuterEnd { outer: 3, converged: true },
        r#"{"event":"outer_end","rank":2,"outer":3,"converged":true}"#,
    ),
]
