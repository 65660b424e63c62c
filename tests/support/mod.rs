//! Readers of a recorded solve-event stream, shared by the integration
//! tests: a test that checks what a run streamed records it in an
//! [`EventLog`] and reads it here, lane by lane, in emission order.

// Each test binary reads the subset it checks.
#![allow(dead_code)]

use unsnap::prelude::*;

/// The running counts the `Sweep` events on `lane` carry.
pub fn sweeps(log: &EventLog, lane: Lane) -> Vec<usize> {
    log.on_lane(lane, |e| match *e {
        SolveEvent::Sweep { sweep, .. } => Some(sweep),
        _ => None,
    })
}

/// The inner iterates' relative changes on `lane`.
pub fn inner_changes(log: &EventLog, lane: Lane) -> Vec<f64> {
    log.on_lane(lane, |e| match *e {
        SolveEvent::InnerIteration {
            relative_change, ..
        } => Some(relative_change),
        _ => None,
    })
}

/// The Krylov residuals on `lane`.
pub fn krylov_residuals(log: &EventLog, lane: Lane) -> Vec<f64> {
    log.on_lane(lane, |e| match *e {
        SolveEvent::KrylovResidual {
            relative_residual, ..
        } => Some(relative_residual),
        _ => None,
    })
}

/// The DSA CG residuals on `lane`.
pub fn accel_residuals(log: &EventLog, lane: Lane) -> Vec<f64> {
    log.on_lane(lane, |e| match *e {
        SolveEvent::AccelResidual {
            relative_residual, ..
        } => Some(relative_residual),
        _ => None,
    })
}

/// Outer iterations started on `lane`.
pub fn outer_starts(log: &EventLog, lane: Lane) -> usize {
    log.on_lane(lane, |e| {
        matches!(e, SolveEvent::OuterStart { .. }).then_some(())
    })
    .len()
}

/// The `converged` flag of every outer iteration that ended on `lane`.
pub fn outer_ends(log: &EventLog, lane: Lane) -> Vec<bool> {
    log.on_lane(lane, |e| match *e {
        SolveEvent::OuterEnd { converged, .. } => Some(converged),
        _ => None,
    })
}

/// Spans of `phase` opened on `lane`.
pub fn phase_starts(log: &EventLog, lane: Lane, phase: Phase) -> usize {
    log.on_lane(lane, |e| {
        (*e == SolveEvent::PhaseStart { phase }).then_some(())
    })
    .len()
}

/// One past the highest rank any event of `log` rode (0 when none did).
pub fn rank_lanes(log: &EventLog) -> usize {
    let ranks = log.events.iter().filter_map(|(lane, _)| match lane {
        Lane::Rank(rank) => Some(rank + 1),
        Lane::Driver => None,
    });
    ranks.max().unwrap_or(0)
}
