//! Checkpoint frame payloads for both execution modes.
//!
//! Each checkpoint frame stores the solver state at an outer-iteration
//! boundary plus the *delta* of observer events emitted since the
//! previous frame was written (the full prefix would make the log
//! quadratic in run length).  Recovery concatenates the deltas of every
//! intact frame to rebuild the exact event prefix for replay.

use unsnap_comm::jacobi::{JacobiCheckpointView, JacobiResumePoint};
use unsnap_core::session::EventLog;
use unsnap_core::solver::{CheckpointView, ResumePoint, RunStats};
use unsnap_obs::json::JsonObject;
use unsnap_obs::reader::JsonValue;

use crate::codec;

/// A decoded single-domain checkpoint frame.
#[derive(Debug, Clone, Default)]
pub struct SingleCheckpoint {
    /// First outer iteration still to run.
    pub outer_next: usize,
    /// Statistics accumulated up to the checkpoint.
    pub stats: RunStats,
    /// Scalar flux φ at the checkpoint.
    pub phi: Vec<f64>,
    /// Angular flux ψ at the checkpoint.
    pub psi: Vec<f64>,
    /// Observer events since the previous frame (delta, not prefix).
    pub events: EventLog,
}

/// A decoded block-Jacobi checkpoint frame.
#[derive(Debug, Clone, Default)]
pub struct JacobiCheckpoint {
    /// First outer iteration still to run.
    pub outer_next: usize,
    /// Inner iterations accumulated across ranks and outers.
    pub inners_run: usize,
    /// Wall-clock sweep seconds accumulated so far.
    pub sweep_seconds: f64,
    /// Per-outer maximum relative flux change so far.
    pub convergence_history: Vec<f64>,
    /// Global scalar flux φ at the checkpoint.
    pub phi: Vec<f64>,
    /// Global angular flux ψ at the checkpoint.
    pub psi: Vec<f64>,
    /// Per-rank accumulated statistics, rank order.
    pub rank_stats: Vec<RunStats>,
    /// Observer events since the previous frame (delta, not prefix).
    pub events: EventLog,
}

/// Encode a single-domain checkpoint payload from the solver's view
/// plus the event delta.
pub fn single_to_json(view: &CheckpointView<'_>, events: &EventLog) -> String {
    JsonObject::new()
        .field_usize("outer_next", view.outer_completed + 1)
        .field_raw("stats", &codec::stats_to_json(view.stats))
        .field_f64_array("phi", view.phi)
        .field_f64_array("psi", view.psi)
        .field_raw("events", &codec::events_to_json(events))
        .finish()
}

/// Decode a single-domain checkpoint payload (whose events can name no
/// rank).
pub fn single_from_json(value: &JsonValue) -> Result<SingleCheckpoint, String> {
    let stats = value.get("stats").ok_or("checkpoint missing stats")?;
    Ok(SingleCheckpoint {
        outer_next: value
            .get("outer_next")
            .and_then(JsonValue::as_usize)
            .ok_or("checkpoint missing outer_next")?,
        stats: codec::stats_from_json(stats)?,
        phi: codec::f64_array_of(value, "phi")?,
        psi: codec::f64_array_of(value, "psi")?,
        events: codec::events_from_json(
            value.get("events").ok_or("checkpoint missing events")?,
            0,
        )?,
    })
}

/// Encode a block-Jacobi checkpoint payload.
pub fn jacobi_to_json(view: &JacobiCheckpointView<'_>, events: &EventLog) -> String {
    let rank_stats: Vec<String> = view
        .rank_stats
        .iter()
        .map(|stats| codec::stats_to_json(stats))
        .collect();
    JsonObject::new()
        .field_usize("outer_next", view.outer_completed + 1)
        .field_usize("inners_run", view.inners_run)
        .field_f64("sweep_seconds", view.sweep_seconds)
        .field_f64_array("convergence_history", view.convergence_history)
        .field_f64_array("phi", view.phi)
        .field_f64_array("psi", view.psi)
        .field_raw("rank_stats", &unsnap_obs::json::array_raw(rank_stats))
        .field_raw("events", &codec::events_to_json(events))
        .finish()
}

/// Decode a block-Jacobi checkpoint payload of a run over `num_ranks`
/// subdomains (the manifest's `npx · npy`).
pub fn jacobi_from_json(value: &JsonValue, num_ranks: usize) -> Result<JacobiCheckpoint, String> {
    let rank_stats = value
        .get("rank_stats")
        .and_then(JsonValue::as_array)
        .ok_or("checkpoint missing rank_stats")?
        .iter()
        .map(codec::stats_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(JacobiCheckpoint {
        outer_next: value
            .get("outer_next")
            .and_then(JsonValue::as_usize)
            .ok_or("checkpoint missing outer_next")?,
        inners_run: value
            .get("inners_run")
            .and_then(JsonValue::as_usize)
            .ok_or("checkpoint missing inners_run")?,
        sweep_seconds: value
            .get("sweep_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("checkpoint missing sweep_seconds")?,
        convergence_history: codec::f64_array_of(value, "convergence_history")?,
        phi: codec::f64_array_of(value, "phi")?,
        psi: codec::f64_array_of(value, "psi")?,
        rank_stats,
        events: codec::events_from_json(
            value.get("events").ok_or("checkpoint missing events")?,
            num_ranks,
        )?,
    })
}

/// Fold a list of decoded single-domain checkpoints into the resume
/// point for the *last* one: its state, plus the concatenated event
/// deltas of every checkpoint as the replay prefix.
pub fn fold_single(checkpoints: Vec<SingleCheckpoint>) -> Option<ResumePoint> {
    let mut prefix = EventLog::default();
    let mut last = None;
    for ck in checkpoints {
        prefix.events.extend(ck.events.events);
        last = Some((ck.outer_next, ck.stats, ck.phi, ck.psi));
    }
    let (outer_next, stats, phi, psi) = last?;
    Some(ResumePoint {
        outer_next,
        stats,
        phi,
        psi,
        prefix,
    })
}

/// Fold decoded block-Jacobi checkpoints into the resume point for the
/// last one (see [`fold_single`]).
pub fn fold_jacobi(checkpoints: Vec<JacobiCheckpoint>) -> Option<JacobiResumePoint> {
    let mut prefix = EventLog::default();
    let mut last = None;
    for mut ck in checkpoints {
        prefix.events.extend(std::mem::take(&mut ck.events.events));
        last = Some(ck);
    }
    let last = last?;
    Some(JacobiResumePoint {
        outer_next: last.outer_next,
        inners_run: last.inners_run,
        sweep_seconds: last.sweep_seconds,
        convergence_history: last.convergence_history,
        phi: last.phi,
        psi: last.psi,
        rank_stats: last.rank_stats,
        prefix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_core::session::{Lane, SolveEvent};
    use unsnap_obs::reader;

    #[test]
    fn single_checkpoint_round_trips() {
        let stats = RunStats {
            inner_iterations: 3,
            convergence_history: vec![0.5, 0.25],
            ..RunStats::default()
        };
        let phi = vec![1.0, 2.5, -0.125];
        let psi = vec![0.1 + 0.2; 6];
        let view = CheckpointView {
            outer_completed: 4,
            converged: false,
            phi: &phi,
            psi: &psi,
            stats: &stats,
        };
        let events = EventLog {
            events: vec![(Lane::Driver, SolveEvent::OuterStart { outer: 4 })],
        };
        let text = single_to_json(&view, &events);
        let parsed = reader::parse(&text).expect("valid JSON");
        let back = single_from_json(&parsed).expect("decodes");
        assert_eq!(back.outer_next, 5);
        assert_eq!(back.phi, phi);
        assert_eq!(back.psi, psi);
        assert_eq!(back.stats.convergence_history, vec![0.5, 0.25]);
        assert_eq!(back.events.events.len(), 1);
    }

    #[test]
    fn folding_concatenates_deltas_and_keeps_the_last_state() {
        let first = SingleCheckpoint {
            outer_next: 1,
            phi: vec![1.0],
            psi: vec![1.0],
            events: EventLog {
                events: vec![(Lane::Driver, SolveEvent::OuterStart { outer: 0 })],
            },
            ..SingleCheckpoint::default()
        };
        let second = SingleCheckpoint {
            outer_next: 2,
            phi: vec![2.0],
            psi: vec![2.0],
            events: EventLog {
                events: vec![(Lane::Driver, SolveEvent::OuterStart { outer: 1 })],
            },
            ..SingleCheckpoint::default()
        };
        let point = fold_single(vec![first, second]).expect("non-empty");
        assert_eq!(point.outer_next, 2);
        assert_eq!(point.phi, vec![2.0]);
        assert_eq!(point.prefix.events.len(), 2);
        assert!(fold_single(Vec::new()).is_none());
    }
}
