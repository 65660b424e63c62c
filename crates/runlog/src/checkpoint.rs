//! The checkpoint frame payload, one shape for both execution modes.
//!
//! Each checkpoint frame stores the solver state at an outer-iteration
//! boundary plus the *delta* of observer events emitted since the
//! previous frame was written (the full prefix would make the log
//! quadratic in run length).  Recovery concatenates the deltas of every
//! intact frame to rebuild the exact event prefix for replay.
//!
//! The payload is `{outer_next, stats, rank_stats, phi, halo, events}`:
//! `rank_stats` and `halo` are empty for a single-domain run; a
//! block-Jacobi run has one `rank_stats` entry per rank, its `stats`
//! count halo iterations and `halo` is the angular flux of the cells on
//! a cut between ranks — the only angular flux the next iteration reads
//! before writing.  `events` holds each event in its one encoding
//! ([`SolveEvent::to_json`](unsnap_core::session::SolveEvent::to_json)).

use unsnap_core::session::EventLog;
use unsnap_core::solver::{CheckpointView, ResumePoint, RunStats};
use unsnap_obs::json::{self, JsonObject};
use unsnap_obs::reader::JsonValue;

use crate::codec;

/// A decoded checkpoint frame.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// First outer iteration still to run.
    pub outer_next: usize,
    /// The driver's statistics accumulated up to the checkpoint.
    pub stats: RunStats,
    /// Per-rank accumulated statistics, rank order (empty for a
    /// single-domain run).
    pub rank_stats: Vec<RunStats>,
    /// Global scalar flux φ at the checkpoint.
    pub phi: Vec<f64>,
    /// Angular flux of the halo cells at the checkpoint (empty for a
    /// single-domain run).
    pub halo: Vec<f64>,
    /// Observer events since the previous frame (delta, not prefix).
    pub events: EventLog,
}

/// Encode a checkpoint payload from the solver's view plus the event
/// delta.
pub fn to_json(view: &CheckpointView<'_>, events: &EventLog) -> String {
    let rank_stats = view.rank_stats.iter().map(codec::stats_to_json);
    let events = events.events.iter().map(|(lane, e)| e.to_json(*lane));
    JsonObject::new()
        .field_usize("outer_next", view.outer_completed + 1)
        .field_raw("stats", &codec::stats_to_json(view.stats))
        .field_raw("rank_stats", &json::array_raw(rank_stats))
        .field_f64_array("phi", view.phi)
        .field_f64_array("halo", view.halo)
        .field_raw("events", &json::array_raw(events))
        .finish()
}

/// Decode a checkpoint payload of a run over `num_ranks` subdomains (the
/// manifest's `npx · npy`; `0` for a single-domain run, whose events can
/// name no rank).
pub fn from_json(value: &JsonValue, num_ranks: usize) -> Result<Checkpoint, String> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| format!("checkpoint missing {key}"))
    };
    let rank_stats = field("rank_stats")?
        .as_array()
        .ok_or("checkpoint rank_stats is not an array")?
        .iter()
        .map(codec::stats_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if rank_stats.len() != num_ranks {
        return Err(format!(
            "checkpoint carries {} rank_stats entries but the run has {num_ranks} rank(s)",
            rank_stats.len()
        ));
    }
    Ok(Checkpoint {
        outer_next: field("outer_next")?
            .as_usize()
            .ok_or("checkpoint outer_next is not a non-negative integer")?,
        stats: codec::stats_from_json(field("stats")?)?,
        rank_stats,
        phi: codec::f64_array_of(value, "phi")?,
        halo: codec::f64_array_of(value, "halo")?,
        events: codec::events_from_json(field("events")?, num_ranks)?,
    })
}

/// Fold a list of decoded checkpoints into the resume point for the
/// *last* one: its state, plus the concatenated event deltas of every
/// checkpoint as the replay prefix.
pub fn fold(checkpoints: Vec<Checkpoint>) -> Option<ResumePoint> {
    let mut prefix = EventLog::default();
    let mut last = None;
    for mut ck in checkpoints {
        prefix.events.append(&mut ck.events.events);
        last = Some(ck);
    }
    let last = last?;
    Some(ResumePoint {
        outer_next: last.outer_next,
        stats: last.stats,
        phi: last.phi,
        halo: last.halo,
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
    fn checkpoints_round_trip_for_every_rank_count() {
        // (rank count, the lane the event delta names).
        for (num_ranks, lane) in [(0, Lane::Driver), (2, Lane::Rank(1))] {
            let stats = RunStats {
                inner_iterations: 3,
                sweep_seconds: 0.125,
                // Non-finite entries encode as null and decode as NaN.
                convergence_history: vec![0.5, f64::NAN, 0.25],
                ..RunStats::default()
            };
            let rank_stats: Vec<RunStats> = (0..num_ranks)
                .map(|rank| RunStats {
                    sweeps: 10 + rank,
                    ..RunStats::default()
                })
                .collect();
            let phi = vec![1.0, 2.5, -0.125];
            let halo = vec![0.1 + 0.2; 6 * num_ranks];
            let view = CheckpointView {
                outer_completed: 4,
                converged: false,
                phi: &phi,
                halo: &halo,
                stats: &stats,
                rank_stats: &rank_stats,
            };
            let events = EventLog {
                events: vec![(lane, SolveEvent::OuterStart { outer: 4 })],
            };
            let text = to_json(&view, &events);
            let parsed = reader::parse(&text).expect("valid JSON");
            let back = from_json(&parsed, num_ranks).expect("decodes");
            assert_eq!(back.outer_next, 5);
            assert_eq!(back.phi, phi);
            assert_eq!(back.halo, halo);
            assert_eq!(back.stats.inner_iterations, 3);
            assert_eq!(back.stats.sweep_seconds, 0.125);
            let history = &back.stats.convergence_history;
            assert_eq!((history[0], history[2]), (0.5, 0.25));
            assert!(history[1].is_nan());
            let sweeps: Vec<usize> = back.rank_stats.iter().map(|s| s.sweeps).collect();
            assert_eq!(sweeps, (10..10 + num_ranks).collect::<Vec<_>>());
            assert_eq!(back.events, events);
            // The payload belongs to a run of exactly this many ranks.
            let err = from_json(&parsed, num_ranks + 1).unwrap_err();
            assert!(err.contains("rank(s)"), "{err}");
        }
    }

    #[test]
    fn folding_concatenates_deltas_and_keeps_the_last_state() {
        let first = Checkpoint {
            outer_next: 1,
            phi: vec![1.0],
            halo: vec![1.0],
            events: EventLog {
                events: vec![(Lane::Driver, SolveEvent::OuterStart { outer: 0 })],
            },
            ..Checkpoint::default()
        };
        let second = Checkpoint {
            outer_next: 2,
            phi: vec![2.0],
            halo: vec![2.0, 3.0],
            rank_stats: vec![RunStats::default(); 2],
            events: EventLog {
                events: vec![(Lane::Driver, SolveEvent::OuterStart { outer: 1 })],
            },
            ..Checkpoint::default()
        };
        let point = fold(vec![first, second]).expect("non-empty");
        assert_eq!(point.outer_next, 2);
        assert_eq!(point.phi, vec![2.0]);
        assert_eq!(point.halo, vec![2.0, 3.0]);
        assert_eq!(point.rank_stats.len(), 2);
        assert_eq!(point.prefix.events.len(), 2);
        assert!(fold(Vec::new()).is_none());
    }
}
