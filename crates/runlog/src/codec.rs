//! JSON codecs for the frame payload building blocks: the decoder of
//! solver events and both directions of run statistics.
//!
//! Events are stored in their one encoding,
//! [`SolveEvent::to_json`] — the line `JsonlObserver` streams — so this
//! module only reads them back.  Everything round-trips *bit-for-bit*:
//! floats are written in the shortest representation that re-parses to
//! the same bits (non-finite encoded as `null`, decoded back to `NaN`),
//! so a replayed event prefix reproduces the original observer stream
//! exactly — the foundation of the resume determinism contract.

use unsnap_core::session::{EventLog, Lane, Phase, SolveEvent};
use unsnap_core::solver::RunStats;
use unsnap_obs::json::JsonObject;
use unsnap_obs::reader::JsonValue;

fn str_of<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("event field {key:?} missing or not a string"))
}

fn usize_of(value: &JsonValue, key: &str) -> Result<usize, String> {
    value
        .get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("event field {key:?} missing or not a non-negative integer"))
}

fn u64_of(value: &JsonValue, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("event field {key:?} missing or not a non-negative integer"))
}

fn bool_of(value: &JsonValue, key: &str) -> Result<bool, String> {
    value
        .get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("event field {key:?} missing or not a boolean"))
}

/// A float field; `null` decodes to `NaN` (the writer's encoding of
/// non-finite values).
fn f64_of(value: &JsonValue, key: &str) -> Result<f64, String> {
    match value.get(key) {
        Some(JsonValue::Number(n)) => Ok(*n),
        Some(JsonValue::Null) => Ok(f64::NAN),
        _ => Err(format!("event field {key:?} missing or not a number")),
    }
}

fn phase_of(value: &JsonValue) -> Result<Phase, String> {
    let label = str_of(value, "phase")?;
    Phase::from_label(label).ok_or_else(|| format!("unknown phase label {label:?}"))
}

/// Decode one solver event from its parsed JSON object
/// ([`SolveEvent::to_json`]'s form).  `num_ranks` bounds the rank lanes
/// the run can have emitted (`0` for a single-domain run): a frame is
/// an input boundary, and observers size per-rank tables by the lane
/// they are handed.
pub fn event_from_json(value: &JsonValue, num_ranks: usize) -> Result<(Lane, SolveEvent), String> {
    let event = match str_of(value, "event")? {
        "outer_start" => SolveEvent::OuterStart {
            outer: usize_of(value, "outer")?,
        },
        "outer_end" => SolveEvent::OuterEnd {
            outer: usize_of(value, "outer")?,
            converged: bool_of(value, "converged")?,
        },
        "inner_iteration" => SolveEvent::InnerIteration {
            inner: usize_of(value, "inner")?,
            relative_change: f64_of(value, "relative_change")?,
        },
        "sweep" => SolveEvent::Sweep {
            sweep: usize_of(value, "sweep")?,
            cells: u64_of(value, "cells")?,
            buckets: usize_of(value, "buckets")?,
            seconds: f64_of(value, "seconds")?,
        },
        "krylov_residual" => SolveEvent::KrylovResidual {
            iteration: usize_of(value, "iteration")?,
            relative_residual: f64_of(value, "relative_residual")?,
        },
        "accel_residual" => SolveEvent::AccelResidual {
            iteration: usize_of(value, "iteration")?,
            relative_residual: f64_of(value, "relative_residual")?,
        },
        "phase_start" => SolveEvent::PhaseStart {
            phase: phase_of(value)?,
        },
        "phase_end" => SolveEvent::PhaseEnd {
            phase: phase_of(value)?,
            seconds: f64_of(value, "seconds")?,
        },
        "halo_exchange" => SolveEvent::HaloExchange {
            iteration: usize_of(value, "iteration")?,
            faces: usize_of(value, "faces")?,
            bytes: u64_of(value, "bytes")?,
        },
        other => return Err(format!("unknown event tag {other:?}")),
    };
    if value.get("rank").is_none() {
        return Ok((Lane::Driver, event));
    }
    let rank = usize_of(value, "rank")?;
    if rank >= num_ranks {
        return Err(format!(
            "event names rank {rank} but the run has {num_ranks} rank(s)"
        ));
    }
    if matches!(event, SolveEvent::HaloExchange { .. }) {
        return Err("a halo exchange rides a rank lane".to_string());
    }
    Ok((Lane::Rank(rank), event))
}

/// Decode an event array into a fresh [`EventLog`] (see
/// [`event_from_json`] for `num_ranks`).
pub fn events_from_json(value: &JsonValue, num_ranks: usize) -> Result<EventLog, String> {
    let items = value
        .as_array()
        .ok_or_else(|| "events must be an array".to_string())?;
    let mut log = EventLog::default();
    for item in items {
        log.events.push(event_from_json(item, num_ranks)?);
    }
    Ok(log)
}

/// Encode accumulated run statistics.
pub fn stats_to_json(stats: &RunStats) -> String {
    JsonObject::new()
        .field_usize("inner_iterations", stats.inner_iterations)
        .field_usize("sweeps", stats.sweeps)
        .field_f64("sweep_seconds", stats.sweep_seconds)
        .field_u64("assemble_ns", stats.kernel_timing.assemble_ns)
        .field_u64("solve_ns", stats.kernel_timing.solve_ns)
        .field_u64("kernel_invocations", stats.kernel_invocations)
        .field_f64_array("convergence_history", &stats.convergence_history)
        .field_usize("krylov_iterations", stats.krylov_iterations)
        .field_f64_array("krylov_residual_history", &stats.krylov_residual_history)
        .field_usize("accel_cg_iterations", stats.accel_cg_iterations)
        .field_f64_array("accel_residual_history", &stats.accel_residual_history)
        .finish()
}

/// A float-array field; `null` entries decode to `NaN`.
pub fn f64_array_of(value: &JsonValue, key: &str) -> Result<Vec<f64>, String> {
    let items = value
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("field {key:?} missing or not an array"))?;
    items
        .iter()
        .map(|item| match item {
            JsonValue::Number(n) => Ok(*n),
            JsonValue::Null => Ok(f64::NAN),
            _ => Err(format!("field {key:?} holds a non-numeric element")),
        })
        .collect()
}

/// Decode accumulated run statistics.
pub fn stats_from_json(value: &JsonValue) -> Result<RunStats, String> {
    let mut stats = RunStats {
        inner_iterations: usize_of(value, "inner_iterations")?,
        sweeps: usize_of(value, "sweeps")?,
        sweep_seconds: f64_of(value, "sweep_seconds")?,
        kernel_timing: Default::default(),
        kernel_invocations: u64_of(value, "kernel_invocations")?,
        convergence_history: f64_array_of(value, "convergence_history")?,
        krylov_iterations: usize_of(value, "krylov_iterations")?,
        krylov_residual_history: f64_array_of(value, "krylov_residual_history")?,
        accel_cg_iterations: usize_of(value, "accel_cg_iterations")?,
        accel_residual_history: f64_array_of(value, "accel_residual_history")?,
    };
    stats.kernel_timing.assemble_ns = u64_of(value, "assemble_ns")?;
    stats.kernel_timing.solve_ns = u64_of(value, "solve_ns")?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_obs::reader;

    /// Every event variant on the driver lane and on `Rank(2)`, with
    /// the byte-exact encoding pinned at the pre-`on_event` commit.
    const PINS: &[(Lane, SolveEvent, &str)] = &include!("../../core/tests/data/event_pins.rs");

    #[test]
    fn pinned_event_lines_decode_and_round_trip() {
        let pinned: Vec<&str> = PINS.iter().map(|(.., line)| *line).collect();
        let parsed = reader::parse(&format!("[{}]", pinned.join(","))).expect("valid JSON");
        let back = events_from_json(&parsed, 3).expect("decodes");
        assert_eq!(back.events.len(), PINS.len());
        for ((lane, event), (pinned_lane, _, line)) in back.events.iter().zip(PINS) {
            assert_eq!(lane, pinned_lane, "{line}");
            // NaN != NaN, so compare through the encoder.
            assert_eq!(event.to_json(*lane), *line);
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = RunStats {
            inner_iterations: 17,
            sweeps: 34,
            sweep_seconds: 0.125,
            kernel_timing: unsnap_core::kernel::KernelTiming {
                assemble_ns: 1_000_000_007,
                solve_ns: 998_244_353,
            },
            kernel_invocations: 1 << 40,
            convergence_history: vec![1.0, 0.5, 1.0 / 3.0],
            krylov_iterations: 5,
            krylov_residual_history: vec![1e-1, 1e-5],
            accel_cg_iterations: 9,
            accel_residual_history: vec![f64::INFINITY],
        };
        let text = stats_to_json(&stats);
        let parsed = reader::parse(&text).expect("valid JSON");
        let back = stats_from_json(&parsed).expect("decodes");
        assert_eq!(back.inner_iterations, 17);
        assert_eq!(back.kernel_timing.assemble_ns, 1_000_000_007);
        assert_eq!(back.kernel_invocations, 1 << 40);
        assert_eq!(back.convergence_history, stats.convergence_history);
        // inf encodes as null and decodes as NaN — lossy by design.
        assert!(back.accel_residual_history[0].is_nan());
    }

    #[test]
    fn rejects_malformed_events() {
        for bad in [
            "{}",
            "{\"event\":\"nope\"}",
            "{\"event\":\"outer_start\"}",
            "{\"event\":\"outer_start\",\"outer\":-1}",
            "{\"event\":\"phase_start\",\"phase\":\"warp\"}",
            "{\"event\":\"outer_start\",\"rank\":\"0\",\"outer\":0}",
            "{\"event\":\"halo_exchange\",\"rank\":0,\"iteration\":0,\"faces\":0,\"bytes\":0}",
            // A rank the 2×2 run cannot have: one past the grid, and one
            // the reader saturates to `usize::MAX`.
            "{\"event\":\"outer_start\",\"rank\":4,\"outer\":0}",
            "{\"event\":\"outer_start\",\"rank\":18446744073709551615,\"outer\":0}",
        ] {
            let parsed = reader::parse(bad).expect("valid JSON");
            assert!(event_from_json(&parsed, 4).is_err(), "accepted {bad}");
        }
        // The same rank event is fine inside the grid, and no rank at
        // all is under a single-domain manifest.
        let ok = "{\"event\":\"outer_start\",\"rank\":3,\"outer\":0}";
        let parsed = reader::parse(ok).expect("valid JSON");
        assert!(event_from_json(&parsed, 4).is_ok());
        assert!(event_from_json(&parsed, 0).is_err());
    }
}
