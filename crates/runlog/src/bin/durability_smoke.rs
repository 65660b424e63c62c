//! CI crash-and-resume smoke: a real process killed with SIGKILL.
//!
//! The integration suite (`tests/durability.rs`) injects crashes by
//! truncating log images and tearing writes in-process; this binary
//! closes the loop with an *actual* kill:
//!
//! ```text
//! durability_smoke run <log>       # checkpointing solve; prints the
//!                                  # normalized outcome JSON on stdout
//! durability_smoke resume <log>    # restore from the log's last intact
//!                                  # checkpoint, finish, print the same
//! ```
//!
//! The CI job starts `run` in the background, SIGKILLs it once the log
//! holds a checkpoint, then `resume`s and diffs the printed outcome
//! against an uninterrupted `run` — byte-for-byte.  The outcome is
//! *normalized*: wall-clock fields are zeroed (they differ run to run
//! by construction), so the diff pins exactly the deterministic
//! contract — flux, iteration counts, sweep/kernel tallies, metrics.
//!
//! The problem is fixed (a multi-outer quickstart variant with
//! tolerance 0, so every outer runs); `UNSNAP_SMOKE_OUTERS` scales the
//! outer count (default 24) to give the kill a wide window.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use unsnap_core::problem::Problem;
use unsnap_core::session::Session;
use unsnap_core::solver::SolveOutcome;
use unsnap_runlog::{CheckpointObserver, RunMode, SessionResume};

/// The fixed smoke problem: multi-outer, never converges (tolerance 0),
/// so the outer count — and with it the checkpoint schedule — is exact.
fn smoke_problem() -> Result<Problem, String> {
    let mut problem = Problem::quickstart();
    problem.outer_iterations = match std::env::var("UNSNAP_SMOKE_OUTERS") {
        Ok(raw) => raw
            .trim()
            .parse()
            .map_err(|e| format!("UNSNAP_SMOKE_OUTERS: {e}"))?,
        Err(_) => 24,
    };
    problem.convergence_tolerance = 0.0;
    Ok(problem)
}

/// Zero every wall-clock field so two runs of the same physics print
/// identical bytes.
fn normalized_json(mut outcome: SolveOutcome) -> String {
    outcome.assemble_solve_seconds = 0.0;
    outcome.kernel_assemble_seconds = 0.0;
    outcome.kernel_solve_seconds = 0.0;
    outcome.metrics.zero_wallclock();
    outcome.to_json()
}

fn run(path: &str) -> Result<String, String> {
    let problem = smoke_problem()?;
    let observer = CheckpointObserver::create(path, &problem, RunMode::Single, 1)
        .map_err(|e| e.to_string())?;
    let mut sink = observer.sink();
    let mut observer = observer;
    let mut session = Session::new(&problem).map_err(|e| e.to_string())?;
    let outcome = session
        .run_checkpointed(&mut observer, &mut sink)
        .map_err(|e| e.to_string())?;
    Ok(normalized_json(outcome))
}

fn resume(path: &str) -> Result<String, String> {
    let mut session = Session::resume(path).map_err(|e| e.to_string())?;
    let observer = CheckpointObserver::resume(path, 1).map_err(|e| e.to_string())?;
    let mut sink = observer.sink();
    let mut observer = observer;
    let outcome = session
        .run_checkpointed(&mut observer, &mut sink)
        .map_err(|e| e.to_string())?;
    Ok(normalized_json(outcome))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("run") if args.len() == 3 => run(&args[2]),
        Some("resume") if args.len() == 3 => resume(&args[2]),
        _ => Err("usage: durability_smoke <run|resume> <log-path>".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("durability_smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
