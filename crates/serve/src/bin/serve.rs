//! The `unsnap-serve` daemon: bind, print where we are listening and
//! what the registry offers, then serve until killed.
//!
//! Configuration is environment-only (the `UNSNAP_*` family):
//! `UNSNAP_PORT` (default 8471), `UNSNAP_SERVE_WORKERS` (default 2),
//! `UNSNAP_CACHE_CAPACITY` (default 64, 0 disables the result cache),
//! `UNSNAP_RUNLOG_DIR` (unset disables durability; set, every job
//! checkpoints into `{dir}/job-{id}.runlog` and a restarted daemon
//! re-lists interrupted jobs as `resumable`) and
//! `UNSNAP_CHECKPOINT_ITERS` (checkpoint cadence in outer iterations,
//! default 1).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use unsnap_core::problem::Problem;
use unsnap_serve::{ServeConfig, Server};

fn main() -> ExitCode {
    let config = match ServeConfig::from_env() {
        Ok(config) => config,
        Err(error) => {
            eprintln!("unsnap-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(&config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("unsnap-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "unsnap-serve listening on http://{} ({} workers, queue {}, cache {})",
        server.addr(),
        config.workers,
        config.queue_capacity,
        config.cache_capacity
    );
    match &config.runlog_dir {
        Some(dir) => {
            let resumable = server
                .queue()
                .list()
                .iter()
                .filter(|job| job.state == unsnap_serve::JobState::Resumable)
                .count();
            println!(
                "durable runs: {} (checkpoint every {} outer(s), {} resumable job(s) recovered)",
                dir.display(),
                config.checkpoint_iters,
                resumable
            );
        }
        None => println!("durable runs: disabled (set UNSNAP_RUNLOG_DIR to enable)"),
    }
    println!(
        "registry problems: {}",
        Problem::registry_names().join(", ")
    );
    println!(
        "POST /v1/solve | GET /v1/jobs | GET /v1/jobs/{{id}}[/events|/trace] | POST /v1/jobs/{{id}}/resume | DELETE /v1/jobs/{{id}} | GET /v1/metrics[?format=prometheus]"
    );
    // Serve forever: the accept loop owns the work; unparks are spurious
    // by contract, so loop.
    loop {
        std::thread::park();
    }
}
