//! The traced pass: per-layer numbers from the harness side.
//!
//! The harness drives the workload's problem once *by hand* through each
//! crate's public functions and opens a span around every such call
//! ([`crate::spans`]); counts are taken at the same place.  Phase seconds
//! and exact counters that are already public on an outcome's `metrics`
//! or on `/v1/metrics` are read, not re-instrumented.  The work here is
//! fixed (it does not depend on `--seconds`), so the exact counters
//! repeat bit for bit between two passes.  End-to-end metrics are never
//! taken from this pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use unsnap_accel::DsaConfig;
use unsnap_comm::halo::HaloMessage;
use unsnap_comm::BlockJacobiSolver;
use unsnap_core::angular::AngularQuadrature;
use unsnap_core::data::ProblemData;
use unsnap_core::dsa::DsaAccelerator;
use unsnap_core::kernel::{self, KernelEngine, KernelScratch, UpwindFace, UpwindSource};
use unsnap_core::layout::FluxLayout;
use unsnap_core::problem::Problem;
use unsnap_core::session::{NoopObserver, Phase, Session};
use unsnap_core::solver::{relative_change, RunStats, SolveOutcome, TransportSolver};
use unsnap_core::strategy::{InnerSolveContext, StrategyKind};
use unsnap_core::wire;
use unsnap_fem::{ElementIntegrals, HexVertices, ReferenceElement};
use unsnap_linalg::solver::{assembly_flops, solve_flops};
use unsnap_linalg::SolverKind;
use unsnap_mesh::Decomposition2D;
use unsnap_obs::json::JsonObject;
use unsnap_obs::reader::{self, JsonValue};
use unsnap_obs::trace::{TraceTree, Tracer};
use unsnap_runlog::{recover, CheckpointObserver, RunMode};
use unsnap_sweep::SweepSchedule;

use crate::catalogue::{self, Layer};
use crate::reference::reference_for;
use crate::serve;
use crate::solve::{flux_facts, jacobi_facts, session_facts, Checker, SolveFacts};
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::workloads::{self, Driver, Workload};
use crate::Values;

/// Per-layer values by name.
type Measured = BTreeMap<&'static str, f64>;

/// Operations of the pass: those checked elsewhere (a [`Checker`], the
/// serve report) are absorbed as counts, the pass's own failures are
/// kept as messages and count one operation each.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    fn absorb(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// How much the traced pass repeats.
#[derive(Debug, Clone, Copy)]
struct Effort {
    /// Set-up probes.
    setups: usize,
    /// Batches per tight loop.
    batches: usize,
    /// Seconds per batch.
    batch_s: f64,
}

/// Median nanoseconds per call of `f`: `batches` batches, each sized
/// from a first estimate to last about `batch_s` seconds.
fn ns_per_call(effort: Effort, mut f: impl FnMut()) -> f64 {
    let probe = 16;
    f(); // first-call effects (cold caches, lazy allocation) stay out of the estimate
    let t0 = Instant::now();
    for _ in 0..probe {
        f();
    }
    let per_call = (t0.elapsed().as_secs_f64() / probe as f64).max(1e-9);
    let calls = ((effort.batch_s / per_call) as usize).clamp(probe, 10_000_000);
    let samples: Vec<f64> = (0..effort.batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

/// The pieces of a problem the set-up probe builds by hand.
struct Pieces {
    mesh: unsnap_mesh::UnstructuredMesh,
    element: ReferenceElement,
    integrals: Vec<ElementIntegrals>,
    quadrature: AngularQuadrature,
    schedules: Vec<SweepSchedule>,
    data: ProblemData,
}

/// One set-up, layer by layer, each constructor in its own span.
fn setup_probe(problem: &Problem, spans: &mut Spans, rep: usize) -> Result<Pieces, String> {
    spans.open(0, "setup.by_hand", format!("rep={rep}"));
    let (mesh, _) = spans.time("mesh.build", "", || problem.build_mesh());
    let element = ReferenceElement::new(problem.element_order);
    let (integrals, _) = spans.time("fem.integrals", "", || {
        (0..mesh.num_cells())
            .map(|cell| {
                let hex = HexVertices {
                    corners: *mesh.cell_corners(cell),
                };
                ElementIntegrals::compute(&element, &hex)
            })
            .collect::<Vec<_>>()
    });
    let quadrature = AngularQuadrature::product(problem.angles_per_octant);
    let (schedules, _) = spans.time("sweep.schedule_build", "", || {
        quadrature
            .directions()
            .iter()
            .map(|d| SweepSchedule::build(&mesh, d.omega))
            .collect::<Result<Vec<_>, _>>()
    });
    let schedules = schedules.map_err(|e| format!("SweepSchedule::build: {e:?}"))?;
    let grid = problem.grid();
    let data = ProblemData::generate(
        mesh.num_cells(),
        |cell| mesh.cell_centroid(cell),
        [grid.lx, grid.ly, grid.lz],
        problem.num_groups,
        problem.material,
        problem.source,
    );
    let cells: Vec<usize> = (0..mesh.num_cells()).collect();
    let layout = FluxLayout::scalar(
        element.nodes_per_element(),
        mesh.num_cells(),
        problem.num_groups,
        problem.scheme.loop_order,
    );
    let (accelerator, _) = spans.time("accel.build", "", || {
        DsaAccelerator::build(
            &mesh,
            &cells,
            &element,
            Some(&integrals),
            &data,
            layout,
            DsaConfig {
                tolerance: problem.accel_cg_tolerance,
                max_iterations: problem.accel_cg_iterations,
            },
        )
    });
    drop(accelerator);
    let (solver, _) = spans.time("core.solver.new", "", || TransportSolver::new(problem));
    drop(solver.map_err(|e| format!("TransportSolver::new: {e}"))?);
    let (jacobi, _) = spans.time("comm.jacobi.new", "", || {
        BlockJacobiSolver::new(problem, Decomposition2D::new(2, 2))
    });
    drop(jacobi.map_err(|e| format!("BlockJacobiSolver::new: {e}"))?);
    spans.close(0);
    Ok(Pieces {
        mesh,
        element,
        integrals,
        quadrature,
        schedules,
        data,
    })
}

/// Tight loops over one local task on a representative (central) element.
fn kernel_probe(
    problem: &Problem,
    pieces: &Pieces,
    effort: Effort,
    spans: &mut Spans,
    out: &mut Measured,
) {
    let cell = pieces.mesh.num_cells() / 2;
    let integrals = &pieces.integrals[cell];
    let n = integrals.nodes_per_element();
    let omega = pieces.quadrature.directions()[0].omega;
    let sigma_t = pieces.data.xs.total(pieces.data.material(cell), 0);
    let source = vec![1.0; n];
    let neighbor_psi = vec![0.5; n];
    // Every inflow face reads a neighbour's face nodes, as an interior
    // element's do.
    let upwind: Vec<UpwindFace<'_>> = integrals
        .faces
        .iter()
        .enumerate()
        .filter(|(_, face)| face.direction_dot_normal(omega) < 0.0)
        .map(|(index, face)| UpwindFace {
            face: index,
            source: UpwindSource::Interior {
                neighbor_psi: &neighbor_psi,
                neighbor_face_nodes: &face.node_indices,
            },
        })
        .collect();
    let mut scratch = KernelScratch::new(n);

    let (ns, _) = spans.time("core.kernel.assemble", "tight loop", || {
        ns_per_call(effort, || {
            kernel::assemble(integrals, omega, sigma_t, &source, &upwind, &mut scratch);
            black_box(&scratch.rhs);
        })
    });
    out.insert("core.kernel.assemble_ns", ns);
    let (ns, _) = spans.time("core.kernel.assemble_blocked", "tight loop", || {
        ns_per_call(effort, || {
            kernel::assemble_blocked(
                integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                cell,
                &mut scratch,
            );
            black_box(&scratch.rhs);
        })
    });
    out.insert("core.kernel.assemble_blocked_ns", ns);

    let engine = KernelEngine::new(problem.kernel, problem.precision);
    let solver = problem.solver.build();
    let (task_ns, _) = spans.time("core.kernel.task", "tight loop", || {
        ns_per_call(effort, || {
            black_box(engine.assemble_solve(
                cell,
                integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                solver.as_ref(),
                false,
                &mut scratch,
            ));
        })
    });
    out.insert("core.kernel.task_ns", task_ns);

    // The dense solve alone: restoring the assembled system is part of
    // every iteration, so the restore is timed by itself and taken off.
    kernel::assemble(integrals, omega, sigma_t, &source, &upwind, &mut scratch);
    let (matrix, rhs) = (scratch.matrix.clone(), scratch.rhs.clone());
    let restore_ns = ns_per_call(effort, || {
        scratch
            .matrix
            .as_mut_slice()
            .copy_from_slice(matrix.as_slice());
        scratch.rhs.copy_from_slice(&rhs);
        black_box(&scratch.matrix);
    });
    for (kind, name, span) in [
        (
            SolverKind::GaussianElimination,
            "linalg.solve_ns.ge",
            "linalg.solve.ge",
        ),
        (
            SolverKind::ReferenceLu,
            "linalg.solve_ns.lu",
            "linalg.solve.lu",
        ),
        (SolverKind::Mkl, "linalg.solve_ns.mkl", "linalg.solve.mkl"),
    ] {
        let backend = kind.build();
        let (ns, _) = spans.time(span, "tight loop", || {
            ns_per_call(effort, || {
                scratch
                    .matrix
                    .as_mut_slice()
                    .copy_from_slice(matrix.as_slice());
                scratch.rhs.copy_from_slice(&rhs);
                backend
                    .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
                    .expect("the local DG system is non-singular");
                black_box(&scratch.rhs);
            })
        });
        let ns = (ns - restore_ns).max(0.0);
        out.insert(name, ns);
        if kind == problem.solver {
            out.insert("linalg.solve_gflops", solve_flops(n) / ns);
        }
    }

    // Computed, not measured: the operation and traffic model of one
    // task (inflow faces as above; cache misses are not in it).
    let faces = upwind.len();
    let nf = integrals.nodes_per_face();
    out.insert(
        "core.kernel.flops_per_task",
        assembly_flops(n, faces) + solve_flops(n),
    );
    let doubles = 4 * n * n          // mass + three streaming matrices read
        + n * n                      // local matrix written
        + 6 * 3 * nf * nf            // face matrices, inflow and outflow
        + faces * nf                 // upwind angular flux read
        + 3 * n; // source read, right-hand side and angular flux written
    out.insert("core.kernel.bytes_per_task", 8.0 * doubles as f64);
}

/// One hand-driven solve: what `Session::run` does for source iteration
/// and DSA source iteration, call by public call, under spans.
struct HandSolve {
    facts: SolveFacts,
    /// Wall seconds of the iteration loop (set-up excluded).
    wall_s: f64,
    sweep_s: Vec<f64>,
    source_s: f64,
    converge_s: f64,
}

fn hand_solve(problem: &Problem, spans: &mut Spans) -> Result<HandSolve, String> {
    let threads = problem.num_threads.unwrap_or(1);
    spans.open(0, "solve.by_hand", format!("threads={threads}"));
    let (solver, _) = spans.time("core.solver.new", "", || TransportSolver::new(problem));
    let mut solver = solver.map_err(|e| format!("TransportSolver::new: {e}"))?;
    let dsa = match problem.strategy {
        StrategyKind::SourceIteration => false,
        StrategyKind::DsaSourceIteration => true,
        StrategyKind::SweepGmres => {
            return Err("the hand-driven loop covers SI and DSA-SI only".to_string())
        }
    };
    let mut stats = RunStats::default();
    let mut observer = NoopObserver;
    let mut hand = HandSolve {
        facts: SolveFacts {
            sweeps: 0,
            kernel_invocations: 0,
            converged: false,
            flux: [0.0; 3],
        },
        wall_s: 0.0,
        sweep_s: Vec::new(),
        source_s: 0.0,
        converge_s: 0.0,
    };
    let mut previous = Vec::new();
    let t0 = Instant::now();
    // One outer iteration: the first outer starts from the zero flux the
    // solver is born with, which is all the public API lets a caller
    // reproduce.  The fixed-work workloads have exactly one; converge-dsa
    // converges inside its first.
    for _inner in 0..problem.inner_iterations {
        stats.inner_iterations += 1;
        let ((), s) = spans.time("core.source", "", || solver.compute_source());
        hand.source_s += s;
        solver.save_phi_inner();
        let ((), s) = spans.time("core.sweep", "", || {
            solver.sweep_once(&mut stats, &mut observer)
        });
        hand.sweep_s.push(s);
        if dsa {
            previous.clear();
            previous.extend_from_slice(solver.phi_inner_slice());
            let (corrected, _) = spans.time("accel.correct", "", || {
                InnerSolveContext::dsa_correct(&mut solver, &previous, &mut stats, &mut observer)
            });
            corrected.map_err(|e| format!("dsa_correct: {e}"))?;
        }
        let (diff, s) = spans.time("core.converge", "", || {
            relative_change(solver.phi_slice(), solver.phi_inner_slice())
        });
        hand.converge_s += s;
        if problem.convergence_tolerance > 0.0 && diff < problem.convergence_tolerance {
            hand.facts.converged = true;
            break;
        }
    }
    hand.wall_s = t0.elapsed().as_secs_f64();
    spans.close(0);
    let phi = solver.phi_slice();
    hand.facts.sweeps = stats.sweeps;
    hand.facts.kernel_invocations = stats.kernel_invocations;
    hand.facts.flux = flux_facts(phi);
    Ok(hand)
}

/// `Session::new` + `Session::run` under one span; returns the outcome
/// and the seconds of `run` alone.
fn session_run(
    problem: &Problem,
    span: &'static str,
    spans: &mut Spans,
) -> Result<(SolveOutcome, f64), String> {
    spans.open(
        0,
        span,
        format!("threads={}", problem.num_threads.unwrap_or(1)),
    );
    let result = Session::new(problem).and_then(|mut session| {
        let t0 = Instant::now();
        let outcome = session.run()?;
        Ok((outcome, t0.elapsed().as_secs_f64()))
    });
    spans.close(0);
    result.map_err(|e| format!("{span}: {e}"))
}

/// The pure functions of the request path, on this workload's own
/// problem and outcome.
fn request_path_probe(
    problem: &Problem,
    outcome: &SolveOutcome,
    element_order: usize,
    effort: Effort,
    spans: &mut Spans,
    out: &mut Measured,
) {
    let (ns, _) = spans.time("core.outcome.render", "tight loop", || {
        ns_per_call(effort, || {
            black_box(outcome.to_json());
        })
    });
    out.insert("core.outcome.render_s", ns * 1e-9);
    let rendered = outcome.to_json();
    out.insert("core.outcome.bytes", rendered.len() as f64);
    let (ns, _) = spans.time("obs.json.parse", "tight loop", || {
        ns_per_call(effort, || {
            black_box(reader::parse(&rendered).expect("an outcome is valid JSON"));
        })
    });
    // bytes per nanosecond × 1000 = MB/s
    out.insert("obs.json.parse_mb_per_s", rendered.len() as f64 / ns * 1e3);
    let wire_json = wire::problem_to_json(problem);
    let (ns, _) = spans.time("serve.wire.parse", "tight loop", || {
        ns_per_call(effort, || {
            black_box(wire::builder_from_json_str(&wire_json).expect("canonical wire JSON parses"));
        })
    });
    out.insert("serve.wire.parse_ns", ns);
    let (ns, _) = spans.time("serve.hash", "tight loop", || {
        ns_per_call(effort, || {
            black_box(problem.canonical_hash());
        })
    });
    out.insert("serve.hash_ns", ns);
    let message = HaloMessage {
        from_rank: 1,
        cell: 7,
        face: 2,
        angle: 3,
        group: 1,
        values: vec![0.25; unsnap_fem::face::nodes_per_face(element_order)],
    };
    let (ns, _) = spans.time("comm.halo.pack", "tight loop", || {
        ns_per_call(effort, || {
            black_box(HaloMessage::unpack(message.pack()).expect("a packed message unpacks"));
        })
    });
    out.insert("comm.halo.pack_ns", ns);
}

/// converge-dsa only: the three strategies to the same tolerance, and
/// one checkpointed repeat through the run log.
fn convergence_probe(
    problem: &Problem,
    plain_run_s: f64,
    out_dir: &Path,
    spans: &mut Spans,
    out: &mut Measured,
    tally: &mut Tally,
) {
    for (strategy, name, span) in [
        (
            StrategyKind::SourceIteration,
            "core.strategy.si.sweeps",
            "core.strategy.si",
        ),
        (
            StrategyKind::DsaSourceIteration,
            "core.strategy.dsa-si.sweeps",
            "core.strategy.dsa-si",
        ),
        (
            StrategyKind::SweepGmres,
            "core.strategy.gmres.sweeps",
            "core.strategy.gmres",
        ),
    ] {
        let variant = problem.clone().with_strategy(strategy);
        match session_run(&variant, span, spans) {
            Ok((outcome, _)) => {
                println!(
                    "converge-dsa: {} to {:e}: {} sweeps, converged={}{}",
                    strategy.label(),
                    variant.convergence_tolerance,
                    outcome.sweep_count,
                    outcome.converged,
                    if outcome.converged {
                        ""
                    } else {
                        " (iteration budget exhausted)"
                    }
                );
                out.insert(name, outcome.sweep_count as f64);
                match strategy {
                    StrategyKind::DsaSourceIteration => {
                        out.insert("accel.cg.iters", outcome.accel_cg_iterations as f64);
                        out.insert(
                            "accel.cg.busy_s",
                            outcome.metrics.phase_time(Phase::AccelCg),
                        );
                    }
                    StrategyKind::SweepGmres => {
                        out.insert("krylov.gmres.iters", outcome.krylov_iterations as f64);
                        out.insert(
                            "krylov.gmres.solve_s",
                            outcome.metrics.phase_time(Phase::Krylov),
                        );
                        // Self time of the solver's own krylov spans: the
                        // Arnoldi work, without the sweeps it calls.
                        let own = spans::self_time_table(&outcome.trace)
                            .get(Phase::Krylov.label())
                            .map_or(f64::NAN, |row| row.2);
                        out.insert("krylov.gmres.self_s", own);
                    }
                    StrategyKind::SourceIteration => {}
                }
            }
            Err(error) => tally.fail(error),
        }
    }

    let path = out_dir.join("converge-dsa.runlog");
    spans.open(0, "runlog.checkpointed_run", "");
    let logged =
        CheckpointObserver::create(&path, problem, RunMode::Single, 1).and_then(|observer| {
            let mut sink = observer.sink();
            let mut observer = observer;
            let mut session = Session::new(problem)?;
            let t1 = Instant::now();
            session.run_checkpointed(&mut observer, &mut sink)?;
            Ok(t1.elapsed().as_secs_f64())
        });
    spans.close(0);
    match logged {
        Ok(run_s) => {
            out.insert("runlog.checkpoint.overhead_s", run_s - plain_run_s);
            let (recovered, s) = spans.time("runlog.recover", "", || recover(&path));
            out.insert("runlog.recover_s", s);
            match recovered {
                Ok(recovered) => {
                    out.insert("runlog.checkpoint.count", recovered.checkpoints as f64);
                    out.insert("runlog.checkpoint.bytes", recovered.valid_len as f64);
                    if !recovered.completed {
                        tally.fail("the run log does not record a completed run".to_string());
                    }
                }
                Err(error) => tally.fail(format!("recover: {error}")),
            }
        }
        Err(error) => tally.fail(format!("checkpointed run: {error}")),
    }
    let _ = std::fs::remove_file(&path);
}

/// jacobi-2x2 only: the block-Jacobi driver at both widths, beside the
/// single-domain solves of the same problem.
fn jacobi_probe(
    problem: &Problem,
    seed: u64,
    single_run_s: [f64; 2],
    spans: &mut Spans,
    out: &mut Measured,
    tally: &mut Tally,
) {
    let mut checker = Checker::new(
        Workload::Jacobi2x2,
        Driver::Jacobi2x2,
        problem,
        reference_for(Workload::Jacobi2x2, Driver::Jacobi2x2, seed),
    );
    let mut run_s = [f64::NAN; 2];
    let mut sweep_s = [f64::NAN; 2];
    for width in 0..2 {
        let variant = problem.clone().with_threads(width + 1);
        spans.open(0, "comm.jacobi.solve", format!("threads={}", width + 1));
        let (solver, _) = spans.time("comm.jacobi.new", "", || {
            BlockJacobiSolver::new(&variant, Decomposition2D::new(2, 2))
        });
        let result = solver.and_then(|mut solver| {
            let (outcome, s) = spans.time("comm.jacobi.run", "", || solver.run());
            let outcome = outcome?;
            let facts = jacobi_facts(&outcome, &solver);
            Ok((outcome, facts, s))
        });
        spans.close(0);
        match result {
            Ok((outcome, facts, s)) => {
                run_s[width] = s;
                sweep_s[width] = outcome.assemble_solve_seconds;
                checker.check(
                    &format!("traced block-Jacobi solve at {} thread(s)", width + 1),
                    &facts,
                );
                if width == 0 {
                    out.insert("comm.halo.exchanges", outcome.metrics.halo_exchanges as f64);
                    out.insert("comm.halo.faces", outcome.metrics.halo_faces as f64);
                    out.insert("comm.halo.bytes", outcome.metrics.halo_bytes as f64);
                    out.insert(
                        "comm.halo.busy_s",
                        outcome.metrics.phase_time(Phase::HaloExchange),
                    );
                }
            }
            Err(error) => tally.fail(format!("block Jacobi at {} thread(s): {error}", width + 1)),
        }
    }
    tally.absorb(checker.attempted, checker.failed);
    out.insert("comm.jacobi.vs_single", run_s[0] / single_run_s[0]);
    out.insert("comm.jacobi.vs_single_t2", run_s[1] / single_run_s[1]);
    out.insert(
        "comm.jacobi.scaling_eff_t2",
        sweep_s[0] / (2.0 * sweep_s[1]),
    );
}

fn histogram_p50(metrics: &JsonValue, name: &str) -> f64 {
    metrics
        .get("wallclock")
        .and_then(|w| w.get("histograms"))
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("p50"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

/// serve-mix only: a fixed small plan under client-side spans, and the
/// server's own numbers from its metrics registry.
fn serve_probe(
    seed: u64,
    quick: bool,
    spans: Spans,
    out: &mut Measured,
    tally: &mut Tally,
) -> Spans {
    let sizes = if quick {
        serve::Sizes::quick()
    } else {
        serve::Sizes::traced()
    };
    let origin = spans.origin();
    let mut report = serve::measure(seed, sizes, Instant::now(), f64::INFINITY, Some(spans));
    tally.absorb(report.attempted, report.failed);
    let spans = report.spans.take().unwrap_or_else(|| Spans::new(origin));
    if report.exchanges.is_empty() {
        return spans;
    }
    let column =
        |f: fn(&serve::Exchange) -> f64| -> Vec<f64> { report.exchanges.iter().map(f).collect() };
    out.insert("serve.http.post_p50_s", median(&column(|e| e.post_s)));
    out.insert("serve.outcome.fetch_p50_s", median(&column(|e| e.fetch_s)));
    out.insert(
        "serve.outcome.bytes",
        median(&column(|e| e.outcome.len() as f64)),
    );
    // A miss's event stream is open from just after the POST to the job's
    // last event: queue wait + set-up + solve + render as the client
    // sees them.
    let miss_streams: Vec<f64> = report
        .exchanges
        .iter()
        .filter(|e| !e.hit)
        .map(|e| e.events_s)
        .collect();
    out.insert("serve.job.run_p50_s", median(&miss_streams));
    out.insert(
        "serve.workers.busy_share",
        // Of the clients' time that is not their own probing.
        miss_streams.iter().sum::<f64>()
            / (serve::CLIENTS as f64 * report.phase_a_wall_s - report.phase_a_probe_s),
    );
    let metrics = reader::parse(&report.server_metrics).unwrap_or(JsonValue::Null);
    out.insert(
        "serve.queue.wait_p50_s",
        histogram_p50(&metrics, "serve_queue_wait_seconds"),
    );
    out.insert(
        "serve.ttfe_p50_s",
        histogram_p50(&metrics, "serve_time_to_first_event_seconds"),
    );
    let counter = |name: &str| {
        metrics
            .get("deterministic")
            .and_then(|d| d.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let (hits, misses) = (counter("serve_cache_hits"), counter("serve_cache_misses"));
    out.insert("serve.store.hits", hits);
    out.insert("serve.store.misses", misses);
    out.insert("serve.store.hit_ratio", hits / (hits + misses));
    out.insert("serve.rejected", counter("serve_queue_rejections"));
    spans
}

/// Nanoseconds one open + close pair costs the span recorder's tracer.
fn span_cost_ns(effort: Effort) -> f64 {
    let mut tracer = Tracer::new().with_capacity(1024);
    ns_per_call(effort, || {
        tracer.open(0, "probe", "");
        tracer.close(0);
    })
}

fn layers_json(workload: Workload, seed: u64, measured: &Measured) -> String {
    let mut object = JsonObject::new()
        .field_str("workload", workload.name())
        .field_u64("seed", seed);
    let mut metrics = JsonObject::new();
    for layer in catalogue::layers_for(workload) {
        if let Some(value) = measured.get(layer.name) {
            metrics = metrics.field_raw(
                layer.name,
                &JsonObject::new()
                    .field_f64("value", *value)
                    .field_str("unit", layer.unit)
                    .finish(),
            );
        }
    }
    object = object.field_raw("metrics", &metrics.finish());
    object.finish()
}

/// Run the traced pass of `workload`; returns `(attempted, failed,
/// contract per-layer values)`.
pub fn run(workload: Workload, seed: u64, quick: bool, out_dir: &Path) -> (u64, u64, Values) {
    let pass_start = Instant::now();
    let name = workload.name();
    let effort = if quick {
        Effort {
            setups: 1,
            batches: 1,
            batch_s: 0.002,
        }
    } else {
        Effort {
            setups: 5,
            batches: 5,
            batch_s: 0.03,
        }
    };
    let mut spans = Spans::new(pass_start);
    let mut measured = Measured::new();
    let mut tally = Tally::default();

    // On serve-mix this is the plan's first inline problem.
    let problem = workloads::solve_problem(workload, seed);
    let mut checker = Checker::new(
        workload,
        Driver::Session,
        &problem,
        reference_for(workload, Driver::Session, seed),
    );

    'pass: {
        // Set-up, layer by layer.
        let mut pieces = None;
        for rep in 0..effort.setups {
            tally.attempted += 1;
            match setup_probe(&problem, &mut spans, rep) {
                Ok(built) => pieces = Some(built),
                Err(error) => {
                    tally.fail(error);
                    break 'pass;
                }
            }
        }
        let pieces = pieces.expect("at least one set-up probe");
        let buckets: usize = pieces
            .schedules
            .iter()
            .map(SweepSchedule::num_buckets)
            .sum();
        measured.insert("sweep.buckets", buckets as f64);
        measured.insert(
            "sweep.bucket_tasks_mean",
            workloads::tasks_per_sweep(&problem) as f64 / buckets as f64,
        );

        kernel_probe(&problem, &pieces, effort, &mut spans, &mut measured);
        let element_order = pieces.element.order();
        drop(pieces);

        // The solve, by hand and through the Session, at both widths.  A
        // short solve is repeated (up to five times) and represented by
        // its median repetition, so that one disturbed quarter-second
        // does not stand for the layer.
        let mut hands: [Vec<HandSolve>; 2] = [Vec::new(), Vec::new()];
        let mut sessions: Vec<(SolveOutcome, f64)> = Vec::new();
        let mut reps = 1;
        let mut rep = 0;
        while rep < reps {
            for width in 1..=2 {
                match hand_solve(&problem.clone().with_threads(width), &mut spans) {
                    Ok(hand) => {
                        checker.check(
                            &format!("hand-driven solve at {width} thread(s)"),
                            &hand.facts,
                        );
                        hands[width - 1].push(hand);
                    }
                    Err(error) => {
                        tally.fail(error);
                        break 'pass;
                    }
                }
            }
            // The same solve through the Session: what metrics, the trace
            // tee and the event plumbing add to the bare loop.
            match session_run(&problem, "core.session.run", &mut spans) {
                Ok((outcome, seconds)) => {
                    checker.check("Session::run at 1 thread", &session_facts(&outcome));
                    sessions.push((outcome, seconds));
                }
                Err(error) => {
                    tally.fail(error);
                    break 'pass;
                }
            }
            if rep == 0 && !quick {
                // From the operation count, not the clock, so that two
                // passes record the same spans: about 5e8 flops in all.
                let flops = hands[0][0].facts.kernel_invocations as f64
                    * measured["core.kernel.flops_per_task"];
                reps = ((5e8 / flops) as usize).clamp(1, 5);
            }
            rep += 1;
        }
        for list in &mut hands {
            list.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        }
        sessions.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (t1, t2) = (&hands[0][hands[0].len() / 2], &hands[1][hands[1].len() / 2]);
        let (outcome, session_s) = sessions.swap_remove(sessions.len() / 2);
        let busy: f64 = t1.sweep_s.iter().sum();
        let busy_t2: f64 = t2.sweep_s.iter().sum();
        let tasks = t1.facts.kernel_invocations as f64;
        measured.insert("core.sweep.count", t1.facts.sweeps as f64);
        measured.insert("core.sweep.tasks", tasks);
        measured.insert("core.sweep.busy_s", busy);
        measured.insert("core.sweep.p50_s", median(&t1.sweep_s));
        measured.insert("core.sweep.task_ns", busy * 1e9 / tasks);
        measured.insert("core.sweep.tasks_per_s", tasks / busy);
        measured.insert("core.sweep.tasks_per_s_t2", tasks / busy_t2);
        measured.insert(
            "core.sweep.overhead_share",
            1.0 - tasks * measured["core.kernel.task_ns"] * 1e-9 / busy,
        );
        measured.insert("core.sweep.scaling_eff_t2", busy / (2.0 * busy_t2));
        measured.insert("core.source.busy_s", t1.source_s);
        measured.insert("core.converge.busy_s", t1.converge_s);
        measured.insert(
            "core.session.overhead_share",
            (session_s - t1.wall_s) / session_s,
        );
        measured.insert(
            "core.preassembly_s",
            outcome.metrics.phase_time(Phase::Preassembly),
        );

        // Table II's "% in solve", from a run with the solve timer on.
        match session_run(
            &problem.clone().with_solve_timing(true),
            "core.session.run_time_solve",
            &mut spans,
        ) {
            Ok((timed, _)) => {
                checker.check("Session::run with time_solve", &session_facts(&timed));
                measured.insert("core.kernel.solve_share", timed.solve_fraction());
            }
            Err(error) => tally.fail(error),
        }

        request_path_probe(
            &problem,
            &outcome,
            element_order,
            effort,
            &mut spans,
            &mut measured,
        );

        match workload {
            Workload::ConvergeDsa => {
                if let Err(error) = std::fs::create_dir_all(out_dir) {
                    tally.fail(format!("cannot create {}: {error}", out_dir.display()));
                    break 'pass;
                }
                convergence_probe(
                    &problem,
                    session_s,
                    out_dir,
                    &mut spans,
                    &mut measured,
                    &mut tally,
                );
            }
            Workload::Jacobi2x2 => {
                let session_t2_s = match session_run(
                    &problem.clone().with_threads(2),
                    "core.session.run",
                    &mut spans,
                ) {
                    Ok((outcome_t2, s)) => {
                        checker.check("Session::run at 2 threads", &session_facts(&outcome_t2));
                        s
                    }
                    Err(error) => {
                        tally.fail(error);
                        break 'pass;
                    }
                };
                jacobi_probe(
                    &problem,
                    seed,
                    [session_s, session_t2_s],
                    &mut spans,
                    &mut measured,
                    &mut tally,
                );
            }
            Workload::ServeMix => {
                spans = serve_probe(seed, quick, spans, &mut measured, &mut tally);
            }
            Workload::SweepLinear | Workload::SweepCubic => {}
        }
    }
    tally.absorb(checker.attempted, checker.failed);

    // Close the recording, derive what the spans give, write the files.
    let span_ns = span_cost_ns(effort);
    let wall_s = pass_start.elapsed().as_secs_f64();
    let tree: TraceTree = spans.finish();
    for (span, metric) in [
        ("mesh.build", "mesh.build_s"),
        ("fem.integrals", "fem.integrals_s"),
        ("sweep.schedule_build", "sweep.schedule_build_s"),
        ("core.solver.new", "core.solver.new_s"),
        ("accel.build", "accel.build_s"),
        ("comm.jacobi.new", "comm.jacobi.new_s"),
    ] {
        let seconds = spans::durations(&tree, span);
        if !seconds.is_empty() {
            measured.insert(metric, median(&seconds));
        }
    }
    measured.insert("obs.trace.spans", tree.len() as f64);
    measured.insert("obs.trace.dropped", tree.dropped as f64);
    // Computed: spans recorded × the measured cost of one open + close,
    // over the wall time of the pass.
    measured.insert(
        "obs.trace.overhead_share",
        tree.len() as f64 * span_ns * 1e-9 / wall_s,
    );
    if tree.dropped != 0 {
        tally.fail(format!("{} spans were dropped", tree.dropped));
    }

    let chrome = tree.to_chrome_json();
    if reader::parse(&chrome).is_err() {
        tally.fail("the Chrome trace does not re-parse".to_string());
    }
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{name}.trace.json")), &chrome))
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{name}.layers.json")),
                layers_json(workload, seed, &measured),
            )
        });
    if let Err(error) = written {
        tally.fail(format!("cannot write under {}: {error}", out_dir.display()));
    }

    println!(
        "{name}: self time by span ({} spans, {:.3} s traced pass):",
        tree.len(),
        wall_s
    );
    for line in spans::render_self_times(&tree).lines() {
        println!("{name}:   {line}");
    }
    println!("{name}: per-layer metrics (flops/bytes per task and trace overhead are computed, the rest measured):");
    let expected: Vec<&Layer> = catalogue::layers_for(workload).collect();
    for layer in &expected {
        match measured.get(layer.name) {
            Some(value) => println!(
                "{name}:   {:<32} {:>16} {}",
                layer.name,
                unsnap_obs::json::number(*value),
                layer.unit
            ),
            None => tally.fail(format!("per-layer metric {} was not measured", layer.name)),
        }
    }
    println!(
        "{name}: trace written to {}",
        out_dir.join(format!("{name}.trace.json")).display()
    );

    for failure in &tally.failures {
        eprintln!("FAILED {name}: traced pass: {failure}");
    }
    let own = tally.failures.len() as u64;
    tally.absorb(own, own);
    let values: Values = catalogue::contract_layers()
        .filter_map(|layer| {
            measured
                .get(layer.name)
                .map(|v| (layer.name, layer.unit, *v))
        })
        .collect();
    (tally.attempted, tally.failed, values)
}
