//! Durability suite: crash-and-resume fault injection for the run log.
//!
//! Pins the two contracts of `unsnap-runlog`:
//!
//! 1. **Recovery is total.**  Truncating a finished run log at *every*
//!    byte offset — and flipping arbitrary bytes — yields either a
//!    typed error or a valid checkpoint prefix.  Never a panic, never a
//!    torn frame accepted.
//! 2. **Resume is bit-for-bit.**  Kill a checkpointed run after any
//!    outer iteration (by log truncation or an injected torn write),
//!    resume it, and the completed run's outcome — flux, iteration
//!    counts, deterministic metrics, and the full observer event
//!    stream — is identical to the same run left uninterrupted, at
//!    thread widths 1, 2 and 8, for SI, DSA-SI and SweepGmres, on both
//!    the single-domain and the block-Jacobi path.
//! 3. **What a resume point must carry.**  φ, and the ψ of the cells on
//!    a cut between ranks.  A single-domain checkpoint holds no ψ at all
//!    and resumes to the bit; a block-Jacobi run resumed with every
//!    rank's own ψ poisoned does too — ψ is scratch there — while poison
//!    in the halo reaches the answer: halo ψ is state.

use proptest::prelude::*;

use unsnap::core::solver::OuterDriver;
use unsnap::prelude::*;
use unsnap::runlog::{
    checkpoint, checkpoint_iters_from_env, frame, recover_bytes, resume_block_jacobi,
    CheckpointObserver, FaultyWriter, RunMode, SessionResume, SharedBuffer, CHECKPOINT_ITERS_ENV,
};

// ---------------------------------------------------------------------
// Shared fixtures and comparison helpers
// ---------------------------------------------------------------------

/// A small multi-outer problem: tolerance zero means no outer ever
/// converges, so exactly `outer_iterations` outers run — a fixed,
/// deterministic checkpoint schedule for the kill/resume sweeps.
fn base_problem(strategy: StrategyKind) -> Problem {
    let mut p = Problem::tiny();
    p.nx = 3;
    p.ny = 3;
    p.nz = 2;
    p.num_groups = 2;
    p.angles_per_octant = 2;
    p.inner_iterations = 3;
    p.outer_iterations = 4;
    p.convergence_tolerance = 0.0;
    p.scattering_ratio = Some(0.9);
    p.strategy = strategy;
    p.scheme = ConcurrencyScheme::best();
    p
}

/// Everything a `SolveOutcome` — of either driver — reports except
/// wall-clock timing.
fn non_timing(o: &SolveOutcome) -> SolveOutcome {
    let mut metrics = o.metrics.clone();
    metrics.zero_wallclock();
    SolveOutcome {
        assemble_solve_seconds: 0.0,
        kernel_assemble_seconds: 0.0,
        kernel_solve_seconds: 0.0,
        metrics,
        ..o.clone()
    }
}

/// Zero the wall-clock fields of a recording (recursively over rank
/// records); the deterministic counts stay and must match exactly.
fn without_timing(recorder: &RecordingObserver) -> RecordingObserver {
    let mut r = recorder.clone();
    r.sweep_seconds = 0.0;
    r.phase_seconds = vec![0.0; r.phase_seconds.len()];
    for rank in &mut r.rank_records {
        rank.sweep_seconds = 0.0;
        rank.phase_seconds = vec![0.0; rank.phase_seconds.len()];
    }
    r
}

/// An even smaller fixture for the exhaustive byte-level recovery
/// sweeps: the truncation test visits *every* byte offset and re-scans
/// the prefix each time, so the log must stay a few kilobytes.
fn small_problem() -> Problem {
    let mut p = base_problem(StrategyKind::SourceIteration);
    p.nx = 2;
    p.ny = 2;
    p.nz = 1;
    p.num_groups = 1;
    p.angles_per_octant = 1;
    p.inner_iterations = 2;
    p
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "unsnap-durability-{}-{tag}.runlog",
        std::process::id()
    ))
}

/// An uninterrupted checkpointed run of either driver.
struct Reference {
    outcome: SolveOutcome,
    flux: Vec<f64>,
    /// The final angular flux: all of it on one domain, the halo's
    /// across ranks.
    psi: Vec<f64>,
    recorder: RecordingObserver,
    /// The complete run-log image of the uninterrupted run.
    log: Vec<u8>,
}

impl Reference {
    /// Assert a resumed run's outcome, flux and observer stream match
    /// this uninterrupted run's exactly.
    fn assert_resumed(
        &self,
        outcome: &SolveOutcome,
        flux: &[f64],
        recorder: &RecordingObserver,
        tag: &str,
    ) {
        assert_eq!(
            non_timing(outcome),
            non_timing(&self.outcome),
            "{tag}: resumed outcome diverged"
        );
        assert_eq!(flux, &self.flux[..], "{tag}: resumed flux diverged");
        assert_eq!(
            without_timing(recorder),
            without_timing(&self.recorder),
            "{tag}: resumed observer stream diverged"
        );
    }
}

/// Run `problem` to completion under a checkpointing observer (cadence
/// `every`), capturing the outcome, flux, event stream and log bytes.
fn run_single_reference(problem: &Problem, every: usize) -> Reference {
    let buffer = SharedBuffer::new();
    let observer =
        CheckpointObserver::with_writer(Box::new(buffer.clone()), problem, RunMode::Single, every)
            .unwrap();
    let mut sink = observer.sink();
    let mut observer = observer;
    let mut recorder = RecordingObserver::default();
    let mut session = Session::new(problem).unwrap();
    session.solver_mut().keep_angular_flux();
    let outcome = {
        let mut tee = TeeObserver::new(&mut recorder, &mut observer);
        session.run_checkpointed(&mut tee, &mut sink).unwrap()
    };
    let psi = session.solver().angular_flux().expect("asked to be kept");
    Reference {
        outcome,
        flux: session.scalar_flux().as_slice().to_vec(),
        psi: psi.as_slice().to_vec(),
        recorder,
        log: buffer.bytes(),
    }
}

/// Byte offsets at which the log holds exactly 1..=n intact checkpoint
/// frames (frame 0 is the manifest; the finished frame is excluded).
fn checkpoint_boundaries(log: &[u8]) -> Vec<usize> {
    frame::scan(log)
        .frames
        .iter()
        .filter(|f| f.tag == frame::TAG_CHECKPOINT)
        .map(|f| f.end_offset)
        .collect()
}

/// End offset of the manifest frame (a "killed before any checkpoint"
/// kill point).
fn manifest_boundary(log: &[u8]) -> usize {
    let scan = frame::scan(log);
    assert_eq!(scan.frames[0].tag, frame::TAG_MANIFEST);
    scan.frames[0].end_offset
}

/// Resume the single-domain run whose log image is `partial`, finish
/// it, and assert the outcome/flux/stream match the reference exactly.
fn resume_single_and_compare(partial: &[u8], every: usize, reference: &Reference, tag: &str) {
    let path = temp_path(tag);
    std::fs::write(&path, partial).unwrap();
    let mut session = Session::resume(&path).unwrap();
    let observer = CheckpointObserver::resume(&path, every).unwrap();
    let mut sink = observer.sink();
    let mut observer = observer;
    let mut recorder = RecordingObserver::default();
    let outcome = {
        let mut tee = TeeObserver::new(&mut recorder, &mut observer);
        session.run_checkpointed(&mut tee, &mut sink).unwrap()
    };
    let flux = session.scalar_flux().as_slice();
    reference.assert_resumed(&outcome, flux, &recorder, tag);
    // The completed resumed log must itself recover as a finished run.
    let final_log = std::fs::read(&path).unwrap();
    let recovered = recover_bytes(&final_log).unwrap();
    assert!(
        recovered.completed,
        "{tag}: resumed log not marked finished"
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Contract 1: recovery is total
// ---------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_offset_recovers_a_valid_prefix() {
    let problem = small_problem();
    let images = [
        ("single", run_single_reference(&problem, 1).log),
        ("jacobi 2x1", run_jacobi_reference(&problem, 2, 1).log),
    ];
    for (image, log) in &images {
        let full = recover_bytes(log).unwrap();
        assert!(full.completed, "{image}");
        assert_eq!(
            full.checkpoints, 3,
            "{image}: 4 outers at cadence 1: 3 C + 1 F"
        );

        let boundaries = checkpoint_boundaries(log);
        for cut in 0..=log.len() {
            // Must never panic; short prefixes are typed errors.
            let Ok(recovered) = recover_bytes(&log[..cut]) else {
                continue;
            };
            // A torn frame is never accepted: the number of surviving
            // checkpoints is exactly the number of *whole* checkpoint
            // frames below the cut.
            let expect = boundaries.iter().filter(|&&end| end <= cut).count();
            assert_eq!(recovered.checkpoints, expect, "{image}: cut at {cut}");
            match recovered.resume {
                Some(ref point) => {
                    // Cadence 1: checkpoint k resumes at outer k+1.
                    assert_eq!(point.outer_next, expect, "{image}: cut at {cut}");
                    assert!(!point.prefix.events.is_empty(), "{image}: cut at {cut}");
                    let ranks = recovered.manifest.mode.num_ranks();
                    assert_eq!(point.rank_stats.len(), ranks, "{image}: cut at {cut}");
                }
                None => assert_eq!(expect, 0, "{image}: cut at {cut}"),
            }
            // `completed` survives only if the finished frame survived
            // whole, i.e. only the untruncated image.
            let whole = cut == log.len();
            assert_eq!(recovered.completed, whole, "{image}: cut at {cut}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte flips anywhere in the image: recovery returns a
    /// typed error or a (possibly shorter) valid prefix — never a
    /// panic, and corruption never *adds* checkpoints.
    #[test]
    fn random_mutations_never_panic_recovery(
        seed in 0usize..10_000,
        flips in 1usize..4,
    ) {
        static REFERENCE_LOG: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let mut log = REFERENCE_LOG
            .get_or_init(|| run_single_reference(&small_problem(), 1).log)
            .clone();
        let full = recover_bytes(&log).unwrap();
        for i in 0..flips {
            // Cheap deterministic pseudo-random positions/masks.
            let pos = (seed.wrapping_mul(31).wrapping_add(i * 7919)) % log.len();
            let mask = ((seed / 13 + i * 101) % 255 + 1) as u8;
            log[pos] ^= mask;
        }
        if let Ok(recovered) = recover_bytes(&log) {
            prop_assert!(recovered.checkpoints <= full.checkpoints);
        }
    }
}

// ---------------------------------------------------------------------
// Contract 2: kill-and-resume is bit-for-bit (single domain)
// ---------------------------------------------------------------------

fn assert_kill_resume_single(strategy: StrategyKind) {
    for threads in [1usize, 2, 8] {
        let mut problem = base_problem(strategy);
        problem.num_threads = Some(threads);
        let reference = run_single_reference(&problem, 1);

        // A plain unobserved run must agree too: the checkpoint sink
        // cannot perturb the physics.
        let mut plain = Session::new(&problem).unwrap();
        let plain_outcome = plain.run().unwrap();
        assert_eq!(non_timing(&plain_outcome), non_timing(&reference.outcome));

        // Kill after the manifest (before any checkpoint): resume is a
        // fresh run with the identical outcome.
        resume_single_and_compare(
            &reference.log[..manifest_boundary(&reference.log)],
            1,
            &reference,
            &format!("{strategy:?}-t{threads}-manifest"),
        );

        // Kill after every checkpointed outer in turn.
        for (k, &end) in checkpoint_boundaries(&reference.log).iter().enumerate() {
            resume_single_and_compare(
                &reference.log[..end],
                1,
                &reference,
                &format!("{strategy:?}-t{threads}-k{k}"),
            );
        }
    }
}

#[test]
fn kill_and_resume_is_bit_for_bit_si() {
    assert_kill_resume_single(StrategyKind::SourceIteration);
}

#[test]
fn kill_and_resume_is_bit_for_bit_dsa_si() {
    assert_kill_resume_single(StrategyKind::DsaSourceIteration);
}

#[test]
fn kill_and_resume_is_bit_for_bit_sweep_gmres() {
    assert_kill_resume_single(StrategyKind::SweepGmres);
}

#[test]
fn a_sparser_checkpoint_cadence_resumes_identically() {
    let problem = base_problem(StrategyKind::DsaSourceIteration);
    let reference = run_single_reference(&problem, 2);
    // Cadence 2 over 4 outers: one checkpoint (after outer 1), then the
    // finished frame; its event delta spans two whole outers.
    let boundaries = checkpoint_boundaries(&reference.log);
    assert_eq!(boundaries.len(), 1);
    resume_single_and_compare(&reference.log[..boundaries[0]], 2, &reference, "cadence2");
    // And the cadence-2 run itself matches the cadence-1 physics.
    let dense = run_single_reference(&problem, 1);
    assert_eq!(non_timing(&dense.outcome), non_timing(&reference.outcome));
}

#[test]
fn a_torn_write_aborts_the_run_and_the_survivors_resume() {
    let problem = base_problem(StrategyKind::SweepGmres);
    let reference = run_single_reference(&problem, 1);
    // Crash budgets landing just past the manifest and at interior
    // fractions of the stream: the run must abort with a typed error
    // and the bytes that reached "disk" must resume to the reference.
    // (Budgets stay well inside the stream because event deltas carry
    // wall-clock floats whose serialized width jitters a little between
    // runs; a near-the-end budget could fall off a slightly shorter
    // re-run and never fire.)
    let len = reference.log.len();
    for budget in [
        manifest_boundary(&reference.log) as u64 + 3,
        (len / 4) as u64,
        (len / 2) as u64,
        (3 * len / 4) as u64,
    ] {
        let buffer = SharedBuffer::new();
        let writer = FaultyWriter::crash_after(buffer.clone(), budget);
        let observer =
            CheckpointObserver::with_writer(Box::new(writer), &problem, RunMode::Single, 1)
                .unwrap();
        let mut sink = observer.sink();
        let mut observer = observer;
        let mut session = Session::new(&problem).unwrap();
        let result = session.run_checkpointed(&mut observer, &mut sink);
        let err = result.expect_err("torn write must abort the solve");
        assert!(
            matches!(err, Error::Execution { .. }),
            "torn write surfaced as {err:?}"
        );
        resume_single_and_compare(&buffer.bytes(), 1, &reference, &format!("torn-{budget}"));
    }
}

#[test]
fn a_converging_run_writes_a_finished_frame_and_rejects_resume() {
    let mut problem = base_problem(StrategyKind::DsaSourceIteration);
    problem.convergence_tolerance = 1e-10;
    problem.inner_iterations = 6;
    problem.outer_iterations = 50;
    let reference = run_single_reference(&problem, 1);
    assert!(reference.outcome.converged, "fixture must converge");
    let recovered = recover_bytes(&reference.log).unwrap();
    assert!(recovered.completed);
    assert!(
        recovered.checkpoints >= 1,
        "fixture must checkpoint before converging (took {} outers)",
        reference.recorder.outers_completed
    );

    // A completed log refuses both resume entry points.
    let path = temp_path("completed");
    std::fs::write(&path, &reference.log).unwrap();
    assert!(Session::resume(&path).is_err());
    assert!(CheckpointObserver::resume(&path, 1).is_err());
    let _ = std::fs::remove_file(&path);

    // But a kill *before* convergence resumes to the identical
    // converged outcome, finished frame included.
    let boundaries = checkpoint_boundaries(&reference.log);
    for &end in [boundaries[0], boundaries[boundaries.len() / 2]].iter() {
        resume_single_and_compare(&reference.log[..end], 1, &reference, "converging");
    }
}

// ---------------------------------------------------------------------
// Contract 2, block-Jacobi path
// ---------------------------------------------------------------------

fn run_jacobi_reference(problem: &Problem, npx: usize, npy: usize) -> Reference {
    let buffer = SharedBuffer::new();
    let observer = CheckpointObserver::with_writer(
        Box::new(buffer.clone()),
        problem,
        RunMode::Jacobi { npx, npy },
        1,
    )
    .unwrap();
    let mut sink = observer.sink();
    let mut observer = observer;
    let mut recorder = RecordingObserver::default();
    let mut solver = BlockJacobiSolver::new(problem, Decomposition2D::new(npx, npy)).unwrap();
    let outcome = {
        let mut tee = TeeObserver::new(&mut recorder, &mut observer);
        solver
            .run_observed_checkpointed(&mut tee, &mut sink)
            .unwrap()
    };
    Reference {
        outcome,
        flux: solver.scalar_flux().as_slice().to_vec(),
        psi: OuterDriver::flux(&solver).1.to_vec(),
        recorder,
        log: buffer.bytes(),
    }
}

fn resume_jacobi_and_compare(partial: &[u8], reference: &Reference, tag: &str) {
    let path = temp_path(tag);
    std::fs::write(&path, partial).unwrap();
    let mut solver = resume_block_jacobi(&path).unwrap();
    let observer = CheckpointObserver::resume(&path, 1).unwrap();
    let mut sink = observer.sink();
    let mut observer = observer;
    let mut recorder = RecordingObserver::default();
    let outcome = {
        let mut tee = TeeObserver::new(&mut recorder, &mut observer);
        solver
            .run_observed_checkpointed(&mut tee, &mut sink)
            .unwrap()
    };
    let flux = solver.scalar_flux().as_slice();
    reference.assert_resumed(&outcome, flux, &recorder, tag);
    let _ = std::fs::remove_file(&path);
}

fn assert_kill_resume_jacobi(strategy: StrategyKind) {
    for threads in [1usize, 2, 8] {
        let mut problem = base_problem(strategy);
        problem.inner_iterations = 4;
        problem.num_threads = Some(threads);
        let reference = run_jacobi_reference(&problem, 2, 1);

        // The sink must not perturb the distributed physics either.
        let mut plain = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 1)).unwrap();
        let plain_outcome = plain.run().unwrap();
        assert_eq!(non_timing(&plain_outcome), non_timing(&reference.outcome));

        resume_jacobi_and_compare(
            &reference.log[..manifest_boundary(&reference.log)],
            &reference,
            &format!("jac-{strategy:?}-t{threads}-manifest"),
        );
        for (k, &end) in checkpoint_boundaries(&reference.log).iter().enumerate() {
            resume_jacobi_and_compare(
                &reference.log[..end],
                &reference,
                &format!("jac-{strategy:?}-t{threads}-k{k}"),
            );
        }
    }
}

#[test]
fn jacobi_kill_and_resume_is_bit_for_bit_si() {
    assert_kill_resume_jacobi(StrategyKind::SourceIteration);
}

#[test]
fn jacobi_kill_and_resume_is_bit_for_bit_dsa_si() {
    assert_kill_resume_jacobi(StrategyKind::DsaSourceIteration);
}

#[test]
fn jacobi_kill_and_resume_is_bit_for_bit_sweep_gmres() {
    assert_kill_resume_jacobi(StrategyKind::SweepGmres);
}

// ---------------------------------------------------------------------
// Contract 3: state is φ and the halo cells; every other ψ is scratch
// ---------------------------------------------------------------------

/// `dsa_regime` cut to three short outers that never converge.
fn three_outers(strategy: StrategyKind, threads: usize) -> Problem {
    Problem {
        inner_iterations: 2,
        outer_iterations: 3,
        convergence_tolerance: 0.0,
        strategy,
        num_threads: Some(threads),
        ..Problem::dsa_regime()
    }
}

/// What a finished run's log recovers to when cut at its first outer
/// boundary.
fn first_boundary(log: &[u8]) -> ResumePoint {
    let end = checkpoint_boundaries(log)[0];
    let point = recover_bytes(&log[..end]).unwrap().resume.unwrap();
    assert_eq!(point.outer_next, 1);
    point
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Assert a run resumed without the uninterrupted run's ψ still matches
/// it in φ, in `psi` (see [`Reference::psi`]), history and flux total.
fn assert_same_bits(reference: &Reference, outcome: &SolveOutcome, flux: [&[f64]; 2], tag: &str) {
    assert_eq!(bits(flux[0]), bits(&reference.flux), "{tag}: φ");
    assert_eq!(bits(flux[1]), bits(&reference.psi), "{tag}: ψ");
    assert_eq!(
        bits(&outcome.convergence_history),
        bits(&reference.outcome.convergence_history),
        "{tag}: convergence history"
    );
    assert_eq!(
        outcome.scalar_flux_total.to_bits(),
        reference.outcome.scalar_flux_total.to_bits(),
        "{tag}: flux total"
    );
}

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::SourceIteration,
    StrategyKind::DsaSourceIteration,
    StrategyKind::SweepGmres,
];

#[test]
fn a_single_domain_resume_never_reads_the_checkpointed_psi() {
    // There is none to read: the frame holds φ and an empty halo, and the
    // resumed solver still ends on the uninterrupted run's ψ, bit for bit.
    for strategy in STRATEGIES {
        for threads in [1usize, 2, 3, 8] {
            let problem = three_outers(strategy, threads);
            let tag = format!("{strategy:?} at {threads} thread(s)");
            let reference = run_single_reference(&problem, 1);
            assert_eq!(reference.outcome.outer_iterations, 3, "{tag}");

            let scan = frame::scan(&reference.log);
            let first = scan
                .frames
                .iter()
                .find(|f| f.tag == frame::TAG_CHECKPOINT)
                .unwrap();
            let text = std::str::from_utf8(first.payload).unwrap();
            let decoded =
                checkpoint::from_json(&unsnap::obs::reader::parse(text).unwrap(), 0).unwrap();
            assert!(decoded.halo.is_empty(), "{tag}");
            assert_eq!(decoded.phi.len(), reference.flux.len(), "{tag}");
            let events = decoded.events.events.iter();
            let event_bytes: usize = events.map(|(lane, e)| e.to_json(*lane).len() + 1).sum();
            assert!(
                first.payload.len() < 32 * decoded.phi.len() + event_bytes,
                "{tag}: a {}-byte frame for {} φ entries and {event_bytes} bytes of events",
                first.payload.len(),
                decoded.phi.len()
            );

            let mut resumed = Session::new(&problem).unwrap();
            resumed.solver_mut().keep_angular_flux();
            resumed
                .solver_mut()
                .resume_from(first_boundary(&reference.log))
                .unwrap();
            let outcome = resumed.run().unwrap();
            let psi = resumed.solver().angular_flux().expect("asked to be kept");
            let flux = [resumed.scalar_flux().as_slice(), psi.as_slice()];
            assert_same_bits(&reference, &outcome, flux, &tag);
        }
    }
}

/// A block-Jacobi solver every rank of which holds NaN in every ψ entry:
/// the leavings of one outer iteration run from an all-NaN φ and halo
/// (every material scatters within its group, so every local system's
/// right-hand side — hence every solved node — is NaN).
fn poisoned_ranks(problem: &Problem, npx: usize, npy: usize) -> BlockJacobiSolver {
    let mut solver = BlockJacobiSolver::new(problem, Decomposition2D::new(npx, npy)).unwrap();
    let (phi, halo) = OuterDriver::flux(&solver);
    let poison = ResumePoint {
        outer_next: problem.outer_iterations - 1,
        phi: vec![f64::NAN; phi.len()],
        halo: vec![f64::NAN; halo.len()],
        rank_stats: vec![RunStats::default(); npx * npy],
        ..ResumePoint::default()
    };
    solver.resume_from(poison).unwrap();
    assert!(solver.run().unwrap().scalar_flux_total.is_nan());
    // What the ranks published of it — the cells on a cut — shows it.
    assert!(OuterDriver::flux(&solver).1.iter().all(|v| v.is_nan()));
    solver
}

#[test]
fn a_rank_resume_never_reads_its_own_psi() {
    for (npx, npy) in [(2, 1), (2, 2)] {
        for strategy in STRATEGIES {
            for threads in [1usize, 2] {
                // Twelve cases of three runs each: a coarser grid.
                let problem = Problem {
                    nx: 4,
                    ny: 4,
                    nz: 4,
                    angles_per_octant: 2,
                    ..three_outers(strategy, threads)
                };
                let tag = format!("{npx}x{npy} {strategy:?} at {threads} thread(s)");
                let reference = run_jacobi_reference(&problem, npx, npy);
                assert!(reference.outcome.scalar_flux_total.is_finite(), "{tag}");
                assert!(!reference.psi.is_empty(), "{tag}");

                let mut resumed = poisoned_ranks(&problem, npx, npy);
                resumed.resume_from(first_boundary(&reference.log)).unwrap();
                let outcome = resumed.run().unwrap();
                let (phi, halo) = OuterDriver::flux(&resumed);
                assert_same_bits(&reference, &outcome, [phi, halo], &tag);
            }
        }
    }
}

#[test]
fn across_ranks_the_checkpointed_psi_is_state() {
    // The converse: a rank reads its neighbour's ψ from the halo before
    // anything rewrites it, so poison there must reach the answer.
    let problem = three_outers(StrategyKind::SourceIteration, 1);
    let reference = run_jacobi_reference(&problem, 2, 1);
    assert!(reference.outcome.scalar_flux_total.is_finite());

    let mut point = first_boundary(&reference.log);
    point.halo.fill(f64::NAN);
    let mut resumed = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 1)).unwrap();
    resumed.resume_from(point).unwrap();
    assert!(resumed.run().unwrap().scalar_flux_total.is_nan());
}

#[test]
fn a_resume_point_of_the_wrong_halo_shape_is_refused_by_name() {
    let problem = three_outers(StrategyKind::SourceIteration, 1);
    let jacobi = first_boundary(&run_jacobi_reference(&problem, 2, 1).log);
    let single = first_boundary(&run_single_reference(&problem, 1).log);
    assert!(single.halo.is_empty() && !jacobi.halo.is_empty());

    // One domain has no cut: a halo has nowhere to go.
    let with_halo = ResumePoint {
        halo: jacobi.halo.clone(),
        ..single
    };
    let mut session = Session::new(&problem).unwrap();
    let err = session.solver_mut().resume_from(with_halo).unwrap_err();
    assert!(err.to_string().contains("halo-flux"), "{err}");

    // Two ranks need all of theirs.
    let short = ResumePoint {
        halo: jacobi.halo[1..].to_vec(),
        ..jacobi
    };
    let mut solver = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 1)).unwrap();
    let err = solver.resume_from(short).unwrap_err();
    assert!(err.to_string().contains("halo-flux"), "{err}");
}

// ---------------------------------------------------------------------
// Misc: mode mismatches and the cadence env knob
// ---------------------------------------------------------------------

#[test]
fn resume_entry_points_reject_the_wrong_mode() {
    let problem = base_problem(StrategyKind::SourceIteration);
    let single = run_single_reference(&problem, 1);
    let path = temp_path("wrong-mode-single");
    let boundaries = checkpoint_boundaries(&single.log);
    std::fs::write(&path, &single.log[..boundaries[0]]).unwrap();
    let err = match resume_block_jacobi(&path) {
        Ok(_) => panic!("jacobi resume accepted a single-domain log"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("single-domain"), "{err}");
    let _ = std::fs::remove_file(&path);

    let jacobi = run_jacobi_reference(&problem, 2, 1);
    let path = temp_path("wrong-mode-jacobi");
    let boundaries = checkpoint_boundaries(&jacobi.log);
    std::fs::write(&path, &jacobi.log[..boundaries[0]]).unwrap();
    let err = match <Session as SessionResume>::resume(&path) {
        Ok(_) => panic!("session resume accepted a block-Jacobi log"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("block-Jacobi"), "{err}");
    let _ = std::fs::remove_file(&path);

    // The write side refuses the other driver too: a single-domain log
    // handed a 2-rank checkpoint aborts the run with a typed error.
    let writer = Box::new(SharedBuffer::new());
    let observer = CheckpointObserver::with_writer(writer, &problem, RunMode::Single, 1).unwrap();
    let mut sink = observer.sink();
    let mut observer = observer;
    let mut solver = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 1)).unwrap();
    let err = solver
        .run_observed_checkpointed(&mut observer, &mut sink)
        .unwrap_err();
    assert!(err.to_string().contains("2 rank(s)"), "{err}");
}

#[test]
fn a_version_2_log_is_refused_by_name_at_every_entry_point() {
    // A log of an earlier format: a version-2 event prefix would replay
    // per-bucket events no observer knows, a version-3 checkpoint holds
    // all of ψ under a key nothing reads.  Intact otherwise.
    let problem = base_problem(StrategyKind::SourceIteration);
    let mut log = run_single_reference(&problem, 1).log;
    assert_eq!(frame::FORMAT_VERSION, 4);
    for version in [2u32, 3] {
        log[frame::MAGIC.len()..frame::HEADER_LEN].copy_from_slice(&version.to_le_bytes());
        let path = temp_path(&format!("version-{version}"));
        std::fs::write(&path, &log).unwrap();
        let refusals = [
            recover_bytes(&log).err(),
            <Session as SessionResume>::resume(&path).err(),
            resume_block_jacobi(&path).err(),
            CheckpointObserver::resume(&path, 1).err(),
        ];
        let _ = std::fs::remove_file(&path);
        for (entry, refusal) in refusals.into_iter().enumerate() {
            let text = refusal
                .unwrap_or_else(|| panic!("entry point {entry} accepted a version-{version} log"))
                .to_string();
            assert!(
                text.contains(&format!("format version {version}"))
                    && text.contains("only version 4"),
                "entry point {entry}: {text}"
            );
        }
    }
}

#[test]
fn checkpoint_cadence_env_knob_validates() {
    // Env vars are process-global: this is the only test in this binary
    // touching the knob, and it restores the slate before returning.
    std::env::remove_var(CHECKPOINT_ITERS_ENV);
    assert_eq!(checkpoint_iters_from_env().unwrap(), 1);
    std::env::set_var(CHECKPOINT_ITERS_ENV, "5");
    assert_eq!(checkpoint_iters_from_env().unwrap(), 5);
    for bad in ["0", "-1", "sometimes"] {
        std::env::set_var(CHECKPOINT_ITERS_ENV, bad);
        let err = checkpoint_iters_from_env().unwrap_err();
        assert_eq!(err.invalid_field(), Some("checkpoint_iters"), "'{bad}'");
    }
    std::env::remove_var(CHECKPOINT_ITERS_ENV);
}

#[test]
fn non_finite_floats_round_trip_as_null_through_the_frame_format() {
    // The JSON writer encodes NaN/±inf as null; a checkpoint frame
    // carrying such a payload must survive the frame round trip and
    // parse back to nulls — not corrupt the checksum or panic the
    // reader.  (Residual histories can go non-finite when a solve
    // diverges; the log must still be recoverable.)
    let payload = unsnap::obs::json::JsonObject::new()
        .field_f64("finite", 0.5)
        .field_f64("nan", f64::NAN)
        .field_raw(
            "history",
            &unsnap::obs::json::array_f64(&[1.0, f64::INFINITY, f64::NEG_INFINITY, 2.0]),
        )
        .finish();
    let mut log = frame::header_bytes();
    log.extend_from_slice(&frame::frame_bytes(
        frame::TAG_CHECKPOINT,
        payload.as_bytes(),
    ));

    let scan = frame::scan(&log);
    assert!(!scan.truncated);
    assert_eq!(scan.frames.len(), 1);
    let parsed =
        unsnap::obs::reader::parse(std::str::from_utf8(scan.frames[0].payload).unwrap()).unwrap();
    assert_eq!(parsed.get("finite").unwrap().as_f64(), Some(0.5));
    assert!(parsed.get("nan").unwrap().is_null());
    let history = parsed.get("history").unwrap().as_array().unwrap();
    assert_eq!(history[0].as_f64(), Some(1.0));
    assert!(history[1].is_null() && history[2].is_null());
    assert_eq!(history[3].as_f64(), Some(2.0));
}
