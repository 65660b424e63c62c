//! Criterion micro-benchmark behind Table I / §IV-B.1: per-element integral
//! precomputation and the assemble-only and assemble+solve kernel costs as
//! a function of element order — for the reference assembly and for the
//! tiled one the sweeps run, with its tile warm (a later group of the same
//! element and angle) and cold (the element's first group).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use unsnap_core::kernel::{
    assemble, assemble_blocked, assemble_solve, KernelEngine, KernelScratch, UpwindFace,
    UpwindSource,
};
use unsnap_fem::element::ReferenceElement;
use unsnap_fem::face::FACES;
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::ElementIntegrals;
use unsnap_linalg::SolverKind;

fn bench_element_integrals(c: &mut Criterion) {
    let mut group = c.benchmark_group("element_integrals");
    group.sample_size(10);
    for order in [1usize, 2, 3] {
        let element = ReferenceElement::new(order);
        let hex = HexVertices::unit_cube();
        group.bench_with_input(BenchmarkId::from_parameter(order), &order, |b, _| {
            b.iter(|| black_box(ElementIntegrals::compute(&element, &hex).volume))
        });
    }
    group.finish();
}

fn bench_assemble_and_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(20);
    let omega = [0.52, 0.6, 0.61];
    for order in [1usize, 2, 3] {
        let element = ReferenceElement::new(order);
        let hex = HexVertices::unit_cube();
        let ints = ElementIntegrals::compute(&element, &hex);
        let n = ints.nodes_per_element();
        let source = vec![1.0; n];
        let upwind: Vec<UpwindFace<'_>> = FACES
            .iter()
            .filter(|f| ints.face(**f).direction_dot_normal(omega) < 0.0)
            .map(|f| UpwindFace {
                face: f.index(),
                source: UpwindSource::Boundary(0.5),
            })
            .collect();
        let mut scratch = KernelScratch::new(n);

        group.bench_with_input(BenchmarkId::new("assemble_only", order), &order, |b, _| {
            b.iter(|| {
                assemble(&ints, omega, 1.5, &source, &upwind, &mut scratch);
                black_box(scratch.rhs[0])
            })
        });

        // The criterion-side witness of `core.kernel.assemble_blocked_ns`.
        group.bench_with_input(
            BenchmarkId::new("assemble_tiled_warm", order),
            &order,
            |b, _| {
                b.iter(|| {
                    assemble_blocked(&ints, omega, 1.5, &source, &upwind, 0, &mut scratch);
                    black_box(scratch.rhs[0])
                })
            },
        );
        let mut key = 0;
        group.bench_with_input(
            BenchmarkId::new("assemble_tiled_cold", order),
            &order,
            |b, _| {
                b.iter(|| {
                    key += 1; // a new element every call: the tile is rebuilt
                    assemble_blocked(&ints, omega, 1.5, &source, &upwind, key, &mut scratch);
                    black_box(scratch.rhs[0])
                })
            },
        );

        let solver = SolverKind::GaussianElimination.build();
        let engine = KernelEngine::default();
        group.bench_with_input(BenchmarkId::new("engine_task_ge", order), &order, |b, _| {
            b.iter(|| {
                engine.assemble_solve(
                    0,
                    &ints,
                    omega,
                    1.5,
                    &source,
                    &upwind,
                    solver.as_ref(),
                    false,
                    &mut scratch,
                );
                black_box(scratch.rhs[0])
            })
        });
        group.bench_with_input(
            BenchmarkId::new("assemble_solve_ge", order),
            &order,
            |b, _| {
                b.iter(|| {
                    let t = assemble_solve(
                        &ints,
                        omega,
                        1.5,
                        &source,
                        &upwind,
                        solver.as_ref(),
                        false,
                        &mut scratch,
                    );
                    black_box(t.assemble_ns)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_element_integrals, bench_assemble_and_solve);
criterion_main!(benches);
