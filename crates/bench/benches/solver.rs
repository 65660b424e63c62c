//! Criterion micro-benchmark behind Table II: the local dense solve
//! (hand-written Gaussian elimination vs reference LU vs the blocked-LU
//! MKL stand-in) at each Table-I matrix size, and the elimination alone at
//! the sizes it is monomorphised for beside the nearest sizes it is not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use unsnap_linalg::{DenseMatrix, SolverKind};

/// Build a representative DG-like system: strongly diagonally dominant
/// with dense off-diagonal coupling.
fn system(n: usize) -> (DenseMatrix, Vec<f64>) {
    let a = DenseMatrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0 + (i % 7) as f64
        } else {
            0.5 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    (a, b)
}

fn bench_local_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_solve");
    group.sample_size(20);
    // Matrix sizes of Table I (orders 1-4).
    for (order, n) in [(1usize, 8usize), (2, 27), (3, 64), (4, 125)] {
        let (a, b) = system(n);
        for kind in SolverKind::all() {
            let solver = kind.build();
            group.bench_with_input(
                BenchmarkId::new(kind.label(), format!("order{order}_n{n}")),
                &n,
                |bench, _| {
                    bench.iter(|| {
                        let mut a2 = a.clone();
                        let mut x = b.clone();
                        solver.solve_in_place(&mut a2, &mut x).unwrap();
                        black_box(x[0])
                    })
                },
            );
        }
    }
    group.finish();
}

/// The elimination as the sweep calls it — in place, nothing allocated —
/// at n ∈ {8, 27, 64} (orders 1–3, fixed-size routine) and at n ∈ {7, 28,
/// 65} (run-time-size routine).  One sample is a batch of restore + solve,
/// so a sub-microsecond solve is not lost in the clock; the criterion-side
/// witness of the benchmark's `linalg.solve_ns.ge`.
fn bench_elimination_in_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("elimination_in_place_x256");
    group.sample_size(20);
    let solver = SolverKind::GaussianElimination.build();
    for n in [7usize, 8, 27, 28, 64, 65] {
        let (a, b) = system(n);
        let (mut a2, mut x) = (a.clone(), b.clone());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                for _ in 0..256 {
                    a2.as_mut_slice().copy_from_slice(a.as_slice());
                    x.copy_from_slice(&b);
                    solver.solve_in_place(black_box(&mut a2), &mut x).unwrap();
                }
                black_box(x[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_solve, bench_elimination_in_place);
criterion_main!(benches);
