//! Bit pins for the Krylov solvers.
//!
//! Each case solves seeded `MatrixOperator` systems and folds the
//! `to_bits()` of the iterate, the residual history and the final
//! residual, plus the iteration and matvec counts, into one FNV-1a hash.
//! GMRES runs at restarts 1, 5 and 30 with one workspace reused across
//! two dimensions; CG runs on an SPD and on a non-symmetric system with
//! one workspace.  A moved hash means a moved bit.

use unsnap_linalg::krylov::{
    CgConfig, CgWorkspace, ConjugateGradient, Gmres, GmresConfig, GmresWorkspace, KrylovOutcome,
    MatrixOperator,
};
use unsnap_linalg::DenseMatrix;

/// FNV-1a (64-bit) over the little-endian bytes of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn solve(&mut self, x: &[f64], outcome: &KrylovOutcome) {
        x.iter().for_each(|v| self.word(v.to_bits()));
        outcome
            .residual_history
            .iter()
            .for_each(|v| self.word(v.to_bits()));
        self.word(outcome.final_residual.to_bits());
        self.word(outcome.iterations as u64);
        self.word(outcome.matvecs as u64);
    }
}

/// A seeded stream of values in `[-1, 1)` (xorshift64*).
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let bits = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
        bits as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// A non-symmetric matrix with a dominant diagonal (its symmetric part is
/// positive definite, so CG runs on it without a curvature failure).
fn nonsymmetric(n: usize, seed: u64) -> DenseMatrix {
    let mut rng = Seeded(seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        let v = rng.next();
        if i == j {
            n as f64 * 0.6 + v
        } else {
            v
        }
    })
}

/// A symmetric positive definite matrix `BᵀB + n·I`.
fn spd(n: usize, seed: u64) -> DenseMatrix {
    let mut rng = Seeded(seed);
    let b = DenseMatrix::from_fn(n, n, |_, _| rng.next());
    let mut a = b.transpose().matmul(&b).unwrap();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn gmres_hash(restart: usize) -> u64 {
    let solver = Gmres::new(GmresConfig {
        restart,
        max_iterations: 300,
        tolerance: 1e-12,
    });
    let mut ws = GmresWorkspace::new();
    let mut hash = Fnv::new();
    for (n, seed) in [(24usize, 11u64), (13, 12), (24, 13)] {
        let mut op = MatrixOperator::new(nonsymmetric(n, seed));
        let b = Seeded(seed ^ 0x5eed).vector(n);
        let mut x = vec![0.0; n];
        let outcome = solver.solve(&mut ws, &mut op, &b, &mut x).unwrap();
        hash.solve(&x, &outcome);
    }
    hash.0
}

fn cg_hash(matrix: fn(usize, u64) -> DenseMatrix) -> u64 {
    let solver = ConjugateGradient::new(CgConfig {
        max_iterations: 40,
        tolerance: 1e-12,
    });
    let mut ws = CgWorkspace::new();
    let mut hash = Fnv::new();
    for (n, seed) in [(20usize, 21u64), (9, 22)] {
        let mut op = MatrixOperator::new(matrix(n, seed));
        let b = Seeded(seed ^ 0x5eed).vector(n);
        let mut x = vec![0.0; n];
        let outcome = solver.solve(&mut ws, &mut op, &b, &mut x).unwrap();
        hash.solve(&x, &outcome);
    }
    hash.0
}

#[test]
fn krylov_keeps_its_bits() {
    let got = [
        ("gmres restart 1", gmres_hash(1)),
        ("gmres restart 5", gmres_hash(5)),
        ("gmres restart 30", gmres_hash(30)),
        ("cg spd", cg_hash(spd)),
        ("cg non-symmetric", cg_hash(nonsymmetric)),
    ];
    let want: [u64; 5] = [
        0x17ba7d6759db6177,
        0x2c94e902ddc806db,
        0x99b5de3570e54db8,
        0x9d3e6b0958f8e77b,
        0x75f31b77a5754005,
    ];
    let hashes = got.map(|(_, h)| h);
    assert_eq!(hashes, want, "{got:#018x?}");
}
