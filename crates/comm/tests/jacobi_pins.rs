//! Bit-exact pins of the block-Jacobi path, generated at ad3dde2 — the
//! commit before the rank sweeps moved onto the shared `SweepDomain`
//! path — by running this file against that build and copying the
//! "actual" rows it prints.  The goldens under `tests/golden/` cover the
//! single-domain solver only; this table does the same job for the rank
//! path: {1x1, 2x1, 2x2} x {SI, DSA-SI, GMRES} on a shrunk `tiny`, plus
//! one `group/element` scheme row, one order-2 row and one 2-group
//! upscatter row.
//!
//! `phi_fnv` is FNV-1a over the bit patterns of the global scalar flux,
//! visited per (cell, group) node block, so the storage layout does not
//! matter.  To regenerate after an intended numerics change, run the
//! test and paste the rows from the failure message.

use unsnap_comm::jacobi::BlockJacobiSolver;
use unsnap_core::problem::Problem;
use unsnap_core::solver::SolveOutcome;
use unsnap_core::strategy::StrategyKind::{self, DsaSourceIteration, SourceIteration, SweepGmres};
use unsnap_mesh::Decomposition2D;
use unsnap_sweep::{ConcurrencyScheme, LoopOrder, ThreadedLoops};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Base,
    GroupThenElement,
    Order2,
    Upscatter,
}
use Variant::{Base, GroupThenElement, Order2, Upscatter};

/// One table row: the configuration, then everything pinned about its
/// outcome.
#[derive(Debug, PartialEq)]
struct Pin {
    ranks: (usize, usize),
    strategy: StrategyKind,
    variant: Variant,
    phi_fnv: u64,
    sweep_count: usize,
    inner_iterations: usize,
    rank_sweep_counts: Vec<usize>,
    cells_swept: u64,
}

#[rustfmt::skip]
fn pins() -> Vec<Pin> {
    let pin = |ranks, strategy, variant, phi_fnv, sweep_count, inner_iterations, rank_sweep_counts: &[usize], cells_swept| Pin {
        ranks, strategy, variant, phi_fnv, sweep_count, inner_iterations,
        rank_sweep_counts: rank_sweep_counts.to_vec(), cells_swept,
    };
    vec![
        pin((1, 1), SourceIteration, Base, 0x9e5a01d637f2f0e4, 8, 8, &[8], 8192),
        pin((1, 1), DsaSourceIteration, Base, 0xc3b459daa69a6d3f, 7, 7, &[7], 7168),
        pin((1, 1), SweepGmres, Base, 0x89335f239462384c, 11, 2, &[11], 11264),
        pin((2, 1), SourceIteration, Base, 0xb66d9647bfc825b0, 32, 16, &[16, 16], 16384),
        pin((2, 1), DsaSourceIteration, Base, 0x985594f8dbab6efe, 32, 16, &[16, 16], 16384),
        pin((2, 1), SweepGmres, Base, 0xa0db2c6a4364f4e4, 70, 6, &[35, 35], 35840),
        pin((2, 2), SourceIteration, Base, 0x6f905b561a99b3cf, 64, 16, &[16, 16, 16, 16], 16384),
        pin((2, 2), DsaSourceIteration, Base, 0x29e72700effb78b7, 64, 16, &[16, 16, 16, 16], 16384),
        pin((2, 2), SweepGmres, Base, 0xf254d42644ca3774, 360, 16, &[90, 90, 90, 90], 92160),
        pin((2, 2), DsaSourceIteration, GroupThenElement, 0x29e72700effb78b7, 64, 16, &[16, 16, 16, 16], 16384),
        pin((2, 1), SourceIteration, Order2, 0x473dbb65b8a29119, 32, 16, &[16, 16], 16384),
        pin((2, 2), SweepGmres, Upscatter, 0x8b59749e2c58dd9c, 392, 16, &[98, 98, 98, 98], 100352),
    ]
}

/// `Problem::tiny` on a 4x4x2 mesh, two outers so the group coupling
/// through `phi_outer` is exercised, and a tolerance that some rows reach
/// inside the budget and others do not.
fn problem(strategy: StrategyKind, variant: Variant) -> Problem {
    let mut p = Problem::tiny();
    p.nx = 4;
    p.ny = 4;
    p.nz = 2;
    p.inner_iterations = 8;
    p.outer_iterations = 2;
    p.convergence_tolerance = 1e-5;
    p.num_threads = Some(2);
    p.strategy = strategy;
    match variant {
        Base => {}
        GroupThenElement => {
            p.scheme = ConcurrencyScheme::new(LoopOrder::GroupThenElement, ThreadedLoops::Collapsed)
        }
        Order2 => p.element_order = 2,
        Upscatter => {
            p.scattering_ratio = Some(0.8);
            p.upscatter_ratio = Some(0.2);
        }
    }
    p
}

fn phi_fnv(solver: &BlockJacobiSolver) -> u64 {
    let phi = solver.scalar_flux();
    let layout = *phi.layout();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for cell in 0..layout.num_elements {
        for group in 0..layout.num_groups {
            for value in phi.nodes(cell, group, 0) {
                for byte in value.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    hash
}

fn actual(expected: &Pin) -> Pin {
    let (npx, npy) = expected.ranks;
    let problem = problem(expected.strategy, expected.variant);
    let mut solver = BlockJacobiSolver::new(&problem, Decomposition2D::new(npx, npy)).unwrap();
    let outcome: SolveOutcome = solver.run().unwrap();
    Pin {
        ranks: expected.ranks,
        strategy: expected.strategy,
        variant: expected.variant,
        phi_fnv: phi_fnv(&solver),
        sweep_count: outcome.sweep_count,
        inner_iterations: outcome.inner_iterations,
        cells_swept: outcome.metrics.cells_swept,
        rank_sweep_counts: outcome.ranks.unwrap().sweep_counts,
    }
}

#[test]
fn block_jacobi_outcomes_match_the_pinned_table() {
    let expected = pins();
    let actual: Vec<Pin> = expected.iter().map(actual).collect();
    let rows: String = actual
        .iter()
        .map(|p| {
            format!(
                "        pin({:?}, {:?}, {:?}, {:#018x}, {}, {}, &{:?}, {}),\n",
                p.ranks,
                p.strategy,
                p.variant,
                p.phi_fnv,
                p.sweep_count,
                p.inner_iterations,
                p.rank_sweep_counts,
                p.cells_swept
            )
        })
        .collect();
    assert!(actual == expected, "actual rows:\n{rows}");
}
