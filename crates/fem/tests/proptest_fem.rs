//! Property-based tests of the finite-element substrate.
//!
//! Invariants checked with randomised element orders, quadrature orders
//! and (twisted / stretched) cell geometries, on the integrals as a
//! solver's `IntegralStore` holds them:
//!
//! * partition of unity of the Lagrange basis at arbitrary points;
//! * quadrature exactness on the monomials it must integrate;
//! * mass-matrix row sums integrate the basis (total = cell volume);
//! * the integration-by-parts identity `G + Gᵀ = ∮ φ_i φ_j n dS`;
//! * face areas of a closed cell sum to a zero net area vector.

use proptest::prelude::*;

use unsnap_fem::element::ReferenceElement;
use unsnap_fem::face::{face_node_indices, nodes_per_face, FACES};
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::IntegralStore;
use unsnap_fem::lagrange::LagrangeBasis1d;
use unsnap_fem::quadrature::gauss_legendre;

/// Strategy: a mildly deformed hexahedral cell (stretched box with a
/// rotation of the top face, like the UnSNAP twist but larger).
fn random_cell() -> impl Strategy<Value = HexVertices> {
    (0.5f64..2.0, 0.5f64..2.0, 0.5f64..2.0, 0.0f64..0.3).prop_map(|(lx, ly, lz, angle)| {
        let mut hex = HexVertices::axis_aligned([0.0; 3], [lx, ly, lz]);
        let (s, c) = angle.sin_cos();
        for corner in hex.corners.iter_mut().skip(4) {
            let x = corner[0] - lx / 2.0;
            let y = corner[1] - ly / 2.0;
            corner[0] = lx / 2.0 + c * x - s * y;
            corner[1] = ly / 2.0 + s * x + c * y;
        }
        hex
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lagrange_partition_of_unity(order in 1usize..6, x in -1.0f64..1.0) {
        let basis = LagrangeBasis1d::new(order);
        let sum: f64 = basis.values(x).iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let dsum: f64 = basis.derivatives(x).iter().sum();
        prop_assert!(dsum.abs() < 1e-8);
    }

    #[test]
    fn quadrature_integrates_monomials(n in 1usize..10, k in 0usize..8) {
        prop_assume!(k < 2 * n);
        let rule = gauss_legendre(n);
        let exact = if k % 2 == 1 { 0.0 } else { 2.0 / (k as f64 + 1.0) };
        let approx = rule.integrate(|x| x.powi(k as i32));
        prop_assert!((approx - exact).abs() < 1e-10);
    }

    #[test]
    fn mass_matrix_total_equals_volume(order in 1usize..4, hex in random_cell()) {
        let element = ReferenceElement::new(order);
        let store = IntegralStore::build(&element, 1, |_| hex);
        let ints = store.block(0);
        let total: f64 = ints.mass().iter().sum();
        prop_assert!((total - ints.volume()).abs() < 1e-8 * ints.volume().max(1.0));
        prop_assert!(ints.volume() > 0.0);
    }

    #[test]
    fn integration_by_parts_identity(order in 1usize..3, hex in random_cell()) {
        let element = ReferenceElement::new(order);
        let store = IntegralStore::build(&element, 1, |_| hex);
        let ints = store.block(0);
        let (n, nf) = (ints.nodes_per_element(), nodes_per_face(order));
        for d in 0..3 {
            // Scatter the face matrices to element-local indices.
            let mut surface = vec![0.0f64; n * n];
            for &face in &FACES {
                let m = &ints.face(face.index())[d * nf * nf..][..nf * nf];
                let nodes = face_node_indices(face, order);
                for (a, &ia) in nodes.iter().enumerate() {
                    for (b, &ib) in nodes.iter().enumerate() {
                        surface[ia * n + ib] += m[a * nf + b];
                    }
                }
            }
            let g = &ints.stream()[d * n * n..][..n * n];
            for i in 0..n {
                for j in 0..n {
                    let lhs = g[i * n + j] + g[j * n + i];
                    prop_assert!((lhs - surface[i * n + j]).abs() < 1e-8);
                }
            }
        }
    }

    #[test]
    fn closed_surface_has_zero_net_area_vector(hex in random_cell()) {
        let element = ReferenceElement::new(1);
        let store = IntegralStore::build(&element, 1, |_| hex);
        let ints = store.block(0);
        let nf = nodes_per_face(1);
        // Net area vector = Σ_faces Σ_ab ∫ φ_a φ_b n dS.
        let mut net = [0.0f64; 3];
        for f in 0..FACES.len() {
            for (d, m) in ints.face(f).chunks_exact(nf * nf).enumerate() {
                net[d] += m.iter().sum::<f64>();
            }
            prop_assert!(ints.area(f) > 0.0);
        }
        for v in net {
            prop_assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn basis_is_interpolatory_at_nodes(order in 1usize..4) {
        let element = ReferenceElement::new(order);
        for i in 0..element.nodes_per_element() {
            let vals = element.eval_basis(element.node_coordinate(i));
            for (j, v) in vals.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                prop_assert!((v - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn face_classification_is_antisymmetric(
        hex in random_cell(),
        ox in prop_oneof![-1.0f64..-0.1, 0.1f64..1.0],
        oy in prop_oneof![-1.0f64..-0.1, 0.1f64..1.0],
        oz in prop_oneof![-1.0f64..-0.1, 0.1f64..1.0],
    ) {
        // For any direction, a convex cell has at least one inflow and one
        // outflow face, and flipping the direction swaps the classification.
        let element = ReferenceElement::new(1);
        let store = IntegralStore::build(&element, 1, |_| hex);
        let ints = store.block(0);
        let omega = [ox, oy, oz];
        let neg = [-ox, -oy, -oz];
        let mut inflow = 0;
        let mut outflow = 0;
        for &f in &FACES {
            let d1 = ints.direction_dot_normal(f.index(), omega);
            let d2 = ints.direction_dot_normal(f.index(), neg);
            prop_assert!((d1 + d2).abs() < 1e-12);
            if d1 > 0.0 { outflow += 1 } else if d1 < 0.0 { inflow += 1 }
        }
        prop_assert!(inflow >= 1);
        prop_assert!(outflow >= 1);
    }
}
