//! Discrete-ordinates (Sn) angular quadrature.
//!
//! The transport equation is discretised in angle by evaluating the angular
//! flux along a finite set of directions (ordinates) with associated
//! quadrature weights; the scalar flux is the weighted sum of the angular
//! fluxes.  Like SNAP, UnSNAP treats the eight octants of the unit sphere
//! separately: angles within an octant may be computed concurrently, while
//! octants are swept in turn (§III of the paper).
//!
//! The quadrature implemented here is a product rule per octant:
//! Gauss–Legendre in the polar cosine `ξ = Ω_z` crossed with Chebyshev
//! (equally spaced, equally weighted) azimuthal angles.  The rule is exact
//! for the isotropic moments the UnSNAP scattering treatment needs, is
//! defined for any requested number of angles per octant (matching SNAP's
//! free `nang` parameter), and never produces direction cosines equal to
//! zero — every ordinate has a strictly positive or negative component
//! along each axis, so the sweep classification is unambiguous.

use unsnap_fem::quadrature::gauss_legendre;

/// One discrete ordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Direction {
    /// Unit direction vector `(Ω_x, Ω_y, Ω_z)`.
    pub omega: [f64; 3],
    /// Quadrature weight.  Weights over the full sphere sum to one, so the
    /// scalar flux is simply `Σ w ψ`.
    pub weight: f64,
    /// Octant index 0..8 (bit 0: x negative, bit 1: y negative, bit 2: z
    /// negative — octant 0 is the (+,+,+) octant).
    pub octant: usize,
    /// Index of this angle within its octant (0..angles_per_octant).
    pub index_in_octant: usize,
}

/// A complete Sn quadrature set over the unit sphere.
#[derive(Debug, Clone, PartialEq)]
pub struct AngularQuadrature {
    angles_per_octant: usize,
    directions: Vec<Direction>,
}

impl AngularQuadrature {
    /// Build a product quadrature with `angles_per_octant` ordinates per
    /// octant (so `8 × angles_per_octant` in total).
    ///
    /// The number of polar levels is chosen as the largest integer `np`
    /// with `np² ≤ n`; remaining angles are distributed over the azimuthal
    /// index of the last level, so any positive `n` is accepted.
    ///
    /// # Panics
    /// Panics if `angles_per_octant == 0`.
    pub fn product(angles_per_octant: usize) -> Self {
        assert!(angles_per_octant > 0, "need at least one angle per octant");
        let n = angles_per_octant;

        // Choose a polar × azimuthal factorisation: np levels with roughly
        // n / np azimuthal angles each.
        let np = (1..=n).rev().find(|&p| p * p <= n).unwrap_or(1);
        let base_az = n / np;
        let extra = n % np; // the first `extra` levels get one more angle

        // Gauss–Legendre in the polar cosine over (0, 1).
        let polar = gauss_legendre(np);

        let mut octant0 = Vec::with_capacity(n);
        for (level, (&xi_ref, &w_polar)) in
            polar.points.iter().zip(polar.weights.iter()).enumerate()
        {
            // Map the reference point from [-1, 1] to (0, 1): ξ = (x+1)/2,
            // weight scales by 1/2 so polar weights sum to 1.
            let xi = 0.5 * (xi_ref + 1.0);
            let w_level = 0.5 * w_polar;
            let n_az = base_az + usize::from(level < extra);
            let sin_theta = (1.0 - xi * xi).sqrt();
            for a in 0..n_az {
                // Chebyshev azimuthal points strictly inside (0, π/2).
                let phi = std::f64::consts::FRAC_PI_2 * (a as f64 + 0.5) / n_az as f64;
                let omega = [sin_theta * phi.cos(), sin_theta * phi.sin(), xi];
                // Octant weight: 1/8 of the sphere, level weight split
                // evenly over its azimuthal angles.
                let weight = 0.125 * w_level / n_az as f64;
                octant0.push((omega, weight));
            }
        }
        debug_assert_eq!(octant0.len(), n);

        // Reflect octant 0 into the other seven.
        let mut directions = Vec::with_capacity(8 * n);
        for octant in 0..8usize {
            let sx = if octant & 1 == 0 { 1.0 } else { -1.0 };
            let sy = if octant & 2 == 0 { 1.0 } else { -1.0 };
            let sz = if octant & 4 == 0 { 1.0 } else { -1.0 };
            for (index_in_octant, &(omega, weight)) in octant0.iter().enumerate() {
                directions.push(Direction {
                    omega: [omega[0] * sx, omega[1] * sy, omega[2] * sz],
                    weight,
                    octant,
                    index_in_octant,
                });
            }
        }

        Self {
            angles_per_octant: n,
            directions,
        }
    }

    /// Total number of ordinates (`8 ×` angles per octant).
    pub fn num_angles(&self) -> usize {
        self.directions.len()
    }

    /// All ordinates, octant-major (all angles of octant 0, then octant 1,
    /// …).
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_octants() {
        for n in [1usize, 3, 6, 10, 36] {
            let q = AngularQuadrature::product(n);
            assert_eq!(q.angles_per_octant, n);
            assert_eq!(q.num_angles(), 8 * n);
            for oct in 0..8 {
                assert_eq!(q.directions[oct * n..(oct + 1) * n].len(), n);
                for (i, d) in q.directions[oct * n..(oct + 1) * n].iter().enumerate() {
                    assert_eq!(d.octant, oct);
                    assert_eq!(d.index_in_octant, i);
                }
            }
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for n in [1usize, 4, 10, 36] {
            let q = AngularQuadrature::product(n);
            let total: f64 = q.directions().iter().map(|d| d.weight).sum();
            assert!((total - 1.0).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn directions_are_unit_vectors_with_nonzero_components() {
        let q = AngularQuadrature::product(10);
        for d in q.directions() {
            let norm: f64 = d.omega.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-12);
            for c in d.omega {
                assert!(
                    c.abs() > 1e-6,
                    "no grazing ordinates allowed: {:?}",
                    d.omega
                );
            }
            assert!(d.weight > 0.0);
        }
    }

    #[test]
    fn octant_signs_are_correct() {
        let q = AngularQuadrature::product(4);
        for d in q.directions() {
            let sx = d.omega[0] > 0.0;
            let sy = d.omega[1] > 0.0;
            let sz = d.omega[2] > 0.0;
            assert_eq!(sx, d.octant & 1 == 0);
            assert_eq!(sy, d.octant & 2 == 0);
            assert_eq!(sz, d.octant & 4 == 0);
        }
    }

    #[test]
    fn first_moment_vanishes_by_symmetry() {
        // ∫ Ω dΩ = 0: the eight-fold reflection makes the odd moments
        // cancel exactly.
        let q = AngularQuadrature::product(9);
        let mut m = [0.0f64; 3];
        for d in q.directions() {
            for c in 0..3 {
                m[c] += d.weight * d.omega[c];
            }
        }
        for c in 0..3 {
            assert!(m[c].abs() < 1e-14);
        }
    }

    #[test]
    fn second_moment_is_isotropic() {
        // ∫ Ω_i Ω_j dΩ / ∫ dΩ = δ_ij / 3 for a good quadrature.
        let q = AngularQuadrature::product(36);
        for i in 0..3 {
            for j in 0..3 {
                let m: f64 = q
                    .directions()
                    .iter()
                    .map(|d| d.weight * d.omega[i] * d.omega[j])
                    .sum();
                let expected = if i == j { 1.0 / 3.0 } else { 0.0 };
                assert!(
                    (m - expected).abs() < 2e-3,
                    "moment ({i},{j}) = {m}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn paper_quadrature_sizes_work() {
        // Figure 3/4 problem: 36 angles per octant; Table II problem: 10.
        for n in [36usize, 10] {
            let q = AngularQuadrature::product(n);
            assert_eq!(q.num_angles(), 8 * n);
            let total: f64 = q.directions().iter().map(|d| d.weight).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn zero_angles_panics() {
        let _ = AngularQuadrature::product(0);
    }
}
