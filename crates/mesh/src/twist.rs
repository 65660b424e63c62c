//! The mesh-twisting transform.
//!
//! "To ensure that the mesh is truly treated as unstructured, a new input
//! option allows the mesh to be twisted slightly along a single axis, and
//! therefore each cell is no longer a perfect cube." (§III of the paper.)
//!
//! The twist implemented here rotates every vertex about the vertical
//! (z) axis through the domain centre, with a rotation angle that grows
//! linearly from zero at the bottom of the domain to the requested maximum
//! at the top.  The paper's experiments use maximum angles of up to
//! 0.001 radians — small enough that cell volumes are essentially
//! preserved but every cell Jacobian becomes non-diagonal.

/// Parameters of the mesh twist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshTwist {
    /// Maximum rotation angle (radians) reached at the top of the domain.
    pub max_angle: f64,
    /// Centre of rotation in the x–y plane.
    pub centre: [f64; 2],
    /// Height of the domain (z extent) used to normalise the angle ramp.
    pub height: f64,
}

impl MeshTwist {
    /// No twist at all (identity transform).
    pub(crate) fn none() -> Self {
        Self {
            max_angle: 0.0,
            centre: [0.0, 0.0],
            height: 1.0,
        }
    }

    /// A twist of `max_angle` radians about the centre of the given domain.
    pub fn about_domain(max_angle: f64, lx: f64, ly: f64, lz: f64) -> Self {
        Self {
            max_angle,
            centre: [lx / 2.0, ly / 2.0],
            height: lz.max(f64::MIN_POSITIVE),
        }
    }

    /// Rotation angle at height `z`.
    fn angle_at(&self, z: f64) -> f64 {
        self.max_angle * (z / self.height).clamp(0.0, 1.0)
    }

    /// Apply the twist to a vertex.
    pub fn apply(&self, vertex: [f64; 3]) -> [f64; 3] {
        if self.max_angle == 0.0 {
            return vertex;
        }
        let angle = self.angle_at(vertex[2]);
        let (s, c) = angle.sin_cos();
        let x = vertex[0] - self.centre[0];
        let y = vertex[1] - self.centre[1];
        [
            self.centre[0] + c * x - s * y,
            self.centre[1] + s * x + c * y,
            vertex[2],
        ]
    }

    /// `true` if this twist is the identity.
    pub(crate) fn is_identity(&self) -> bool {
        self.max_angle == 0.0
    }
}

impl Default for MeshTwist {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_twist_leaves_vertices_alone() {
        let t = MeshTwist::none();
        assert!(t.is_identity());
        let v = [0.3, 0.7, 0.2];
        assert_eq!(t.apply(v), v);
    }

    #[test]
    fn bottom_of_domain_is_untouched() {
        let t = MeshTwist::about_domain(0.5, 1.0, 1.0, 1.0);
        let v = [0.9, 0.1, 0.0];
        let out = t.apply(v);
        for d in 0..3 {
            assert!((out[d] - v[d]).abs() < 1e-15);
        }
    }

    #[test]
    fn top_of_domain_rotates_by_max_angle() {
        let angle = 0.25f64;
        let t = MeshTwist::about_domain(angle, 2.0, 2.0, 1.0);
        // A point one unit to the +x of the centre, at the top.
        let v = [2.0, 1.0, 1.0];
        let out = t.apply(v);
        assert!((out[0] - (1.0 + angle.cos())).abs() < 1e-14);
        assert!((out[1] - (1.0 + angle.sin())).abs() < 1e-14);
        assert_eq!(out[2], 1.0);
    }

    #[test]
    fn angle_ramp_is_linear_and_clamped() {
        let t = MeshTwist::about_domain(0.8, 1.0, 1.0, 2.0);
        assert!((t.angle_at(1.0) - 0.4).abs() < 1e-15);
        assert_eq!(t.angle_at(-1.0), 0.0);
        assert_eq!(t.angle_at(5.0), 0.8);
    }

    #[test]
    fn twist_preserves_distance_from_axis_and_height() {
        let t = MeshTwist::about_domain(0.001, 1.0, 1.0, 1.0);
        let v = [0.9, 0.3, 0.6];
        let out = t.apply(v);
        let r_in = ((v[0] - 0.5).powi(2) + (v[1] - 0.5).powi(2)).sqrt();
        let r_out = ((out[0] - 0.5).powi(2) + (out[1] - 0.5).powi(2)).sqrt();
        assert!((r_in - r_out).abs() < 1e-14);
        assert_eq!(out[2], v[2]);
    }

    #[test]
    fn small_twist_moves_vertices_slightly() {
        // Paper-scale twist: ≤ 0.001 rad.  Displacement is tiny but nonzero.
        let t = MeshTwist::about_domain(0.001, 1.0, 1.0, 1.0);
        let v = [1.0, 1.0, 1.0];
        let out = t.apply(v);
        let shift = ((out[0] - v[0]).powi(2) + (out[1] - v[1]).powi(2)).sqrt();
        assert!(shift > 0.0);
        assert!(shift < 1e-2);
    }

    #[test]
    fn default_is_identity() {
        assert!(MeshTwist::default().is_identity());
    }
}
