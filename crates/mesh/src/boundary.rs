//! Boundary conditions on the domain faces.
//!
//! SNAP's artificial problems use vacuum boundaries (no incoming flux) on
//! every face; UnSNAP inherits that default.  An isotropic incoming flux is
//! also provided so tests can verify the DG discretisation reproduces
//! constant solutions exactly (a standard consistency check), and a
//! reflective tag is included for completeness of the SNAP input space.

/// The boundary condition applied on a domain face.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BoundaryCondition {
    /// No incoming particles (the SNAP default).
    #[default]
    Vacuum,
    /// A prescribed isotropic incoming angular flux.
    IsotropicInflow(f64),
    /// Specular reflection (incoming flux equals the outgoing flux of the
    /// mirrored direction).  Provided for API completeness; the iteration
    /// drivers in `unsnap-core` currently treat it as vacuum and document
    /// the restriction.
    Reflective,
}

impl BoundaryCondition {
    /// The incoming angular flux value this boundary supplies to a sweep.
    ///
    /// Reflective boundaries need the outgoing flux of the mirrored
    /// direction, which the caller resolves; at this level they contribute
    /// nothing.
    pub fn incoming_flux(&self) -> f64 {
        match self {
            BoundaryCondition::Vacuum | BoundaryCondition::Reflective => 0.0,
            BoundaryCondition::IsotropicInflow(v) => *v,
        }
    }
}

/// The set of boundary conditions for the six domain faces, indexed in the
/// usual face order (x−, x+, y−, y+, z−, z+).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainBoundaries {
    /// Per-face boundary conditions.
    pub faces: [BoundaryCondition; 6],
}

impl DomainBoundaries {
    /// Vacuum on every face (the SNAP/UnSNAP default).
    pub fn vacuum() -> Self {
        Self::default()
    }

    /// The same isotropic inflow on every face.
    pub fn uniform_inflow(value: f64) -> Self {
        Self {
            faces: [BoundaryCondition::IsotropicInflow(value); 6],
        }
    }

    /// The boundary condition of domain face `face_index` (0..6).
    pub fn face(&self, face_index: usize) -> BoundaryCondition {
        self.faces[face_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_vacuum() {
        let b = BoundaryCondition::default();
        assert_eq!(b, BoundaryCondition::Vacuum);
        assert_eq!(b.incoming_flux(), 0.0);
    }

    #[test]
    fn inflow_carries_value() {
        let b = BoundaryCondition::IsotropicInflow(2.5);
        assert_eq!(b.incoming_flux(), 2.5);
    }

    #[test]
    fn reflective_contributes_nothing_directly() {
        assert_eq!(BoundaryCondition::Reflective.incoming_flux(), 0.0);
    }

    #[test]
    fn domain_boundaries_constructors() {
        let v = DomainBoundaries::vacuum();
        assert_eq!(v.faces, [BoundaryCondition::Vacuum; 6]);
        let inflow = DomainBoundaries::uniform_inflow(1.0);
        for f in 0..6 {
            assert_eq!(inflow.face(f).incoming_flux(), 1.0);
        }
    }
}
