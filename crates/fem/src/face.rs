//! Faces of the reference hexahedron and the node correspondence across
//! conforming interior faces.
//!
//! The UnSNAP mesh is derived from a structured grid, so every interior
//! face is conforming: the `(p + 1)²` Lagrange nodes on one side coincide
//! geometrically with the nodes on the other side (they remain *separate
//! unknowns* — that is the "discontinuous" in discontinuous Galerkin, see
//! Figure 1b of the paper).  The upwind surface term therefore needs, for
//! each face, (a) which element-local nodes lie on it and (b) which node of
//! the neighbouring element matches each of them.

/// One of the six axis-aligned faces of the reference hexahedron.
///
/// The names refer to the *reference* axes; after the geometric map (and
/// the UnSNAP mesh twist) the physical face need not be axis-aligned, but
/// the topological meaning is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    /// ξ = −1 face (towards the −x neighbour on an untwisted mesh).
    XMinus,
    /// ξ = +1 face.
    XPlus,
    /// η = −1 face.
    YMinus,
    /// η = +1 face.
    YPlus,
    /// ζ = −1 face.
    ZMinus,
    /// ζ = +1 face.
    ZPlus,
}

/// All six faces in index order (`Face::index` order).
pub const FACES: [Face; 6] = [
    Face::XMinus,
    Face::XPlus,
    Face::YMinus,
    Face::YPlus,
    Face::ZMinus,
    Face::ZPlus,
];

impl Face {
    /// Dense index 0..6 used to address per-face arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Face::XMinus => 0,
            Face::XPlus => 1,
            Face::YMinus => 2,
            Face::YPlus => 3,
            Face::ZMinus => 4,
            Face::ZPlus => 5,
        }
    }

    /// Build a face from its dense index.
    ///
    /// # Panics
    /// Panics if `index >= 6`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        FACES[index]
    }

    /// The reference axis normal to this face (0 = ξ, 1 = η, 2 = ζ).
    #[inline]
    pub fn axis(self) -> usize {
        self.index() / 2
    }

    /// `true` for the `+1` face of its axis, `false` for the `−1` face.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.index() % 2 == 1
    }

    /// The face on the opposite side of the element (the face of the
    /// neighbouring element that this face is glued to on a structured-
    /// derived mesh).
    #[inline]
    pub fn opposite(self) -> Self {
        match self {
            Face::XMinus => Face::XPlus,
            Face::XPlus => Face::XMinus,
            Face::YMinus => Face::YPlus,
            Face::YPlus => Face::YMinus,
            Face::ZMinus => Face::ZPlus,
            Face::ZPlus => Face::ZMinus,
        }
    }

    /// Outward unit normal of this face on the *reference* element.
    #[inline]
    pub fn reference_normal(self) -> [f64; 3] {
        let mut n = [0.0; 3];
        n[self.axis()] = if self.is_positive() { 1.0 } else { -1.0 };
        n
    }
}

impl std::fmt::Display for Face {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Face::XMinus => "x-",
            Face::XPlus => "x+",
            Face::YMinus => "y-",
            Face::YPlus => "y+",
            Face::ZMinus => "z-",
            Face::ZPlus => "z+",
        };
        f.write_str(s)
    }
}

/// Element-local indices of the nodes lying on `face` for a tensor-product
/// element of order `p`, in canonical `(u, v)` order.
///
/// The canonical order iterates the two in-face axes in ascending axis
/// order with the lower axis fastest, which makes the list directly
/// comparable with the list produced for the *opposite* face of the
/// neighbouring element: entry `m` of one list is geometrically coincident
/// with entry `m` of the other.
pub fn face_node_indices(face: Face, order: usize) -> Vec<usize> {
    let n1 = order + 1;
    let axis = face.axis();
    let fixed = if face.is_positive() { order } else { 0 };
    let (a, b) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let mut out = Vec::with_capacity(n1 * n1);
    for vb in 0..n1 {
        for ua in 0..n1 {
            let mut ijk = [0usize; 3];
            ijk[axis] = fixed;
            ijk[a] = ua;
            ijk[b] = vb;
            out.push(ijk[0] + n1 * (ijk[1] + n1 * ijk[2]));
        }
    }
    out
}

/// Number of nodes on one face of an order-`p` element: `(p + 1)²`.
pub fn nodes_per_face(order: usize) -> usize {
    (order + 1) * (order + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for (i, &f) in FACES.iter().enumerate() {
            assert_eq!(f.index(), i);
            assert_eq!(Face::from_index(i), f);
        }
    }

    #[test]
    fn axis_and_sign() {
        assert_eq!(Face::XMinus.axis(), 0);
        assert_eq!(Face::YPlus.axis(), 1);
        assert_eq!(Face::ZPlus.axis(), 2);
        assert!(Face::XPlus.is_positive());
        assert!(!Face::ZMinus.is_positive());
    }

    #[test]
    fn opposite_is_involution() {
        for &f in &FACES {
            assert_eq!(f.opposite().opposite(), f);
            assert_eq!(f.opposite().axis(), f.axis());
            assert_ne!(f.opposite().is_positive(), f.is_positive());
        }
    }

    #[test]
    fn reference_normals_are_unit_axis_vectors() {
        for &f in &FACES {
            let n = f.reference_normal();
            let norm: f64 = n.iter().map(|x| x * x).sum::<f64>();
            assert_eq!(norm, 1.0);
            assert_eq!(n[f.axis()].signum() > 0.0, f.is_positive());
        }
    }

    #[test]
    fn face_node_counts() {
        for p in 1..=4 {
            for &f in &FACES {
                assert_eq!(face_node_indices(f, p).len(), nodes_per_face(p));
            }
        }
    }

    #[test]
    fn linear_face_nodes_are_correct_corners() {
        // Order 1: node index = i + 2j + 4k.
        let xm = face_node_indices(Face::XMinus, 1);
        assert_eq!(xm, vec![0, 2, 4, 6]); // i = 0
        let xp = face_node_indices(Face::XPlus, 1);
        assert_eq!(xp, vec![1, 3, 5, 7]); // i = 1
        let zp = face_node_indices(Face::ZPlus, 1);
        assert_eq!(zp, vec![4, 5, 6, 7]); // k = 1
    }

    #[test]
    fn opposite_faces_pair_up_by_position() {
        // For every order, the m-th node of face F and the m-th node of
        // F.opposite() must differ only in the coordinate along F's axis.
        for p in 1..=3 {
            let n1 = p + 1;
            let unpack = |idx: usize| [idx % n1, (idx / n1) % n1, idx / (n1 * n1)];
            for &f in &FACES {
                let mine = face_node_indices(f, p);
                let theirs = face_node_indices(f.opposite(), p);
                for (&a, &b) in mine.iter().zip(theirs.iter()) {
                    let pa = unpack(a);
                    let pb = unpack(b);
                    for axis in 0..3 {
                        if axis == f.axis() {
                            assert_ne!(pa[axis], pb[axis]);
                        } else {
                            assert_eq!(pa[axis], pb[axis]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_nodes_are_unique_and_in_range() {
        for p in 1..=4 {
            let total = (p + 1) * (p + 1) * (p + 1);
            for &f in &FACES {
                let idx = face_node_indices(f, p);
                let mut sorted = idx.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), idx.len());
                assert!(idx.iter().all(|&i| i < total));
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Face::XMinus.to_string(), "x-");
        assert_eq!(Face::ZPlus.to_string(), "z+");
    }
}
