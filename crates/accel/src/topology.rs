//! Low-order geometry for the diffusion operator, extracted from the
//! transport mesh.
//!
//! The diffusion correction lives on *cell averages*: one unknown per
//! (cell, group).  What the operator needs from the mesh is therefore
//! purely geometric — cell volumes, face areas, and centroid distances —
//! and all of it is integrated on the true (twisted) hex geometry with
//! the `unsnap-fem` quadrature machinery via an
//! [`IntegralStore`], so the low-order
//! operator is consistent with the mesh the transport sweep runs on, not
//! with an idealised Cartesian grid.

use unsnap_fem::element::ReferenceElement;
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::IntegralStore;
use unsnap_mesh::{NeighborRef, UnstructuredMesh, NUM_FACES};

/// An interior face of the low-order mesh: two coupled cells plus the
/// geometric factor `area / centroid distance` of their shared face.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteriorFace {
    /// Local index of the cell on one side.
    pub left: usize,
    /// Local index of the cell on the other side.
    pub right: usize,
    /// `A_f / |x_left − x_right|`, the geometric half of the two-point
    /// flux coupling (the material half is the harmonic diffusion mean).
    pub geometric: f64,
}

/// A boundary face (domain boundary, or a cut face of a rank subset):
/// one cell coupled to a vacuum (Marshak) ghost condition.
///
/// Area and centroid-to-face distance are kept separate because the
/// Marshak leakage coefficient `A · D / (d_b + 2D)` mixes the geometry
/// with the per-group diffusion coefficient non-multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryFace {
    /// Local index of the cell the face belongs to.
    pub cell: usize,
    /// Face area.
    pub area: f64,
    /// Centroid-to-face distance `d_b` (half the centroid-to-neighbour
    /// distance for cut faces).
    pub distance: f64,
}

/// The geometric skeleton of the cell-centred diffusion operator.
///
/// Built once per solver (whole domain) or per rank (subdomain subset);
/// the per-group material coefficients are applied later by
/// [`DiffusionOperator::assemble`](crate::DiffusionOperator::assemble).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionTopology {
    /// Number of (local) cells.
    pub num_cells: usize,
    /// Quadrature-integrated cell volumes, by local index.
    pub volumes: Vec<f64>,
    /// Interior faces, each listed once.
    pub faces: Vec<InteriorFace>,
    /// Boundary (and cut) faces.
    pub boundary: Vec<BoundaryFace>,
}

/// Cells whose linear-element integrals one store holds at a time while a
/// topology is extracted: ≈ 290 KiB, whatever the size of the subset.
const GEOMETRY_BATCH: usize = 64;

fn distance(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

impl DiffusionTopology {
    /// Extract the topology for the whole mesh.
    pub fn from_mesh(mesh: &UnstructuredMesh) -> Self {
        let cells: Vec<usize> = (0..mesh.num_cells()).collect();
        Self::from_mesh_subset(mesh, &cells)
    }

    /// Extract the topology for a subset of cells (a rank's subdomain),
    /// listed by global index in local order.
    ///
    /// Faces between two subset cells become interior couplings; faces
    /// whose neighbour lies outside the subset are treated exactly like
    /// domain-boundary faces — a homogeneous Dirichlet condition at the
    /// face, because the error on the far side belongs to another rank's
    /// correction.  Geometry (volumes, areas) is integrated per cell
    /// with linear-element quadrature on the true hex corners.
    pub fn from_mesh_subset(mesh: &UnstructuredMesh, cells: &[usize]) -> Self {
        let element = ReferenceElement::new(1);
        let mut local_of = vec![usize::MAX; mesh.num_cells()];
        for (local, &global) in cells.iter().enumerate() {
            local_of[global] = local;
        }

        let mut volumes = Vec::with_capacity(cells.len());
        let mut areas: Vec<[f64; NUM_FACES]> = Vec::with_capacity(cells.len());
        for globals in cells.chunks(GEOMETRY_BATCH) {
            let store = IntegralStore::build(&element, globals.len(), |k| HexVertices {
                corners: *mesh.cell_corners(globals[k]),
            });
            for k in 0..globals.len() {
                let ints = store.block(k);
                volumes.push(ints.volume());
                areas.push(std::array::from_fn(|face| ints.area(face)));
            }
        }
        let mut faces = Vec::new();
        let mut boundary = Vec::new();

        for (local, &global) in cells.iter().enumerate() {
            let centroid = mesh.cell_centroid(global);

            for face in 0..NUM_FACES {
                let area = areas[local][face];
                match mesh.neighbor(global, face) {
                    NeighborRef::Boundary { .. } => {
                        // Centroid-to-face distance, estimated from the
                        // cell's own geometry: volume / (2 · area) is
                        // exact for an axis-aligned box and accurate to
                        // the twist angle otherwise.
                        let d_b = volumes[local] / (2.0 * area);
                        boundary.push(BoundaryFace {
                            cell: local,
                            area,
                            distance: d_b,
                        });
                    }
                    NeighborRef::Interior { cell: neighbor, .. } => {
                        if local_of[neighbor] == usize::MAX {
                            // Cut face: the neighbour belongs to another
                            // rank.  Vacuum ghost at half the centroid
                            // distance.
                            let d_b = 0.5 * distance(centroid, mesh.cell_centroid(neighbor));
                            boundary.push(BoundaryFace {
                                cell: local,
                                area,
                                distance: d_b,
                            });
                        } else if global < neighbor {
                            // Interior face, recorded once (from the
                            // lower global index so subset ordering does
                            // not matter).
                            let d = distance(centroid, mesh.cell_centroid(neighbor));
                            faces.push(InteriorFace {
                                left: local,
                                right: local_of[neighbor],
                                geometric: area / d,
                            });
                        }
                    }
                }
            }
        }

        Self {
            num_cells: cells.len(),
            volumes,
            faces,
            boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_mesh::StructuredGrid;

    fn mesh(n: usize) -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001)
    }

    #[test]
    fn whole_mesh_counts_faces_once() {
        let m = mesh(3);
        let topo = DiffusionTopology::from_mesh(&m);
        assert_eq!(topo.num_cells, 27);
        assert_eq!(topo.volumes.len(), 27);
        // A 3³ grid has 3 · 2 · 3² = 54 interior faces and 6 · 9 = 54
        // boundary faces.
        assert_eq!(topo.faces.len(), 54);
        assert_eq!(topo.boundary.len(), 54);
        // Volumes sum to the (almost exactly unit) twisted domain.
        let total: f64 = topo.volumes.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "total volume {total}");
        assert!(topo.faces.iter().all(|f| f.geometric > 0.0));
        assert!(topo
            .boundary
            .iter()
            .all(|f| f.area > 0.0 && f.distance > 0.0));
    }

    #[test]
    fn subset_turns_cut_faces_into_boundary() {
        let m = mesh(2);
        // The lower z-slab of a 2³ mesh: 4 cells, 4 cut faces upward.
        let cells: Vec<usize> = (0..4).collect();
        let topo = DiffusionTopology::from_mesh_subset(&m, &cells);
        assert_eq!(topo.num_cells, 4);
        // In-plane interior faces only: 2 along x + 2 along y.
        assert_eq!(topo.faces.len(), 4);
        // 3 domain faces per slab cell (4·3 = 12) plus one upward cut
        // face each.
        assert_eq!(topo.boundary.len(), 16);
        // Local indices are dense.
        assert!(topo.faces.iter().all(|f| f.left < 4 && f.right < 4));
        assert!(topo.boundary.iter().all(|f| f.cell < 4));
    }

    #[test]
    fn subset_ordering_does_not_change_the_geometry() {
        let m = mesh(2);
        let forward: Vec<usize> = (0..8).collect();
        let a = DiffusionTopology::from_mesh_subset(&m, &forward);
        let b = DiffusionTopology::from_mesh(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn geometric_factors_match_the_cartesian_limit() {
        // Untwisted unit cube with 4³ cells: every interior face has
        // area h² and centroid distance h, so geometric = h = 0.25.
        let m = UnstructuredMesh::from_structured(&StructuredGrid::cube(4, 1.0), 0.0);
        let topo = DiffusionTopology::from_mesh(&m);
        for f in &topo.faces {
            assert!((f.geometric - 0.25).abs() < 1e-12, "{}", f.geometric);
        }
        // Boundary faces: area h², centroid-to-face distance h/2.
        for f in &topo.boundary {
            assert!((f.area - 0.0625).abs() < 1e-12, "{}", f.area);
            assert!((f.distance - 0.125).abs() < 1e-12, "{}", f.distance);
        }
    }
}
