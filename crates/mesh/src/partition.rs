//! KBA-style 2-D spatial decomposition of the mesh into rank subdomains.
//!
//! The paper keeps SNAP's domain decomposition: "A 2D decomposition of the
//! 3D domain is performed, similar to the KBA style decomposition for a
//! structured grid ... This decomposition occurs during the construction of
//! the mesh derived from the structured mesh, and so more complex mesh
//! partitioning could be avoided." (§III.)  Each rank therefore owns a
//! rectangular patch of the x–y plane extruded through the full z extent.
//!
//! The decomposition produces, for every rank, the list of owned cells
//! (with a local numbering), and the list of *halo faces*: owned faces
//! whose neighbour cell belongs to another rank.  Under the block-Jacobi
//! global schedule these faces are where the per-iteration halo exchange
//! happens; under the KBA baseline they are where a sweep must wait for
//! upstream data.

use crate::error::MeshError;
use crate::unstructured::{NeighborRef, UnstructuredMesh, NUM_FACES};

/// A 2-D processor grid over the x–y plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition2D {
    /// Number of ranks along x.
    pub npx: usize,
    /// Number of ranks along y.
    pub npy: usize,
}

impl Decomposition2D {
    /// A decomposition into `npx × npy` ranks.
    ///
    /// Panics on an empty axis; use [`Decomposition2D::try_new`] for a
    /// recoverable error.
    pub fn new(npx: usize, npy: usize) -> Self {
        Self::try_new(npx, npy).expect("decomposition needs at least one rank")
    }

    /// A decomposition into `npx × npy` ranks, rejecting empty axes.
    pub fn try_new(npx: usize, npy: usize) -> Result<Self, MeshError> {
        if npx == 0 || npy == 0 {
            return Err(MeshError::EmptyDecomposition { npx, npy });
        }
        Ok(Self { npx, npy })
    }

    /// A single-rank decomposition.
    pub fn serial() -> Self {
        Self { npx: 1, npy: 1 }
    }

    /// Total number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.npx * self.npy
    }

    /// Processor-grid coordinates of a rank.
    fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.num_ranks());
        (rank % self.npx, rank / self.npx)
    }

    /// Split `n` cells across `parts` ranks as evenly as possible.
    /// Returns the half-open range of structured indices owned by `part`.
    fn slab(n: usize, parts: usize, part: usize) -> (usize, usize) {
        let base = n / parts;
        let rem = n % parts;
        let start = part * base + part.min(rem);
        let len = base + usize::from(part < rem);
        (start, start + len)
    }

    /// Decompose a mesh into per-rank subdomains, rejecting decompositions
    /// that would leave a rank with an empty subdomain.
    ///
    /// The decomposition uses the structured origin of the mesh (as the
    /// paper does: the partition is created while the mesh is being derived
    /// from the structured grid), but the resulting [`Subdomain`]s only
    /// reference unstructured cell ids.
    pub fn try_decompose(&self, mesh: &UnstructuredMesh) -> Result<Vec<Subdomain>, MeshError> {
        let grid = mesh.origin_grid();
        if self.npx > grid.nx || self.npy > grid.ny {
            return Err(MeshError::DecompositionTooCoarse {
                npx: self.npx,
                npy: self.npy,
                nx: grid.nx,
                ny: grid.ny,
            });
        }

        // Owner rank of every global cell.
        let mut owner = vec![0usize; mesh.num_cells()];
        for rank in 0..self.num_ranks() {
            let (px, py) = self.coords_of(rank);
            let (x0, x1) = Self::slab(grid.nx, self.npx, px);
            let (y0, y1) = Self::slab(grid.ny, self.npy, py);
            for k in 0..grid.nz {
                for j in y0..y1 {
                    for i in x0..x1 {
                        owner[grid.cell_id(i, j, k)] = rank;
                    }
                }
            }
        }

        // Build each subdomain.
        let mut subdomains: Vec<Subdomain> = (0..self.num_ranks())
            .map(|rank| Subdomain {
                rank,
                decomposition: *self,
                global_cells: Vec::new(),
                local_of_global: vec![None; mesh.num_cells()],
                halo_faces: Vec::new(),
            })
            .collect();

        for global in 0..mesh.num_cells() {
            let rank = owner[global];
            let sd = &mut subdomains[rank];
            let local = sd.global_cells.len();
            sd.global_cells.push(global);
            sd.local_of_global[global] = Some(local);
        }

        // Halo faces: owned faces whose neighbour belongs to another rank.
        for (rank, sd) in subdomains.iter_mut().enumerate() {
            for (local, &global) in sd.global_cells.iter().enumerate() {
                for face in 0..NUM_FACES {
                    if let NeighborRef::Interior { cell, face: nface } = mesh.neighbor(global, face)
                    {
                        let other_rank = owner[cell];
                        if other_rank != rank {
                            sd.halo_faces.push(HaloFace {
                                local_cell: local,
                                global_cell: global,
                                face,
                                neighbor_rank: other_rank,
                                neighbor_global_cell: cell,
                                neighbor_face: nface,
                            });
                        }
                    }
                }
            }
        }

        Ok(subdomains)
    }
}

/// A face of an owned cell whose neighbour lives on another rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloFace {
    /// Local id of the owned cell.
    pub local_cell: usize,
    /// Global id of the owned cell.
    pub global_cell: usize,
    /// Face index of the owned cell (0..6).
    pub face: usize,
    /// Rank that owns the neighbouring cell.
    pub neighbor_rank: usize,
    /// Global id of the neighbouring cell.
    pub neighbor_global_cell: usize,
    /// Face index through which the neighbour sees this cell.
    pub neighbor_face: usize,
}

/// The cells owned by one rank, with local numbering and halo description.
#[derive(Debug, Clone, PartialEq)]
pub struct Subdomain {
    /// Rank id.
    pub rank: usize,
    /// The decomposition this subdomain belongs to.
    pub decomposition: Decomposition2D,
    /// Global cell ids owned by this rank, in local order.
    pub global_cells: Vec<usize>,
    /// Inverse map: `local_of_global[g] = Some(local)` iff `g` is owned.
    pub local_of_global: Vec<Option<usize>>,
    /// Faces that need halo exchange.
    pub halo_faces: Vec<HaloFace>,
}

impl Subdomain {
    /// Number of cells owned by this rank.
    pub fn num_cells(&self) -> usize {
        self.global_cells.len()
    }

    /// Global id of a local cell.
    pub fn global_of(&self, local: usize) -> usize {
        self.global_cells[local]
    }

    /// Local id of a global cell, if owned by this rank.
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.local_of_global[global]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::StructuredGrid;

    fn mesh(n: usize) -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.0)
    }

    #[test]
    fn serial_decomposition_owns_everything() {
        let m = mesh(4);
        let sds = Decomposition2D::serial().try_decompose(&m).unwrap();
        assert_eq!(sds.len(), 1);
        assert_eq!(sds[0].num_cells(), 64);
        assert!(sds[0].halo_faces.is_empty());
        for g in 0..64 {
            assert!(sds[0].local_of(g).is_some());
        }
    }

    #[test]
    fn rank_coordinates_round_trip() {
        let d = Decomposition2D::new(3, 2);
        assert_eq!(d.num_ranks(), 6);
        for rank in 0..6 {
            let (px, py) = d.coords_of(rank);
            assert_eq!(px + 3 * py, rank);
        }
    }

    #[test]
    fn cells_partition_disjointly_and_completely() {
        let m = mesh(4);
        let d = Decomposition2D::new(2, 2);
        let sds = d.try_decompose(&m).unwrap();
        let mut seen = vec![false; m.num_cells()];
        for sd in &sds {
            for &g in &sd.global_cells {
                assert!(!seen[g], "cell {g} owned twice");
                seen[g] = true;
                assert_eq!(
                    sd.local_of(g),
                    Some(sd.global_cells.iter().position(|&x| x == g).unwrap())
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "every cell must be owned");
        // 4x4x4 over 2x2 ranks: each rank owns a 2x2x4 column = 16 cells.
        for sd in &sds {
            assert_eq!(sd.num_cells(), 16);
        }
    }

    #[test]
    fn uneven_extents_are_balanced() {
        let grid = StructuredGrid::new(5, 3, 2, 1.0, 1.0, 1.0);
        let m = UnstructuredMesh::from_structured(&grid, 0.0);
        let d = Decomposition2D::new(2, 3);
        let sds = d.try_decompose(&m).unwrap();
        let total: usize = sds.iter().map(|s| s.num_cells()).sum();
        assert_eq!(total, 30);
        // x split of 5 into 2: {3, 2}; y split of 3 into 3: {1, 1, 1};
        // so counts are (3 or 2) * 1 * 2.
        for sd in &sds {
            assert!(sd.num_cells() == 6 || sd.num_cells() == 4);
        }
    }

    #[test]
    fn halo_faces_connect_adjacent_ranks_symmetrically() {
        let m = mesh(4);
        let d = Decomposition2D::new(2, 2);
        let sds = d.try_decompose(&m).unwrap();
        // Each rank's halo count: interface area between 2x2x4 columns.
        // Interfaces: each rank touches 2 neighbours through a 2x4 = 8-face
        // interface => 16 halo faces per rank.
        for sd in &sds {
            assert_eq!(sd.halo_faces.len(), 16, "rank {}", sd.rank);
            for h in &sd.halo_faces {
                assert_ne!(h.neighbor_rank, sd.rank);
                assert!(sd.local_of(h.global_cell).is_some());
                assert!(sd.local_of(h.neighbor_global_cell).is_none());
                // Symmetry: the neighbour rank has the mirrored halo face.
                let other = &sds[h.neighbor_rank];
                let mirrored = other.halo_faces.iter().any(|g| {
                    g.global_cell == h.neighbor_global_cell
                        && g.neighbor_global_cell == h.global_cell
                        && g.face == h.neighbor_face
                        && g.neighbor_face == h.face
                });
                assert!(mirrored, "halo face not mirrored on the other rank");
            }
        }
    }

    #[test]
    fn z_is_never_decomposed() {
        // KBA style: full z columns per rank — cells that differ only in z
        // must share an owner.
        let grid = StructuredGrid::new(4, 4, 7, 1.0, 1.0, 1.0);
        let m = UnstructuredMesh::from_structured(&grid, 0.0);
        let d = Decomposition2D::new(2, 2);
        let sds = d.try_decompose(&m).unwrap();
        let owner_of = |g: usize| sds.iter().position(|sd| sd.local_of(g).is_some()).unwrap();
        for j in 0..4 {
            for i in 0..4 {
                let base = owner_of(grid.cell_id(i, j, 0));
                for k in 1..7 {
                    assert_eq!(owner_of(grid.cell_id(i, j, k)), base);
                }
            }
        }
    }

    #[test]
    fn too_many_ranks_are_refused() {
        let m = mesh(2);
        let err = Decomposition2D::new(3, 1).try_decompose(&m).unwrap_err();
        assert!(matches!(
            err,
            MeshError::DecompositionTooCoarse { npx: 3, nx: 2, .. }
        ));
    }

    #[test]
    #[should_panic]
    fn zero_rank_decomposition_panics() {
        let _ = Decomposition2D::new(0, 1);
    }

    #[test]
    fn slab_covers_range_without_overlap() {
        for n in [1usize, 5, 16, 17] {
            for parts in 1..=n.min(6) {
                let mut covered = 0;
                let mut prev_end = 0;
                for p in 0..parts {
                    let (s, e) = Decomposition2D::slab(n, parts, p);
                    assert_eq!(s, prev_end);
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }
}
