//! The structured Cartesian grid from which the unstructured mesh is
//! derived.
//!
//! SNAP (and therefore UnSNAP) generates its spatial domain from a handful
//! of input parameters: the number of cells in each direction and the
//! physical extent.  The structured grid exists only long enough to build
//! the unstructured mesh — exactly as in the paper, where "the unstructured
//! mesh is formed by first forming the original SNAP mesh but storing it in
//! an unstructured format".

/// Description of the structured Cartesian grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuredGrid {
    /// Number of cells in x.
    pub nx: usize,
    /// Number of cells in y.
    pub ny: usize,
    /// Number of cells in z.
    pub nz: usize,
    /// Physical domain length in x.
    pub lx: f64,
    /// Physical domain length in y.
    pub ly: f64,
    /// Physical domain length in z.
    pub lz: f64,
}

impl StructuredGrid {
    /// A grid of `n × n × n` cells over a cube of side `length`.
    pub fn cube(n: usize, length: f64) -> Self {
        Self {
            nx: n,
            ny: n,
            nz: n,
            lx: length,
            ly: length,
            lz: length,
        }
    }

    /// A general grid.
    pub fn new(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        Self {
            nx,
            ny,
            nz,
            lx,
            ly,
            lz,
        }
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Cell widths `(dx, dy, dz)`.
    pub fn cell_widths(&self) -> (f64, f64, f64) {
        (
            self.lx / self.nx as f64,
            self.ly / self.ny as f64,
            self.lz / self.nz as f64,
        )
    }

    /// Flatten an `(i, j, k)` cell index to the canonical cell id
    /// (x fastest, z slowest — the SNAP ordering).
    pub fn cell_id(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Unflatten a cell id back to `(i, j, k)`.
    pub fn cell_ijk(&self, id: usize) -> (usize, usize, usize) {
        debug_assert!(id < self.num_cells());
        let i = id % self.nx;
        let j = (id / self.nx) % self.ny;
        let k = id / (self.nx * self.ny);
        (i, j, k)
    }

    /// Coordinates of the vertex at vertex-index `(i, j, k)`
    /// (`0 ≤ i ≤ nx` etc.) on the *untwisted* grid.
    pub fn vertex(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        let (dx, dy, dz) = self.cell_widths();
        [i as f64 * dx, j as f64 * dy, k as f64 * dz]
    }

    /// The eight corner vertices of cell `(i, j, k)` on the untwisted grid,
    /// in the `c = i + 2j + 4k` corner ordering used throughout UnSNAP.
    pub fn cell_corners(&self, i: usize, j: usize, k: usize) -> [[f64; 3]; 8] {
        let mut corners = [[0.0; 3]; 8];
        for (c, corner) in corners.iter_mut().enumerate() {
            let ci = i + (c & 1);
            let cj = j + ((c >> 1) & 1);
            let ck = k + ((c >> 2) & 1);
            *corner = self.vertex(ci, cj, ck);
        }
        corners
    }

    /// Centre of the domain (used as the twist axis).
    pub fn domain_centre(&self) -> [f64; 3] {
        [self.lx / 2.0, self.ly / 2.0, self.lz / 2.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_constructor() {
        let g = StructuredGrid::cube(8, 2.0);
        assert_eq!(g.num_cells(), 512);
        assert_eq!(g.cell_widths(), (0.25, 0.25, 0.25));
    }

    #[test]
    fn id_round_trip() {
        let g = StructuredGrid::new(3, 4, 5, 1.0, 1.0, 1.0);
        for k in 0..5 {
            for j in 0..4 {
                for i in 0..3 {
                    let id = g.cell_id(i, j, k);
                    assert_eq!(g.cell_ijk(id), (i, j, k));
                }
            }
        }
        assert_eq!(g.cell_id(0, 0, 0), 0);
        assert_eq!(g.cell_id(2, 3, 4), g.num_cells() - 1);
    }

    #[test]
    fn x_is_fastest_index() {
        let g = StructuredGrid::new(4, 3, 2, 1.0, 1.0, 1.0);
        assert_eq!(g.cell_id(1, 0, 0), 1);
        assert_eq!(g.cell_id(0, 1, 0), 4);
        assert_eq!(g.cell_id(0, 0, 1), 12);
    }

    #[test]
    fn vertices_and_corners() {
        let g = StructuredGrid::new(2, 2, 2, 2.0, 4.0, 6.0);
        assert_eq!(g.vertex(0, 0, 0), [0.0, 0.0, 0.0]);
        assert_eq!(g.vertex(2, 2, 2), [2.0, 4.0, 6.0]);
        let corners = g.cell_corners(1, 1, 1);
        assert_eq!(corners[0], [1.0, 2.0, 3.0]);
        assert_eq!(corners[7], [2.0, 4.0, 6.0]);
        // Corner ordering: c=1 moves +x only.
        assert_eq!(corners[1], [2.0, 2.0, 3.0]);
        // c=2 moves +y only.
        assert_eq!(corners[2], [1.0, 4.0, 3.0]);
        // c=4 moves +z only.
        assert_eq!(corners[4], [1.0, 2.0, 6.0]);
    }

    #[test]
    fn domain_centre() {
        let g = StructuredGrid::new(2, 2, 2, 2.0, 4.0, 6.0);
        assert_eq!(g.domain_centre(), [1.0, 2.0, 3.0]);
    }
}
