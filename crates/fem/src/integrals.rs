//! Per-element basis-pair integrals: the data the UnSNAP assembly kernel
//! reads to build each local system.
//!
//! For an element with geometry `x(ξ)` (trilinear map of the eight cell
//! vertices) and order-`p` Lagrange basis `{φ_i}`, the transport weak form
//! needs:
//!
//! * `mass_ij       = ∫_K φ_i φ_j dV`
//! * `stream[d]_ij  = ∫_K (∂φ_i/∂x_d) φ_j dV`  for `d ∈ {x, y, z}`
//! * `face[f][d]_ab = ∫_{∂K_f} φ_a φ_b n_d dS` for each face `f`, where
//!   `a, b` run over the `(p + 1)²` nodes *on that face* and `n` is the
//!   outward normal (kept as a full vector so twisted, non-planar faces are
//!   integrated exactly).
//!
//! The paper's kernel reads "13 different arrays" during assembly; the
//! three families above are the per-element members of that set (the rest
//! are quadrature cosines, cross sections and flux/source arrays owned by
//! `unsnap-core`).
//!
//! ## One store, one block per cell
//!
//! A solver keeps them in one [`IntegralStore`] (the paper's pre-computed
//! approach): a single `Vec<f64>` holding one fixed-stride block per mesh
//! cell, laid out as
//!
//! ```text
//! [ M | G_x G_y G_z | F_{f,x} F_{f,y} F_{f,z} for f = 0..6 | n̄_f for f = 0..6 | A_f for f = 0..6 | V ]
//!   n²     3 n²                 18 nf²                            18                   6             1
//! ```
//!
//! (matrices row-major; `n̄_f` the area-weighted average outward normal, `A_f`
//! the area of face `f`, `V` the volume), read through the borrowed per-cell
//! view [`IntegralBlock`].  One routine integrates a cell into its block,
//! cell after cell, with no allocation per cell: the per-point scratch is
//! reused, the gradients of the eight trilinear shape functions are
//! tabulated once per quadrature point of the order, and a face's area
//! vector forms only the two Jacobian columns it reads.
//! [`ElementIntegrals::compute`] — one element as separately allocated
//! matrices, the shape the reference assembly reads — is that routine's
//! block unpacked.
//!
//! ## Order of work, and the summation-order contract
//!
//! One Jacobian per volume point gives `w = weight · det J` and `J⁻¹`.  Then,
//! row by row, a table of row `i`'s four coefficients over the points
//! (`w φ_i` and `w g_{i,d}`, with `g_{i,d} = Σ_e J⁻¹[e][d] ∂φ_i/∂ξ_e`) feeds
//! tiles of columns `j` of `mass` and `stream[0..3]`, accumulated in
//! registers with the point loop innermost.  The per-cell scratch is
//! `nq` inverse Jacobians and `4 nq` coefficients (7 KiB at order 3), never
//! a table over all `(point, row)` pairs.
//!
//! Every output bit is fixed by these rules, which the unit tests pin:
//!
//! * `mass_ij` is the sum over the volume points, in rule order, starting
//!   from `+0.0`, of `(w φ_i) · φ_j`; `stream[d]_ij` the same sum of
//!   `(w g_{i,d}) · φ_j`; `volume` the same sum of `w`;
//! * a Jacobian entry `∂x_d/∂ξ_e` is the sum over the corners, in corner
//!   order from `+0.0`, of `x_{c,d} · ∂N_c/∂ξ_e`;
//! * a face entry `(a, b)` with `a ≤ b` is the sum over the face points, in
//!   rule order from `+0.0`, of `(weight · (φ_a · φ_b)) · (n dS)_d`, and
//!   entry `(b, a)` is a copy of it — exact, since IEEE multiplication
//!   commutes;
//! * no multiply and add are fused (`mul_add` moves bits).

use unsnap_linalg::DenseMatrix;

use crate::element::{nodes_for_order, ReferenceElement};
use crate::face::{face_node_indices, nodes_per_face, Face, FACES};
use crate::geometry::{dot3, norm3, HexVertices};

/// Integrals of one face of an element.
#[derive(Debug, Clone, PartialEq)]
pub struct FaceIntegrals {
    /// Which face of the element this belongs to.
    pub face: Face,
    /// Element-local indices of the nodes on this face, in canonical
    /// order (see [`face_node_indices`]).
    pub node_indices: Vec<usize>,
    /// `matrices[d]` is the `(p+1)² × (p+1)²` matrix of
    /// `∫ φ_a φ_b n_d dS` over the face-local node numbering.
    pub matrices: [DenseMatrix; 3],
    /// Area-weighted average outward normal (unit length unless the face
    /// is degenerate).
    pub average_normal: [f64; 3],
    /// Total face area.
    pub area: f64,
}

impl FaceIntegrals {
    /// `Ω · n̄` with the average outward normal — used to classify the face
    /// as inflow (`< 0`) or outflow (`> 0`) for a given sweep direction.
    pub fn direction_dot_normal(&self, omega: [f64; 3]) -> f64 {
        dot3(omega, self.average_normal)
    }
}

/// All precomputed integrals of one element, each matrix allocated on its
/// own: the shape the reference assembly (`unsnap_core::kernel::assemble`)
/// reads.  A solver stores an [`IntegralStore`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementIntegrals {
    /// Polynomial order of the element.
    pub order: usize,
    /// Mass matrix `∫ φ_i φ_j dV` (size `n × n`).
    pub mass: DenseMatrix,
    /// Streaming matrices `∫ (∂φ_i/∂x_d) φ_j dV` for `d = x, y, z`.
    pub stream: [DenseMatrix; 3],
    /// Face integrals for the six faces, indexed by [`Face::index`].
    pub faces: Vec<FaceIntegrals>,
    /// Element volume.
    pub volume: f64,
}

/// Columns of `mass` and `stream` one tile accumulates in registers.
const TILE: usize = 8;

/// Columns of a face matrix row one tile accumulates in registers.
const FACE_TILE: usize = 4;

impl ElementIntegrals {
    /// Compute all integral families for one element: the block
    /// [`IntegralStore::build`] integrates for it, unpacked.
    pub fn compute(element: &ReferenceElement, hex: &HexVertices) -> Self {
        let store = IntegralStore::build(element, 1, |_| *hex);
        let block = store.block(0);
        let (order, n, nf) = (element.order(), store.n, store.nf);
        let matrix = |size: usize, values: &[f64]| {
            DenseMatrix::from_vec(size, size, values.to_vec()).expect("a square block")
        };
        // The three row-major matrices, one after another in `values`.
        let three = |size: usize, values: &[f64]| -> [DenseMatrix; 3] {
            let mut parts = values.chunks_exact(size * size).map(|m| matrix(size, m));
            std::array::from_fn(|_| parts.next().expect("x, y and z"))
        };
        let faces = FACES
            .iter()
            .map(|&face| FaceIntegrals {
                face,
                node_indices: face_node_indices(face, order),
                matrices: three(nf, block.face(face.index())),
                average_normal: block.average_normal(face.index()),
                area: block.area(face.index()),
            })
            .collect();
        Self {
            order,
            mass: matrix(n, block.mass()),
            stream: three(n, block.stream()),
            faces,
            volume: block.volume(),
        }
    }

    /// Matrix dimension (`(p + 1)³`).
    pub fn nodes_per_element(&self) -> usize {
        self.mass.rows()
    }

    /// Nodes per face (`(p + 1)²`).
    pub fn nodes_per_face(&self) -> usize {
        nodes_per_face(self.order)
    }

    /// Face integrals for a given face.
    pub fn face(&self, face: Face) -> &FaceIntegrals {
        &self.faces[face.index()]
    }
}

/// Values in one block: `4 n² + 18 nf² + 25` for `n` nodes, `nf` a face.
fn block_len(n: usize, nf: usize) -> usize {
    4 * n * n + 3 * FACES.len() * nf * nf + 4 * FACES.len() + 1
}

/// The integrals of one cell: a borrowed view of its block of an
/// [`IntegralStore`] (see the [module docs](self) for the layout).
#[derive(Debug, Clone, Copy)]
pub struct IntegralBlock<'a> {
    n: usize,
    nf: usize,
    values: &'a [f64],
}

impl<'a> IntegralBlock<'a> {
    /// Matrix dimension (`(p + 1)³`).
    pub fn nodes_per_element(&self) -> usize {
        self.n
    }

    /// The mass matrix `M`, row-major `n × n`.
    pub fn mass(&self) -> &'a [f64] {
        &self.values[..self.n * self.n]
    }

    /// The streaming matrices `G_x`, `G_y`, `G_z`, each row-major `n × n`,
    /// one after another.
    pub fn stream(&self) -> &'a [f64] {
        &self.values[self.n * self.n..4 * self.n * self.n]
    }

    /// The matrices `F_{face,x}`, `F_{face,y}`, `F_{face,z}` of face `face`
    /// (0..6, [`Face::index`]), each row-major `nf × nf`, one after another.
    pub fn face(&self, face: usize) -> &'a [f64] {
        let len = 3 * self.nf * self.nf;
        &self.values[4 * self.n * self.n + face * len..][..len]
    }

    /// What closes the block: six average normals, six areas, the volume.
    fn tail(&self) -> &'a [f64] {
        &self.values[4 * self.n * self.n + 3 * FACES.len() * self.nf * self.nf..]
    }

    /// Area-weighted average outward normal of face `face`.
    pub(crate) fn average_normal(&self, face: usize) -> [f64; 3] {
        let normal = &self.tail()[3 * face..3 * face + 3];
        normal.try_into().expect("three components")
    }

    /// Area of face `face`.
    pub fn area(&self, face: usize) -> f64 {
        self.tail()[3 * FACES.len() + face]
    }

    /// Element volume.
    pub fn volume(&self) -> f64 {
        self.tail()[4 * FACES.len()]
    }

    /// `Ω · n̄` of face `face` (as [`FaceIntegrals::direction_dot_normal`]).
    pub fn direction_dot_normal(&self, face: usize, omega: [f64; 3]) -> f64 {
        dot3(omega, self.average_normal(face))
    }
}

/// The precomputed integrals of every cell of a mesh, for one element
/// order: one allocation, one fixed-stride block per cell.
#[derive(Debug, Clone)]
pub struct IntegralStore {
    order: usize,
    n: usize,
    nf: usize,
    values: Vec<f64>,
}

impl IntegralStore {
    /// A store of `cells` order-`order` blocks, all zero until its
    /// [`chunks`](Self::chunks) are integrated.
    pub fn zeroed(order: usize, cells: usize) -> Self {
        let (n, nf) = (nodes_for_order(order), nodes_per_face(order));
        Self {
            order,
            n,
            nf,
            values: vec![0.0; cells * block_len(n, nf)],
        }
    }

    /// The integrals of `cells` elements of `element`, cell `c` the hex
    /// `hex(c)`, integrated on the caller's thread.
    pub fn build(
        element: &ReferenceElement,
        cells: usize,
        hex: impl Fn(usize) -> HexVertices,
    ) -> Self {
        let mut store = Self::zeroed(element.order(), cells);
        for chunk in store.chunks(1) {
            chunk.integrate(element, &hex);
        }
        store
    }

    /// The store of `elements`, all of one order: cell `c` holds a copy of
    /// `elements[c]`, value for value.
    pub fn pack(elements: &[ElementIntegrals]) -> Self {
        let order = elements.first().map_or(1, |e| e.order);
        let mut store = Self::zeroed(order, 0);
        for e in elements {
            assert_eq!(e.order, order, "one element order");
            let values = &mut store.values;
            values.extend_from_slice(e.mass.as_slice());
            let faces = e.faces.iter().flat_map(|f| &f.matrices);
            for m in e.stream.iter().chain(faces) {
                values.extend_from_slice(m.as_slice());
            }
            values.extend(e.faces.iter().flat_map(|f| f.average_normal));
            values.extend(e.faces.iter().map(|f| f.area));
            values.push(e.volume);
        }
        store
    }

    /// Cells in the store.
    pub(crate) fn cells(&self) -> usize {
        self.values.len() / block_len(self.n, self.nf)
    }

    /// The integrals of cell `cell`.
    pub fn block(&self, cell: usize) -> IntegralBlock<'_> {
        let len = block_len(self.n, self.nf);
        IntegralBlock {
            n: self.n,
            nf: self.nf,
            values: &self.values[cell * len..][..len],
        }
    }

    /// The blocks cut into `parts` runs of consecutive cells (fewer if there
    /// are fewer cells), whose lengths differ by at most one, the longer
    /// first: what a team of `parts` integrates side by side.
    pub fn chunks(&mut self, parts: usize) -> Vec<IntegralChunk<'_>> {
        let (len, cells) = (block_len(self.n, self.nf), self.cells());
        let parts = parts.clamp(1, cells.max(1));
        let (base, extra) = (cells / parts, cells % parts);
        let mut rest = self.values.as_mut_slice();
        let mut first = 0;
        (0..parts)
            .map(|part| {
                let cells = base + usize::from(part < extra);
                let (blocks, tail) = std::mem::take(&mut rest).split_at_mut(cells * len);
                rest = tail;
                first += cells;
                IntegralChunk {
                    order: self.order,
                    first: first - cells,
                    blocks,
                }
            })
            .collect()
    }
}

/// A run of consecutive cells' blocks of an [`IntegralStore`], integrated
/// by one worker.
#[derive(Debug)]
pub struct IntegralChunk<'a> {
    order: usize,
    /// The cell whose block comes first.
    first: usize,
    blocks: &'a mut [f64],
}

impl IntegralChunk<'_> {
    /// Integrate every cell of the chunk into its block — cell `c` has the
    /// geometry `hex(c)` — reusing one scratch for all of them.
    ///
    /// # Panics
    ///
    /// Panics if `element` is not of the store's order, or on a degenerate
    /// cell.
    pub fn integrate(self, element: &ReferenceElement, hex: impl Fn(usize) -> HexVertices) {
        assert_eq!(element.order(), self.order, "the store's element order");
        if self.blocks.is_empty() {
            return;
        }
        let mut integrator = Integrator::new(element);
        let len = block_len(integrator.n, integrator.nf);
        for (k, block) in self.blocks.chunks_exact_mut(len).enumerate() {
            integrator.integrate(&hex(self.first + k), block);
        }
    }
}

/// What integrating a cell needs besides its geometry and the element's
/// tables (basis values, trilinear shape gradients, face nodes — each
/// tabulated once per order): the per-point scratch, built once per chunk.
struct Integrator<'e> {
    element: &'e ReferenceElement,
    /// Nodes per element and per face.
    n: usize,
    nf: usize,
    /// Per volume point: `w = weight · det J` and `J⁻¹`.
    geometry: Vec<(f64, [[f64; 3]; 3])>,
    /// Row `i`'s coefficients over the points: `w φ_i` and `w ∂φ_i/∂x_d`.
    coef: Vec<[f64; 4]>,
    /// Per face point: its weight and the area vector `n dS`.
    face_geometry: Vec<(f64, [f64; 3])>,
    /// The face nodes' basis values, point-major.
    face_phi: Vec<f64>,
}

impl<'e> Integrator<'e> {
    fn new(element: &'e ReferenceElement) -> Self {
        let nq = element.volume_points().len();
        Self {
            element,
            n: element.nodes_per_element(),
            nf: nodes_per_face(element.order()),
            geometry: Vec::with_capacity(nq),
            coef: vec![[0.0; 4]; nq],
            face_geometry: Vec::new(),
            face_phi: Vec::new(),
        }
    }

    /// Every family of the cell `hex` into `block`.
    fn integrate(&mut self, hex: &HexVertices, block: &mut [f64]) {
        let (n, nf, element) = (self.n, self.nf, self.element);

        // One Jacobian per quadrature point: w = weight · det J, and J⁻¹.
        let mut volume = 0.0;
        self.geometry.clear();
        let points = element.volume_points().iter();
        for (vp, grads) in points.zip(element.geometry_at_volume_points()) {
            let (det, jinv) = hex
                .jacobian_det_inverse(grads)
                .expect("degenerate element encountered during integration");
            let w = vp.weight * det;
            volume += w;
            self.geometry.push((w, jinv));
        }

        let (mass, rest) = block.split_at_mut(n * n);
        let (stream, rest) = rest.split_at_mut(3 * n * n);
        let (faces, rest) = rest.split_at_mut(3 * FACES.len() * nf * nf);
        let (normals, rest) = rest.split_at_mut(3 * FACES.len());
        let (areas, rest) = rest.split_at_mut(FACES.len());
        rest[0] = volume;

        let (s0, rest) = stream.split_at_mut(n * n);
        let (s1, s2) = rest.split_at_mut(n * n);
        for i in 0..n {
            for (q, (c, &(w, jinv))) in self.coef.iter_mut().zip(&self.geometry).enumerate() {
                let gref = element.grad_phi_at_volume_point(q, i);
                // ∂φ/∂x_d = Σ_e ∂φ/∂ξ_e · ∂ξ_e/∂x_d = Σ_e J⁻¹[e][d] gref[e]
                let g =
                    |d: usize| jinv[0][d] * gref[0] + jinv[1][d] * gref[1] + jinv[2][d] * gref[2];
                *c = [
                    w * element.phi_at_volume_point(q)[i],
                    w * g(0),
                    w * g(1),
                    w * g(2),
                ];
            }
            let row = i * n..(i + 1) * n;
            let mut rows = [
                &mut mass[row.clone()],
                &mut s0[row.clone()],
                &mut s1[row.clone()],
                &mut s2[row],
            ];
            let mut j0 = 0;
            while j0 + TILE <= n {
                accumulate_tile::<TILE>(element, &self.coef, j0, &mut rows);
                j0 += TILE;
            }
            for j in j0..n {
                accumulate_tile::<1>(element, &self.coef, j, &mut rows);
            }
        }

        for (f, face_block) in faces.chunks_exact_mut(3 * nf * nf).enumerate() {
            let (normal, area) = self.integrate_face(hex, FACES[f], face_block);
            normals[3 * f..3 * f + 3].copy_from_slice(&normal);
            areas[f] = area;
        }
    }

    /// The three matrices of `face` into `matrices` (`F_x F_y F_z`,
    /// row-major `nf × nf`); returns its average outward normal and area.
    fn integrate_face(
        &mut self,
        hex: &HexVertices,
        face: Face,
        matrices: &mut [f64],
    ) -> ([f64; 3], f64) {
        let (nf, element) = (self.nf, self.element);
        let node_indices = &element.face_nodes()[face.index()];
        let points = element.face_points(face);

        // Per point: its weight, the area vector `n dS`, and the face nodes'
        // basis values (point-major).
        let mut avg_normal = [0.0; 3];
        let mut area = 0.0;
        self.face_geometry.clear();
        self.face_phi.clear();
        let gradients = element.geometry_at_face_points(face);
        for (q, (fp, grads)) in points.iter().zip(gradients).enumerate() {
            let av = hex.face_area_vector(face, grads);
            area += fp.weight * norm3(av);
            for d in 0..3 {
                avg_normal[d] += fp.weight * av[d];
            }
            let all = element.phi_at_face_point(face, q);
            self.face_phi.extend(node_indices.iter().map(|&i| all[i]));
            self.face_geometry.push((fp.weight, av));
        }

        // The upper triangle, row by row, mirrored below the diagonal.
        let (fx, rest) = matrices.split_at_mut(nf * nf);
        let (fy, fz) = rest.split_at_mut(nf * nf);
        let mut out = [fx, fy, fz];
        for a in 0..nf {
            let mut b0 = a;
            while b0 + FACE_TILE <= nf {
                face_tile::<FACE_TILE>(&self.face_geometry, &self.face_phi, nf, a, b0, &mut out);
                b0 += FACE_TILE;
            }
            for b in b0..nf {
                face_tile::<1>(&self.face_geometry, &self.face_phi, nf, a, b, &mut out);
            }
        }
        for m in &mut out {
            for a in 1..nf {
                for b in 0..a {
                    m[a * nf + b] = m[b * nf + a];
                }
            }
        }

        let norm = norm3(avg_normal);
        if norm > 0.0 {
            for v in avg_normal.iter_mut() {
                *v /= norm;
            }
        }
        (avg_normal, area)
    }
}

/// Columns `j0 .. j0 + T` of row `i` of `mass` and `stream[0..3]` (`rows`),
/// from row `i`'s coefficients `coef`: `T × 4` sums held in registers, the
/// point loop innermost, each summed over the points in rule order from
/// `+0.0`.
#[inline(always)]
fn accumulate_tile<const T: usize>(
    element: &ReferenceElement,
    coef: &[[f64; 4]],
    j0: usize,
    rows: &mut [&mut [f64]; 4],
) {
    let mut acc = [[0.0f64; T]; 4];
    for (q, c) in coef.iter().enumerate() {
        let phi: &[f64; T] = element.phi_at_volume_point(q)[j0..j0 + T]
            .try_into()
            .expect("a tile lies inside the row");
        for k in 0..4 {
            for t in 0..T {
                acc[k][t] += c[k] * phi[t];
            }
        }
    }
    for (row, sums) in rows.iter_mut().zip(&acc) {
        row[j0..j0 + T].copy_from_slice(sums);
    }
}

/// Columns `b0 .. b0 + T` of row `a` of the three face matrices (row-major
/// `nf × nf`), from the face points' `(weight, n dS)` and basis values
/// (`nf` a point): each entry the sum over the points, in rule order from
/// `+0.0`, of `(weight · (φ_a · φ_b)) · n_d dS`.
#[inline(always)]
fn face_tile<const T: usize>(
    geometry: &[(f64, [f64; 3])],
    phi: &[f64],
    nf: usize,
    a: usize,
    b0: usize,
    matrices: &mut [&mut [f64]; 3],
) {
    let mut acc = [[0.0f64; T]; 3];
    for (&(weight, av), row) in geometry.iter().zip(phi.chunks_exact(nf)) {
        let pa = row[a];
        let pb: &[f64; T] = row[b0..b0 + T]
            .try_into()
            .expect("a tile lies inside the row");
        for t in 0..T {
            let wab = weight * (pa * pb[t]);
            for d in 0..3 {
                acc[d][t] += wab * av[d];
            }
        }
    }
    for (m, sums) in matrices.iter_mut().zip(&acc) {
        m[a * nf + b0..a * nf + b0 + T].copy_from_slice(sums);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twisted_cell(angle: f64) -> HexVertices {
        let mut hex = HexVertices::unit_cube();
        let (s, c) = angle.sin_cos();
        for corner in hex.corners.iter_mut().skip(4) {
            let x = corner[0] - 0.5;
            let y = corner[1] - 0.5;
            corner[0] = 0.5 + c * x - s * y;
            corner[1] = 0.5 + s * x + c * y;
        }
        hex
    }

    #[test]
    fn mass_matrix_sums_to_volume() {
        for order in 1..=3 {
            let e = ReferenceElement::new(order);
            for hex in [
                HexVertices::unit_cube(),
                HexVertices::axis_aligned([0.0; 3], [2.0, 1.0, 0.5]),
                twisted_cell(0.05),
            ] {
                let ints = ElementIntegrals::compute(&e, &hex);
                let total: f64 = ints.mass.as_slice().iter().sum();
                assert!(
                    (total - ints.volume).abs() < 1e-10,
                    "order {order}: Σ mass = {total}, volume = {}",
                    ints.volume
                );
                let quadrature_volume: f64 = crate::quadrature::hex_rule(order + 2)
                    .iter()
                    .map(|p| {
                        let grads = HexVertices::shape_gradients(p.xi);
                        p.weight * hex.jacobian_det_inverse(&grads).unwrap().0
                    })
                    .sum();
                assert!((ints.volume - quadrature_volume).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mass_matrix_is_symmetric_positive_diagonal() {
        let e = ReferenceElement::new(2);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let n = ints.nodes_per_element();
        for i in 0..n {
            assert!(ints.mass[(i, i)] > 0.0);
            for j in 0..n {
                assert!((ints.mass[(i, j)] - ints.mass[(j, i)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn stream_matrix_rows_sum_to_face_flux_of_constant() {
        // For ψ ≡ 1, ∫ ∂φ_i/∂x_d dV = ∮ φ_i n_d dS (divergence theorem).
        // Summing over i: ∫ Σ_i ∂φ_i/∂x_d dV = 0 because Σφ_i = 1.
        let e = ReferenceElement::new(2);
        for hex in [HexVertices::unit_cube(), twisted_cell(0.1)] {
            let ints = ElementIntegrals::compute(&e, &hex);
            for d in 0..3 {
                let total: f64 = ints.stream[d].as_slice().iter().sum();
                assert!(total.abs() < 1e-10, "direction {d}: {total}");
            }
        }
    }

    #[test]
    fn streaming_plus_transpose_equals_surface_term() {
        // Integration by parts:
        //   ∫ (∂φ_i/∂x_d) φ_j + ∫ φ_i (∂φ_j/∂x_d) = ∮ φ_i φ_j n_d dS.
        // i.e. G[d] + G[d]^T must equal the sum over faces of the face
        // matrices (scattered to element-local indices).
        for order in [1usize, 2] {
            let e = ReferenceElement::new(order);
            for hex in [HexVertices::unit_cube(), twisted_cell(0.07)] {
                let ints = ElementIntegrals::compute(&e, &hex);
                let n = ints.nodes_per_element();
                for d in 0..3 {
                    let mut surface = DenseMatrix::zeros(n, n);
                    for f in &ints.faces {
                        for (a, &ia) in f.node_indices.iter().enumerate() {
                            for (b, &ib) in f.node_indices.iter().enumerate() {
                                surface[(ia, ib)] += f.matrices[d][(a, b)];
                            }
                        }
                    }
                    for i in 0..n {
                        for j in 0..n {
                            let lhs = ints.stream[d][(i, j)] + ints.stream[d][(j, i)];
                            assert!(
                                (lhs - surface[(i, j)]).abs() < 1e-9,
                                "order {order}, d {d}, ({i},{j}): {lhs} vs {}",
                                surface[(i, j)]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_areas_and_normals_for_unit_cube() {
        let e = ReferenceElement::new(1);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        for &face in &FACES {
            let fi = ints.face(face);
            assert!((fi.area - 1.0).abs() < 1e-12);
            let mut expected = [0.0; 3];
            expected[face.axis()] = if face.is_positive() { 1.0 } else { -1.0 };
            for d in 0..3 {
                assert!((fi.average_normal[d] - expected[d]).abs() < 1e-12);
            }
            // Face mass matrix entries (dotted with the normal) sum to the
            // face area.
            let sum: f64 = (0..3)
                .map(|d| expected[d] * fi.matrices[d].as_slice().iter().sum::<f64>())
                .sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn directed_face_matrix_classifies_inflow_outflow() {
        let e = ReferenceElement::new(1);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let omega = [0.6, 0.5, 0.62];
        let mut inflow = 0;
        let mut outflow = 0;
        for &face in &FACES {
            let dn = ints.face(face).direction_dot_normal(omega);
            if dn > 0.0 {
                outflow += 1;
            } else {
                inflow += 1;
            }
        }
        assert_eq!(inflow, 3);
        assert_eq!(outflow, 3);
    }

    #[test]
    fn twist_preserves_total_mass_approximately() {
        // The UnSNAP twist (≤ 0.001 rad) barely changes cell volumes.
        let e = ReferenceElement::new(1);
        let straight = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let twisted = ElementIntegrals::compute(&e, &twisted_cell(0.001));
        assert!((straight.volume - twisted.volume).abs() < 1e-5);
    }

    /// FNV-1a over the `to_bits()` of every family of a block, in the
    /// declaration order of `ElementIntegrals`: `mass`, `stream`, then per
    /// face its three matrices, average normal and area, then `volume`.
    fn bits_hash(block: IntegralBlock<'_>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: f64| {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        block.mass().iter().for_each(|&x| eat(x));
        block.stream().iter().for_each(|&x| eat(x));
        for f in 0..FACES.len() {
            block.face(f).iter().for_each(|&x| eat(x));
            block.average_normal(f).iter().for_each(|&x| eat(x));
            eat(block.area(f));
        }
        eat(block.volume());
        h
    }

    fn pinned_cells() -> [(&'static str, HexVertices); 4] {
        [
            ("unit cube", HexVertices::unit_cube()),
            ("box", HexVertices::axis_aligned([0.0; 3], [2.0, 1.0, 0.5])),
            ("twist 0.05", twisted_cell(0.05)),
            ("twist 0.001", twisted_cell(0.001)),
        ]
    }

    /// The store of the pinned cells at `order`, integrated by `parts`
    /// chunks one after another.
    fn pinned_store(order: usize, parts: usize) -> IntegralStore {
        let element = ReferenceElement::new(order);
        let cells = pinned_cells();
        let mut store = IntegralStore::zeroed(order, cells.len());
        for chunk in store.chunks(parts) {
            chunk.integrate(&element, |c| cells[c].1);
        }
        store
    }

    #[test]
    fn integrals_keep_their_bits() {
        // Recorded from the point-outer loop this module had before the
        // register-tiled pass; rows are orders 1–4, columns the cells of
        // `pinned_cells`, each hashed from its block of one store.
        const PINS: [[u64; 4]; 4] = [
            [
                0xcae0_9eef_88bc_60a8,
                0xc28c_86a7_3b8a_6544,
                0x5158_ada0_7aae_50bd,
                0x2a63_7910_5632_9cc5,
            ],
            [
                0x86c3_f7dc_3450_9a53,
                0x6dd9_0965_0ab5_8a26,
                0xd3c0_8497_8253_1322,
                0xa29d_bc51_c62b_c10b,
            ],
            [
                0x4813_638d_d3ce_5a31,
                0x328f_a829_dd93_23ac,
                0x1a18_78c7_a04d_2fb8,
                0xf11a_ccf7_3680_6474,
            ],
            [
                0xa453_a958_c8ea_e1e7,
                0x3945_8373_6745_da57,
                0x70d5_da21_2c5d_de1e,
                0xabe5_9292_13c1_48f1,
            ],
        ];
        let mut seen = [[0u64; 4]; 4];
        for order in 1..=4 {
            let store = pinned_store(order, 1);
            for c in 0..store.cells() {
                seen[order - 1][c] = bits_hash(store.block(c));
            }
        }
        for order in 1..=4 {
            for (c, (name, _)) in pinned_cells().iter().enumerate() {
                assert_eq!(
                    seen[order - 1][c],
                    PINS[order - 1][c],
                    "order {order}, {name}: the integrals moved a bit; all hashes: {seen:#018x?}"
                );
            }
        }
    }

    #[test]
    fn element_integrals_are_the_store_block_bit_for_bit() {
        // `ElementIntegrals::compute` unpacks a one-cell store; packed again
        // it must be, value for value, the block of a store of many cells,
        // whichever way the store's cells were cut into chunks.
        let bits = |block: IntegralBlock<'_>| block.values.iter().map(|x| x.to_bits()).collect();
        for order in 1..=4 {
            let element = ReferenceElement::new(order);
            let cells = pinned_cells();
            let computed: Vec<ElementIntegrals> = (cells.iter())
                .map(|(_, hex)| ElementIntegrals::compute(&element, hex))
                .collect();
            let packed = IntegralStore::pack(&computed);
            for store in [pinned_store(order, 1), pinned_store(order, 3)] {
                for (c, (name, _)) in cells.iter().enumerate() {
                    let (block, ints) = (store.block(c), &computed[c]);
                    assert_eq!(
                        (block.nodes_per_element(), block.nf),
                        (ints.nodes_per_element(), ints.nodes_per_face())
                    );
                    let (a, b): (Vec<u64>, Vec<u64>) = (bits(block), bits(packed.block(c)));
                    assert_eq!(a, b, "order {order}, {name}");
                }
            }
        }
    }

    #[test]
    fn store_chunks_cover_every_cell_once() {
        let mut store = IntegralStore::zeroed(1, 7);
        let stride = block_len(8, 4);
        for parts in [1, 2, 3, 7, 9] {
            let chunks = store.chunks(parts);
            assert_eq!(chunks.len(), parts.min(7));
            let lengths: Vec<usize> = chunks.iter().map(|c| c.blocks.len() / stride).collect();
            assert_eq!(lengths.iter().sum::<usize>(), 7);
            assert!(lengths.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            let firsts: Vec<usize> = chunks.iter().map(|c| c.first).collect();
            let starts: Vec<usize> = (lengths.iter())
                .scan(0, |first, len| Some(std::mem::replace(first, *first + len)))
                .collect();
            assert_eq!(firsts, starts, "{parts} parts");
        }
        assert_eq!(IntegralStore::zeroed(2, 0).chunks(4).len(), 1);
    }

    #[test]
    fn face_matrices_are_bitwise_symmetric() {
        for order in 1..=4 {
            let store = pinned_store(order, 2);
            let nf = nodes_per_face(order);
            for (c, (name, _)) in pinned_cells().iter().enumerate() {
                let block = store.block(c);
                for &face in &FACES {
                    for m in block.face(face.index()).chunks_exact(nf * nf) {
                        for a in 0..nf {
                            for b in 0..a {
                                assert_eq!(
                                    m[a * nf + b].to_bits(),
                                    m[b * nf + a].to_bits(),
                                    "order {order}, {name}, face {face}: ({a},{b})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_node_index_lists_match_element_layout() {
        let e = ReferenceElement::new(2);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        for &face in &FACES {
            let fi = ints.face(face);
            assert_eq!(fi.node_indices.len(), ints.nodes_per_face());
            assert_eq!(fi.node_indices, face_node_indices(face, 2));
        }
    }
}
