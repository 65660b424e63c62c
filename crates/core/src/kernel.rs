//! The assemble/solve kernel: one local DG system per
//! element × angle × energy group.
//!
//! This is the computation at the heart of the sweep (Figure 2 of the
//! paper):
//!
//! * **Assemble `A`** from the Sn direction, the total cross section and
//!   the precomputed basis-pair integrals:
//!
//!   `A = −Σ_d Ω_d G[d] + σ_t M + Σ_{outflow faces} ∫ φ_i φ_j (Ω·n) dS`
//!
//!   where `G[d]` are the streaming matrices and `M` the mass matrix.
//!
//! * **Assemble `b`** from the source and the upwind neighbour flux:
//!
//!   `b_i = Σ_j M_ij q_j − Σ_{inflow faces} Σ_j ∫ φ_i φ_j (Ω·n) dS ψ^up_j`
//!
//!   (the inflow integrand is negative, so the upwind term adds particles).
//!
//! * **Solve `A ψ = b`** with the selected dense solver (hand-written
//!   Gaussian elimination, reference LU, or the blocked-LU MKL stand-in).
//!
//! The kernel is written so that the hot loops run over contiguous slices
//! (matrix rows, node vectors) and reuses caller-provided scratch storage —
//! no allocation happens per invocation once the scratch is warm.
//!
//! There are two assemblers and they agree bit for bit.  [`assemble`] is
//! the seed routine, kept as the oracle the tests compare against: it
//! recomputes everything for every call.  [`assemble_blocked`] is the one
//! the [`KernelEngine`] — and therefore every sweep — runs: whatever
//! depends only on the element and the direction (`Ω·G`, the outflow face
//! entries, the directed matrices of the inflow faces) is kept in a
//! per-worker tile of the [`KernelScratch`], so a call whose element and
//! direction match the previous one does only the group's work.  And where
//! the element has eight nodes that work is done for a run of groups at
//! once, one group per SIMD lane ([`KernelEngine::assemble_solve_lanes`]):
//! each lane runs [`assemble_blocked`]'s and the elimination's operations
//! in their order, so a lane's flux has the per-group task's bits.

use std::time::Instant;

use unsnap_fem::face::FACES;
use unsnap_fem::integrals::ElementIntegrals;
use unsnap_linalg::{DenseMatrix, LinalgError, LinearSolver};

use crate::layout::Precision;

/// The kernel selector of [`Problem::kernel`](crate::problem::Problem).
///
/// Parsed and carried, but inert: the [`KernelEngine`] runs the tiled
/// assembly ([`assemble_blocked`]) for both values, and that assembly is
/// bit for bit the reference one ([`assemble`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// The default label.
    #[default]
    Reference,
    /// The label of the former opt-in tiled kernel.
    Blocked,
}

impl KernelKind {
    /// Every kernel, in fixed ablation order.
    pub fn all() -> [KernelKind; 2] {
        [KernelKind::Reference, KernelKind::Blocked]
    }

    /// Short name used in tables, on the wire and for CLI selection.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Reference => "reference",
            KernelKind::Blocked => "blocked",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reference" | "ref" | "scalar" => Ok(KernelKind::Reference),
            "blocked" | "soa" | "cache-blocked" => Ok(KernelKind::Blocked),
            other => Err(format!("unknown kernel '{other}'")),
        }
    }
}

/// Where the upwind flux for one inflow face comes from.
#[derive(Debug, Clone, Copy)]
pub enum UpwindSource<'a> {
    /// The face lies on the domain boundary: a single prescribed incoming
    /// angular-flux value.
    Boundary(f64),
    /// The face is interior: the neighbour's node-contiguous angular-flux
    /// slice for the same angle and group, together with the neighbour's
    /// face-local node indices (so entry `m` of the face pairs with
    /// `neighbor_psi[neighbor_face_nodes[m]]`).
    Interior {
        /// Neighbour element's angular-flux nodes (all of them).
        neighbor_psi: &'a [f64],
        /// The neighbour's element-local node indices on the shared face,
        /// in the canonical face order.
        neighbor_face_nodes: &'a [usize],
    },
}

/// One inflow-face description handed to the kernel.
#[derive(Debug, Clone, Copy)]
pub struct UpwindFace<'a> {
    /// Face index (0..6) of the element being solved.
    pub face: usize,
    /// Where the upwind flux comes from.
    pub source: UpwindSource<'a>,
}

/// Reusable scratch space for the kernel (one per worker thread).
#[derive(Debug, Clone)]
pub struct KernelScratch {
    /// Local system matrix.
    pub matrix: DenseMatrix,
    /// Right-hand side, overwritten with the solution.
    pub rhs: Vec<f64>,
    /// The element × direction tile of the last tiled assembly.
    tile: GeometryTile,
    /// Single-precision mirror of `matrix`, sized by the first
    /// mixed-precision solve.
    matrix32: Vec<f32>,
    /// Single-precision mirror of `rhs`, likewise.
    rhs32: Vec<f32>,
    /// The systems of a run of groups side by side — matrix entries, then
    /// right-hand sides (solutions once solved), each entry one value per
    /// lane —, sized by the first lane task.
    lanes: Vec<f64>,
    /// Node-major copies of what an assembly reads group-major.
    gather: Vec<f64>,
}

impl KernelScratch {
    /// Allocate scratch for elements with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            matrix: DenseMatrix::zeros(n, n),
            rhs: vec![0.0; n],
            tile: GeometryTile::default(),
            matrix32: Vec::new(),
            rhs32: Vec::new(),
            lanes: Vec::new(),
            gather: Vec::new(),
        }
    }

    /// The fluxes the last task left for its run of `lanes` groups, node
    /// `i` of the run's group `l` at `i * lanes + l`: `rhs` for the one
    /// group of [`KernelEngine::assemble_solve`], the solved lanes of
    /// [`KernelEngine::assemble_solve_lanes`] for more.
    pub fn lane_solution(&self, lanes: usize) -> &[f64] {
        let n = self.rhs.len();
        match lanes {
            1 => &self.rhs,
            _ => &self.lanes[n * n * lanes..][..n * lanes],
        }
    }

    /// The lane matrix and right-hand sides of `lanes` systems.
    fn lane_systems(buffer: &mut Vec<f64>, n: usize, lanes: usize) -> (&mut [f64], &mut [f64]) {
        let len = (n * n + n) * lanes;
        if buffer.len() < len {
            buffer.resize(len, 0.0);
        }
        buffer[..len].split_at_mut(n * n * lanes)
    }
}

/// What the local system of one element and one direction shares across
/// energy groups.
///
/// Every value is computed with the expression [`assemble`] uses for it,
/// so replaying a stored `f64` is indistinguishable from recomputing it.
#[derive(Debug, Clone, Default)]
struct GeometryTile {
    /// `(cache key, Ω bit pattern)` the tile was built for.
    key: Option<(usize, [u64; 3])>,
    /// Streaming tile `Σ_d Ω_d G[d]`, row-major `n × n`.
    streaming: Vec<f64>,
    /// Outflow surface entries `(flat matrix index, f_ij)`, in reference
    /// accumulation order.
    outflow: Vec<(usize, f64)>,
    /// Directed matrices `Σ_d Ω_d F[d]` of the faces, one row-major
    /// `nf × nf` block per face index.
    directed: Vec<f64>,
    /// Which faces' blocks of `directed` hold this key's values.  Blocks
    /// are filled when an inflow face first asks, so a tile pays only for
    /// the faces its callers name.
    directed_ready: u8,
}

impl GeometryTile {
    /// Make this the tile of `cache_key` and `omega`, rebuilding it when
    /// it is another one.
    fn ensure(&mut self, cache_key: usize, integrals: &ElementIntegrals, omega: [f64; 3]) {
        let n = integrals.nodes_per_element();
        let key = (cache_key, omega.map(f64::to_bits));
        if self.key != Some(key) || self.streaming.len() != n * n {
            self.load(key, integrals, omega);
        }
    }

    /// Rebuild the group-independent volume and outflow terms for `key`.
    fn load(&mut self, key: (usize, [u64; 3]), integrals: &ElementIntegrals, omega: [f64; 3]) {
        let n = integrals.nodes_per_element();
        let [gx, gy, gz] = &integrals.stream;
        self.streaming.resize(n * n, 0.0);
        for (i, out) in self.streaming.chunks_exact_mut(n).enumerate() {
            let rows = gx.row(i).iter().zip(gy.row(i)).zip(gz.row(i));
            for (out, ((&x, &y), &z)) in out.iter_mut().zip(rows) {
                // The parenthesised streaming term of `assemble`.
                *out = omega[0] * x + omega[1] * y + omega[2] * z;
            }
        }
        self.outflow.clear();
        for face in &integrals.faces {
            if face.direction_dot_normal(omega) <= 0.0 {
                continue;
            }
            let nf = face.node_indices.len();
            for a in 0..nf {
                let ia = face.node_indices[a];
                for b in 0..nf {
                    let ib = face.node_indices[b];
                    let f_ab = omega[0] * face.matrices[0][(a, b)]
                        + omega[1] * face.matrices[1][(a, b)]
                        + omega[2] * face.matrices[2][(a, b)];
                    self.outflow.push((ia * n + ib, f_ab));
                }
            }
        }
        self.directed_ready = 0;
        self.key = Some(key);
    }

    /// The directed matrix of face `index` for the loaded key.
    fn directed(&mut self, integrals: &ElementIntegrals, omega: [f64; 3], index: usize) -> &[f64] {
        let face = &integrals.faces[index];
        let nf = face.node_indices.len();
        let block = index * nf * nf..(index + 1) * nf * nf;
        if self.directed_ready & (1 << index) == 0 {
            self.directed.resize(integrals.faces.len() * nf * nf, 0.0);
            let [fx, fy, fz] = &face.matrices;
            let entries = fx.as_slice().iter().zip(fy.as_slice()).zip(fz.as_slice());
            for (out, ((&x, &y), &z)) in self.directed[block.clone()].iter_mut().zip(entries) {
                *out = omega[0] * x + omega[1] * y + omega[2] * z;
            }
            self.directed_ready |= 1 << index;
        }
        &self.directed[block]
    }
}

/// Timing breakdown of one kernel invocation (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTiming {
    /// Time spent assembling `A` and `b`.
    pub assemble_ns: u64,
    /// Time spent in the linear solve.
    pub solve_ns: u64,
}

impl KernelTiming {
    /// Accumulate another timing into this one.
    pub fn accumulate(&mut self, other: KernelTiming) {
        self.assemble_ns += other.assemble_ns;
        self.solve_ns += other.solve_ns;
    }

    /// Total kernel time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.assemble_ns + self.solve_ns
    }

    /// Fraction of the kernel time spent in the solve (the "% in solve"
    /// column of Table II).
    pub fn solve_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.solve_ns as f64 / total as f64
        }
    }
}

/// Assemble the local system for one element/angle/group into `scratch`,
/// recomputing every term: the reference the tiled [`assemble_blocked`] is
/// tested against, bit for bit.
///
/// `source_nodes` is the total (fixed + scattering) isotropic source
/// density evaluated at the element nodes.  `upwind` lists every inflow
/// face with its upwind data; outflow faces are read from
/// `integrals.faces` and classified with `omega` internally.
pub fn assemble(
    integrals: &ElementIntegrals,
    omega: [f64; 3],
    sigma_t: f64,
    source_nodes: &[f64],
    upwind: &[UpwindFace<'_>],
    scratch: &mut KernelScratch,
) {
    let n = integrals.nodes_per_element();
    debug_assert_eq!(source_nodes.len(), n);
    debug_assert_eq!(scratch.matrix.rows(), n);

    // Volume terms: A = −Σ_d Ω_d G[d] + σ_t M, b = M q.
    let mass = &integrals.mass;
    let gx = &integrals.stream[0];
    let gy = &integrals.stream[1];
    let gz = &integrals.stream[2];
    for i in 0..n {
        let row_m = mass.row(i);
        let row_x = gx.row(i);
        let row_y = gy.row(i);
        let row_z = gz.row(i);
        let out_row = scratch.matrix.row_mut(i);
        let mut b_i = 0.0;
        for j in 0..n {
            let m_ij = row_m[j];
            out_row[j] =
                sigma_t * m_ij - (omega[0] * row_x[j] + omega[1] * row_y[j] + omega[2] * row_z[j]);
            b_i += m_ij * source_nodes[j];
        }
        scratch.rhs[i] = b_i;
    }

    // Outflow faces contribute to the matrix.
    for face in &integrals.faces {
        if face.direction_dot_normal(omega) <= 0.0 {
            continue;
        }
        let nf = face.node_indices.len();
        for a in 0..nf {
            let ia = face.node_indices[a];
            for b in 0..nf {
                let ib = face.node_indices[b];
                let f_ab = omega[0] * face.matrices[0][(a, b)]
                    + omega[1] * face.matrices[1][(a, b)]
                    + omega[2] * face.matrices[2][(a, b)];
                scratch.matrix[(ia, ib)] += f_ab;
            }
        }
    }

    // Inflow faces contribute the upwind flux to the right-hand side.
    apply_inflow(integrals, omega, upwind, &mut scratch.rhs);
}

/// Apply the inflow-face upwind contributions to the right-hand side,
/// forming every `Ω·F` entry where it is used.
fn apply_inflow(
    integrals: &ElementIntegrals,
    omega: [f64; 3],
    upwind: &[UpwindFace<'_>],
    rhs: &mut [f64],
) {
    for uw in upwind {
        let face = &integrals.faces[uw.face];
        let nf = face.node_indices.len();
        match uw.source {
            UpwindSource::Boundary(value) => {
                if value == 0.0 {
                    continue; // vacuum: nothing to add
                }
                for a in 0..nf {
                    let ia = face.node_indices[a];
                    let mut acc = 0.0;
                    for b in 0..nf {
                        acc += omega[0] * face.matrices[0][(a, b)]
                            + omega[1] * face.matrices[1][(a, b)]
                            + omega[2] * face.matrices[2][(a, b)];
                    }
                    rhs[ia] -= acc * value;
                }
            }
            UpwindSource::Interior {
                neighbor_psi,
                neighbor_face_nodes,
            } => {
                debug_assert_eq!(neighbor_face_nodes.len(), nf);
                for a in 0..nf {
                    let ia = face.node_indices[a];
                    let mut acc = 0.0;
                    for b in 0..nf {
                        let psi_up = neighbor_psi[neighbor_face_nodes[b]];
                        let f_ab = omega[0] * face.matrices[0][(a, b)]
                            + omega[1] * face.matrices[1][(a, b)]
                            + omega[2] * face.matrices[2][(a, b)];
                        acc += f_ab * psi_up;
                    }
                    rhs[ia] -= acc;
                }
            }
        }
    }
}

/// Assemble the local system from the element × direction tile of
/// `scratch`: the assembly every sweep runs.
///
/// `cache_key` identifies the element whose integrals are passed (the
/// sweep passes the global cell id); together with the bits of `omega` it
/// names the tile.  When the tile in `scratch` is another one, the
/// streaming term `Σ_d Ω_d G[d]` and the outflow surface entries are
/// rebuilt with exactly the reference expressions; the directed matrix of
/// an inflow face is built the first time a call names that face.  What is
/// left for a call that finds its tile is the group's own work: `σ_t·M`
/// minus the streaming tile, `M q`, and one matrix-vector product per
/// inflow face.  Every floating-point operation that touches the system
/// matches [`assemble`] in value and in order — a reused `f64` has the
/// same bits as a recomputed one.
pub fn assemble_blocked(
    integrals: &ElementIntegrals,
    omega: [f64; 3],
    sigma_t: f64,
    source_nodes: &[f64],
    upwind: &[UpwindFace<'_>],
    cache_key: usize,
    scratch: &mut KernelScratch,
) {
    debug_assert_eq!(scratch.matrix.rows(), integrals.nodes_per_element());
    assemble_lanes::<1>(
        cache_key,
        integrals,
        omega,
        &[sigma_t],
        source_nodes,
        upwind,
        &mut scratch.tile,
        scratch.matrix.as_mut_slice(),
        &mut scratch.rhs,
        &mut scratch.gather,
    );
}

/// The tiled assembly for `L` groups of one element and direction side by
/// side: entry `(i, j)` of the system of lane `l` lands in
/// `matrix[(i * n + j) * L + l]`, its right-hand side in `rhs[i * L + l]`
/// ([`assemble_blocked`] is the one-lane case).
///
/// `source_nodes` is the `L·n` run of the groups' sources and the
/// `neighbor_psi` of an interior face the `L·n` run of the neighbour's
/// fluxes, group after group as the `angle/element/group` layout stores
/// them; `gather` is working storage.  Every lane is filled from the one
/// tile with the reference expressions in the reference order — its `σ_t`
/// is the only thing a lane's matrix does not share —, so lane `l` holds,
/// bit for bit, the system [`assemble`] assembles for that group.
#[allow(clippy::too_many_arguments)]
fn assemble_lanes<const L: usize>(
    cache_key: usize,
    integrals: &ElementIntegrals,
    omega: [f64; 3],
    sigma_t: &[f64],
    source_nodes: &[f64],
    upwind: &[UpwindFace<'_>],
    tile: &mut GeometryTile,
    matrix: &mut [f64],
    rhs: &mut [f64],
    gather: &mut Vec<f64>,
) {
    let n = integrals.nodes_per_element();
    debug_assert_eq!(source_nodes.len(), L * n);
    tile.ensure(cache_key, integrals, omega);
    let sigma_t: &[f64; L] = sigma_t.try_into().expect("one cross section per lane");
    let (matrix, _) = matrix.as_chunks_mut::<L>();
    let (rhs, _) = rhs.as_chunks_mut::<L>();
    if gather.len() < n * L {
        gather.resize(n * L, 0.0);
    }
    let (gather, _) = gather[..n * L].as_chunks_mut::<L>();

    // σ_t·M minus the streaming tile and b = M q, in the reference
    // operation order (one multiply, one subtract per entry) — from
    // node-major copies of the sources, so that every loop runs across
    // the lanes with unit stride.
    for (j, q_j) in gather.iter_mut().enumerate() {
        for (l, q) in q_j.iter_mut().enumerate() {
            *q = source_nodes[l * n + j];
        }
    }
    let rows = matrix
        .chunks_exact_mut(n)
        .zip(tile.streaming.chunks_exact(n));
    for ((i, b_i), (out_row, row_s)) in rhs.iter_mut().enumerate().zip(rows) {
        let mut acc = [0.0; L];
        let entries = integrals.mass.row(i).iter().zip(row_s).zip(&*gather);
        for (out, ((&m_ij, &s_ij), q_j)) in out_row.iter_mut().zip(entries) {
            for l in 0..L {
                out[l] = sigma_t[l] * m_ij - s_ij;
                acc[l] += m_ij * q_j[l];
            }
        }
        *b_i = acc;
    }
    for &(entry, f_ab) in &tile.outflow {
        for out in &mut matrix[entry] {
            *out += f_ab;
        }
    }

    // Inflow faces: the upwind flux is the group's, the face matrix the
    // tile's.
    for uw in upwind {
        if matches!(uw.source, UpwindSource::Boundary(value) if value == 0.0) {
            continue; // vacuum: nothing to add
        }
        let face_nodes = &integrals.faces[uw.face].node_indices;
        let nf = face_nodes.len();
        let rows = tile.directed(integrals, omega, uw.face).chunks_exact(nf);
        match uw.source {
            UpwindSource::Boundary(value) => {
                // The prescribed inflow is the same for every group.
                for (&ia, row) in face_nodes.iter().zip(rows) {
                    let mut acc = 0.0;
                    for &f_ab in row {
                        acc += f_ab;
                    }
                    let inflow = acc * value;
                    for b in &mut rhs[ia] {
                        *b -= inflow;
                    }
                }
            }
            UpwindSource::Interior {
                neighbor_psi,
                neighbor_face_nodes,
            } => {
                debug_assert_eq!(neighbor_face_nodes.len(), nf);
                for (up, &node) in gather.iter_mut().zip(neighbor_face_nodes) {
                    for (l, psi) in up.iter_mut().enumerate() {
                        *psi = neighbor_psi[l * n + node];
                    }
                }
                for (&ia, row) in face_nodes.iter().zip(rows) {
                    let mut acc = [0.0; L];
                    for (&f_ab, up) in row.iter().zip(&*gather) {
                        for l in 0..L {
                            acc[l] += f_ab * up[l];
                        }
                    }
                    for l in 0..L {
                        rhs[ia][l] -= acc[l];
                    }
                }
            }
        }
    }
}

/// [`assemble_lanes`] at one lane count.
type AssembleLanes = fn(
    usize,
    &ElementIntegrals,
    [f64; 3],
    &[f64],
    &[f64],
    &[UpwindFace<'_>],
    &mut GeometryTile,
    &mut [f64],
    &mut [f64],
    &mut Vec<f64>,
);

/// Assemble with the reference [`assemble`] and solve one local system,
/// returning the timing breakdown: the seed task, kept as the oracle for
/// [`KernelEngine::assemble_solve`].
///
/// On return `scratch.rhs` holds the nodal angular flux of the element for
/// this angle and group.  When `time_solve` is false both phases are
/// reported under `assemble_ns` with `solve_ns = 0`.  Either way the clock
/// is read around the task; only the engine's untimed path reads none.
#[allow(clippy::too_many_arguments)]
pub fn assemble_solve(
    integrals: &ElementIntegrals,
    omega: [f64; 3],
    sigma_t: f64,
    source_nodes: &[f64],
    upwind: &[UpwindFace<'_>],
    solver: &dyn LinearSolver,
    time_solve: bool,
    scratch: &mut KernelScratch,
) -> KernelTiming {
    if time_solve {
        let t0 = Instant::now();
        assemble(integrals, omega, sigma_t, source_nodes, upwind, scratch);
        let assemble_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        solver
            .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
            .expect("local DG system should be non-singular");
        let solve_ns = t1.elapsed().as_nanos() as u64;
        KernelTiming {
            assemble_ns,
            solve_ns,
        }
    } else {
        let t0 = Instant::now();
        assemble(integrals, omega, sigma_t, source_nodes, upwind, scratch);
        solver
            .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
            .expect("local DG system should be non-singular");
        KernelTiming {
            assemble_ns: t0.elapsed().as_nanos() as u64,
            solve_ns: 0,
        }
    }
}

/// Solve the assembled system in single precision.
///
/// Casts `scratch.matrix`/`scratch.rhs` down to `f32`, runs an in-place
/// Gaussian elimination with partial pivoting, and writes the widened
/// solution back into `scratch.rhs`.  The assembly stays in `f64` (same
/// operation order as the selected kernel); only the storage and the
/// elimination arithmetic are single precision, mirroring the paper's
/// mixed-precision sweep variant.
fn solve_f32_in_place(scratch: &mut KernelScratch) {
    let n = scratch.rhs.len();
    scratch.matrix32.resize(n * n, 0.0);
    scratch.rhs32.resize(n, 0.0);
    for i in 0..n {
        let row = scratch.matrix.row(i);
        for j in 0..n {
            scratch.matrix32[i * n + j] = row[j] as f32;
        }
        scratch.rhs32[i] = scratch.rhs[i] as f32;
    }
    let a = &mut scratch.matrix32;
    let b = &mut scratch.rhs32;
    for col in 0..n {
        // Partial pivoting: largest |a[row][col]| among the remaining rows.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let mag = a[row * n + col].abs();
            if mag > best {
                best = mag;
                pivot = row;
            }
        }
        assert!(best > 0.0, "local DG system should be non-singular");
        if pivot != col {
            for j in col..n {
                a.swap(col * n + j, pivot * n + j);
            }
            b.swap(col, pivot);
        }
        let inv = 1.0 / a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for j in (col + 1)..n {
                a[row * n + j] -= factor * a[col * n + j];
            }
            b[row] -= factor * b[col];
        }
    }
    for col in (0..n).rev() {
        let mut acc = b[col];
        for j in (col + 1)..n {
            acc -= a[col * n + j] * b[j];
        }
        b[col] = acc / a[col * n + col];
    }
    for i in 0..n {
        scratch.rhs[i] = scratch.rhs32[i] as f64;
    }
}

/// The kernel-engine seam: how one local task is assembled and solved,
/// resolved once per solver from
/// [`Problem::kernel`](crate::problem::Problem) and
/// [`Problem::precision`](crate::problem::Problem).
///
/// Every engine assembles with [`assemble_blocked`].  At `F64` precision
/// the result is the free [`assemble_solve`]'s, bit for bit; `Mixed`
/// swaps the dense solve for an in-place `f32` partial-pivot elimination
/// while outer iterations stay `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelEngine {
    kind: KernelKind,
    precision: Precision,
}

impl KernelEngine {
    /// Build an engine from the two knobs.
    pub fn new(kind: KernelKind, precision: Precision) -> Self {
        Self { kind, precision }
    }

    /// The kernel label the engine was built with.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The selected solve precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Assemble and solve one local system through the engine.
    ///
    /// `cache_key` must identify the element deterministically across
    /// runs (the solvers pass the element's mesh index); the assembly
    /// keys its tile on it.  In mixed precision the `solver` argument is
    /// bypassed — the engine's built-in `f32` partial-pivot elimination
    /// runs instead.
    ///
    /// With `time_solve` the clock is read around both phases (Table II's
    /// per-task split).  Without it no clock is read and the timing is
    /// zero: a caller that wants the time spent in tasks times a run of
    /// them, as the sweep does per worker chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_solve(
        &self,
        cache_key: usize,
        integrals: &ElementIntegrals,
        omega: [f64; 3],
        sigma_t: f64,
        source_nodes: &[f64],
        upwind: &[UpwindFace<'_>],
        solver: &dyn LinearSolver,
        time_solve: bool,
        scratch: &mut KernelScratch,
    ) -> KernelTiming {
        let started = time_solve.then(Instant::now);
        assemble_blocked(
            integrals,
            omega,
            sigma_t,
            source_nodes,
            upwind,
            cache_key,
            scratch,
        );
        let assembled = time_solve.then(Instant::now);
        match self.precision {
            Precision::F64 => solver
                .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
                .expect("local DG system should be non-singular"),
            Precision::Mixed => solve_f32_in_place(scratch),
        }
        match (started, assembled) {
            (Some(started), Some(assembled)) => KernelTiming {
                assemble_ns: (assembled - started).as_nanos() as u64,
                solve_ns: assembled.elapsed().as_nanos() as u64,
            },
            _ => KernelTiming::default(),
        }
    }

    /// The group-run lengths [`KernelEngine::assemble_solve_lanes`] solves
    /// in lockstep for elements of `n` nodes, widest first: `solver`'s, in
    /// full precision; none — every group is then its own task — in mixed
    /// precision, whose `f32` elimination is not the solver's.
    pub fn lane_widths(&self, n: usize, solver: &dyn LinearSolver) -> &'static [usize] {
        match self.precision {
            Precision::F64 => solver.lane_widths(n),
            Precision::Mixed => &[],
        }
    }

    /// Assemble and solve the local systems of `sigma_t.len()` consecutive
    /// groups of one element and direction, leaving their fluxes in
    /// [`KernelScratch::lane_solution`] — each bit for bit what
    /// [`KernelEngine::assemble_solve`] leaves in `scratch.rhs` for that
    /// group.
    ///
    /// `sigma_t` has one total cross section per group, `source_nodes` is
    /// the groups' `n`-node sources one after another, and so is the
    /// `neighbor_psi` of every interior face — the runs the
    /// `angle/element/group` layout stores.  A run whose length is one of
    /// [`KernelEngine::lane_widths`] is assembled side by side from the
    /// one tile and eliminated in lockstep.  The groups of any other run,
    /// and of one whose systems pivot on different rows
    /// ([`LinalgError::Diverged`]: the tile and the inputs are untouched,
    /// so nothing needs restoring), go through
    /// [`KernelEngine::assemble_solve`] one by one.  No clock is read.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_solve_lanes(
        &self,
        cache_key: usize,
        integrals: &ElementIntegrals,
        omega: [f64; 3],
        sigma_t: &[f64],
        source_nodes: &[f64],
        upwind: &[UpwindFace<'_>],
        solver: &dyn LinearSolver,
        scratch: &mut KernelScratch,
    ) {
        let n = integrals.nodes_per_element();
        let lanes = sigma_t.len();
        debug_assert_eq!(source_nodes.len(), lanes * n);
        let assemble: Option<AssembleLanes> = match lanes {
            _ if !self.lane_widths(n, solver).contains(&lanes) => None,
            16 => Some(assemble_lanes::<16>),
            4 => Some(assemble_lanes::<4>),
            _ => None,
        };
        let (matrix, rhs) = KernelScratch::lane_systems(&mut scratch.lanes, n, lanes);
        if let Some(assemble) = assemble {
            assemble(
                cache_key,
                integrals,
                omega,
                sigma_t,
                source_nodes,
                upwind,
                &mut scratch.tile,
                matrix,
                rhs,
                &mut scratch.gather,
            );
            match solver.solve_lanes_in_place(n, lanes, matrix, rhs) {
                Ok(()) => return,
                Err(LinalgError::Diverged { .. }) => {}
                Err(error) => panic!("local DG system should be non-singular: {error}"),
            }
        }
        let mut faces = [UpwindFace {
            face: 0,
            source: UpwindSource::Boundary(0.0),
        }; FACES.len()];
        for (l, &sigma_t) in sigma_t.iter().enumerate() {
            let group = l * n..(l + 1) * n;
            for (face, uw) in faces.iter_mut().zip(upwind) {
                *face = *uw;
                if let UpwindSource::Interior { neighbor_psi, .. } = &mut face.source {
                    *neighbor_psi = &neighbor_psi[group.clone()];
                }
            }
            self.assemble_solve(
                cache_key,
                integrals,
                omega,
                sigma_t,
                &source_nodes[group],
                &faces[..upwind.len()],
                solver,
                false,
                scratch,
            );
            let (_, solution) = KernelScratch::lane_systems(&mut scratch.lanes, n, lanes);
            for (i, &psi) in scratch.rhs.iter().enumerate() {
                solution[i * lanes + l] = psi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_fem::element::ReferenceElement;
    use unsnap_fem::face::{face_node_indices, Face};
    use unsnap_fem::geometry::HexVertices;
    use unsnap_linalg::{GaussSolver, SolverKind};

    fn unit_integrals(order: usize) -> ElementIntegrals {
        ElementIntegrals::compute(&ReferenceElement::new(order), &HexVertices::unit_cube())
    }

    /// Inflow faces for a constant incoming flux on every inflow boundary.
    fn boundary_upwind(
        integrals: &ElementIntegrals,
        omega: [f64; 3],
        value: f64,
    ) -> Vec<UpwindFace<'static>> {
        FACES
            .iter()
            .filter(|f| integrals.face(**f).direction_dot_normal(omega) < 0.0)
            .map(|f| UpwindFace {
                face: f.index(),
                source: UpwindSource::Boundary(value),
            })
            .collect()
    }

    #[test]
    fn constant_solution_is_reproduced_exactly() {
        // If the incoming flux is the constant C on every inflow face and
        // the source is σ_t·C (so scattering + source balance collisions
        // for a flat solution), then ψ ≡ C solves the transport equation
        // and the DG discretisation must reproduce it to round-off.
        for order in [1usize, 2] {
            let integrals = unit_integrals(order);
            let n = integrals.nodes_per_element();
            let sigma_t = 1.7;
            let c = 2.5;
            let omega = [0.48, 0.62, 0.6208];
            let source = vec![sigma_t * c; n];
            let upwind = boundary_upwind(&integrals, omega, c);
            let mut scratch = KernelScratch::new(n);
            let solver = GaussSolver::new();
            assemble_solve(
                &integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                &solver,
                false,
                &mut scratch,
            );
            for (i, &psi) in scratch.rhs.iter().enumerate() {
                assert!(
                    (psi - c).abs() < 1e-10,
                    "order {order}, node {i}: ψ = {psi}, expected {c}"
                );
            }
        }
    }

    #[test]
    fn linear_solution_is_reproduced_exactly() {
        // Manufactured solution ψ(x) = a·x + b with source
        // q = Ω·a + σ_t ψ; linear elements reproduce it exactly when the
        // incoming boundary data is exact.
        let order = 1;
        let element = ReferenceElement::new(order);
        let hex = HexVertices::axis_aligned([0.0; 3], [1.0, 1.0, 1.0]);
        let integrals = ElementIntegrals::compute(&element, &hex);
        let n = integrals.nodes_per_element();
        let a = [0.3, -0.2, 0.5];
        let b = 2.0;
        let psi_exact = |x: [f64; 3]| a[0] * x[0] + a[1] * x[1] + a[2] * x[2] + b;
        let omega = [0.58, 0.55, 0.6];
        let sigma_t = 1.3;
        let omega_dot_a = omega[0] * a[0] + omega[1] * a[1] + omega[2] * a[2];

        // Node coordinates of the element (reference [-1,1]³ → unit cube).
        let node_x: Vec<[f64; 3]> = element
            .node_coordinates()
            .iter()
            .map(|xi| hex.map(*xi))
            .collect();
        let source: Vec<f64> = node_x
            .iter()
            .map(|&x| omega_dot_a + sigma_t * psi_exact(x))
            .collect();

        // Upwind data: the exact solution on the inflow faces.  We need a
        // "neighbour" whose face nodes carry the exact values; use this
        // element itself as the fake neighbour (geometry matches since the
        // trace is the same).
        let exact_nodes: Vec<f64> = node_x.iter().map(|&x| psi_exact(x)).collect();
        let mut face_nodes_store: Vec<Vec<usize>> = Vec::new();
        for f in &FACES {
            face_nodes_store.push(face_node_indices(*f, order));
        }
        let mut upwind = Vec::new();
        for f in &FACES {
            if integrals.face(*f).direction_dot_normal(omega) < 0.0 {
                upwind.push(UpwindFace {
                    face: f.index(),
                    source: UpwindSource::Interior {
                        neighbor_psi: &exact_nodes,
                        neighbor_face_nodes: &face_nodes_store[f.index()],
                    },
                });
            }
        }

        let mut scratch = KernelScratch::new(n);
        let solver = GaussSolver::new();
        assemble_solve(
            &integrals,
            omega,
            sigma_t,
            &source,
            &upwind,
            &solver,
            false,
            &mut scratch,
        );
        for (i, &psi) in scratch.rhs.iter().enumerate() {
            let expected = psi_exact(node_x[i]);
            assert!(
                (psi - expected).abs() < 1e-9,
                "node {i}: ψ = {psi}, expected {expected}"
            );
        }
    }

    #[test]
    fn all_backends_agree_on_the_same_system() {
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [-0.51, 0.62, -0.59];
        let sigma_t = 2.0;
        let source = vec![1.0; n];
        let upwind = boundary_upwind(&integrals, omega, 0.3);
        let mut reference: Option<Vec<f64>> = None;
        for kind in SolverKind::all() {
            let solver = kind.build();
            let mut scratch = KernelScratch::new(n);
            assemble_solve(
                &integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                solver.as_ref(),
                false,
                &mut scratch,
            );
            match &reference {
                None => reference = Some(scratch.rhs.clone()),
                Some(r) => {
                    for (a, b) in r.iter().zip(scratch.rhs.iter()) {
                        assert!((a - b).abs() < 1e-9, "{kind} disagrees");
                    }
                }
            }
        }
    }

    #[test]
    fn vacuum_boundaries_with_positive_source_give_positive_flux() {
        let integrals = unit_integrals(1);
        let n = integrals.nodes_per_element();
        let omega = [0.7, 0.5, 0.51];
        let source = vec![1.0; n];
        let upwind = boundary_upwind(&integrals, omega, 0.0);
        let mut scratch = KernelScratch::new(n);
        let solver = GaussSolver::new();
        assemble_solve(
            &integrals,
            omega,
            1.0,
            &source,
            &upwind,
            &solver,
            true,
            &mut scratch,
        );
        // Mean flux is positive and below the infinite-medium limit q/σ_t.
        let mean: f64 = scratch.rhs.iter().sum::<f64>() / n as f64;
        assert!(mean > 0.0);
        assert!(mean < 1.0 + 1e-12);
    }

    #[test]
    fn timing_split_reports_both_phases() {
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [0.6, 0.58, 0.55];
        let source = vec![1.0; n];
        let upwind = boundary_upwind(&integrals, omega, 0.0);
        let solver = GaussSolver::new();
        let mut scratch = KernelScratch::new(n);
        let t = assemble_solve(
            &integrals,
            omega,
            1.0,
            &source,
            &upwind,
            &solver,
            true,
            &mut scratch,
        );
        assert!(t.assemble_ns > 0);
        assert!(t.solve_ns > 0);
        assert_eq!(t.total_ns(), t.assemble_ns + t.solve_ns);
        assert!(t.solve_fraction() > 0.0 && t.solve_fraction() < 1.0);

        let untimed = assemble_solve(
            &integrals,
            omega,
            1.0,
            &source,
            &upwind,
            &solver,
            false,
            &mut scratch,
        );
        assert_eq!(untimed.solve_ns, 0);
        assert!(untimed.assemble_ns > 0);
    }

    #[test]
    fn timing_accumulation() {
        let mut total = KernelTiming::default();
        total.accumulate(KernelTiming {
            assemble_ns: 10,
            solve_ns: 30,
        });
        total.accumulate(KernelTiming {
            assemble_ns: 5,
            solve_ns: 5,
        });
        assert_eq!(total.assemble_ns, 15);
        assert_eq!(total.solve_ns, 35);
        assert_eq!(total.total_ns(), 50);
        assert!((total.solve_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(KernelTiming::default().solve_fraction(), 0.0);
    }

    #[test]
    fn kernel_kind_round_trips_through_strings() {
        for kind in KernelKind::all() {
            let parsed: KernelKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!("soa".parse::<KernelKind>(), Ok(KernelKind::Blocked));
        assert_eq!("REF".parse::<KernelKind>(), Ok(KernelKind::Reference));
        assert!("vectorised".parse::<KernelKind>().is_err());
        assert_eq!(KernelKind::default(), KernelKind::Reference);
    }

    /// How the inflow faces of a test call get their upwind flux.
    #[derive(Debug, Clone, Copy)]
    enum Inflow {
        /// A prescribed boundary value (0 = vacuum).
        Boundary(f64),
        /// A neighbour whose flux varies over the face.
        Interior,
        /// A neighbour read from an empty halo: all zeros.
        ZeroHalo,
    }

    /// Require two assembled systems to agree in every bit.
    fn assert_same_system(reference: &KernelScratch, tiled: &KernelScratch, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(reference.matrix.as_slice()),
            bits(tiled.matrix.as_slice()),
            "{what}: matrix"
        );
        assert_eq!(bits(&reference.rhs), bits(&tiled.rhs), "{what}: rhs");
    }

    #[test]
    fn tiled_assembly_is_bit_for_bit_the_reference_under_key_churn() {
        for order in [1usize, 2, 3] {
            let element = ReferenceElement::new(order);
            // Two elements: the unit cube and a sheared, stretched one.
            let mut sheared = HexVertices::axis_aligned([0.0; 3], [1.0, 0.7, 1.3]);
            sheared.corners[6][0] += 0.05;
            sheared.corners[2][1] -= 0.04;
            let elements = [
                ElementIntegrals::compute(&element, &HexVertices::unit_cube()),
                ElementIntegrals::compute(&element, &sheared),
            ];
            let n = elements[0].nodes_per_element();
            let face_nodes: Vec<Vec<usize>> =
                FACES.iter().map(|f| face_node_indices(*f, order)).collect();
            let varying: Vec<f64> = (0..n).map(|i| 0.3 + 0.07 * i as f64).collect();
            let zeros = vec![0.0; n];
            let omegas = [[0.48, 0.62, 0.6208], [-0.51, 0.62, -0.59]];

            // (element, Ω, group, inflow): each step changes one thing.
            // The last four keep the key and swap the inflow description,
            // as a scratch does when a second domain (another owner of
            // the neighbours, another halo) solves on the same cell.
            let steps = [
                (0, 0, 0, Inflow::Interior),      // cold scratch
                (0, 0, 1, Inflow::Interior),      // same key, new σ_t and source
                (1, 0, 1, Inflow::Interior),      // element changes, Ω fixed
                (1, 1, 1, Inflow::Interior),      // Ω changes, element fixed
                (1, 1, 2, Inflow::Boundary(0.7)), // same key from here on
                (1, 1, 2, Inflow::Boundary(0.0)),
                (1, 1, 2, Inflow::ZeroHalo),
                (1, 1, 0, Inflow::Interior),
                (0, 1, 0, Inflow::Boundary(0.7)), // back to the first element
            ];
            let mut reference = KernelScratch::new(n);
            let mut tiled = KernelScratch::new(n);
            for (step, &(cell, direction, g, inflow)) in steps.iter().enumerate() {
                let integrals = &elements[cell];
                let omega = omegas[direction];
                let sigma_t = 1.1 + 0.4 * g as f64;
                let source: Vec<f64> = (0..n)
                    .map(|i| 0.25 + (i as f64) * 0.013 + g as f64)
                    .collect();
                let upwind: Vec<UpwindFace<'_>> = FACES
                    .iter()
                    .filter(|f| integrals.face(**f).direction_dot_normal(omega) < 0.0)
                    .map(|f| UpwindFace {
                        face: f.index(),
                        source: match inflow {
                            Inflow::Boundary(value) => UpwindSource::Boundary(value),
                            Inflow::Interior => UpwindSource::Interior {
                                neighbor_psi: &varying,
                                neighbor_face_nodes: &face_nodes[f.opposite().index()],
                            },
                            Inflow::ZeroHalo => UpwindSource::Interior {
                                neighbor_psi: &zeros,
                                neighbor_face_nodes: &face_nodes[f.opposite().index()],
                            },
                        },
                    })
                    .collect();
                assert_eq!(upwind.len(), 3);
                assemble(integrals, omega, sigma_t, &source, &upwind, &mut reference);
                assemble_blocked(
                    integrals, omega, sigma_t, &source, &upwind, cell, &mut tiled,
                );
                assert_same_system(&reference, &tiled, &format!("order {order}, step {step}"));
            }
        }
    }

    #[test]
    fn lane_task_stores_the_per_group_bits_under_key_churn() {
        let element = ReferenceElement::new(1);
        let mut sheared = HexVertices::axis_aligned([0.0; 3], [1.0, 0.7, 1.3]);
        sheared.corners[6][0] += 0.05;
        sheared.corners[2][1] -= 0.04;
        // Real order-1 matrices never swap rows.  A mass matrix whose
        // entry (1, 0) is three times the diagonal makes row 1 the pivot
        // of column 0 once σ_t is large, so a run that mixes small and
        // large cross sections cannot share a row permutation.
        let mut swapping = ElementIntegrals::compute(&element, &sheared);
        swapping.mass[(1, 0)] = 3.0 * swapping.mass[(0, 0)];
        let elements = [
            ElementIntegrals::compute(&element, &HexVertices::unit_cube()),
            swapping,
        ];
        let n = 8;
        let face_nodes: Vec<Vec<usize>> = FACES.iter().map(|f| face_node_indices(*f, 1)).collect();
        let varying: Vec<f64> = (0..16 * n).map(|i| 0.3 + 0.07 * (i % 29) as f64).collect();
        let zeros = vec![0.0; 16 * n];
        let source: Vec<f64> = (0..16 * n)
            .map(|i| 0.25 + 0.013 * (i % 37) as f64)
            .collect();
        let omegas = [[0.48, 0.62, 0.6208], [-0.51, 0.62, -0.59]];
        let alike: Vec<f64> = (0..16).map(|g| 40.0 + 0.4 * g as f64).collect();
        let apart: Vec<f64> = (0..16)
            .map(|g| [0.01, 60.0][g % 2] * (1.0 + 0.01 * g as f64))
            .collect();
        let solver = GaussSolver::new();

        // The synthetic element does what it was made for: its lanes part
        // at column 0 when the cross sections do, and only then.
        for (sigma_t, diverged) in [(&alike, false), (&apart, true)] {
            let mut scratch = KernelScratch::new(n);
            let (matrix, rhs) = KernelScratch::lane_systems(&mut scratch.lanes, n, 4);
            assemble_lanes::<4>(
                1,
                &elements[1],
                omegas[0],
                &sigma_t[..4],
                &source[..4 * n],
                &[],
                &mut scratch.tile,
                matrix,
                rhs,
                &mut scratch.gather,
            );
            let solved = solver.solve_lanes_in_place(n, 4, matrix, rhs);
            let expected = if diverged {
                Err(LinalgError::Diverged { column: 0 })
            } else {
                Ok(())
            };
            assert_eq!(solved, expected);
        }

        // (element, Ω, cross sections, inflow), as in the tiled-assembly
        // test: each step changes one thing, and the scratches live on.
        let steps = [
            (0, 0, &alike, Inflow::Interior),
            (1, 0, &alike, Inflow::Interior),
            (1, 0, &apart, Inflow::Interior),
            (1, 1, &apart, Inflow::Boundary(0.7)),
            (1, 1, &alike, Inflow::Boundary(0.0)),
            (1, 1, &apart, Inflow::ZeroHalo),
            (0, 1, &apart, Inflow::Interior),
            (0, 0, &alike, Inflow::Boundary(0.7)),
        ];
        for precision in Precision::all() {
            let engine = KernelEngine::new(KernelKind::Reference, precision);
            let mut grouped = KernelScratch::new(n);
            let mut lanes_scratch = KernelScratch::new(n);
            for (step, &(cell, direction, sigma_t, inflow)) in steps.iter().enumerate() {
                let integrals = &elements[cell];
                let omega = omegas[direction];
                // 16 and 4 run in lockstep (at full precision), 5 and 1 do not.
                for (first, lanes) in [(0, 16), (3, 4), (9, 5), (15, 1)] {
                    let run = first * n..(first + lanes) * n;
                    let upwind: Vec<UpwindFace<'_>> = FACES
                        .iter()
                        .filter(|f| integrals.face(**f).direction_dot_normal(omega) < 0.0)
                        .map(|f| UpwindFace {
                            face: f.index(),
                            source: match inflow {
                                Inflow::Boundary(value) => UpwindSource::Boundary(value),
                                Inflow::Interior => UpwindSource::Interior {
                                    neighbor_psi: &varying[run.clone()],
                                    neighbor_face_nodes: &face_nodes[f.opposite().index()],
                                },
                                Inflow::ZeroHalo => UpwindSource::Interior {
                                    neighbor_psi: &zeros[run.clone()],
                                    neighbor_face_nodes: &face_nodes[f.opposite().index()],
                                },
                            },
                        })
                        .collect();
                    engine.assemble_solve_lanes(
                        cell,
                        integrals,
                        omega,
                        &sigma_t[first..first + lanes],
                        &source[run.clone()],
                        &upwind,
                        &solver,
                        &mut lanes_scratch,
                    );
                    for l in 0..lanes {
                        let group = run.start + l * n..run.start + (l + 1) * n;
                        let upwind: Vec<UpwindFace<'_>> = upwind
                            .iter()
                            .map(|uw| UpwindFace {
                                face: uw.face,
                                source: match uw.source {
                                    UpwindSource::Interior {
                                        neighbor_psi,
                                        neighbor_face_nodes,
                                    } => UpwindSource::Interior {
                                        neighbor_psi: &neighbor_psi[l * n..(l + 1) * n],
                                        neighbor_face_nodes,
                                    },
                                    boundary => boundary,
                                },
                            })
                            .collect();
                        engine.assemble_solve(
                            cell,
                            integrals,
                            omega,
                            sigma_t[first + l],
                            &source[group],
                            &upwind,
                            &solver,
                            false,
                            &mut grouped,
                        );
                        let solved = lanes_scratch.lane_solution(lanes);
                        for (i, psi) in grouped.rhs.iter().enumerate() {
                            assert!(psi.is_finite());
                            assert_eq!(
                                psi.to_bits(),
                                solved[i * lanes + l].to_bits(),
                                "{precision}, step {step}, {lanes} lanes: group {l}, node {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_assembly_serves_a_face_first_named_after_the_tile_was_built() {
        // The directed matrix of an inflow face is built when a call first
        // names the face: a later call under the same key that names more
        // faces must not read a block nobody filled.
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [0.48, 0.62, 0.6208];
        let source = vec![1.0; n];
        let all = boundary_upwind(&integrals, omega, 0.7);
        let mut reference = KernelScratch::new(n);
        let mut tiled = KernelScratch::new(n);
        for upwind in [&all[..1], &all[..], &all[1..]] {
            assemble(&integrals, omega, 1.3, &source, upwind, &mut reference);
            assemble_blocked(&integrals, omega, 1.3, &source, upwind, 0, &mut tiled);
            assert_same_system(&reference, &tiled, &format!("{} faces", upwind.len()));
        }
    }

    #[test]
    fn engine_reads_the_clock_only_when_asked() {
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [0.6, 0.58, 0.55];
        let source = vec![1.0; n];
        let upwind = boundary_upwind(&integrals, omega, 0.0);
        let solver = GaussSolver::new();
        let engine = KernelEngine::default();
        let mut scratch = KernelScratch::new(n);
        let mut task = |time_solve| {
            engine.assemble_solve(
                0,
                &integrals,
                omega,
                1.0,
                &source,
                &upwind,
                &solver,
                time_solve,
                &mut scratch,
            )
        };
        assert_eq!(task(false), KernelTiming::default());
        let timed = task(true);
        assert!(timed.assemble_ns > 0 && timed.solve_ns > 0);
    }

    #[test]
    fn engine_reference_f64_matches_the_free_function_bit_for_bit() {
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [0.6, 0.58, 0.55];
        let source = vec![1.0; n];
        let upwind = boundary_upwind(&integrals, omega, 0.4);
        let solver = GaussSolver::new();
        let mut free = KernelScratch::new(n);
        assemble_solve(
            &integrals, omega, 1.3, &source, &upwind, &solver, false, &mut free,
        );
        for kind in KernelKind::all() {
            let engine = KernelEngine::new(kind, Precision::F64);
            let mut scratch = KernelScratch::new(n);
            engine.assemble_solve(
                7,
                &integrals,
                omega,
                1.3,
                &source,
                &upwind,
                &solver,
                false,
                &mut scratch,
            );
            for i in 0..n {
                assert_eq!(
                    free.rhs[i].to_bits(),
                    scratch.rhs[i].to_bits(),
                    "{kind}: node {i}"
                );
            }
        }
    }

    #[test]
    fn mixed_precision_solution_stays_within_single_precision_tolerance() {
        // The f32 solve must land within a few f32 ulps of the f64 flux
        // on a well-conditioned local system, for both kernels.
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [0.48, 0.62, 0.6208];
        let sigma_t = 1.7;
        let c = 2.5;
        let source = vec![sigma_t * c; n];
        let upwind = boundary_upwind(&integrals, omega, c);
        let solver = GaussSolver::new();
        let mut exact = KernelScratch::new(n);
        assemble_solve(
            &integrals, omega, sigma_t, &source, &upwind, &solver, false, &mut exact,
        );
        for kind in KernelKind::all() {
            let engine = KernelEngine::new(kind, Precision::Mixed);
            assert_eq!(engine.precision(), Precision::Mixed);
            let mut scratch = KernelScratch::new(n);
            engine.assemble_solve(
                0,
                &integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                &solver,
                false,
                &mut scratch,
            );
            for i in 0..n {
                let rel = (scratch.rhs[i] - exact.rhs[i]).abs() / exact.rhs[i].abs();
                assert!(
                    rel < 1e-5,
                    "{kind}: node {i} relative error {rel} exceeds f32 tolerance"
                );
                // And the result really is f32-representable storage.
                assert_eq!(scratch.rhs[i], scratch.rhs[i] as f32 as f64);
            }
        }
    }

    #[test]
    fn upwind_neighbor_mapping_uses_neighbor_face_nodes() {
        // Give the fake neighbour a flux that varies across its face and
        // check the kernel picks up the values at the matching positions:
        // feeding the *same* values through a boundary-style constant would
        // change the answer, so a mismatch in the mapping is detectable.
        let order = 1;
        let integrals = unit_integrals(order);
        let n = integrals.nodes_per_element();
        let omega = [0.9, 0.3, 0.31];
        let sigma_t = 1.0;
        let source = vec![0.0; n];

        // Upwind only through the x- face; neighbour flux varies with y, z.
        let neighbor_face_nodes = face_node_indices(Face::XPlus, order);
        let mut neighbor_psi = vec![0.0; n];
        for (m, &idx) in neighbor_face_nodes.iter().enumerate() {
            neighbor_psi[idx] = 1.0 + m as f64;
        }
        let upwind = vec![UpwindFace {
            face: Face::XMinus.index(),
            source: UpwindSource::Interior {
                neighbor_psi: &neighbor_psi,
                neighbor_face_nodes: &neighbor_face_nodes,
            },
        }];
        let mut scratch = KernelScratch::new(n);
        let solver = GaussSolver::new();
        assemble_solve(
            &integrals,
            omega,
            sigma_t,
            &source,
            &upwind,
            &solver,
            false,
            &mut scratch,
        );
        // The incoming flux increases with the face-node index, i.e. with
        // y and z; the downstream solution must preserve that ordering at
        // the inflow-face nodes.
        let my_face_nodes = face_node_indices(Face::XMinus, order);
        let vals: Vec<f64> = my_face_nodes.iter().map(|&i| scratch.rhs[i]).collect();
        assert!(vals.windows(2).all(|w| w[1] > w[0]), "{vals:?}");
        assert!(vals.iter().all(|&v| v > 0.0));
    }
}
