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
//! recomputes everything for every call from an [`ElementIntegrals`].  The
//! other is the tiled assembly every sweep runs
//! ([`KernelEngine::assemble_solve_lanes`], whose runs go through
//! `assemble_lanes`): what depends only on the element and the direction
//! (`Ω·G`, `Ω·F` of all six faces, which faces are outflow) is built in one
//! pass into a tile from the element's block of the solver's
//! [`IntegralStore`] (one contiguous read per element, [`IntegralBlock`]),
//! so a run whose element and direction match the previous one does only
//! the groups' work; and `b = M q`, which no angle changes, is the sweep's
//! [`source_term`], formed once per source update.  The tile and the lane
//! assembly are one body, compiled for the element sizes of orders 1–3
//! (n = 8, 27, 64: the sizes the dense solver has fixed-size eliminations
//! for) and for a size read at run time otherwise, and they read face nodes
//! from the order's table ([`FaceNodes`]).
//!
//! [`assemble_blocked`] and [`KernelEngine::assemble_solve`] — the q-taking
//! wrappers of that body for one task, which copy the [`ElementIntegrals`]
//! they are handed into a one-cell store first — exist only for the frozen
//! benchmark package's layer probes (ROADMAP items 1(c) and 17(a)); no
//! sweep calls them.
//!
//! A sweep enters the kernel in one place, for a run of tasks of any length
//! ([`KernelEngine::assemble_solve_lanes`]).  Where the element has eight
//! nodes and the dense solver offers lanes, a run of 16 or 4 consecutive
//! tasks of a bucket — the groups of one element, or of several, or one
//! group of several elements — is assembled side by side, one task per SIMD
//! lane, and eliminated in lockstep, in the per-group task's operation
//! order, so a lane's flux has the per-group task's bits; every other run
//! is solved task by task.  Timing a run reads the clock around its
//! eliminations and changes nothing else: the route depends on the solver
//! and the element size alone.

use std::time::Instant;

use unsnap_fem::face::FACES;
use unsnap_fem::integrals::{ElementIntegrals, IntegralBlock, IntegralStore};
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
    /// Short name used in tables, on the wire and for CLI selection.
    pub(crate) fn label(&self) -> &'static str {
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
    /// The face is interior: the neighbour's angular flux for the same
    /// angle, one equal block per group of the task — the block's length is
    /// the group stride —, together with where in a block entry `m` of the
    /// face sits (entry `m` pairs with `neighbor_psi[neighbor_face_nodes[m]]`
    /// for one group).  A block is either the neighbour's whole node block,
    /// read through its face-local node indices, or a face trace — the face
    /// nodes alone, in the canonical face order — read through `0..nf`.
    Interior {
        /// The neighbour's node block or face trace of each group.
        neighbor_psi: &'a [f64],
        /// Where each canonical face node sits in a block.
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

/// The filler of an unused inflow slot.
const NO_INFLOW: UpwindFace<'static> = UpwindFace {
    face: 0,
    source: UpwindSource::Boundary(0.0),
};

/// The element-local node indices of each face, in the canonical face
/// order: the table of an element order, the same for every element of
/// it (a sweep passes its element's `ReferenceElement::face_nodes`).
pub type FaceNodes<'a> = [&'a [usize]; FACES.len()];

/// The face nodes `integrals` carries for its own faces (the q-taking
/// entries, which have no order table at hand).
fn own_face_nodes(integrals: &ElementIntegrals) -> FaceNodes<'_> {
    std::array::from_fn(|f| integrals.faces[f].node_indices.as_slice())
}

/// One element's share of a lockstep run: consecutive groups of one
/// element, solved in consecutive lanes.
#[derive(Debug, Clone, Copy)]
pub struct LaneSegment<'a> {
    /// Identifies the element deterministically across runs: with the
    /// bits of Ω it names the segment's tile.
    pub cache_key: usize,
    /// The element's integrals: its block of the solver's store.
    pub integrals: IntegralBlock<'a>,
    /// One total cross section per group.
    pub sigma_t: &'a [f64],
    /// The groups' source terms `M q` ([`source_term`]), one `n`-node block
    /// after another.
    pub source_terms: &'a [f64],
    /// Every inflow face, the `neighbor_psi` of an interior one the groups'
    /// blocks one after another; `faces` of them are used.
    inflow: [UpwindFace<'a>; FACES.len()],
    faces: usize,
}

impl<'a> LaneSegment<'a> {
    /// The segment of `sigma_t.len()` groups of the element `cache_key`
    /// names, with its inflow faces `upwind` (at most six).
    #[inline]
    pub(crate) fn new(
        cache_key: usize,
        integrals: IntegralBlock<'a>,
        sigma_t: &'a [f64],
        source_terms: &'a [f64],
        upwind: impl IntoIterator<Item = UpwindFace<'a>>,
    ) -> Self {
        let mut inflow = [NO_INFLOW; FACES.len()];
        let mut faces = 0;
        for (slot, face) in inflow.iter_mut().zip(upwind) {
            (*slot, faces) = (face, faces + 1);
        }
        Self {
            cache_key,
            integrals,
            sigma_t,
            source_terms,
            inflow,
            faces,
        }
    }

    /// The inflow faces.
    pub(crate) fn upwind(&self) -> &[UpwindFace<'a>] {
        &self.inflow[..self.faces]
    }

    /// Group `k` of the segment alone, its source term `n` nodes long.
    fn group(&self, k: usize, n: usize) -> Self {
        let groups = self.sigma_t.len();
        let mut one = Self {
            sigma_t: &self.sigma_t[k..k + 1],
            source_terms: &self.source_terms[k * n..(k + 1) * n],
            ..*self
        };
        for face in &mut one.inflow[..self.faces] {
            if let UpwindSource::Interior { neighbor_psi, .. } = &mut face.source {
                let stride = neighbor_psi.len() / groups;
                *neighbor_psi = &neighbor_psi[k * stride..][..stride];
            }
        }
        one
    }
}

/// Reusable scratch space for the kernel (one per worker thread).
#[derive(Debug, Clone)]
pub struct KernelScratch {
    /// Local system matrix.
    pub matrix: DenseMatrix,
    /// Right-hand side, overwritten with the solution.
    pub rhs: Vec<f64>,
    /// The element × direction tile of each segment of the last run; the
    /// per-group task uses the first.
    tiles: Vec<GeometryTile>,
    /// The systems of a run side by side — matrix entries, then right-hand
    /// sides (solutions once solved), each entry one value per lane, each
    /// part followed by one entry of padding ([`KernelScratch::lane_systems`])
    /// —, sized by the first lane task.
    lanes: Vec<f64>,
    /// Node-major copies of what an assembly reads group-major.
    gather: Vec<f64>,
    /// The q-taking entries' copy of the integrals they were last handed,
    /// in a store of one cell, and the cache key it was packed for.
    packed: Option<(usize, IntegralStore)>,
}

impl KernelScratch {
    /// Allocate scratch for elements with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            matrix: DenseMatrix::zeros(n, n),
            rhs: vec![0.0; n],
            tiles: vec![GeometryTile::default()],
            lanes: Vec::new(),
            gather: Vec::new(),
            packed: None,
        }
    }

    /// The fluxes [`KernelEngine::assemble_solve_lanes`] left for its run
    /// of `lanes` tasks, node `i` of the run's task `l` at
    /// `i * lanes + l`: `rhs` for a run of one, the solved lanes for more.
    pub fn lane_solution(&self, lanes: usize) -> &[f64] {
        let n = self.rhs.len();
        match lanes {
            1 => &self.rhs,
            _ => &self.lanes[(n * n + 1) * lanes..][..n * lanes],
        }
    }

    /// [`assemble_lanes`] for the one group of `segment` into `matrix` and
    /// `rhs`, whose source term `rhs` holds on entry, at the compiled size
    /// of its element.
    fn assemble_tiled(&mut self, omega: [f64; 3], face_nodes: &FaceNodes, segment: &LaneSegment) {
        let integrals = segment.integrals;
        let (n, nf) = (integrals.nodes_per_element(), face_nodes[0].len());
        let (matrix, _) = self.matrix.as_mut_slice().as_chunks_mut::<1>();
        let (rhs, _) = self.rhs.as_chunks_mut::<1>();
        let (tile, gather) = (&mut self.tiles[0], &mut self.gather);
        let part = Part {
            omega,
            face_nodes,
            segment,
            first: 0,
        };
        match (n, nf) {
            (8, 4) => assemble_lanes::<_, 1, 1>(Fixed::<8, 4>, &part, tile, matrix, rhs, gather),
            (27, 9) => assemble_lanes::<_, 1, 1>(Fixed::<27, 9>, &part, tile, matrix, rhs, gather),
            (64, 16) => {
                assemble_lanes::<_, 1, 1>(Fixed::<64, 16>, &part, tile, matrix, rhs, gather)
            }
            (n, nf) => {
                assemble_lanes::<_, 1, 1>(Dynamic { n, nf }, &part, tile, matrix, rhs, gather)
            }
        };
    }

    /// Assemble the `L` systems of `segments` side by side — segment after
    /// segment, each from a tile of its own, in runs of 16, 4 and 1 of its
    /// groups — and eliminate them in lockstep, adding the elimination's
    /// nanoseconds to `clock` when there is one.  `false` when the systems
    /// pivot on different rows ([`LinalgError::Diverged`]).
    fn lockstep<'a, S: ElementSize, const L: usize>(
        &mut self,
        size: S,
        omega: [f64; 3],
        face_nodes: &FaceNodes,
        segments: impl Iterator<Item = LaneSegment<'a>>,
        solver: &dyn LinearSolver,
        clock: Option<&mut u64>,
    ) -> bool {
        let n = size.n();
        let Self {
            tiles,
            lanes,
            gather,
            ..
        } = self;
        let (matrix, rhs) = Self::lane_systems(lanes, n, L);
        let mut lane = 0;
        for (slot, segment) in segments.enumerate() {
            if tiles.len() <= slot {
                tiles.resize_with(slot + 1, GeometryTile::default);
            }
            let groups = segment.sigma_t.len();
            let (terms, _) = rhs[lane..][..n * L].as_chunks_mut::<L>();
            for (k, q) in segment.source_terms.chunks_exact(n).enumerate() {
                for (b_i, &q_i) in terms.iter_mut().zip(q) {
                    b_i[k] = q_i;
                }
            }
            let mut first = 0;
            while first < groups {
                let part = Part {
                    omega,
                    face_nodes,
                    segment: &segment,
                    first,
                };
                // The systems seen from the part's first lane on: an entry
                // of this view starts at that lane of the run's entry.
                let at = lane + first;
                let (matrix, _) = matrix[at..][..n * n * L].as_chunks_mut::<L>();
                let (rhs, _) = rhs[at..][..n * L].as_chunks_mut::<L>();
                let tile = &mut tiles[slot];
                first += match groups - first {
                    16.. if L >= 16 => {
                        assemble_lanes::<S, L, 16>(size, &part, tile, matrix, rhs, gather)
                    }
                    4.. => assemble_lanes::<S, L, 4>(size, &part, tile, matrix, rhs, gather),
                    _ => assemble_lanes::<S, L, 1>(size, &part, tile, matrix, rhs, gather),
                };
            }
            lane += groups;
        }
        debug_assert_eq!(lane, L, "the segments fill the run");
        let (matrix, rhs) = (&mut matrix[..n * n * L], &mut rhs[..n * L]);
        match timed(clock, || solver.solve_lanes_in_place(n, L, matrix, rhs)) {
            Ok(()) => true,
            Err(LinalgError::Diverged { .. }) => false,
            Err(error) => panic!("local DG system should be non-singular: {error}"),
        }
    }

    /// The lane matrix and right-hand sides of `lanes` systems, each
    /// followed by `lanes` values of padding: a view of either that starts
    /// at lane `l < lanes` is `lanes` values an entry for as many entries.
    fn lane_systems(buffer: &mut Vec<f64>, n: usize, lanes: usize) -> (&mut [f64], &mut [f64]) {
        let len = (n * n + 1 + n + 1) * lanes;
        if buffer.len() < len {
            buffer.resize(len, 0.0);
        }
        buffer[..len].split_at_mut((n * n + 1) * lanes)
    }
}

/// The size of an element as the tile assembly is compiled for it: `n`
/// nodes, `nf` of them on each face.
trait ElementSize: Copy {
    fn n(self) -> usize;
    fn nf(self) -> usize;
}

/// A size known at compile time: orders 1–3, the three sizes the dense
/// solver eliminates with a fixed-size routine.
#[derive(Clone, Copy)]
struct Fixed<const N: usize, const NF: usize>;

impl<const N: usize, const NF: usize> ElementSize for Fixed<N, NF> {
    fn n(self) -> usize {
        N
    }

    fn nf(self) -> usize {
        NF
    }
}

/// Any other size, read at run time.
#[derive(Clone, Copy)]
struct Dynamic {
    n: usize,
    nf: usize,
}

impl ElementSize for Dynamic {
    fn n(self) -> usize {
        self.n
    }

    fn nf(self) -> usize {
        self.nf
    }
}

/// What the element and the direction alone decide of a local system,
/// built whole in one pass when the key changes: `n² + 6·nf²` values and a
/// face mask.
///
/// Every value is computed with the expression [`assemble`] uses for it,
/// so replaying a stored `f64` is indistinguishable from recomputing it.
#[derive(Debug, Clone, Default)]
struct GeometryTile {
    /// `(cache key, Ω bit pattern)` the tile was built for.
    key: Option<(usize, [u64; 3])>,
    /// The streaming tile `Σ_d Ω_d G[d]` (row-major `n × n`), then the
    /// directed matrix `Σ_d Ω_d F[d]` of each face (row-major `nf × nf`).
    values: Vec<f64>,
    /// Bit `f` set when [`assemble`] adds face `f` as an outflow face.
    outflow: u8,
}

impl GeometryTile {
    /// Make this the tile of `cache_key` and `omega`, rebuilding it when
    /// it is another one.
    fn load<S: ElementSize>(
        &mut self,
        size: S,
        cache_key: usize,
        integrals: IntegralBlock<'_>,
        omega: [f64; 3],
    ) {
        let key = (cache_key, omega.map(f64::to_bits));
        let (n, nf) = (size.n(), size.nf());
        let len = n * n + FACES.len() * nf * nf;
        if self.key == Some(key) && self.values.len() == len {
            return;
        }
        self.values.resize(len, 0.0);
        let (streaming, faces) = self.values[..len].split_at_mut(n * n);
        omega_dot(omega, integrals.stream(), streaming);
        self.outflow = 0;
        for (index, out) in faces.chunks_exact_mut(nf * nf).enumerate() {
            omega_dot(omega, integrals.face(index), out);
            // Every face `assemble` does not skip — a NaN Ω·n included.
            let skipped = integrals.direction_dot_normal(index, omega) <= 0.0;
            self.outflow |= u8::from(!skipped) << index;
        }
        self.key = Some(key);
    }

    /// The directed matrix of face `index`, `nf` values a row.
    fn face<S: ElementSize>(&self, size: S, index: usize) -> &[f64] {
        let (n, nf) = (size.n(), size.nf());
        &self.values[n * n + index * nf * nf..][..nf * nf]
    }
}

/// `out = Ω_x·x + Ω_y·y + Ω_z·z`, entry by entry, where `xyz` holds the
/// three matrices one after another: the parenthesised streaming term of
/// [`assemble`], and its `f_ab`.  Out of line: inlined into a fixed-size
/// [`GeometryTile::load`] it unrolled into slower code than this one loop,
/// on the order-1 sweep.
#[inline(never)]
fn omega_dot(omega: [f64; 3], xyz: &[f64], out: &mut [f64]) {
    let len = out.len();
    let (x, yz) = xyz.split_at(len);
    let (y, z) = yz.split_at(len);
    let (y, z) = (&y[..len], &z[..len]);
    for (out, ((&x, &y), &z)) in out.iter_mut().zip(x.iter().zip(y).zip(z)) {
        *out = omega[0] * x + omega[1] * y + omega[2] * z;
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
    pub(crate) fn accumulate(&mut self, other: KernelTiming) {
        self.assemble_ns += other.assemble_ns;
        self.solve_ns += other.solve_ns;
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

/// Form one group's source term `b = M q` into `b` (`mass` row-major): row
/// `i` summed in `j` order from `0.0`, exactly as [`assemble`] forms it.
/// The sweep's tasks read it in place of `q`, so no task of any angle forms
/// it again.
pub fn source_term(mass: &[f64], q: &[f64], b: &mut [f64]) {
    // Column after column: each row still adds its terms in `j` order, and
    // the rows' sums advance side by side instead of one after another.
    b.fill(0.0);
    for (j, &q_j) in q.iter().enumerate() {
        for (b_i, row) in b.iter_mut().zip(mass.chunks_exact(q.len())) {
            *b_i += row[j] * q_j;
        }
    }
}

/// Assemble the local system from `b = M q` ([`source_term`]) and the
/// element × direction tile of `scratch`, for one element handed over as
/// [`ElementIntegrals`]: the benchmark package's q-taking entry
/// (`benchmark/src/layers.rs`); no sweep calls it.  The integrals are
/// copied into the store's block layout, and the tile and the lane assembly
/// every sweep runs ([`KernelEngine::assemble_solve_lanes`]) read that.
///
/// `cache_key` identifies the element whose integrals are passed; the copy
/// is keyed on it, and together with the bits of `omega` it names the
/// tile.  A call that finds both does only the group's own work: `M q`,
/// `σ_t·M` minus the streaming tile, the outflow blocks, and one
/// matrix-vector product per inflow face.  Every floating-point operation
/// that touches the system matches [`assemble`] in value and in order.
pub fn assemble_blocked(
    integrals: &ElementIntegrals,
    omega: [f64; 3],
    sigma_t: f64,
    source_nodes: &[f64],
    upwind: &[UpwindFace<'_>],
    cache_key: usize,
    scratch: &mut KernelScratch,
) {
    let packed = match scratch.packed.take() {
        Some((key, store)) if key == cache_key => store,
        _ => IntegralStore::pack(std::slice::from_ref(integrals)),
    };
    let block = packed.block(0);
    source_term(block.mass(), source_nodes, &mut scratch.rhs);
    let sigma_t = [sigma_t];
    let segment = LaneSegment::new(cache_key, block, &sigma_t, &[], upwind.iter().copied());
    scratch.assemble_tiled(omega, &own_face_nodes(integrals), &segment);
    scratch.packed = Some((cache_key, packed));
}

/// What one call of [`assemble_lanes`] assembles: the groups of `segment`
/// from its group `first` on, for the direction `omega`.
struct Part<'p, 'a> {
    omega: [f64; 3],
    face_nodes: &'p FaceNodes<'p>,
    segment: &'p LaneSegment<'a>,
    first: usize,
}

/// The tiled assembly of `G` groups of one element and direction, side by
/// side in the first `G` lanes of a run `L` lanes wide (the per-group task
/// is `L = G = 1`), at the element size `size`; returns `G`.  Entry `(i, j)`
/// of lane `l` lands in `matrix[i * n + j][l]`, its right-hand side in
/// `rhs[i][l]`: a caller that fills later lanes passes a view of the run
/// that starts at its first one, so no lane index is checked per entry.
/// Both are passed on their own, not in a struct, so the compiler knows no
/// store to them changes what the assembly reads.
///
/// `rhs` holds the lanes' source terms `M q` on entry, and the
/// `neighbor_psi` of an interior face is the run of the segment's blocks,
/// group after group (`n` node values, or `nf` of a face trace, a group);
/// `gather` is working storage.  Every lane is filled from the one tile
/// with the reference expressions in the reference order, so lane `l`
/// holds, bit for bit, the system [`assemble`] assembles for that group.
///
/// Out of line, so the run loop that calls it once per part stays small (a
/// run of one 16-group segment measured slower with the parts inlined).
#[inline(never)]
fn assemble_lanes<S: ElementSize, const L: usize, const G: usize>(
    size: S,
    part: &Part<'_, '_>,
    tile: &mut GeometryTile,
    matrix: &mut [[f64; L]],
    rhs: &mut [[f64; L]],
    gather: &mut Vec<f64>,
) -> usize {
    let (n, nf) = (size.n(), size.nf());
    let Part {
        omega,
        face_nodes,
        segment,
        first,
    } = *part;
    let integrals = segment.integrals;
    tile.load(size, segment.cache_key, integrals, omega);
    let sigma_t: &[f64; G] = (segment.sigma_t[first..first + G].try_into()).expect("G groups");
    let (matrix, rhs) = (&mut matrix[..n * n], &mut rhs[..n]);
    if gather.len() < nf * G {
        gather.resize(nf * G, 0.0);
    }
    let (gather, _) = gather[..nf * G].as_chunks_mut::<G>();

    // σ_t·M minus the streaming tile, in the reference operation order (one
    // multiply, one subtract per entry), across the lanes with unit stride;
    // then the outflow faces' blocks, face by face, row by row.
    let entries = integrals.mass()[..n * n].iter().zip(&tile.values[..n * n]);
    for (out, (&m_ij, &s_ij)) in matrix.iter_mut().zip(entries) {
        let out = lanes_at::<L, G>(out);
        for l in 0..G {
            out[l] = sigma_t[l] * m_ij - s_ij;
        }
    }
    for (index, nodes) in face_nodes.iter().enumerate() {
        if tile.outflow & (1 << index) == 0 {
            continue;
        }
        let nodes = &nodes[..nf];
        let rows = tile.face(size, index).chunks_exact(nf);
        for (&ia, row) in nodes.iter().zip(rows) {
            for (&ib, &f_ab) in nodes.iter().zip(row) {
                for out in lanes_at::<L, G>(&mut matrix[ia * n + ib]) {
                    *out += f_ab;
                }
            }
        }
    }

    // Inflow faces: the upwind flux is the group's, `Ω·F` the tile's.
    for uw in segment.upwind() {
        if matches!(uw.source, UpwindSource::Boundary(value) if value == 0.0) {
            continue; // vacuum: nothing to add
        }
        let nodes = &face_nodes[uw.face][..nf];
        let rows = tile.face(size, uw.face).chunks_exact(nf);
        match uw.source {
            UpwindSource::Boundary(value) => {
                // The prescribed inflow is the same for every group.
                for (&ia, row) in nodes.iter().zip(rows) {
                    let mut acc = 0.0;
                    for &f_ab in row {
                        acc += f_ab;
                    }
                    let inflow = acc * value;
                    for b in lanes_at::<L, G>(&mut rhs[ia]) {
                        *b -= inflow;
                    }
                }
            }
            UpwindSource::Interior {
                neighbor_psi,
                neighbor_face_nodes,
            } => {
                // A group's block is a node block or a face trace.
                let groups = segment.sigma_t.len();
                let stride = if neighbor_psi.len() == groups * n {
                    n
                } else {
                    nf
                };
                debug_assert_eq!(neighbor_face_nodes.len(), nf);
                debug_assert_eq!(neighbor_psi.len(), groups * stride);
                let psi = &neighbor_psi[first * stride..][..G * stride];
                for (up, &node) in gather.iter_mut().zip(&neighbor_face_nodes[..nf]) {
                    for (l, psi_up) in up.iter_mut().enumerate() {
                        *psi_up = psi[l * stride + node];
                    }
                }
                for (&ia, row) in nodes.iter().zip(rows) {
                    let mut acc = [0.0; G];
                    for (&f_ab, up) in row.iter().zip(&*gather) {
                        for l in 0..G {
                            acc[l] += f_ab * up[l];
                        }
                    }
                    let b = lanes_at::<L, G>(&mut rhs[ia]);
                    for l in 0..G {
                        b[l] -= acc[l];
                    }
                }
            }
        }
    }
    G
}

/// The first `G` lanes of one entry of a run `L` lanes wide.
#[inline(always)]
fn lanes_at<const L: usize, const G: usize>(entry: &mut [f64; L]) -> &mut [f64; G] {
    entry
        .first_chunk_mut::<G>()
        .expect("a part is at most as wide as its run")
}

/// The kernel-engine seam: how local tasks are assembled and solved.
///
/// A task assembles from the tile and solves with the dense solver it is
/// handed, which picks the elimination by matrix size; the result is bit
/// for bit that of the reference [`assemble`] followed by the same solve.
/// The sweep's one entry is [`KernelEngine::assemble_solve_lanes`];
/// [`KernelEngine::new`] and the q-taking [`KernelEngine::assemble_solve`]
/// are the benchmark package's (`benchmark/src/layers.rs`), and `new`
/// ignores the kernel and precision labels it takes.
#[derive(Debug, Clone, Copy)]
pub struct KernelEngine;

impl KernelEngine {
    /// The engine; both labels are ignored.
    pub fn new(_kind: KernelKind, _precision: Precision) -> Self {
        Self
    }

    /// Assemble ([`assemble_blocked`]: `M q` from `source_nodes`, then the
    /// tile) and solve one local system.  `cache_key` must identify the
    /// element deterministically across runs; the assembly keys its tile
    /// on it.
    ///
    /// With `time_solve` the clock is read around both phases.  Without it
    /// no clock is read and the timing is zero.
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
        let mut timing = KernelTiming::default();
        timed(time_solve.then_some(&mut timing.assemble_ns), || {
            assemble_blocked(
                integrals,
                omega,
                sigma_t,
                source_nodes,
                upwind,
                cache_key,
                scratch,
            )
        });
        timed(time_solve.then_some(&mut timing.solve_ns), || {
            solve_group(solver, scratch)
        });
        timing
    }

    /// The sweep's one entry: assemble and solve the local systems of a run
    /// of `lanes` tasks for one direction — the groups of `segments`,
    /// segment after segment —, leaving their fluxes in
    /// [`KernelScratch::lane_solution`].  Returns the nanoseconds spent in
    /// eliminations when `time_solve`, and reads no clock (returns 0)
    /// without it: the flag times the run and picks no route.
    ///
    /// A segment is one element's consecutive groups, with their source
    /// terms `M q` ([`source_term`]) and the `neighbor_psi` of each interior
    /// face the groups' blocks one after another — the runs both storage
    /// orders keep of one element.  A run whose length is one of `solver`'s
    /// [`LinearSolver::lane_widths`] for `n` is assembled side by side,
    /// each segment from a tile of its own, and eliminated in lockstep.
    /// The tasks of any other run — a run of one, any run at orders ≥ 2 or
    /// with a solver that offers no lanes — and of one whose systems pivot
    /// on different rows ([`LinalgError::Diverged`]: the tiles and the
    /// inputs are untouched) are assembled from the tile and solved one by
    /// one, each leaving its flux in `scratch.rhs`; a run of one leaves it
    /// there, and a longer run copies each into its lane.  Either way every
    /// flux is, bit for bit, what [`assemble`] and the same solve give.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_solve_lanes<'a>(
        &self,
        omega: [f64; 3],
        face_nodes: &FaceNodes,
        lanes: usize,
        segments: impl Iterator<Item = LaneSegment<'a>> + Clone,
        solver: &dyn LinearSolver,
        time_solve: bool,
        scratch: &mut KernelScratch,
    ) -> u64 {
        let n = scratch.rhs.len();
        let mut solve_ns = 0;
        let mut clock = time_solve.then_some(&mut solve_ns);
        let (size, run, run_clock) = (Fixed::<8, 4>, segments.clone(), clock.as_deref_mut());
        let solved = match (n, lanes) {
            _ if !solver.lane_widths(n).contains(&lanes) => false,
            (8, 16) => scratch.lockstep::<_, 16>(size, omega, face_nodes, run, solver, run_clock),
            (8, 4) => scratch.lockstep::<_, 4>(size, omega, face_nodes, run, solver, run_clock),
            _ => false,
        };
        if solved {
            return solve_ns;
        }
        let mut lane = 0;
        for segment in segments {
            for k in 0..segment.sigma_t.len() {
                let group = segment.group(k, n);
                scratch.rhs.copy_from_slice(group.source_terms);
                scratch.assemble_tiled(omega, face_nodes, &group);
                timed(clock.as_deref_mut(), || solve_group(solver, scratch));
                if lanes > 1 {
                    let (_, solution) = KernelScratch::lane_systems(&mut scratch.lanes, n, lanes);
                    for (i, &psi) in scratch.rhs.iter().enumerate() {
                        solution[i * lanes + lane] = psi;
                    }
                }
                lane += 1;
            }
        }
        solve_ns
    }
}

/// Solve the one system `scratch` holds in place.
fn solve_group(solver: &dyn LinearSolver, scratch: &mut KernelScratch) {
    solver
        .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
        .expect("local DG system should be non-singular");
}

/// Run `phase`, adding the nanoseconds it took to `clock`; without a
/// clock none is read.
fn timed<T>(clock: Option<&mut u64>, phase: impl FnOnce() -> T) -> T {
    let Some(ns) = clock else {
        return phase();
    };
    let started = Instant::now();
    let out = phase();
    *ns += started.elapsed().as_nanos() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use unsnap_fem::element::ReferenceElement;
    use unsnap_fem::face::{face_node_indices, Face};
    use unsnap_fem::geometry::HexVertices;
    use unsnap_linalg::{GaussSolver, SolverKind};

    /// The face-node table of `face_nodes`, one list per face.
    fn face_table(face_nodes: &[Vec<usize>]) -> FaceNodes<'_> {
        std::array::from_fn(|f| face_nodes[f].as_slice())
    }

    fn unit_integrals(order: usize) -> ElementIntegrals {
        ElementIntegrals::compute(&ReferenceElement::new(order), &HexVertices::unit_cube())
    }

    /// The oracle task: the reference [`assemble`], then the dense solve.
    fn reference_solve(
        integrals: &ElementIntegrals,
        omega: [f64; 3],
        sigma_t: f64,
        source: &[f64],
        upwind: &[UpwindFace<'_>],
        solver: &dyn LinearSolver,
        scratch: &mut KernelScratch,
    ) {
        assemble(integrals, omega, sigma_t, source, upwind, scratch);
        solver
            .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
            .expect("local DG system should be non-singular");
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
            reference_solve(
                &integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                &solver,
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
        reference_solve(
            &integrals,
            omega,
            sigma_t,
            &source,
            &upwind,
            &solver,
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
            reference_solve(
                &integrals,
                omega,
                sigma_t,
                &source,
                &upwind,
                solver.as_ref(),
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
        reference_solve(
            &integrals,
            omega,
            1.0,
            &source,
            &upwind,
            &solver,
            &mut scratch,
        );
        // Mean flux is positive and below the infinite-medium limit q/σ_t.
        let mean: f64 = scratch.rhs.iter().sum::<f64>() / n as f64;
        assert!(mean > 0.0);
        assert!(mean < 1.0 + 1e-12);
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
    }

    #[test]
    fn kernel_kind_round_trips_through_strings() {
        for kind in [KernelKind::Reference, KernelKind::Blocked] {
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
        // Orders 1–3 run the fixed-size instances, order 4 the run-time one.
        for order in [1usize, 2, 3, 4] {
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
        let store = IntegralStore::pack(&elements);
        let blocks = [store.block(0), store.block(1)];
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
        let table = face_table(&face_nodes);
        for (sigma_t, diverged) in [(&alike, false), (&apart, true)] {
            let mut scratch = KernelScratch::new(n);
            let segment = LaneSegment::new(1, blocks[1], &sigma_t[..4], &zeros[..32], []);
            let segments = std::iter::once(segment);
            let solved =
                scratch.lockstep::<_, 4>(Fixed::<8, 4>, omegas[0], &table, segments, &solver, None);
            assert_eq!(solved, !diverged);
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
        let engine = KernelEngine;
        let mut grouped = KernelScratch::new(n);
        let mut lanes_scratch = KernelScratch::new(n);
        for (step, &(cell, direction, sigma_t, inflow)) in steps.iter().enumerate() {
            let integrals = &elements[cell];
            let omega = omegas[direction];
            // The lanes read each group's `M q`, the per-group task its `q`.
            let mut terms = vec![0.0; source.len()];
            for (q, b) in source.chunks_exact(n).zip(terms.chunks_exact_mut(n)) {
                source_term(blocks[cell].mass(), q, b);
            }
            // 16 and 4 run in lockstep, 5 and 1 do not.
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
                let segment = LaneSegment::new(
                    cell,
                    blocks[cell],
                    &sigma_t[first..first + lanes],
                    &terms[run.clone()],
                    upwind.iter().copied(),
                );
                let segments = std::iter::once(segment);
                let scratch = &mut lanes_scratch;
                engine
                    .assemble_solve_lanes(omega, &table, lanes, segments, &solver, false, scratch);
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
                            "step {step}, {lanes} lanes: group {l}, node {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn segmented_runs_store_the_per_group_bits() {
        // A run of 16 or 4 lanes is cut into segments — an element's
        // consecutive groups each — of widths 1, 4, 6 and 16, over two
        // elements: the unit cube and the synthetic element of the test
        // above, whose lanes part when their cross sections do, so a run
        // that holds it with those diverges part-way and falls back task
        // by task.  Each inflow kind — a boundary value, the upwind node
        // blocks, a zero halo and face traces — on cold tiles and on the
        // same tiles warm; every lane must be the per-group task's bits.
        let element = ReferenceElement::new(1);
        let mut sheared = HexVertices::axis_aligned([0.0; 3], [1.0, 0.7, 1.3]);
        sheared.corners[6][0] += 0.05;
        sheared.corners[2][1] -= 0.04;
        let mut swapping = ElementIntegrals::compute(&element, &sheared);
        swapping.mass[(1, 0)] = 3.0 * swapping.mass[(0, 0)];
        let elements = [
            ElementIntegrals::compute(&element, &HexVertices::unit_cube()),
            swapping,
        ];
        let store = IntegralStore::pack(&elements);
        let packed = [store.block(0), store.block(1)];
        let n = 8;
        let face_nodes: Vec<Vec<usize>> = FACES.iter().map(|f| face_node_indices(*f, 1)).collect();
        let table = face_table(&face_nodes);
        let nf = face_nodes[0].len();
        let identity: Vec<usize> = (0..nf).collect();
        let blocks: Vec<f64> = (0..16 * n).map(|i| 0.3 + 0.07 * (i % 29) as f64).collect();
        let zeros = vec![0.0; 16 * n];
        let source: Vec<f64> = (0..16 * n)
            .map(|i| 0.25 + 0.013 * (i % 37) as f64)
            .collect();
        let alike: Vec<f64> = (0..16).map(|g| 40.0 + 0.4 * g as f64).collect();
        let apart: Vec<f64> = (0..16)
            .map(|g| [0.01, 60.0][g % 2] * (1.0 + 0.01 * g as f64))
            .collect();
        let omegas = [[0.48, 0.62, 0.6208], [-0.51, 0.62, -0.59]];
        // Each element's groups' `M q`, and the trace of each group's block
        // on each face, as a halo keeps it.
        let terms: Vec<Vec<f64>> = (packed.iter())
            .map(|integrals| {
                let mut terms = vec![0.0; source.len()];
                for (q, b) in source.chunks_exact(n).zip(terms.chunks_exact_mut(n)) {
                    source_term(integrals.mass(), q, b);
                }
                terms
            })
            .collect();
        let traces: Vec<Vec<f64>> = (FACES.iter())
            .map(|f| {
                let nodes = &face_nodes[f.opposite().index()];
                let trace = |block: &[f64]| nodes.iter().map(|&i| block[i]).collect::<Vec<_>>();
                blocks.chunks_exact(n).flat_map(trace).collect()
            })
            .collect();
        /// The inflow kinds of a sweep: `Inflow`'s, and a halo's traces.
        #[derive(Debug, Clone, Copy)]
        enum Kind {
            Inflow(Inflow),
            Traces,
        }
        let upwind = |cell: usize, omega: [f64; 3], kind: Kind, groups: Range<usize>| {
            (FACES.iter())
                .filter(|f| elements[cell].face(**f).direction_dot_normal(omega) < 0.0)
                .map(|f| UpwindFace {
                    face: f.index(),
                    source: match kind {
                        Kind::Inflow(Inflow::Boundary(value)) => UpwindSource::Boundary(value),
                        Kind::Inflow(Inflow::Interior) => UpwindSource::Interior {
                            neighbor_psi: &blocks[groups.start * n..groups.end * n],
                            neighbor_face_nodes: &face_nodes[f.opposite().index()],
                        },
                        Kind::Inflow(Inflow::ZeroHalo) => UpwindSource::Interior {
                            neighbor_psi: &zeros[groups.start * n..groups.end * n],
                            neighbor_face_nodes: &face_nodes[f.opposite().index()],
                        },
                        Kind::Traces => UpwindSource::Interior {
                            neighbor_psi: &traces[f.index()][groups.start * nf..groups.end * nf],
                            neighbor_face_nodes: &identity,
                        },
                    },
                })
                .collect::<Vec<_>>()
        };
        // Runs as (element, first group, width) segments, lane after lane.
        let runs: [&[(usize, usize, usize)]; 7] = [
            &[(0, 0, 16)],
            &[(1, 0, 16)],
            &[(0, 10, 6), (1, 0, 4), (0, 0, 6)],
            &[(0, 10, 6), (0, 0, 4), (0, 4, 6)],
            &[(1, 3, 4), (0, 0, 4), (1, 12, 4), (0, 8, 4)],
            &[(0, 0, 1), (1, 5, 1), (0, 2, 1), (1, 7, 1)],
            &[(1, 0, 1), (0, 1, 1), (1, 2, 1), (0, 3, 1)],
        ];
        let engine = KernelEngine;
        let solver = GaussSolver::new();
        let (mut lanes_scratch, mut grouped) = (KernelScratch::new(n), KernelScratch::new(n));
        let kinds = [
            Kind::Inflow(Inflow::Boundary(0.7)),
            Kind::Inflow(Inflow::Interior),
            Kind::Inflow(Inflow::ZeroHalo),
            Kind::Traces,
        ];
        // The synthetic element parts from the cube's lanes, and its own
        // do when the cross sections do: both routes are taken below.
        let omega = omegas[0];
        let kind = Kind::Inflow(Inflow::Interior);
        for (run, sigma_t, lockstep) in [
            (runs[0], &alike, true),
            (runs[1], &alike, true),
            (runs[1], &apart, false),
            (runs[2], &alike, false),
            (runs[3], &apart, true),
        ] {
            let segments = run.iter().map(|&(cell, first, w)| {
                let groups = first..first + w;
                let upwind = upwind(cell, omega, kind, groups.clone());
                let terms = &terms[cell][groups.start * n..groups.end * n];
                LaneSegment::new(cell, packed[cell], &sigma_t[groups], terms, upwind)
            });
            let mut scratch = KernelScratch::new(n);
            let size = Fixed::<8, 4>;
            let solved = scratch.lockstep::<_, 16>(size, omega, &table, segments, &solver, None);
            assert_eq!(solved, lockstep, "{run:?}");
        }
        for (k, (&kind, sigma_t)) in kinds
            .iter()
            .zip([&alike, &apart].iter().cycle())
            .enumerate()
        {
            for (r, &run) in runs.iter().enumerate() {
                let omega = omegas[(k + r) % 2];
                let width: usize = run.iter().map(|&(_, _, w)| w).sum();
                let segments = run.iter().map(|&(cell, first, w)| {
                    let groups = first..first + w;
                    let upwind = upwind(cell, omega, kind, groups.clone());
                    LaneSegment::new(
                        cell,
                        packed[cell],
                        &sigma_t[groups.clone()],
                        &terms[cell][groups.start * n..groups.end * n],
                        upwind,
                    )
                });
                for tile in ["cold", "warm"] {
                    let scratch = &mut lanes_scratch;
                    let segments = segments.clone();
                    engine.assemble_solve_lanes(
                        omega, &table, width, segments, &solver, false, scratch,
                    );
                    let mut lane = 0;
                    for &(cell, first, w) in run {
                        for g in first..first + w {
                            // The group alone: a run of one, which solves
                            // in `grouped.rhs`.
                            let group = LaneSegment::new(
                                cell,
                                packed[cell],
                                &sigma_t[g..g + 1],
                                &terms[cell][g * n..(g + 1) * n],
                                upwind(cell, omega, kind, g..g + 1),
                            );
                            let alone = std::iter::once(group);
                            engine.assemble_solve_lanes(
                                omega,
                                &table,
                                1,
                                alone,
                                &solver,
                                false,
                                &mut grouped,
                            );
                            let solved = lanes_scratch.lane_solution(width);
                            for (i, psi) in grouped.rhs.iter().enumerate() {
                                assert!(psi.is_finite());
                                assert_eq!(
                                    psi.to_bits(),
                                    solved[i * width + lane].to_bits(),
                                    "{kind:?}, run {r}, {tile} tiles: lane {lane}, node {i}"
                                );
                            }
                            lane += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_task_reads_a_face_trace_as_the_node_block_it_was_cut_from() {
        // A halo keeps only the face nodes of a cut face, group after group:
        // read through `0..nf`, a block nf long, they must reach the kernel
        // as the whole node blocks do through the face's node indices — on
        // the lockstep runs, the per-group fallback and one group alone.
        let integrals = unit_integrals(1);
        let store = IntegralStore::pack(std::slice::from_ref(&integrals));
        let block = store.block(0);
        let n = integrals.nodes_per_element();
        let omega = [-0.51, 0.62, -0.59];
        let face_nodes: Vec<Vec<usize>> = FACES.iter().map(|f| face_node_indices(*f, 1)).collect();
        let nf = face_nodes[0].len();
        let identity: Vec<usize> = (0..nf).collect();
        let blocks: Vec<f64> = (0..16 * n).map(|i| 0.3 + 0.07 * (i % 29) as f64).collect();
        let source: Vec<f64> = (0..16 * n)
            .map(|i| 0.25 + 0.013 * (i % 37) as f64)
            .collect();
        let sigma_t: Vec<f64> = (0..16).map(|g| 1.1 + 0.4 * g as f64).collect();
        let inflow: Vec<Face> = FACES
            .into_iter()
            .filter(|f| integrals.face(*f).direction_dot_normal(omega) < 0.0)
            .collect();
        let traces: Vec<Vec<f64>> = inflow
            .iter()
            .map(|f| {
                let nodes = &face_nodes[f.opposite().index()];
                let block_trace =
                    |block: &[f64]| nodes.iter().map(|&i| block[i]).collect::<Vec<_>>();
                blocks.chunks_exact(n).flat_map(block_trace).collect()
            })
            .collect();
        let solver = GaussSolver::new();
        let engine = KernelEngine;
        for (first, lanes) in [(0, 16), (3, 4), (9, 5), (15, 1)] {
            let solve = |traced: bool| {
                let upwind: Vec<UpwindFace<'_>> = inflow
                    .iter()
                    .zip(&traces)
                    .map(|(f, trace)| UpwindFace {
                        face: f.index(),
                        source: if traced {
                            UpwindSource::Interior {
                                neighbor_psi: &trace[first * nf..(first + lanes) * nf],
                                neighbor_face_nodes: &identity,
                            }
                        } else {
                            UpwindSource::Interior {
                                neighbor_psi: &blocks[first * n..(first + lanes) * n],
                                neighbor_face_nodes: &face_nodes[f.opposite().index()],
                            }
                        },
                    })
                    .collect();
                let mut scratch = KernelScratch::new(n);
                let segment = LaneSegment::new(
                    0,
                    block,
                    &sigma_t[first..first + lanes],
                    &source[first * n..(first + lanes) * n],
                    upwind,
                );
                let segments = std::iter::once(segment);
                let table = face_table(&face_nodes);
                engine.assemble_solve_lanes(
                    omega,
                    &table,
                    lanes,
                    segments,
                    &solver,
                    false,
                    &mut scratch,
                );
                let solved = scratch.lane_solution(lanes);
                solved.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(solve(true), solve(false), "{lanes} lanes");
        }
    }

    #[test]
    fn tiled_assembly_serves_a_face_first_named_after_the_tile_was_built() {
        // A tile holds the directed matrix of every face, whichever faces
        // the call that built it named: a later call under the same key
        // that names more faces reads blocks as filled as the first.
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

    /// Every inflow face of `integrals` for `omega`, reading the run `psi`
    /// of the upwind neighbour's node blocks.
    fn interior_upwind<'a>(
        integrals: &ElementIntegrals,
        omega: [f64; 3],
        psi: &'a [f64],
        face_nodes: &'a [Vec<usize>],
    ) -> Vec<UpwindFace<'a>> {
        FACES
            .iter()
            .filter(|f| integrals.face(**f).direction_dot_normal(omega) < 0.0)
            .map(|f| UpwindFace {
                face: f.index(),
                source: UpwindSource::Interior {
                    neighbor_psi: psi,
                    neighbor_face_nodes: &face_nodes[f.opposite().index()],
                },
            })
            .collect()
    }

    /// Assemble `L` groups side by side on the tile of `scratch` — the
    /// right-hand sides from the groups' [`source_term`]s, as the sweep
    /// hands them over — and require each lane to hold, bit for bit, the
    /// system [`assemble`] assembles from that group's `q`.
    fn assert_lanes_are_the_reference<const L: usize>(
        integrals: &ElementIntegrals,
        omega: [f64; 3],
        (sigma_t, source, psi): (&[f64], &[f64], &[f64]),
        scratch: &mut KernelScratch,
        what: &str,
    ) {
        let n = integrals.nodes_per_element();
        let face_nodes: Vec<Vec<usize>> = (FACES.iter())
            .map(|f| face_node_indices(*f, integrals.order))
            .collect();
        let (matrix, rhs) = KernelScratch::lane_systems(&mut scratch.lanes, n, L);
        let mut term = vec![0.0; n];
        for l in 0..L {
            source_term(integrals.mass.as_slice(), &source[l * n..][..n], &mut term);
            for (i, &b_i) in term.iter().enumerate() {
                rhs[i * L + l] = b_i;
            }
        }
        let upwind = interior_upwind(integrals, omega, psi, &face_nodes);
        let store = IntegralStore::pack(std::slice::from_ref(integrals));
        let segment = LaneSegment::new(0, store.block(0), sigma_t, &[], upwind);
        let part = Part {
            omega,
            face_nodes: &face_table(&face_nodes),
            segment: &segment,
            first: 0,
        };
        let (tile, gather) = (&mut scratch.tiles[0], &mut scratch.gather);
        let (m, r) = (matrix.as_chunks_mut::<L>().0, rhs.as_chunks_mut::<L>().0);
        match integrals.order {
            1 => assemble_lanes::<_, L, L>(Fixed::<8, 4>, &part, tile, m, r, gather),
            2 => assemble_lanes::<_, L, L>(Fixed::<27, 9>, &part, tile, m, r, gather),
            3 => assemble_lanes::<_, L, L>(Fixed::<64, 16>, &part, tile, m, r, gather),
            _ => unreachable!("orders 1–3"),
        };
        let mut reference = KernelScratch::new(n);
        let bits = |v: &mut dyn Iterator<Item = &f64>| v.map(|x| x.to_bits()).collect::<Vec<_>>();
        for l in 0..L {
            let upwind = interior_upwind(integrals, omega, &psi[l * n..][..n], &face_nodes);
            let q = &source[l * n..][..n];
            assemble(integrals, omega, sigma_t[l], q, &upwind, &mut reference);
            assert_eq!(
                bits(&mut reference.matrix.as_slice().iter()),
                bits(&mut matrix[..n * n * L].iter().skip(l).step_by(L)),
                "{what}, {L} lanes, lane {l}: matrix"
            );
            assert_eq!(
                bits(&mut reference.rhs.iter()),
                bits(&mut rhs[..n * L].iter().skip(l).step_by(L)),
                "{what}, {L} lanes, lane {l}: rhs"
            );
        }
    }

    #[test]
    fn tiled_assembly_classifies_outflow_faces_as_the_reference() {
        // Ω has no x component, so on an axis-aligned element the faces x±
        // have Ω·n exactly 0: neither inflow nor outflow.  And `assemble`
        // skips a face only when Ω·n ≤ 0, so a face whose normal is NaN is
        // an outflow face.  Both, on cold and warm tiles, at every lane
        // count.
        let omega = [0.0, 0.6, 0.8];
        for order in [1usize, 2, 3] {
            let mut integrals = unit_integrals(order);
            // (The Gauss average leaves 1e-17 of z on the normal of x+ at
            // order 3; the face is put back on the axis.)
            integrals.faces[Face::XPlus.index()].average_normal = [1.0, 0.0, 0.0];
            let n = integrals.nodes_per_element();
            let along: Vec<Face> = (FACES.into_iter())
                .filter(|f| integrals.face(*f).direction_dot_normal(omega) == 0.0)
                .collect();
            assert_eq!(along, [Face::XMinus, Face::XPlus], "order {order}");
            let values = |seed: f64, len: usize| -> Vec<f64> {
                (0..len).map(|i| seed + 0.013 * (i % 37) as f64).collect()
            };
            let (sigma_t, source, psi) =
                (values(1.1, 17), values(0.25, 17 * n), values(0.3, 17 * n));
            for nan in [false, true] {
                if nan {
                    integrals.faces[Face::XPlus.index()].average_normal = [f64::NAN; 3];
                }
                // One tile per lane count, built by the first run and found
                // by the second, which starts a group later.
                let mut scratch = [(); 3].map(|()| KernelScratch::new(n));
                for (warm, tile) in ["cold", "warm"].into_iter().enumerate() {
                    let run = |lanes: usize| {
                        let nodes = warm * n..(warm + lanes) * n;
                        (
                            &sigma_t[warm..warm + lanes],
                            &source[nodes.clone()],
                            &psi[nodes],
                        )
                    };
                    let what = format!("order {order}, NaN normal {nan}, {tile} tile");
                    let [one, four, sixteen] = &mut scratch;
                    assert_lanes_are_the_reference::<1>(&integrals, omega, run(1), one, &what);
                    assert_lanes_are_the_reference::<4>(&integrals, omega, run(4), four, &what);
                    assert_lanes_are_the_reference::<16>(
                        &integrals,
                        omega,
                        run(16),
                        sixteen,
                        &what,
                    );
                }
            }
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
        let engine = KernelEngine;
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
    fn timed_runs_keep_the_untimed_bits() {
        // The clock reads time and picks no route: a timed run — in
        // lockstep at 16 and 4 lanes, task by task at 5 and 1 — leaves the
        // untimed run's bits and reports what its eliminations took; an
        // untimed run reads no clock and reports none.
        let integrals = unit_integrals(1);
        let store = IntegralStore::pack(std::slice::from_ref(&integrals));
        let block = store.block(0);
        let n = integrals.nodes_per_element();
        let omega = [0.48, 0.62, 0.6208];
        let face_nodes: Vec<Vec<usize>> = FACES.iter().map(|f| face_node_indices(*f, 1)).collect();
        let table = face_table(&face_nodes);
        let psi: Vec<f64> = (0..16 * n).map(|i| 0.3 + 0.07 * (i % 29) as f64).collect();
        let terms: Vec<f64> = (0..16 * n)
            .map(|i| 0.25 + 0.013 * (i % 37) as f64)
            .collect();
        let sigma_t: Vec<f64> = (0..16).map(|g| 1.1 + 0.4 * g as f64).collect();
        let solver = GaussSolver::new();
        for lanes in [16, 4, 5, 1] {
            let run = |time_solve| {
                let upwind = interior_upwind(&integrals, omega, &psi[..lanes * n], &face_nodes);
                let (sigma_t, terms) = (&sigma_t[..lanes], &terms[..lanes * n]);
                let segment = LaneSegment::new(0, block, sigma_t, terms, upwind);
                let mut scratch = KernelScratch::new(n);
                let solve_ns = KernelEngine.assemble_solve_lanes(
                    omega,
                    &table,
                    lanes,
                    std::iter::once(segment),
                    &solver,
                    time_solve,
                    &mut scratch,
                );
                let solution = scratch.lane_solution(lanes);
                (
                    solve_ns,
                    solution.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                )
            };
            let (untimed_ns, untimed) = run(false);
            let (timed_ns, timed) = run(true);
            assert_eq!(untimed_ns, 0, "{lanes} lanes");
            assert!(timed_ns > 0, "{lanes} lanes");
            assert_eq!(timed, untimed, "{lanes} lanes");
        }
    }

    #[test]
    fn engine_matches_the_reference_task_bit_for_bit() {
        let integrals = unit_integrals(2);
        let n = integrals.nodes_per_element();
        let omega = [0.6, 0.58, 0.55];
        let source = vec![1.0; n];
        let upwind = boundary_upwind(&integrals, omega, 0.4);
        let solver = GaussSolver::new();
        let mut oracle = KernelScratch::new(n);
        reference_solve(
            &integrals,
            omega,
            1.3,
            &source,
            &upwind,
            &solver,
            &mut oracle,
        );
        for kind in [KernelKind::Reference, KernelKind::Blocked] {
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
                    oracle.rhs[i].to_bits(),
                    scratch.rhs[i].to_bits(),
                    "{kind}: node {i}"
                );
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
        reference_solve(
            &integrals,
            omega,
            sigma_t,
            &source,
            &upwind,
            &solver,
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
