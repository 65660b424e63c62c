//! Flat flux/source storage with explicit extent ordering.
//!
//! §IV-A of the paper: "The storage arrays of the angular flux, scalar flux
//! and source terms were likewise updated to match the loop ordering."  The
//! two candidate layouts differ in whether the *energy group* or the
//! *element* index moves faster (the node index is always fastest — element
//! nodes are stored contiguously so the vectorised node loop is stride-1,
//! and the angle index is always slowest).
//!
//! `angle/element/group` layout (group faster than element):
//!
//! ```text
//! index = node + N·( group + G·( element + E·angle ) )
//! ```
//!
//! `angle/group/element` layout (element faster than group):
//!
//! ```text
//! index = node + N·( element + E·( group + G·angle ) )
//! ```
//!
//! The layout choice controls the stride between consecutive elements of a
//! wavefront bucket: `N × G × 8` bytes in the first layout (4 kB for linear
//! elements with 64 groups — the "large gap in memory between adjacent
//! elements" the paper identifies as beneficial) versus `N × 8` bytes in
//! the second (one cache line for linear elements).

use unsnap_sweep::LoopOrder;

/// Storage/solve precision of the sweep kernel's local systems.
///
/// `F64` is the seed behaviour: assembly, dense solve, and flux storage
/// all in double precision.  `Mixed` keeps the assembly and the outer
/// iterations in `f64` but runs the per-cell dense solve in `f32`
/// (single-precision elimination with partial pivoting), trading a few
/// extra source iterations for roughly half the solve bandwidth — the
/// paper's mixed-precision sweep variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full double precision everywhere (the seed behaviour).
    #[default]
    F64,
    /// `f32` per-cell solves inside `f64` outer iterations.
    Mixed,
}

impl Precision {
    /// Every precision mode, in fixed ablation order.
    pub fn all() -> [Precision; 2] {
        [Precision::F64, Precision::Mixed]
    }

    /// Short name used in tables, on the wire and for CLI selection.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f64" | "double" | "fp64" => Ok(Precision::F64),
            "mixed" | "f32" | "single" | "fp32" => Ok(Precision::Mixed),
            other => Err(format!("unknown precision '{other}'")),
        }
    }
}

/// Shape and ordering of a flux-like array
/// (node × element × group × angle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FluxLayout {
    /// Nodes per element (always the fastest index).
    pub nodes_per_element: usize,
    /// Number of elements.
    pub num_elements: usize,
    /// Number of energy groups.
    pub num_groups: usize,
    /// Number of angles stored (1 for scalar-flux-like arrays).
    pub num_angles: usize,
    /// Which of element/group moves faster; matches the loop order the
    /// solver will use.
    pub order: LoopOrder,
}

impl FluxLayout {
    /// Layout for an angular-flux array.
    pub fn angular(
        nodes_per_element: usize,
        num_elements: usize,
        num_groups: usize,
        num_angles: usize,
        order: LoopOrder,
    ) -> Self {
        Self {
            nodes_per_element,
            num_elements,
            num_groups,
            num_angles,
            order,
        }
    }

    /// Layout for a scalar-flux or source array (no angle dimension).
    pub fn scalar(
        nodes_per_element: usize,
        num_elements: usize,
        num_groups: usize,
        order: LoopOrder,
    ) -> Self {
        Self::angular(nodes_per_element, num_elements, num_groups, 1, order)
    }

    /// Total number of FP64 entries.
    pub fn len(&self) -> usize {
        self.nodes_per_element * self.num_elements * self.num_groups * self.num_angles
    }

    /// `true` if the layout holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f64>()
    }

    /// Flat index of the first node of `(element, group, angle)`.
    #[inline]
    pub fn base(&self, element: usize, group: usize, angle: usize) -> usize {
        debug_assert!(element < self.num_elements);
        debug_assert!(group < self.num_groups);
        debug_assert!(angle < self.num_angles);
        let n = self.nodes_per_element;
        match self.order {
            LoopOrder::ElementThenGroup => {
                // group fastest after node
                n * (group + self.num_groups * (element + self.num_elements * angle))
            }
            LoopOrder::GroupThenElement => {
                // element fastest after node
                n * (element + self.num_elements * (group + self.num_groups * angle))
            }
        }
    }

    /// Flat index of `(node, element, group, angle)`.
    #[inline]
    pub fn index(&self, node: usize, element: usize, group: usize, angle: usize) -> usize {
        debug_assert!(node < self.nodes_per_element);
        self.base(element, group, angle) + node
    }

    /// Stride in *entries* between the same node of two consecutive
    /// elements (at fixed group and angle) — the quantity the paper's
    /// data-layout discussion revolves around.
    pub fn element_stride(&self) -> usize {
        match self.order {
            LoopOrder::ElementThenGroup => self.nodes_per_element * self.num_groups,
            LoopOrder::GroupThenElement => self.nodes_per_element,
        }
    }

    /// Stride in entries between consecutive groups (fixed element/angle).
    pub fn group_stride(&self) -> usize {
        match self.order {
            LoopOrder::ElementThenGroup => self.nodes_per_element,
            LoopOrder::GroupThenElement => self.nodes_per_element * self.num_elements,
        }
    }
}

/// A flat `f64` array addressed through a [`FluxLayout`].
#[derive(Debug, Clone, PartialEq)]
pub struct FluxStorage {
    layout: FluxLayout,
    data: Vec<f64>,
}

impl FluxStorage {
    /// Allocate zero-initialised storage for a layout.
    pub fn zeros(layout: FluxLayout) -> Self {
        Self {
            data: vec![0.0; layout.len()],
            layout,
        }
    }

    /// The layout describing this storage.
    pub fn layout(&self) -> &FluxLayout {
        &self.layout
    }

    /// Raw data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The node-contiguous slice for `(element, group, angle)`.
    #[inline]
    pub fn nodes(&self, element: usize, group: usize, angle: usize) -> &[f64] {
        let base = self.layout.base(element, group, angle);
        &self.data[base..base + self.layout.nodes_per_element]
    }

    /// Mutable node slice for `(element, group, angle)`.
    #[inline]
    pub fn nodes_mut(&mut self, element: usize, group: usize, angle: usize) -> &mut [f64] {
        let base = self.layout.base(element, group, angle);
        &mut self.data[base..base + self.layout.nodes_per_element]
    }

    /// Read a single value.
    #[inline]
    pub fn get(&self, node: usize, element: usize, group: usize, angle: usize) -> f64 {
        self.data[self.layout.index(node, element, group, angle)]
    }

    /// Write a single value.
    #[inline]
    pub fn set(&mut self, node: usize, element: usize, group: usize, angle: usize, value: f64) {
        let idx = self.layout.index(node, element, group, angle);
        self.data[idx] = value;
    }

    /// Fill the whole array with a value.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Sum of all entries (used by tests and the conservation checks).
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute pointwise difference against another storage of
    /// identical layout.
    pub fn max_abs_diff(&self, other: &FluxStorage) -> f64 {
        assert_eq!(self.layout, other.layout, "layout mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Copy the contents of a storage with a *different* ordering into this
    /// one (same logical shape).  Used when comparing results across
    /// layouts.
    pub fn copy_reordered_from(&mut self, other: &FluxStorage) {
        let l = self.layout;
        let lo = other.layout;
        assert_eq!(l.nodes_per_element, lo.nodes_per_element);
        assert_eq!(l.num_elements, lo.num_elements);
        assert_eq!(l.num_groups, lo.num_groups);
        assert_eq!(l.num_angles, lo.num_angles);
        for angle in 0..l.num_angles {
            for element in 0..l.num_elements {
                for group in 0..l.num_groups {
                    let src = other.nodes(element, group, angle);
                    let dst = self.nodes_mut(element, group, angle);
                    dst.copy_from_slice(src);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts() -> [FluxLayout; 2] {
        [
            FluxLayout::angular(8, 10, 4, 3, LoopOrder::ElementThenGroup),
            FluxLayout::angular(8, 10, 4, 3, LoopOrder::GroupThenElement),
        ]
    }

    #[test]
    fn lengths_and_footprints() {
        for l in layouts() {
            assert_eq!(l.len(), 8 * 10 * 4 * 3);
            assert_eq!(l.footprint_bytes(), l.len() * 8);
            assert!(!l.is_empty());
        }
    }

    #[test]
    fn indices_are_unique_and_in_range() {
        for l in layouts() {
            let mut seen = vec![false; l.len()];
            for angle in 0..l.num_angles {
                for element in 0..l.num_elements {
                    for group in 0..l.num_groups {
                        for node in 0..l.nodes_per_element {
                            let idx = l.index(node, element, group, angle);
                            assert!(idx < l.len());
                            assert!(!seen[idx], "duplicate index");
                            seen[idx] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn node_is_always_fastest() {
        for l in layouts() {
            let a = l.index(0, 3, 2, 1);
            let b = l.index(1, 3, 2, 1);
            assert_eq!(b, a + 1);
        }
    }

    #[test]
    fn element_strides_match_paper_description() {
        // Linear elements (8 nodes), 64 groups: the element/group layout
        // separates adjacent elements by 8 * 64 * 8 B = 4 kB; the
        // group/element layout by only 8 * 8 B = 64 B (§IV-A.1).
        let eg = FluxLayout::angular(8, 100, 64, 1, LoopOrder::ElementThenGroup);
        assert_eq!(eg.element_stride() * 8, 4096);
        assert_eq!(eg.group_stride() * 8, 64);
        let ge = FluxLayout::angular(8, 100, 64, 1, LoopOrder::GroupThenElement);
        assert_eq!(ge.element_stride() * 8, 64);
        // Cubic elements: 64 nodes → 32 kB stride in the element/group
        // layout (the L1-capacity observation of §IV-A.2).
        let cubic = FluxLayout::angular(64, 100, 64, 1, LoopOrder::ElementThenGroup);
        assert_eq!(cubic.element_stride() * 8, 32 * 1024);
    }

    #[test]
    fn node_slices_are_contiguous_and_disjoint() {
        for l in layouts() {
            let mut s = FluxStorage::zeros(l);
            s.nodes_mut(2, 1, 0).iter_mut().for_each(|x| *x = 7.0);
            assert_eq!(s.nodes(2, 1, 0), &[7.0; 8]);
            // Other slices untouched.
            assert_eq!(s.nodes(2, 2, 0), &[0.0; 8]);
            assert_eq!(s.nodes(3, 1, 0), &[0.0; 8]);
            assert!((s.total() - 56.0).abs() < 1e-12);
        }
    }

    #[test]
    fn get_set_round_trip() {
        let l = FluxLayout::scalar(4, 5, 3, LoopOrder::ElementThenGroup);
        let mut s = FluxStorage::zeros(l);
        s.set(2, 4, 1, 0, 3.25);
        assert_eq!(s.get(2, 4, 1, 0), 3.25);
        s.fill(1.0);
        assert_eq!(s.total(), l.len() as f64);
    }

    #[test]
    fn reordered_copy_preserves_logical_content() {
        let a_layout = FluxLayout::angular(3, 4, 2, 2, LoopOrder::ElementThenGroup);
        let b_layout = FluxLayout::angular(3, 4, 2, 2, LoopOrder::GroupThenElement);
        let mut a = FluxStorage::zeros(a_layout);
        // Fill with a recognisable pattern.
        for angle in 0..2 {
            for e in 0..4 {
                for g in 0..2 {
                    for node in 0..3 {
                        a.set(
                            node,
                            e,
                            g,
                            angle,
                            (1000 * angle + 100 * e + 10 * g + node) as f64,
                        );
                    }
                }
            }
        }
        let mut b = FluxStorage::zeros(b_layout);
        b.copy_reordered_from(&a);
        for angle in 0..2 {
            for e in 0..4 {
                for g in 0..2 {
                    for node in 0..3 {
                        assert_eq!(b.get(node, e, g, angle), a.get(node, e, g, angle));
                    }
                }
            }
        }
        // The raw orderings differ even though the logical content matches.
        assert_ne!(a.as_slice(), b.as_slice());
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn precision_round_trips_through_strings() {
        for p in Precision::all() {
            let parsed: Precision = p.label().parse().unwrap();
            assert_eq!(parsed, p);
            assert_eq!(format!("{p}"), p.label());
        }
        assert_eq!("fp32".parse::<Precision>(), Ok(Precision::Mixed));
        assert_eq!("DOUBLE".parse::<Precision>(), Ok(Precision::F64));
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    #[should_panic]
    fn max_abs_diff_requires_same_layout() {
        let a = FluxStorage::zeros(FluxLayout::scalar(2, 2, 2, LoopOrder::ElementThenGroup));
        let b = FluxStorage::zeros(FluxLayout::scalar(2, 2, 2, LoopOrder::GroupThenElement));
        let _ = a.max_abs_diff(&b);
    }
}
