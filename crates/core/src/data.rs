//! Artificial multigroup problem data: cross sections, materials and the
//! fixed source.
//!
//! SNAP "uses artificial problem data which is auto-generated based on
//! input parameters" (§I of the paper) and UnSNAP "uses the same artificial
//! data, source calculation and iteration structure as SNAP" (§III).  The
//! experiments in the paper all select *Source and Material "Option 1"*: a
//! single homogeneous material filling the whole domain with a uniform,
//! isotropic, group-independent fixed source.
//!
//! The data generated here follows the same recipe SNAP uses for its
//! auto-generated cross sections: a base total cross section of 1.0 in the
//! first group, increasing by 0.01 per group; scattering split between
//! within-group and down-scatter so the medium is sub-critical; and a unit
//! fixed source.  Absolute values are not important for a performance
//! proxy — what matters is that the shapes and couplings of the real data
//! structures are present (a full group-to-group scattering matrix, a
//! per-cell material index, per-group totals).

/// Which artificial material layout fills the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaterialOption {
    /// "Option 1": one homogeneous material everywhere (the configuration
    /// used by every experiment in the paper).
    #[default]
    Option1,
    /// "Option 2": a second, denser material in the central half of the
    /// domain (SNAP's layered-material variant), kept so the mini-app can
    /// exercise per-cell material lookup.
    Option2,
}

impl MaterialOption {
    /// Stable wire label (`option1`/`option2`), round-tripped by
    /// [`FromStr`](std::str::FromStr) like the workspace's other enum
    /// knobs.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            MaterialOption::Option1 => "option1",
            MaterialOption::Option2 => "option2",
        }
    }
}

impl std::fmt::Display for MaterialOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for MaterialOption {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "option1" | "1" | "homogeneous" => Ok(MaterialOption::Option1),
            "option2" | "2" | "layered" => Ok(MaterialOption::Option2),
            other => Err(format!("unknown material option '{other}'")),
        }
    }
}

/// Which artificial fixed-source layout drives the problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceOption {
    /// "Option 1": a uniform unit source everywhere, all groups.
    #[default]
    Option1,
    /// "Option 2": a source only in the central half of the domain.
    Option2,
}

impl SourceOption {
    /// Stable wire label (`option1`/`option2`), round-tripped by
    /// [`FromStr`](std::str::FromStr) like the workspace's other enum
    /// knobs.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SourceOption::Option1 => "option1",
            SourceOption::Option2 => "option2",
        }
    }
}

impl std::fmt::Display for SourceOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SourceOption {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "option1" | "1" | "uniform" => Ok(SourceOption::Option1),
            "option2" | "2" | "central" => Ok(SourceOption::Option2),
            other => Err(format!("unknown source option '{other}'")),
        }
    }
}

/// Multigroup cross sections for a set of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossSections {
    num_groups: usize,
    num_materials: usize,
    /// `total[mat * G + g]`: total cross section σ_t.
    total: Vec<f64>,
    /// `scatter[mat * G * G + g_from * G + g_to]`: isotropic scattering
    /// matrix σ_s(g' → g).
    scatter: Vec<f64>,
}

impl CrossSections {
    /// Generate the SNAP-style artificial cross sections for `num_groups`
    /// energy groups and `num_materials` materials.
    ///
    /// Material `m` has `σ_t(g) = (1 + 0.5 m) + 0.01 g`.  Scattering is
    /// purely down-scatter plus within-group: 50% of σ_t stays in group,
    /// 20% leaves to the next two lower-energy groups (when they exist),
    /// giving a scattering ratio safely below one so the source iteration
    /// converges.
    pub fn generate(num_groups: usize, num_materials: usize) -> Self {
        assert!(num_groups > 0 && num_materials > 0);
        let g = num_groups;
        let mut total = vec![0.0; num_materials * g];
        let mut scatter = vec![0.0; num_materials * g * g];
        for m in 0..num_materials {
            for gi in 0..g {
                let sigma_t = 1.0 + 0.5 * m as f64 + 0.01 * gi as f64;
                total[m * g + gi] = sigma_t;
                // Within-group scattering.
                scatter[m * g * g + gi * g + gi] = 0.5 * sigma_t;
                // Down-scatter to the next two groups.
                if gi + 1 < g {
                    scatter[m * g * g + gi * g + (gi + 1)] = 0.15 * sigma_t;
                }
                if gi + 2 < g {
                    scatter[m * g * g + gi * g + (gi + 2)] = 0.05 * sigma_t;
                }
            }
        }
        Self {
            num_groups: g,
            num_materials,
            total,
            scatter,
        }
    }

    /// Generate cross sections with a prescribed within-group scattering
    /// ratio `c`.
    ///
    /// Totals follow the same recipe as [`CrossSections::generate`], but
    /// the scattering matrix is purely within-group with
    /// `σ_s(g → g) = c · σ_t(g)`, so the inner (source) iteration
    /// contracts at exactly rate `c` in every group.  This is the knob
    /// for building scattering-dominated scenarios (`c ≥ 0.9`) where
    /// plain source iteration stalls and the Krylov strategies earn
    /// their keep.
    ///
    /// # Panics
    /// If `c` is outside `(0, 1]` (matching `Problem::validate`: `c = 1`
    /// is the conservative-medium limit, `c ≤ 0` is not scattering).
    pub fn with_scattering_ratio(num_groups: usize, num_materials: usize, c: f64) -> Self {
        assert!(num_groups > 0 && num_materials > 0);
        assert!(
            c > 0.0 && c <= 1.0,
            "scattering ratio must lie in (0, 1], got {c}"
        );
        let g = num_groups;
        let mut total = vec![0.0; num_materials * g];
        let mut scatter = vec![0.0; num_materials * g * g];
        for m in 0..num_materials {
            for gi in 0..g {
                let sigma_t = 1.0 + 0.5 * m as f64 + 0.01 * gi as f64;
                total[m * g + gi] = sigma_t;
                scatter[m * g * g + gi * g + gi] = c * sigma_t;
            }
        }
        Self {
            num_groups: g,
            num_materials,
            total,
            scatter,
        }
    }

    /// Generate cross sections with a prescribed scattering ratio `c`
    /// *and* a full group-to-group matrix that includes upscatter.
    ///
    /// Totals follow the same recipe as [`CrossSections::generate`].
    /// Each group keeps `(1 − u) · c · σ_t(g)` within group and spreads
    /// the remaining `u · c · σ_t(g)` *equally over every other group* —
    /// both lower- and higher-energy, so the matrix has nonzero entries
    /// on both sides of the diagonal.  The row sum is exactly
    /// `c · σ_t(g)`, preserving the scattering ratio of
    /// [`CrossSections::with_scattering_ratio`]; what changes is the
    /// *coupling structure*: with upscatter, no group ordering makes the
    /// matrix triangular, so the outer (group-coupling) iteration has to
    /// do real work instead of converging in one downstream pass.
    ///
    /// # Panics
    /// If `c` is outside `(0, 1]`, `u` is outside `(0, 1)`, or
    /// `num_groups < 2` (upscatter needs another group to scatter up
    /// into) — matching `Problem::validate`.
    pub fn with_upscatter(num_groups: usize, num_materials: usize, c: f64, u: f64) -> Self {
        assert!(num_groups >= 2, "upscatter needs at least 2 groups");
        assert!(num_materials > 0);
        assert!(
            c > 0.0 && c <= 1.0,
            "scattering ratio must lie in (0, 1], got {c}"
        );
        assert!(
            u > 0.0 && u < 1.0,
            "upscatter ratio must lie in (0, 1), got {u}"
        );
        let g = num_groups;
        let mut total = vec![0.0; num_materials * g];
        let mut scatter = vec![0.0; num_materials * g * g];
        let spread = u / (g - 1) as f64;
        for m in 0..num_materials {
            for gi in 0..g {
                let sigma_t = 1.0 + 0.5 * m as f64 + 0.01 * gi as f64;
                total[m * g + gi] = sigma_t;
                for gt in 0..g {
                    scatter[m * g * g + gi * g + gt] = if gt == gi {
                        (1.0 - u) * c * sigma_t
                    } else {
                        spread * c * sigma_t
                    };
                }
            }
        }
        Self {
            num_groups: g,
            num_materials,
            total,
            scatter,
        }
    }

    /// Number of materials.
    pub(crate) fn num_materials(&self) -> usize {
        self.num_materials
    }

    /// Total cross section σ_t of `material` in group `g`.
    #[inline]
    pub fn total(&self, material: usize, g: usize) -> f64 {
        self.total[material * self.num_groups + g]
    }

    /// Total cross sections σ_t of `material` for a run of groups.
    #[inline]
    pub(crate) fn totals(&self, material: usize, groups: std::ops::Range<usize>) -> &[f64] {
        debug_assert!(groups.end <= self.num_groups);
        &self.total[material * self.num_groups..][groups]
    }

    /// Isotropic scattering cross section σ_s from group `g_from` into
    /// group `g_to` for `material`.
    #[inline]
    pub fn scatter(&self, material: usize, g_from: usize, g_to: usize) -> f64 {
        self.scatter[material * self.num_groups * self.num_groups + g_from * self.num_groups + g_to]
    }

    /// Total out-scattering from group `g` (row sum of the scattering
    /// matrix).
    fn scatter_out(&self, material: usize, g: usize) -> f64 {
        (0..self.num_groups)
            .map(|g_to| self.scatter(material, g, g_to))
            .sum()
    }

    /// The scattering ratio `c = Σ_g' σ_s(g → g') / σ_t(g)`; must be < 1
    /// for the source iteration to converge on an infinite medium.
    pub fn scattering_ratio(&self, material: usize, g: usize) -> f64 {
        self.scatter_out(material, g) / self.total(material, g)
    }
}

/// The per-cell material map and fixed source of an UnSNAP problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemData {
    /// Cross sections for every material present.
    pub xs: CrossSections,
    /// Material index of every cell.
    pub material_of_cell: Vec<usize>,
    /// Fixed source density of every cell (group-independent, isotropic).
    pub fixed_source_of_cell: Vec<f64>,
}

impl ProblemData {
    /// Build the problem data for a mesh of `num_cells` cells whose
    /// centroids are given by `centroid`, using the selected material and
    /// source options.  `domain_extent` is the physical size of the domain
    /// (used to locate the "central half" of the Option-2 layouts).
    pub fn generate(
        num_cells: usize,
        centroid: impl Fn(usize) -> [f64; 3],
        domain_extent: [f64; 3],
        num_groups: usize,
        material: MaterialOption,
        source: SourceOption,
    ) -> Self {
        let num_materials = match material {
            MaterialOption::Option1 => 1,
            MaterialOption::Option2 => 2,
        };
        let xs = CrossSections::generate(num_groups, num_materials);

        let in_centre = |c: [f64; 3]| {
            (0..3).all(|d| {
                let lo = 0.25 * domain_extent[d];
                let hi = 0.75 * domain_extent[d];
                c[d] >= lo && c[d] <= hi
            })
        };

        let mut material_of_cell = Vec::with_capacity(num_cells);
        let mut fixed_source_of_cell = Vec::with_capacity(num_cells);
        for cell in 0..num_cells {
            let c = centroid(cell);
            let mat = match material {
                MaterialOption::Option1 => 0,
                MaterialOption::Option2 => usize::from(in_centre(c)),
            };
            let q = match source {
                SourceOption::Option1 => 1.0,
                SourceOption::Option2 => {
                    if in_centre(c) {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            material_of_cell.push(mat);
            fixed_source_of_cell.push(q);
        }

        Self {
            xs,
            material_of_cell,
            fixed_source_of_cell,
        }
    }

    /// Material index of a cell.
    #[inline]
    pub fn material(&self, cell: usize) -> usize {
        self.material_of_cell[cell]
    }

    /// Fixed source density of a cell.
    #[inline]
    pub(crate) fn fixed_source(&self, cell: usize) -> f64 {
        self.fixed_source_of_cell[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sizes() {
        let xs = CrossSections::generate(16, 2);
        assert_eq!(xs.num_groups, 16);
        assert_eq!(xs.num_materials(), 2);
    }

    #[test]
    fn totals_increase_with_group_and_material() {
        let xs = CrossSections::generate(8, 2);
        assert!((xs.total(0, 0) - 1.0).abs() < 1e-15);
        assert!(xs.total(0, 7) > xs.total(0, 0));
        assert!(xs.total(1, 0) > xs.total(0, 0));
    }

    #[test]
    fn scattering_ratio_below_one_everywhere() {
        let xs = CrossSections::generate(64, 2);
        for m in 0..2 {
            for g in 0..64 {
                let c = xs.scattering_ratio(m, g);
                assert!(c > 0.0 && c < 1.0, "material {m} group {g}: c = {c}");
            }
        }
    }

    #[test]
    fn scattering_is_within_group_plus_downscatter_only() {
        let xs = CrossSections::generate(6, 1);
        for g_from in 0..6 {
            for g_to in 0..6 {
                let s = xs.scatter(0, g_from, g_to);
                if g_to < g_from || g_to > g_from + 2 {
                    assert_eq!(s, 0.0, "unexpected scattering {g_from}->{g_to}");
                } else {
                    assert!(s > 0.0);
                }
            }
        }
        // Last group has no down-scatter targets beyond itself.
        assert_eq!(xs.scatter_out(0, 5), xs.scatter(0, 5, 5));
    }

    #[test]
    fn upscatter_preserves_the_row_sum_and_fills_both_triangles() {
        let (c, u) = (0.9, 0.2);
        let xs = CrossSections::with_upscatter(4, 2, c, u);
        for m in 0..2 {
            for g in 0..4 {
                // Row sum is exactly c · σ_t: the scattering ratio the
                // within-group recipe promises, now split across groups.
                assert!((xs.scattering_ratio(m, g) - c).abs() < 1e-12);
                // Every off-diagonal entry (including the upscatter
                // half below the diagonal) is present and equal.
                let spread = u / 3.0 * c * xs.total(m, g);
                for gt in 0..4 {
                    let s = xs.scatter(m, g, gt);
                    if gt == g {
                        assert!((s - (1.0 - u) * c * xs.total(m, g)).abs() < 1e-12);
                    } else {
                        assert!((s - spread).abs() < 1e-12, "{g}->{gt}");
                    }
                }
            }
        }
        // Genuine upscatter: energy flows from the lowest group back up.
        assert!(xs.scatter(0, 3, 0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 groups")]
    fn upscatter_rejects_a_single_group() {
        CrossSections::with_upscatter(1, 1, 0.9, 0.2);
    }

    #[test]
    fn option1_is_homogeneous_unit_source() {
        let data = ProblemData::generate(
            27,
            |_| [0.5, 0.5, 0.5],
            [1.0, 1.0, 1.0],
            4,
            MaterialOption::Option1,
            SourceOption::Option1,
        );
        assert!(data.material_of_cell.iter().all(|&m| m == 0));
        assert!(data.fixed_source_of_cell.iter().all(|&q| q == 1.0));
        assert_eq!(data.xs.num_materials(), 1);
    }

    #[test]
    fn option2_marks_central_cells() {
        // Cells along the x axis at y = z = 0.5: only those with
        // 0.25 <= x <= 0.75 are central.
        let centroids = [[0.1, 0.5, 0.5], [0.5, 0.5, 0.5], [0.9, 0.5, 0.5]];
        let data = ProblemData::generate(
            3,
            |c| centroids[c],
            [1.0, 1.0, 1.0],
            2,
            MaterialOption::Option2,
            SourceOption::Option2,
        );
        assert_eq!(data.material_of_cell, vec![0, 1, 0]);
        assert_eq!(data.fixed_source_of_cell, vec![0.0, 1.0, 0.0]);
        assert_eq!(data.material(1), 1);
        assert_eq!(data.fixed_source(0), 0.0);
    }

    #[test]
    fn defaults_are_option1() {
        assert_eq!(MaterialOption::default(), MaterialOption::Option1);
        assert_eq!(SourceOption::default(), SourceOption::Option1);
    }
}
