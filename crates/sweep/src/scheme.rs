//! Concurrency-scheme descriptors: which loop nest the assemble/solve
//! routine uses and which of its loops are threaded.
//!
//! Figures 3 and 4 of the paper compare six parallel variants of the sweep.
//! Each variant is named by its loop order from outermost to innermost —
//! `angle/element/group` or `angle/group/element` — with bold type marking
//! the loops that are parallelised with OpenMP (the element-node loop is
//! always innermost and always vectorised, so it is not part of the name).
//! The storage layout of the angular flux, scalar flux and source arrays is
//! changed to *match* the loop order, which is what makes the comparison a
//! data-layout experiment as much as a scheduling one.
//!
//! This module gives those variants a first-class representation that the
//! solver driver in `unsnap-core` dispatches on and the benchmark binaries
//! iterate over.

/// Order of the two interchangeable middle loops of the sweep
/// (the angle loop is always outermost; element nodes are always
/// innermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// `angle / element / group`: for each element in the bucket, all
    /// energy groups are processed before moving to the next element.
    /// Matching data layout: group index is the fastest-moving array
    /// extent after the node index.
    ElementThenGroup,
    /// `angle / group / element`: for each energy group, all elements in
    /// the bucket are processed.  Matching data layout: element index is
    /// the fastest-moving extent after the node index.
    GroupThenElement,
}

impl LoopOrder {
    /// Both loop orders, in the order the paper's legends list them.
    pub fn all() -> [LoopOrder; 2] {
        [LoopOrder::ElementThenGroup, LoopOrder::GroupThenElement]
    }

    /// The `outer/inner` name fragment used in figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            LoopOrder::ElementThenGroup => "element/group",
            LoopOrder::GroupThenElement => "group/element",
        }
    }
}

/// Which loops of the nest are executed in parallel (threaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadedLoops {
    /// Only the outer of the two middle loops is threaded.
    OuterOnly,
    /// Only the inner of the two middle loops is threaded.
    InnerOnly,
    /// Both middle loops are threaded together (the OpenMP `collapse(2)`
    /// variant): the flattened element × group iteration space is divided
    /// among threads, which is what provides enough parallel work when the
    /// wavefront bucket is small (§IV-A.1 of the paper).
    Collapsed,
    /// Thread over the angles of the sweep instead: every angle owns a
    /// disjoint slab of the stored angular flux, so one parallel region
    /// spans the whole sweep and the scalar flux is reduced afterwards in
    /// a fixed order.  (§IV-A.3 of the paper threads angles around an
    /// *atomic* scalar-flux update, which it shows does not scale; with
    /// the angular flux stored anyway — Table I — no atomic is needed.)
    Angles,
}

impl ThreadedLoops {
    /// The three variants that appear in Figures 3 and 4 (angle threading
    /// is not one of the paper's six).
    pub fn figure_variants() -> [ThreadedLoops; 3] {
        [
            ThreadedLoops::OuterOnly,
            ThreadedLoops::InnerOnly,
            ThreadedLoops::Collapsed,
        ]
    }
}

/// A complete concurrency scheme: loop order plus threading choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConcurrencyScheme {
    /// Order of the element and group loops.
    pub loop_order: LoopOrder,
    /// Which loops are threaded.
    pub threaded: ThreadedLoops,
}

impl ConcurrencyScheme {
    /// Create a scheme.
    pub fn new(loop_order: LoopOrder, threaded: ThreadedLoops) -> Self {
        Self {
            loop_order,
            threaded,
        }
    }

    /// The six schemes of Figures 3 and 4, in legend order.
    pub fn figure_schemes() -> Vec<ConcurrencyScheme> {
        let mut out = Vec::with_capacity(6);
        for order in LoopOrder::all() {
            for threaded in ThreadedLoops::figure_variants() {
                out.push(ConcurrencyScheme::new(order, threaded));
            }
        }
        out
    }

    /// The angle-threaded scheme in the given storage order.
    pub fn angle_threaded(order: LoopOrder) -> Self {
        Self::new(order, ThreadedLoops::Angles)
    }

    /// The fastest scheme measured in this repository, and the default
    /// everywhere: `angle*/element/group`, one parallel region per sweep.
    /// The paper's own winner among its six — `angle/element*/group*`,
    /// one region per wavefront bucket — stays selectable by that label.
    pub fn best() -> Self {
        Self::angle_threaded(LoopOrder::ElementThenGroup)
    }

    /// A serial scheme (no threading at all is expressed as threading the
    /// outer loop with one thread; the driver treats a thread count of 1 as
    /// serial execution regardless).
    pub fn serial() -> Self {
        Self::new(LoopOrder::ElementThenGroup, ThreadedLoops::OuterOnly)
    }

    /// Figure-legend style label, e.g. `"angle/element*/group*"` where a
    /// `*` marks a threaded loop (the paper uses bold type instead).
    pub fn label(&self) -> String {
        let (outer, inner) = match self.loop_order {
            LoopOrder::ElementThenGroup => ("element", "group"),
            LoopOrder::GroupThenElement => ("group", "element"),
        };
        match self.threaded {
            ThreadedLoops::OuterOnly => format!("angle/{outer}*/{inner}"),
            ThreadedLoops::InnerOnly => format!("angle/{outer}/{inner}*"),
            ThreadedLoops::Collapsed => format!("angle/{outer}*/{inner}*"),
            ThreadedLoops::Angles => format!("angle*/{outer}/{inner}"),
        }
    }
}

impl std::fmt::Display for ConcurrencyScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for ConcurrencyScheme {
    type Err = String;

    /// Parse either a figure-legend label (`angle/element*/group*`,
    /// `angle*/group/element`, …) — the exact strings
    /// [`Display`](std::fmt::Display) emits,
    /// so schemes round-trip through strings — or one of the friendly
    /// aliases `best` and `serial`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        match trimmed.to_ascii_lowercase().as_str() {
            "best" => return Ok(ConcurrencyScheme::best()),
            "serial" => return Ok(ConcurrencyScheme::serial()),
            _ => {}
        }

        let parts: Vec<&str> = trimmed.split('/').collect();
        let [angle, outer, inner] = parts.as_slice() else {
            return Err(format!(
                "expected 'angle/<outer>/<inner>' with optional '*' marks, got '{s}'"
            ));
        };
        let strip = |part: &str| -> (String, bool) {
            let starred = part.ends_with('*');
            (part.trim_end_matches('*').to_ascii_lowercase(), starred)
        };
        let (angle_name, angle_starred) = strip(angle);
        let (outer_name, outer_starred) = strip(outer);
        let (inner_name, inner_starred) = strip(inner);
        if angle_name != "angle" {
            return Err(format!("scheme must start with 'angle', got '{s}'"));
        }
        let loop_order = match (outer_name.as_str(), inner_name.as_str()) {
            ("element", "group") => LoopOrder::ElementThenGroup,
            ("group", "element") => LoopOrder::GroupThenElement,
            _ => {
                return Err(format!(
                    "middle loops must be element/group in either order, got '{s}'"
                ))
            }
        };
        let threaded = match (angle_starred, outer_starred, inner_starred) {
            (true, false, false) => ThreadedLoops::Angles,
            (false, true, false) => ThreadedLoops::OuterOnly,
            (false, false, true) => ThreadedLoops::InnerOnly,
            (false, true, true) => ThreadedLoops::Collapsed,
            _ => {
                return Err(format!(
                    "unsupported '*' combination in '{s}': thread the angle loop, one \
                     middle loop, or both middle loops"
                ))
            }
        };
        Ok(ConcurrencyScheme::new(loop_order, threaded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_figure_schemes() {
        let schemes = ConcurrencyScheme::figure_schemes();
        assert_eq!(schemes.len(), 6);
        // All distinct.
        for (i, a) in schemes.iter().enumerate() {
            for b in schemes.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn labels_are_legend_like() {
        let s = ConcurrencyScheme::new(LoopOrder::ElementThenGroup, ThreadedLoops::Collapsed);
        assert_eq!(s.label(), "angle/element*/group*");
        let s = ConcurrencyScheme::new(LoopOrder::GroupThenElement, ThreadedLoops::OuterOnly);
        assert_eq!(s.label(), "angle/group*/element");
        let s = ConcurrencyScheme::angle_threaded(LoopOrder::ElementThenGroup);
        assert_eq!(s.label(), "angle*/element/group");
        assert_eq!(format!("{s}"), s.label());
    }

    #[test]
    fn best_scheme_is_the_fastest_measured_here() {
        // `best` means "fastest in this repository's BENCH records", not
        // "the paper's conclusion": the angle axis, in the storage order
        // the paper found best.  The paper's winner keeps its label.
        let best = ConcurrencyScheme::best();
        assert_eq!(best.label(), "angle*/element/group");
        assert!(!ConcurrencyScheme::figure_schemes().contains(&best));
        let papers: ConcurrencyScheme = "angle/element*/group*".parse().unwrap();
        assert_eq!(papers.threaded, ThreadedLoops::Collapsed);
    }

    #[test]
    fn loop_order_labels() {
        assert_eq!(LoopOrder::ElementThenGroup.label(), "element/group");
        assert_eq!(LoopOrder::GroupThenElement.label(), "group/element");
        assert_eq!(LoopOrder::all().len(), 2);
    }

    #[test]
    fn serial_scheme_exists() {
        let s = ConcurrencyScheme::serial();
        assert_eq!(s.threaded, ThreadedLoops::OuterOnly);
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        let mut schemes = ConcurrencyScheme::figure_schemes();
        schemes.push(ConcurrencyScheme::angle_threaded(
            LoopOrder::ElementThenGroup,
        ));
        schemes.push(ConcurrencyScheme::angle_threaded(
            LoopOrder::GroupThenElement,
        ));
        for scheme in schemes {
            let parsed: ConcurrencyScheme = scheme.label().parse().unwrap();
            assert_eq!(parsed, scheme, "round-tripping '{}'", scheme.label());
        }
    }

    #[test]
    fn from_str_accepts_aliases_and_rejects_garbage() {
        assert_eq!(
            "best".parse::<ConcurrencyScheme>().unwrap(),
            ConcurrencyScheme::best()
        );
        assert_eq!(
            "serial".parse::<ConcurrencyScheme>().unwrap(),
            ConcurrencyScheme::serial()
        );
        assert_eq!(
            "ANGLE/GROUP*/ELEMENT".parse::<ConcurrencyScheme>().unwrap(),
            ConcurrencyScheme::new(LoopOrder::GroupThenElement, ThreadedLoops::OuterOnly)
        );
        for bad in [
            "",
            "element/group",
            "angle/element/group/extra",
            "angle/foo*/bar",
            "angle*/element*/group*",
            "angle/element/group", // no loop threaded at all
        ] {
            assert!(
                bad.parse::<ConcurrencyScheme>().is_err(),
                "'{bad}' should fail"
            );
        }
    }
}
