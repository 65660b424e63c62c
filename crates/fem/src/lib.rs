//! # unsnap-fem
//!
//! Arbitrary-order Lagrange hexahedral finite elements for the UnSNAP
//! discontinuous Galerkin transport discretisation.
//!
//! The spatial discretisation in the paper (§II-B) multiplies the transport
//! equation by a test function, integrates over each hexahedral element,
//! and integrates the streaming (gradient) term by parts.  Because the
//! discretisation is *discontinuous*, every element carries its own set of
//! `(p + 1)³` Lagrange nodes — nodes that share a physical position with a
//! neighbouring element are separate unknowns.  The per-element weak form
//! needs three families of precomputed basis-pair integrals:
//!
//! * the **mass matrix** `M_ij = ∫ φ_i φ_j dV` (collision term),
//! * the **streaming matrices** `G^d_ij = ∫ (∂φ_i/∂x_d) φ_j dV` for each
//!   Cartesian direction `d` (gradient term after integration by parts),
//! * the **face matrices** `F^f_ij = ∫_f φ_i φ_j n dS` for each of the six
//!   faces (surface terms: outflow contributions go into the system matrix,
//!   inflow contributions pick up the upwind neighbour's flux and go into
//!   the right-hand side).
//!
//! This crate provides:
//!
//! * [`quadrature`] — Gauss–Legendre rules in 1-D, tensor-product rules on
//!   the reference hexahedron and its faces;
//! * [`lagrange`] — 1-D Lagrange interpolation bases on equispaced nodes;
//! * [`element`] — the tensor-product reference element of arbitrary order
//!   (basis values/gradients at quadrature points, node ordering, the
//!   matrix-size/footprint data of Table I);
//! * [`geometry`] — the trilinear (Q1) geometric map from the reference
//!   cube to a possibly twisted physical hexahedron, its Jacobians and face
//!   area vectors;
//! * [`integrals`] — assembly of the per-element integral families above,
//!   precomputed and stored per element (the paper's approach);
//! * [`face`] — face-local node enumeration and the node correspondence
//!   between the two sides of a conforming interior face.
//!
//! ## Example
//!
//! ```
//! use unsnap_fem::element::ReferenceElement;
//! use unsnap_fem::geometry::HexVertices;
//! use unsnap_fem::integrals::ElementIntegrals;
//!
//! let element = ReferenceElement::new(1);          // linear: 8 nodes
//! assert_eq!(element.nodes_per_element(), 8);
//! let hex = HexVertices::unit_cube();
//! let integrals = ElementIntegrals::compute(&element, &hex);
//! // The mass matrix of the unit cube integrates to its volume.
//! let total: f64 = integrals.mass.as_slice().iter().sum();
//! assert!((total - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod element;
pub mod face;
pub mod geometry;
pub mod integrals;
pub mod lagrange;
pub mod quadrature;

pub use element::ReferenceElement;
pub use face::{Face, FACES};
pub use geometry::HexVertices;
pub use integrals::ElementIntegrals;
pub use quadrature::{gauss_legendre, QuadratureRule};
