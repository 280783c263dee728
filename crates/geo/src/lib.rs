//! Geometry primitives for Reverse k Nearest Neighbor search over trajectories.
//!
//! This crate provides the computational-geometry substrate used by the rest
//! of the workspace:
//!
//! * [`Point`] — a 2-D point (longitude/latitude treated as planar
//!   coordinates, as in the paper's Euclidean distance model).
//! * [`Rect`] — an axis-aligned minimum bounding rectangle (MBR) with the
//!   `MinDist` / `MaxDist` metrics needed for best-first R-tree traversal.
//! * [`HalfPlane`] — the half-plane `H_{r:q}` induced by the perpendicular
//!   bisector `⊥(q, r)` between a query point `q` and a filtering point `r`
//!   (Figure 2 of the paper): three coefficients, and the one place the
//!   pruning predicates' strictness is decided.
//! * [`FilteringSpace`] — the intersection `H_{r:Q} = ⋂_{q∈Q} H_{r:q}`
//!   (Definition 6), i.e. the region in which every point is closer to the
//!   filtering point `r` than to *every* point of the query route `Q`. Its
//!   strict tests are the slice-level functions of [`filtering`] — the point
//!   test and the three-way [`RectVerdict`] classification a tree walk can
//!   hand down to a whole subtree — which a filter set calls directly on
//!   rows of one flat half-plane array.
//! * [`VoronoiFilter`] — the Voronoi filtering space `H_{R:Q}` of
//!   Definition 8, expressed as a nearest-generator predicate rather than an
//!   explicit cell decomposition (see the module documentation of
//!   [`voronoi`], which also holds the slice-level strict tests).
//! * Distance helpers for point-to-route distance (Definition 3) and
//!   polyline travel distance `ψ(R)` (Equation 6).
//!
//! All computations are in `f64`. The crate is `#![forbid(unsafe_code)]` and
//! has no dependency other than `serde` for dataset serialisation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisector;
pub mod distance;
pub mod filtering;
pub mod point;
pub mod polyline;
pub mod rect;
pub mod voronoi;
pub mod zorder;

pub use bisector::HalfPlane;
pub use distance::{
    min_dist_query_rect, min_dist_sq_query_rect, point_route_distance, point_route_distance_sq,
};
pub use filtering::{FilteringSpace, RectVerdict};
pub use point::Point;
pub use polyline::{detour_ratio, mean_interval, straight_line_distance, travel_distance};
pub use rect::Rect;
pub use voronoi::VoronoiFilter;
pub use zorder::{CellGrid, MAX_GRID_BITS};

/// Numerical tolerance used by geometric predicates when comparing squared
/// distances. Chosen so that coordinates on a city scale (hundreds of
/// kilometres expressed in metres) keep ~1 cm of slack.
pub const EPSILON: f64 = 1e-9;
