//! Geometry primitives for Reverse k Nearest Neighbor search over trajectories.
//!
//! This crate provides the computational-geometry substrate used by the rest
//! of the workspace:
//!
//! * [`Point`] — a 2-D point (longitude/latitude treated as planar
//!   coordinates, as in the paper's Euclidean distance model).
//! * [`Rect`] — an axis-aligned minimum bounding rectangle (MBR) with the
//!   `MinDist` / `MaxDist` metrics needed for best-first R-tree traversal.
//! * [`PointEntry`] / [`RectEntry`] — the strict tests of the filtering space
//!   `H_{r:Q} = ⋂_{q∈Q} H_{r:q}` (Definition 6; `H_{r:q}` is the half-plane
//!   on `r`'s side of the perpendicular bisector `⊥(q, r)`, Figure 2), i.e.
//!   the region in which every point is closer to the filtering point `r`
//!   than to *every* point of the query route `Q`. They are evaluated in
//!   distance form — `|p − r|² < d²(p, Q)`, the entry's side computed once —
//!   and [`filtering`] is the one place the pruning predicates' strictness
//!   is decided. A rectangle gets the three-way [`RectVerdict`] a tree walk
//!   can hand down to a whole subtree.
//! * [`voronoi::strictly_covers_rect`] — what is left of the Voronoi
//!   filtering space `H_{R:Q}` of Definition 8 once the per-point spaces
//!   have been tested (see the module documentation of [`voronoi`]).
//! * Distance helpers for point-to-route distance (Definition 3) and
//!   polyline travel distance `ψ(R)` (Equation 6).
//!
//! All computations are in `f64`. The crate is `#![forbid(unsafe_code)]` and
//! has no dependency other than `serde` for dataset serialisation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod filtering;
pub mod point;
pub mod polyline;
pub mod rect;
pub mod voronoi;
pub mod zorder;

pub use distance::{
    min_dist_query_rect, min_dist_sq_query_rect, point_route_distance, point_route_distance_sq,
};
pub use filtering::{PointEntry, RectEntry, RectVerdict};
pub use point::Point;
pub use polyline::{detour_ratio, mean_interval, straight_line_distance, travel_distance};
pub use rect::Rect;
pub use zorder::{CellGrid, MAX_GRID_BITS};

/// Numerical tolerance used by geometric predicates when comparing squared
/// distances. Chosen so that coordinates on a city scale (hundreds of
/// kilometres expressed in metres) keep ~1 cm of slack.
pub const EPSILON: f64 = 1e-9;
