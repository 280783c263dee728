//! Dataset and workload generation for the RkNNT evaluation.
//!
//! The paper evaluates on the NYC and LA GTFS bus networks and on passenger
//! transitions derived from Foursquare check-ins (plus a 10M-transition
//! synthetic set). Those exact datasets are not redistributable with this
//! reproduction, so this crate provides parametric generators that match
//! their *statistical shape* — route counts, stops per route, stop spacing,
//! detour ratios (Figure 6 / 17) and the hot-spot concentration of the
//! check-in heatmaps (Figure 8) — at configurable scale:
//!
//! * [`CityGenerator`] — a synthetic street lattice with arterial corridors;
//!   bus routes are bounded-rotation walks over the lattice, so routes share
//!   stops (which exercises the PList / crossover machinery) and do not
//!   zigzag, exactly like the paper's query generator.
//! * [`TransitionGenerator`] — origin/destination pairs drawn from a mixture
//!   of Gaussian hot-spots around stops plus a uniform background.
//! * [`workload`] — query generators for every experiment: synthetic RkNNT
//!   query routes with controlled |Q| and interval I (Table 4), and
//!   origin/destination pairs with controlled straight-line span ψ(se) for
//!   the MaxRkNNT experiments.
//! * [`stats`] — the histogram and density-grid summaries reported by
//!   Figures 6, 8 and 17.
//! * [`io`] — CSV import/export so real GTFS-derived data can be dropped in
//!   when available.
//! * [`codec`] — the hand-rolled little-endian binary codec (plus CRC-32)
//!   behind the durable storage engine's snapshots/WAL and the wire
//!   protocol's frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod city;
pub mod codec;
pub mod io;
pub mod stats;
mod transition;
pub mod workload;

pub use city::{City, CityConfig, CityGenerator};
pub use transition::{TransitionConfig, TransitionGenerator};
pub use workload::{ChurnConfig, ChurnEvent};
