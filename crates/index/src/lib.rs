//! Index layer for RkNNT query processing.
//!
//! Section 4.1.2 of the paper describes four index structures, all of which
//! live in this crate:
//!
//! * **RR-tree** — an R-tree over route points. Each leaf entry carries the
//!   identifier of the *stop* at that location; the [`PList`] maps a stop to
//!   the set of routes passing through it (the "crossover route set" of
//!   Definition 7), because in a real bus network one stop is shared by many
//!   routes.
//! * **TR-tree** — an R-tree over transition endpoints. Each leaf entry
//!   carries the transition id and whether it is the origin or destination
//!   point. Transitions are dynamic: [`TransitionStore::insert`] and
//!   [`TransitionStore::remove`] keep the TR-tree current as new passenger
//!   transitions arrive and old ones expire.
//! * **PList** — the inverted list from route point (stop) to route ids.
//! * **NList** — for every RR-tree node, the set of route ids appearing in
//!   the subtree below it, used by the verification phase to count how many
//!   distinct routes are closer to a candidate than the query.
//!
//! The stores own their R-trees and expose them read-only so the query
//! engines in `rknnt-core` can drive their own best-first traversals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod nlist;
mod partition;
mod route_store;
mod transition_store;
mod types;

pub use ids::{RouteId, StopId, TransitionId};
pub use nlist::NList;
pub use partition::{
    partition_by_origin_cell, partition_transitions, IdSpace, Placement, TransitionPartition,
};
pub use route_store::{PList, RouteStore, RouteStoreState};
pub use transition_store::{TransitionEndpoint, TransitionStore, TransitionStoreState};
pub use types::{EndpointKind, Route, Transition};
