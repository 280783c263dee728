//! Reusable per-worker scratch state for the query hot path.
//!
//! Every RkNNT verification call counts *distinct* routes; the obvious
//! per-call `HashSet<RouteId>` makes the paper's filter-and-refine loop
//! allocation-bound before it is distance-bound. [`QueryScratch`] replaces
//! those per-call structures with buffers a worker owns and reuses across
//! queries: an epoch-stamped mark table over the dense route-id space
//! ([`RouteMarks`]), a traversal stack of [`NodeId`]s, the straddler lists
//! and inherited-route stack of the pruning walk (`PruneWalk`), the
//! candidate buffer of the pruning phase, and the per-transition grouping
//! maps of the verification phase. (What `IsFiltered` computes per tested
//! entry — the entry's distance thresholds, [`rknnt_geo::RectEntry`] — is a
//! few fixed-size rows on the stack and needs no buffer here.) After the first few queries warm the
//! buffers up, the pruning walk and the per-candidate path perform zero heap
//! allocations (asserted by the allocation-counter tests in
//! `tests/hot_path_alloc.rs`).
//!
//! # Ownership rules
//!
//! A `QueryScratch` belongs to exactly one worker and is threaded through
//! calls by `&mut` — it is never shared between threads or interleaved
//! between two in-flight queries. The batch service creates one per worker
//! per batch; the engines' plain `execute` entry points create a throwaway
//! one so results never depend on whether scratch was reused.
//!
//! # Why epoch stamping is sound
//!
//! `RouteMarks` stores one `u32` stamp per route slot; a route is "marked"
//! iff its stamp equals the current epoch. [`RouteMarks::begin`] bumps the
//! epoch, which unmarks everything in O(1) — no clearing loop, no
//! allocation. Stale stamps from earlier epochs can never alias the current
//! epoch until the counter wraps around after 2³² `begin` calls; at the
//! wrap, `begin` zeroes the whole table once and restarts at epoch 1, so a
//! stamp written 2³² epochs ago can never be mistaken for a current mark.
//! The wrap path is exercised in tests via [`RouteMarks::force_epoch_wrap`].

use crate::prune::CandidateEndpoint;
use rknnt_geo::Point;
use rknnt_index::{EndpointKind, NList, RouteId, RouteStore, TransitionId};
use rknnt_rtree::NodeId;
use std::collections::HashMap;

/// Epoch-stamped membership marks over the dense route-id space — the
/// allocation-free replacement for a per-call `HashSet<RouteId>`.
///
/// The table grows lazily to the highest route index it sees (allocation
/// happens only until the table is warmed to the store's
/// [`RouteStore::route_id_bound`]); every later reuse is allocation-free.
#[derive(Debug, Clone)]
pub struct RouteMarks {
    /// Current epoch; `stamps[i] == epoch` means route slot `i` is marked.
    epoch: u32,
    /// One stamp per route slot, indexed by `RouteId::index()`.
    stamps: Vec<u32>,
    /// Number of distinct routes marked this epoch.
    marked: usize,
}

impl Default for RouteMarks {
    fn default() -> Self {
        // Epoch 1 with an all-zero table: nothing is marked even before the
        // first `begin`, so a missing `begin` can under-count but never
        // resurrect marks from a previous use.
        RouteMarks {
            epoch: 1,
            stamps: Vec::new(),
            marked: 0,
        }
    }
}

impl RouteMarks {
    /// Starts a fresh distinct-route count, unmarking everything in O(1).
    #[inline]
    pub fn begin(&mut self) {
        self.marked = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One full u32 wrap: stamps written 2^32 epochs ago could now
            // alias the restarted counter, so clear them all once and resume
            // at epoch 1. Amortised over 2^32 reuses this is free.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// [`RouteMarks::begin`], then marks every route of `routes` (a repeated
    /// route counts once). This is how an `IsFiltered` call on a tree entry
    /// starts from the distinct routes its ancestors' inside verdicts already
    /// counted — fewer than `k` of them, or the ancestor would have been
    /// pruned.
    #[inline]
    pub fn begin_with(&mut self, routes: &[RouteId]) {
        self.begin();
        for route in routes {
            self.mark(*route);
        }
    }

    /// Marks `route`; returns `true` when it was not yet marked this epoch
    /// (i.e. the distinct count just grew).
    #[inline]
    pub fn mark(&mut self, route: RouteId) -> bool {
        let i = route.index();
        if i >= self.stamps.len() {
            // Lazy growth: only until the table covers the store's route-id
            // bound, then never again.
            self.stamps.resize(i + 1, 0);
        }
        if self.stamps[i] == self.epoch {
            return false;
        }
        self.stamps[i] = self.epoch;
        self.marked += 1;
        true
    }

    /// Whether `route` is marked in the current epoch.
    #[inline]
    pub fn contains(&self, route: RouteId) -> bool {
        self.stamps.get(route.index()) == Some(&self.epoch)
    }

    /// Number of distinct routes marked since the last [`RouteMarks::begin`].
    #[inline]
    pub fn count(&self) -> usize {
        self.marked
    }

    /// Pre-grows the stamp table to cover `bound` route slots so the first
    /// marks after warm-up never allocate.
    pub fn reserve(&mut self, bound: usize) {
        if bound > self.stamps.len() {
            self.stamps.resize(bound, 0);
        }
    }

    /// Forces the epoch counter to the wrap boundary so the *next*
    /// [`RouteMarks::begin`] exercises the 2³²-reuse rollover path without
    /// 2³² real calls. Exposed for the property tests; harmless otherwise
    /// (it only makes the next `begin` clear the table).
    pub fn force_epoch_wrap(&mut self) {
        self.epoch = u32::MAX;
    }
}

/// Buffers of the inherited-verdict TR-tree walk
/// ([`crate::prune_into_scratch`]). The walk is depth-first, so what each
/// open node hands its subtree sits on stacks indexed by depth.
#[derive(Debug, Default)]
pub(crate) struct PruneWalk {
    /// DFS stack: a node and the depth of the level its parent left for it.
    pub nodes: Vec<(NodeId, u32)>,
    /// `levels[d]` is what the open node at depth `d` hands down; level 0 is
    /// the walk's start (every filter point, no route).
    pub levels: Vec<PruneLevel>,
    /// Distinct routes counted by inside verdicts along the current
    /// root-to-node path, outermost first: the open node at depth `d`
    /// inherits `routes[..levels[d].routes_len]`. Voronoi marks never enter.
    pub routes: Vec<RouteId>,
}

/// What one open TR-tree node hands down to its children and leaf entries.
#[derive(Debug, Default)]
pub(crate) struct PruneLevel {
    /// Filter points (indices into the set) that straddle the node's MBR.
    pub straddlers: Vec<u32>,
    /// Length of the [`PruneWalk::routes`] prefix the node's subtree inherits.
    pub routes_len: usize,
}

/// Reusable buffers for one worker's query execution — see the module
/// documentation for the ownership rules.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Distinct-route counting for verification and `IsFiltered`.
    pub(crate) marks: RouteMarks,
    /// RR-tree traversal stack of the verification phase.
    pub(crate) node_stack: Vec<NodeId>,
    /// The pruning phase's TR-tree walk.
    pub(crate) prune_walk: PruneWalk,
    /// Surviving candidate endpoints of the pruning phase.
    pub(crate) candidates: Vec<CandidateEndpoint>,
    /// TR-tree entries put through `IsFiltered`, and the filter-point ×
    /// entry evaluations that took, since the last
    /// [`QueryScratch::clear_candidates`].
    pub(crate) entries_tested: usize,
    pub(crate) filter_tests: usize,
    /// Per-transition (origin, destination) strictly-closer counts of the
    /// verification phase, each capped at `k`; cleared (capacity kept) per
    /// query.
    pub(crate) per_transition: HashMap<TransitionId, [u32; 2]>,
    /// Endpoint union of the divide & conquer engine's per-point passes.
    pub(crate) union: HashMap<(TransitionId, EndpointKind), Point>,
}

impl QueryScratch {
    /// Creates empty scratch; buffers grow to their steady-state sizes over
    /// the first queries and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the candidate buffer (capacity kept) and zeroes the prune
    /// work counts: the start of a query's prune phase, before the first
    /// [`crate::prune_into_scratch`] call adds to them.
    pub fn clear_candidates(&mut self) {
        self.candidates.clear();
        self.entries_tested = 0;
        self.filter_tests = 0;
    }

    /// The candidate endpoints appended since the last
    /// [`QueryScratch::clear_candidates`].
    pub fn candidates(&self) -> &[CandidateEndpoint] {
        &self.candidates
    }

    /// Appends candidate endpoints a prune walk elsewhere found.
    pub fn extend_candidates(&mut self, candidates: impl IntoIterator<Item = CandidateEndpoint>) {
        self.candidates.extend(candidates);
    }

    /// The counts the last [`crate::verify_candidates`] on this scratch
    /// found for the (origin, destination) of `id`: each the number of
    /// distinct routes strictly closer to the endpoint than the query,
    /// capped at the query's `k` (saturating at `u32::MAX`) — and exactly
    /// `k` for an endpoint the prune phase filtered out, which is never
    /// counted. `None` when neither endpoint was a candidate.
    pub fn verified_counts(&self, id: TransitionId) -> Option<[u32; 2]> {
        self.per_transition.get(&id).copied()
    }

    /// The verification kernel: the number of distinct routes with a stop
    /// whose squared distance to `t` is strictly below `threshold_sq`,
    /// capped at `limit` (the walk stops once `limit` are found). The
    /// distinct-route set and traversal stack live in `self`, so repeated
    /// calls stop allocating once warmed.
    pub fn count_closer_routes_sq(
        &mut self,
        routes: &RouteStore,
        nlist: &NList,
        t: &Point,
        threshold_sq: f64,
        limit: usize,
    ) -> usize {
        crate::verify::count_closer_routes_sq_scratch(
            routes,
            nlist,
            t,
            threshold_sq,
            limit,
            &mut self.marks,
            &mut self.node_stack,
        )
    }

    /// Test hook: forces the next distinct-route count to take the epoch
    /// rollover path. See [`RouteMarks::force_epoch_wrap`].
    pub fn force_epoch_wrap(&mut self) {
        self.marks.force_epoch_wrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_count_distinct_routes_per_epoch() {
        let mut marks = RouteMarks::default();
        marks.begin();
        assert!(marks.mark(RouteId(3)));
        assert!(!marks.mark(RouteId(3)), "second mark is not distinct");
        assert!(marks.mark(RouteId(0)));
        assert_eq!(marks.count(), 2);
        assert!(marks.contains(RouteId(3)));
        assert!(!marks.contains(RouteId(7)));
        // A new epoch unmarks everything without touching the table.
        marks.begin();
        assert_eq!(marks.count(), 0);
        assert!(!marks.contains(RouteId(3)));
        assert!(marks.mark(RouteId(3)));
        // Seeding starts a new epoch from an inherited list.
        marks.begin_with(&[RouteId(7), RouteId(0)]);
        assert_eq!(marks.count(), 2);
        assert!(marks.contains(RouteId(7)) && !marks.contains(RouteId(3)));
        assert!(!marks.mark(RouteId(0)), "inherited routes count once");
    }

    #[test]
    fn forced_epoch_wrap_clears_stale_stamps() {
        let mut marks = RouteMarks::default();
        marks.begin();
        marks.mark(RouteId(5));
        marks.force_epoch_wrap();
        // The wrap's next `begin` resets the table and restarts at epoch 1;
        // the stale stamp for route 5 must not leak into the new epoch.
        marks.begin();
        assert_eq!(marks.count(), 0);
        assert!(!marks.contains(RouteId(5)));
        assert!(marks.mark(RouteId(5)));
        assert_eq!(marks.count(), 1);
        // And the epoch keeps working normally afterwards.
        marks.begin();
        assert!(!marks.contains(RouteId(5)));
    }

    #[test]
    fn reserve_pre_grows_without_marking() {
        let mut marks = RouteMarks::default();
        marks.reserve(100);
        marks.begin();
        assert_eq!(marks.count(), 0);
        assert!(!marks.contains(RouteId(99)));
        assert!(marks.mark(RouteId(99)));
    }
}
