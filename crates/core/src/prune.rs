//! Transition pruning (`PruneTransition`, Algorithm 4).
//!
//! With the filter set fixed, the TR-tree is traversed and every node that is
//! covered by the filtering spaces of at least `k` distinct routes is pruned
//! wholesale; surviving endpoints become candidates for exact verification.
//!
//! The walk inherits verdicts (see [`crate::filter`], "Inherited verdicts"):
//! an opened node hands its subtree the filter points that straddle its MBR
//! and the routes its inside verdicts counted, so each child and endpoint
//! tests the straddlers only, each test a comparison of squared distances
//! against a threshold the entry computed once. Every `IsFiltered` answer —
//! and so every pruned node, every candidate and their order — is the one a
//! scan of the whole filter set per entry gives, and an endpoint is dropped
//! only on the comparison verification itself would make at it.

use crate::filter::{FilterSet, Walk};
use crate::scratch::{PruneLevel, PruneWalk, QueryScratch};
use rknnt_geo::Point;
use rknnt_index::{EndpointKind, TransitionId, TransitionStore};
use serde::{Deserialize, Serialize};

/// A transition endpoint that survived pruning and awaits verification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateEndpoint {
    /// The transition this endpoint belongs to.
    pub transition: TransitionId,
    /// Origin or destination.
    pub kind: EndpointKind,
    /// Location of the endpoint.
    pub point: Point,
}

/// Result of the pruning phase: the surviving candidate endpoints and the
/// number of TR-tree nodes pruned without being opened.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Candidate endpoints (`S_cnd`).
    pub candidates: Vec<CandidateEndpoint>,
    /// Number of TR-tree nodes pruned wholesale.
    pub pruned_nodes: usize,
}

/// `PruneTransition` (Algorithm 4): walks the TR-tree, prunes nodes and
/// points covered by at least `k` filtering routes, and returns the
/// surviving endpoints.
///
/// The traversal order does not affect the outcome because the filter set is
/// fixed, so a depth-first walk is used instead of the paper's distance
/// ordered heap; the pruning tests performed per node are identical.
pub fn prune_transitions(
    transitions: &TransitionStore,
    filter_set: &FilterSet,
    k: usize,
    use_voronoi: bool,
) -> PruneOutcome {
    let mut scratch = QueryScratch::new();
    let pruned_nodes = prune_into_scratch(
        transitions,
        filter_set,
        k,
        use_voronoi,
        &mut scratch,
        |id| id,
    );
    PruneOutcome {
        candidates: std::mem::take(&mut scratch.candidates),
        pruned_nodes,
    }
}

/// The prune half of the Filter–Refine pipeline on a caller-provided
/// [`QueryScratch`]: walks one [`TransitionStore`]'s TR-tree against a fixed
/// filter set and **appends** the surviving endpoints to the scratch's
/// candidate buffer, passing each transition id through `to_global` on the
/// way in. Returns the number of TR-tree nodes pruned wholesale.
///
/// Appending (the caller starts a query with
/// [`QueryScratch::clear_candidates`]) is what lets a router call this once
/// per consulted shard — `to_global` translating shard-local ids — and then
/// run [`crate::verify_candidates`] once over the union; a single-store
/// engine passes the identity. The `IsFiltered` distinct-route counts run on
/// the scratch's mark table and the walk on its `PruneWalk` stacks, so a
/// warmed scratch makes the traversal allocation-free. Traversal order — and
/// therefore the candidate order — is exactly that of [`prune_transitions`].
/// The entries tested and the filter-point evaluations made are added to the
/// scratch's work counts, which [`crate::verify_candidates`] reports.
pub fn prune_into_scratch(
    transitions: &TransitionStore,
    filter_set: &FilterSet,
    k: usize,
    use_voronoi: bool,
    scratch: &mut QueryScratch,
    to_global: impl Fn(TransitionId) -> TransitionId,
) -> usize {
    let QueryScratch {
        marks,
        prune_walk: PruneWalk {
            nodes,
            levels,
            routes,
        },
        candidates,
        entries_tested,
        filter_tests,
        ..
    } = scratch;
    let tree = transitions.rtree();
    let Some(root) = tree.root() else {
        return 0;
    };
    let mut walk = Walk::new(k, use_voronoi, marks);
    let mut pruned_nodes = 0usize;
    // Level 0: nothing judged yet — every filter point live, no route.
    if levels.is_empty() {
        levels.push(PruneLevel::default());
    }
    levels[0].straddlers.clear();
    levels[0]
        .straddlers
        .extend(0..filter_set.num_points() as u32);
    levels[0].routes_len = 0;
    nodes.clear();
    nodes.push((root.id(), 0));
    while let Some((id, depth)) = nodes.pop() {
        let Some(node) = tree.node_ref(id) else {
            continue;
        };
        let depth = depth as usize;
        if levels.len() < depth + 2 {
            levels.push(PruneLevel::default());
        }
        let (above, below) = levels.split_at_mut(depth + 1);
        let (inherited, own) = (&above[depth], &mut below[0]);
        // Back on the path to this node: drop what finished subtrees pushed.
        routes.truncate(inherited.routes_len);
        own.straddlers.clear();
        walk.marks.begin_with(routes);
        if filter_set.rect_is_filtered(
            &node.mbr(),
            inherited.straddlers.iter().copied(),
            &mut walk,
            |route| routes.push(route),
            |index| own.straddlers.push(index),
        ) {
            pruned_nodes += 1;
            continue;
        }
        own.routes_len = routes.len();
        if node.is_leaf() {
            for entry in node.entries() {
                walk.marks.begin_with(routes);
                let live = own.straddlers.iter().copied();
                if filter_set.point_is_filtered(&entry.point, live, &mut walk) {
                    continue;
                }
                candidates.push(CandidateEndpoint {
                    transition: to_global(entry.data.transition),
                    kind: entry.data.kind,
                    point: entry.point,
                });
            }
        } else {
            node.for_each_child(|child| nodes.push((child.id(), depth as u32 + 1)));
        }
    }
    *entries_tested += walk.entries_tested;
    *filter_tests += walk.filter_tests;
    pruned_nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::build_filter_set;
    use rknnt_geo::point_route_distance;
    use rknnt_index::RouteStore;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn ladder(n_routes: usize) -> RouteStore {
        let routes: Vec<Vec<Point>> = (0..n_routes)
            .map(|i| {
                let y = i as f64 * 10.0;
                (0..8).map(|j| p(j as f64 * 10.0, y)).collect()
            })
            .collect();
        let (store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        store
    }

    fn transitions_grid() -> TransitionStore {
        let mut store = TransitionStore::default();
        for i in 0..20 {
            for j in 0..12 {
                let o = p(i as f64 * 4.0, j as f64 * 9.0);
                let d = p(i as f64 * 4.0 + 2.0, j as f64 * 9.0 + 3.0);
                store.insert(o, d).unwrap();
            }
        }
        store
    }

    #[test]
    fn pruning_is_sound() {
        // Every endpoint NOT in the candidate set must genuinely fail the
        // kNN test (have >= k routes closer than the query).
        let routes = ladder(10);
        let transitions = transitions_grid();
        let query = vec![p(0.0, 45.0), p(35.0, 45.0), p(70.0, 45.0)];
        let k = 2;
        let outcome = build_filter_set(&routes, &query, k);
        for use_voronoi in [false, true] {
            let pruned = prune_transitions(&transitions, &outcome.filter_set, k, use_voronoi);
            let surviving: std::collections::HashSet<(u32, EndpointKind)> = pruned
                .candidates
                .iter()
                .map(|c| (c.transition.raw(), c.kind))
                .collect();
            for t in transitions.transitions() {
                for (kind, point) in [
                    (EndpointKind::Origin, t.origin),
                    (EndpointKind::Destination, t.destination),
                ] {
                    if surviving.contains(&(t.id.raw(), kind)) {
                        continue;
                    }
                    // Pruned: verify it really has >= k closer routes.
                    let d_query = point_route_distance(&point, &query);
                    let closer = routes
                        .routes()
                        .filter(|r| point_route_distance(&point, &r.points) <= d_query)
                        .count();
                    assert!(
                        closer >= k,
                        "endpoint {point} of T{} was pruned but only {closer} routes are closer (voronoi={use_voronoi})",
                        t.id.raw()
                    );
                }
            }
        }
    }

    #[test]
    fn voronoi_prunes_at_least_as_many_nodes() {
        let routes = ladder(12);
        let transitions = transitions_grid();
        let query = vec![p(0.0, 45.0), p(35.0, 45.0), p(70.0, 45.0)];
        let k = 3;
        let outcome = build_filter_set(&routes, &query, k);
        let plain = prune_transitions(&transitions, &outcome.filter_set, k, false);
        let voronoi = prune_transitions(&transitions, &outcome.filter_set, k, true);
        assert!(voronoi.candidates.len() <= plain.candidates.len());
    }

    #[test]
    fn empty_transition_store_yields_no_candidates() {
        let routes = ladder(5);
        let transitions = TransitionStore::default();
        let query = vec![p(0.0, 25.0), p(70.0, 25.0)];
        let outcome = build_filter_set(&routes, &query, 1);
        let pruned = prune_transitions(&transitions, &outcome.filter_set, 1, false);
        assert!(pruned.candidates.is_empty());
        assert_eq!(pruned.pruned_nodes, 0);
    }

    #[test]
    fn without_filter_points_everything_survives() {
        // An empty route store produces an empty filter set, so nothing can
        // be pruned and every endpoint is a candidate.
        let routes = RouteStore::default();
        let transitions = transitions_grid();
        let query = vec![p(0.0, 45.0), p(70.0, 45.0)];
        let outcome = build_filter_set(&routes, &query, 2);
        let pruned = prune_transitions(&transitions, &outcome.filter_set, 2, true);
        assert_eq!(pruned.candidates.len(), transitions.len() * 2);
    }
}
