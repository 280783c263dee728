//! The Filter–Refine engine (Section 4) and its Voronoi-enhanced variant
//! (Section 5.1).

use crate::engine::RknnTEngine;
use crate::filter::{build_filter_set, FilterOutcome};
use crate::prune::prune_into_scratch;
use crate::query::{RknntQuery, RknntResult};
use crate::scratch::QueryScratch;
use crate::verify::verify_candidates;
use rknnt_index::{RouteStore, TransitionStore};
use std::time::Instant;

/// The three-step processing framework of Algorithm 1:
/// `FilterRoute` → `PruneTransition` → `RefineCandidates`.
pub struct FilterRefineEngine<'a> {
    routes: &'a RouteStore,
    transitions: &'a TransitionStore,
    use_voronoi: bool,
}

impl<'a> FilterRefineEngine<'a> {
    /// Creates the basic Filter–Refine engine (no Voronoi enlargement).
    ///
    /// Construction is O(1): the engine only borrows the stores, and
    /// verification reads the route store's resident NList
    /// ([`RouteStore::nlist`]).
    pub fn new(routes: &'a RouteStore, transitions: &'a TransitionStore) -> Self {
        FilterRefineEngine {
            routes,
            transitions,
            use_voronoi: false,
        }
    }

    /// Creates the engine with the Voronoi filtering optimisation enabled.
    pub fn with_voronoi(routes: &'a RouteStore, transitions: &'a TransitionStore) -> Self {
        FilterRefineEngine {
            use_voronoi: true,
            ..Self::new(routes, transitions)
        }
    }

    /// Shared access to the stores (used by the divide & conquer engine and
    /// by the benchmark harness).
    pub fn stores(&self) -> (&'a RouteStore, &'a TransitionStore) {
        (self.routes, self.transitions)
    }

    /// Builds the filter set for a query (phase 1 of Algorithm 1) without
    /// running the rest of the pipeline.
    ///
    /// The outcome depends only on `(query.route, query.k)` — not on the
    /// semantics — so one construction can be replayed through
    /// [`FilterRefineEngine::execute_with_filter`] for every query sharing
    /// the pair.
    pub fn build_filter(&self, query: &RknntQuery) -> FilterOutcome {
        build_filter_set(self.routes, &query.route, query.k)
    }

    /// Executes the prune + verify phases against a pre-built filter
    /// outcome.
    ///
    /// `filter_outcome` **must** have been built for this query's
    /// `(route, k)` pair (e.g. by [`FilterRefineEngine::build_filter`]);
    /// reusing a filter set across different routes or k values is unsound.
    /// Given that precondition, the returned transition set is byte-identical
    /// to [`RknnTEngine::execute`]'s — the pipeline is deterministic — which
    /// is what lets a batch share filter construction across queries
    /// without changing any answer. Reported filtering time covers
    /// only the pruning done here; callers amortising one construction over
    /// several queries account for the construction time themselves.
    pub fn execute_with_filter(
        &self,
        query: &RknntQuery,
        filter_outcome: &FilterOutcome,
    ) -> RknntResult {
        self.execute_with_filter_scratch(query, filter_outcome, &mut QueryScratch::new())
    }

    /// [`FilterRefineEngine::execute_with_filter`] on a caller-provided
    /// [`QueryScratch`]: the pruning traversal, the `IsFiltered` route
    /// counts, the candidate buffer, the verification traversals and the
    /// per-transition grouping all reuse the scratch's buffers, so after the
    /// scratch is warmed the per-candidate path performs zero heap
    /// allocations. Results are byte-identical to the allocating wrapper.
    pub fn execute_with_filter_scratch(
        &self,
        query: &RknntQuery,
        filter_outcome: &FilterOutcome,
        scratch: &mut QueryScratch,
    ) -> RknntResult {
        if query.is_degenerate() {
            return RknntResult::default();
        }
        // Phase 2: transition pruning against the supplied filter set.
        let prune_started = Instant::now();
        scratch.clear_candidates();
        let pruned_nodes = prune_into_scratch(
            self.transitions,
            &filter_outcome.filter_set,
            query.k,
            self.use_voronoi,
            scratch,
            |id| id,
        );
        let filtering = prune_started.elapsed();

        // Phase 3: exact verification of the surviving endpoints.
        let mut result = verify_candidates(self.routes, query, scratch);
        result.timings.filtering = filtering;
        result.stats.record_filter(filter_outcome, pruned_nodes);
        result
    }
}

impl RknnTEngine for FilterRefineEngine<'_> {
    fn name(&self) -> &'static str {
        if self.use_voronoi {
            "Voronoi"
        } else {
            "Filter-Refine"
        }
    }

    fn execute(&self, query: &RknntQuery) -> RknntResult {
        self.execute_scratch(query, &mut QueryScratch::new())
    }

    fn execute_scratch(&self, query: &RknntQuery, scratch: &mut QueryScratch) -> RknntResult {
        if query.is_degenerate() {
            return RknntResult::default();
        }

        // Phase 1: filter-set construction, then the shared prune + verify
        // pipeline. The construction time is folded into the filtering phase
        // so the breakdown figures match the paper's definition.
        let filter_started = Instant::now();
        let filter_outcome = self.build_filter(query);
        let construction = filter_started.elapsed();
        let mut result = self.execute_with_filter_scratch(query, &filter_outcome, scratch);
        result.timings.filtering += construction;
        result
    }
}

/// The Voronoi engine of Section 5.1: identical pipeline, but `IsFiltered`
/// additionally uses the per-route Voronoi filtering spaces, enlarging the
/// pruned region and reducing the number of candidates to verify.
pub struct VoronoiEngine<'a>(FilterRefineEngine<'a>);

impl<'a> VoronoiEngine<'a> {
    /// Creates the Voronoi-optimised engine.
    pub fn new(routes: &'a RouteStore, transitions: &'a TransitionStore) -> Self {
        VoronoiEngine(FilterRefineEngine::with_voronoi(routes, transitions))
    }
}

impl RknnTEngine for VoronoiEngine<'_> {
    fn name(&self) -> &'static str {
        "Voronoi"
    }

    fn execute(&self, query: &RknntQuery) -> RknntResult {
        self.0.execute(query)
    }

    fn execute_scratch(&self, query: &RknntQuery, scratch: &mut QueryScratch) -> RknntResult {
        self.0.execute_scratch(query, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceEngine;
    use crate::query::Semantics;
    use rknnt_geo::Point;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn ladder_world() -> (RouteStore, TransitionStore) {
        let routes: Vec<Vec<Point>> = (0..12)
            .map(|i| {
                let y = i as f64 * 10.0;
                (0..8).map(|j| p(j as f64 * 10.0, y)).collect()
            })
            .collect();
        let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        let mut transition_store = TransitionStore::default();
        // A deterministic scatter of origin/destination pairs.
        for i in 0..150u32 {
            let ox = (i as f64 * 7.3) % 70.0;
            let oy = (i as f64 * 13.7) % 110.0;
            let dx = (i as f64 * 3.1 + 11.0) % 70.0;
            let dy = (i as f64 * 17.9 + 23.0) % 110.0;
            transition_store.insert(p(ox, oy), p(dx, dy)).unwrap();
        }
        (route_store, transition_store)
    }

    #[test]
    fn matches_brute_force_on_exists_and_forall() {
        let (routes, transitions) = ladder_world();
        let oracle = BruteForceEngine::new(&routes, &transitions);
        let fr = FilterRefineEngine::new(&routes, &transitions);
        let vo = VoronoiEngine::new(&routes, &transitions);
        for k in [1usize, 2, 5] {
            for semantics in [Semantics::Exists, Semantics::ForAll] {
                let query = RknntQuery {
                    route: vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)],
                    k,
                    semantics,
                };
                let expected = oracle.execute(&query);
                let got_fr = fr.execute(&query);
                let got_vo = vo.execute(&query);
                assert_eq!(
                    got_fr.transitions, expected.transitions,
                    "filter-refine k={k} {semantics:?}"
                );
                assert_eq!(
                    got_vo.transitions, expected.transitions,
                    "voronoi k={k} {semantics:?}"
                );
            }
        }
    }

    #[test]
    fn stats_are_populated_and_consistent() {
        let (routes, transitions) = ladder_world();
        let fr = FilterRefineEngine::new(&routes, &transitions);
        let query = RknntQuery::exists(vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)], 3);
        let result = fr.execute(&query);
        assert!(result.stats.filter_points > 0);
        assert!(result.stats.filter_routes > 0);
        assert!(result.stats.candidate_endpoints >= result.stats.verified_endpoints);
        assert_eq!(result.stats.result_transitions, result.transitions.len());
        assert!(result.stats.candidate_endpoints <= transitions.len() * 2);
        assert_eq!(fr.name(), "Filter-Refine");
    }

    #[test]
    fn voronoi_reduces_or_equals_candidates() {
        let (routes, transitions) = ladder_world();
        let fr = FilterRefineEngine::new(&routes, &transitions);
        let vo = VoronoiEngine::new(&routes, &transitions);
        let query = RknntQuery::exists(vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)], 5);
        let r1 = fr.execute(&query);
        let r2 = vo.execute(&query);
        assert!(r2.stats.candidate_endpoints <= r1.stats.candidate_endpoints);
        assert_eq!(r1.transitions, r2.transitions);
        assert_eq!(vo.name(), "Voronoi");
    }

    #[test]
    fn dynamic_updates_are_visible_to_new_engines() {
        let (routes, mut transitions) = ladder_world();
        let query = RknntQuery::exists(vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)], 2);
        let before = FilterRefineEngine::new(&routes, &transitions)
            .execute(&query)
            .transitions;
        // A transition hugging two of the query's points (distance to the
        // query is point-to-point, Definition 3) must appear after insertion.
        let id = transitions.insert(p(34.8, 37.2), p(64.5, 36.8)).unwrap();
        let after = FilterRefineEngine::new(&routes, &transitions).execute(&query);
        assert!(after.contains(id));
        assert!(after.len() >= before.len());
        // And disappear again after removal.
        transitions.remove(id);
        let removed = FilterRefineEngine::new(&routes, &transitions).execute(&query);
        assert!(!removed.contains(id));
    }

    #[test]
    fn degenerate_query_returns_empty() {
        let (routes, transitions) = ladder_world();
        let fr = FilterRefineEngine::new(&routes, &transitions);
        assert!(fr.execute(&RknntQuery::exists(vec![], 2)).is_empty());
        assert!(fr
            .execute(&RknntQuery::exists(vec![p(0.0, 0.0)], 0))
            .is_empty());
    }
}
