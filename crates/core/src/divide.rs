//! The divide & conquer engine (Section 5.2).
//!
//! Lemma 3 states that the RkNNT of a multi-point query is the union of the
//! RkNNTs of its individual points. The engine therefore runs one
//! *single-point* filter/prune pass per query point — single-point filtering
//! spaces are the largest possible (Definition 6 degenerates to a single
//! half-plane per filter point), so each pass prunes aggressively — and
//! verifies the union of the surviving endpoints once against the full query.
//!
//! The same endpoint can survive several per-point passes; it is verified
//! only once. Verification against the full query is correct because an
//! endpoint qualifies for `Q` exactly when it qualifies for its nearest
//! query point, and pruning per point is sound, so every truly qualifying
//! endpoint survives at least the pass of its nearest query point.

use crate::engine::RknnTEngine;
use crate::filter::build_filter_set;
use crate::prune::{prune_into_scratch, CandidateEndpoint};
use crate::query::{QueryStats, RknntQuery, RknntResult};
use crate::scratch::QueryScratch;
use crate::verify::verify_candidates;
use rknnt_index::{RouteStore, TransitionStore};
use std::time::Instant;

/// The divide & conquer RkNNT engine.
pub struct DivideConquerEngine<'a> {
    routes: &'a RouteStore,
    transitions: &'a TransitionStore,
}

impl<'a> DivideConquerEngine<'a> {
    /// Creates the divide & conquer engine. Per-point passes use the plain
    /// half-space filter (the single-point filtering space is already the
    /// largest possible, so the Voronoi enlargement adds little).
    pub fn new(routes: &'a RouteStore, transitions: &'a TransitionStore) -> Self {
        DivideConquerEngine {
            routes,
            transitions,
        }
    }
}

impl RknnTEngine for DivideConquerEngine<'_> {
    fn name(&self) -> &'static str {
        "Divide-Conquer"
    }

    fn execute(&self, query: &RknntQuery) -> RknntResult {
        self.execute_scratch(query, &mut QueryScratch::new())
    }

    fn execute_scratch(&self, query: &RknntQuery, scratch: &mut QueryScratch) -> RknntResult {
        if query.is_degenerate() {
            return RknntResult::default();
        }

        // Per-query-point filter + prune passes; union of surviving endpoints.
        let filter_started = Instant::now();
        scratch.union.clear();
        let mut stats = QueryStats::default();
        for q in &query.route {
            let filter_outcome = build_filter_set(self.routes, std::slice::from_ref(q), query.k);
            scratch.clear_candidates();
            let pruned_nodes = prune_into_scratch(
                self.transitions,
                &filter_outcome.filter_set,
                query.k,
                false,
                scratch,
                |id| id,
            );
            stats.record_filter(&filter_outcome, pruned_nodes);
            stats.entries_tested += scratch.entries_tested;
            stats.filter_tests += scratch.filter_tests;
            for cand in scratch.candidates.iter() {
                scratch
                    .union
                    .insert((cand.transition, cand.kind), cand.point);
            }
        }
        // The same endpoint can survive several passes: the union map
        // deduplicates, and its entries become the one candidate buffer the
        // shared verify half reads.
        scratch.candidates.clear();
        scratch
            .candidates
            .extend(
                scratch
                    .union
                    .iter()
                    .map(|((transition, kind), point)| CandidateEndpoint {
                        transition: *transition,
                        kind: *kind,
                        point: *point,
                    }),
            );
        let filtering = filter_started.elapsed();

        // Single verification pass over the union, against the full query.
        let mut result = verify_candidates(self.routes, query, scratch);
        result.timings.filtering = filtering;
        stats.candidate_endpoints = result.stats.candidate_endpoints;
        stats.verified_endpoints = result.stats.verified_endpoints;
        stats.result_transitions = result.stats.result_transitions;
        result.stats = stats;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceEngine;
    use crate::filter_refine::FilterRefineEngine;
    use crate::query::Semantics;
    use rknnt_geo::Point;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn world() -> (RouteStore, TransitionStore) {
        let routes: Vec<Vec<Point>> = (0..10)
            .map(|i| {
                let y = i as f64 * 12.0;
                (0..6)
                    .map(|j| p(j as f64 * 12.0, y + (j % 2) as f64))
                    .collect()
            })
            .collect();
        let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        let mut transition_store = TransitionStore::default();
        for i in 0..120u32 {
            let ox = (i as f64 * 5.77) % 60.0;
            let oy = (i as f64 * 11.31) % 108.0;
            let dx = (i as f64 * 2.71 + 13.0) % 60.0;
            let dy = (i as f64 * 19.1 + 7.0) % 108.0;
            transition_store.insert(p(ox, oy), p(dx, dy)).unwrap();
        }
        (route_store, transition_store)
    }

    #[test]
    fn matches_brute_force_and_filter_refine() {
        let (routes, transitions) = world();
        let oracle = BruteForceEngine::new(&routes, &transitions);
        let fr = FilterRefineEngine::new(&routes, &transitions);
        let dc = DivideConquerEngine::new(&routes, &transitions);
        for k in [1usize, 3, 7] {
            for semantics in [Semantics::Exists, Semantics::ForAll] {
                let query = RknntQuery {
                    route: vec![p(3.0, 31.0), p(23.0, 31.0), p(43.0, 33.0), p(58.0, 31.0)],
                    k,
                    semantics,
                };
                let expected = oracle.execute(&query).transitions;
                assert_eq!(fr.execute(&query).transitions, expected, "fr k={k}");
                assert_eq!(dc.execute(&query).transitions, expected, "dc k={k}");
            }
        }
    }

    #[test]
    fn single_point_query_equivalence() {
        // For |Q| = 1 the divide & conquer engine degenerates to one pass and
        // must agree with the others exactly.
        let (routes, transitions) = world();
        let oracle = BruteForceEngine::new(&routes, &transitions);
        let dc = DivideConquerEngine::new(&routes, &transitions);
        let query = RknntQuery::exists(vec![p(30.0, 55.0)], 2);
        assert_eq!(
            dc.execute(&query).transitions,
            oracle.execute(&query).transitions
        );
    }

    #[test]
    fn union_lemma_holds() {
        // Lemma 3: RkNNT(Q) = ∪ RkNNT(q_i) under ∃ semantics.
        let (routes, transitions) = world();
        let oracle = BruteForceEngine::new(&routes, &transitions);
        let points = vec![p(3.0, 31.0), p(23.0, 31.0), p(43.0, 33.0)];
        let k = 2;
        let whole = oracle
            .execute(&RknntQuery::exists(points.clone(), k))
            .transitions;
        let mut union: Vec<_> = points
            .iter()
            .flat_map(|q| oracle.execute(&RknntQuery::exists(vec![*q], k)).transitions)
            .collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(whole, union);
    }

    #[test]
    fn name_and_degenerate_handling() {
        let (routes, transitions) = world();
        let dc = DivideConquerEngine::new(&routes, &transitions);
        assert_eq!(dc.name(), "Divide-Conquer");
        assert!(dc.execute(&RknntQuery::exists(vec![], 4)).is_empty());
    }
}
