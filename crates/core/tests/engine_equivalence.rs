//! Property-based equivalence tests: every index-based engine must return
//! exactly the transitions the brute-force oracle returns, for random route
//! networks, random transition sets and random queries, under both
//! semantics — the central correctness claim of the reproduction.

use proptest::prelude::*;
use rknnt_core::{
    build_filter_set, BruteForceEngine, DivideConquerEngine, FilterRefineEngine, RknnTEngine,
    RknntQuery, Semantics, VoronoiEngine,
};
use rknnt_geo::{point_route_distance_sq, Point, PointEntry};
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_rtree::RTreeConfig;

/// Points on a continuous square so exact distance ties have probability ~0.
fn pt() -> impl Strategy<Value = Point> {
    (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn route() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 2..7)
}

fn routes() -> impl Strategy<Value = Vec<Vec<Point>>> {
    prop::collection::vec(route(), 2..12)
}

fn transitions() -> impl Strategy<Value = Vec<(Point, Point)>> {
    prop::collection::vec((pt(), pt()), 1..60)
}

fn query_route() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_engines_agree_with_oracle(
        rs in routes(),
        ts in transitions(),
        q in query_route(),
        k in 1usize..6,
        forall in any::<bool>(),
    ) {
        let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), rs);
        let transition_store = TransitionStore::bulk_build(RTreeConfig::new(8, 3), ts);
        let semantics = if forall { Semantics::ForAll } else { Semantics::Exists };
        let query = RknntQuery { route: q, k, semantics };

        let oracle = BruteForceEngine::new(&route_store, &transition_store).execute(&query);
        let fr = FilterRefineEngine::new(&route_store, &transition_store).execute(&query);
        let vo = VoronoiEngine::new(&route_store, &transition_store).execute(&query);
        let dc = DivideConquerEngine::new(&route_store, &transition_store).execute(&query);

        prop_assert_eq!(&fr.transitions, &oracle.transitions, "filter-refine");
        prop_assert_eq!(&vo.transitions, &oracle.transitions, "voronoi");
        prop_assert_eq!(&dc.transitions, &oracle.transitions, "divide-conquer");
    }

    /// Lemma 1: the ∀ result is always a subset of the ∃ result.
    #[test]
    fn forall_subset_of_exists(
        rs in routes(),
        ts in transitions(),
        q in query_route(),
        k in 1usize..5,
    ) {
        let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), rs);
        let transition_store = TransitionStore::bulk_build(RTreeConfig::new(8, 3), ts);
        let engine = FilterRefineEngine::new(&route_store, &transition_store);
        let exists = engine.execute(&RknntQuery { route: q.clone(), k, semantics: Semantics::Exists });
        let forall = engine.execute(&RknntQuery { route: q, k, semantics: Semantics::ForAll });
        for id in &forall.transitions {
            prop_assert!(exists.contains(*id));
        }
    }

    /// Monotonicity in k: a larger k can only admit more transitions.
    #[test]
    fn results_monotone_in_k(
        rs in routes(),
        ts in transitions(),
        q in query_route(),
    ) {
        let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), rs);
        let transition_store = TransitionStore::bulk_build(RTreeConfig::new(8, 3), ts);
        let engine = VoronoiEngine::new(&route_store, &transition_store);
        let mut previous: Vec<_> = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let result = engine.execute(&RknntQuery::exists(q.clone(), k)).transitions;
            for id in &previous {
                prop_assert!(result.binary_search(id).is_ok(), "k-monotonicity violated");
            }
            previous = result;
        }
    }

    /// Dynamic updates: after removing every transition returned by a query,
    /// re-running the query on a freshly built engine returns nothing from
    /// the removed set, and inserting them back restores the result.
    #[test]
    fn updates_roundtrip(
        rs in routes(),
        ts in transitions(),
        q in query_route(),
        k in 1usize..4,
    ) {
        let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), rs);
        let mut transition_store = TransitionStore::bulk_build(RTreeConfig::new(8, 3), ts);
        let query = RknntQuery::exists(q, k);
        let before = FilterRefineEngine::new(&route_store, &transition_store).execute(&query);
        let removed: Vec<_> = before
            .transitions
            .iter()
            .map(|id| *transition_store.get(*id).unwrap())
            .collect();
        for t in &removed {
            prop_assert!(transition_store.remove(t.id));
        }
        let after = FilterRefineEngine::new(&route_store, &transition_store).execute(&query);
        for t in &removed {
            prop_assert!(!after.contains(t.id));
        }
        // Re-insert (new ids) and check the result count is restored.
        for t in &removed {
            transition_store.insert(t.origin, t.destination).unwrap();
        }
        let restored = FilterRefineEngine::new(&route_store, &transition_store).execute(&query);
        prop_assert_eq!(restored.len(), before.len());
    }
}

/// A seeded city-block world: random-walk routes and uniform trips over a
/// 2 km square, then every coordinate shifted by `offset`.
struct TranslatedWorld {
    routes: RouteStore,
    transitions: TransitionStore,
    queries: Vec<Vec<Point>>,
}

fn translated_world(label: &str, offset: f64) -> TranslatedWorld {
    const EXTENT: f64 = 2_000.0;
    let mut rng = TestRng::from_label(label);
    let mut unit = move || rng.next_f64();
    let mut walk = |len: usize, step: f64| -> Vec<Point> {
        let (mut x, mut y) = (unit() * EXTENT, unit() * EXTENT);
        (0..len)
            .map(|_| {
                x = (x + (unit() - 0.5) * step).clamp(0.0, EXTENT);
                y = (y + (unit() - 0.5) * step).clamp(0.0, EXTENT);
                Point::new(offset + x, offset + y)
            })
            .collect()
    };
    let routes: Vec<Vec<Point>> = (0..36).map(|_| walk(9, 300.0)).collect();
    let transitions: Vec<(Point, Point)> = (0..2_000)
        .map(|_| {
            let trip = walk(2, 900.0);
            (trip[0], trip[1])
        })
        .collect();
    let queries = (0..20).map(|i| walk(1 + i % 6, 250.0)).collect();
    let config = RTreeConfig::new(8, 3);
    let (routes, _) = RouteStore::bulk_build(config, routes);
    TranslatedWorld {
        routes,
        transitions: TransitionStore::bulk_build(config, transitions),
        queries,
    }
}

/// Where the world sits must not matter. The predicates compare squared
/// distances between nearby points — differences first, squares second — so
/// a 2 km world answers the same at the origin and 3·10⁹ away from it. (As
/// bisector half-planes `2(q − r)·p ≤ |q|² − |r|²` they did not: the constant
/// term cancels catastrophically, and this test counted 9 and 83 engine
/// answers of 360 differing from brute force at 3·10⁸ and 3·10⁹.)
#[test]
fn translated_worlds_agree_with_the_oracle() {
    for offset in [0.0, 1.0e7, 3.0e8, 3.0e9] {
        let world = translated_world("engine_equivalence::translated_worlds", offset);
        let (routes, transitions) = (&world.routes, &world.transitions);
        assert!(routes.num_routes() >= 30 && transitions.len() >= 400);
        let oracle = BruteForceEngine::new(routes, transitions);
        let engines: [&dyn RknnTEngine; 3] = [
            &FilterRefineEngine::new(routes, transitions),
            &VoronoiEngine::new(routes, transitions),
            &DivideConquerEngine::new(routes, transitions),
        ];
        let (mut mismatches, mut answered) = (Vec::new(), 0usize);
        for (i, route) in world.queries.iter().enumerate() {
            for k in [1usize, 3, 6] {
                for semantics in [Semantics::Exists, Semantics::ForAll] {
                    let query = RknntQuery {
                        route: route.clone(),
                        k,
                        semantics,
                    };
                    let expected = oracle.execute(&query).transitions;
                    answered += expected.len();
                    for engine in engines {
                        if engine.execute(&query).transitions != expected {
                            mismatches.push((engine.name(), i, k, semantics));
                        }
                    }
                }
            }
        }
        assert!(
            answered > 0,
            "offset {offset:e}: the queries must have answers"
        );
        assert!(
            mismatches.is_empty(),
            "offset {offset:e}: {} of 360 engine answers differ from brute force: {:?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(8)]
        );
    }
}

/// A point verdict is made of verification's own bits: wherever the point
/// test calls a filter point `r` inside for an endpoint `t`, the comparison
/// `QueryScratch::count_closer_routes_sq` makes at that stop —
/// `r.distance_sq(t)` against the threshold `point_route_distance_sq(t, Q)`
/// — holds too, with nothing to spare asked for. So the filter can not prune, through `r`, an endpoint
/// for which verification (and the oracle) would not count `r`'s routes.
#[test]
fn point_verdicts_are_verifications_own_comparison() {
    for offset in [0.0, 3.0e9] {
        let world = translated_world("engine_equivalence::point_verdicts", offset);
        let (mut inside, mut pairs) = (0usize, 0usize);
        for query in &world.queries {
            let outcome = build_filter_set(&world.routes, query, 3);
            for t in world
                .transitions
                .transitions()
                .flat_map(|t| [t.origin, t.destination])
            {
                let entry = PointEntry::new(t, query);
                for r in outcome.filter_set.points() {
                    pairs += 1;
                    if entry.is_inside(&r.point) {
                        inside += 1;
                        assert!(
                            r.point.distance_sq(&t) < point_route_distance_sq(&t, query),
                            "offset {offset:e}: {} inside for {t}, not closer",
                            r.point
                        );
                    }
                }
            }
        }
        assert!(
            inside > pairs / 20 && inside < pairs,
            "offset {offset:e}: {inside} of {pairs} pairs inside"
        );
    }
}
