//! The nearest-route certificate counts exactly as the verification kernel
//! does: on every judgement, `TransitionCertificate::admit` admits exactly
//! the brute-force members, and every count it reports — and every
//! `EndpointCertificate::closer_routes` and
//! `CertificateScratch::count_closer_routes_sq` count — equals
//! `QueryScratch::count_closer_routes_sq` at limit `k` and the definition,
//! over seeded lattice worlds where stops, endpoints and query points share a
//! grid (so exact ties between a route and the query are common, and stops
//! are shared by several routes), translated by 0, 10⁷ and 3·10⁹, with `k`
//! asked in increasing and in decreasing order (the first widens one
//! certificate step by step, the second computes it once and narrows), under
//! ∃ and ∀; plus an empty store and worlds with fewer routes than `k`. The
//! one count `admit` may leave unjudged — the second endpoint of an ∃ member
//! whose origin qualifies — must read exactly `k`.
//!
//! Mutations that fail it: no widening (`self.k < k` → `self.k == 0` in
//! `EndpointCertificate::closer_routes`); `<` → `<=` in its prefix count (a
//! tie counted as strictly closer).

use proptest::prelude::*;
use rknnt_core::{
    BruteForceEngine, CertificateScratch, EndpointCertificate, QueryScratch, RknnTEngine,
    RknntQuery, Semantics, TransitionCertificate,
};
use rknnt_geo::{point_route_distance_sq, Point};
use rknnt_index::{NList, RouteStore, StopId, TransitionStore};
use rknnt_rtree::RTreeConfig;

const KS: [usize; 6] = [1, 2, 3, 5, 8, 50];

struct World {
    routes: RouteStore,
    transitions: TransitionStore,
    queries: Vec<Vec<Point>>,
}

/// Stops on a 10 m lattice, endpoints and query points on its 5 m
/// refinement: an endpoint halfway between a stop and a query point ties
/// them exactly, and every coordinate stays exact after the translation.
fn lattice_world(rng: &mut TestRng, offset: f64, max_routes: u64) -> World {
    let at = |rng: &mut TestRng, step: f64, half_span: u64| {
        let x = rng.below(2 * half_span + 1) as f64 - half_span as f64;
        let y = rng.below(2 * half_span + 1) as f64 - half_span as f64;
        Point::new(offset + x * step, offset + y * step)
    };
    let routes: Vec<Vec<Point>> = (0..rng.below(max_routes + 1))
        .map(|_| (0..2 + rng.below(5)).map(|_| at(rng, 10.0, 5)).collect())
        .collect();
    let transitions: Vec<(Point, Point)> = (0..40)
        .map(|_| (at(rng, 5.0, 12), at(rng, 5.0, 12)))
        .collect();
    let queries = (0..3)
        .map(|_| (0..1 + rng.below(3)).map(|_| at(rng, 5.0, 12)).collect())
        .collect();
    let config = RTreeConfig::new(4, 2);
    World {
        routes: RouteStore::bulk_build(config, routes).0,
        transitions: TransitionStore::bulk_build(config, transitions),
        queries,
    }
}

/// What the judgements of one world covered.
#[derive(Default)]
struct Tally {
    judgements: usize,
    admitted: usize,
    /// Endpoints whose `k`-th nearest route is exactly as far as the query.
    ties: usize,
    /// Stops served by more than one route.
    shared_stops: usize,
}

/// Every transition of `world`, every query, both semantics, both orders
/// of `KS` on fresh certificates: certificate == kernel == brute force, for
/// the verdict and for every count.
fn check_world(world: &World, tally: &mut Tally, label: &str) {
    let (routes, transitions) = (&world.routes, &world.transitions);
    let oracle = BruteForceEngine::new(routes, transitions);
    let nlist = NList::build(routes);
    let (mut walk, mut kernel) = (CertificateScratch::new(), QueryScratch::new());
    tally.shared_stops += (0..routes.num_stops())
        .filter(|&s| routes.crossover(StopId(s as u32)).len() > 1)
        .count();
    for query_route in &world.queries {
        for semantics in [Semantics::Exists, Semantics::ForAll] {
            let members: Vec<_> = KS
                .iter()
                .map(|&k| {
                    let query = RknntQuery {
                        route: query_route.clone(),
                        k,
                        semantics,
                    };
                    oracle.execute(&query).transitions
                })
                .collect();
            for order in [KS.to_vec(), KS.iter().rev().copied().collect()] {
                for t in transitions.transitions() {
                    let mut certificate = TransitionCertificate::new(t.origin, t.destination);
                    let points = [t.origin, t.destination];
                    let mut endpoints = points.map(EndpointCertificate::new);
                    for &k in &order {
                        let at = format!(
                            "{label}: {} k={k} {semantics:?} Q={query_route:?} order={order:?}",
                            t.id
                        );
                        // The kernel's count of each endpoint, at limit k,
                        // against the definition and both certificate counts.
                        let mut judged = endpoints.iter_mut().zip(points);
                        let counts = [(); 2].map(|()| {
                            let (endpoint, u) = judged.next().unwrap();
                            let sq = point_route_distance_sq(&u, query_route);
                            let counted = kernel.count_closer_routes_sq(routes, &nlist, &u, sq, k);
                            assert_eq!(counted, brute_count(routes, &u, sq, k), "{at}: kernel");
                            let walked = walk.count_closer_routes_sq(routes, &u, sq, k);
                            assert_eq!(walked, counted, "{at}: walk count vs kernel");
                            let read = endpoint.closer_routes(routes, sq, k, &mut walk);
                            assert_eq!(read, counted, "{at}: certificate count vs kernel");
                            counted
                        });
                        let got = certificate.admit(routes, query_route, k, semantics, &mut walk);
                        let member = members[KS.iter().position(|&x| x == k).unwrap()]
                            .binary_search(&t.id)
                            .is_ok();
                        assert_eq!(got.is_some(), member, "{at}: certificate vs brute force");
                        if let Some([origin, destination]) = got {
                            assert_eq!(origin, counts[0], "{at}: origin count");
                            let unjudged = semantics == Semantics::Exists && counts[0] < k;
                            let expected = if unjudged { k } else { counts[1] };
                            assert_eq!(destination, expected, "{at}: destination count");
                        }
                        tally.judgements += 1;
                        tally.admitted += usize::from(got.is_some());
                        tally.ties += [t.origin, t.destination]
                            .iter()
                            .filter(|u| tied_at(routes, u, query_route, k))
                            .count();
                    }
                }
            }
        }
    }
}

/// The definition: routes whose squared distance to `u` is strictly below
/// `threshold_sq`, capped at `limit`.
fn brute_count(routes: &RouteStore, u: &Point, threshold_sq: f64, limit: usize) -> usize {
    routes
        .routes()
        .filter(|r| point_route_distance_sq(u, &r.points) < threshold_sq)
        .count()
        .min(limit)
}

/// Whether the `k`-th nearest distinct route of `u` is exactly as far from
/// it as the query — the case a strict compare must not count as closer.
fn tied_at(routes: &RouteStore, u: &Point, query_route: &[Point], k: usize) -> bool {
    let mut nearest: Vec<f64> = routes
        .routes()
        .map(|r| point_route_distance_sq(u, &r.points))
        .collect();
    nearest.sort_by(f64::total_cmp);
    nearest.get(k - 1) == Some(&point_route_distance_sq(u, query_route))
}

#[test]
fn certificates_judge_exactly_as_the_kernel_and_the_oracle() {
    let mut rng = TestRng::from_label("certificate_agreement::lattice");
    for offset in [0.0, 1.0e7, 3.0e9] {
        let mut tally = Tally::default();
        for world in 0..20 {
            let world_data = lattice_world(&mut rng, offset, 9);
            check_world(
                &world_data,
                &mut tally,
                &format!("offset {offset:e}, world {world}"),
            );
        }
        assert_eq!(tally.judgements, 20 * 3 * 2 * 2 * 40 * KS.len());
        assert!(
            tally.admitted > tally.judgements / 10 && tally.admitted < tally.judgements * 9 / 10,
            "offset {offset:e}: {} of {} admitted",
            tally.admitted,
            tally.judgements
        );
        assert!(
            tally.ties >= 100,
            "offset {offset:e}: only {} ties",
            tally.ties
        );
        assert!(
            tally.shared_stops >= 20,
            "only {} shared stops",
            tally.shared_stops
        );
    }
}

/// No route at all: every endpoint qualifies at every `k` ≥ 1; one route
/// (fewer than `k` for every `k` ≥ 2): only `k = 1` can reject.
#[test]
fn an_empty_store_and_fewer_routes_than_k() {
    let mut rng = TestRng::from_label("certificate_agreement::small");
    let mut tally = Tally::default();
    let empty = lattice_world(&mut rng, 0.0, 0);
    assert_eq!(empty.routes.num_routes(), 0);
    check_world(&empty, &mut tally, "empty store");
    assert_eq!(
        tally.admitted, tally.judgements,
        "an empty store admits all"
    );
    for world in 0..10 {
        let single = lattice_world(&mut rng, 3.0e9, 1);
        check_world(
            &single,
            &mut tally,
            &format!("at most one route, world {world}"),
        );
    }
}
