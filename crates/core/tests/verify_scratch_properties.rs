//! Property tests for the verification kernel,
//! `QueryScratch::count_closer_routes_sq` (epoch-stamped route marks,
//! reused traversal stack, CSR NList slices): it must return the
//! definition's count — the routes whose squared distance to the probe is
//! strictly below the squared threshold, capped at `limit` — across random
//! stores, probes, thresholds and limits 0 / 1 / 2 / n / ∞, including after
//! a forced epoch-counter wrap (the 2³²-reuse rollover path of the mark
//! table).
//!
//! Stops lie on a 10 m lattice and probes on its 5 m refinement, the whole
//! world translated by 0, 10⁷ or 3·10⁹ (every coordinate and squared
//! difference stays exact). Half the thresholds are the exact squared
//! distance from the probe to one route of the world (to its nearest stop),
//! so that route ties with the threshold and must not be counted.
//!
//! Mutation that fails it: `<` → `<=` at the kernel's leaf compare
//! (`entry.point.distance_sq(t) < threshold_sq` in `verify.rs`).

use proptest::prelude::*;
use rknnt_core::QueryScratch;
use rknnt_geo::{point_route_distance_sq, Point};
use rknnt_index::{NList, RouteStore};
use rknnt_rtree::RTreeConfig;

/// Translation of the whole world, then its routes: 2–5 stops each drawn
/// from a small lattice, so routes share stops (crossovers), overlap and
/// cluster — the layouts that stress the NList shortcut and the
/// distinct-route counting.
fn world(max_routes: usize) -> impl Strategy<Value = (f64, Vec<Vec<Point>>)> {
    let offset = prop_oneof![Just(0.0), Just(1.0e7), Just(3.0e9)];
    let routes = prop::collection::vec(
        prop::collection::vec((-8i32..8, -8i32..8), 2..6),
        1..max_routes,
    );
    (offset, routes).prop_map(|(offset, routes)| {
        let at =
            |(x, y): (i32, i32)| Point::new(offset + x as f64 * 10.0, offset + y as f64 * 10.0);
        let routes = routes
            .into_iter()
            .map(|pts| pts.into_iter().map(at).collect())
            .collect();
        (offset, routes)
    })
}

/// How a probe's threshold is drawn.
#[derive(Debug, Clone, Copy)]
enum Threshold {
    /// A radius from a continuous range: a tie is all but impossible.
    Radius(f64),
    /// The exact squared distance to the route at this index: a tie.
    Route(prop::sample::Index),
}

/// (x, y) on the 5 m lattice, the threshold, the limit selector.
type Probe = (i32, i32, Threshold, u8);

fn probes(max: usize) -> impl Strategy<Value = Vec<Probe>> {
    let threshold = prop_oneof![
        (0.0f64..250.0).prop_map(Threshold::Radius),
        any::<prop::sample::Index>().prop_map(Threshold::Route),
    ];
    prop::collection::vec((-20i32..21, -20i32..21, threshold, 0u8..5), 1..max)
}

/// The probe's point, squared threshold and limit in `store`.
fn place(probe: &Probe, offset: f64, store: &RouteStore) -> (Point, f64, usize) {
    let &(x, y, threshold, selector) = probe;
    let t = Point::new(offset + x as f64 * 5.0, offset + y as f64 * 5.0);
    let threshold_sq = match threshold {
        Threshold::Radius(r) => r * r,
        Threshold::Route(i) => {
            let route = store.routes().nth(i.index(store.num_routes())).unwrap();
            point_route_distance_sq(&t, &route.points)
        }
    };
    let limit = match selector {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => store.num_routes(),
        _ => usize::MAX,
    };
    (t, threshold_sq, limit)
}

/// The definition, in the squared distances the kernel compares.
fn brute_count(store: &RouteStore, t: &Point, threshold_sq: f64, limit: usize) -> usize {
    store
        .routes()
        .filter(|r| point_route_distance_sq(t, &r.points) < threshold_sq)
        .count()
        .min(limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel == definition, with the scratch reused across every probe of
    /// the case (the realistic per-worker pattern).
    #[test]
    fn kernel_matches_the_definition(world in world(12), queries in probes(24)) {
        let (offset, route_points) = world;
        let (store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), route_points);
        let nlist = NList::build(&store);
        let mut scratch = QueryScratch::new();
        for probe in &queries {
            let (t, threshold_sq, limit) = place(probe, offset, &store);
            prop_assert_eq!(
                scratch.count_closer_routes_sq(&store, &nlist, &t, threshold_sq, limit),
                brute_count(&store, &t, threshold_sq, limit),
                "at {} threshold² {} limit {}",
                t, threshold_sq, limit
            );
        }
    }

    /// The epoch-rollover path: forcing the mark table's epoch counter to
    /// the wrap boundary (simulating 2³²-class reuse) must not change a
    /// single answer — stale stamps from before the wrap can never leak
    /// into the post-wrap epochs.
    #[test]
    fn forced_epoch_wrap_changes_no_answer(world in world(10), queries in probes(12)) {
        let (offset, route_points) = world;
        let (store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), route_points);
        let nlist = NList::build(&store);
        let mut scratch = QueryScratch::new();
        // Dirty the mark table with real marks first...
        for probe in &queries {
            let (t, threshold_sq, limit) = place(probe, offset, &store);
            scratch.count_closer_routes_sq(&store, &nlist, &t, threshold_sq, limit);
        }
        // ...then wrap the epoch and re-run: every answer must still match
        // the definition, and keep matching on continued reuse.
        scratch.force_epoch_wrap();
        for round in 0..3 {
            for probe in &queries {
                let (t, threshold_sq, limit) = place(probe, offset, &store);
                prop_assert_eq!(
                    scratch.count_closer_routes_sq(&store, &nlist, &t, threshold_sq, limit),
                    brute_count(&store, &t, threshold_sq, limit),
                    "post-wrap round {} at {} threshold² {} limit {}",
                    round, t, threshold_sq, limit
                );
            }
        }
    }
}
