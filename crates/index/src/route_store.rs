//! The route store: RR-tree over route points plus the PList inverted index.

use crate::ids::{RouteId, StopId};
use crate::nlist::NList;
use crate::types::Route;
use rknnt_geo::Point;
use rknnt_rtree::{RTree, RTreeConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The PList of Section 4.1.2: for every route point (stop), the list of
/// routes that pass through it — the crossover route set `C(r)` of
/// Definition 7.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PList {
    lists: Vec<Vec<RouteId>>,
}

impl PList {
    /// Crossover route set of a stop. Empty for unknown stops.
    pub fn crossover(&self, stop: StopId) -> &[RouteId] {
        self.lists
            .get(stop.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of stops tracked.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the PList tracks no stops at all.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    fn ensure(&mut self, stop: StopId) -> &mut Vec<RouteId> {
        if stop.index() >= self.lists.len() {
            self.lists.resize_with(stop.index() + 1, Vec::new);
        }
        &mut self.lists[stop.index()]
    }

    fn add(&mut self, stop: StopId, route: RouteId) {
        let list = self.ensure(stop);
        if !list.contains(&route) {
            list.push(route);
        }
    }

    fn remove(&mut self, stop: StopId, route: RouteId) {
        if let Some(list) = self.lists.get_mut(stop.index()) {
            list.retain(|r| *r != route);
        }
    }
}

/// Key used to deduplicate stops that share the exact same coordinates, so a
/// bus stop served by many routes appears once in the RR-tree and its
/// crossover set carries all serving routes.
fn coord_key(p: &Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// The route store: owns the routes, the distinct stops, the RR-tree over
/// stops, the PList and the NList.
///
/// Routes can be added and removed dynamically; the RR-tree and PList are
/// maintained incrementally (the paper's index "supports dynamic updating")
/// and the NList is rebuilt once per route-set version, on first use.
#[derive(Debug, Clone)]
pub struct RouteStore {
    routes: Vec<Option<Route>>,
    stops: Vec<Point>,
    stop_lookup: HashMap<(u64, u64), StopId>,
    plist: PList,
    rtree: RTree<StopId>,
    live_routes: usize,
    /// The NList of the current RR-tree; unset until [`RouteStore::nlist`]
    /// is first called after construction or a route change. Derived state:
    /// never part of [`RouteStoreState`].
    nlist: OnceLock<NList>,
}

impl Default for RouteStore {
    fn default() -> Self {
        Self::new(RTreeConfig::default())
    }
}

impl RouteStore {
    /// Creates an empty store whose RR-tree uses the given fan-out.
    pub fn new(config: RTreeConfig) -> Self {
        RouteStore {
            routes: Vec::new(),
            stops: Vec::new(),
            stop_lookup: HashMap::new(),
            plist: PList::default(),
            rtree: RTree::new(config),
            live_routes: 0,
            nlist: OnceLock::new(),
        }
    }

    /// Builds a store from a collection of point sequences, bulk-loading the
    /// RR-tree. Sequences with fewer than two points or with non-finite
    /// coordinates are skipped and the number of skipped sequences is
    /// returned alongside the store.
    pub fn bulk_build(config: RTreeConfig, routes: Vec<Vec<Point>>) -> (Self, usize) {
        let mut store = RouteStore::new(config);
        let mut skipped = 0;
        // First register routes and stops without touching the R-tree...
        for points in routes {
            if points.len() < 2 || points.iter().any(|p| !p.is_finite()) {
                skipped += 1;
                continue;
            }
            let id = RouteId(store.routes.len() as u32);
            for p in &points {
                let stop = store.intern_stop(*p);
                store.plist.add(stop, id);
            }
            store.routes.push(Some(Route { id, points }));
            store.live_routes += 1;
        }
        // ...then bulk-load the RR-tree over the distinct stops.
        let items: Vec<(Point, StopId)> = store
            .stops
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, StopId(i as u32)))
            .collect();
        store.rtree = RTree::bulk_load(config, items);
        (store, skipped)
    }

    fn intern_stop(&mut self, p: Point) -> StopId {
        if let Some(id) = self.stop_lookup.get(&coord_key(&p)) {
            return *id;
        }
        let id = StopId(self.stops.len() as u32);
        self.stops.push(p);
        self.stop_lookup.insert(coord_key(&p), id);
        id
    }

    /// Adds a route, returning its id, or `None` when fewer than two points
    /// are supplied or any coordinate is non-finite.
    ///
    /// Validation happens before any mutation: NaN/±inf points would poison
    /// R-tree MBRs and the strict geometric predicates, so they are rejected
    /// at the store boundary and a rejected route leaves the store untouched.
    pub fn insert_route(&mut self, points: Vec<Point>) -> Option<RouteId> {
        if points.len() < 2 || points.iter().any(|p| !p.is_finite()) {
            return None;
        }
        self.nlist.take();
        let id = RouteId(self.routes.len() as u32);
        for p in &points {
            let is_new = !self.stop_lookup.contains_key(&coord_key(p));
            let stop = self.intern_stop(*p);
            if is_new {
                self.rtree.insert(*p, stop);
            }
            self.plist.add(stop, id);
        }
        self.routes.push(Some(Route { id, points }));
        self.live_routes += 1;
        Some(id)
    }

    /// Removes a route. Stops that no longer belong to any route are removed
    /// from the RR-tree. Returns `false` when the id is unknown or already
    /// removed.
    pub fn remove_route(&mut self, id: RouteId) -> bool {
        let Some(slot) = self.routes.get_mut(id.index()) else {
            return false;
        };
        let Some(route) = slot.take() else {
            return false;
        };
        self.nlist.take();
        self.live_routes -= 1;
        // Deduplicate per-route occurrences first: a self-intersecting route
        // (figure-eight) visits the same stop twice, and the PList/RR-tree
        // cleanup below must run exactly once per *distinct* stop.
        let mut distinct: Vec<(u64, u64)> = Vec::with_capacity(route.points.len());
        for p in &route.points {
            let key = coord_key(p);
            if !distinct.contains(&key) {
                distinct.push(key);
            }
        }
        for key in distinct {
            let Some(stop) = self.stop_lookup.get(&key).copied() else {
                continue;
            };
            self.plist.remove(stop, id);
            if self.plist.crossover(stop).is_empty() {
                self.rtree.remove(&self.stops[stop.index()], &stop);
                self.stop_lookup.remove(&key);
            }
        }
        true
    }

    /// The route with the given id, if it exists and has not been removed.
    pub fn route(&self, id: RouteId) -> Option<&Route> {
        self.routes.get(id.index()).and_then(Option::as_ref)
    }

    /// Points of a route (convenience accessor used by the query engines).
    pub fn route_points(&self, id: RouteId) -> &[Point] {
        self.route(id).map(|r| r.points.as_slice()).unwrap_or(&[])
    }

    /// Iterates over all live routes.
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().filter_map(Option::as_ref)
    }

    /// Ids of all live routes.
    pub fn route_ids(&self) -> Vec<RouteId> {
        self.routes().map(|r| r.id).collect()
    }

    /// Number of live routes.
    pub fn num_routes(&self) -> usize {
        self.live_routes
    }

    /// Exclusive upper bound on the dense route-id space: every id this
    /// store ever handed out satisfies `id.index() < route_id_bound()`
    /// (removed routes keep their slot). Sizes per-route side tables such as
    /// the query scratch's epoch-stamped mark table, which index by
    /// `RouteId::index()` instead of hashing.
    pub fn route_id_bound(&self) -> usize {
        self.routes.len()
    }

    /// Whether the store holds no live routes.
    pub fn is_empty(&self) -> bool {
        self.live_routes == 0
    }

    /// Number of distinct stops ever interned (including stops of removed
    /// routes, whose slots remain allocated).
    pub fn num_stops(&self) -> usize {
        self.stops.len()
    }

    /// Crossover route set `C(r)` of a stop (Definition 7).
    pub fn crossover(&self, stop: StopId) -> &[RouteId] {
        self.plist.crossover(stop)
    }

    /// The PList itself.
    pub fn plist(&self) -> &PList {
        &self.plist
    }

    /// The RR-tree over distinct stops. Leaf payloads are [`StopId`]s.
    pub fn rtree(&self) -> &RTree<StopId> {
        &self.rtree
    }

    /// The NList of the current RR-tree (Section 4.1.2: RR-tree, PList and
    /// NList together are the route index). Built on the first call after
    /// construction or a route insert/removal and shared by every reader
    /// until the next one; concurrent first callers block on one build.
    pub fn nlist(&self) -> &NList {
        self.nlist.get_or_init(|| NList::build(self))
    }

    /// Looks up the stop at exactly the given coordinates, if any.
    pub fn stop_at(&self, p: &Point) -> Option<StopId> {
        self.stop_lookup.get(&coord_key(p)).copied()
    }

    /// Exports the full logical state of the store — everything a byte-for-
    /// byte faithful reconstruction needs, including the `None` slots of
    /// removed routes (id assignment depends on slot count) and the stale
    /// stop slots no live route references any more (stop ids stay
    /// allocated). The RR-tree itself is *not* part of the state: its node
    /// layout is an implementation detail that never changes an answer, so
    /// [`RouteStore::from_state`] rebuilds it deterministically.
    pub fn export_state(&self) -> RouteStoreState {
        let mut live_stops: Vec<StopId> = self.stop_lookup.values().copied().collect();
        live_stops.sort();
        RouteStoreState {
            config: self.rtree.config(),
            routes: self.routes.clone(),
            stops: self.stops.clone(),
            live_stops,
            plist: (0..self.plist.len())
                .map(|i| self.plist.crossover(StopId(i as u32)).to_vec())
                .collect(),
        }
    }

    /// Reconstructs a store from an exported state, validating every index
    /// so a decoded-from-disk state can never panic the store. The RR-tree
    /// is bulk-loaded over the live stops in ascending id order, which is
    /// deterministic; answers are layout-independent (asserted by the
    /// recovery determinism suite).
    pub fn from_state(state: RouteStoreState) -> Result<Self, String> {
        let RouteStoreState {
            config,
            routes,
            stops,
            live_stops,
            plist,
        } = state;
        for (i, slot) in routes.iter().enumerate() {
            if let Some(route) = slot {
                if route.id.index() != i {
                    return Err(format!("route slot {i} holds id {}", route.id));
                }
                if route.points.len() < 2 {
                    return Err(format!(
                        "route {} has {} points",
                        route.id,
                        route.points.len()
                    ));
                }
            }
        }
        if plist.len() > stops.len() {
            return Err(format!(
                "plist tracks {} stops but only {} exist",
                plist.len(),
                stops.len()
            ));
        }
        for (stop, list) in plist.iter().enumerate() {
            for route in list {
                match routes.get(route.index()) {
                    Some(Some(_)) => {}
                    _ => return Err(format!("plist stop {stop} references dead route {route}")),
                }
            }
        }
        let mut stop_lookup = HashMap::with_capacity(live_stops.len());
        let mut items = Vec::with_capacity(live_stops.len());
        for stop in live_stops {
            let Some(p) = stops.get(stop.index()) else {
                return Err(format!("live stop {stop} out of range"));
            };
            if stop_lookup.insert(coord_key(p), stop).is_some() {
                return Err(format!("duplicate live stop at {p}"));
            }
            items.push((*p, stop));
        }
        let live_routes = routes.iter().filter(|slot| slot.is_some()).count();
        Ok(RouteStore {
            routes,
            stops,
            stop_lookup,
            plist: PList { lists: plist },
            rtree: RTree::bulk_load(config, items),
            live_routes,
            nlist: OnceLock::new(),
        })
    }
}

/// The full logical state of a [`RouteStore`], as exported by
/// [`RouteStore::export_state`]: a plain-data mirror that the storage
/// engine's snapshot codec serializes and [`RouteStore::from_state`]
/// validates back into a store.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteStoreState {
    /// Fan-out configuration of the RR-tree.
    pub config: RTreeConfig,
    /// Route slots in id order; `None` marks a removed route whose id stays
    /// consumed.
    pub routes: Vec<Option<Route>>,
    /// Every stop ever interned, in id order (including stale slots).
    pub stops: Vec<Point>,
    /// Ids of the stops currently live (referenced by at least one route),
    /// ascending.
    pub live_stops: Vec<StopId>,
    /// Crossover route lists per stop id, in insertion order.
    pub plist: Vec<Vec<RouteId>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn insert_and_lookup_routes() {
        let mut store = RouteStore::default();
        let r1 = store
            .insert_route(vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)])
            .unwrap();
        let r2 = store.insert_route(vec![p(1.0, 0.0), p(1.0, 1.0)]).unwrap();
        assert!(store.insert_route(vec![p(5.0, 5.0)]).is_none());
        assert_eq!(store.num_routes(), 2);
        assert_eq!(store.route(r1).unwrap().points.len(), 3);
        // Stop (1,0) is shared: 4 distinct stops, and its crossover has both routes.
        assert_eq!(store.num_stops(), 4);
        let shared = store.stop_at(&p(1.0, 0.0)).unwrap();
        let mut cross: Vec<RouteId> = store.crossover(shared).to_vec();
        cross.sort();
        assert_eq!(cross, vec![r1, r2]);
        assert_eq!(store.rtree().len(), 4);
    }

    #[test]
    fn remove_route_cleans_up_exclusive_stops() {
        let mut store = RouteStore::default();
        let r1 = store.insert_route(vec![p(0.0, 0.0), p(1.0, 0.0)]).unwrap();
        let r2 = store.insert_route(vec![p(1.0, 0.0), p(2.0, 0.0)]).unwrap();
        assert_eq!(store.rtree().len(), 3);
        assert!(store.remove_route(r1));
        assert!(!store.remove_route(r1), "double removal must fail");
        assert_eq!(store.num_routes(), 1);
        // Stop (0,0) was exclusive to r1 and is gone from the RR-tree; the
        // shared stop (1,0) remains, now referencing only r2.
        assert_eq!(store.rtree().len(), 2);
        assert!(store.stop_at(&p(0.0, 0.0)).is_none());
        let shared = store.stop_at(&p(1.0, 0.0)).unwrap();
        assert_eq!(store.crossover(shared), &[r2]);
        assert!(store.route(r1).is_none());
        assert_eq!(store.route_ids(), vec![r2]);
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let routes = vec![
            vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)],
            vec![p(10.0, 0.0), p(10.0, 10.0)],
            vec![p(50.0, 50.0)], // skipped: too short
            vec![p(0.0, 5.0), p(10.0, 5.0), p(20.0, 5.0), p(30.0, 5.0)],
        ];
        let (bulk, skipped) = RouteStore::bulk_build(RTreeConfig::default(), routes.clone());
        assert_eq!(skipped, 1);
        assert_eq!(bulk.num_routes(), 3);
        let mut incr = RouteStore::default();
        for r in routes {
            incr.insert_route(r);
        }
        assert_eq!(bulk.num_stops(), incr.num_stops());
        assert_eq!(bulk.rtree().len(), incr.rtree().len());
        // Shared stop present once with two crossover routes in both builds.
        for store in [&bulk, &incr] {
            let shared = store.stop_at(&p(10.0, 0.0)).unwrap();
            assert_eq!(store.crossover(shared).len(), 2);
        }
    }

    #[test]
    fn plist_is_duplicate_free() {
        let mut store = RouteStore::default();
        // A route that visits the same stop twice (a small loop).
        let r = store
            .insert_route(vec![p(0.0, 0.0), p(1.0, 1.0), p(0.0, 0.0), p(2.0, 2.0)])
            .unwrap();
        let s = store.stop_at(&p(0.0, 0.0)).unwrap();
        assert_eq!(store.crossover(s), &[r]);
        assert_eq!(store.num_stops(), 3);
    }

    #[test]
    fn figure_eight_route_round_trips_cleanly() {
        // A figure-eight visits its crossing point twice; insert → remove
        // must leave the PList, RR-tree and stop lookup exactly as if the
        // route had never existed, even with another route sharing the
        // crossing.
        let mut store = RouteStore::default();
        let shared = store
            .insert_route(vec![p(5.0, 5.0), p(50.0, 50.0)])
            .unwrap();
        let eight = store
            .insert_route(vec![
                p(0.0, 0.0),
                p(5.0, 5.0), // crossing, first visit (shared with `shared`)
                p(10.0, 0.0),
                p(10.0, 10.0),
                p(5.0, 5.0), // crossing, second visit
                p(0.0, 10.0),
            ])
            .unwrap();
        let crossing = store.stop_at(&p(5.0, 5.0)).unwrap();
        // No duplicate PList entries despite the double visit.
        let mut cross = store.crossover(crossing).to_vec();
        cross.sort();
        assert_eq!(cross, vec![shared, eight]);
        // 5 distinct stops of the eight + the far end of `shared`.
        assert_eq!(store.rtree().len(), 6);
        store.rtree().check_invariants().unwrap();

        assert!(store.remove_route(eight));
        // The crossing stays (still used by `shared`) with exactly one
        // crossover entry; the eight's exclusive stops are all gone.
        assert_eq!(store.crossover(crossing), &[shared]);
        assert_eq!(store.rtree().len(), 2);
        store.rtree().check_invariants().unwrap();
        for q in [p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)] {
            assert!(store.stop_at(&q).is_none(), "stop {q} must be gone");
        }
        // A double removal fails and changes nothing.
        assert!(!store.remove_route(eight));
        assert_eq!(store.rtree().len(), 2);

        // A pure self-loop with no sharing round-trips to empty.
        let mut solo = RouteStore::default();
        let r = solo
            .insert_route(vec![p(0.0, 0.0), p(1.0, 1.0), p(0.0, 0.0), p(2.0, 2.0)])
            .unwrap();
        assert!(solo.remove_route(r));
        assert_eq!(solo.rtree().len(), 0);
        assert!(solo.is_empty());
        solo.rtree().check_invariants().unwrap();
    }

    #[test]
    fn non_finite_routes_are_rejected_at_the_boundary() {
        let mut store = RouteStore::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(store.insert_route(vec![p(0.0, 0.0), p(bad, 1.0)]).is_none());
            assert!(store.insert_route(vec![p(0.0, bad), p(1.0, 1.0)]).is_none());
        }
        // A rejected route leaves no partial state behind.
        assert!(store.is_empty());
        assert_eq!(store.num_stops(), 0);
        assert!(store.rtree().is_empty());
        assert!(store.stop_at(&p(0.0, 0.0)).is_none());
        // bulk_build skips (and counts) non-finite sequences.
        let (bulk, skipped) = RouteStore::bulk_build(
            RTreeConfig::default(),
            vec![
                vec![p(0.0, 0.0), p(1.0, 0.0)],
                vec![p(0.0, 0.0), p(f64::NAN, 0.0)],
            ],
        );
        assert_eq!(skipped, 1);
        assert_eq!(bulk.num_routes(), 1);
    }

    #[test]
    fn resident_nlist_tracks_every_route_set_version() {
        let check = |store: &RouteStore, at: &str| {
            assert_eq!(store.nlist(), &NList::build(store), "{at}");
        };
        let mut store = RouteStore::new(RTreeConfig::new(4, 2));
        check(&store, "empty");
        // A pseudo-random interleaving of inserts and removals (some of dead
        // ids, some rejected), reading the NList after every step so a stale
        // copy cannot hide behind a later rebuild.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for step in 0..120 {
            match next(4) {
                0 => {
                    let id = RouteId(next(store.route_id_bound() as u64 + 1) as u32);
                    store.remove_route(id);
                }
                1 => assert!(store.insert_route(vec![p(1.0, 1.0)]).is_none()),
                _ => {
                    // Coarse coordinates so routes share stops.
                    let points = (0..2 + next(4))
                        .map(|_| p(next(12) as f64 * 10.0, next(12) as f64 * 10.0))
                        .collect();
                    store.insert_route(points).unwrap();
                }
            }
            check(&store, &format!("step {step}"));
            if step % 17 == 0 {
                check(&store.clone(), "clone of a built store");
                let rebuilt = RouteStore::from_state(store.export_state()).unwrap();
                check(&rebuilt, "from_state");
            }
        }
        // A clone taken right after a change (NList unset) builds its own.
        store.insert_route(vec![p(500.0, 500.0), p(510.0, 500.0)]);
        let cloned = store.clone();
        check(&cloned, "clone of an unbuilt store");
        check(&store, "original after its clone");
        let (bulk, _) = RouteStore::bulk_build(
            RTreeConfig::new(4, 2),
            store.routes().map(|r| r.points.clone()).collect(),
        );
        check(&bulk, "bulk_build");
    }

    #[test]
    fn empty_store_accessors() {
        let store = RouteStore::default();
        assert!(store.is_empty());
        assert_eq!(store.num_routes(), 0);
        assert!(store.route(RouteId(0)).is_none());
        assert!(store.route_points(RouteId(0)).is_empty());
        assert!(store.plist().is_empty());
        assert!(store.rtree().is_empty());
    }
}
