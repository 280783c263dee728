//! Debug-build allocation counter for the query hot path: after warm-up,
//! the scratch-based verification kernel must perform **zero** heap
//! allocations per candidate, so must the certificate walk's count of
//! strictly closer routes per endpoint, a judgement from a
//! computed nearest-route certificate (computing one allocates at most its
//! own distances) and the pruning
//! walk per TR-tree entry (including the filter set's lazily built Voronoi
//! grouping), and a full
//! `execute_with_filter_scratch` pipeline must allocate only a small
//! per-*query* constant (the returned result vector), independent of how
//! many candidates it verifies.
//!
//! The counter is a thin wrapper around the system allocator installed only
//! in this test binary — fully hermetic, no external crates — and the
//! assertions are compiled under `cfg(debug_assertions)`, so release test
//! runs (CI runs the suite with `--release` too) execute the same code but
//! skip the counting-based asserts. The count is per thread and every
//! window is read on the thread that ran it, so the tests run in parallel
//! and no allocation of the harness or of another test lands in a window.

use rknnt_core::{
    prune_into_scratch, CertificateScratch, EndpointCertificate, FilterRefineEngine, QueryScratch,
    RknntQuery, Semantics, TransitionCertificate,
};
use rknnt_geo::{point_route_distance_sq, Point};
use rknnt_index::{NList, RouteStore, TransitionStore};
use rknnt_rtree::RTreeConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (and growth reallocation) routed through the
/// global allocator, on the allocating thread's own counter. Deallocations
/// are not counted: the hot-path contract is about *acquiring* memory per
/// candidate.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates, so the allocator can use it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: a thread being torn down may still
    // allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// A ladder of horizontal routes plus a deterministic transition scatter —
/// the standard worlds of the engine test-suites, scaled by `n`.
fn world(n_routes: usize, n_transitions: u32) -> (RouteStore, TransitionStore) {
    let routes: Vec<Vec<Point>> = (0..n_routes)
        .map(|i| {
            let y = i as f64 * 10.0;
            (0..8).map(|j| p(j as f64 * 10.0, y)).collect()
        })
        .collect();
    let (route_store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
    let mut transition_store = TransitionStore::default();
    for i in 0..n_transitions {
        let ox = (i as f64 * 7.3) % 70.0;
        let oy = (i as f64 * 13.7) % (n_routes as f64 * 10.0);
        let dx = (i as f64 * 3.1 + 11.0) % 70.0;
        let dy = (i as f64 * 17.9 + 23.0) % (n_routes as f64 * 10.0);
        transition_store.insert(p(ox, oy), p(dx, dy)).unwrap();
    }
    (route_store, transition_store)
}

#[test]
fn warmed_scratch_verification_never_allocates() {
    let (routes, transitions) = world(12, 150);
    let nlist = NList::build(&routes);
    let query = vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)];
    let candidates: Vec<(Point, f64)> = transitions
        .transitions()
        .flat_map(|t| [t.origin, t.destination])
        .map(|e| (e, point_route_distance_sq(&e, &query)))
        .collect();

    let mut scratch = QueryScratch::new();
    let run = |scratch: &mut QueryScratch| -> usize {
        candidates
            .iter()
            .map(|(c, sq)| scratch.count_closer_routes_sq(&routes, &nlist, c, *sq, 5))
            .sum()
    };
    // Warm-up: the mark table and traversal stack grow to steady state.
    let reference = run(&mut scratch);

    let before = allocations();
    let counted = run(&mut scratch);
    let delta = allocations() - before;
    assert_eq!(counted, reference, "warmed pass changed the counts");
    // The hot-path contract: zero allocations per candidate after warm-up.
    // Counting is only meaningful when the whole workspace (including the
    // engines) is compiled with debug assertions; release test runs skip
    // the numeric assert but still execute every code path above.
    #[cfg(debug_assertions)]
    assert_eq!(
        delta,
        0,
        "scratch verification allocated {delta} times across {} candidates after warm-up",
        candidates.len()
    );
    #[cfg(not(debug_assertions))]
    let _ = delta;
}

#[test]
fn warmed_certificate_counts_never_allocate() {
    let (routes, transitions) = world(12, 150);
    let query = vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)];
    let endpoints: Vec<(Point, f64)> = transitions
        .transitions()
        .flat_map(|t| [t.origin, t.destination])
        .map(|e| (e, point_route_distance_sq(&e, &query)))
        .collect();
    let mut scratch = CertificateScratch::new();
    let run = |scratch: &mut CertificateScratch| -> usize {
        let mut qualified = 0;
        for k in [1usize, 3, 5] {
            for (u, sq) in &endpoints {
                qualified += usize::from(scratch.count_closer_routes_sq(&routes, u, *sq, k) < k);
            }
        }
        qualified
    };
    // Warm-up: the walk's queue and route marks grow to steady state.
    let reference = run(&mut scratch);
    assert!(reference > 0, "the world must qualify something");

    let before = allocations();
    let qualified = run(&mut scratch);
    let delta = allocations() - before;
    assert_eq!(qualified, reference, "warmed pass changed the counts");
    #[cfg(debug_assertions)]
    assert_eq!(
        delta,
        0,
        "the certificate walk's count allocated {delta} times across {} counts after warm-up",
        3 * endpoints.len()
    );
    #[cfg(not(debug_assertions))]
    let _ = delta;
}

#[test]
fn certificates_allocate_only_their_own_distances() {
    let (routes, transitions) = world(12, 150);
    let queries = [
        vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)],
        vec![p(40.0, 80.0)],
    ];
    let k = 5;
    let endpoints: Vec<Point> = transitions
        .transitions()
        .flat_map(|t| [t.origin, t.destination])
        .collect();
    let qualifies = |c: &mut EndpointCertificate,
                     u: &Point,
                     query: &[Point],
                     k: usize,
                     scratch: &mut CertificateScratch| {
        c.closer_routes(&routes, point_route_distance_sq(u, query), k, scratch) < k
    };
    let mut scratch = CertificateScratch::new();
    // Warm-up: the walk's queue and route marks grow to steady state.
    for u in &endpoints {
        qualifies(
            &mut EndpointCertificate::new(*u),
            u,
            &queries[0],
            k,
            &mut scratch,
        );
    }
    let mut certificates: Vec<EndpointCertificate> = endpoints
        .iter()
        .map(|u| EndpointCertificate::new(*u))
        .collect();
    let before = allocations();
    for (c, u) in certificates.iter_mut().zip(&endpoints) {
        qualifies(c, u, &queries[0], k, &mut scratch);
    }
    let computing = allocations() - before;

    // Judging computed certificates, endpoint by endpoint and — after one
    // pass that computes what the ∃/∀ short-circuits reach — transition by
    // transition.
    let mut pairs: Vec<TransitionCertificate> = transitions
        .transitions()
        .map(|t| TransitionCertificate::new(t.origin, t.destination))
        .collect();
    let judge_all = |certificates: &mut [EndpointCertificate],
                     pairs: &mut [TransitionCertificate],
                     scratch: &mut CertificateScratch| {
        let mut admitted = 0;
        for query in &queries {
            for k in 1..=k {
                for (c, u) in certificates.iter_mut().zip(&endpoints) {
                    admitted += usize::from(qualifies(c, u, query, k, scratch));
                }
                for semantics in [Semantics::Exists, Semantics::ForAll] {
                    for c in pairs.iter_mut() {
                        let admit = c.admit(&routes, query, k, semantics, scratch);
                        admitted += usize::from(admit.is_some());
                    }
                }
            }
        }
        admitted
    };
    let reference = judge_all(&mut certificates, &mut pairs, &mut scratch);
    assert!(reference > 0, "the world must admit something");
    let before = allocations();
    let admitted = judge_all(&mut certificates, &mut pairs, &mut scratch);
    let judging = allocations() - before;
    assert_eq!(
        admitted, reference,
        "computed certificates changed verdicts"
    );
    #[cfg(debug_assertions)]
    {
        assert!(
            computing <= certificates.len() as u64,
            "computing {} certificates allocated {computing} times",
            certificates.len()
        );
        assert_eq!(judging, 0, "judging computed certificates allocated");
    }
    #[cfg(not(debug_assertions))]
    let _ = (computing, judging);
}

#[test]
fn warmed_prune_never_allocates() {
    // The larger world of the execute test below: the walk's straddler
    // lists, inherited-route stack, node stack and candidate buffer all live
    // in the scratch, and the Voronoi grouping in the filter set.
    let (routes, transitions) = world(12, 600);
    let engine = FilterRefineEngine::new(&routes, &transitions);
    let query = RknntQuery::exists(vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)], 3);
    let outcome = engine.build_filter(&query);
    let mut scratch = QueryScratch::new();
    let run = |scratch: &mut QueryScratch| -> (usize, usize) {
        let mut pruned = 0;
        scratch.clear_candidates();
        for use_voronoi in [false, true] {
            pruned += prune_into_scratch(
                &transitions,
                &outcome.filter_set,
                query.k,
                use_voronoi,
                scratch,
                |id| id,
            );
        }
        (pruned, scratch.candidates().len())
    };
    // Warm-up: the scratch buffers grow and the grouping is built.
    let reference = run(&mut scratch);
    assert!(reference.0 > 0 && reference.1 > 0, "the walk must do both");

    let before = allocations();
    let warmed = run(&mut scratch);
    let delta = allocations() - before;
    assert_eq!(warmed, reference, "warmed pass changed the outcome");
    #[cfg(debug_assertions)]
    assert_eq!(
        delta, 0,
        "the pruning walk allocated {delta} times after warm-up"
    );
    #[cfg(not(debug_assertions))]
    let _ = delta;
}

#[test]
fn warmed_execute_allocates_a_per_query_constant_not_per_candidate() {
    // Two worlds an order of magnitude apart in candidate count: the
    // steady-state allocation count of the scratch pipeline must not grow
    // with the candidate volume (that is what "zero allocations per
    // candidate" means for the full execute path — only the returned
    // result's own buffer may be allocated, once per query).
    let mut steady_deltas = Vec::new();
    for (n_routes, n_transitions) in [(8usize, 60u32), (12, 600)] {
        let (routes, transitions) = world(n_routes, n_transitions);
        let engine = FilterRefineEngine::new(&routes, &transitions);
        let query = RknntQuery::exists(vec![p(5.0, 37.0), p(35.0, 37.0), p(65.0, 37.0)], 3);
        let outcome = engine.build_filter(&query);
        let mut scratch = QueryScratch::new();
        // Warm-up: buffers, maps and the result-shape capacity reach steady
        // state (two rounds so the per-transition map is fully grown).
        let reference = engine.execute_with_filter_scratch(&query, &outcome, &mut scratch);
        let _ = engine.execute_with_filter_scratch(&query, &outcome, &mut scratch);

        let before = allocations();
        let result = engine.execute_with_filter_scratch(&query, &outcome, &mut scratch);
        let delta = allocations() - before;
        drop(result.clone());
        assert_eq!(result.transitions, reference.transitions);
        assert!(result.stats.candidate_endpoints > 0);
        steady_deltas.push((result.stats.candidate_endpoints, delta));
    }
    #[cfg(debug_assertions)]
    {
        let (small_cands, small_delta) = steady_deltas[0];
        let (large_cands, large_delta) = steady_deltas[1];
        assert!(
            large_cands > small_cands,
            "the second world must verify more candidates ({large_cands} vs {small_cands})"
        );
        // Per-query constant: a handful of allocations for the returned
        // result, regardless of candidate volume.
        for (cands, delta) in &steady_deltas {
            assert!(
                *delta <= 8,
                "steady-state execute allocated {delta} times for {cands} candidates"
            );
        }
        assert_eq!(
            small_delta, large_delta,
            "allocation count must not scale with candidates"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = steady_deltas;
}
