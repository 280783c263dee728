//! Continuous RkNNT monitoring: standing subscriptions kept current under
//! store churn, with per-update deltas instead of re-polling.
//!
//! A transit-planning dashboard watches a handful of candidate corridors:
//! "which passenger transitions would adopt this route?" The answer must
//! stay fresh as requests arrive and expire and as lines occasionally
//! change. Re-running every watched query after every update burns CPU on
//! answers that did not change; [`QueryService::subscribe`] instead keeps
//! each standing result current across [`QueryService::apply_updates`] —
//! arriving and expiring transitions are admitted to or dropped from each
//! result in place, a new line drops in place exactly the members it now
//! beats the corridor for, and only a line withdrawal re-executes the
//! queries — and reports what changed as [`SubscriptionDelta`]s, each
//! saying why.
//!
//! Run with `cargo run --release --example continuous_monitoring`.

use rknnt::data::{workload, ChurnConfig, ChurnEvent};
use rknnt::prelude::*;
use rknnt::service::{DeltaReason, StoreUpdate};

fn main() {
    let city = CityGenerator::new(CityConfig::small(47)).generate();
    let routes = city.route_store();
    let transitions =
        TransitionGenerator::new(TransitionConfig::checkin_like(4_000, 13)).generate_store(&city);

    let mut service = QueryService::new(routes, transitions, ServiceConfig::default());

    // Watch 8 candidate corridors as standing queries.
    let watched = workload::rknnt_queries(&city, 8, 4, 1_000.0, 5);
    let subs: Vec<SubscriptionId> = watched
        .iter()
        .map(|route| service.subscribe(RknntQuery::exists(route.clone(), 5)))
        .collect();
    for id in &subs {
        println!(
            "{id}: {} transitions would adopt the corridor",
            service.subscription_result(*id).unwrap().len()
        );
    }

    // A morning of churn: transition-dominated updates with occasional line
    // changes, resolved against the live id lists.
    let stream = workload::churn_stream(&city, &ChurnConfig::new(600, 1.0, 99));
    let mut live = service.transitions().transition_ids();
    let mut live_routes = service.routes().route_ids();
    let (mut updates_applied, mut reexecutions, mut stable, mut unaffected) = (0, 0, 0, 0);
    let mut delta_log = 0usize;
    let (mut arrived, mut expired, mut displaced, mut recomputed) = (0, 0, 0, 0);

    for chunk in stream.chunks(20) {
        let updates: Vec<StoreUpdate> = chunk
            .iter()
            .filter_map(|event| match event {
                ChurnEvent::InsertTransition(origin, destination) => {
                    Some(StoreUpdate::InsertTransition {
                        origin: *origin,
                        destination: *destination,
                    })
                }
                ChurnEvent::ExpireTransition(draw) => {
                    if live.is_empty() {
                        return None;
                    }
                    let victim = *draw as usize % live.len();
                    Some(StoreUpdate::ExpireTransition(live.swap_remove(victim)))
                }
                ChurnEvent::InsertRoute(points) => Some(StoreUpdate::InsertRoute(points.clone())),
                ChurnEvent::RemoveRoute(draw) => {
                    if live_routes.len() <= 4 {
                        return None;
                    }
                    let victim = *draw as usize % live_routes.len();
                    Some(StoreUpdate::RemoveRoute(live_routes.swap_remove(victim)))
                }
                ChurnEvent::Query(_) => None,
            })
            .collect();
        let stats = service.apply_updates(updates);
        live.extend(stats.inserted_transitions.iter().copied());
        live_routes.extend(stats.inserted_routes.iter().copied());
        updates_applied += stats.applied;
        reexecutions += stats.subs_reexecuted;
        stable += stats.subs_stable;
        unaffected += stats.subs_unaffected;
        // The dashboard consumes deltas, never re-polls.
        for delta in &stats.deltas {
            delta_log += 1;
            match delta.reason {
                DeltaReason::TransitionArrived => arrived += 1,
                DeltaReason::TransitionExpired => expired += 1,
                DeltaReason::RouteInserted => displaced += 1,
                DeltaReason::Reexecuted => recomputed += 1,
            }
            if delta_log <= 5 {
                println!(
                    "delta: {} +{} / -{} transitions ({:?})",
                    delta.subscription,
                    delta.entered.len(),
                    delta.left.len(),
                    delta.reason,
                );
            }
        }
    }

    let classified = (unaffected + stable + reexecutions) as f64;
    println!(
        "\n{updates_applied} updates against {} subscriptions: \
         {unaffected} unaffected, {stable} maintained in place, \
         {reexecutions} re-executed ({:.1}% of the re-run-all cost)",
        subs.len(),
        100.0 * reexecutions as f64 / classified.max(1.0),
    );
    println!(
        "{delta_log} deltas emitted: {arrived} arrivals admitted in place, \
         {expired} member expiries, {displaced} in-place drops behind a new line, \
         {recomputed} from re-execution after a line withdrawal"
    );

    // The maintained results are byte-identical to fresh execution.
    let fresh = EngineKind::Voronoi.build(service.routes(), service.transitions());
    for (id, route) in subs.iter().zip(&watched) {
        let expected = fresh.execute(&RknntQuery::exists(route.clone(), 5));
        assert_eq!(
            service.subscription_result(*id).unwrap(),
            expected.transitions.as_slice(),
            "maintained result diverged"
        );
    }
    println!("all maintained results verified against fresh execution");
}
