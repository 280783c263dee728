//! Partial-failure invariants for the distributed shard fleet: a complete
//! fleet is byte-identical to an unsharded twin; a killed shard degrades
//! answers to a typed partial result that is exactly the healthy-shard
//! subset (never a silent wrong answer, never a hang); updates to a down
//! shard defer in the router log and replay from the recovered shard's
//! watermark; standing queries are re-established with resync deltas; and
//! after recovery the fleet is byte-identical to a fleet that never failed.

use rknnt_core::{RknntQuery, Semantics};
use rknnt_fault::{Failpoints, FaultPlan};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt_net::{
    BreakerState, FleetConfig, FleetRouter, RecordingSleeper, RemoteShardConfig, ServerConfig,
    SERVER_READ_SITE,
};
use rknnt_obs::MockClock;
use rknnt_service::{QueryService, ServiceConfig, ShardedConfig, ShardedService, StoreUpdate};
use rknnt_storage::WAL_WRITE_SITE;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Same deterministic world as the serving-edge tests: horizontal routes,
/// transitions scattered so every shard of a 3-way x-split owns some.
fn small_world() -> (Vec<Vec<Point>>, Vec<(Point, Point)>) {
    let mut routes = Vec::new();
    for row in 0..6 {
        let y = row as f64 * 120.0;
        routes.push(vec![
            p(0.0, y),
            p(400.0, y + 10.0),
            p(800.0, y),
            p(1200.0, y - 10.0),
        ]);
    }
    let mut pairs = Vec::new();
    for i in 0..80 {
        let x = (i % 10) as f64 * 120.0 + 15.0;
        let y = (i / 10) as f64 * 80.0 + 25.0;
        pairs.push((p(x, y), p(x + 60.0, y + 30.0)));
    }
    (routes, pairs)
}

fn query_mix() -> Vec<RknntQuery> {
    let mut queries = Vec::new();
    for k in [1usize, 2, 4] {
        for (i, semantics) in [Semantics::Exists, Semantics::ForAll]
            .into_iter()
            .enumerate()
        {
            let y = 35.0 + (k * 7 + i) as f64 * 40.0;
            queries.push(RknntQuery {
                route: vec![p(10.0, y), p(500.0, y + 20.0), p(1100.0, y)],
                k,
                semantics,
            });
        }
    }
    queries
}

fn churn() -> Vec<StoreUpdate> {
    vec![
        StoreUpdate::InsertTransition {
            origin: p(100.0, 45.0),
            destination: p(200.0, 50.0),
        },
        StoreUpdate::InsertTransition {
            origin: p(1100.0, 42.0),
            destination: p(1020.0, 38.0),
        },
        StoreUpdate::ExpireTransition(TransitionId::from(3)),
        StoreUpdate::InsertTransition {
            origin: p(620.0, 200.0),
            destination: p(700.0, 260.0),
        },
    ]
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default()
}

/// A fleet wired for deterministic tests: recorded (not slept) backoffs, a
/// hand-advanced breaker clock, and a tiny retry budget so a dead shard is
/// declared missing quickly.
fn test_fleet(
    shards: usize,
    storage_root: Option<PathBuf>,
) -> (FleetRouter, Arc<RecordingSleeper>, Arc<MockClock>) {
    fleet_with_faults(shards, storage_root, Vec::new())
}

/// [`test_fleet`] with failpoints armed on some shards' servers.
fn fleet_with_faults(
    shards: usize,
    storage_root: Option<PathBuf>,
    shard_faults: Vec<(usize, Arc<Failpoints>)>,
) -> (FleetRouter, Arc<RecordingSleeper>, Arc<MockClock>) {
    let sleeper = Arc::new(RecordingSleeper::new());
    let clock = Arc::new(MockClock::new());
    let config = FleetConfig {
        shards,
        service: service_config(),
        server: ServerConfig::default(),
        remote: RemoteShardConfig {
            deadline: Duration::from_secs(2),
            failure_threshold: 2,
            open_for: Duration::from_millis(50),
            ..RemoteShardConfig::default()
        },
        storage_root,
        shard_faults,
        ..FleetConfig::default()
    };
    let (routes, pairs) = small_world();
    let fleet = FleetRouter::bulk_build_with_parts(
        config,
        routes,
        pairs,
        clock.clone(),
        Some(sleeper.clone() as _),
    )
    .expect("fleet build");
    (fleet, sleeper, clock)
}

fn twin() -> QueryService {
    let (routes, pairs) = small_world();
    let mut route_store = RouteStore::default();
    for route in &routes {
        route_store.insert_route(route.clone());
    }
    let mut transition_store = TransitionStore::default();
    for (origin, destination) in &pairs {
        transition_store.insert(*origin, *destination).unwrap();
    }
    QueryService::new(route_store, transition_store, service_config())
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rknnt-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn complete_fleet_is_byte_identical_to_unsharded_twin() {
    let (mut fleet, _, _) = test_fleet(3, None);
    let mut twin = twin();
    for query in query_mix() {
        let fleet_answer = fleet.execute(&query);
        assert!(fleet_answer.is_complete());
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        assert_eq!(fleet_answer.transitions, expected[0].transitions);
    }
    // Updates route through shard logs and land identically.
    let applied = fleet.apply_updates(churn());
    assert_eq!(applied.rejected, 0);
    assert!(applied.deferred_shards.is_empty());
    twin.apply_updates(churn());
    for query in query_mix() {
        let fleet_answer = fleet.execute(&query);
        assert!(fleet_answer.is_complete());
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        assert_eq!(fleet_answer.transitions, expected[0].transitions);
    }
    fleet.shutdown();
}

#[test]
fn killed_shard_degrades_to_exactly_the_healthy_subset() {
    let (mut fleet, sleeper, _) = test_fleet(3, None);
    let twin = twin();
    let victim = 1usize;
    fleet.kill_shard(victim, "chaos: killed by test");
    for query in query_mix() {
        let degraded = fleet.execute(&query);
        assert_eq!(degraded.missing_shards, vec![victim], "typed, never silent");
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        let healthy_subset: Vec<TransitionId> = expected[0]
            .transitions
            .iter()
            .copied()
            .filter(|id| fleet.owner_of(*id) != Some(victim))
            .collect();
        assert_eq!(
            degraded.transitions, healthy_subset,
            "degraded answer must be exactly the healthy-shard subset"
        );
    }
    // The retry schedule ran (recorded, not slept) and stayed within the
    // policy's cap.
    let slept = sleeper.slept();
    assert!(!slept.is_empty(), "retries must back off");
    let max = fleet.shard_stats(victim);
    assert!(max.retries > 0);
    assert!(max.failures > 0);
    fleet.shutdown();
}

#[test]
fn breaker_opens_after_threshold_then_half_opens_on_clock() {
    let (mut fleet, _, clock) = test_fleet(2, None);
    let victim = 0usize;
    fleet.kill_shard(victim, "chaos: breaker test");
    let query = &query_mix()[0];
    // failure_threshold = 2: two failed dispatches trip the breaker.
    let _ = fleet.execute(query);
    let _ = fleet.execute(query);
    assert_eq!(fleet.shard_breaker_state(victim), BreakerState::Open);
    // While open, dispatches fast-fail without dialling.
    let denials_before = fleet.shard_stats(victim).breaker_denials;
    let degraded = fleet.execute(query);
    assert_eq!(degraded.missing_shards, vec![victim]);
    assert!(fleet.shard_stats(victim).breaker_denials > denials_before);
    // Past the cooldown the breaker half-opens and admits a probe; the
    // shard is still dead, so the probe fails and it re-opens.
    clock.advance(Duration::from_millis(51).as_nanos() as u64);
    assert_eq!(fleet.shard_breaker_state(victim), BreakerState::HalfOpen);
    let _ = fleet.execute(query);
    assert_eq!(fleet.shard_breaker_state(victim), BreakerState::Open);
    // Recovery closes it.
    fleet.restart_shard(victim).expect("restart");
    assert_eq!(fleet.shard_breaker_state(victim), BreakerState::Closed);
    assert!(fleet.execute(query).is_complete());
    fleet.shutdown();
}

#[test]
fn deferred_updates_replay_on_in_memory_restart() {
    let (mut fleet, _, _) = test_fleet(3, None);
    let mut twin = twin();
    let victim = 1usize;
    fleet.kill_shard(victim, "chaos: defer test");
    let applied = fleet.apply_updates(churn());
    twin.apply_updates(churn());
    assert_eq!(applied.rejected, 0);
    assert!(applied.deferred_shards.contains(&victim));
    let (acked, total) = fleet.shard_progress(victim);
    assert!(acked < total, "records must defer, not vanish");
    // Degraded but typed while down.
    for query in query_mix() {
        assert_eq!(fleet.execute(&query).missing_shards, vec![victim]);
    }
    fleet.restart_shard(victim).expect("restart");
    let (acked, total) = fleet.shard_progress(victim);
    assert_eq!(acked, total, "restart must replay the full deferred suffix");
    for query in query_mix() {
        let recovered = fleet.execute(&query);
        assert!(recovered.is_complete());
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        assert_eq!(
            recovered.transitions, expected[0].transitions,
            "after recovery the fleet must be byte-identical to a twin that never failed"
        );
    }
    assert!(fleet.metrics_text().contains("fleet.replayed_records"));
    fleet.shutdown();
}

/// One shard of four killed a third of the way into an interleaved
/// query/update stream and restarted at two thirds (formerly the four
/// `shard_failover.*` CI gates). Every query comes back typed — a
/// [`rknnt_net::FleetResult`] per call, no hang, nothing dropped; every
/// degraded answer names exactly the dead shard and is exactly the
/// healthy-shard subset of the unsharded twin's answer; every complete
/// answer, before the kill and after the watermark replay, is the twin's
/// byte for byte; and the outage really covered queries and updates, so
/// none of that holds vacuously.
///
/// Mutation that fails it: in `FleetRouter::restart_shard`, skip
/// `shard.ship()`, which sends the log suffix past the recovered shard's
/// watermark — the arrivals deferred during the outage never reach the
/// restarted shard (`acked < total`).
#[test]
fn mid_stream_kill_and_restart_degrades_typed_and_recovers_exactly() {
    let (mut fleet, _, _) = test_fleet(4, None);
    let mut twin = twin();
    let victim = 1usize;
    let queries = query_mix();
    let (steps, kill_at, restart_at) = (90, 30, 60);
    let (mut degraded, mut complete_after_restart, mut deferred_peak) = (0, 0, 0);
    for step in 0..steps {
        if step == kill_at {
            fleet.kill_shard(victim, "chaos: mid-stream kill");
        }
        if step == restart_at {
            fleet.restart_shard(victim).expect("restart");
            let (acked, total) = fleet.shard_progress(victim);
            assert_eq!(acked, total, "restart must drain the deferred log");
        }
        if step % 5 == 4 {
            // An arrival beside a query route, marching across the x-split
            // so every shard — the victim included — receives some.
            let x = (step * 13 % 120) as f64 * 10.0;
            let update = vec![StoreUpdate::InsertTransition {
                origin: p(x, 45.0 + (step % 7) as f64 * 40.0),
                destination: p(x + 30.0, 60.0),
            }];
            twin.apply_updates(update.clone());
            assert_eq!(fleet.apply_updates(update).rejected, 0);
            let (acked, total) = fleet.shard_progress(victim);
            deferred_peak = deferred_peak.max(total - acked);
            continue;
        }
        let query = &queries[step % queries.len()];
        let answer = fleet.execute(query);
        let (expected, _) = twin.execute_batch(std::slice::from_ref(query));
        let expected = &expected[0].transitions;
        if answer.is_complete() {
            assert_eq!(
                &answer.transitions, expected,
                "complete answer at step {step}"
            );
            complete_after_restart += usize::from(step >= restart_at);
        } else {
            assert!(
                (kill_at..restart_at).contains(&step),
                "degraded at step {step}"
            );
            assert_eq!(answer.missing_shards, vec![victim], "typed, never silent");
            let healthy_subset: Vec<TransitionId> = expected
                .iter()
                .copied()
                .filter(|id| fleet.owner_of(*id) != Some(victim))
                .collect();
            assert_eq!(
                answer.transitions, healthy_subset,
                "degraded answer at step {step}"
            );
            degraded += 1;
        }
    }
    assert!(degraded >= 1, "the outage covered no query");
    assert!(deferred_peak >= 1, "the outage deferred no update");
    assert!(
        complete_after_restart >= 1,
        "nothing was read after recovery"
    );
    fleet.shutdown();
}

#[test]
fn durable_shard_recovers_from_disk_and_replays_only_the_suffix() {
    let root = temp_root("durable");
    let (mut fleet, _, _) = test_fleet(3, Some(root.clone()));
    let mut twin = twin();
    // Phase 1: updates land everywhere and are durably acked.
    let pre = vec![StoreUpdate::InsertTransition {
        origin: p(50.0, 140.0),
        destination: p(90.0, 180.0),
    }];
    assert!(fleet.apply_updates(pre.clone()).deferred_shards.is_empty());
    twin.apply_updates(pre);
    let victim = 0usize;
    let durable_watermark = fleet.shard_progress(victim).0;
    // Phase 2: kill, then route more records at the dead shard.
    fleet.kill_shard(victim, "chaos: durable test");
    let applied = fleet.apply_updates(churn());
    twin.apply_updates(churn());
    assert!(applied.deferred_shards.contains(&victim));
    fleet.restart_shard(victim).expect("restart from disk");
    // The health probe reports the on-disk watermark, so only the
    // post-kill suffix replays — not the whole log.
    let replayed: u64 = fleet
        .metrics_text()
        .lines()
        .find(|l| l.contains("fleet.replayed_records"))
        .and_then(|l| l.rsplit("value=").next()?.trim().parse().ok())
        .expect("replayed_records metric");
    let (acked, total) = fleet.shard_progress(victim);
    assert_eq!(acked, total);
    assert_eq!(
        replayed,
        total - durable_watermark,
        "only the suffix past the durable watermark may replay"
    );
    for query in query_mix() {
        let recovered = fleet.execute(&query);
        assert!(recovered.is_complete());
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        assert_eq!(recovered.transitions, expected[0].transitions);
    }
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn subscriptions_resync_after_failover() {
    let (mut fleet, _, _) = test_fleet(3, None);
    let mut twin = twin();
    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    let (sub, initial) = fleet.subscribe(&standing);
    assert!(initial.is_complete());
    let twin_sub = twin.subscribe(standing.clone());
    assert_eq!(
        Some(initial.transitions.as_slice()),
        twin.subscription_result(twin_sub)
    );
    let victim = 1usize;
    fleet.kill_shard(victim, "chaos: subscription test");
    // Churn while the shard is down: healthy shards stream deltas now, the
    // victim's changes arrive as a resync delta after recovery.
    fleet.apply_updates(churn());
    twin.apply_updates(churn());
    fleet.restart_shard(victim).expect("restart");
    // Fold every fleet delta over the initial view; the result must equal
    // the recorded subscription result AND the twin's.
    let mut view: std::collections::BTreeSet<TransitionId> =
        initial.transitions.iter().copied().collect();
    for delta in fleet.take_deltas() {
        assert_eq!(delta.subscription, sub);
        for id in delta.entered {
            view.insert(id);
        }
        for id in delta.left {
            view.remove(&id);
        }
    }
    let folded: Vec<TransitionId> = view.into_iter().collect();
    assert_eq!(
        fleet.subscription_result(sub).as_deref(),
        Some(folded.as_slice()),
        "deltas must reconstruct the recorded view"
    );
    assert_eq!(
        twin.subscription_result(twin_sub),
        Some(folded.as_slice()),
        "resynced subscription must match the twin"
    );
    fleet.shutdown();
}

/// Every shard of a durable fleet refuses its first WAL write, so `churn()`
/// defers on the shards it reaches: their servers answer, but roll the
/// batch back. The next query must not count such a shard as complete
/// until it holds the records: the router ships a shard's deferred log
/// suffix before it prunes there, so an answer marked complete is the
/// twin's answer, deferral or not.
///
/// Mutation that fails it: `FleetShard::reach` runs its call without
/// shipping the log suffix first — the shard answers from the stores it
/// has, the answer is marked complete and misses the deferred arrivals.
#[test]
fn a_refused_write_is_shipped_before_the_shard_answers_again() {
    let root = temp_root("refused");
    let faults = (0..3)
        .map(|shard| {
            let plan = FaultPlan::new(0x5EED + shard as u64)
                .fail(WAL_WRITE_SITE, 1, "injected WAL write failure")
                .arm();
            (shard, plan)
        })
        .collect();
    let (mut fleet, _, _) = fleet_with_faults(3, Some(root.clone()), faults);
    let mut twin = twin();
    let applied = fleet.apply_updates(churn());
    twin.apply_updates(churn());
    assert!(
        !applied.deferred_shards.is_empty(),
        "the refused writes must defer"
    );
    let mut complete = 0;
    for query in query_mix() {
        let answer = fleet.execute(&query);
        if answer.is_complete() {
            let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
            assert_eq!(
                answer.transitions, expected[0].transitions,
                "a complete answer after a refused write"
            );
            complete += 1;
        }
    }
    assert!(complete >= 1, "no answer was complete");
    for shard in 0..3 {
        let (acked, total) = fleet.shard_progress(shard);
        assert_eq!(acked, total, "shard {shard} answered without its log");
    }
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A route is inserted and another removed while a shard is down and a
/// subscription is live. The router follows both on its own route set, but
/// the removal's candidates come from a prune the down shard misses, so
/// its transitions that the removal lets in reach the subscription only
/// when the shard returns: `restart_shard` re-executes the subscription
/// and emits the difference as a resync delta. After it, the folded deltas
/// and every complete answer equal the twin's.
///
/// Mutation that fails it: skip the resync in `FleetRouter::restart_shard`
/// — the subscription keeps missing what entered on the down shard.
#[test]
fn route_changes_during_an_outage_resync_the_subscriptions_exactly() {
    let (mut fleet, _, _) = test_fleet(3, None);
    let mut twin = twin();
    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    let (sub, initial) = fleet.subscribe(&standing);
    assert!(initial.is_complete());
    let twin_sub = twin.subscribe(standing.clone());
    let victim = 1usize;
    fleet.kill_shard(victim, "chaos: route outage test");
    let changes = vec![
        StoreUpdate::InsertRoute(vec![p(0.0, 70.0), p(600.0, 75.0), p(1200.0, 70.0)]),
        StoreUpdate::RemoveRoute(RouteId(1)),
    ];
    let applied = fleet.apply_updates(changes.clone());
    let expected = twin.apply_updates(changes);
    assert_eq!((applied.routed, applied.rejected), (2, 0));
    assert_eq!(expected.applied, 2);
    let mut view: std::collections::BTreeSet<TransitionId> =
        initial.transitions.iter().copied().collect();
    let mut fold = |deltas: &[rknnt_net::FleetDelta]| {
        for delta in deltas {
            assert_eq!(delta.subscription, sub);
            view.extend(delta.entered.iter().copied());
            for id in &delta.left {
                view.remove(id);
            }
        }
    };
    fold(&fleet.take_deltas());
    fleet.restart_shard(victim).expect("restart");
    let resync = fleet.take_deltas();
    assert!(
        resync
            .iter()
            .flat_map(|d| d.entered.iter().chain(&d.left))
            .any(|id| fleet.owner_of(*id) == Some(victim)),
        "a resync delta must carry a transition of the down shard"
    );
    fold(&resync);
    let folded: Vec<TransitionId> = view.into_iter().collect();
    assert_eq!(twin.subscription_result(twin_sub), Some(folded.as_slice()));
    assert_eq!(fleet.subscription_result(sub), Some(folded));
    for query in query_mix() {
        let answer = fleet.execute(&query);
        assert!(answer.is_complete());
        assert_eq!(answer.transitions, twin.execute(&query).transitions);
    }
    fleet.shutdown();
}

/// Two shards die under a live subscription and only one returns. The
/// router follows arrivals and expiries on its own, so the subscription
/// still holds every member of the shard that stays down; the resync that
/// the other's return runs re-executes the subscription without that
/// shard, and must keep those members rather than report them as left.
/// After the second return the fleet is the twin again.
///
/// Mutation that fails it: `Service::reexecute_subscriptions` ignores its
/// `unseen` predicate — the still-dead shard's members leave in a resync
/// delta and the recorded result falls short of the twin's.
#[test]
fn a_resync_keeps_the_members_of_a_shard_still_down() {
    let (mut fleet, _, _) = test_fleet(3, None);
    let mut twin = twin();
    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    let (sub, initial) = fleet.subscribe(&standing);
    let twin_sub = twin.subscribe(standing.clone());
    let (still_down, returning) = (0usize, 2usize);
    let owned = |fleet: &FleetRouter, ids: &[TransitionId]| {
        ids.iter().any(|id| fleet.owner_of(*id) == Some(still_down))
    };
    assert!(owned(&fleet, &initial.transitions), "no member to keep");
    fleet.kill_shard(still_down, "chaos: stays down");
    fleet.kill_shard(returning, "chaos: returns");
    assert_eq!(fleet.apply_updates(churn()).rejected, 0);
    twin.apply_updates(churn());
    let mut view: std::collections::BTreeSet<TransitionId> =
        initial.transitions.iter().copied().collect();
    let mut fold = |deltas: Vec<rknnt_net::FleetDelta>| {
        for delta in deltas {
            assert_eq!(delta.subscription, sub);
            view.extend(delta.entered.iter().copied());
            for id in &delta.left {
                view.remove(id);
            }
        }
    };
    fold(fleet.take_deltas());
    fleet.restart_shard(returning).expect("restart");
    let resync = fleet.take_deltas();
    for delta in &resync {
        assert!(
            !owned(&fleet, &delta.entered) && !owned(&fleet, &delta.left),
            "a resync delta moved a member of the shard still down: {delta:?}"
        );
    }
    fold(resync);
    let expected = twin.subscription_result(twin_sub).map(<[_]>::to_vec);
    assert_eq!(fleet.subscription_result(sub), expected);
    fleet.restart_shard(still_down).expect("restart");
    fold(fleet.take_deltas());
    let folded: Vec<TransitionId> = view.into_iter().collect();
    assert_eq!(fleet.subscription_result(sub), Some(folded.clone()));
    assert_eq!(twin.subscription_result(twin_sub), Some(folded.as_slice()));
    for query in query_mix() {
        let answer = fleet.execute(&query);
        assert!(answer.is_complete());
        assert_eq!(answer.transitions, twin.execute(&query).transitions);
    }
    fleet.shutdown();
}

/// The router skips a shard whose extent the query's filter covers, as the
/// in-process router skips one by its TR-tree root: it never reaches that
/// shard, so an outage there cannot degrade the answer. With no outage the
/// fleet routes `query_mix()` — before and after `churn()` — exactly as a
/// four-shard `ShardedService` does, counter for counter; then each shard
/// is killed in turn, and every answer either names exactly that shard
/// with exactly the healthy subset, or is complete and the reference's —
/// and some answer during an outage is complete.
///
/// Mutation that fails it: `Shards::prune` consults a shard without
/// testing its extent against the filter — every outage answer degrades
/// and the router counts no skipped shard.
#[test]
fn a_shard_the_filter_rules_out_is_never_missed() {
    let (mut fleet, _, _) = test_fleet(4, None);
    let (routes, pairs) = small_world();
    let config = ShardedConfig::default().with_base(service_config().with_cache_capacity(0));
    let mut sharded = ShardedService::bulk_build(config.with_shards(4), routes, pairs);
    for round in 0..2 {
        for query in query_mix() {
            let answer = fleet.execute(&query);
            assert!(answer.is_complete());
            assert_eq!(answer.transitions, sharded.execute(&query).transitions);
        }
        if round == 0 {
            assert_eq!(fleet.apply_updates(churn()).rejected, 0);
            sharded.apply_updates(churn());
        }
    }
    let routed = fleet.router_stats();
    assert!(routed.shards_pruned > 0, "no shard was skipped: {routed:?}");
    assert_eq!(routed, sharded.router_stats());
    let mut complete = 0;
    for victim in 0..fleet.shard_count() {
        fleet.kill_shard(victim, "chaos: certificate test");
        for query in query_mix() {
            let answer = fleet.execute(&query);
            let expected = sharded.execute(&query).transitions;
            if answer.is_complete() {
                assert_eq!(answer.transitions, expected, "shard {victim} down");
                complete += 1;
                continue;
            }
            assert_eq!(answer.missing_shards, vec![victim], "typed, never silent");
            let healthy_subset: Vec<TransitionId> = expected
                .into_iter()
                .filter(|id| fleet.owner_of(*id) != Some(victim))
                .collect();
            assert_eq!(answer.transitions, healthy_subset, "shard {victim} down");
        }
        fleet.restart_shard(victim).expect("restart");
    }
    assert!(complete >= 1, "every answer during an outage degraded");
    fleet.shutdown();
}

/// A shard fails one call — the candidate query of a route removal under a
/// live subscription — and is healthy again at once. Every later query's
/// filter rules out every shard, so no query reaches it; the router's
/// settle probes a shard still down and resyncs the subscription on its
/// return. The folded deltas and the recorded result then equal the
/// twin's. A member on that shard had the removed route in its count: in
/// debug builds `Maintained::check_bounds` checks that the removal lowered
/// it all the same.
///
/// Mutations that fail it: `FleetRouter::settle` probes no shard — the
/// subscription keeps missing what the removal let in on that shard; in
/// debug, `Shards::take_missed` always answers `false` — the removal
/// leaves that member's count stale.
#[test]
fn a_transient_miss_is_resynced_when_later_queries_skip_the_shard() {
    let victim = 1usize;
    // The subscription's prune is the first frame the shard reads; the
    // removal's candidate query, the second, is cut on both attempts the
    // breaker allows.
    let faults = FaultPlan::new(0x5EED)
        .cut(SERVER_READ_SITE, 2)
        .cut(SERVER_READ_SITE, 3)
        .arm();
    let (mut fleet, _, clock) = fleet_with_faults(3, None, vec![(victim, Arc::clone(&faults))]);
    let mut twin = twin();
    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    let (sub, initial) = fleet.subscribe(&standing);
    assert!(initial.is_complete());
    let twin_sub = twin.subscribe(standing.clone());
    assert_eq!(faults.hits(SERVER_READ_SITE), 1);
    let removal = vec![StoreUpdate::RemoveRoute(RouteId(1))];
    assert_eq!(fleet.apply_updates(removal.clone()).rejected, 0);
    twin.apply_updates(removal);
    assert_eq!(faults.injected(), 2, "the removal's prune did not fail");
    assert_ne!(
        fleet.subscription_result(sub).as_deref(),
        twin.subscription_result(twin_sub),
        "the miss cost the subscription nothing"
    );
    // The failed call opened the shard's breaker; the probe waits it out.
    assert_eq!(fleet.shard_breaker_state(victim), BreakerState::Open);
    clock.advance(Duration::from_millis(51).as_nanos() as u64);
    let far = RknntQuery::exists(vec![p(0.0, 3000.0), p(1200.0, 3000.0)], 1);
    for _ in 0..3 {
        let skipped = fleet.router_stats().shards_pruned;
        let answer = fleet.execute(&far);
        assert!(answer.is_complete());
        assert_eq!(answer.transitions, twin.execute(&far).transitions);
        assert_eq!(fleet.router_stats().shards_pruned, skipped + 3);
    }
    let mut view: std::collections::BTreeSet<TransitionId> =
        initial.transitions.iter().copied().collect();
    for delta in fleet.take_deltas() {
        assert_eq!(delta.subscription, sub);
        view.extend(delta.entered);
        for id in &delta.left {
            view.remove(id);
        }
    }
    let folded: Vec<TransitionId> = view.into_iter().collect();
    assert_eq!(twin.subscription_result(twin_sub), Some(folded.as_slice()));
    assert_eq!(fleet.subscription_result(sub), Some(folded));
    fleet.shutdown();
}
