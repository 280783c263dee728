//! Durability end to end: write, crash, recover, verify.
//!
//! The example drives the storage engine the way a deployment would:
//!
//! 1. build a small city and attach a storage directory to the service
//!    (initial checkpoint = the snapshot);
//! 2. stream live updates through `apply_updates` — each batch is WAL-logged
//!    before it applies;
//! 3. checkpoint mid-stream, then keep streaming so the WAL holds a tail the
//!    snapshot does not cover;
//! 4. *crash*: drop the service without any shutdown ceremony;
//! 5. reopen with `QueryService::open` — snapshot + WAL replay — and verify
//!    the recovered service answers byte-identically to an uninterrupted
//!    in-memory twin that saw the exact same updates;
//! 6. reopen the same crashed directory as a 4-shard `ShardedService` — the
//!    directory holds global state, so either service opens it — and verify
//!    that one against the twin too.
//!
//! Run with `cargo run --release --example durability`. The exit code is
//! nonzero if any recovered answer diverges, which is what lets CI use this
//! example as its storage smoke test.

use rknnt::prelude::*;
use rknnt::service::StoreUpdate;

fn main() {
    // A small city and a day's worth of passenger transitions.
    let city = CityGenerator::new(CityConfig::small(23)).generate();
    let routes = city.route_store();
    let generator = TransitionGenerator::new(TransitionConfig::checkin_like(2_000, 7));
    let mut transitions = rknnt::index::TransitionStore::default();
    let pairs = generator.generate(&city);
    for (o, d) in &pairs[..1_000] {
        transitions.insert(*o, *d);
    }

    let config = ServiceConfig::default().with_workers(2);
    let dir = std::env::temp_dir().join(format!("rknnt-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The durable service and its uninterrupted in-memory twin.
    let mut durable = QueryService::new(routes.clone(), transitions.clone(), config);
    let mut twin = QueryService::new(routes, transitions, config);
    let stats = durable
        .attach_storage(&dir, StorageConfig::default())
        .expect("attach storage");
    println!(
        "attached {} — initial snapshot {} bytes",
        dir.display(),
        stats.snapshot_bytes
    );

    // Stream updates: new requests arrive, old ones expire, applied in
    // batches of 25 (one WAL fsync per batch). Checkpoint once mid-stream.
    let mut expired = 0u32;
    let mut batches = 0usize;
    for chunk in pairs[1_000..].chunks(25) {
        let mut batch: Vec<StoreUpdate> = chunk
            .iter()
            .map(|(o, d)| StoreUpdate::InsertTransition {
                origin: *o,
                destination: *d,
            })
            .collect();
        for _ in 0..10 {
            batch.push(StoreUpdate::ExpireTransition(TransitionId(expired)));
            expired += 1;
        }
        let stats = durable.apply_updates(batch.clone());
        twin.apply_updates(batch);
        batches += 1;
        if batches == 20 {
            let cp = durable.checkpoint().expect("mid-stream checkpoint");
            println!(
                "checkpoint after {batches} batches: snapshot {} bytes, WAL truncated to {} segments",
                cp.snapshot_bytes, cp.segments
            );
        } else if batches.is_multiple_of(10) {
            println!(
                "batch {batches}: {} WAL frames, {} bytes this batch",
                stats.wal_appends, stats.wal_bytes
            );
        }
    }
    let pre_crash = durable.storage_stats().expect("storage attached");
    println!(
        "pre-crash: next_seq {}, {} segments, {} WAL bytes beyond the snapshot",
        pre_crash.next_seq, pre_crash.segments, pre_crash.wal_bytes
    );
    println!("pre-crash metrics snapshot (WAL fsync / checkpoint latencies):");
    for line in durable.metrics_text().lines() {
        if line.starts_with("histogram=storage.")
            || line.starts_with("gauge=storage.")
            || line.starts_with("counter=storage.")
            || line.starts_with("counter=service.update.")
        {
            println!("  {line}");
        }
    }

    // The crash: no checkpoint, no flush call, just gone.
    drop(durable);

    // Recovery: snapshot + WAL tail, replayed through the update path.
    let (recovered, stats) =
        QueryService::open(&dir, config, StorageConfig::default()).expect("recover");
    println!(
        "recovered: replayed {} WAL records (torn tail: {})",
        stats.replayed_records, stats.torn_tail
    );
    println!("recovered metrics snapshot (replay went through the update path):");
    for line in recovered.metrics_text().lines() {
        if line.starts_with("counter=service.update.") {
            println!("  {line}");
        }
    }

    // Verify: byte-identical answers against the uninterrupted twin.
    let queries: Vec<RknntQuery> = city.routes[..20]
        .iter()
        .map(|route| RknntQuery::exists(route.clone(), 5))
        .collect();
    let (twin_answers, _) = twin.execute_batch(&queries);
    let (recovered_answers, _) = recovered.execute_batch(&queries);
    let count_diverged = |answers: &[rknnt::core::RknntResult]| {
        twin_answers
            .iter()
            .zip(answers)
            .filter(|(a, b)| a.transitions != b.transitions)
            .count()
    };
    let mut diverged = count_diverged(&recovered_answers);
    let qualifying: usize = twin_answers.iter().map(|a| a.len()).sum();
    println!(
        "verified {} queries ({} qualifying transitions): {} diverged",
        queries.len(),
        qualifying,
        diverged
    );
    assert_eq!(
        recovered.transitions().len(),
        twin.transitions().len(),
        "live transition counts must match"
    );

    // The same crashed directory, opened as a sharded service instead: one
    // durable format, whichever service wrote it.
    drop(recovered);
    let sharded_config = ShardedConfig::default().with_shards(4).with_base(config);
    let (resharded, stats) = ShardedService::open(&dir, sharded_config, StorageConfig::default())
        .expect("recover as a sharded service");
    let (sharded_answers, _) = resharded.execute_batch(&queries);
    let sharded_diverged = count_diverged(&sharded_answers);
    println!(
        "reopened as {} shards: replayed {} WAL records, {} live transitions, {} diverged",
        resharded.shard_count(),
        stats.replayed_records,
        resharded.num_transitions(),
        sharded_diverged
    );
    assert_eq!(resharded.num_transitions(), twin.transitions().len());
    diverged += sharded_diverged;
    drop(resharded);

    let _ = std::fs::remove_dir_all(&dir);
    if diverged > 0 {
        eprintln!("FAIL: recovered answers diverged from the uninterrupted twin");
        std::process::exit(1);
    }
    println!("OK: crash recovery is exact, flat and sharded");
}
