//! Service throughput: drive the batch query service over a synthetic city
//! and watch QPS, worker fan-out, shared-filter reuse and cache hits.
//!
//! Run with `cargo run --release --example service_throughput -- \
//!     [--queries N] [--batch N] [--workers N] [--k N] \
//!     [--semantics exists|forall]`.
//!
//! The semantics flag is parsed through the `FromStr` impl on [`Semantics`]
//! — no hard-coded variants.

use rknnt::data::workload;
use rknnt::prelude::*;

struct Args {
    queries: usize,
    batch: usize,
    workers: usize,
    k: usize,
    semantics: Semantics,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        queries: 512,
        batch: 256,
        workers: 4,
        k: 10,
        semantics: Semantics::Exists,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?
            }
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--k" => args.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--semantics" => args.semantics = value("--semantics")?.parse()?,
            other => {
                return Err(format!(
                    "unknown flag {other}; expected --queries, --batch, --workers, --k or \
                     --semantics"
                ))
            }
        }
    }
    if args.batch == 0 || args.queries == 0 {
        return Err("--queries and --batch must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    // A small city and a check-in-like transition set, as in `quickstart`.
    let city = CityGenerator::new(CityConfig::small(42)).generate();
    let transitions =
        TransitionGenerator::new(TransitionConfig::checkin_like(20_000, 7)).generate_store(&city);
    let routes = city.route_store();
    println!(
        "city: {} routes, {} stops, {} transitions",
        routes.num_routes(),
        routes.num_stops(),
        transitions.len()
    );

    // The query stream cycles a pool of generated routes, so popular routes
    // repeat — the shape that makes batching and caching pay.
    let pool = workload::rknnt_queries(&city, 32, 5, 1_000.0, 3);
    let stream: Vec<RknntQuery> = (0..args.queries)
        .map(|i| RknntQuery {
            route: pool[i % pool.len()].clone(),
            k: args.k,
            semantics: args.semantics,
        })
        .collect();

    let service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default().with_workers(args.workers),
    );
    println!(
        "service: {} workers, batch {}, {} semantics\n",
        args.workers, args.batch, args.semantics
    );

    let started = std::time::Instant::now();
    let mut answered = 0usize;
    let mut total = BatchStats::default();
    for chunk in stream.chunks(args.batch) {
        let (results, stats) = service.execute_batch(chunk);
        answered += results.len();
        total.cache_hits += stats.cache_hits;
        total.groups += stats.groups;
        total.filter_constructions += stats.filter_constructions;
        total.filters_saved += stats.filters_saved;
        total.duplicates_coalesced += stats.duplicates_coalesced;
    }
    let elapsed = started.elapsed();

    println!(
        "answered {answered} queries in {:.2}s -> {:.0} QPS",
        elapsed.as_secs_f64(),
        answered as f64 / elapsed.as_secs_f64()
    );
    println!(
        "groups {} | filter constructions {} (saved {}) | duplicates coalesced {} | cache hits {}",
        total.groups,
        total.filter_constructions,
        total.filters_saved,
        total.duplicates_coalesced,
        total.cache_hits
    );
    let cache = service.cache_stats();
    let lookups = cache.hits + cache.misses;
    println!(
        "cache: {} hits / {} misses / {} insertions / {} evictions (hit rate {:.1}%)",
        cache.hits,
        cache.misses,
        cache.insertions,
        cache.evictions,
        if lookups == 0 {
            0.0
        } else {
            100.0 * cache.hits as f64 / lookups as f64
        }
    );

    // The same run through the telemetry layer: per-stage latency
    // percentiles and the full counter catalog, straight from the registry.
    println!("\nmetrics snapshot (per-stage breakdown):");
    for line in service.metrics_text().lines() {
        println!("  {line}");
    }
}
