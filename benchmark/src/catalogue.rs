//! The metric catalogue: every name the benchmark reports, with its unit
//! and — for end-to-end metrics — the direction and regression bound.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two from drifting.

use crate::stats::Better;

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_qps", "1/s", Better::Higher, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.20),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_query", "ms", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("update_p50_ms", "ms", Better::Lower, 0.20),
    e2e("update_p95_ms", "ms", Better::Lower, 0.25),
];

/// A metric of one layer, reported by the traced run. `exact` marks counts
/// that repeat exactly for a seed.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        exact: true,
    }
}

pub const PER_LAYER: [Layer; 66] = [
    // index / rtree
    timed("index.bulk_build_ms", "ms"),
    timed("index.transition_insert_us", "us"),
    timed("index.transition_remove_us", "us"),
    exact("rtree.tr_nodes", "count"),
    exact("rtree.tr_height", "count"),
    exact("rtree.rr_nodes", "count"),
    // geo
    timed("geo.dist_eval_ns", "ns"),
    // core
    timed("core.filter_ms", "ms"),
    timed("core.prune_ms", "ms"),
    timed("core.verify_ms", "ms"),
    timed("core.verify_us_per_candidate", "us"),
    timed("core.filter_refine_ms", "ms"),
    timed("core.voronoi_ms", "ms"),
    timed("core.divide_conquer_ms", "ms"),
    timed("core.k5_ms", "ms"),
    timed("core.k10_ms", "ms"),
    exact("core.filter_points", "count"),
    exact("core.filter_routes", "count"),
    exact("core.refine_nodes", "count"),
    exact("core.pruned_tr_nodes", "count"),
    exact("core.candidates", "count"),
    exact("core.verified", "count"),
    exact("core.results", "count"),
    exact("core.verify_yield", "ratio"),
    // service
    timed("service.lookup_us", "us"),
    timed("service.grouping_us", "us"),
    timed("service.execution_ms", "ms"),
    timed("service.finalize_us", "us"),
    timed("service.batch_size_mean", "count"),
    timed("service.groups_per_batch", "count"),
    timed("service.filters_saved_frac", "ratio"),
    timed("service.duplicates_coalesced_frac", "ratio"),
    timed("service.cache_hit_rate", "ratio"),
    timed("service.cache_evictions", "count"),
    timed("service.router.mean_fanout", "count"),
    timed("service.router.pruned_frac", "ratio"),
    timed("service.update.apply_us", "us"),
    timed("service.update.evicted_per_update", "count"),
    timed("service.update.retained_frac", "ratio"),
    timed("service.update.full_drops", "count"),
    timed("service.subs.reexec_rate", "ratio"),
    timed("service.subs.deltas", "count"),
    // storage
    timed("storage.wal_append_us", "us"),
    timed("storage.wal_append_nosync_us", "us"),
    timed("storage.fsync_share", "ratio"),
    exact("storage.wal_bytes_per_update", "B"),
    exact("storage.disk_bytes_per_update", "B"),
    timed("storage.checkpoint_ms", "ms"),
    exact("storage.snapshot_bytes", "B"),
    timed("storage.reopen_ms", "ms"),
    timed("storage.replay_records_per_s", "1/s"),
    // net
    timed("net.encode_query_us", "us"),
    timed("net.decode_query_us", "us"),
    timed("net.encode_reply_us", "us"),
    timed("net.decode_reply_us", "us"),
    timed("net.frame_us", "us"),
    exact("net.reply_bytes_mean", "B"),
    timed("net.ping_rtt_us", "us"),
    timed("net.wire_overhead_us", "us"),
    timed("net.server_request_us", "us"),
    timed("net.admitted", "count"),
    timed("net.shed", "count"),
    // bench — the harness itself
    timed("bench.unattributed_frac", "ratio"),
    timed("bench.trace_overhead_frac", "ratio"),
    timed("bench.pass_spread_frac", "ratio"),
    exact("bench.samples_per_pass", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WorkloadKind;
    use crate::json::Json;

    /// `BENCHMARK.json` must list exactly the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| -> String {
            match item.get(key) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let Some(Json::Arr(end_to_end)) = doc.get("end_to_end") else {
            panic!("end_to_end missing");
        };
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), metric.name);
            assert_eq!(field(item, "unit"), metric.unit);
            let better = if metric.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(field(item, "better"), better);
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(metric.bound));
        }
        let Some(Json::Arr(per_layer)) = doc.get("per_layer") else {
            panic!("per_layer missing");
        };
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), metric.name);
            assert_eq!(field(item, "unit"), metric.unit);
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        let expected: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
