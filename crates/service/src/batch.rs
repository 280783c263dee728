//! Batch formation and per-group execution: spatial grouping, shared-filter
//! reuse, duplicate coalescing and the [`BatchStats`] counters.

use crate::frontend::Backing;
use crate::metrics::ServiceMetrics;
use crate::policy::EnginePolicy;
use rknnt_core::{
    build_filter_set, EngineKind, FilterFootprint, FilterOutcome, RknntQuery, RknntResult,
    Semantics,
};
use rknnt_geo::Point;
use rknnt_obs::TraceCursor;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock spent in each phase of [`execute_batch`].
///
/// [`execute_batch`]: crate::QueryService::execute_batch
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPhaseTimings {
    /// Result-cache lookups.
    pub lookup: Duration,
    /// Policy evaluation and spatial grouping.
    pub grouping: Duration,
    /// Query execution across the worker pool (wall-clock, not CPU-sum).
    pub execution: Duration,
    /// Result merging and cache insertion.
    pub finalize: Duration,
}

impl BatchPhaseTimings {
    /// Total wall-clock across all phases.
    pub fn total(&self) -> Duration {
        self.lookup + self.grouping + self.execution + self.finalize
    }
}

/// Work and reuse counters for one [`execute_batch`] call.
///
/// [`execute_batch`]: crate::QueryService::execute_batch
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries answered from the result cache.
    pub cache_hits: usize,
    /// Spatial groups formed from the cache misses.
    pub groups: usize,
    /// Filter sets actually constructed (Filter–Refine / Voronoi groups).
    pub filter_constructions: usize,
    /// Filter-set constructions avoided by sharing one construction across
    /// queries with the same `(route, k)` in a group.
    pub filters_saved: usize,
    /// Queries answered by cloning the result of an identical query
    /// (same route, `k` *and* semantics) earlier in the same group.
    pub duplicates_coalesced: usize,
    /// Worker threads the batch actually ran on.
    pub workers_used: usize,
    /// Per-phase wall-clock.
    pub timings: BatchPhaseTimings,
}

/// One cache-missing query travelling through grouping and execution,
/// remembering its position in the caller's batch.
pub(crate) struct Job<'q> {
    pub index: usize,
    pub query: &'q RknntQuery,
}

/// A unit of worker scheduling: queries assigned to the same engine whose
/// route centroids fall in the same spatial cell (and that share `k`, so
/// filter sets are potentially shareable).
pub(crate) struct Group<'q> {
    pub kind: EngineKind,
    pub jobs: Vec<Job<'q>>,
}

fn centroid(route: &[Point]) -> Point {
    if route.is_empty() {
        return Point::new(0.0, 0.0);
    }
    let (mut x, mut y) = (0.0, 0.0);
    for p in route {
        x += p.x;
        y += p.y;
    }
    let n = route.len() as f64;
    Point::new(x / n, y / n)
}

/// Partitions jobs into deterministic groups.
///
/// The key is `(engine, cell_x, cell_y, k)` where the cell quantises the
/// query route's centroid at `cell` metres. Nearby queries then land on the
/// same worker — they traverse the same RR-/TR-tree regions, so the group is
/// a locality unit — and within a group, queries sharing `(route, k)` reuse
/// one filter construction. Ordering is fully deterministic: groups are
/// emitted in key order and jobs keep batch order within their group, so
/// scheduling never depends on thread timing.
pub(crate) fn form_groups<'q>(
    queries: &'q [RknntQuery],
    miss_indexes: &[usize],
    policy: EnginePolicy,
    cell: f64,
) -> Vec<Group<'q>> {
    let cell = if cell.is_finite() && cell > 0.0 {
        cell
    } else {
        1.0
    };
    let mut buckets: BTreeMap<(EngineKind, i64, i64, usize), Vec<Job<'q>>> = BTreeMap::new();
    for &index in miss_indexes {
        let query = &queries[index];
        let kind = policy.choose(query);
        let c = centroid(&query.route);
        let key = (
            kind,
            (c.x / cell).floor() as i64,
            (c.y / cell).floor() as i64,
            query.k,
        );
        buckets.entry(key).or_default().push(Job { index, query });
    }
    buckets
        .into_iter()
        .map(|((kind, _, _, _), jobs)| Group { kind, jobs })
        .collect()
}

/// Exact-identity key for coalescing and filter sharing inside a group,
/// produced by [`crate::cache::route_bits`] — the same mapping the cache key
/// uses, so cache, coalescing and filter sharing can never disagree about
/// query identity.
type RouteBits = Vec<(u64, u64)>;

/// One executed query leaving a group: its batch index, its result, and the
/// filter footprint the engine reported (shared per `(route, k)`; `None`
/// for degenerate queries and for executions that ran without a filter).
pub(crate) type GroupOutput = (usize, RknntResult, Option<Arc<FilterFootprint>>);

/// Executes one group on one worker, appending [`GroupOutput`]s to `out`.
///
/// Results are byte-identical to running the policy-chosen engine per
/// query: the shared filter outcome is exactly what the engine would build
/// for the same `(route, k)` (all engines agree on result transitions, so a
/// backing may route every kind through the filter pipeline), coalesced
/// duplicates clone a result computed by the identical pipeline, and the
/// worker-owned scratch only recycles buffers — the engines' scratch paths
/// are property-tested byte-identical to their allocating twins.
///
/// Work counters go straight to the registry cells in `metrics` (the caller
/// diffs them into [`BatchStats`]); each *fresh* execution also feeds the
/// engine-reported filtering/verification split into the stage histograms
/// (coalesced clones are skipped so no sample is counted twice).
pub(crate) fn run_group<'s, B: Backing>(
    backing: &'s B,
    worker: &mut B::Worker<'s>,
    group: &Group<'_>,
    out: &mut Vec<GroupOutput>,
    metrics: &ServiceMetrics,
    trace: Option<&TraceCursor>,
) {
    // Trace plumbing: one "group" span per group; fresh filter
    // constructions get a "filter_build" child each (and a sharded backing
    // adds its per-shard spans next to them). All spans land in the
    // request's bounded slab — a huge batch overflows into the dropped
    // counter, never an allocation.
    let group_span = trace.map(|t| t.begin("group"));
    let group_trace = trace.zip(group_span).map(|(t, span)| t.at(span));
    let mut filter_builds = 0u64;
    // (route, k, semantics) -> position in `out` of the first identical
    // query's result, for exact-duplicate coalescing.
    let mut seen: HashMap<(RouteBits, usize, Semantics), usize> = HashMap::new();
    // (route, k) -> shared filter outcome and its footprint (the filter set
    // is semantics-independent). One construction also serves as the
    // invalidation footprint for every query sharing the pair.
    let mut filters: HashMap<(RouteBits, usize), (FilterOutcome, Arc<FilterFootprint>)> =
        HashMap::new();

    for job in &group.jobs {
        let bits = crate::cache::route_bits(&job.query.route);
        let full_key = (bits.clone(), job.query.k, job.query.semantics);
        if let Some(&first) = seen.get(&full_key) {
            let (_, result, footprint) = &out[first];
            let cloned = (job.index, result.clone(), footprint.clone());
            out.push(cloned);
            metrics.duplicates_coalesced.inc();
            continue;
        }
        let (result, footprint) = if job.query.is_degenerate() {
            (RknntResult::default(), None)
        } else {
            let shared = B::shares_filter(group.kind).then(|| &*match filters
                .entry((bits, job.query.k))
            {
                Entry::Occupied(entry) => {
                    metrics.filters_saved.inc();
                    entry.into_mut()
                }
                Entry::Vacant(entry) => {
                    metrics.filter_constructions.inc();
                    filter_builds += 1;
                    let span = group_trace.as_ref().map(|t| t.begin("filter_build"));
                    let outcome = build_filter_set(backing.routes(), &job.query.route, job.query.k);
                    if let (Some(t), Some(span)) = (group_trace.as_ref(), span) {
                        t.end_with(span, &[("k", job.query.k as u64)]);
                    }
                    let footprint =
                        Arc::new(FilterFootprint::from_outcome(&job.query.route, &outcome));
                    entry.insert((outcome, footprint))
                }
            });
            let result = backing.execute(
                worker,
                group.kind,
                job.query,
                shared.map(|(outcome, _)| outcome),
                metrics,
                group_trace.as_ref(),
            );
            (result, shared.map(|(_, footprint)| footprint.clone()))
        };
        metrics.record_engine_timings(&result.timings);
        seen.insert(full_key, out.len());
        out.push((job.index, result, footprint));
    }
    if let (Some(t), Some(span)) = (trace, group_span) {
        t.end_with(
            span,
            &[
                ("jobs", group.jobs.len() as u64),
                ("filter_builds", filter_builds),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: f64, y: f64, k: usize) -> RknntQuery {
        RknntQuery::exists(vec![Point::new(x, y), Point::new(x + 10.0, y)], k)
    }

    #[test]
    fn grouping_is_by_cell_k_and_engine() {
        let queries = vec![
            q(0.0, 0.0, 5),
            q(1.0, 1.0, 5),     // same cell, same k -> same group
            q(1.0, 1.0, 7),     // same cell, different k -> different group
            q(5_000.0, 0.0, 5), // far away -> different group
        ];
        let misses: Vec<usize> = (0..queries.len()).collect();
        let groups = form_groups(
            &queries,
            &misses,
            EnginePolicy::Fixed(EngineKind::FilterRefine),
            1_000.0,
        );
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(|g| g.jobs.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 4);
        assert!(sizes.contains(&2));
    }

    #[test]
    fn grouping_is_deterministic() {
        let queries: Vec<RknntQuery> = (0..40)
            .map(|i| q((i % 7) as f64 * 900.0, (i % 5) as f64 * 900.0, 1 + i % 3))
            .collect();
        let misses: Vec<usize> = (0..queries.len()).collect();
        let a = form_groups(&queries, &misses, EnginePolicy::Auto, 2_000.0);
        let b = form_groups(&queries, &misses, EnginePolicy::Auto, 2_000.0);
        let layout = |groups: &[Group]| -> Vec<(EngineKind, Vec<usize>)> {
            groups
                .iter()
                .map(|g| (g.kind, g.jobs.iter().map(|j| j.index).collect()))
                .collect()
        };
        assert_eq!(layout(&a), layout(&b));
    }

    #[test]
    fn nonpositive_cell_size_is_clamped() {
        let queries = vec![q(0.0, 0.0, 1), q(3.0, 0.0, 1)];
        let misses = vec![0, 1];
        for cell in [0.0, -5.0, f64::NAN] {
            let groups = form_groups(
                &queries,
                &misses,
                EnginePolicy::Fixed(EngineKind::BruteForce),
                cell,
            );
            assert_eq!(groups.iter().map(|g| g.jobs.len()).sum::<usize>(), 2);
        }
    }
}
