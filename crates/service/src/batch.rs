//! Batch formation and per-group execution: spatial grouping, the one
//! shared filter → prune → verify pipeline every miss runs, duplicate
//! coalescing and the [`BatchStats`] counters.

use crate::frontend::Backing;
use crate::journal::{bound, Bounds};
use crate::metrics::ServiceMetrics;
use rknnt_core::{
    build_filter_set, verify_candidates, FilterOutcome, QueryScratch, RknntQuery, RknntResult,
    Semantics,
};
use rknnt_geo::Point;
use rknnt_obs::TraceCursor;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Wall-clock spent in each phase of [`execute_batch`].
///
/// [`execute_batch`]: crate::QueryService::execute_batch
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPhaseTimings {
    /// Result-cache lookups.
    pub lookup: Duration,
    /// Spatial grouping of the cache misses.
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
    /// Filter sets actually constructed: one per distinct `(route, k)` of a
    /// group, whatever the number of queries and semantics sharing it.
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

/// A unit of worker scheduling: queries whose route centroids fall in the
/// same spatial cell (and that share `k`, so filter sets are potentially
/// shareable).
pub(crate) struct Group<'q> {
    pub jobs: Vec<Job<'q>>,
}

/// Spatial grouping cell size in the coordinate unit of the stores (metres
/// for the synthetic cities).
const GROUP_CELL: f64 = 2_500.0;

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
/// The key is `(cell_x, cell_y, k)` where the cell quantises the query
/// route's centroid at [`GROUP_CELL`]. Nearby queries then land on the
/// same worker — they traverse the same RR-/TR-tree regions, so the group is
/// a locality unit — and within a group, queries sharing `(route, k)` reuse
/// one filter construction. Ordering is fully deterministic: groups are
/// emitted in key order and jobs keep batch order within their group, so
/// scheduling never depends on thread timing.
pub(crate) fn form_groups<'q>(queries: &'q [RknntQuery], miss_indexes: &[usize]) -> Vec<Group<'q>> {
    let mut buckets: BTreeMap<(i64, i64, usize), Vec<Job<'q>>> = BTreeMap::new();
    for &index in miss_indexes {
        let query = &queries[index];
        let c = centroid(&query.route);
        let key = (
            (c.x / GROUP_CELL).floor() as i64,
            (c.y / GROUP_CELL).floor() as i64,
            query.k,
        );
        buckets.entry(key).or_default().push(Job { index, query });
    }
    buckets.into_values().map(|jobs| Group { jobs }).collect()
}

/// Exact-identity key for coalescing and filter sharing inside a group,
/// produced by [`crate::cache::route_bits`] — the same mapping the cache key
/// uses, so cache, coalescing and filter sharing can never disagree about
/// query identity.
type RouteBits = Vec<(u64, u64)>;

/// One executed query leaving a group: its batch index, its result and the
/// bounds of the result's members — the strictly-closer counts verification
/// computed, which a cached entry or a subscription keeps and a reply
/// drops.
pub(crate) type GroupOutput = (usize, RknntResult, Vec<Bounds>);

/// Executes one group on one worker, appending [`GroupOutput`]s to `out`.
///
/// A fresh, non-degenerate query has one way to run: its `(route, k)`
/// filter is built here, or reused from an earlier query of the group (the
/// filter set is semantics-independent), the backing prunes its transition
/// store(s) against it into the worker's scratch, and the surviving
/// endpoints are verified once against the complete route set. That is
/// [`rknnt_core::FilterRefineEngine`]'s `execute` with the construction
/// hoisted out, so results are byte-identical to it — and therefore to every
/// engine (`crates/core/tests/engine_equivalence.rs`). Coalesced duplicates
/// clone a result computed by the identical pipeline, and the worker-owned
/// scratch only recycles buffers.
///
/// Work counters go straight to the registry cells in `metrics` (the caller
/// diffs them into [`BatchStats`]). A fresh execution's filtering time runs
/// from looking its filter up to the end of the prune — the query that
/// builds a filter carries the construction, the ones sharing it only their
/// prune — and is both the result's `timings.filtering` and one sample of
/// `service.stage.filter_ns`; the verification time feeds
/// `service.stage.verify_ns` (coalesced clones add no sample).
pub(crate) fn run_group<B: Backing>(
    backing: &B,
    scratch: &mut QueryScratch,
    group: &Group<'_>,
    out: &mut Vec<GroupOutput>,
    metrics: &ServiceMetrics,
    trace: TraceCursor<'_>,
) {
    // Trace plumbing: one "group" span per group; fresh filter
    // constructions get a "filter_build" child each (and a sharded backing
    // adds its per-shard spans next to them). All spans land in the
    // request's bounded slab — a huge batch overflows into the dropped
    // counter, never an allocation.
    let group_span = trace.begin("group");
    let group_trace = trace.at(group_span);
    let mut filter_builds = 0u64;
    // (route, k, semantics) -> position in `out` of the first identical
    // query's result, for exact-duplicate coalescing.
    let mut seen: HashMap<(RouteBits, usize, Semantics), usize> = HashMap::new();
    // (route, k) -> shared filter outcome (the filter set is
    // semantics-independent).
    let mut filters: HashMap<(RouteBits, usize), FilterOutcome> = HashMap::new();

    for job in &group.jobs {
        let bits = crate::cache::route_bits(&job.query.route);
        let full_key = (bits.clone(), job.query.k, job.query.semantics);
        if let Some(&first) = seen.get(&full_key) {
            let (_, result, bounds) = &out[first];
            let cloned = (job.index, result.clone(), bounds.clone());
            out.push(cloned);
            metrics.duplicates_coalesced.inc();
            continue;
        }
        let (result, bounds) = if job.query.is_degenerate() {
            (RknntResult::default(), Vec::new())
        } else {
            let filter_span = metrics.stage_filter.enter(TraceCursor::NONE);
            let outcome = &*match filters.entry((bits, job.query.k)) {
                Entry::Occupied(entry) => {
                    metrics.filters_saved.inc();
                    entry.into_mut()
                }
                Entry::Vacant(entry) => {
                    metrics.filter_constructions.inc();
                    filter_builds += 1;
                    let span = group_trace.begin("filter_build");
                    let outcome = build_filter_set(backing.routes(), &job.query.route, job.query.k);
                    group_trace.end_with(span, &[("k", job.query.k as u64)]);
                    entry.insert(outcome)
                }
            };
            scratch.clear_candidates();
            let pruned_nodes =
                backing.prune(scratch, &outcome.filter_set, job.query.k, group_trace);
            let filtering = filter_span.finish();
            let mut result = verify_candidates(backing.routes(), job.query, scratch);
            result.timings.filtering = filtering;
            result.stats.record_filter(outcome, pruned_nodes);
            metrics.record_verification(result.timings.verification);
            // As much room as the ids: the two vectors then grow in step, into
            // blocks of one size (4 bytes an element each) the allocator
            // recycles between them.
            let mut bounds = Vec::with_capacity(result.transitions.capacity());
            bounds.extend(result.transitions.iter().map(|&id| {
                let counts = scratch.verified_counts(id).expect("members were verified");
                counts.map(|count| bound(count as usize))
            }));
            (result, bounds)
        };
        seen.insert(full_key, out.len());
        out.push((job.index, result, bounds));
    }
    trace.end_with(
        group_span,
        &[
            ("jobs", group.jobs.len() as u64),
            ("filter_builds", filter_builds),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: f64, y: f64, k: usize) -> RknntQuery {
        RknntQuery::exists(vec![Point::new(x, y), Point::new(x + 10.0, y)], k)
    }

    #[test]
    fn grouping_is_by_cell_and_k() {
        let queries = vec![
            q(0.0, 0.0, 5),
            q(1.0, 1.0, 5),     // same cell, same k -> same group
            q(1.0, 1.0, 7),     // same cell, different k -> different group
            q(5_000.0, 0.0, 5), // far away -> different group
        ];
        let misses: Vec<usize> = (0..queries.len()).collect();
        let groups = form_groups(&queries, &misses);
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
        let a = form_groups(&queries, &misses);
        let b = form_groups(&queries, &misses);
        let layout = |groups: &[Group]| -> Vec<Vec<usize>> {
            groups
                .iter()
                .map(|g| g.jobs.iter().map(|j| j.index).collect())
                .collect()
        };
        assert_eq!(layout(&a), layout(&b));
    }
}
