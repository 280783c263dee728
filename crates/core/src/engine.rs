//! The engine trait shared by all RkNNT query processors.

use crate::footprint::FilterFootprint;
use crate::query::{RknntQuery, RknntResult};
use crate::scratch::QueryScratch;

/// A query processor able to answer RkNNT queries over a fixed pair of
/// route / transition stores.
///
/// All engines must return exactly the same set of transitions for the same
/// query (they differ only in how much work they do); this is asserted by the
/// cross-engine equivalence tests in `tests/` and by the property tests
/// against the brute-force oracle.
///
/// Engines are `Send + Sync`: they hold only shared references into the
/// stores (the NList they verify against is the route store's own), so
/// constructing one is O(1) and the serving layer can execute queries
/// against one engine from many worker threads, or build one engine per
/// worker inside a [`std::thread::scope`].
pub trait RknnTEngine: Send + Sync {
    /// Human-readable engine name used in benchmark output
    /// ("Filter-Refine", "Voronoi", "Divide-Conquer", "BruteForce").
    fn name(&self) -> &'static str;

    /// Executes the query and returns the qualifying transitions together
    /// with phase timings and work counters.
    fn execute(&self, query: &RknntQuery) -> RknntResult;

    /// Executes the query on a caller-provided [`QueryScratch`], reusing its
    /// buffers instead of allocating per-call state. Byte-identical results
    /// to [`RknnTEngine::execute`]; the default implementation simply
    /// ignores the scratch for engines with no per-candidate state (e.g.
    /// brute force). The serving layer owns one scratch per worker and
    /// threads it through every query the worker runs.
    fn execute_scratch(&self, query: &RknntQuery, scratch: &mut QueryScratch) -> RknntResult {
        let _ = scratch;
        self.execute(query)
    }

    /// Scratch-reusing form of [`RknnTEngine::execute_with_footprint`].
    fn execute_with_footprint_scratch(
        &self,
        query: &RknntQuery,
        scratch: &mut QueryScratch,
    ) -> (RknntResult, Option<FilterFootprint>) {
        (self.execute_scratch(query, scratch), None)
    }

    /// Executes the query and also reports the [`FilterFootprint`] of the
    /// filter construction the execution used, when the engine builds one.
    ///
    /// Serving layers that keep *standing* queries current under store churn
    /// (result caches, continuous-query monitors) need the footprint next to
    /// every freshly computed result so later updates can be classified as
    /// affecting it or not. Engines without a filter phase (brute force,
    /// divide & conquer) return `None` and the caller falls back to
    /// [`FilterFootprint::compute`]; the result is byte-identical to
    /// [`RknnTEngine::execute`] either way.
    fn execute_with_footprint(&self, query: &RknntQuery) -> (RknntResult, Option<FilterFootprint>) {
        (self.execute(query), None)
    }
}
