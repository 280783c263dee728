//! The engine trait shared by all RkNNT query processors.

use crate::query::{RknntQuery, RknntResult};
use crate::scratch::QueryScratch;

/// A query processor able to answer RkNNT queries over a fixed pair of
/// route / transition stores.
///
/// All engines must return exactly the same set of transitions for the same
/// query (they differ only in how much work they do); this is asserted by the
/// cross-engine equivalence tests in `tests/` and by the property tests
/// against the brute-force oracle. They are the paper's Figure 9–15 curves
/// and the oracles the serving layer is tested against; serving itself
/// composes the two kernel halves ([`crate::build_filter_set`] +
/// [`crate::prune_into_scratch`], then [`crate::verify_candidates`]) rather
/// than calling an engine.
///
/// Engines are `Send + Sync`: they hold only shared references into the
/// stores (the NList they verify against is the route store's own), so
/// constructing one is O(1) and one can be used from many threads, or built
/// per thread inside a [`std::thread::scope`].
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
    /// brute force).
    fn execute_scratch(&self, query: &RknntQuery, scratch: &mut QueryScratch) -> RknntResult {
        let _ = scratch;
        self.execute(query)
    }
}
