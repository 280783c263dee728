//! The NList: per-RR-tree-node list of route ids appearing beneath the node.
//!
//! The verification phase of the RkNNT algorithm (Section 4.2.3) counts how
//! many *distinct routes* are closer to a candidate transition point than the
//! query. When whole RR-tree nodes are known to be closer, their contribution
//! is the set of route ids under them — exactly what the NList stores. It is
//! built bottom-up from the RR-tree and the PList, as described in
//! Section 4.1.2.

use crate::ids::RouteId;
use crate::route_store::RouteStore;
use rknnt_rtree::NodeId;
use serde::{Deserialize, Serialize};

/// Per-node sorted, de-duplicated lists of route ids, packed in a CSR
/// (compressed sparse row) layout: one flat route-id vector plus one offset
/// range per node slot.
///
/// The verification hot path reads one node's list per pruned-whole subtree,
/// so the layout matters: a `Vec<Vec<RouteId>>` scatters the lists across
/// the heap (one allocation per node, pointer chase per lookup), while the
/// CSR pack keeps every list contiguous in one cache-friendly buffer and
/// [`NList::routes_under`] is two offset loads and a slice.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NList {
    /// `offsets[i]..offsets[i + 1]` indexes the list of node slot `i` in
    /// `routes`. Length is `node_id_bound + 1` (empty for an empty tree).
    offsets: Vec<u32>,
    /// All per-node lists, concatenated in node-slot order; each list is
    /// sorted and de-duplicated.
    routes: Vec<RouteId>,
}

impl NList {
    /// Builds the NList for the current state of `store`'s RR-tree.
    ///
    /// Readers use the store's resident copy, [`RouteStore::nlist`], which
    /// calls this once per route-set version; a direct call builds a fresh
    /// copy, as the tests do.
    pub fn build(store: &RouteStore) -> Self {
        let tree = store.rtree();
        let bound = tree.node_id_bound();
        // Build per-node lists first (construction-time allocations are
        // fine; the pack below is what the query path reads), then pack.
        let mut lists: Vec<Vec<RouteId>> = vec![Vec::new(); bound];
        if let Some(root) = tree.root() {
            Self::fill(store, root, &mut lists);
        }
        let total: usize = lists.iter().map(Vec::len).sum();
        // Hard assert in this cold build path: a silent `as u32` wrap would
        // make `routes_under` return wrong slices and corrupt verification.
        assert!(total <= u32::MAX as usize, "CSR offsets are u32");
        let mut offsets = Vec::with_capacity(bound + 1);
        let mut routes = Vec::with_capacity(total);
        offsets.push(0u32);
        for list in &lists {
            routes.extend_from_slice(list);
            offsets.push(routes.len() as u32);
        }
        NList { offsets, routes }
    }

    /// Recursively computes the list for `node` and returns it by value so
    /// parents can merge child lists.
    fn fill(
        store: &RouteStore,
        node: rknnt_rtree::NodeRef<'_, crate::ids::StopId>,
        lists: &mut Vec<Vec<RouteId>>,
    ) -> Vec<RouteId> {
        let mut routes: Vec<RouteId> = Vec::new();
        if node.is_leaf() {
            for entry in node.entries() {
                routes.extend_from_slice(store.crossover(entry.data));
            }
        } else {
            node.for_each_child(|child| {
                let child_routes = Self::fill(store, child, lists);
                routes.extend(child_routes);
            });
        }
        routes.sort_unstable();
        routes.dedup();
        lists[node.id().index()] = routes.clone();
        routes
    }

    /// Route ids appearing in the subtree rooted at `node`, as one
    /// contiguous slice of the CSR buffer. Empty for unknown nodes.
    #[inline]
    pub fn routes_under(&self, node: NodeId) -> &[RouteId] {
        let i = node.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&start), Some(&end)) => &self.routes[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Number of node slots tracked (equals the RR-tree's node id bound at
    /// build time).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the list tracks no nodes (empty RR-tree).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of route references across all node lists (the CSR
    /// buffer's length) — exposed for diagnostics and size accounting.
    pub fn num_route_refs(&self) -> usize {
        self.routes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Builds a store with many routes so the RR-tree has several levels.
    fn grid_store() -> RouteStore {
        let mut routes = Vec::new();
        for i in 0..30 {
            let y = i as f64 * 10.0;
            routes.push(vec![
                p(0.0, y),
                p(10.0, y),
                p(20.0, y),
                p(30.0, y),
                p(40.0, y),
            ]);
        }
        let (store, skipped) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        assert_eq!(skipped, 0);
        store
    }

    #[test]
    fn root_lists_every_route() {
        let store = grid_store();
        let nlist = NList::build(&store);
        let root = store.rtree().root().unwrap();
        let under_root = nlist.routes_under(root.id());
        assert_eq!(under_root.len(), store.num_routes());
    }

    #[test]
    fn node_lists_equal_union_of_leaf_crossovers() {
        let store = grid_store();
        let nlist = NList::build(&store);
        // Check every node by brute force: collect stops below it and union
        // their crossover sets.
        let mut stack = vec![store.rtree().root().unwrap()];
        while let Some(node) = stack.pop() {
            let mut expected: Vec<RouteId> = Vec::new();
            let mut inner = vec![node];
            while let Some(n) = inner.pop() {
                if n.is_leaf() {
                    for e in n.entries() {
                        expected.extend_from_slice(store.crossover(e.data));
                    }
                } else {
                    n.for_each_child(|c| inner.push(c));
                }
            }
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(nlist.routes_under(node.id()), expected.as_slice());
            node.for_each_child(|c| stack.push(c));
        }
    }

    #[test]
    fn lists_are_sorted_and_unique() {
        let store = grid_store();
        let nlist = NList::build(&store);
        let root = store.rtree().root().unwrap();
        let list = nlist.routes_under(root.id());
        let mut sorted = list.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(list, sorted.as_slice());
    }

    #[test]
    fn empty_store_yields_empty_nlist() {
        let store = RouteStore::default();
        let nlist = NList::build(&store);
        assert!(nlist.is_empty());
        assert!(nlist.routes_under(NodeId::from_index(0)).is_empty());
        assert_eq!(nlist.len(), 0);
    }

    #[test]
    fn csr_pack_is_consistent() {
        let store = grid_store();
        let nlist = NList::build(&store);
        let tree = store.rtree();
        assert_eq!(nlist.len(), tree.node_id_bound());
        // Every node's slice lies inside the flat buffer and their total
        // length equals the buffer length (the lists tile the CSR pack).
        let mut total = 0usize;
        for i in 0..nlist.len() {
            total += nlist.routes_under(NodeId::from_index(i)).len();
        }
        assert_eq!(total, nlist.num_route_refs());
        // Out-of-range node ids are empty, not a panic.
        assert!(nlist
            .routes_under(NodeId::from_index(nlist.len() + 10))
            .is_empty());
    }

    #[test]
    fn shared_stop_contributes_all_its_routes() {
        let mut store = RouteStore::default();
        // Two routes crossing at (5, 5).
        store.insert_route(vec![p(0.0, 5.0), p(5.0, 5.0), p(10.0, 5.0)]);
        store.insert_route(vec![p(5.0, 0.0), p(5.0, 5.0), p(5.0, 10.0)]);
        let nlist = NList::build(&store);
        let root = store.rtree().root().unwrap();
        assert_eq!(nlist.routes_under(root.id()).len(), 2);
    }
}
