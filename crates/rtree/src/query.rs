//! Spatial queries: range search, k-nearest-neighbour search and iteration.

use crate::entry::LeafEntry;
use crate::node::{NodeId, NodeKind};
use crate::tree::{NodeRef, RTree};
use rknnt_geo::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One result of a k-nearest-neighbour query.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnResult<D> {
    /// Location of the matching entry.
    pub point: Point,
    /// Payload of the matching entry.
    pub data: D,
    /// Euclidean distance from the query point to the entry.
    pub distance: f64,
}

/// Heap item used by the best-first kNN traversal. `BinaryHeap` is a
/// max-heap, so the ordering is reversed to pop the smallest distance first.
///
/// `tie` is a deterministic secondary key — `(arena node id, entry slot)` —
/// so exact-tie distances (two entries equidistant from the query) pop in a
/// well-defined order instead of whatever the heap's internal layout
/// happens to produce. Within one leaf this is entry-slot order, i.e.
/// insertion order of the tied points.
struct HeapItem {
    dist: f64,
    tie: (u32, u32),
    kind: HeapKind,
}

enum HeapKind {
    Node(NodeId),
    Entry(usize, NodeId),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.tie == other.tie
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

impl<D: Clone + PartialEq> RTree<D> {
    /// Depth-first traversal over the live nodes of the tree using a
    /// caller-provided stack. `f` is called once per visited node; returning
    /// `true` descends into an internal node's children (the return value is
    /// ignored for leaves). The stack is cleared on entry, so one buffer can
    /// be reused across many traversals and stops allocating once it has
    /// grown to the tree's pending-node high-water mark.
    pub fn visit<F>(&self, stack: &mut Vec<NodeId>, mut f: F)
    where
        F: FnMut(NodeRef<'_, D>) -> bool,
    {
        stack.clear();
        let Some(root) = self.root else { return };
        stack.push(root);
        while let Some(id) = stack.pop() {
            if f(NodeRef::make(self, id)) {
                if let NodeKind::Internal(children) = &self.node(id).kind {
                    stack.extend(children.iter().copied());
                }
            }
        }
    }

    /// Visits every entry whose point lies inside `rect` (boundary
    /// inclusive), reusing the caller's traversal stack — the allocation-free
    /// core of [`RTree::for_each_in`].
    pub fn for_each_in_with<'t, F>(&'t self, stack: &mut Vec<NodeId>, rect: &Rect, mut f: F)
    where
        F: FnMut(&'t LeafEntry<D>),
    {
        stack.clear();
        let Some(root) = self.root else { return };
        stack.push(root);
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if !node.mbr.intersects(rect) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        if rect.contains_point(&e.point) {
                            f(e);
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
    }

    /// Visits every entry whose point lies inside `rect` (boundary
    /// inclusive) with a one-shot internal stack; callers in query loops
    /// should prefer [`RTree::for_each_in_with`] and reuse their stack.
    pub fn for_each_in<'t, F>(&'t self, rect: &Rect, f: F)
    where
        F: FnMut(&'t LeafEntry<D>),
    {
        let mut stack = Vec::new();
        self.for_each_in_with(&mut stack, rect, f);
    }

    /// Visits every entry in the tree in unspecified order, reusing the
    /// caller's traversal stack.
    pub fn for_each_entry_with<'t, F>(&'t self, stack: &mut Vec<NodeId>, mut f: F)
    where
        F: FnMut(&'t LeafEntry<D>),
    {
        stack.clear();
        let Some(root) = self.root else { return };
        stack.push(root);
        while let Some(id) = stack.pop() {
            match &self.node(id).kind {
                NodeKind::Leaf(entries) => entries.iter().for_each(&mut f),
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
    }

    /// Visits every entry in the tree in unspecified order.
    pub fn for_each_entry<F: FnMut(&LeafEntry<D>)>(&self, f: F) {
        let mut stack = Vec::new();
        self.for_each_entry_with(&mut stack, f);
    }

    /// Best-first k-nearest-neighbour search from `query`.
    ///
    /// Results are sorted by increasing distance; exact-tie distances are
    /// broken deterministically by `(arena node id, entry slot)`, so for
    /// tied entries in the same leaf the insertion order of the points
    /// decides. Fewer than `k` results are returned when the tree has fewer
    /// entries.
    pub fn knn(&self, query: &Point, k: usize) -> Vec<KnnResult<D>> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        if k == 0 {
            return out;
        }
        let Some(root) = self.root else { return out };
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            dist: self.node(root).mbr.min_dist(query),
            tie: (root.index() as u32, 0),
            kind: HeapKind::Node(root),
        });
        while let Some(item) = heap.pop() {
            if out.len() >= k {
                break;
            }
            match item.kind {
                HeapKind::Node(id) => match &self.node(id).kind {
                    NodeKind::Leaf(entries) => {
                        for (i, e) in entries.iter().enumerate() {
                            heap.push(HeapItem {
                                dist: e.point.distance(query),
                                tie: (id.index() as u32, i as u32),
                                kind: HeapKind::Entry(i, id),
                            });
                        }
                    }
                    NodeKind::Internal(children) => {
                        for c in children {
                            heap.push(HeapItem {
                                dist: self.node(*c).mbr.min_dist(query),
                                tie: (c.index() as u32, 0),
                                kind: HeapKind::Node(*c),
                            });
                        }
                    }
                },
                HeapKind::Entry(i, leaf) => {
                    if let NodeKind::Leaf(entries) = &self.node(leaf).kind {
                        let e = &entries[i];
                        out.push(KnnResult {
                            point: e.point,
                            data: e.data.clone(),
                            distance: item.dist,
                        });
                    }
                }
            }
        }
        out
    }

    /// Nearest single entry to `query`, if the tree is non-empty.
    pub fn nearest(&self, query: &Point) -> Option<KnnResult<D>> {
        self.knn(query, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn scatter(n: usize) -> Vec<(Point, u32)> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 100_000) as f64 / 37.0;
                let y = ((i * 40503 + 17) % 100_000) as f64 / 53.0;
                (Point::new(x, y), i as u32)
            })
            .collect()
    }

    fn build(n: usize) -> (RTree<u32>, Vec<(Point, u32)>) {
        let items = scatter(n);
        let mut tree = RTree::new(RTreeConfig::new(8, 3));
        for (p, d) in &items {
            tree.insert(*p, *d);
        }
        (tree, items)
    }

    #[test]
    fn range_matches_linear_scan() {
        let (tree, items) = build(600);
        let rect = Rect::new(Point::new(200.0, 300.0), Point::new(1200.0, 900.0));
        let mut expected: Vec<u32> = items
            .iter()
            .filter(|(p, _)| rect.contains_point(p))
            .map(|(_, d)| *d)
            .collect();
        let mut got = Vec::new();
        tree.for_each_in(&rect, |e| got.push(e.data));
        expected.sort();
        got.sort();
        assert_eq!(expected, got);
        assert!(!got.is_empty(), "test rectangle should not be trivial");
    }

    #[test]
    fn knn_matches_linear_scan() {
        let (tree, items) = build(400);
        let q = Point::new(500.0, 500.0);
        for k in [1usize, 5, 17, 50] {
            let mut by_scan: Vec<(f64, u32)> =
                items.iter().map(|(p, d)| (p.distance(&q), *d)).collect();
            by_scan.sort_by(|a, b| a.0.total_cmp(&b.0));
            let got = tree.knn(&q, k);
            assert_eq!(got.len(), k.min(items.len()));
            for (i, r) in got.iter().enumerate() {
                assert!(
                    (r.distance - by_scan[i].0).abs() < 1e-9,
                    "k={k} rank {i}: {} vs {}",
                    r.distance,
                    by_scan[i].0
                );
            }
            // Distances must be non-decreasing.
            for w in got.windows(2) {
                assert!(w[0].distance <= w[1].distance + 1e-12);
            }
        }
    }

    #[test]
    fn knn_edge_cases() {
        let (tree, _) = build(10);
        assert!(tree.knn(&Point::new(0.0, 0.0), 0).is_empty());
        assert_eq!(tree.knn(&Point::new(0.0, 0.0), 100).len(), 10);
        let empty: RTree<u32> = RTree::default();
        assert!(empty.knn(&Point::new(0.0, 0.0), 3).is_empty());
        assert!(empty.nearest(&Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn knn_breaks_exact_ties_deterministically() {
        // Regression test for the heap ordering on exact-tie distances: two
        // entries equidistant from the query must come out in a pinned,
        // reproducible order (entry-slot order within the leaf — insertion
        // order here), not whatever the heap's layout produces.
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        tree.insert(Point::new(0.0, 1.0), 0); // dist 1, inserted first
        tree.insert(Point::new(0.0, -1.0), 1); // dist 1, inserted second
        tree.insert(Point::new(1.0, 0.0), 2); // dist 1, inserted third
        tree.insert(Point::new(5.0, 0.0), 3); // dist 5
        let q = Point::new(0.0, 0.0);
        let first = tree.knn(&q, 4);
        assert_eq!(first.len(), 4);
        assert_eq!(first[0].distance, first[1].distance);
        assert_eq!(first[1].distance, first[2].distance);
        let order: Vec<u32> = first.iter().map(|r| r.data).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "ties pinned by entry-slot order");
        for _ in 0..5 {
            let again: Vec<u32> = tree.knn(&q, 4).iter().map(|r| r.data).collect();
            assert_eq!(again, order, "tie order must be stable across calls");
        }
        // nearest() inherits the same tie-break.
        assert_eq!(tree.nearest(&q).unwrap().data, 0);
    }

    #[test]
    fn visitor_traversals_reuse_the_callers_stack() {
        let (tree, items) = build(500);
        let rect = Rect::new(Point::new(100.0, 100.0), Point::new(1500.0, 1200.0));
        let mut expected = Vec::new();
        tree.for_each_in(&rect, |e| expected.push(e.data));
        // for_each_in with a reused stack sees exactly the same entries in
        // the same order as the one-shot visitor.
        let mut stack = Vec::new();
        let mut got = Vec::new();
        tree.for_each_in_with(&mut stack, &rect, |e| got.push(e.data));
        assert_eq!(got, expected);
        assert!(stack.is_empty(), "stack is drained after the traversal");
        // Reusing the same stack for a second query works.
        got.clear();
        tree.for_each_in_with(&mut stack, &rect, |e| got.push(e.data));
        assert_eq!(got, expected);
        // visit() reaches every entry when the closure always descends.
        let mut seen = 0usize;
        tree.visit(&mut stack, |node| {
            if node.is_leaf() {
                seen += node.entries().len();
            }
            true
        });
        assert_eq!(seen, items.len());
        // ...and prunes subtrees when it declines to descend.
        let mut visited = 0usize;
        tree.visit(&mut stack, |_| {
            visited += 1;
            false
        });
        assert_eq!(visited, 1, "declining the root visits nothing else");
    }

    #[test]
    fn nearest_returns_closest() {
        let (tree, items) = build(200);
        let q = Point::new(123.0, 456.0);
        let best = items
            .iter()
            .map(|(p, d)| (p.distance(&q), *d))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        let got = tree.nearest(&q).unwrap();
        assert!((got.distance - best.0).abs() < 1e-9);
    }

    #[test]
    fn for_each_entry_covers_everything() {
        let (tree, items) = build(150);
        let mut ids = Vec::new();
        tree.for_each_entry(|e| ids.push(e.data));
        ids.sort();
        let mut expected: Vec<u32> = items.iter().map(|(_, d)| *d).collect();
        expected.sort();
        assert_eq!(ids, expected);
    }
}
