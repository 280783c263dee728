//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs points into leaves by sorting on x, cutting into vertical
//! slices of ~√(n/fanout) leaves each, sorting each slice on y, and chunking
//! into full leaves. Upper levels are packed the same way over the node
//! centres. Bulk loading produces a tree with near-100% node utilisation,
//! which is what the paper's (static) route index wants, while later dynamic
//! inserts and deletes keep working through the normal maintenance paths.

use crate::config::RTreeConfig;
use crate::entry::LeafEntry;
use crate::node::{Node, NodeId, NodeKind};
use crate::tree::RTree;
use rknnt_geo::Point;

impl<D: Clone + PartialEq> RTree<D> {
    /// Builds a tree containing `items` using STR bulk loading.
    pub fn bulk_load(config: RTreeConfig, items: Vec<(Point, D)>) -> Self {
        let mut tree = RTree::new(config);
        if items.is_empty() {
            return tree;
        }
        let entries: Vec<LeafEntry<D>> = items
            .into_iter()
            .map(|(p, d)| LeafEntry::new(p, d))
            .collect();
        let total = entries.len();

        // Pack leaves.
        let leaf_ids = pack_leaves(&mut tree, entries, config.max_entries);

        // Pack internal levels until a single root remains.
        let mut level = leaf_ids;
        while level.len() > 1 {
            level = pack_internal(&mut tree, level, config.max_entries);
        }
        let root = level[0];
        tree.root = Some(root);
        tree.len = total;
        tree
    }
}

/// Groups sorted entries into leaves using the STR tiling and returns the
/// allocated leaf node ids.
fn pack_leaves<D: Clone + PartialEq>(
    tree: &mut RTree<D>,
    mut entries: Vec<LeafEntry<D>>,
    capacity: usize,
) -> Vec<NodeId> {
    let n = entries.len();
    let leaf_count = n.div_ceil(capacity);
    let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slice_count.max(1)).max(1);

    entries.sort_by(|a, b| a.point.x.total_cmp(&b.point.x));

    let mut ids = Vec::with_capacity(leaf_count);
    let mut start = 0;
    while start < entries.len() {
        let end = (start + slice_size).min(entries.len());
        let slice = &mut entries[start..end];
        slice.sort_by(|a, b| a.point.y.total_cmp(&b.point.y));
        let mut chunk_start = 0;
        while chunk_start < slice.len() {
            let chunk_end = (chunk_start + capacity).min(slice.len());
            let chunk: Vec<LeafEntry<D>> = slice[chunk_start..chunk_end].to_vec();
            let mut leaf = Node::new_leaf();
            leaf.kind = NodeKind::Leaf(chunk);
            let id = tree.alloc(leaf);
            tree.recompute_mbr(id);
            ids.push(id);
            chunk_start = chunk_end;
        }
        start = end;
    }
    ids
}

/// Packs one internal level above `children` and returns the new level's ids.
fn pack_internal<D: Clone + PartialEq>(
    tree: &mut RTree<D>,
    mut children: Vec<NodeId>,
    capacity: usize,
) -> Vec<NodeId> {
    let n = children.len();
    let node_count = n.div_ceil(capacity);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slice_count.max(1)).max(1);

    children.sort_by(|a, b| tree_center(tree, *a).x.total_cmp(&tree_center(tree, *b).x));

    let mut ids = Vec::with_capacity(node_count);
    let mut start = 0;
    while start < children.len() {
        let end = (start + slice_size).min(children.len());
        let slice = &mut children[start..end];
        slice.sort_by(|a, b| tree_center(tree, *a).y.total_cmp(&tree_center(tree, *b).y));
        let mut chunk_start = 0;
        while chunk_start < slice.len() {
            let chunk_end = (chunk_start + capacity).min(slice.len());
            let chunk: Vec<NodeId> = slice[chunk_start..chunk_end].to_vec();
            let mut parent = Node::new_internal();
            parent.kind = NodeKind::Internal(chunk.clone());
            let pid = tree.alloc(parent);
            for c in chunk {
                tree.node_mut(c).parent = Some(pid);
            }
            tree.recompute_mbr(pid);
            ids.push(pid);
            chunk_start = chunk_end;
        }
        start = end;
    }
    ids
}

fn tree_center<D: Clone + PartialEq>(tree: &RTree<D>, id: NodeId) -> Point {
    tree.node_ref(id)
        .map(|n| n.mbr().center())
        .unwrap_or(Point::ORIGIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Rect;

    fn scatter(n: usize) -> Vec<(Point, u32)> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 100_000) as f64 / 10.0;
                let y = ((i * 40503 + 17) % 100_000) as f64 / 10.0;
                (Point::new(x, y), i as u32)
            })
            .collect()
    }

    #[test]
    fn bulk_load_small_and_large() {
        for n in [0usize, 1, 5, 33, 200, 5000] {
            let items = scatter(n);
            let tree = RTree::bulk_load(RTreeConfig::default(), items.clone());
            assert_eq!(tree.len(), n, "n = {n}");
            tree.check_invariants_bulk().unwrap();
            // All points findable via range query over their exact location.
            if n > 0 {
                let (p, d) = items[n / 2];
                let mut found = false;
                tree.for_each_in(&Rect::from_point(p), |e| found |= e.data == d);
                assert!(found);
            }
        }
    }

    #[test]
    fn bulk_load_then_dynamic_updates() {
        let items = scatter(800);
        let mut tree = RTree::bulk_load(RTreeConfig::new(16, 6), items.clone());
        // Dynamic insert after bulk load.
        tree.insert(Point::new(-10.0, -10.0), 9999);
        assert_eq!(tree.len(), 801);
        // Dynamic remove of a bulk-loaded entry.
        let (p, d) = items[123];
        assert!(tree.remove(&p, &d));
        assert_eq!(tree.len(), 800);
        tree.check_invariants_bulk().unwrap();
    }

    #[test]
    fn bulk_load_high_utilisation() {
        let items = scatter(3200);
        let tree = RTree::bulk_load(RTreeConfig::new(32, 12), items);
        // STR packing should need close to n/capacity leaves; allow 40% slack.
        let min_possible = 3200usize.div_ceil(32);
        assert!(
            tree.node_count() < min_possible * 2,
            "nodes = {}",
            tree.node_count()
        );
    }
}
