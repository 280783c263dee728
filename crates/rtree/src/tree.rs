//! The dynamic R-tree: insertion, deletion and the read-only node API.

use crate::config::RTreeConfig;
use crate::entry::LeafEntry;
use crate::node::{Node, NodeId, NodeKind};
use crate::split;
use rknnt_geo::{Point, Rect};
use serde::{Deserialize, Serialize};

/// A dynamic R-tree over point entries with payload `D`.
///
/// See the crate-level documentation for the design rationale. The tree is
/// an arena of nodes; deleted nodes are recycled through a free list so node
/// ids stay small and dense, which the `NList` structure of the index crate
/// relies on for its per-node vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RTree<D> {
    pub(crate) nodes: Vec<Node<D>>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: Option<NodeId>,
    config: RTreeConfig,
    pub(crate) len: usize,
}

impl<D: Clone + PartialEq> Default for RTree<D> {
    fn default() -> Self {
        Self::new(RTreeConfig::default())
    }
}

impl<D: Clone + PartialEq> RTree<D> {
    /// Creates an empty tree with the given fan-out configuration.
    pub fn new(config: RTreeConfig) -> Self {
        RTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            config,
            len: 0,
        }
    }

    /// Fan-out configuration of the tree.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Number of data entries in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live nodes (leaves plus internal nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.live).count()
    }

    /// Height of the tree: 0 for an empty tree, 1 for a single leaf root.
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut cur = self.root;
        while let Some(id) = cur {
            h += 1;
            cur = match &self.node(id).kind {
                NodeKind::Leaf(_) => None,
                NodeKind::Internal(children) => children.first().copied(),
            };
        }
        h
    }

    /// Read-only reference to the root node, if any.
    pub fn root(&self) -> Option<NodeRef<'_, D>> {
        self.root.map(|id| NodeRef { tree: self, id })
    }

    /// Read-only reference to an arbitrary live node by id.
    ///
    /// Returns `None` when the id does not refer to a live node of this tree.
    pub fn node_ref(&self, id: NodeId) -> Option<NodeRef<'_, D>> {
        self.nodes
            .get(id.index())
            .filter(|n| n.live)
            .map(|_| NodeRef { tree: self, id })
    }

    /// Upper bound (exclusive) on node ids ever allocated; useful to size
    /// per-node side tables such as the NList.
    pub fn node_id_bound(&self) -> usize {
        self.nodes.len()
    }

    // ------------------------------------------------------------------
    // Arena plumbing
    // ------------------------------------------------------------------

    pub(crate) fn node(&self, id: NodeId) -> &Node<D> {
        &self.nodes[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node<D> {
        &mut self.nodes[id.index()]
    }

    pub(crate) fn alloc(&mut self, node: Node<D>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = node;
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(node);
            id
        }
    }

    fn release(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        node.live = false;
        node.parent = None;
        node.mbr = Rect::empty();
        node.kind = NodeKind::Leaf(Vec::new());
        self.free.push(id);
    }

    /// Recomputes the MBR of `id` from its contents.
    pub(crate) fn recompute_mbr(&mut self, id: NodeId) {
        let mbr = match &self.node(id).kind {
            NodeKind::Leaf(entries) => {
                let mut r = Rect::empty();
                for e in entries {
                    r.expand_to_point(&e.point);
                }
                r
            }
            NodeKind::Internal(children) => {
                let mut r = Rect::empty();
                for c in children {
                    r.expand_to_rect(&self.node(*c).mbr);
                }
                r
            }
        };
        self.node_mut(id).mbr = mbr;
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts an entry into the tree.
    pub fn insert(&mut self, point: Point, data: D) {
        let entry = LeafEntry::new(point, data);
        match self.root {
            None => {
                let mut leaf = Node::new_leaf();
                leaf.mbr = Rect::from_point(point);
                if let NodeKind::Leaf(entries) = &mut leaf.kind {
                    entries.push(entry);
                }
                let id = self.alloc(leaf);
                self.root = Some(id);
            }
            Some(root) => {
                let leaf = self.choose_leaf(root, &point);
                if let NodeKind::Leaf(entries) = &mut self.node_mut(leaf).kind {
                    entries.push(entry);
                }
                self.node_mut(leaf).mbr.expand_to_point(&point);
                self.adjust_upwards(leaf, &point);
                if self.node(leaf).len() > self.config.max_entries {
                    self.split_node(leaf);
                }
            }
        }
        self.len += 1;
    }

    /// Descends from `from` picking at each level the child whose MBR needs
    /// the least enlargement to cover `point` (ties broken by smaller area),
    /// until a leaf is reached.
    fn choose_leaf(&self, from: NodeId, point: &Point) -> NodeId {
        let mut cur = from;
        loop {
            match &self.node(cur).kind {
                NodeKind::Leaf(_) => return cur,
                NodeKind::Internal(children) => {
                    debug_assert!(!children.is_empty());
                    let target = Rect::from_point(*point);
                    let mut best = children[0];
                    let mut best_enl = f64::INFINITY;
                    let mut best_area = f64::INFINITY;
                    for &c in children {
                        let mbr = self.node(c).mbr;
                        let enl = mbr.enlargement(&target);
                        let area = mbr.area();
                        if enl < best_enl || (enl == best_enl && area < best_area) {
                            best = c;
                            best_enl = enl;
                            best_area = area;
                        }
                    }
                    cur = best;
                }
            }
        }
    }

    /// Expands ancestor MBRs after adding `point` beneath `from`.
    fn adjust_upwards(&mut self, from: NodeId, point: &Point) {
        let mut cur = self.node(from).parent;
        while let Some(id) = cur {
            self.node_mut(id).mbr.expand_to_point(point);
            cur = self.node(id).parent;
        }
    }

    /// Splits an overflowing node and propagates splits upward as needed.
    fn split_node(&mut self, id: NodeId) {
        let sibling_id = match &self.node(id).kind {
            NodeKind::Leaf(_) => {
                let entries = match &mut self.node_mut(id).kind {
                    NodeKind::Leaf(e) => std::mem::take(e),
                    NodeKind::Internal(_) => unreachable!(),
                };
                let (group_a, group_b) =
                    split::quadratic_split_entries(entries, self.config.min_entries);
                if let NodeKind::Leaf(e) = &mut self.node_mut(id).kind {
                    *e = group_a;
                }
                let mut sibling = Node::new_leaf();
                sibling.kind = NodeKind::Leaf(group_b);
                let sid = self.alloc(sibling);
                self.recompute_mbr(id);
                self.recompute_mbr(sid);
                sid
            }
            NodeKind::Internal(_) => {
                let children = match &mut self.node_mut(id).kind {
                    NodeKind::Internal(c) => std::mem::take(c),
                    NodeKind::Leaf(_) => unreachable!(),
                };
                let rects: Vec<Rect> = children.iter().map(|c| self.node(*c).mbr).collect();
                let (group_a, group_b) =
                    split::quadratic_split_children(children, rects, self.config.min_entries);
                if let NodeKind::Internal(c) = &mut self.node_mut(id).kind {
                    *c = group_a;
                }
                let mut sibling = Node::new_internal();
                sibling.kind = NodeKind::Internal(group_b);
                let sid = self.alloc(sibling);
                // Fix parent pointers of the children that moved.
                let moved: Vec<NodeId> = match &self.node(sid).kind {
                    NodeKind::Internal(c) => c.clone(),
                    NodeKind::Leaf(_) => unreachable!(),
                };
                for m in moved {
                    self.node_mut(m).parent = Some(sid);
                }
                self.recompute_mbr(id);
                self.recompute_mbr(sid);
                sid
            }
        };

        match self.node(id).parent {
            Some(parent) => {
                self.node_mut(sibling_id).parent = Some(parent);
                if let NodeKind::Internal(children) = &mut self.node_mut(parent).kind {
                    children.push(sibling_id);
                }
                self.recompute_mbr(parent);
                if self.node(parent).len() > self.config.max_entries {
                    self.split_node(parent);
                }
            }
            None => {
                // The root split: create a new root holding both halves.
                let mut new_root = Node::new_internal();
                new_root.kind = NodeKind::Internal(vec![id, sibling_id]);
                let rid = self.alloc(new_root);
                self.node_mut(id).parent = Some(rid);
                self.node_mut(sibling_id).parent = Some(rid);
                self.recompute_mbr(rid);
                self.root = Some(rid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes one entry equal to `(point, data)`. Returns `true` when an
    /// entry was found and removed.
    pub fn remove(&mut self, point: &Point, data: &D) -> bool {
        let Some(root) = self.root else {
            return false;
        };
        let Some(leaf) = self.find_leaf(root, point, data) else {
            return false;
        };
        if let NodeKind::Leaf(entries) = &mut self.node_mut(leaf).kind {
            if let Some(pos) = entries
                .iter()
                .position(|e| e.point == *point && e.data == *data)
            {
                entries.swap_remove(pos);
            } else {
                return false;
            }
        }
        self.len -= 1;
        self.condense(leaf);
        true
    }

    /// Finds the leaf containing an entry equal to `(point, data)` by
    /// descending only into nodes whose MBR contains the point.
    fn find_leaf(&self, from: NodeId, point: &Point, data: &D) -> Option<NodeId> {
        let node = self.node(from);
        if !node.mbr.contains_point(point) {
            return None;
        }
        match &node.kind {
            NodeKind::Leaf(entries) => entries
                .iter()
                .any(|e| e.point == *point && e.data == *data)
                .then_some(from),
            NodeKind::Internal(children) => children
                .iter()
                .find_map(|c| self.find_leaf(*c, point, data)),
        }
    }

    /// Classic condense-tree: walk from the modified leaf to the root,
    /// removing underflowing nodes and collecting their orphaned entries,
    /// then reinsert the orphans and shrink the root if necessary.
    fn condense(&mut self, from: NodeId) {
        let mut orphans: Vec<LeafEntry<D>> = Vec::new();
        let mut cur = from;
        loop {
            let parent = self.node(cur).parent;
            let underflow = self.node(cur).len() < self.config.min_entries;
            match parent {
                Some(p) => {
                    if underflow {
                        // Detach cur from its parent and collect its entries.
                        if let NodeKind::Internal(children) = &mut self.node_mut(p).kind {
                            children.retain(|c| *c != cur);
                        }
                        self.collect_entries(cur, &mut orphans);
                        self.release_subtree(cur);
                    } else {
                        self.recompute_mbr(cur);
                    }
                    cur = p;
                }
                None => {
                    // cur is the root.
                    self.recompute_mbr(cur);
                    break;
                }
            }
        }
        // Shrink the root: an internal root with a single child is replaced
        // by that child; an empty root empties the tree.
        while let Some(root) = self.root {
            match &self.node(root).kind {
                NodeKind::Leaf(entries) => {
                    if entries.is_empty() && orphans.is_empty() {
                        self.release(root);
                        self.root = None;
                    }
                    break;
                }
                NodeKind::Internal(children) => {
                    if children.is_empty() {
                        self.release(root);
                        self.root = None;
                        break;
                    } else if children.len() == 1 {
                        let child = children[0];
                        self.node_mut(child).parent = None;
                        self.release(root);
                        self.root = Some(child);
                    } else {
                        break;
                    }
                }
            }
        }
        // Reinsert orphaned entries.
        for e in orphans {
            self.len -= 1; // insert() will add it back.
            self.insert(e.point, e.data);
        }
    }

    fn collect_entries(&self, from: NodeId, out: &mut Vec<LeafEntry<D>>) {
        match &self.node(from).kind {
            NodeKind::Leaf(entries) => out.extend(entries.iter().cloned()),
            NodeKind::Internal(children) => {
                for c in children {
                    self.collect_entries(*c, out);
                }
            }
        }
    }

    fn release_subtree(&mut self, from: NodeId) {
        let children: Vec<NodeId> = match &self.node(from).kind {
            NodeKind::Internal(c) => c.clone(),
            NodeKind::Leaf(_) => Vec::new(),
        };
        for c in children {
            self.release_subtree(c);
        }
        self.release(from);
    }

    // ------------------------------------------------------------------
    // Invariant checking (used heavily by the test-suite)
    // ------------------------------------------------------------------

    /// Verifies the structural invariants of the tree, returning a
    /// description of the first violation found. Intended for tests and
    /// debugging; cost is O(n).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_invariants_inner(true)
    }

    /// Like [`RTree::check_invariants`] but without the minimum-fill check.
    ///
    /// STR bulk loading can legitimately leave the final leaf of a slice (and
    /// the final node of an internal level) under-filled, so bulk-loaded
    /// trees are validated with this relaxed variant.
    pub fn check_invariants_bulk(&self) -> Result<(), String> {
        self.check_invariants_inner(false)
    }

    fn check_invariants_inner(&self, check_fill: bool) -> Result<(), String> {
        let Some(root) = self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err(format!("empty root but len = {}", self.len))
            };
        };
        if self.node(root).parent.is_some() {
            return Err("root has a parent".into());
        }
        let mut counted = 0usize;
        let mut leaf_depths = Vec::new();
        self.check_node(root, 0, &mut counted, &mut leaf_depths, check_fill)?;
        if counted != self.len {
            return Err(format!("len {} but counted {}", self.len, counted));
        }
        if let (Some(min), Some(max)) = (leaf_depths.iter().min(), leaf_depths.iter().max()) {
            if min != max {
                return Err(format!("leaves at different depths {min} vs {max}"));
            }
        }
        Ok(())
    }

    fn check_node(
        &self,
        id: NodeId,
        depth: usize,
        counted: &mut usize,
        leaf_depths: &mut Vec<usize>,
        check_fill: bool,
    ) -> Result<(), String> {
        let node = self.node(id);
        if !node.live {
            return Err(format!("node {id:?} reachable but not live"));
        }
        let is_root = self.root == Some(id);
        if check_fill && !is_root && node.len() < self.config.min_entries {
            return Err(format!(
                "node {id:?} underflows: {} < {}",
                node.len(),
                self.config.min_entries
            ));
        }
        if node.len() > self.config.max_entries {
            return Err(format!(
                "node {id:?} overflows: {} > {}",
                node.len(),
                self.config.max_entries
            ));
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                leaf_depths.push(depth);
                *counted += entries.len();
                for e in entries {
                    if !node.mbr.contains_point(&e.point) {
                        return Err(format!(
                            "leaf {id:?} MBR does not contain entry {:?}",
                            e.point
                        ));
                    }
                }
                let mut exact = Rect::empty();
                for e in entries {
                    exact.expand_to_point(&e.point);
                }
                if (!is_root || !entries.is_empty()) && exact != node.mbr {
                    return Err(format!("leaf {id:?} MBR is not tight"));
                }
            }
            NodeKind::Internal(children) => {
                if children.is_empty() {
                    return Err(format!("internal node {id:?} has no children"));
                }
                let mut exact = Rect::empty();
                for c in children {
                    let child = self.node(*c);
                    if child.parent != Some(id) {
                        return Err(format!("child {c:?} has wrong parent"));
                    }
                    if !node.mbr.contains_rect(&child.mbr) {
                        return Err(format!("node {id:?} MBR does not contain child {c:?}"));
                    }
                    exact.expand_to_rect(&child.mbr);
                    self.check_node(*c, depth + 1, counted, leaf_depths, check_fill)?;
                }
                if exact != node.mbr {
                    return Err(format!("internal {id:?} MBR is not tight"));
                }
            }
        }
        Ok(())
    }
}

/// A read-only reference to a node of an [`RTree`], exposing exactly the
/// information the RkNNT traversal algorithms need: the node's MBR, whether
/// it is a leaf, its children and its leaf entries.
#[derive(Clone, Copy)]
pub struct NodeRef<'a, D> {
    tree: &'a RTree<D>,
    id: NodeId,
}

impl<'a, D: Clone + PartialEq> NodeRef<'a, D> {
    /// Builds a reference to a node the caller knows to be live (used by the
    /// traversal helpers in `query.rs`).
    pub(crate) fn make(tree: &'a RTree<D>, id: NodeId) -> Self {
        NodeRef { tree, id }
    }

    /// Identifier of this node within the tree arena.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Minimum bounding rectangle of the subtree rooted here.
    pub fn mbr(&self) -> Rect {
        self.tree.node(self.id).mbr
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.tree.node(self.id).is_leaf()
    }

    /// Number of entries (leaf) or children (internal).
    pub fn len(&self) -> usize {
        self.tree.node(self.id).len()
    }

    /// True when the node holds nothing (only possible for an empty root).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` once per child of an internal node (no-op for leaves),
    /// allocating nothing. This is the traversal primitive the query hot
    /// paths use: a caller-owned `Vec<NodeId>` stack plus `for_each_child`
    /// replaces one `Vec<NodeRef>` allocation per node visit.
    #[inline]
    pub fn for_each_child<F: FnMut(NodeRef<'a, D>)>(&self, mut f: F) {
        if let NodeKind::Internal(children) = &self.tree.node(self.id).kind {
            for c in children {
                f(NodeRef {
                    tree: self.tree,
                    id: *c,
                });
            }
        }
    }

    /// Leaf entries of a leaf node (empty slice for internal nodes).
    pub fn entries(&self) -> &'a [LeafEntry<D>] {
        match &self.tree.node(self.id).kind {
            NodeKind::Leaf(entries) => entries,
            NodeKind::Internal(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        // Deterministic pseudo-random scatter without a rand dependency.
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 10_000) as f64 / 10.0;
                let y = ((i * 40503 + 17) % 10_000) as f64 / 10.0;
                Point::new(x, y)
            })
            .collect()
    }

    #[test]
    fn insert_many_keeps_invariants() {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (i, p) in pts(500).into_iter().enumerate() {
            tree.insert(p, i as u32);
            if i % 50 == 0 {
                tree.check_invariants().unwrap();
            }
        }
        assert_eq!(tree.len(), 500);
        tree.check_invariants().unwrap();
        assert!(tree.height() >= 2);
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        let points = pts(200);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i as u32);
        }
        assert!(tree.remove(&points[17], &17));
        assert!(!tree.remove(&points[17], &17), "already removed");
        assert!(!tree.remove(&Point::new(-1.0, -1.0), &9999));
        assert_eq!(tree.len(), 199);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn remove_everything_empties_tree() {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        let points = pts(120);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i as u32);
        }
        for (i, p) in points.iter().enumerate() {
            assert!(tree.remove(p, &(i as u32)), "entry {i} should exist");
            tree.check_invariants().unwrap();
        }
        assert!(tree.is_empty());
        assert!(tree.root().is_none());
    }

    #[test]
    fn duplicate_points_are_supported() {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        let p = Point::new(5.0, 5.0);
        for i in 0..50 {
            tree.insert(p, i);
        }
        assert_eq!(tree.len(), 50);
        tree.check_invariants().unwrap();
        assert!(tree.remove(&p, &25));
        assert!(!tree.remove(&p, &25));
        assert_eq!(tree.len(), 49);
    }

    #[test]
    fn node_ref_navigation_reaches_all_entries() {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (i, p) in pts(300).into_iter().enumerate() {
            tree.insert(p, i as u32);
        }
        let mut stack = vec![tree.root().unwrap()];
        let mut seen = 0;
        while let Some(node) = stack.pop() {
            if node.is_leaf() {
                seen += node.entries().len();
                // Every entry is inside the node MBR.
                for e in node.entries() {
                    assert!(node.mbr().contains_point(&e.point));
                }
            } else {
                assert!(node.entries().is_empty());
                node.for_each_child(|c| {
                    assert!(node.mbr().contains_rect(&c.mbr()));
                    stack.push(c);
                });
            }
        }
        assert_eq!(seen, 300);
    }

    #[test]
    fn node_ref_lookup_by_id() {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::default());
        tree.insert(Point::new(1.0, 1.0), 1);
        let root = tree.root().unwrap();
        let id = root.id();
        assert!(tree.node_ref(id).is_some());
        assert!(tree.node_ref(NodeId::from_index(999)).is_none());
    }
}
