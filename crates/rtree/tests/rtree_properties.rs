//! Property-based tests for the R-tree substrate: the tree must behave like
//! a plain multiset of points under insert/remove and its queries must agree
//! with linear scans.

use proptest::prelude::*;
use rknnt_geo::{Point, Rect};
use rknnt_rtree::{RTree, RTreeConfig};

fn pt() -> impl Strategy<Value = Point> {
    (-500.0f64..500.0, -500.0f64..500.0).prop_map(|(x, y)| Point::new(x, y))
}

/// A point list where coordinates are drawn from a small lattice too, so
/// duplicates and collinear layouts get exercised.
fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop_oneof![
            pt(),
            (-5i32..5, -5i32..5).prop_map(|(x, y)| Point::new(x as f64, y as f64)),
        ],
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after any sequence of inserts, and the tree contains
    /// exactly the inserted multiset.
    #[test]
    fn inserts_preserve_invariants(ps in points(300)) {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (i, p) in ps.iter().enumerate() {
            tree.insert(*p, i as u32);
        }
        prop_assert_eq!(tree.len(), ps.len());
        prop_assert!(tree.check_invariants().is_ok());
        let mut ids = Vec::new();
        tree.for_each_entry(|e| ids.push(e.data));
        ids.sort_unstable();
        let expected: Vec<u32> = (0..ps.len() as u32).collect();
        prop_assert_eq!(ids, expected);
    }

    /// Range queries agree with a linear scan.
    #[test]
    fn range_agrees_with_scan(ps in points(300), a in pt(), b in pt()) {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (i, p) in ps.iter().enumerate() {
            tree.insert(*p, i as u32);
        }
        let rect = Rect::new(a, b);
        let mut got = Vec::new();
        tree.for_each_in(&rect, |e| got.push(e.data));
        got.sort_unstable();
        let mut expected: Vec<u32> = ps
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// kNN distances agree with a sorted linear scan (payload ties may be
    /// returned in any order, so distances are compared).
    #[test]
    fn knn_agrees_with_scan(ps in points(200), q in pt(), k in 1usize..20) {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (i, p) in ps.iter().enumerate() {
            tree.insert(*p, i as u32);
        }
        let got = tree.knn(&q, k);
        let mut dists: Vec<f64> = ps.iter().map(|p| p.distance(&q)).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(got.len(), k.min(ps.len()));
        for (i, r) in got.iter().enumerate() {
            prop_assert!((r.distance - dists[i]).abs() < 1e-9);
        }
    }

    /// Removing a random subset leaves exactly the complement, with
    /// invariants intact throughout.
    #[test]
    fn removals_preserve_contents(ps in points(200), seed in any::<u64>()) {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (i, p) in ps.iter().enumerate() {
            tree.insert(*p, i as u32);
        }
        // Deterministically choose which ids to remove from the seed.
        let keep_mask: Vec<bool> = (0..ps.len())
            .map(|i| (seed.rotate_left((i % 63) as u32) ^ i as u64) & 1 == 0)
            .collect();
        for (i, p) in ps.iter().enumerate() {
            if !keep_mask[i] {
                prop_assert!(tree.remove(p, &(i as u32)));
            }
        }
        prop_assert!(tree.check_invariants().is_ok());
        let mut ids = Vec::new();
        tree.for_each_entry(|e| ids.push(e.data));
        ids.sort_unstable();
        let mut expected: Vec<u32> = (0..ps.len())
            .filter(|i| keep_mask[*i])
            .map(|i| i as u32)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(ids, expected);
    }

    /// Random *interleavings* of insert and remove, checked step by step
    /// against a linear-scan oracle for `range` and `nearest` — the churn
    /// shape the dynamic stores drive, which exercises underflow handling,
    /// orphan reinsertion and root collapse between queries rather than
    /// only at the end.
    #[test]
    fn interleaved_insert_remove_agree_with_oracle(
        ps in points(120),
        ops in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..240),
        probe in pt(),
        a in pt(),
        b in pt(),
    ) {
        let mut tree: RTree<u32> = RTree::new(RTreeConfig::new(6, 2));
        let mut oracle: Vec<(Point, u32)> = Vec::new();
        let mut next_id = 0u32;
        let rect = Rect::new(a, b);
        for (is_insert, which) in &ops {
            if *is_insert || oracle.is_empty() {
                let p = ps[which.index(ps.len())];
                tree.insert(p, next_id);
                oracle.push((p, next_id));
                next_id += 1;
            } else {
                let victim = which.index(oracle.len());
                let (p, id) = oracle.swap_remove(victim);
                prop_assert!(tree.remove(&p, &id), "oracle entry {id} missing");
                // A second removal of the same entry must fail.
                prop_assert!(!tree.remove(&p, &id));
            }
            prop_assert_eq!(tree.len(), oracle.len());
            tree.check_invariants().unwrap();

            // range agrees with the oracle scan.
            let mut got = Vec::new();
            tree.for_each_in(&rect, |e| got.push(e.data));
            got.sort_unstable();
            let mut expected: Vec<u32> = oracle
                .iter()
                .filter(|(p, _)| rect.contains_point(p))
                .map(|(_, id)| *id)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);

            // nearest agrees with the oracle minimum (distances compare
            // exactly: both sides use the same Point::distance arithmetic).
            let nearest = tree.nearest(&probe);
            let oracle_min = oracle
                .iter()
                .map(|(p, _)| p.distance(&probe))
                .fold(f64::INFINITY, f64::min);
            match nearest {
                Some(hit) => prop_assert_eq!(hit.distance, oracle_min),
                None => prop_assert!(oracle.is_empty()),
            }
        }
        // Drain everything: the tree must collapse back to empty.
        for (p, id) in oracle.drain(..) {
            prop_assert!(tree.remove(&p, &id));
            tree.check_invariants().unwrap();
        }
        prop_assert!(tree.is_empty());
        prop_assert!(tree.nearest(&probe).is_none());
    }

    /// Bulk loading and incremental insertion produce trees with identical
    /// contents and identical query answers.
    #[test]
    fn bulk_load_equivalent_to_inserts(ps in points(300), q in pt(), k in 1usize..10) {
        let items: Vec<(Point, u32)> = ps.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect();
        let bulk = RTree::bulk_load(RTreeConfig::new(8, 3), items.clone());
        let mut incr: RTree<u32> = RTree::new(RTreeConfig::new(8, 3));
        for (p, d) in &items {
            incr.insert(*p, *d);
        }
        prop_assert!(bulk.check_invariants_bulk().is_ok());
        prop_assert_eq!(bulk.len(), incr.len());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bulk.for_each_entry(|e| a.push(e.data));
        incr.for_each_entry(|e| b.push(e.data));
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        let ka = bulk.knn(&q, k);
        let kb = incr.knn(&q, k);
        prop_assert_eq!(ka.len(), kb.len());
        for (x, y) in ka.iter().zip(kb.iter()) {
            prop_assert!((x.distance - y.distance).abs() < 1e-9);
        }
    }
}
