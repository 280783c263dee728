//! Partition-aware bulk build: split the global transition set into
//! per-shard stores while keeping the *global* id space authoritative.
//!
//! A global transition id is a slot index in exactly the numbering the
//! unsharded [`TransitionStore`] would assign (invalid pairs consume no id,
//! expired transitions keep theirs). [`partition_transitions`] hands each
//! live slot to the shard an assignment function picks. Each shard gets its
//! own dense *local* id space — its store is a plain [`TransitionStore`]
//! that knows nothing about sharding — an [`IdSpace`] records the
//! local→global mapping so per-shard results can be merged back into global
//! terms, and the directory of [`Placement`]s answers the reverse question.
//! [`partition_by_origin_cell`] is the one spatial layout the sharded
//! services use: each transition goes to the shard owning its origin's
//! Z-order cell.
//! Routes are never partitioned: every filter and every verification is
//! defined over the complete route set.

use crate::transition_store::TransitionStore;
use rknnt_geo::{CellGrid, Point, Rect};
use rknnt_rtree::RTreeConfig;

/// A shard's local→global id mapping: local slot `i` (dense, in insertion
/// order) corresponds to global raw id `l2g[i]`.
///
/// The sequence is strictly increasing — shards receive items in global id
/// order — so global→local lookups are a binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdSpace {
    l2g: Vec<u32>,
}

impl IdSpace {
    /// An empty id space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of local slots mapped.
    pub fn len(&self) -> usize {
        self.l2g.len()
    }

    /// Whether no slot is mapped yet.
    pub fn is_empty(&self) -> bool {
        self.l2g.is_empty()
    }

    /// Appends the next local slot, mapping it to global raw id `global`.
    /// Panics if `global` does not extend the strictly increasing sequence.
    pub fn push(&mut self, global: u32) {
        if let Some(&last) = self.l2g.last() {
            assert!(global > last, "global ids must arrive in increasing order");
        }
        self.l2g.push(global);
    }

    /// Global raw id of local slot `local`, if mapped.
    pub fn to_global(&self, local: u32) -> Option<u32> {
        self.l2g.get(local as usize).copied()
    }

    /// Local slot of global raw id `global`, if this shard owns it.
    pub fn to_local(&self, global: u32) -> Option<u32> {
        self.l2g.binary_search(&global).ok().map(|i| i as u32)
    }

    /// The full local→global table.
    pub fn as_slice(&self) -> &[u32] {
        &self.l2g
    }
}

/// Where a global transition id lives: local slot `local` of shard `shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the owning shard.
    pub shard: u32,
    /// The id's dense local slot in that shard's store.
    pub local: u32,
}

/// Output of [`partition_transitions`]: one store + id space per shard,
/// plus the global directory.
#[derive(Debug)]
pub struct TransitionPartition {
    /// Per-shard transition stores, locally dense.
    pub stores: Vec<TransitionStore>,
    /// Per-shard local→global id spaces.
    pub spaces: Vec<IdSpace>,
    /// Placement of each *global* transition id, indexed by raw id; `None`
    /// for a dead slot (its id stays consumed, no shard holds it).
    pub directory: Vec<Option<Placement>>,
}

/// Splits the global transition `slots` across `shards` stores by `assign`.
/// Slot `i` is global id `i`: a live slot goes to the shard `assign` picks
/// (clamped to the last shard) and gets that shard's next dense local id, so
/// every shard receives its transitions in global id order; a `None` slot —
/// an expired transition — consumes its global id and is placed nowhere.
/// Live endpoints must be finite (callers drop invalid raw pairs *before*
/// numbering them, exactly like [`TransitionStore::bulk_build`] does).
pub fn partition_transitions<F>(
    config: RTreeConfig,
    slots: impl IntoIterator<Item = Option<(Point, Point)>>,
    shards: usize,
    assign: F,
) -> TransitionPartition
where
    F: Fn(&Point, &Point) -> usize,
{
    let shards = shards.max(1);
    let mut per_shard: Vec<Vec<(Point, Point)>> = vec![Vec::new(); shards];
    let mut spaces = vec![IdSpace::new(); shards];
    let mut directory = Vec::new();
    for (global, slot) in slots.into_iter().enumerate() {
        directory.push(slot.map(|(origin, destination)| {
            assert!(
                origin.is_finite() && destination.is_finite(),
                "live transition slot {global} has a non-finite endpoint"
            );
            let shard = assign(&origin, &destination).min(shards - 1);
            let local = spaces[shard].len() as u32;
            spaces[shard].push(global as u32);
            per_shard[shard].push((origin, destination));
            Placement {
                shard: shard as u32,
                local,
            }
        }));
    }
    let stores = per_shard
        .into_iter()
        .map(|list| TransitionStore::bulk_build(config, list))
        .collect();
    TransitionPartition {
        stores,
        spaces,
        directory,
    }
}

/// [`partition_transitions`] by Z-order cell of the origin: a [`CellGrid`]
/// with `grid_bits` bits per axis is laid over the MBR of the finite
/// `extent` points — every point of the data, routes included — or over the
/// unit square when there is none, and each live slot goes to the shard
/// owning its origin's cell. Returns the grid with the partition.
pub fn partition_by_origin_cell<'a>(
    config: RTreeConfig,
    extent: impl IntoIterator<Item = &'a Point>,
    grid_bits: u32,
    slots: impl IntoIterator<Item = Option<(Point, Point)>>,
    shards: usize,
) -> (CellGrid, TransitionPartition) {
    let mut mbr = Rect::empty();
    // `for_each`, not a `for` loop: internal iteration runs each part of a
    // chained, flattened extent as a plain loop of its own.
    extent
        .into_iter()
        .filter(|p| p.is_finite())
        .for_each(|p| mbr.expand_to_point(p));
    if mbr.is_empty() {
        mbr = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
    }
    let grid = CellGrid::new(mbr, grid_bits);
    let shards = shards.max(1);
    let partition = partition_transitions(config, slots, shards, |origin, _| {
        grid.shard_of_point(origin, shards)
    });
    (grid, partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TransitionId;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn id_space_round_trips_and_binary_searches() {
        let mut space = IdSpace::new();
        for g in [2u32, 5, 9] {
            space.push(g);
        }
        assert_eq!(space.len(), 3);
        assert_eq!(space.to_global(1), Some(5));
        assert_eq!(space.to_local(9), Some(2));
        assert_eq!(space.to_local(3), None);
        assert_eq!(space.to_global(7), None);
    }

    #[test]
    fn transitions_partition_preserves_global_id_order() {
        let config = RTreeConfig::new(8, 3);
        let slots = vec![
            Some((p(0.0, 0.0), p(1.0, 1.0))),
            None, // expired: id 1 stays consumed
            Some((p(10.0, 0.0), p(12.0, 1.0))),
            Some((p(3.0, 0.0), p(2.0, 1.0))),
        ];
        let part = partition_transitions(config, slots, 2, |o, _| usize::from(o.x >= 5.0));
        let at = |shard, local| Some(Placement { shard, local });
        assert_eq!(part.directory, vec![at(0, 0), None, at(1, 0), at(0, 1)]);
        assert_eq!(part.spaces[0].as_slice(), &[0, 3]);
        assert_eq!(part.spaces[1].as_slice(), &[2]);
        assert_eq!(part.stores[0].len(), 2);
        assert_eq!(part.stores[1].len(), 1);
        // The per-shard stores hold exactly their slices, locally dense.
        let moved = part.stores[0].get(TransitionId(1)).unwrap();
        assert_eq!(
            (moved.origin, moved.destination),
            (p(3.0, 0.0), p(2.0, 1.0))
        );
    }

    #[test]
    fn assignment_out_of_range_clamps_to_last_shard() {
        let config = RTreeConfig::new(8, 3);
        let slots = vec![Some((p(0.0, 0.0), p(1.0, 0.0)))];
        let part = partition_transitions(config, slots, 2, |_, _| 99);
        assert_eq!(part.directory[0].map(|at| at.shard), Some(1));
    }
}
