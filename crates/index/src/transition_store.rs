//! The transition store: TR-tree over transition endpoints.

use crate::ids::TransitionId;
use crate::types::{EndpointKind, Transition};
use rknnt_geo::Point;
use rknnt_rtree::{RTree, RTreeConfig};
use serde::{Deserialize, Serialize};

/// Payload of a TR-tree leaf entry: which transition the point belongs to
/// and whether it is the origin or the destination endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransitionEndpoint {
    /// Transition the endpoint belongs to.
    pub transition: TransitionId,
    /// Origin or destination.
    pub kind: EndpointKind,
}

/// The transition store: owns the transitions and the TR-tree over their
/// endpoints (two entries per transition).
///
/// Transition data is dynamic — "old transitions expire and new transitions
/// arrive" — so both [`TransitionStore::insert`] and
/// [`TransitionStore::remove`] are first-class operations that keep the
/// TR-tree in sync.
#[derive(Debug, Clone)]
pub struct TransitionStore {
    transitions: Vec<Option<Transition>>,
    rtree: RTree<TransitionEndpoint>,
    live: usize,
}

impl Default for TransitionStore {
    fn default() -> Self {
        Self::new(RTreeConfig::default())
    }
}

impl TransitionStore {
    /// Creates an empty store whose TR-tree uses the given fan-out.
    pub fn new(config: RTreeConfig) -> Self {
        TransitionStore {
            transitions: Vec::new(),
            rtree: RTree::new(config),
            live: 0,
        }
    }

    /// Builds a store from `(origin, destination)` pairs, bulk-loading the
    /// TR-tree. Pairs with non-finite coordinates are skipped.
    pub fn bulk_build(config: RTreeConfig, pairs: Vec<(Point, Point)>) -> Self {
        let mut store = TransitionStore::new(config);
        let mut items = Vec::with_capacity(pairs.len() * 2);
        for (origin, destination) in pairs {
            if !origin.is_finite() || !destination.is_finite() {
                continue;
            }
            let id = TransitionId(store.transitions.len() as u32);
            store
                .transitions
                .push(Some(Transition::new(id, origin, destination)));
            store.live += 1;
            items.push((
                origin,
                TransitionEndpoint {
                    transition: id,
                    kind: EndpointKind::Origin,
                },
            ));
            items.push((
                destination,
                TransitionEndpoint {
                    transition: id,
                    kind: EndpointKind::Destination,
                },
            ));
        }
        store.rtree = RTree::bulk_load(config, items);
        store
    }

    /// Inserts a new transition and returns its id, or `None` when either
    /// endpoint has a non-finite coordinate (NaN/±inf points would poison
    /// TR-tree MBRs and the strict geometric predicates, so they are
    /// rejected at the store boundary without mutating anything).
    pub fn insert(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        if !origin.is_finite() || !destination.is_finite() {
            return None;
        }
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions
            .push(Some(Transition::new(id, origin, destination)));
        self.live += 1;
        self.rtree.insert(
            origin,
            TransitionEndpoint {
                transition: id,
                kind: EndpointKind::Origin,
            },
        );
        self.rtree.insert(
            destination,
            TransitionEndpoint {
                transition: id,
                kind: EndpointKind::Destination,
            },
        );
        Some(id)
    }

    /// Removes a transition (e.g. an expired passenger request). Returns
    /// `false` when the id is unknown or already removed.
    pub fn remove(&mut self, id: TransitionId) -> bool {
        let Some(slot) = self.transitions.get_mut(id.index()) else {
            return false;
        };
        let Some(t) = slot.take() else {
            return false;
        };
        self.live -= 1;
        self.rtree.remove(
            &t.origin,
            &TransitionEndpoint {
                transition: id,
                kind: EndpointKind::Origin,
            },
        );
        self.rtree.remove(
            &t.destination,
            &TransitionEndpoint {
                transition: id,
                kind: EndpointKind::Destination,
            },
        );
        true
    }

    /// The transition with the given id, if still present.
    pub fn get(&self, id: TransitionId) -> Option<&Transition> {
        self.transitions.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over live transitions.
    pub fn transitions(&self) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter_map(Option::as_ref)
    }

    /// Ids of all live transitions.
    pub fn transition_ids(&self) -> Vec<TransitionId> {
        self.transitions().map(|t| t.id).collect()
    }

    /// Number of live transitions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The TR-tree over endpoints. Leaf payloads are [`TransitionEndpoint`]s.
    pub fn rtree(&self) -> &RTree<TransitionEndpoint> {
        &self.rtree
    }

    /// Exports the full logical state of the store, including the `None`
    /// slots of expired transitions (id assignment depends on slot count).
    /// The TR-tree is rebuilt deterministically by
    /// [`TransitionStore::from_state`], not serialized.
    pub fn export_state(&self) -> TransitionStoreState {
        TransitionStoreState {
            config: self.rtree.config(),
            transitions: self.transitions.clone(),
        }
    }

    /// Reconstructs a store from an exported state, validating ids and
    /// coordinates so a decoded-from-disk state can never panic the store.
    /// The TR-tree is bulk-loaded over live endpoints in ascending
    /// transition-id order (origin before destination).
    pub fn from_state(state: TransitionStoreState) -> Result<Self, String> {
        let TransitionStoreState {
            config,
            transitions,
        } = state;
        let mut items = Vec::new();
        let mut live = 0usize;
        for (i, slot) in transitions.iter().enumerate() {
            let Some(t) = slot else { continue };
            if t.id.index() != i {
                return Err(format!("transition slot {i} holds id {}", t.id));
            }
            if !t.origin.is_finite() || !t.destination.is_finite() {
                return Err(format!("transition {} has non-finite endpoints", t.id));
            }
            live += 1;
            items.push((
                t.origin,
                TransitionEndpoint {
                    transition: t.id,
                    kind: EndpointKind::Origin,
                },
            ));
            items.push((
                t.destination,
                TransitionEndpoint {
                    transition: t.id,
                    kind: EndpointKind::Destination,
                },
            ));
        }
        Ok(TransitionStore {
            transitions,
            rtree: RTree::bulk_load(config, items),
            live,
        })
    }
}

/// The full logical state of a [`TransitionStore`], as exported by
/// [`TransitionStore::export_state`]: the plain-data mirror the storage
/// engine's snapshot codec serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionStoreState {
    /// Fan-out configuration of the TR-tree.
    pub config: RTreeConfig,
    /// Transition slots in id order; `None` marks an expired transition
    /// whose id stays consumed.
    pub transitions: Vec<Option<Transition>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut store = TransitionStore::default();
        let a = store.insert(p(0.0, 0.0), p(5.0, 5.0)).unwrap();
        let b = store.insert(p(1.0, 1.0), p(6.0, 6.0)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.rtree().len(), 4, "two endpoints per transition");
        assert_eq!(store.get(a).unwrap().origin, p(0.0, 0.0));
        assert!(store.remove(a));
        assert!(!store.remove(a));
        assert_eq!(store.len(), 1);
        assert_eq!(store.rtree().len(), 2);
        assert!(store.get(a).is_none());
        assert!(store.get(b).is_some());
        assert_eq!(store.transition_ids(), vec![b]);
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let pairs: Vec<(Point, Point)> = (0..100)
            .map(|i| {
                (
                    p(i as f64, (i * 7 % 13) as f64),
                    p((i * 3 % 29) as f64, i as f64 / 2.0),
                )
            })
            .collect();
        let bulk = TransitionStore::bulk_build(RTreeConfig::default(), pairs.clone());
        let mut incr = TransitionStore::default();
        for (o, d) in pairs {
            incr.insert(o, d).unwrap();
        }
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(bulk.rtree().len(), incr.rtree().len());
        assert_eq!(bulk.rtree().len(), 200);
        // Same nearest endpoint for an arbitrary probe.
        let probe = p(17.0, 4.0);
        let nb = bulk.rtree().nearest(&probe).unwrap();
        let ni = incr.rtree().nearest(&probe).unwrap();
        assert!((nb.distance - ni.distance).abs() < 1e-9);
    }

    #[test]
    fn non_finite_endpoints_are_rejected_at_the_boundary() {
        let mut store = TransitionStore::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(store.insert(p(bad, 0.0), p(1.0, 1.0)).is_none());
            assert!(store.insert(p(0.0, 0.0), p(1.0, bad)).is_none());
        }
        assert!(store.is_empty());
        assert!(store.rtree().is_empty());
        // Ids are only consumed by accepted inserts.
        let id = store.insert(p(0.0, 0.0), p(1.0, 1.0)).unwrap();
        assert_eq!(id, TransitionId(0));
        // bulk_build silently skips non-finite pairs.
        let bulk = TransitionStore::bulk_build(
            RTreeConfig::default(),
            vec![
                (p(0.0, 0.0), p(1.0, 1.0)),
                (p(f64::NAN, 0.0), p(1.0, 1.0)),
                (p(0.0, 0.0), p(f64::INFINITY, 1.0)),
            ],
        );
        assert_eq!(bulk.len(), 1);
        assert_eq!(bulk.rtree().len(), 2);
    }

    #[test]
    fn degenerate_transition_same_origin_destination() {
        let mut store = TransitionStore::default();
        let id = store.insert(p(2.0, 2.0), p(2.0, 2.0)).unwrap();
        assert_eq!(store.rtree().len(), 2);
        assert!(store.remove(id));
        assert!(store.rtree().is_empty());
        assert!(store.is_empty());
    }
}
