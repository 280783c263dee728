//! The transition journal: a bounded, append-only ring of the transition
//! arrivals and expiries the stores accepted, numbered by sequence.
//!
//! By Definition 5 a transition's membership in `RkNNT(Q)` depends only on
//! its own two endpoints and the route set. Between two route changes a
//! computed result therefore stays exact under transition churn by applying
//! each arrival / expiry to it individually ([`EntryRegion::replay`]) — there
//! is nothing to recompute. The update path only *appends* here (O(1),
//! whatever the cache holds); a cached result remembers the sequence it is
//! current to and replays the suffix when it is next read
//! ([`crate::ResultCache::get`]). Subscriptions apply the same op eagerly, in
//! place.
//!
//! [`EntryRegion::replay`]: crate::EntryRegion::replay

use rknnt_geo::Point;
use rknnt_index::TransitionId;
use std::collections::VecDeque;

/// How many ops the ring keeps. An entry that falls further behind is
/// dropped at its next read and recomputed, so the bound caps what a hit can
/// cost: replaying an arrival is a certificate scan or one admission check
/// (0.2–0.45 µs measured on the benchmark's 260-route city), an expiry a
/// binary search (≈ 0.02 µs), so a hit that replays a full ring of arrivals
/// costs 0.23–0.37 ms where an uncached execution costs 0.75–1.1 ms.
pub const JOURNAL_CAPACITY: usize = 1_024;

/// One journalled store mutation, carrying everything replay needs (the
/// transition may have expired again by the time the op is replayed, so the
/// endpoints travel with the arrival).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TransitionOp {
    /// The transition `id` arrived with these endpoints.
    Arrived {
        /// The (global) id the stores assigned.
        id: TransitionId,
        /// Origin endpoint.
        origin: Point,
        /// Destination endpoint.
        destination: Point,
    },
    /// The transition `id` expired.
    Expired(TransitionId),
}

/// The ring itself; see the module documentation.
#[derive(Debug)]
pub(crate) struct Journal {
    ops: VecDeque<TransitionOp>,
    /// Sequence number of the next op: the count of ops ever appended.
    head: u64,
    capacity: usize,
}

impl Journal {
    /// A ring keeping the last `capacity` (at least 1) ops.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Journal {
            ops: VecDeque::new(),
            head: 0,
            capacity,
        }
    }

    /// The sequence a result computed against the current stores is current
    /// to.
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    pub(crate) fn push(&mut self, op: TransitionOp) {
        if self.ops.len() == self.capacity {
            self.ops.pop_front();
        }
        self.ops.push_back(op);
        self.head += 1;
    }

    /// The ops with sequence `seq..head`, oldest first, or `None` when the
    /// ring no longer holds all of them.
    pub(crate) fn since(&self, seq: u64) -> Option<impl Iterator<Item = &TransitionOp>> {
        let behind = usize::try_from(self.head - seq).ok()?;
        let start = self.ops.len().checked_sub(behind)?;
        Some(self.ops.range(start..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u32) -> TransitionOp {
        TransitionOp::Expired(TransitionId(id))
    }

    fn ids(journal: &Journal, seq: u64) -> Option<Vec<u32>> {
        journal.since(seq).map(|ops| {
            ops.map(|op| match op {
                TransitionOp::Expired(id) => id.raw(),
                TransitionOp::Arrived { id, .. } => id.raw(),
            })
            .collect()
        })
    }

    #[test]
    fn suffixes_are_exact_until_the_ring_overwrites_them() {
        let mut journal = Journal::with_capacity(4);
        assert_eq!(ids(&journal, 0), Some(vec![]));
        for i in 0..4 {
            journal.push(op(i));
        }
        assert_eq!(journal.head(), 4);
        assert_eq!(ids(&journal, 0), Some(vec![0, 1, 2, 3]));
        assert_eq!(ids(&journal, 3), Some(vec![3]));
        assert_eq!(ids(&journal, 4), Some(vec![]));
        // The fifth op overwrites sequence 0: a reader current to 0 is lost,
        // one current to 1 sits exactly on the tail and is still served.
        journal.push(op(4));
        assert_eq!(ids(&journal, 0), None);
        assert_eq!(ids(&journal, 1), Some(vec![1, 2, 3, 4]));
        assert_eq!(ids(&journal, 5), Some(vec![]));
    }
}
