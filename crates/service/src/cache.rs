//! The seeded-hash LRU result cache.
//!
//! Keyed on the *exact* query — route coordinates (bit-compared), `k` and
//! semantics — so a hit returns precisely the result the engines would
//! recompute. The hash function is FNV-1a seeded from the service
//! configuration rather than `std`'s per-process `RandomState`: repeated runs
//! of the same workload then touch the same buckets in the same order, which
//! keeps the throughput experiments reproducible; the seed remains
//! configurable so a deployment can still pick its own.
//!
//! Recency is tracked with an intrusive doubly-linked list over a slot
//! arena, giving O(1) lookup, touch, insert and eviction.
//!
//! Entries follow transition churn instead of being evicted by it: the cache
//! owns the [`crate::journal`] ring the update path appends arrivals and
//! expiries to, every entry remembers its query and the journal sequence it
//! is current to, and a lookup replays the suffix into the entry before
//! returning it. A route change keeps the entries too
//! ([`ResultCache::route_changed`]): each catches up on the journal, then
//! takes the route change's own step — an insert re-judges the members the
//! new route comes strictly closer to
//! ([`crate::journal::recheck_members`]), a removal admits from the
//! removed route's RkNNT answer ([`crate::journal::admit_candidates`]).
//! Only LRU pressure and falling off the ring drop entries.

use crate::journal::{replay, Journal, TransitionOp, JOURNAL_CAPACITY};
use rknnt_core::{QueryScratch, RknntQuery, RknntResult, Semantics};
use rknnt_index::{RouteStore, TransitionId};
use rknnt_obs::Counter;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// A query route as coordinate bit patterns — the exact-identity form shared
/// by the cache key, the coalescing key and the filter-sharing key. Bit
/// comparison (rather than `f64` equality) keeps it `Eq + Hash` and treats
/// `-0.0 != 0.0` / NaNs conservatively — a miss costs a recomputation, never
/// a wrong answer.
pub(crate) fn route_bits(route: &[rknnt_geo::Point]) -> Vec<(u64, u64)> {
    route
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Exact-match cache key: query route as coordinate bit patterns
/// (`route_bits`), `k` and semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    route_bits: Vec<(u64, u64)>,
    k: usize,
    semantics: Semantics,
}

impl CacheKey {
    /// Builds the key for a query.
    pub fn of(query: &RknntQuery) -> Self {
        CacheKey {
            route_bits: route_bits(&query.route),
            k: query.k,
            semantics: query.semantics,
        }
    }
}

/// FNV-1a, with the service's seed folded into the initial state.
pub struct SeededHasher(u64);

impl Hasher for SeededHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// `BuildHasher` producing [`SeededHasher`]s from a fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct SeededState(u64);

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher(0xcbf29ce484222325 ^ self.0)
    }
}

/// Monotonic counters exposed for observability and asserted by the
/// cache tests. A plain-value copy of the cache's [`CacheCounters`] cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results stored.
    pub insertions: u64,
    /// Results evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries dropped at a lookup or a route change because the journal
    /// no longer reached back to them.
    pub targeted_evictions: u64,
}

/// The atomic counter cells the cache increments in place of ad-hoc struct
/// fields. The service registers these cells with its metrics registry, so
/// cache activity shows up in every snapshot without extra plumbing; a
/// standalone cache gets unregistered cells.
#[derive(Debug, Clone, Default)]
pub struct CacheCounters {
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Results stored.
    pub insertions: Counter,
    /// LRU evictions.
    pub evictions: Counter,
    /// Entries dropped for falling off the journal.
    pub targeted_evictions: Counter,
}

struct Slot {
    key: CacheKey,
    /// The query `value` answers, which replay judges arrivals against.
    query: RknntQuery,
    value: RknntResult,
    /// Journal sequence `value` is current to.
    seq: u64,
    prev: usize,
    next: usize,
}

/// The LRU cache itself. Not internally synchronised — the service wraps it
/// in a `Mutex` (lookups are microseconds against engine executions of
/// milliseconds, so a single lock is not the bottleneck at this scale).
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, usize, SeededState>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    counters: CacheCounters,
    journal: Journal,
    /// Scratch of the admission checks replay runs; guarded, like
    /// everything here, by whatever guards the cache.
    scratch: QueryScratch,
}

impl ResultCache {
    /// A cache holding at most `capacity` results. Capacity 0 disables
    /// storage (every lookup misses). Counts into fresh, unregistered cells.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self::with_counters(capacity, seed, CacheCounters::default())
    }

    /// A cache counting into the given (typically registry-owned) cells.
    pub fn with_counters(capacity: usize, seed: u64, counters: CacheCounters) -> Self {
        ResultCache {
            capacity,
            map: HashMap::with_hasher(SeededState(seed)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            counters,
            journal: Journal::with_capacity(JOURNAL_CAPACITY),
            scratch: QueryScratch::new(),
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            insertions: self.counters.insertions.get(),
            evictions: self.counters.evictions.get(),
            targeted_evictions: self.counters.targeted_evictions.get(),
        }
    }

    /// Journals one transition arrival or expiry the stores accepted. O(1):
    /// no entry is touched until it is next read.
    pub(crate) fn record(&mut self, op: TransitionOp) {
        self.journal.push(op);
    }

    /// Replays the journal suffix the entry in `slot` has not seen into it.
    /// `false` when the ring no longer holds that suffix — the entry cannot
    /// be made current and must be dropped.
    fn catch_up(&mut self, slot: usize, routes: &RouteStore) -> bool {
        let entry = &mut self.slots[slot];
        let head = self.journal.head();
        if entry.seq == head {
            return true;
        }
        let Some(ops) = self.journal.since(entry.seq) else {
            return false;
        };
        for op in ops {
            replay(
                &entry.query,
                &mut entry.value.transitions,
                op,
                routes,
                &mut self.scratch,
            );
        }
        entry.value.stats.result_transitions = entry.value.transitions.len();
        entry.seq = head;
        true
    }

    /// Looks up a query, refreshing its recency on a hit. The entry is
    /// first brought current with the transition journal against `routes`
    /// (the current route set); one the ring no longer reaches is dropped
    /// and the lookup is a miss.
    pub fn get(&mut self, key: &CacheKey, routes: &RouteStore) -> Option<RknntResult> {
        let found = self.get_resident(key, routes);
        if found.is_none() {
            self.counters.misses.inc();
        }
        found
    }

    /// [`ResultCache::get`] without the miss count, for a caller that
    /// counts misses itself: a [`crate::Service`] may look one query up
    /// twice — alone ([`crate::Service::lookup`]), then in the batch that
    /// answers the miss — and counts that miss once.
    pub fn get_resident(&mut self, key: &CacheKey, routes: &RouteStore) -> Option<RknntResult> {
        let slot = self.map.get(key).copied()?;
        if !self.catch_up(slot, routes) {
            self.remove(slot);
            self.counters.targeted_evictions.inc();
            return None;
        }
        self.counters.hits.inc();
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Stores `query`'s result, computed against the current stores,
    /// evicting the least recently used entry when full.
    pub fn insert(&mut self, key: CacheKey, query: &RknntQuery, value: RknntResult) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.journal.head();
        if let Some(slot) = self.map.get(&key).copied() {
            // Same query computed twice (e.g. two concurrent batches):
            // refresh the value and recency.
            self.slots[slot].value = value;
            self.slots[slot].seq = seq;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let entry = Slot {
            key: key.clone(),
            query: query.clone(),
            value,
            seq,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        self.counters.insertions.inc();
    }

    /// Keeps every entry exact across one route insert or removal, `routes`
    /// being the post-change route set: each entry first catches up on the
    /// journal — one the ring no longer reaches is dropped, as at a lookup —
    /// then `follow` takes the change's own step on its query and sorted
    /// ids ([`crate::journal::recheck_members`] or
    /// [`crate::journal::admit_candidates`]) with the cache's scratch. No
    /// lookup is counted.
    pub(crate) fn route_changed(
        &mut self,
        routes: &RouteStore,
        mut follow: impl FnMut(&RknntQuery, &mut Vec<TransitionId>, &mut QueryScratch),
    ) {
        let mut slot = self.head;
        while slot != NIL {
            let next = self.slots[slot].next;
            if self.catch_up(slot, routes) {
                let entry = &mut self.slots[slot];
                let value = &mut entry.value;
                follow(&entry.query, &mut value.transitions, &mut self.scratch);
                value.stats.result_transitions = value.transitions.len();
            } else {
                self.remove(slot);
                self.counters.targeted_evictions.inc();
            }
            slot = next;
        }
    }

    /// The largest `k` of a cached non-degenerate query; 0 when there is
    /// none.
    pub(crate) fn max_k(&self) -> usize {
        self.map
            .values()
            .map(|&slot| &self.slots[slot].query)
            .filter(|query| !query.is_degenerate())
            .map(|query| query.k)
            .max()
            .unwrap_or(0)
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        if victim == NIL {
            return;
        }
        self.remove(victim);
        self.counters.evictions.inc();
    }

    /// Unlinks a live slot and frees it.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        self.map.remove(&self.slots[slot].key);
        self.free.push(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;
    use rknnt_index::TransitionId;

    fn query(x: f64, k: usize) -> RknntQuery {
        RknntQuery::exists(vec![Point::new(x, 0.0), Point::new(x, 10.0)], k)
    }

    fn routes() -> RouteStore {
        RouteStore::default()
    }

    fn result(id: u32) -> RknntResult {
        RknntResult {
            transitions: vec![TransitionId(id)],
            ..RknntResult::default()
        }
    }

    /// Caches `result(id)` as the answer to `query`.
    fn put(cache: &mut ResultCache, query: &RknntQuery, id: u32) {
        cache.insert(CacheKey::of(query), query, result(id));
    }

    #[test]
    fn get_after_insert_roundtrips() {
        let mut cache = ResultCache::new(4, 7);
        let key = CacheKey::of(&query(1.0, 5));
        assert!(cache.get(&key, &routes()).is_none());
        put(&mut cache, &query(1.0, 5), 3);
        assert_eq!(
            cache.get(&key, &routes()).unwrap().transitions,
            vec![TransitionId(3)]
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn distinct_k_and_semantics_are_distinct_keys() {
        let mut cache = ResultCache::new(8, 7);
        let exists = query(1.0, 5);
        let mut forall = exists.clone();
        forall.semantics = Semantics::ForAll;
        let k9 = query(1.0, 9);
        put(&mut cache, &exists, 1);
        assert!(cache.get(&CacheKey::of(&forall), &routes()).is_none());
        assert!(cache.get(&CacheKey::of(&k9), &routes()).is_none());
        // What a route removal's candidate query runs at: degenerate
        // queries do not count.
        assert_eq!(cache.max_k(), 5);
        put(&mut cache, &RknntQuery::exists(Vec::new(), 20), 2);
        put(&mut cache, &k9, 3);
        assert_eq!(cache.max_k(), 9);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = ResultCache::new(2, 7);
        let (a, b, c) = (query(1.0, 1), query(2.0, 1), query(3.0, 1));
        put(&mut cache, &a, 1);
        put(&mut cache, &b, 2);
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.get(&CacheKey::of(&a), &routes()).is_some());
        put(&mut cache, &c, 3);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&CacheKey::of(&b), &routes()).is_none(),
            "b was LRU and must be evicted"
        );
        assert!(cache.get(&CacheKey::of(&a), &routes()).is_some());
        assert!(cache.get(&CacheKey::of(&c), &routes()).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ResultCache::new(0, 7);
        put(&mut cache, &query(1.0, 1), 1);
        assert!(cache
            .get(&CacheKey::of(&query(1.0, 1)), &routes())
            .is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn reinserting_a_key_refreshes_value_and_recency() {
        let mut cache = ResultCache::new(2, 7);
        let (a, b) = (query(1.0, 1), query(2.0, 1));
        put(&mut cache, &a, 1);
        put(&mut cache, &b, 2);
        put(&mut cache, &a, 10);
        // `a` is now most recent; inserting a third key evicts `b`.
        put(&mut cache, &query(3.0, 1), 3);
        assert_eq!(
            cache.get(&CacheKey::of(&a), &routes()).unwrap().transitions,
            vec![TransitionId(10)]
        );
        assert!(cache.get(&CacheKey::of(&b), &routes()).is_none());
    }

    #[test]
    fn heavy_churn_keeps_list_and_map_consistent() {
        let mut cache = ResultCache::new(8, 42);
        for round in 0..200u32 {
            let q = query((round % 23) as f64, 1);
            if round % 3 == 0 {
                let _ = cache.get(&CacheKey::of(&q), &routes());
            }
            put(&mut cache, &q, round);
            assert!(cache.len() <= 8);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.insertions - stats.evictions, cache.len() as u64);
    }

    #[test]
    fn capacity_one_insert_then_evict_keeps_list_consistent() {
        // The intrusive list degenerates to head == tail at capacity 1;
        // every insert-then-evict cycle must leave it usable.
        let mut cache = ResultCache::new(1, 7);
        let queries: Vec<RknntQuery> = (0..5).map(|i| query(i as f64, 1)).collect();
        let keys: Vec<CacheKey> = queries.iter().map(CacheKey::of).collect();
        for (i, key) in keys.iter().enumerate() {
            put(&mut cache, &queries[i], i as u32);
            assert_eq!(cache.len(), 1, "capacity bound after insert {i}");
            // Only the newest key is present, and a hit refreshes it.
            assert_eq!(
                cache.get(key, &routes()).unwrap().transitions,
                vec![TransitionId(i as u32)]
            );
            for older in &keys[..i] {
                assert!(
                    cache.get(older, &routes()).is_none(),
                    "older key survived at cap 1"
                );
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 5);
        assert_eq!(stats.evictions, 4);
        assert_eq!(stats.insertions - stats.evictions, cache.len() as u64);
        // Re-inserting the live key refreshes rather than evicts.
        put(&mut cache, &queries[4], 99);
        assert_eq!(cache.stats().evictions, 4);
        assert_eq!(
            cache.get(&keys[4], &routes()).unwrap().transitions,
            vec![TransitionId(99)]
        );
    }

    #[test]
    fn capacity_zero_never_stores_and_counters_stay_consistent() {
        let mut cache = ResultCache::new(0, 7);
        for i in 0..4u32 {
            let q = query(i as f64, 1);
            assert!(cache.get(&CacheKey::of(&q), &routes()).is_none());
            put(&mut cache, &q, i);
            assert!(
                cache.get(&CacheKey::of(&q), &routes()).is_none(),
                "capacity 0 must not store"
            );
            assert_eq!(cache.len(), 0);
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 8);
    }

    #[test]
    fn lookups_replay_the_journal_and_drop_what_it_no_longer_reaches() {
        let mut cache = ResultCache::new(4, 7);
        let (a, b) = (query(1.0, 1), query(2.0, 1));
        put(&mut cache, &a, 1);
        // A member expiry is replayed into the entry at its next read.
        cache.record(TransitionOp::Expired(TransitionId(1)));
        let hit = cache.get(&CacheKey::of(&a), &routes()).unwrap();
        assert!(hit.transitions.is_empty());
        // An entry a full ring behind is dropped at its next read.
        put(&mut cache, &b, 2);
        for _ in 0..=JOURNAL_CAPACITY {
            cache.record(TransitionOp::Expired(TransitionId(9)));
        }
        assert!(cache.get(&CacheKey::of(&b), &routes()).is_none());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().targeted_evictions, 1);
    }
}
