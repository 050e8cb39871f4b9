//! A sharded LRU record cache (§ V-C), budgeted in **bytes**.
//!
//! "Since systems for LakeHarbor fully exploit the parallelism of
//! structures, their data access workloads could be more fine-grained than
//! the ones of existing systems for data lakes … It is worth exploring a
//! new storage layer for better efficiency in the LakeHarbor workload."
//!
//! Fine-grained index nested-loop joins re-dereference hot records (popular
//! join keys, broadcast targets); a node-local record cache turns those
//! repeats into memory hits. The cache is sharded by key hash so massively
//! parallel readers do not serialize on one lock, and each shard is an
//! exact LRU over an intrusive doubly linked list in a slab (no per-access
//! allocation).
//!
//! The budget is *bytes*, not entries: `Record` is variable-length, so an
//! entry-count budget admitted arbitrarily different byte totals per node
//! and the "exact total budget" guarantee was only nominal. Each entry
//! charges [`Record::len`] plus a fixed [`CACHE_ENTRY_OVERHEAD`]; shard
//! byte capacities split the total exactly. When the cluster runs under a
//! shared memory budget the cache additionally charges the cluster-wide
//! [`ByteBudget`] it shares with the buffer pool — inserts are
//! best-effort (a full budget skips the insert; correctness never depends
//! on a cache admit) and the pool may claw bytes back via
//! [`ShrinkBytes`].
//!
//! Cache hits are counted separately from storage accesses: they change
//! the *cost* of a dereference, not the logical access pattern, so
//! experiments that compare record-access counts (Fig. 9) run without a
//! cache.

use crate::buffer::{ByteBudget, ShrinkBytes};
use crate::pointer::PointerKey;
use crate::record::Record;
use bytes::Bytes;
use parking_lot::Mutex;
use rede_common::{fxhash, FxHashMap};
use std::sync::Arc;

/// Fixed per-entry byte overhead charged on top of the record payload:
/// covers the cache key (file name handle, partition, pointer key), the
/// slab slot and the hash-map entry.
pub const CACHE_ENTRY_OVERHEAD: usize = 64;

/// Cache lookup key: one addressed record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// File name.
    pub file: Arc<str>,
    /// Partition index.
    pub partition: usize,
    /// In-partition address. The cache itself treats logical and physical
    /// keys as distinct; the cluster's resolve path normalizes aliases to
    /// the physical slot before probing, so two pointers to the same
    /// record share one entry instead of double-charging the budget.
    pub key: PointerKey,
}

const NIL: usize = usize::MAX;

struct Slot {
    key: CacheKey,
    value: Record,
    prev: usize,
    next: usize,
}

/// One LRU shard: slab-backed intrusive list, most recent at `head`.
/// `capacity` and `used` are bytes.
struct Shard {
    map: FxHashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    used: usize,
}

/// Budgeted byte cost of one cached record.
fn entry_cost(value: &Record) -> usize {
    CACHE_ENTRY_OVERHEAD + value.len()
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            used: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Record> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(self.slots[idx].value.clone())
    }

    /// Drop the entry in slot `idx`, releasing its bytes from both the
    /// shard meter and the shared budget. Returns the bytes freed.
    fn evict_idx(&mut self, idx: usize, budget: Option<&ByteBudget>) -> usize {
        if idx == NIL {
            return 0;
        }
        self.unlink(idx);
        self.map.remove(&self.slots[idx].key);
        let freed = entry_cost(&self.slots[idx].value);
        // Drop the payload now — the slab slot may sit on the free list
        // for a while and must not retain record bytes the meters no
        // longer charge for. An empty `Bytes` allocates nothing.
        self.slots[idx].value = Record::from_bytes(Bytes::new());
        self.free.push(idx);
        self.used -= freed;
        if let Some(b) = budget {
            b.release(freed);
        }
        freed
    }

    /// Evict the least-recently-used entry; returns the bytes freed (0 if
    /// the shard is empty).
    fn evict_tail(&mut self, budget: Option<&ByteBudget>) -> usize {
        self.evict_idx(self.tail, budget)
    }

    fn insert(&mut self, key: CacheKey, value: Record, budget: Option<&ByteBudget>) {
        // An update is a removal plus a fresh insert: this re-checks the
        // byte capacity (evict-on-grow — the old entry-count code replaced
        // in place and overshot when the new record was larger) and
        // refreshes recency in one path.
        if let Some(&idx) = self.map.get(&key) {
            self.evict_idx(idx, budget);
        }
        let cost = entry_cost(&value);
        if cost > self.capacity {
            // Could never fit even alone; don't flush the shard for it.
            return;
        }
        while self.used + cost > self.capacity {
            self.evict_tail(budget);
        }
        if let Some(b) = budget {
            // Shared budget: make room by shedding our own LRU entries;
            // if the pool holds everything, skip the insert (best-effort).
            loop {
                if b.try_charge(cost) {
                    break;
                }
                if self.tail == NIL {
                    return;
                }
                self.evict_tail(budget);
            }
        }
        // A record read from a page is a slice of the whole page buffer:
        // keep a private copy, so the entry holds exactly the bytes it
        // charges and never keeps a page alive.
        let value = Record::from_bytes(Bytes::copy_from_slice(value.bytes()));
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.used += cost;
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Sharded exact-LRU record cache with a byte budget.
pub struct RecordCache {
    shards: Vec<Mutex<Shard>>,
    budget: Option<Arc<ByteBudget>>,
}

impl RecordCache {
    /// Cache holding up to *exactly* `capacity` **bytes** across `shards`
    /// shards (entries charge [`Record::len`] + [`CACHE_ENTRY_OVERHEAD`]).
    /// The capacity is split evenly with the remainder spread one-per-
    /// shard, so the shard capacities always sum to the requested bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a cache that can hold nothing is
    /// always a configuration mistake (disable the cache instead).
    pub fn with_byte_capacity(capacity: usize, shards: usize) -> RecordCache {
        Self::build(capacity, shards, None)
    }

    /// Like [`RecordCache::with_byte_capacity`], but every entry is also
    /// charged against the cluster-wide `budget` shared with the buffer
    /// pool. Inserts become best-effort: when the shared budget is full
    /// the cache sheds its own LRU entries, and if nothing is left to
    /// shed, skips the insert.
    pub fn with_shared_budget(
        capacity: usize,
        shards: usize,
        budget: Arc<ByteBudget>,
    ) -> RecordCache {
        Self::build(capacity, shards, Some(budget))
    }

    fn build(capacity: usize, shards: usize, budget: Option<Arc<ByteBudget>>) -> RecordCache {
        assert!(
            capacity > 0,
            "record cache capacity must be at least 1 byte"
        );
        let shards = shards.clamp(1, capacity);
        let (base, extra) = (capacity / shards, capacity % shards);
        RecordCache {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
                .collect(),
            budget,
        }
    }

    /// Total bytes this cache may hold (the exact bound `used_bytes` never
    /// exceeds).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }

    /// Bytes currently charged across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<fxhash::FxHasher> = Default::default();
        // Fx leaves low bits weakly mixed on short structured keys; run a
        // SplitMix finalizer before taking the modulus so shards stay
        // balanced even for sequential integer keys.
        let mut h = bh.hash_one(key);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up a record, refreshing its recency.
    pub fn get(&self, key: &CacheKey) -> Option<Record> {
        self.shard_of(key).lock().get(key)
    }

    /// Insert (or refresh) a copy of a record. Best-effort under a shared
    /// budget.
    pub fn insert(&self, key: CacheKey, value: Record) {
        self.shard_of(&key)
            .lock()
            .insert(key, value, self.budget.as_deref());
    }

    /// Drop one entry if present, releasing its bytes. Returns whether an
    /// entry was removed. Writers call this so a stale record can never be
    /// served after its slot is overwritten in place.
    pub fn purge(&self, key: &CacheKey) -> bool {
        let mut shard = self.shard_of(key).lock();
        match shard.map.get(key).copied() {
            Some(idx) => {
                shard.evict_idx(idx, self.budget.as_deref());
                true
            }
            None => false,
        }
    }

    /// Records currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ShrinkBytes for RecordCache {
    /// Shed LRU entries round-robin across shards until `want` bytes are
    /// freed or the cache is empty. Called by the buffer pool when it
    /// cannot evict its own pages.
    fn shrink_bytes(&self, want: usize) -> usize {
        let mut freed = 0;
        while freed < want {
            let mut progress = false;
            for shard in &self.shards {
                if freed >= want {
                    break;
                }
                let f = shard.lock().evict_tail(self.budget.as_deref());
                if f > 0 {
                    freed += f;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        freed
    }
}

impl std::fmt::Debug for RecordCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rede_common::Value;

    fn key(i: i64) -> CacheKey {
        CacheKey {
            file: Arc::from("f"),
            partition: (i % 4) as usize,
            key: PointerKey::Logical(Value::Int(i)),
        }
    }

    /// Fixed-size record: every `rec(i)` costs exactly `COST` bytes, so
    /// entry-count expectations translate to `n * COST` byte capacities.
    fn rec(i: i64) -> Record {
        Record::from_text(&format!("rec-{i:04}"))
    }

    const COST: usize = CACHE_ENTRY_OVERHEAD + 8;

    #[test]
    fn get_after_insert() {
        let cache = RecordCache::with_byte_capacity(8 * COST, 1);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), rec(1));
        assert_eq!(cache.get(&key(1)).unwrap().text().unwrap(), "rec-0001");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), COST);
    }

    #[test]
    fn evicts_lru_order() {
        let cache = RecordCache::with_byte_capacity(3 * COST, 1);
        for i in 0..3 {
            cache.insert(key(i), rec(i));
        }
        // Touch 0 so 1 becomes the LRU.
        cache.get(&key(0));
        cache.insert(key(3), rec(3));
        assert!(
            cache.get(&key(1)).is_none(),
            "1 was LRU and must be evicted"
        );
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let cache = RecordCache::with_byte_capacity(4 * COST, 1);
        cache.insert(key(7), rec(7));
        cache.insert(key(7), Record::from_text("updated!"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), COST);
        assert_eq!(cache.get(&key(7)).unwrap().text().unwrap(), "updated!");
    }

    #[test]
    fn update_to_larger_record_evicts_on_grow() {
        // Room for two fixed-size entries and one byte of slack.
        let cache = RecordCache::with_byte_capacity(2 * COST + 1, 1);
        cache.insert(key(1), rec(1));
        cache.insert(key(2), rec(2));
        assert_eq!(cache.len(), 2);
        // Growing 1's record by two bytes no longer fits next to 2: the
        // old code replaced in place and overshot the byte budget.
        cache.insert(key(1), Record::from_text("rec-0001++"));
        assert!(cache.used_bytes() <= cache.capacity());
        assert_eq!(cache.get(&key(1)).unwrap().text().unwrap(), "rec-0001++");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted on grow");
    }

    #[test]
    fn update_to_impossible_record_drops_the_entry() {
        let cache = RecordCache::with_byte_capacity(2 * COST, 1);
        cache.insert(key(1), rec(1));
        let huge = Record::from_text(&"x".repeat(4 * COST));
        cache.insert(key(1), huge);
        assert!(cache.get(&key(1)).is_none(), "oversized update cannot stay");
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn oversized_record_is_skipped_without_flushing() {
        let cache = RecordCache::with_byte_capacity(3 * COST, 1);
        for i in 0..3 {
            cache.insert(key(i), rec(i));
        }
        cache.insert(key(9), Record::from_text(&"x".repeat(4 * COST)));
        assert_eq!(cache.len(), 3, "oversized insert must not flush the LRU");
        assert!(cache.get(&key(9)).is_none());
    }

    #[test]
    fn capacity_one_entry_works() {
        let cache = RecordCache::with_byte_capacity(COST, 1);
        cache.insert(key(1), rec(1));
        cache.insert(key(2), rec(2));
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn purge_frees_bytes_and_misses_afterwards() {
        let cache = RecordCache::with_byte_capacity(8 * COST, 2);
        cache.insert(key(1), rec(1));
        cache.insert(key(2), rec(2));
        assert!(cache.purge(&key(1)));
        assert!(!cache.purge(&key(1)), "second purge finds nothing");
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
        assert_eq!(cache.used_bytes(), COST);
        // Removal under a shared budget releases the charge too.
        let budget = Arc::new(ByteBudget::new(4 * COST));
        let shared = RecordCache::with_shared_budget(4 * COST, 1, budget.clone());
        shared.insert(key(1), rec(1));
        assert_eq!(budget.used(), COST);
        assert!(shared.purge(&key(1)));
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn shards_partition_the_key_space() {
        let cache = RecordCache::with_byte_capacity(1000 * COST, 8);
        for i in 0..500 {
            cache.insert(key(i), rec(i));
        }
        assert_eq!(cache.len(), 500);
        for i in 0..500 {
            assert!(cache.get(&key(i)).is_some(), "key {i} lost across shards");
        }
    }

    #[test]
    fn logical_and_physical_keys_are_distinct_at_this_layer() {
        // The raw cache does not resolve aliases — that requires the heap
        // file's key index, which only the cluster's resolve path holds.
        // The cluster normalizes both pointer kinds to the physical slot
        // before probing (see `cluster::tests` and the integration suite).
        let cache = RecordCache::with_byte_capacity(8 * COST, 1);
        let logical = key(1);
        let physical = CacheKey {
            file: Arc::from("f"),
            partition: 1,
            key: PointerKey::Physical(0),
        };
        cache.insert(logical.clone(), rec(1));
        assert!(cache.get(&physical).is_none());
        assert!(cache.get(&logical).is_some());
    }

    #[test]
    fn concurrent_mixed_workload_is_safe() {
        let cache = Arc::new(RecordCache::with_byte_capacity(64 * COST, 4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..2_000i64 {
                        let k = (i * (t + 1)) % 200;
                        if i % 3 == 0 {
                            cache.insert(key(k), rec(k));
                        } else if let Some(r) = cache.get(&key(k)) {
                            assert_eq!(r.text().unwrap(), format!("rec-{k:04}"));
                        }
                    }
                });
            }
        });
        assert!(cache.used_bytes() <= cache.capacity());
    }

    #[test]
    fn stress_eviction_never_exceeds_byte_capacity() {
        // 13 entries' worth of bytes across 4 shards does not divide
        // evenly; variable-length records exercise the byte accounting.
        let cache = RecordCache::with_byte_capacity(13 * COST, 4);
        assert_eq!(cache.capacity(), 13 * COST);
        for i in 0..10_000i64 {
            let payload = "y".repeat((i % 40) as usize + 1);
            cache.insert(key(i), Record::from_text(&payload));
            assert!(
                cache.used_bytes() <= cache.capacity(),
                "used {} exceeds capacity {}",
                cache.used_bytes(),
                cache.capacity()
            );
        }
        assert!(!cache.is_empty());
    }

    #[test]
    fn byte_capacity_is_exact_for_any_shard_count() {
        // Mirrors the old `capacity_is_exact_for_any_shard_count`, now in
        // bytes: shard byte capacities must sum to the requested bound.
        for capacity in [1, 2, 7, 13, 100, 1001, 9973] {
            for shards in [1, 2, 3, 8, 64] {
                let cache = RecordCache::with_byte_capacity(capacity, shards);
                assert_eq!(
                    cache.capacity(),
                    capacity,
                    "capacity {capacity} split over {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shared_budget_makes_inserts_best_effort() {
        let budget = Arc::new(ByteBudget::new(3 * COST));
        let cache = RecordCache::with_shared_budget(100 * COST, 1, budget.clone());
        for i in 0..3 {
            cache.insert(key(i), rec(i));
        }
        assert_eq!(budget.used(), 3 * COST);
        // An outside consumer (the buffer pool) takes the rest: the cache
        // sheds its own LRU to admit the new entry, never over-charging.
        cache.insert(key(3), rec(3));
        assert!(budget.used() <= budget.total());
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key(3)).is_some(), "newest entry admitted");
        assert!(cache.get(&key(0)).is_none(), "LRU shed to make room");
    }

    #[test]
    fn pool_pressure_shrinks_the_cache() {
        let budget = Arc::new(ByteBudget::new(10 * COST));
        let cache = RecordCache::with_shared_budget(10 * COST, 2, budget.clone());
        for i in 0..10 {
            cache.insert(key(i), rec(i));
        }
        let before = budget.used();
        let freed = cache.shrink_bytes(4 * COST);
        assert!(freed >= 4 * COST, "freed {freed}");
        assert_eq!(budget.used(), before - freed);
        assert!(cache.used_bytes() <= cache.capacity() - freed);
        // Shrinking an empty cache frees nothing and terminates.
        assert!(cache.shrink_bytes(usize::MAX) <= 10 * COST);
        assert_eq!(cache.shrink_bytes(1), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        RecordCache::with_byte_capacity(0, 4);
    }
}
