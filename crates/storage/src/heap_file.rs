//! [`HeapFile`] — the partitioned primary record store (`File` in the
//! paper's I/O abstraction).
//!
//! A heap file is a set of partitions; each partition stores records in
//! arrival order (giving stable *physical* slot addresses) plus a per-
//! partition key → slot hash map (giving *logical* key resolution). The
//! file routes records to partitions through its configured
//! [`Partitioner`].
//!
//! Record payloads live on [`SlottedPage`]s owned by a [`BufferPool`], so
//! a heap file built with [`HeapFile::with_pool`] competes for the shared
//! byte budget and its cold partitions are evictable; the default
//! constructor uses a private unbounded pool, which never faults or
//! evicts. Only slim metadata (the key index and the page directory) is
//! pinned in memory unconditionally.
//!
//! This type is purely the data plane: latency injection and access
//! accounting happen in the [`cluster`](crate::cluster) layer so the same
//! storage can be replayed under different I/O models. Every paged read
//! is fallible (an unknown partition is `Routing`, an exhausted page budget
//! `Overloaded`) and returns the [`PageStats`] (faults, evictions, pinned
//! bytes) it incurred for that layer to charge; [`HeapFile::get`] is the
//! one shim that drops them.
//!
//! Point reads have one body, [`HeapFile::read_batch`]; a lone
//! [`HeapFile::read`] is a batch of one. A batch takes each partition's
//! store lock once and reads each run of k records on one page under one
//! pin ([`BufferPool::with_page`]), as index postings are. The pin is one
//! LRU-K reference: a run is one correlated reference period, so a page a
//! batch reads once stays a one-access page and is evicted before pages
//! re-referenced across batches.
//!
//! Under ingest, [`HeapFile::insert_versioned`] gives every version of a
//! key its own slot and says whether it wrote the key's first version.
//! The commit that wrote it posts index entries for first versions only
//! (`rede_core::txn`); the heap keeps no log of its writes.

use crate::buffer::{BufferPool, PageId, PageStats, SlottedPage, DEFAULT_PAGE_BYTES};
use crate::partitioner::{Partitioner, Partitioning};
use crate::pointer::PointerKey;
use crate::record::Record;
use parking_lot::RwLock;
use rede_common::{FxHashMap, RedeError, Result, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Chain-link sentinel for [`SlotVersion`]: no predecessor/successor.
const NIL: u32 = u32::MAX;

/// A slot-range read: `(rows, slots visited, page I/O)`. Under a snapshot
/// invisible versions are visited but yield no row, so scan cursors must
/// advance by slots visited, not rows returned.
pub type VisibleSlots = (Vec<(Value, Record)>, usize, PageStats);

/// Per-slot MVCC metadata: the commit timestamp that created the slot and
/// doubly linked chain pointers to the other versions of the same key.
/// Slots written before the file ever saw a versioned insert carry the
/// implicit timestamp 0 (visible to every snapshot).
#[derive(Clone, Copy)]
struct SlotVersion {
    ts: u64,
    prev: u32,
    next: u32,
}

struct PartitionStore {
    /// In-partition key → physical slot (always the *newest* version).
    key_index: FxHashMap<Value, usize>,
    /// First slot number of each page, in page order. Binary-searchable
    /// because slots are assigned in arrival order and never move.
    page_first_slot: Vec<usize>,
    /// Number of records (== next slot number).
    len: usize,
    /// Byte size of the open (last) page, mirrored here so the writer can
    /// decide to roll to a new page without touching the pool.
    open_bytes: usize,
    /// `versions[slot]` for every slot, lazily materialized on the first
    /// versioned insert into this partition; empty until then (the
    /// read-only fast paths never touch it).
    versions: Vec<SlotVersion>,
}

impl PartitionStore {
    fn new() -> Self {
        PartitionStore {
            key_index: FxHashMap::default(),
            page_first_slot: Vec::new(),
            len: 0,
            open_bytes: 0,
            versions: Vec::new(),
        }
    }

    /// Map a slot to `(page_no, slot-within-page)`.
    fn locate(&self, slot: usize) -> (u32, usize) {
        let idx = self.page_first_slot.partition_point(|&fs| fs <= slot) - 1;
        (idx as u32, slot - self.page_first_slot[idx])
    }

    /// The physical slot a pointer key addresses, if the record exists.
    fn slot_of(&self, key: &PointerKey) -> Option<usize> {
        match key {
            PointerKey::Logical(k) => self.key_index.get(k).copied(),
            PointerKey::Physical(slot) => (*slot < self.len).then_some(*slot),
        }
    }

    /// Commit timestamp of a slot (0 for pre-versioning slots).
    fn version_ts(&self, slot: usize) -> u64 {
        self.versions.get(slot).map(|v| v.ts).unwrap_or(0)
    }

    /// True when `slot` is the newest version of its key visible at
    /// `snap`: the slot itself is visible and no successor version is.
    fn slot_visible_at(&self, slot: usize, snap: u64) -> bool {
        match self.versions.get(slot) {
            None => true, // pre-versioning slot: ts 0, no successors
            Some(v) => v.ts <= snap && (v.next == NIL || self.version_ts(v.next as usize) > snap),
        }
    }

    /// Backfill the version table so every existing slot has an explicit
    /// entry (ts 0, unchained) before the first versioned write.
    fn materialize_versions(&mut self) {
        while self.versions.len() < self.len {
            self.versions.push(SlotVersion {
                ts: 0,
                prev: NIL,
                next: NIL,
            });
        }
    }
}

/// A partitioned, key-addressable record store over slotted pages.
pub struct HeapFile {
    name: Arc<str>,
    spec: Partitioning,
    partitioner: Arc<dyn Partitioner>,
    partitions: Vec<RwLock<PartitionStore>>,
    pool: Arc<BufferPool>,
    page_bytes: usize,
    /// The pool's id for page namespace `heap:{name}`, so heap and index
    /// pages of the same catalog name cannot collide in a shared pool.
    page_ns: u32,
    /// Set (once, permanently) by the first versioned insert. Read-only
    /// and legacy write paths check this one relaxed flag and skip every
    /// MVCC branch while it is false — the zero-overhead gate.
    versioned: AtomicBool,
    /// Highest commit timestamp any versioned insert carried (0 until the
    /// first): WAL replay's idempotence watermark.
    max_version_ts: AtomicU64,
}

impl HeapFile {
    /// Create an empty heap file with the given partitioning, backed by a
    /// private unbounded pool (never faults, never evicts).
    pub fn new(name: impl AsRef<str>, spec: Partitioning) -> Result<HeapFile> {
        HeapFile::with_pool(name, spec, BufferPool::unbounded(), DEFAULT_PAGE_BYTES)
    }

    /// Create an empty heap file whose pages live in `pool`, competing
    /// for its byte budget with every other structure on the pool.
    pub fn with_pool(
        name: impl AsRef<str>,
        spec: Partitioning,
        pool: Arc<BufferPool>,
        page_bytes: usize,
    ) -> Result<HeapFile> {
        let partitioner = spec.build()?;
        let partitions = (0..partitioner.partitions())
            .map(|_| RwLock::new(PartitionStore::new()))
            .collect();
        let name: Arc<str> = Arc::from(name.as_ref());
        Ok(HeapFile {
            page_ns: pool.namespace(&page_ns_name(&name)),
            name,
            spec,
            partitioner,
            partitions,
            pool,
            page_bytes: page_bytes.max(1),
            versioned: AtomicBool::new(false),
            max_version_ts: AtomicU64::new(0),
        })
    }

    /// The file's name in the catalog.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The partitioning spec the file was created with.
    pub fn partitioning(&self) -> &Partitioning {
        &self.spec
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition a given partition key routes to.
    pub fn partition_of(&self, partition_key: &Value) -> usize {
        self.partitioner.partition_of(partition_key)
    }

    fn page_id(&self, partition: usize, page_no: u32) -> PageId {
        PageId {
            ns: self.page_ns,
            partition: partition as u32,
            page_no,
        }
    }

    /// The store of one partition, or `Routing` for a partition the file
    /// does not have.
    fn store(&self, partition: usize) -> Result<&RwLock<PartitionStore>> {
        self.partitions
            .get(partition)
            .ok_or_else(|| RedeError::Routing(format!("{}: no partition {partition}", self.name)))
    }

    /// The slot `key` addresses in `store`, or `DanglingPointer`.
    fn slot_in(&self, store: &PartitionStore, partition: usize, key: &PointerKey) -> Result<usize> {
        store.slot_of(key).ok_or_else(|| {
            let what = match key {
                PointerKey::Logical(k) => format!("key {k}"),
                PointerKey::Physical(slot) => format!("slot {slot}"),
            };
            RedeError::DanglingPointer(format!("{}[{partition}] has no {what}", self.name))
        })
    }

    /// Insert a record keyed by `key`, partitioned by `partition_key`
    /// (usually the same value for primary storage). Returns `(partition,
    /// slot)`. An existing record under the same key is replaced in place,
    /// keeping its slot (and therefore its physical pointer).
    pub fn insert(
        &self,
        partition_key: &Value,
        key: Value,
        record: Record,
    ) -> Result<(usize, usize)> {
        let p = self.partition_of(partition_key);
        let mut store = self.partitions[p].write();
        if let Some(&slot) = store.key_index.get(&key) {
            let (page_no, in_page) = store.locate(slot);
            let id = self.page_id(p, page_no);
            // `replace` grows by at most the full new payload.
            let (size, _stats) = self.pool.with_page_mut(&id, record.len(), |pg| {
                pg.replace(in_page, record.bytes());
                pg.byte_size()
            })?;
            if page_no as usize == store.page_first_slot.len() - 1 {
                store.open_bytes = size;
            }
            return Ok((p, slot));
        }
        let slot = self.append_slot(p, &mut store, key, &record)?;
        Ok((p, slot))
    }

    /// Append `record` as a brand-new slot of partition `p` (never
    /// replaces) and point the key index at it. Shared by the plain
    /// insert's new-key branch and every versioned insert.
    fn append_slot(
        &self,
        p: usize,
        store: &mut PartitionStore,
        key: Value,
        record: &Record,
    ) -> Result<usize> {
        let slot = store.len;
        let cost = SlottedPage::push_cost(Some(&key), record.len());
        let empty = SlottedPage::new().byte_size();
        let roll = store.page_first_slot.is_empty()
            || (store.open_bytes + cost > self.page_bytes && store.open_bytes > empty);
        if roll {
            let page_no = store.page_first_slot.len() as u32;
            self.pool.create_page(self.page_id(p, page_no))?;
            // Safe even if the push below fails: the slot was never
            // occupied, so the next insert reuses both page and slot.
            store.page_first_slot.push(slot);
            store.open_bytes = empty;
        }
        let page_no = (store.page_first_slot.len() - 1) as u32;
        let id = self.page_id(p, page_no);
        let (_, _stats) = self
            .pool
            .with_page_mut(&id, cost, |pg| pg.push(Some(key.clone()), record.bytes()))?;
        store.open_bytes += cost;
        store.len += 1;
        store.key_index.insert(key, slot);
        Ok(slot)
    }

    /// Insert a new *version* of `key` committed at timestamp `ts`. Unlike
    /// [`HeapFile::insert`], an existing record under the same key is NOT
    /// replaced in place: the new version always gets a fresh slot, the
    /// old slot keeps its bytes (older snapshots still read them), and the
    /// two are chained so visibility walks can pick the right one. The key
    /// index always points at the newest version. Returns `(partition,
    /// first)`: `first` is true when this is the key's first version (a
    /// logical insert, which needs index postings) rather than an
    /// overwrite (whose key is already posted; postings address keys, not
    /// versions).
    pub fn insert_versioned(
        &self,
        partition_key: &Value,
        key: Value,
        record: Record,
        ts: u64,
    ) -> Result<(usize, bool)> {
        let p = self.partition_of(partition_key);
        let mut store = self.partitions[p].write();
        store.materialize_versions();
        let prev = store.key_index.get(&key).copied();
        let slot = self.append_slot(p, &mut store, key, &record)?;
        store.versions.push(SlotVersion {
            ts,
            prev: prev.map(|s| s as u32).unwrap_or(NIL),
            next: NIL,
        });
        debug_assert_eq!(store.versions.len(), store.len);
        if let Some(prev_slot) = prev {
            store.versions[prev_slot].next = slot as u32;
        }
        drop(store);
        self.max_version_ts.fetch_max(ts, Ordering::SeqCst);
        // Publish the flag last: a reader that sees `versioned == true`
        // must find the version table already consistent.
        self.versioned.store(true, Ordering::Release);
        Ok((p, prev.is_none()))
    }

    /// True once any versioned insert has landed. One relaxed load — the
    /// gate the read paths use to keep the read-only case zero-overhead.
    #[inline]
    pub fn is_versioned(&self) -> bool {
        self.versioned.load(Ordering::Relaxed)
    }

    /// Highest commit timestamp any version of this file carries.
    pub fn max_version_ts(&self) -> u64 {
        self.max_version_ts.load(Ordering::SeqCst)
    }

    /// Resolve a pointer key to the physical slot holding the version of
    /// that record visible at snapshot `snap`: the newest version with
    /// `ts <= snap`. Metadata-only (no page access, nothing charged).
    /// Errors if the key has no version visible at `snap` (it was first
    /// inserted after the snapshot was taken).
    pub fn visible_slot(&self, partition: usize, key: &PointerKey, snap: u64) -> Result<usize> {
        let store = self.store(partition)?.read();
        let mut slot = self.slot_in(&store, partition, key)?;
        if store.versions.is_empty() {
            return Ok(slot); // never versioned: everything is ts 0
        }
        // Walk back to the newest version at or before the snapshot…
        while store.version_ts(slot) > snap {
            match store.versions[slot].prev {
                NIL => {
                    return Err(RedeError::DanglingPointer(format!(
                        "{}[{partition}] slot {slot} has no version visible at ts {snap}",
                        self.name
                    )))
                }
                p => slot = p as usize,
            }
        }
        // …then forward in case the given pointer addressed an old version
        // and a newer-but-still-visible one supersedes it.
        while let Some(v) = store.versions.get(slot) {
            match v.next {
                NIL => break,
                n if store.version_ts(n as usize) <= snap => slot = n as usize,
                _ => break,
            }
        }
        Ok(slot)
    }

    /// Resolve an in-partition address to a record, reporting page I/O:
    /// a [`HeapFile::read_batch`] of one.
    pub fn read(&self, partition: usize, key: &PointerKey) -> Result<(Record, PageStats)> {
        let (mut records, stats) = self.read_batch(&[(partition, key)]);
        let record = records.pop().expect("one result per read")?;
        Ok((record, stats))
    }

    /// Resolve a batch of in-partition addresses `(partition, key)` to
    /// records, in input order, reporting the page I/O of the whole batch.
    ///
    /// Each partition's store lock is taken once, for all of its reads;
    /// under it each read becomes a `(page, slot in page)`, and each run of
    /// reads on one page is served under one pin, which is one LRU-K
    /// reference however long the run ([`BufferPool::with_page`]), as index
    /// postings are. One page is pinned at a time. A read fails alone: an
    /// address with no record is its own `DanglingPointer`, and its
    /// page-mates still read. A page run faults at most its one page.
    pub fn read_batch(&self, reads: &[(usize, &PointerKey)]) -> (Vec<Result<Record>>, PageStats) {
        /// One read, located: `page` and `in_page` are set once its
        /// partition's store has resolved it.
        #[derive(Clone, Copy)]
        struct Located {
            read: usize,
            partition: usize,
            slot: usize,
            page: u32,
            in_page: usize,
        }
        let mut out: Vec<Option<Result<Record>>> = (0..reads.len()).map(|_| None).collect();
        let mut order: Vec<Located> = reads
            .iter()
            .enumerate()
            .map(|(read, &(partition, _))| Located {
                read,
                partition,
                slot: 0,
                page: 0,
                in_page: 0,
            })
            .collect();
        // Stable by partition without the scratch buffer a stable sort
        // allocates: the input position breaks ties.
        order.sort_unstable_by_key(|l| (l.partition, l.read));
        let mut stats = PageStats::default();
        for group in order.chunk_by_mut(|a, b| a.partition == b.partition) {
            let partition = group[0].partition;
            let store = match self.store(partition) {
                Ok(store) => store.read(),
                Err(e) => {
                    group
                        .iter()
                        .for_each(|l| out[l.read] = Some(Err(e.clone())));
                    continue;
                }
            };
            // The located reads move to the front, in input order.
            let mut located = 0;
            for i in 0..group.len() {
                let l = group[i];
                match self.slot_in(&store, partition, reads[l.read].1) {
                    Ok(slot) => {
                        let (page, in_page) = store.locate(slot);
                        group[located] = Located {
                            slot,
                            page,
                            in_page,
                            ..l
                        };
                        located += 1;
                    }
                    Err(e) => out[l.read] = Some(Err(e)),
                }
            }
            let located = &mut group[..located];
            located.sort_unstable_by_key(|l| (l.page, l.in_page, l.read));
            for run in located.chunk_by(|a, b| a.page == b.page) {
                let id = self.page_id(partition, run[0].page);
                let read = self.pool.with_page(&id, |pg| {
                    for l in run {
                        out[l.read] = Some(pg.record(l.in_page).ok_or_else(|| {
                            RedeError::Corrupt(format!(
                                "{}[{partition}] slot {} missing from page {}",
                                self.name, l.slot, l.page
                            ))
                        }));
                    }
                });
                match read {
                    Ok(((), s)) => stats.absorb(s),
                    Err(e) => run.iter().for_each(|l| out[l.read] = Some(Err(e.clone()))),
                }
            }
        }
        let records = out
            .into_iter()
            .map(|r| r.expect("every read resolved or failed"))
            .collect();
        (records, stats)
    }

    /// [`HeapFile::read`] without the page I/O, for callers that charge
    /// nothing.
    pub fn get(&self, partition: usize, key: &PointerKey) -> Result<Record> {
        self.read(partition, key).map(|(r, _)| r)
    }

    /// The physical slot a pointer key resolves to, if the record exists.
    /// This is a metadata-only probe (no page access, nothing charged);
    /// the cluster uses it to normalize logical and physical aliases of
    /// the same record to one cache key.
    pub fn slot_of(&self, partition: usize, key: &PointerKey) -> Option<usize> {
        self.partitions.get(partition)?.read().slot_of(key)
    }

    /// Number of records in one partition (0 for one the file lacks).
    pub fn partition_len(&self, partition: usize) -> usize {
        self.partitions
            .get(partition)
            .map_or(0, |store| store.read().len)
    }

    /// Total number of records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.read().len).sum()
    }

    /// True if the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one page walk under every multi-record read: hand `f` the rows
    /// of slots `start..start + count` (clamped to the partition) in slot
    /// order, a page's worth at a time, skipping versions invisible at
    /// `snap` when one is given. Pages are pinned one at a time and `f` runs
    /// after each page's guard is dropped, so callbacks never hold a pin.
    /// Returns the slots visited and the page I/O.
    fn walk(
        &self,
        partition: usize,
        start: usize,
        count: usize,
        snap: Option<u64>,
        mut f: impl FnMut(Vec<(Value, Record)>),
    ) -> Result<(usize, PageStats)> {
        let store = self.store(partition)?.read();
        let end = start.saturating_add(count).min(store.len);
        let mut stats = PageStats::default();
        let mut slot = start;
        while slot < end {
            let (page_no, in_page) = store.locate(slot);
            let id = self.page_id(partition, page_no);
            let ((visited, rows), s) = self.pool.with_page(&id, |pg| {
                let upto = pg.len().min(in_page + (end - slot));
                let rows = (in_page..upto)
                    .filter(|i| snap.is_none_or(|at| store.slot_visible_at(slot + i - in_page, at)))
                    .map(|i| {
                        (
                            pg.key(i).cloned().expect("heap pages are keyed"),
                            pg.record(i).expect("slot within page"),
                        )
                    })
                    .collect::<Vec<_>>();
                (upto - in_page, rows)
            })?;
            stats.absorb(s);
            slot += visited;
            f(rows);
        }
        Ok((slot - start, stats))
    }

    /// Copy out a contiguous slot range of one partition (clamped to the
    /// partition length) — with `snap`, only the rows *visible* at that
    /// snapshot (each key's newest version with `ts <= snap`; superseded
    /// and too-new versions are skipped). The range form lets scans stream
    /// in page-sized batches.
    pub fn read_slots(
        &self,
        partition: usize,
        start: usize,
        count: usize,
        snap: Option<u64>,
    ) -> Result<VisibleSlots> {
        let mut rows = Vec::new();
        let (visited, stats) =
            self.walk(partition, start, count, snap, |page| rows.extend(page))?;
        Ok((rows, visited, stats))
    }

    /// Run `f` over every record of a partition in slot order, reporting
    /// page I/O.
    pub fn for_each_in_partition(
        &self,
        partition: usize,
        mut f: impl FnMut(&Value, &Record),
    ) -> Result<PageStats> {
        let (_, stats) = self.walk(partition, 0, usize::MAX, None, |page| {
            page.iter().for_each(|(k, r)| f(k, r))
        })?;
        Ok(stats)
    }

    /// Total bytes of this file's pages, resident or spilled.
    pub fn total_bytes(&self) -> usize {
        self.pool.total_bytes_of(&page_ns_name(&self.name))
    }

    /// Bytes of this file's pages currently resident in the pool.
    pub fn resident_bytes(&self) -> usize {
        self.pool.resident_bytes_of(&page_ns_name(&self.name))
    }
}

/// The page namespace a heap file named `name` pages under.
fn page_ns_name(name: &str) -> String {
    format!("heap:{name}")
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("name", &self.name)
            .field("partitions", &self.partitions.len())
            .field("len", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ByteBudget;
    use crate::pointer::PointerKey;

    fn file() -> HeapFile {
        HeapFile::new("t", Partitioning::hash(4)).unwrap()
    }

    #[test]
    fn insert_and_logical_get() {
        let f = file();
        for i in 0..100i64 {
            f.insert(
                &Value::Int(i),
                Value::Int(i),
                Record::from_text(&format!("r{i}")),
            )
            .unwrap();
        }
        assert_eq!(f.len(), 100);
        for i in 0..100i64 {
            let p = f.partition_of(&Value::Int(i));
            let r = f.get(p, &PointerKey::Logical(Value::Int(i))).unwrap();
            assert_eq!(r.text().unwrap(), format!("r{i}"));
        }
    }

    #[test]
    fn physical_pointers_are_stable() {
        let f = file();
        let (p, slot) = f
            .insert(&Value::Int(7), Value::Int(7), Record::from_text("first"))
            .unwrap();
        // More inserts must not move the record.
        for i in 100..200i64 {
            f.insert(&Value::Int(i), Value::Int(i), Record::from_text("x"))
                .unwrap();
        }
        assert_eq!(
            f.get(p, &PointerKey::Physical(slot))
                .unwrap()
                .text()
                .unwrap(),
            "first"
        );
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let f = file();
        let (p1, s1) = f
            .insert(&Value::Int(1), Value::Int(1), Record::from_text("a"))
            .unwrap();
        let (p2, s2) = f
            .insert(&Value::Int(1), Value::Int(1), Record::from_text("b"))
            .unwrap();
        assert_eq!((p1, s1), (p2, s2));
        assert_eq!(f.len(), 1);
        assert_eq!(
            f.get(p1, &PointerKey::Logical(Value::Int(1)))
                .unwrap()
                .text()
                .unwrap(),
            "b"
        );
    }

    #[test]
    fn reinsert_with_longer_record_still_reads_back() {
        let f = file();
        f.insert(&Value::Int(1), Value::Int(1), Record::from_text("ab"))
            .unwrap();
        let long = "z".repeat(300);
        let (p, s) = f
            .insert(&Value::Int(1), Value::Int(1), Record::from_text(&long))
            .unwrap();
        assert_eq!(
            f.get(p, &PointerKey::Physical(s)).unwrap().text().unwrap(),
            long
        );
    }

    #[test]
    fn dangling_lookups_error() {
        let f = file();
        f.insert(&Value::Int(1), Value::Int(1), Record::from_text("a"))
            .unwrap();
        let p = f.partition_of(&Value::Int(999));
        assert!(matches!(
            f.get(p, &PointerKey::Logical(Value::Int(999))),
            Err(RedeError::DanglingPointer(_))
        ));
        assert!(matches!(
            f.get(0, &PointerKey::Physical(42)),
            Err(RedeError::DanglingPointer(_))
        ));
        assert!(matches!(
            f.get(99, &PointerKey::Physical(0)),
            Err(RedeError::Routing(_))
        ));
    }

    #[test]
    fn scans_cover_partitions() {
        let f = file();
        for i in 0..50i64 {
            f.insert(
                &Value::Int(i),
                Value::Int(i),
                Record::from_text(&i.to_string()),
            )
            .unwrap();
        }
        let mut seen = 0;
        for p in 0..f.partitions() {
            f.for_each_in_partition(p, |_, _| seen += 1).unwrap();
        }
        assert_eq!(seen, 50);
    }

    #[test]
    fn read_slots_batches_and_clamps() {
        let f = HeapFile::new("t", Partitioning::hash(1)).unwrap();
        for i in 0..10i64 {
            f.insert(
                &Value::Int(0),
                Value::Int(i),
                Record::from_text(&i.to_string()),
            )
            .unwrap();
        }
        let rows = |start, count| f.read_slots(0, start, count, None).unwrap().0;
        assert_eq!(rows(0, 4).len(), 4);
        assert_eq!(rows(8, 4).len(), 2);
        assert!(rows(100, 4).is_empty());
        // `start + count` past `usize::MAX` clamps like any other overshoot.
        let (tail, visited, _) = f.read_slots(0, 1, usize::MAX, None).unwrap();
        assert_eq!((tail.len(), visited), (9, 9));
        assert_eq!(tail[0].0, Value::Int(1));
    }

    #[test]
    fn range_partitioned_file_routes_by_boundaries() {
        let f = HeapFile::new(
            "r",
            Partitioning::range(vec![Value::Int(10), Value::Int(20)]),
        )
        .unwrap();
        f.insert(&Value::Int(5), Value::Int(5), Record::from_text("low"))
            .unwrap();
        f.insert(&Value::Int(15), Value::Int(15), Record::from_text("mid"))
            .unwrap();
        f.insert(&Value::Int(25), Value::Int(25), Record::from_text("high"))
            .unwrap();
        assert_eq!(f.partition_len(0), 1);
        assert_eq!(f.partition_len(1), 1);
        assert_eq!(f.partition_len(2), 1);
    }

    #[test]
    fn tiny_pool_evicts_and_reads_back_byte_identical() {
        // Small pages + a budget of ~4 pages force eviction churn across
        // 200 records; every access must still read back identically.
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(4 * 512)));
        let f = HeapFile::with_pool("t", Partitioning::hash(2), pool.clone(), 512).unwrap();
        for i in 0..200i64 {
            f.insert(
                &Value::Int(i),
                Value::Int(i),
                Record::from_text(&format!("record-{i}-{}", "y".repeat(20))),
            )
            .unwrap();
        }
        assert!(pool.stats().evictions > 0, "pressure must evict");
        let mut faults = 0;
        for i in 0..200i64 {
            let p = f.partition_of(&Value::Int(i));
            let (r, s) = f.read(p, &PointerKey::Logical(Value::Int(i))).unwrap();
            assert_eq!(r.text().unwrap(), format!("record-{i}-{}", "y".repeat(20)));
            faults += s.faults;
        }
        assert!(faults > 0, "cold reads must fault pages back in");
        assert_eq!(f.len(), 200);
        // Scans see every record too, despite the spill.
        let mut seen = 0;
        for p in 0..f.partitions() {
            f.for_each_in_partition(p, |_, _| seen += 1).unwrap();
        }
        assert_eq!(seen, 200);
        assert!(f.total_bytes() > f.resident_bytes());
    }

    #[test]
    fn versioned_insert_appends_and_chains() {
        let f = HeapFile::new("v", Partitioning::hash(1)).unwrap();
        assert!(!f.is_versioned());
        f.insert(&Value::Int(1), Value::Int(1), Record::from_text("base"))
            .unwrap();
        for (ts, text) in [(1, "v1"), (2, "v2")] {
            let (_, first) = f
                .insert_versioned(&Value::Int(1), Value::Int(1), Record::from_text(text), ts)
                .unwrap();
            assert!(!first, "a key written before is overwritten");
        }
        assert!(f.is_versioned());
        // Versions get fresh slots, in arrival order: base 0, v1 1, v2 2.
        assert_eq!(f.len(), 3, "versions must get fresh slots");
        assert_eq!(f.max_version_ts(), 2);
        // Snapshot 0 sees the pre-versioning base record; 1 sees v1; 2+ v2.
        for (snap, want) in [(0, "base"), (1, "v1"), (2, "v2"), (9, "v2")] {
            let slot = f
                .visible_slot(0, &PointerKey::Logical(Value::Int(1)), snap)
                .unwrap();
            let r = f.get(0, &PointerKey::Physical(slot)).unwrap();
            assert_eq!(r.text().unwrap(), want, "snap {snap}");
        }
        // A physical pointer at an old version forwards to the visible one.
        assert_eq!(f.visible_slot(0, &PointerKey::Physical(0), 2).unwrap(), 2);
        // Logical read through the key index still sees the newest.
        assert_eq!(
            f.get(0, &PointerKey::Logical(Value::Int(1)))
                .unwrap()
                .text()
                .unwrap(),
            "v2"
        );
    }

    #[test]
    fn visible_slot_errors_for_keys_born_after_snapshot() {
        let f = HeapFile::new("v", Partitioning::hash(1)).unwrap();
        f.insert_versioned(&Value::Int(5), Value::Int(5), Record::from_text("x"), 7)
            .unwrap();
        assert!(matches!(
            f.visible_slot(0, &PointerKey::Logical(Value::Int(5)), 6),
            Err(RedeError::DanglingPointer(_))
        ));
        assert!(f
            .visible_slot(0, &PointerKey::Logical(Value::Int(5)), 7)
            .is_ok());
    }

    #[test]
    fn visible_scan_skips_superseded_and_future_versions() {
        let f = HeapFile::new("v", Partitioning::hash(1)).unwrap();
        for i in 0..4i64 {
            f.insert(
                &Value::Int(i),
                Value::Int(i),
                Record::from_text(&format!("r{i}")),
            )
            .unwrap();
        }
        f.insert_versioned(&Value::Int(1), Value::Int(1), Record::from_text("r1'"), 1)
            .unwrap();
        f.insert_versioned(&Value::Int(9), Value::Int(9), Record::from_text("r9"), 2)
            .unwrap();
        // Snap 1: r1 superseded by r1'; r9 (ts 2) not yet visible.
        let (rows, visited, _) = f.read_slots(0, 0, 100, Some(1)).unwrap();
        assert_eq!(visited, 6);
        let texts: Vec<_> = rows.iter().map(|(_, r)| r.text().unwrap()).collect();
        assert_eq!(texts, vec!["r0", "r2", "r3", "r1'"]);
        // Snap 0: the original four only.
        let (rows, _, _) = f.read_slots(0, 0, 100, Some(0)).unwrap();
        let texts: Vec<_> = rows.iter().map(|(_, r)| r.text().unwrap()).collect();
        assert_eq!(texts, vec!["r0", "r1", "r2", "r3"]);
        // Snap 2: everything current.
        let (rows, _, _) = f.read_slots(0, 0, 100, Some(2)).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn insert_versioned_reports_first_versions() {
        let f = HeapFile::new("v", Partitioning::hash(2)).unwrap();
        let put = |k: i64, text: &str, ts| {
            f.insert_versioned(&Value::Int(k), Value::Int(k), Record::from_text(text), ts)
                .unwrap()
        };
        let (p1, first) = put(1, "a", 1);
        assert!(first);
        assert_eq!(p1, f.partition_of(&Value::Int(1)));
        assert_eq!(
            put(1, "b", 2),
            (p1, false),
            "overwrite is not a first version"
        );
        assert!(put(2, "c", 2).1);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn a_batch_pins_a_page_once_and_references_it_once() {
        let load = || {
            let pool = BufferPool::unbounded();
            let f =
                HeapFile::with_pool("t", Partitioning::hash(1), pool.clone(), DEFAULT_PAGE_BYTES)
                    .unwrap();
            for i in 0..8i64 {
                f.insert(
                    &Value::Int(0),
                    Value::Int(i),
                    Record::from_text(&format!("r{i}")),
                )
                .unwrap();
            }
            (pool, f)
        };
        // Eight records of one resident page, out of order, with a key the
        // file lacks among them.
        let keys: Vec<PointerKey> = [5, 2, 7, 99, 0, 3, 6, 1, 4]
            .map(|k| PointerKey::Logical(Value::Int(k)))
            .into();

        let (pool, f) = load();
        let pins = BufferPool::thread_pins();
        let reads: Vec<(usize, &PointerKey)> = keys.iter().map(|k| (0, k)).collect();
        let (records, stats) = f.read_batch(&reads);
        assert_eq!(
            BufferPool::thread_pins() - pins,
            1,
            "one pin for the page's run"
        );
        assert_eq!(stats.faults, 0);
        for (key, record) in keys.iter().zip(&records) {
            match (key, record) {
                (PointerKey::Logical(Value::Int(99)), Err(RedeError::DanglingPointer(msg))) => {
                    assert_eq!(msg, "t[0] has no key 99")
                }
                (PointerKey::Logical(Value::Int(k)), Ok(r)) => {
                    assert_eq!(r.text().unwrap(), format!("r{k}"))
                }
                other => panic!("unexpected read {other:?}"),
            }
        }
        let batched = pool.history(&f.page_id(0, 0)).unwrap();

        // The run is one correlated reference: it leaves the LRU-K history
        // of one scalar read, not of eight.
        let (pool, f) = load();
        let before = pool.history(&f.page_id(0, 0)).unwrap();
        let pins = BufferPool::thread_pins();
        f.read(0, &keys[0]).unwrap();
        assert_eq!(BufferPool::thread_pins() - pins, 1);
        let scalar = pool.history(&f.page_id(0, 0)).unwrap();
        assert_eq!(batched, scalar);
        assert_eq!(scalar, (before.0 + 1, before.0), "one tick past the load");
    }

    #[test]
    fn once_read_heap_pages_are_evicted_before_reprobed_postings() {
        use crate::btree_file::{BtreeFile, IndexEntry, IndexSpec};
        const PAGE: usize = 1024;
        // Room for about four heap pages beside the one postings page.
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(4 * PAGE + 512)));
        let heap = HeapFile::with_pool("h", Partitioning::hash(1), pool.clone(), PAGE).unwrap();
        for i in 0..200i64 {
            let text = format!("r{i}-{}", "x".repeat(80));
            heap.insert(&Value::Int(0), Value::Int(i), Record::from_text(&text))
                .unwrap();
        }
        let ix =
            BtreeFile::with_pool(&IndexSpec::global("ix", "h", 1), pool.clone(), PAGE).unwrap();
        let entry = IndexEntry::new(Value::Int(0), Value::Int(0)).to_record();
        ix.insert(Value::Int(0), entry).unwrap();
        // Every heap page's keys, in page order.
        let pages: Vec<Vec<PointerKey>> = {
            let store = heap.partitions[0].read();
            let mut pages = vec![Vec::new(); store.page_first_slot.len()];
            for slot in 0..store.len {
                pages[store.locate(slot).0 as usize].push(PointerKey::Physical(slot));
            }
            pages
        };
        assert!(pages.len() >= 12 && pages[..8].iter().all(|keys| keys.len() >= 8));
        let batch = |keys: &[PointerKey]| {
            let reads: Vec<(usize, &PointerKey)> = keys.iter().map(|k| (0, k)).collect();
            let (records, _) = heap.read_batch(&reads);
            assert!(records.iter().all(|r| r.is_ok()));
        };

        // The postings page is referenced at two separate times.
        ix.probe(0, &Value::Int(0)).unwrap();
        batch(&pages[7]);
        ix.probe(0, &Value::Int(0)).unwrap();
        // Then a batch reads each of six heap pages once, eight records
        // apiece: more pages than the pool holds.
        let evictions = pool.stats().evictions;
        let once: Vec<PointerKey> = pages[..6].iter().flat_map(|p| p[..8].to_vec()).collect();
        batch(&once);
        assert!(pool.stats().evictions > evictions, "the batch must evict");

        // The once-read pages went first, oldest first; the postings page
        // stayed, and its next probe does not fault.
        let resident: Vec<bool> = (0..6)
            .map(|n| pool.history(&heap.page_id(0, n)).is_some())
            .collect();
        assert!(!resident[0], "the first once-read page was evicted");
        assert!(
            resident.is_sorted(),
            "evicted out of read order: {resident:?}"
        );
        assert_eq!(ix.resident_bytes(), ix.total_bytes(), "postings evicted");
        let (hits, stats) = ix.probe(0, &Value::Int(0)).unwrap();
        assert_eq!((hits.len(), stats.faults), (1, 0));
    }

    #[test]
    fn slot_of_normalizes_logical_and_physical_aliases() {
        let f = file();
        let (p, slot) = f
            .insert(&Value::Int(3), Value::Int(3), Record::from_text("x"))
            .unwrap();
        assert_eq!(
            f.slot_of(p, &PointerKey::Logical(Value::Int(3))),
            Some(slot)
        );
        assert_eq!(f.slot_of(p, &PointerKey::Physical(slot)), Some(slot));
        assert_eq!(f.slot_of(p, &PointerKey::Logical(Value::Int(99))), None);
        assert_eq!(f.slot_of(p, &PointerKey::Physical(999)), None);
        assert_eq!(f.slot_of(42, &PointerKey::Physical(0)), None);
    }
}
