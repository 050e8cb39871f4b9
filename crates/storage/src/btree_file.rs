//! [`BtreeFile`] — the paper's special `File` that "can also locate a set of
//! Records with a range of given Pointers".
//!
//! A `BtreeFile` is a partitioned secondary index over a base heap file.
//! Each partition is one [`BPlusTree`] mapping an index key to a postings
//! list of *entry records*. Entries are themselves raw [`Record`]s (schema
//! applied on read, like everything else in the lake); the canonical
//! encoding is [`IndexEntry`], which carries the pointer components of the
//! base record (partition key + in-partition key).
//!
//! Entry payloads live on [`SlottedPage`]s owned by a [`BufferPool`]: the
//! tree keeps only slim `(page, slot)` references, so a lazily built index
//! is *evictable* — under memory pressure its pages spill to the simulated
//! disk and fault back in on the next probe, byte-identically. An index
//! built with the default constructor uses a private unbounded pool and
//! never faults. Every probe is fallible (an unknown partition is
//! `Routing`, an exhausted page budget `Overloaded`) and returns the
//! [`PageStats`] it incurred for the cluster layer to charge;
//! [`BtreeFile::lookup_in`] is the one shim that does neither.
//!
//! Two placements, following the indexing-scheme taxonomy the paper cites:
//!
//! * **local** — partitioned identically to the base file, entries
//!   co-located with their base records. A key probe must consult *every*
//!   partition (the key gives no placement information); SMPE instead has
//!   each node probe only its locally-held partitions. A pointer into a
//!   local index still routes when one partition's tree alone holds its
//!   key ([`BtreeFile::partition_holding`]): entries are only ever
//!   appended, so the trees themselves are the record of placement.
//! * **global** — partitioned by the *indexed key* itself. A key probe
//!   routes to exactly one (possibly remote) partition.
//!
//! Under ingest an index is kept current by its writer: a commit posts
//! the entries of every key it writes first, before it publishes its
//! timestamp (`rede_core::txn`), so probes never check for freshness.
//! Entries address keys, not versions; which version of a key a snapshot
//! reads is decided when the entry is dereferenced.

use crate::btree::BPlusTree;
use crate::buffer::{BufferPool, PageId, PageStats, SlottedPage, DEFAULT_PAGE_BYTES};
use crate::partitioner::{Partitioner, Partitioning};
use crate::record::Record;
use parking_lot::RwLock;
use rede_common::{RedeError, Result, Value};
use std::sync::Arc;

/// Placement of an index relative to its base file.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexLocality {
    /// Co-partitioned with the base file.
    Local,
    /// Partitioned by the indexed key.
    Global,
}

/// Declarative index description handed to the cluster at creation time.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    /// Catalog name of the index (e.g. `"part.p_retailprice"`).
    pub name: String,
    /// Catalog name of the base file the entries point into.
    pub base: String,
    /// Placement.
    pub locality: IndexLocality,
    /// How the index itself is partitioned. For `Local` this must match the
    /// base file's partition *count* (same co-location); for `Global` it is
    /// typically `hash` on the indexed key.
    pub partitioning: Partitioning,
}

impl IndexSpec {
    /// A local secondary index co-partitioned with its base file.
    pub fn local(name: impl Into<String>, base: impl Into<String>, partitions: usize) -> IndexSpec {
        IndexSpec {
            name: name.into(),
            base: base.into(),
            locality: IndexLocality::Local,
            partitioning: Partitioning::hash(partitions),
        }
    }

    /// A global index hash-partitioned by the indexed key.
    pub fn global(
        name: impl Into<String>,
        base: impl Into<String>,
        partitions: usize,
    ) -> IndexSpec {
        IndexSpec {
            name: name.into(),
            base: base.into(),
            locality: IndexLocality::Global,
            partitioning: Partitioning::hash(partitions),
        }
    }
}

/// The pointer payload of one index entry, encoded into a raw record.
///
/// `partition_key` and `key` address a record of the index's base file. The
/// wire format is the two [`Value::to_field`] encodings joined by the ASCII
/// unit separator, so entry records stay legible and schema-on-read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Partition key of the base record.
    pub partition_key: Value,
    /// In-partition key of the base record.
    pub key: Value,
}

const SEP: char = '\u{1f}';

impl IndexEntry {
    /// Build an entry pointing at `(partition_key, key)` of the base file.
    pub fn new(partition_key: Value, key: Value) -> IndexEntry {
        IndexEntry { partition_key, key }
    }

    /// Encode into a raw entry record.
    pub fn to_record(&self) -> Record {
        Record::from_text(&format!(
            "{}{SEP}{}",
            self.partition_key.to_field(),
            self.key.to_field()
        ))
    }

    /// Decode from a raw entry record.
    pub fn from_record(record: &Record) -> Result<IndexEntry> {
        let text = record.text()?;
        let (pk, k) = text
            .split_once(SEP)
            .ok_or_else(|| RedeError::Interpret(format!("not an index entry: {text:?}")))?;
        Ok(IndexEntry {
            partition_key: Value::from_field(pk)?,
            key: Value::from_field(k)?,
        })
    }
}

/// Where one posting's entry record lives: `(page, slot)` within the
/// partition's page run. Slim enough to keep whole postings lists resident
/// while the payload bytes stay evictable.
#[derive(Debug, Clone, Copy)]
struct EntryRef {
    page_no: u32,
    slot: u32,
}

/// One index partition: the key tree over entry references plus the
/// append state of its open page.
struct TreePartition {
    tree: BPlusTree<Value, Vec<EntryRef>>,
    /// Pages created so far (the open page is `pages - 1`).
    pages: u32,
    /// Byte size of the open page, mirrored so the writer can roll to a
    /// new page without touching the pool.
    open_bytes: usize,
}

impl TreePartition {
    fn new() -> Self {
        TreePartition {
            tree: BPlusTree::new(),
            pages: 0,
            open_bytes: 0,
        }
    }
}

/// A partitioned B+-tree secondary index over slotted pages.
pub struct BtreeFile {
    name: Arc<str>,
    base: Arc<str>,
    locality: IndexLocality,
    partitioner: Arc<dyn Partitioner>,
    trees: Vec<RwLock<TreePartition>>,
    pool: Arc<BufferPool>,
    page_bytes: usize,
    /// The pool's id for page namespace `idx:{name}`, disjoint from heap
    /// namespaces.
    page_ns: u32,
}

impl BtreeFile {
    /// Create an empty index from a spec, backed by a private unbounded
    /// pool (never faults, never evicts).
    pub fn new(spec: &IndexSpec) -> Result<BtreeFile> {
        BtreeFile::with_pool(spec, BufferPool::unbounded(), DEFAULT_PAGE_BYTES)
    }

    /// Create an empty index whose entry pages live in `pool`, competing
    /// for its byte budget — this is what makes the index evictable.
    pub fn with_pool(
        spec: &IndexSpec,
        pool: Arc<BufferPool>,
        page_bytes: usize,
    ) -> Result<BtreeFile> {
        let partitioner = spec.partitioning.build()?;
        let trees = (0..partitioner.partitions())
            .map(|_| RwLock::new(TreePartition::new()))
            .collect();
        Ok(BtreeFile {
            page_ns: pool.namespace(&page_ns_name(&spec.name)),
            name: Arc::from(spec.name.as_str()),
            base: Arc::from(spec.base.as_str()),
            locality: spec.locality.clone(),
            partitioner,
            trees,
            pool,
            page_bytes: page_bytes.max(1),
        })
    }

    /// Does nothing. An index holds no maintainer: the commit that writes
    /// a row posts its entries (`rede_core::txn`). Kept for callers that
    /// detached the write-behind maintainer this index once held.
    pub fn clear_maintainer(&self) {}

    /// The index's catalog name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The base file's catalog name.
    pub fn base(&self) -> &Arc<str> {
        &self.base
    }

    /// Placement of this index.
    pub fn locality(&self) -> &IndexLocality {
        &self.locality
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.trees.len()
    }

    /// Total number of entries (postings, not distinct keys). Metadata
    /// only — counting never touches (or faults) entry pages.
    pub fn len(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.read().tree.iter().map(|(_, v)| v.len()).sum::<usize>())
            .sum()
    }

    /// True if no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.trees.iter().all(|t| t.read().tree.is_empty())
    }

    /// The partition an entry with index key `key` belongs to, for a
    /// *global* index. Local indexes place by base partition instead.
    pub fn partition_of_key(&self, key: &Value) -> usize {
        self.partitioner.partition_of(key)
    }

    fn page_id(&self, partition: usize, page_no: u32) -> PageId {
        PageId {
            ns: self.page_ns,
            partition: partition as u32,
            page_no,
        }
    }

    /// Insert an entry record under `key` into an explicit partition (used
    /// for local indexes, where placement follows the base record).
    pub fn insert_at(&self, partition: usize, key: Value, entry: Record) -> Result<()> {
        let mut tp = self.tree(partition)?.write();
        let cost = SlottedPage::push_cost(None, entry.len());
        let empty = SlottedPage::new().byte_size();
        let roll =
            tp.pages == 0 || (tp.open_bytes + cost > self.page_bytes && tp.open_bytes > empty);
        if roll {
            self.pool.create_page(self.page_id(partition, tp.pages))?;
            tp.pages += 1;
            tp.open_bytes = empty;
        }
        let page_no = tp.pages - 1;
        let id = self.page_id(partition, page_no);
        let (slot, _stats) = self
            .pool
            .with_page_mut(&id, cost, |pg| pg.push(None, entry.bytes()))?;
        tp.open_bytes += cost;
        let entry_ref = EntryRef {
            page_no,
            slot: slot as u32,
        };
        match tp.tree.get_mut(&key) {
            Some(postings) => postings.push(entry_ref),
            None => {
                tp.tree.insert(key, vec![entry_ref]);
            }
        }
        Ok(())
    }

    /// The one partition whose tree holds `key`, for a *local* index:
    /// `None` when no tree or several trees hold it. Entries are never
    /// removed, so this is the partition every posting of `key` went to.
    /// A read of the trees only, never of entry pages: one read lock and
    /// one descent per partition.
    pub fn partition_holding(&self, key: &Value) -> Option<usize> {
        let mut holders =
            (0..self.trees.len()).filter(|&p| self.trees[p].read().tree.contains_key(key));
        let first = holders.next()?;
        holders.next().is_none().then_some(first)
    }

    /// Insert an entry record under `key`, routing by the index's own
    /// partitioner (used for global indexes).
    pub fn insert(&self, key: Value, entry: Record) -> Result<()> {
        self.insert_at(self.partitioner.partition_of(&key), key, entry)
    }

    /// Materialize a run of entry references from their pages. Runs of
    /// refs on the same page share one fetch; at most one page is pinned
    /// at a time (the guard drops before the next fetch).
    fn read_refs(&self, partition: usize, refs: &[EntryRef]) -> Result<(Vec<Record>, PageStats)> {
        let mut out = Vec::with_capacity(refs.len());
        let mut stats = PageStats::default();
        let mut i = 0;
        while i < refs.len() {
            let page_no = refs[i].page_no;
            let mut j = i;
            while j < refs.len() && refs[j].page_no == page_no {
                j += 1;
            }
            let id = self.page_id(partition, page_no);
            let ((), s) = self.pool.with_page(&id, |pg| {
                out.extend(
                    refs[i..j]
                        .iter()
                        .map(|r| pg.record(r.slot as usize).expect("posting slot in page")),
                )
            })?;
            stats.absorb(s);
            i = j;
        }
        Ok((out, stats))
    }

    /// The tree of one partition, or `Routing` for a partition the index
    /// does not have.
    fn tree(&self, partition: usize) -> Result<&RwLock<TreePartition>> {
        self.trees
            .get(partition)
            .ok_or_else(|| RedeError::Routing(format!("{}: no partition {partition}", self.name)))
    }

    /// Exact-key probe of one partition, reporting page I/O. Returns the
    /// postings (empty if the key is absent).
    pub fn probe(&self, partition: usize, key: &Value) -> Result<(Vec<Record>, PageStats)> {
        let tp = self.tree(partition)?.read();
        match tp.tree.get(key) {
            Some(refs) => self.read_refs(partition, refs),
            None => Ok((Vec::new(), PageStats::default())),
        }
    }

    /// [`BtreeFile::probe`] for callers that charge nothing and hold the
    /// builder-enforced budget floor, under which a single page always
    /// fits: panics on a misconfigured standalone pool or partition.
    pub fn lookup_in(&self, partition: usize, key: &Value) -> Vec<Record> {
        self.probe(partition, key)
            .expect("page budget exhausted: raise the memory budget floor")
            .0
    }

    /// Vectorized exact-key probe of one partition, reporting page I/O.
    /// Probes all `keys` in a single pass that sorts them and shares the
    /// root-to-leaf descent across adjacent probes, so a batch of keys
    /// landing in the same leaf pays one traversal instead of one per key.
    /// Returns the postings per key in *input* order (empty where absent)
    /// plus the number of root-to-leaf descents actually performed.
    pub fn lookup_batch(
        &self,
        partition: usize,
        keys: &[Value],
    ) -> Result<(Vec<Vec<Record>>, usize, PageStats)> {
        let tp = self.tree(partition)?.read();
        let (hits, descents) = tp.tree.get_many(keys);
        let mut postings = Vec::with_capacity(hits.len());
        let mut stats = PageStats::default();
        for hit in hits {
            match hit {
                Some(refs) => {
                    let (recs, s) = self.read_refs(partition, refs)?;
                    stats.absorb(s);
                    postings.push(recs);
                }
                None => postings.push(Vec::new()),
            }
        }
        Ok((postings, descents, stats))
    }

    /// Inclusive range probe of one partition, in key order, reporting
    /// page I/O.
    pub fn range_in(
        &self,
        partition: usize,
        lo: &Value,
        hi: &Value,
    ) -> Result<(Vec<Record>, PageStats)> {
        let tp = self.tree(partition)?.read();
        let mut refs = Vec::new();
        for (_, postings) in tp.tree.range_inclusive(lo, hi) {
            refs.extend_from_slice(postings);
        }
        self.read_refs(partition, &refs)
    }

    /// Partitions a probe for `key` must consult: one for a global index,
    /// all for a local one.
    pub fn probe_partitions_for_key(&self, key: &Value) -> Vec<usize> {
        match self.probe_partition_for_key(key) {
            Some(partition) => vec![partition],
            None => (0..self.trees.len()).collect(),
        }
    }

    /// The one partition a probe for `key` must consult, when there is
    /// one (a global index, or a local index of one partition); `None`
    /// when the probe must consult every partition.
    pub fn probe_partition_for_key(&self, key: &Value) -> Option<usize> {
        match self.locality {
            IndexLocality::Global => Some(self.partitioner.partition_of(key)),
            IndexLocality::Local if self.trees.len() == 1 => Some(0),
            IndexLocality::Local => None,
        }
    }

    /// Partitions a probe for `[lo, hi]` must consult.
    pub fn probe_partitions_for_range(&self, lo: &Value, hi: &Value) -> Vec<usize> {
        match self.locality {
            IndexLocality::Global => self.partitioner.partitions_for_range(lo, hi),
            IndexLocality::Local => (0..self.trees.len()).collect(),
        }
    }

    /// Number of distinct keys in one partition (diagnostic / tests; 0 for
    /// a partition the index lacks).
    pub fn distinct_keys_in(&self, partition: usize) -> usize {
        self.trees
            .get(partition)
            .map_or(0, |tp| tp.read().tree.len())
    }

    /// Total bytes of this index's entry pages, resident or spilled.
    pub fn total_bytes(&self) -> usize {
        self.pool.total_bytes_of(&page_ns_name(&self.name))
    }

    /// Bytes of this index's entry pages currently resident in the pool.
    pub fn resident_bytes(&self) -> usize {
        self.pool.resident_bytes_of(&page_ns_name(&self.name))
    }
}

/// The page namespace an index named `name` pages under.
fn page_ns_name(name: &str) -> String {
    format!("idx:{name}")
}

impl std::fmt::Debug for BtreeFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BtreeFile")
            .field("name", &self.name)
            .field("base", &self.base)
            .field("locality", &self.locality)
            .field("partitions", &self.trees.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ByteBudget;

    #[test]
    fn entry_roundtrip() {
        let e = IndexEntry::new(Value::Int(12), Value::str("pk-7"));
        let r = e.to_record();
        assert_eq!(IndexEntry::from_record(&r).unwrap(), e);
    }

    #[test]
    fn entry_decode_rejects_plain_records() {
        assert!(IndexEntry::from_record(&Record::from_text("just a line")).is_err());
    }

    fn global_index() -> BtreeFile {
        BtreeFile::new(&IndexSpec::global("ix", "base", 4)).unwrap()
    }

    #[test]
    fn global_probe_routes_to_one_partition() {
        let ix = global_index();
        for i in 0..100i64 {
            ix.insert(
                Value::Int(i),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        for i in 0..100i64 {
            let parts = ix.probe_partitions_for_key(&Value::Int(i));
            assert_eq!(parts.len(), 1);
            let hits = ix.lookup_in(parts[0], &Value::Int(i));
            assert_eq!(hits.len(), 1, "key {i}");
        }
        // Absent key: empty postings, same routing.
        let parts = ix.probe_partitions_for_key(&Value::Int(1000));
        assert!(ix.lookup_in(parts[0], &Value::Int(1000)).is_empty());
    }

    #[test]
    fn local_probe_consults_every_partition() {
        let ix = BtreeFile::new(&IndexSpec::local("ix", "base", 4)).unwrap();
        assert_eq!(
            ix.probe_partitions_for_key(&Value::Int(5)),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            ix.probe_partitions_for_range(&Value::Int(0), &Value::Int(1)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn duplicate_keys_accumulate_postings() {
        let ix = global_index();
        for i in 0..5 {
            ix.insert(
                Value::Int(42),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        let p = ix.partition_of_key(&Value::Int(42));
        assert_eq!(ix.lookup_in(p, &Value::Int(42)).len(), 5);
        assert_eq!(ix.len(), 5);
        assert_eq!(ix.distinct_keys_in(p), 1);
    }

    #[test]
    fn lookup_batch_matches_scalar_lookups_and_shares_descents() {
        let ix = BtreeFile::new(&IndexSpec::global("ix", "base", 1)).unwrap();
        for i in 0..512i64 {
            for dup in 0..(1 + i % 3) {
                ix.insert(
                    Value::Int(i),
                    IndexEntry::new(Value::Int(dup), Value::Int(i)).to_record(),
                )
                .unwrap();
            }
        }
        // Shuffled probe set with misses and duplicates mixed in.
        let keys: Vec<Value> = (0..128i64).map(|i| Value::Int((i * 37) % 600)).collect();
        let (batched, descents, _) = ix.lookup_batch(0, &keys).unwrap();
        assert_eq!(batched.len(), keys.len());
        for (key, postings) in keys.iter().zip(&batched) {
            assert_eq!(postings, &ix.lookup_in(0, key), "key {key:?}");
        }
        // Shared descents: far fewer traversals than probes.
        assert!(
            descents < keys.len(),
            "expected shared descents, got {descents} for {} keys",
            keys.len()
        );
    }

    #[test]
    fn range_probe_is_ordered_and_inclusive() {
        let ix = BtreeFile::new(&IndexSpec::global("ix", "base", 1)).unwrap();
        for i in 0..50i64 {
            ix.insert(
                Value::Int(i),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        let (hits, _) = ix.range_in(0, &Value::Int(10), &Value::Int(15)).unwrap();
        let keys: Vec<i64> = hits
            .iter()
            .map(|r| IndexEntry::from_record(r).unwrap().key.as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn insert_at_rejects_bad_partition() {
        let ix = global_index();
        assert!(ix
            .insert_at(99, Value::Int(1), Record::from_text("x"))
            .is_err());
    }

    #[test]
    fn a_local_key_is_held_by_the_one_partition_it_was_posted_to() {
        let ix = BtreeFile::new(&IndexSpec::local("ix", "base", 4)).unwrap();
        let entry = IndexEntry::new(Value::Int(7), Value::Int(7)).to_record();
        ix.insert_at(2, Value::Int(7), entry.clone()).unwrap();
        assert_eq!(ix.partition_holding(&Value::Int(7)), Some(2));
        // Posting the key again into the same partition keeps it there.
        ix.insert_at(2, Value::Int(7), entry.clone()).unwrap();
        assert_eq!(ix.partition_holding(&Value::Int(7)), Some(2));
        // An unseen key is held nowhere.
        assert_eq!(ix.partition_holding(&Value::Int(8)), None);
        // A key posted to a second partition has no single holder.
        ix.insert_at(0, Value::Int(1), entry.clone()).unwrap();
        ix.insert_at(3, Value::Int(1), entry).unwrap();
        assert_eq!(ix.partition_holding(&Value::Int(1)), None);
        // Probe sets are unchanged: holders steer routing, not lookups.
        assert_eq!(
            ix.probe_partitions_for_key(&Value::Int(7)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn range_partitioned_global_index_bounds_range_probes() {
        let spec = IndexSpec {
            name: "ix".into(),
            base: "base".into(),
            locality: IndexLocality::Global,
            partitioning: Partitioning::range(vec![Value::Int(100), Value::Int(200)]),
        };
        let ix = BtreeFile::new(&spec).unwrap();
        assert_eq!(
            ix.probe_partitions_for_range(&Value::Int(0), &Value::Int(50)),
            vec![0]
        );
        assert_eq!(
            ix.probe_partitions_for_range(&Value::Int(150), &Value::Int(250)),
            vec![1, 2]
        );
    }

    #[test]
    fn evicted_index_faults_back_byte_identical_postings() {
        // Small pages + a ~4-page budget: building 600 entries must evict,
        // probing cold keys must fault, answers must match a resident twin.
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(4 * 512)));
        let spec = IndexSpec::global("ix", "base", 2);
        let paged = BtreeFile::with_pool(&spec, pool.clone(), 512).unwrap();
        let resident = BtreeFile::new(&spec).unwrap();
        for i in 0..200i64 {
            for dup in 0..3 {
                let e = IndexEntry::new(Value::Int(dup), Value::Int(i)).to_record();
                paged.insert(Value::Int(i), e.clone()).unwrap();
                resident.insert(Value::Int(i), e).unwrap();
            }
        }
        assert!(pool.stats().evictions > 0, "build must overflow the budget");
        let mut faults = 0;
        for i in 0..200i64 {
            let p = paged.partition_of_key(&Value::Int(i));
            let (hits, s) = paged.probe(p, &Value::Int(i)).unwrap();
            assert_eq!(hits, resident.lookup_in(p, &Value::Int(i)), "key {i}");
            faults += s.faults;
        }
        assert!(faults > 0, "cold probes must fault entry pages back in");
        assert_eq!(paged.len(), 600);
        assert!(paged.total_bytes() > paged.resident_bytes());
        // Ranges survive the churn too.
        for p in 0..2 {
            assert_eq!(
                paged
                    .range_in(p, &Value::Int(50), &Value::Int(60))
                    .unwrap()
                    .0,
                resident
                    .range_in(p, &Value::Int(50), &Value::Int(60))
                    .unwrap()
                    .0
            );
        }
    }
}
