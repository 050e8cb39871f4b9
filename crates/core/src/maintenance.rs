//! Lazy structure maintenance: building indexes from registered access
//! methods.
//!
//! "ReDe builds indexes flexibly in the background by using registered
//! Interpreters and Referencers. An Interpreter for a File extracts a
//! partition key and an index key in the partition from each record …
//! Then, ReDe lazily creates indexes by using the emitted pair" (§ III-D).
//!
//! [`IndexBuilder`] replays a base file through two interpreters — one
//! extracting the indexed attribute (possibly multi-valued for nested
//! schemas), one extracting the base record's partition key — and folds the
//! resulting `(index key, pointer)` pairs into a [`BtreeFile`]. A record
//! becomes postings in one place, `Postings`, in two halves: `interpret`
//! runs the interpreters and may fail, `Posting::insert` writes the
//! entries. A build calls one right after the other; a commit
//! (`txn.rs`) interprets every write before it logs anything, and
//! inserts the postings of each key's first version as it applies the
//! write, so an index under ingest is current at every published cut.
//! A build runs on its caller's thread:
//! loaders call [`IndexBuilder::build`], background builds go through
//! `HarborScheduler::ensure_index`. A query arriving before the build
//! finishes simply does not find the index in the catalog and falls back to
//! whatever access path it was defined with.
//!
//! [`BtreeFile`]: rede_storage::BtreeFile

use crate::traits::Interpreter;
use rede_common::{RedeError, Result, Value};
use rede_storage::{IndexEntry, IndexHandle, IndexLocality, IndexSpec, Record, SimCluster};
use std::sync::Arc;
use std::time::Duration;

/// Statistics from one index build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexBuildReport {
    /// Name of the built index.
    pub index: String,
    /// Base records scanned.
    pub records_scanned: u64,
    /// Entries inserted (≥ records for multi-valued attributes, ≤ for
    /// records lacking the attribute).
    pub entries: u64,
    /// Build duration.
    pub elapsed: Duration,
    /// Total bytes of the built structure's entry pages, resident or
    /// spilled to the simulated disk — the *build* cost in space.
    pub structure_bytes: usize,
    /// Bytes of those pages actually resident in the buffer pool when the
    /// build finished — the *resident* cost. Under memory pressure this
    /// is smaller than `structure_bytes`: building a structure no longer
    /// implies holding all of it in memory.
    pub resident_bytes: usize,
}

/// How a base record becomes index postings: the pair of interpreters a
/// build scans with and a commit posts its writes with.
pub(crate) struct Postings {
    /// Extracts the indexed attribute's value(s) from a raw base record.
    pub(crate) index_key: Arc<dyn Interpreter>,
    /// Extracts the base record's partition key. `None` means the base
    /// file is partitioned by its in-partition key (the common primary-key
    /// layout), so the record key itself is used.
    pub(crate) partition_key: Option<Arc<dyn Interpreter>>,
}

/// One base record's postings, interpreted but not yet inserted: the
/// entry pointing back at the record, under each of its index keys.
pub(crate) struct Posting {
    entry: Record,
    index_keys: Vec<Value>,
}

impl Postings {
    /// Interpret `record` (key `record_key`) into its postings. A
    /// partition-key interpreter must yield exactly one value.
    pub(crate) fn interpret(&self, record_key: &Value, record: &Record) -> Result<Posting> {
        let partition_key = match &self.partition_key {
            Some(interp) => match <[Value; 1]>::try_from(interp.extract(record)?) {
                Ok([key]) => key,
                Err(vals) => {
                    return Err(RedeError::Interpret(format!(
                        "partition-key interpreter produced {} values (want 1)",
                        vals.len()
                    )))
                }
            },
            None => record_key.clone(),
        };
        Ok(Posting {
            index_keys: self.index_key.extract(record)?,
            entry: IndexEntry::new(partition_key, record_key.clone()).to_record(),
        })
    }
}

impl Posting {
    /// Insert these postings of a record stored in base partition
    /// `base_partition` into `index`: one entry per index key. Returns
    /// the entries inserted.
    pub(crate) fn insert(self, index: &IndexHandle, base_partition: usize) -> Result<u64> {
        let is_local = matches!(index.raw().locality(), IndexLocality::Local);
        let inserted = self.index_keys.len() as u64;
        for ik in self.index_keys {
            if is_local {
                index.insert_at(base_partition, ik, self.entry.clone())?;
            } else {
                index.insert(ik, self.entry.clone())?;
            }
        }
        Ok(inserted)
    }
}

/// Builds one index over one base file from registered interpreters.
pub struct IndexBuilder {
    cluster: SimCluster,
    spec: IndexSpec,
    postings: Postings,
}

impl IndexBuilder {
    /// Builder for `spec`, extracting index keys with `index_key`.
    pub fn new(cluster: SimCluster, spec: IndexSpec, index_key: Arc<dyn Interpreter>) -> Self {
        IndexBuilder {
            cluster,
            spec,
            postings: Postings {
                index_key,
                partition_key: None,
            },
        }
    }

    /// Use a distinct partition-key interpreter (for base files whose
    /// partition key differs from the record key, e.g. Lineitem partitioned
    /// by `l_orderkey` with composite record keys).
    pub fn with_partition_key(mut self, interp: Arc<dyn Interpreter>) -> Self {
        self.postings.partition_key = Some(interp);
        self
    }

    /// The spec this builder will realize.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// The cluster this builder writes into.
    pub(crate) fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Build synchronously: register the index, scan the base file, insert
    /// all entries. On interpreter failure the partially built index is
    /// deregistered is *not* attempted — the error propagates and the
    /// caller decides (matching the lake philosophy: structures are
    /// auxiliary and rebuildable).
    pub fn build(&self) -> Result<IndexBuildReport> {
        let start = std::time::Instant::now();
        let base = self.cluster.file(&self.spec.base)?;
        let index = self.cluster.create_index(self.spec.clone())?;
        let is_local = matches!(self.spec.locality, IndexLocality::Local);
        if is_local && index.partitions() != base.partitions() {
            return Err(RedeError::Config(format!(
                "local index '{}' must match base partition count {} (got {})",
                self.spec.name,
                base.partitions(),
                index.partitions()
            )));
        }

        let mut scanned = 0u64;
        let mut entries = 0u64;
        for p in 0..base.partitions() {
            let mut failure: Option<RedeError> = None;
            base.raw().for_each_in_partition(p, |key, record| {
                if failure.is_some() {
                    return;
                }
                scanned += 1;
                let posted = self.postings.interpret(key, record);
                match posted.and_then(|posting| posting.insert(&index, p)) {
                    Ok(n) => entries += n,
                    Err(e) => failure = Some(e),
                }
            })?;
            if let Some(e) = failure {
                return Err(e);
            }
        }
        Ok(IndexBuildReport {
            index: self.spec.name.clone(),
            records_scanned: scanned,
            entries,
            elapsed: start.elapsed(),
            structure_bytes: index.raw().total_bytes(),
            resident_bytes: index.raw().resident_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prebuilt::{DelimitedInterpreter, FieldType};
    use rede_storage::{FileSpec, Partitioning, Pointer, Record};

    fn cluster_with_base() -> SimCluster {
        let c = SimCluster::builder().nodes(2).build().unwrap();
        let f = c
            .create_file(FileSpec::new("base", Partitioning::hash(4)))
            .unwrap();
        for i in 0..200i64 {
            // key | group | weight
            f.insert(
                Value::Int(i),
                Record::from_text(&format!("{i}|{}|{}", i % 7, i * 2)),
            )
            .unwrap();
        }
        c
    }

    #[test]
    fn builds_global_index_with_all_entries() {
        let c = cluster_with_base();
        let report = IndexBuilder::new(
            c.clone(),
            IndexSpec::global("base.group", "base", 4),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        )
        .build()
        .unwrap();
        assert_eq!(report.records_scanned, 200);
        assert_eq!(report.entries, 200);

        let ix = c.index("base.group").unwrap();
        assert_eq!(ix.len(), 200);
        // Key 3 occurs for i in {3, 10, 17, ...}: ceil((200-3)/7) = 29 postings.
        let hits = ix.lookup(&Value::Int(3), 0).unwrap();
        assert_eq!(hits.len(), 29);
        // Entries point back at real base records.
        let e = IndexEntry::from_record(&hits[0]).unwrap();
        let rec = c
            .resolve(
                &rede_storage::Pointer::logical("base", e.partition_key.clone(), e.key.clone()),
                0,
            )
            .unwrap();
        assert_eq!(rec.field(1, '|').unwrap(), "3");
    }

    #[test]
    fn builds_local_index_copartitioned() {
        let c = cluster_with_base();
        IndexBuilder::new(
            c.clone(),
            IndexSpec::local("base.weight", "base", 4),
            Arc::new(DelimitedInterpreter::pipe(2, FieldType::Int)),
        )
        .build()
        .unwrap();
        let ix = c.index("base.weight").unwrap();
        assert_eq!(ix.len(), 200);
        // Entry for key i lives in the partition of base record i.
        let base = c.file("base").unwrap();
        let hits = ix.lookup(&Value::Int(84), 0).unwrap(); // record 42
        assert_eq!(hits.len(), 1);
        let e = IndexEntry::from_record(&hits[0]).unwrap();
        assert_eq!(e.key, Value::Int(42));
        let base_partition = base.partition_of(&Value::Int(42));
        // Probe only that partition directly to confirm co-location.
        assert_eq!(ix.raw().lookup_in(base_partition, &Value::Int(84)).len(), 1);
    }

    /// A pointer into a local index routes to the one partition whose
    /// tree holds its key, and nowhere (`None`) when several do or none
    /// does: the key's set of base partitions decides, as read off the
    /// base file here.
    #[test]
    fn local_index_pointers_route_by_the_partitions_their_key_was_posted_to() {
        /// Record `i`'s own key below 100 (one base partition each), one of
        /// seven shared keys above (spread over the base's partitions).
        struct Mixed;
        impl Interpreter for Mixed {
            fn extract(&self, record: &Record) -> Result<Vec<Value>> {
                let i: i64 = record.field(0, '|')?.parse().expect("int key");
                Ok(vec![Value::Int(if i < 100 { i } else { 1000 + i % 7 })])
            }
        }
        let c = cluster_with_base();
        IndexBuilder::new(
            c.clone(),
            IndexSpec::local("base.mixed", "base", 4),
            Arc::new(Mixed),
        )
        .build()
        .unwrap();
        let base = c.file("base").unwrap();
        let mut holders: std::collections::BTreeMap<i64, std::collections::BTreeSet<usize>> =
            Default::default();
        for i in 0..200i64 {
            let key = if i < 100 { i } else { 1000 + i % 7 };
            holders
                .entry(key)
                .or_default()
                .insert(base.partition_of(&Value::Int(i)));
        }
        let (mut unique, mut spread) = (0, 0);
        for (key, parts) in &holders {
            let expected = parts.first().filter(|_| parts.len() == 1).copied();
            unique += usize::from(expected.is_some());
            spread += usize::from(parts.len() > 1);
            let ptr = Pointer::logical("base.mixed", Value::Int(*key), Value::Int(*key));
            assert_eq!(c.partition_of_pointer(&ptr), expected, "key {key}");
        }
        assert_eq!((unique, spread), (100, 7), "both kinds of key are covered");
        let unseen = Pointer::logical("base.mixed", Value::Int(-1), Value::Int(-1));
        assert_eq!(c.partition_of_pointer(&unseen), None);
    }

    #[test]
    fn local_index_partition_mismatch_rejected() {
        let c = cluster_with_base();
        let err = IndexBuilder::new(
            c,
            IndexSpec::local("bad", "base", 8), // base has 4 partitions
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        )
        .build();
        assert!(matches!(err, Err(RedeError::Config(_))));
    }

    #[test]
    fn interpreter_failure_propagates() {
        let c = cluster_with_base();
        let err = IndexBuilder::new(
            c,
            IndexSpec::global("bad", "base", 4),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Date)), // column is int
        )
        .build();
        assert!(matches!(err, Err(RedeError::Interpret(_))));
    }

    /// The build's base scan goes through the fallible reads: with every
    /// resident frame of a floor-sized budget pinned, faulting partition 0
    /// back in is refused and the build reports it instead of panicking.
    #[test]
    fn build_reports_an_exhausted_page_budget() {
        use rede_storage::buffer::PageId;
        let c = SimCluster::builder()
            .nodes(1)
            .memory_budget(rede_storage::cluster::MIN_MEMORY_BUDGET)
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("base", Partitioning::hash(4)))
            .unwrap();
        // Each partition alone is most of the 16-page budget.
        for i in 0..2000i64 {
            let row = format!("{i}|{}|{}", i % 7, "x".repeat(60));
            f.insert(Value::Int(i), Record::from_text(&row)).unwrap();
        }
        // Pin from the last partition down until the pool refuses; what is
        // left unpinned — all of partition 0 — is on disk by then.
        let pool = c.buffer_pool();
        let ns = pool.namespace("heap:base");
        let mut guards = Vec::new();
        'pin: for partition in (1..4).rev() {
            for page_no in 0.. {
                let id = PageId {
                    ns,
                    partition,
                    page_no,
                };
                match pool.fetch(&id) {
                    Ok((guard, _)) => guards.push(guard),
                    Err(RedeError::NotFound(_)) => break,
                    Err(RedeError::Overloaded(_)) => break 'pin,
                    Err(e) => panic!("unexpected pool error: {e:?}"),
                }
            }
        }
        assert!(f.raw().resident_bytes() > 0 && !guards.is_empty());
        let err = IndexBuilder::new(
            c.clone(),
            IndexSpec::global("base.group", "base", 4),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        )
        .build();
        assert!(matches!(err, Err(RedeError::Overloaded(_))), "{err:?}");
    }

    #[test]
    fn missing_base_fails_before_registering() {
        let c = SimCluster::builder().nodes(1).build().unwrap();
        let err = IndexBuilder::new(
            c.clone(),
            IndexSpec::global("ix", "nope", 2),
            Arc::new(DelimitedInterpreter::pipe(0, FieldType::Int)),
        )
        .build();
        assert!(err.is_err());
        assert!(
            c.index("ix").is_err(),
            "index must not be registered on failure"
        );
    }
}
