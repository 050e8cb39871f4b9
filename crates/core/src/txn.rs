//! Online writes with snapshot visibility — the ingest side of keeping
//! structures first-class under mutation.
//!
//! The paper's engine treats structures (heaps, indexes) as first-class,
//! lazily built citizens — but the evaluation freezes the lake while
//! queries run. This module removes that restriction:
//!
//! * [`TxnManager`] owns the write path for one cluster: a
//!   [`WriteAheadLog`] (durability), a monotonic commit clock (ordering),
//!   and the indexes every commit posts into (freshness).
//! * [`IngestSession`] buffers one transaction's operations and commits
//!   them atomically: interpretation of every write for every maintained
//!   index first, then WAL frames, then versioned heap application with
//!   each new key's index postings, then the clock advance that makes the
//!   transaction visible. Durability is a group-committed fsync *after*
//!   the commit lock is released, so concurrent committers share one
//!   [`IoModel::wal_fsync`] sleep.
//! * [`Snapshot`] pins a commit timestamp. A reader holding a snapshot —
//!   every SMPE job gets one at submit when ingest is attached — sees the
//!   newest version committed at or before its cut and nothing younger,
//!   however long it runs and however many transactions land meanwhile.
//!
//! Index maintenance is write-through: a commit posts the entries of
//! each key it writes first through the build's own routine
//! ([`crate::maintenance`]), before it publishes its timestamp. An index
//! is therefore current at every published cut, probes never check for
//! freshness, and no thread runs on a commit's behalf. Postings address
//! keys, not versions, so an overwrite posts nothing and the snapshot
//! filter on the probe side picks the visible version.
//!
//! Visibility rule, enforced in `SimCluster::resolve`/`resolve_batch` and
//! the scan/index paths: a version with commit timestamp `t` is visible
//! at snapshot `s` iff `t <= s` and no newer version of the same key has
//! timestamp `<= s`. Records written before the first versioned write
//! carry implicit timestamp 0 — visible to every snapshot.
//!
//! The read-only path stays zero-overhead: with no [`TxnManager`]
//! attached nothing is pinned, and on a never-written heap the entire
//! machinery is one relaxed boolean load.
//!
//! [`IoModel::wal_fsync`]: rede_storage::IoModel

use crate::maintenance::Postings;
use crate::traits::Interpreter;
use parking_lot::Mutex;
use rede_common::{Counter, Metrics, RedeError, Result, Value};
use rede_storage::{FileSpec, IndexHandle, Partitioning, Record, SimCluster, WalOp, WriteAheadLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pinned commit timestamp. Reads issued through a cluster handle
/// carrying this snapshot's timestamp see the cut committed at `ts()` and
/// nothing younger. The `snapshots_active` gauge counts live pins; the
/// guard releases it on drop.
#[derive(Debug)]
pub struct Snapshot {
    ts: u64,
    metrics: Metrics,
}

impl Snapshot {
    /// The pinned commit timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.metrics.leave(Counter::snapshots_active);
    }
}

/// An index every commit posts into, with the routine that posts.
struct MaintainedIndex {
    index: IndexHandle,
    postings: Postings,
}

impl MaintainedIndex {
    fn covers(&self, file: &str) -> bool {
        **self.index.base() == *file
    }
}

/// The write path of one cluster: WAL + commit clock + write-through
/// index maintenance. Cheap to share via `Arc`; all methods take `&self`.
pub struct TxnManager {
    cluster: SimCluster,
    wal: Arc<WriteAheadLog>,
    /// Timestamp of the newest committed transaction. Advanced *after*
    /// the transaction's writes and postings are fully applied, so a
    /// snapshot pinned at the current clock never observes a half-applied
    /// transaction.
    clock: AtomicU64,
    /// Serializes committers: one transaction stamps, logs, applies and
    /// posts at a time. It guards the indexes commits post into, so an
    /// index registers between two commits, never inside one. The
    /// group-commit fsync happens outside this lock.
    commit_lock: Mutex<Vec<MaintainedIndex>>,
}

impl TxnManager {
    /// A fresh write path over `cluster` with an empty log. The WAL's
    /// fsync latency comes from the cluster's [`rede_storage::IoModel`].
    pub fn new(cluster: SimCluster) -> Arc<TxnManager> {
        let fsync = cluster.io_model().wal_fsync;
        let clock = cluster.max_commit_ts();
        Arc::new(TxnManager {
            cluster,
            wal: Arc::new(WriteAheadLog::new(fsync)),
            clock: AtomicU64::new(clock),
            commit_lock: Mutex::new(Vec::new()),
        })
    }

    /// Reopen a write path from a surviving log image (crash recovery):
    /// the valid frame prefix is replayed into `cluster`, rebuilding every
    /// committed transaction's heap state; torn or corrupt tails are
    /// discarded. Idempotent — transactions the cluster already holds
    /// (by its commit watermark) are skipped, so replaying twice is safe.
    pub fn recover(cluster: SimCluster, log_image: Vec<u8>) -> Result<Arc<TxnManager>> {
        let fsync = cluster.io_model().wal_fsync;
        let wal = WriteAheadLog::from_bytes(log_image, fsync);
        let replayed = wal.replay_into(&cluster)?;
        let clock = replayed.max(cluster.max_commit_ts());
        Ok(Arc::new(TxnManager {
            cluster,
            wal: Arc::new(wal),
            clock: AtomicU64::new(clock),
            commit_lock: Mutex::new(Vec::new()),
        }))
    }

    /// The cluster this manager writes into.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// The write-ahead log (tests, crash simulation via
    /// [`WriteAheadLog::bytes`]).
    pub fn wal(&self) -> &Arc<WriteAheadLog> {
        &self.wal
    }

    /// Timestamp of the newest committed transaction.
    pub fn current_ts(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Pin the current committed cut. The returned guard's timestamp can
    /// seed any number of [`SimCluster::with_snapshot`] handles; the
    /// `snapshots_active` gauge stays raised until the guard drops.
    pub fn pin(&self) -> Snapshot {
        let metrics = self.cluster.metrics().clone();
        metrics.enter(Counter::snapshots_active);
        Snapshot {
            ts: self.current_ts(),
            metrics,
        }
    }

    /// Start buffering one transaction.
    pub fn begin(self: &Arc<Self>) -> IngestSession {
        IngestSession {
            mgr: self.clone(),
            ops: Vec::new(),
        }
    }

    /// Keep an existing index current under ingest: every later commit
    /// posts the entries of each key it writes first to the index's base
    /// file. Must be called while the index is in sync with its base
    /// (typically right after it was built). Registration takes the
    /// commit lock, so it falls between two commits.
    ///
    /// `index_key` extracts the indexed key(s) from a base record;
    /// `partition_key` extracts the entry's partition key (the record key
    /// itself when `None`) — the same contract as
    /// [`crate::maintenance::IndexBuilder`].
    pub fn maintain_index(
        &self,
        index: &str,
        index_key: Arc<dyn Interpreter>,
        partition_key: Option<Arc<dyn Interpreter>>,
    ) -> Result<()> {
        let index = self.cluster.index(index)?;
        self.commit_lock.lock().push(MaintainedIndex {
            index,
            postings: Postings {
                index_key,
                partition_key,
            },
        });
        Ok(())
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("current_ts", &self.current_ts())
            .field("durable_lsn", &self.wal.durable_lsn())
            .finish()
    }
}

/// One buffered transaction. Operations are invisible — to readers *and*
/// to the WAL — until [`IngestSession::commit`]; dropping the session
/// uncommitted discards everything.
pub struct IngestSession {
    mgr: Arc<TxnManager>,
    ops: Vec<WalOp>,
}

impl IngestSession {
    /// Buffer a file creation.
    pub fn create_file(&mut self, name: impl Into<String>, partitioning: Partitioning) {
        self.ops.push(WalOp::CreateFile {
            name: name.into(),
            partitioning,
        });
    }

    /// Buffer a write partitioned and keyed by `key`.
    pub fn write(&mut self, file: impl Into<String>, key: Value, record: Record) {
        let partition_key = key.clone();
        self.ops.push(WalOp::Write {
            file: file.into(),
            partition_key,
            key,
            record,
        });
    }

    /// Buffered operations so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commit the transaction; returns its commit timestamp (the current
    /// clock unchanged for an empty session). The sequence:
    ///
    /// 1. under the commit lock: interpret every write for every index
    ///    maintained on its file — a record an index cannot post fails
    ///    the commit here, with nothing logged, applied or published;
    /// 2. stamp `ts = clock + 1`, append every operation plus a commit
    ///    frame to the WAL, apply the writes as versions stamped `ts`,
    ///    posting each key's first version into those indexes, then
    ///    advance the clock — so the transaction and its postings become
    ///    visible all-at-once and only when complete;
    /// 3. after releasing the lock: force the log ([`WriteAheadLog::flush`]
    ///    group-commits, so concurrent committers share one fsync sleep).
    ///
    /// An application error (e.g. a write naming a missing file) aborts
    /// mid-apply: the clock never advances, so pinned snapshots stay
    /// consistent, but the transaction's frames remain in the log and its
    /// applied prefix in the heaps and indexes — recover from a fresh
    /// cluster rather than continuing on one that returned an error here.
    pub fn commit(self) -> Result<u64> {
        let IngestSession { mgr, ops } = self;
        if ops.is_empty() {
            return Ok(mgr.current_ts());
        }
        let metrics = mgr.cluster.metrics();
        let maintained = mgr.commit_lock.lock();
        let interpreted = ops
            .iter()
            .map(|op| match op {
                WalOp::Write {
                    file, key, record, ..
                } => maintained
                    .iter()
                    .filter(|m| m.covers(file))
                    .map(|m| m.postings.interpret(key, record))
                    .collect(),
                _ => Ok(Vec::new()),
            })
            .collect::<Result<Vec<_>>>()?;
        let ts = mgr.clock.load(Ordering::Acquire) + 1;
        for op in &ops {
            let (_, bytes) = mgr.wal.append(op);
            metrics.record_wal_append(bytes);
        }
        let (last_lsn, bytes) = mgr.wal.append(&WalOp::Commit { ts });
        metrics.record_wal_append(bytes);
        for (op, postings) in ops.into_iter().zip(interpreted) {
            match op {
                WalOp::CreateFile { name, partitioning } => {
                    match mgr.cluster.create_file(FileSpec::new(name, partitioning)) {
                        Ok(_) | Err(RedeError::AlreadyExists(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                WalOp::Write {
                    file,
                    partition_key,
                    key,
                    record,
                } => {
                    let (partition, first) = mgr.cluster.file(&file)?.insert_versioned(
                        &partition_key,
                        key,
                        record,
                        ts,
                    )?;
                    if first {
                        let indexes = maintained.iter().filter(|m| m.covers(&file));
                        for (m, posting) in indexes.zip(postings) {
                            posting.insert(&m.index, partition)?;
                        }
                    }
                }
                WalOp::Commit { .. } => unreachable!("sessions never buffer commit frames"),
            }
        }
        mgr.clock.store(ts, Ordering::Release);
        drop(maintained);
        mgr.wal.flush(last_lsn);
        Ok(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::IndexBuilder;
    use crate::prebuilt::{DelimitedInterpreter, FieldType};
    use rede_storage::{IndexEntry, IndexSpec, Pointer};
    use std::sync::atomic::AtomicBool;

    fn cluster() -> SimCluster {
        SimCluster::builder().nodes(2).build().unwrap()
    }

    fn row(k: i64) -> Record {
        Record::from_text(&format!("{k}|{}", k * 7))
    }

    #[test]
    fn commit_makes_writes_visible_and_advances_the_clock() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        assert_eq!(mgr.current_ts(), 0);
        let mut s = mgr.begin();
        s.create_file("t", Partitioning::hash(4));
        for k in 0..8 {
            s.write("t", Value::Int(k), row(k));
        }
        let ts = s.commit().unwrap();
        assert_eq!(ts, 1);
        assert_eq!(mgr.current_ts(), 1);
        assert_eq!(c.max_commit_ts(), 1);
        let got = c
            .resolve(&Pointer::logical("t", Value::Int(3), Value::Int(3)), 0)
            .unwrap();
        assert_eq!(got.bytes(), row(3).bytes());
        // Durability: the group-committed flush covered every frame.
        assert_eq!(mgr.wal().durable_lsn(), mgr.wal().last_lsn());
        let snap = c.metrics().snapshot();
        assert_eq!(snap.wal_appends, 10); // create + 8 writes + commit
        assert!(snap.wal_bytes > 0);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        let before = c.metrics().snapshot();
        assert_eq!(mgr.begin().commit().unwrap(), 0);
        assert_eq!(mgr.current_ts(), 0);
        let delta = c.metrics().snapshot().since(&before);
        assert_eq!(delta.wal_appends, 0);
    }

    #[test]
    fn snapshot_pins_the_cut_while_the_tip_moves_on() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("t", Partitioning::hash(4));
        s.write("t", Value::Int(1), Record::from_text("v1"));
        s.commit().unwrap();

        let pin = mgr.pin();
        assert_eq!(pin.ts(), 1);
        assert_eq!(c.metrics().snapshots_active(), 1);

        let mut s = mgr.begin();
        s.write("t", Value::Int(1), Record::from_text("v2"));
        assert_eq!(s.commit().unwrap(), 2);

        let ptr = Pointer::logical("t", Value::Int(1), Value::Int(1));
        // The pinned handle keeps reading the old cut...
        let pinned = c.with_snapshot(pin.ts());
        assert_eq!(pinned.resolve(&ptr, 0).unwrap().bytes(), b"v1");
        // ...while the live tip sees the overwrite.
        assert_eq!(c.resolve(&ptr, 0).unwrap().bytes(), b"v2");
        // And a snapshot taken now sees the new version.
        let pin2 = mgr.pin();
        let newer = c.with_snapshot(pin2.ts());
        assert_eq!(newer.resolve(&ptr, 0).unwrap().bytes(), b"v2");
        assert_eq!(c.metrics().snapshots_active(), 2);
        drop(pin);
        drop(pin2);
        assert_eq!(c.metrics().snapshots_active(), 0);
    }

    /// Base file `base` (4 partitions) holding rows `0..rows`, with the
    /// global index `base.v` over column 1 built and maintained by `mgr`.
    fn maintained_base(c: &SimCluster, mgr: &Arc<TxnManager>, rows: i64) {
        let mut s = mgr.begin();
        s.create_file("base", Partitioning::hash(4));
        for k in 0..rows {
            s.write("base", Value::Int(k), row(k));
        }
        s.commit().unwrap();
        let interp = || Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int));
        IndexBuilder::new(c.clone(), IndexSpec::global("base.v", "base", 4), interp())
            .build()
            .unwrap();
        mgr.maintain_index("base.v", interp(), None).unwrap();
    }

    /// Entries under index key `k * 7` (row `k`'s column 1), read straight
    /// from the index: uncharged, unfiltered, immediate.
    fn posted(index: &IndexHandle, k: i64) -> Vec<Value> {
        let ik = Value::Int(k * 7);
        let p = index.raw().probe_partition_for_key(&ik).unwrap();
        let entries = index.raw().lookup_in(p, &ik);
        let entries = entries.iter().map(|e| IndexEntry::from_record(e).unwrap());
        entries.map(|e| e.key).collect()
    }

    /// Write-through maintenance: a cut is published only once its
    /// postings are in. A reader beside the writer checks the last key of
    /// whatever commit it sees published; publishing the clock before
    /// posting fails it.
    #[test]
    fn a_commit_posts_its_first_versions_before_it_publishes() {
        const ROWS: i64 = 50;
        const COMMITS: i64 = 50;
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        maintained_base(&c, &mgr, 10);
        let early = mgr.pin();
        let ix = c.index("base.v").unwrap();
        // Commit `ts` (2, 3, …) writes rows 10 + (ts - 2) * ROWS onward.
        let last_key = |ts: u64| 10 + (ts as i64 - 1) * ROWS - 1;
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let ts = mgr.current_ts();
                    if ts > early.ts() {
                        let k = last_key(ts);
                        assert_eq!(
                            posted(&ix, k),
                            [Value::Int(k)],
                            "cut {ts} published unposted"
                        );
                    }
                }
            });
            start.wait();
            for g in 0..COMMITS {
                let mut s = mgr.begin();
                for k in 10 + g * ROWS..10 + (g + 1) * ROWS {
                    s.write("base", Value::Int(k), row(k));
                }
                s.commit().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let last = mgr.current_ts();
        assert_eq!(last_key(last), 10 + COMMITS * ROWS - 1);
        assert_eq!(ix.len() as i64, 10 + COMMITS * ROWS);

        // A snapshot at the last commit finds its rows through the index;
        // one pinned before the stream filters every streamed row out.
        let at_last = c.with_snapshot(last).index("base.v").unwrap();
        let at_early = c.with_snapshot(early.ts()).index("base.v").unwrap();
        for k in [3, 10, 500, last_key(last)] {
            let hits = at_last.lookup(&Value::Int(k * 7), 0).unwrap();
            assert_eq!(hits.len(), 1, "row {k} at the last cut");
            assert_eq!(
                IndexEntry::from_record(&hits[0]).unwrap().key,
                Value::Int(k)
            );
            let early_hits = at_early.lookup(&Value::Int(k * 7), 0).unwrap().len();
            assert_eq!(early_hits, usize::from(k < 10), "row {k} at the early cut");
        }

        // Overwrites post no duplicate entries: postings address keys.
        let mut s = mgr.begin();
        s.write("base", Value::Int(12), row(12));
        s.commit().unwrap();
        assert_eq!(posted(&ix, 12), [Value::Int(12)]);
        assert_eq!(ix.len() as i64, 10 + COMMITS * ROWS);
    }

    /// A posting that fails after the write was logged and applied is an
    /// application error: the commit fails and its cut is never
    /// published, so no snapshot sees its rows without their postings.
    /// A local index with fewer partitions than its base cannot post a
    /// record from a base partition it lacks.
    #[test]
    fn a_failed_posting_publishes_nothing() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        maintained_base(&c, &mgr, 0);
        c.create_index(IndexSpec::local("base.l", "base", 1))
            .unwrap();
        let interp = Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int));
        mgr.maintain_index("base.l", interp, None).unwrap();

        let ts = mgr.current_ts();
        let mut s = mgr.begin();
        for k in 0..8 {
            s.write("base", Value::Int(k), row(k));
        }
        assert!(matches!(s.commit(), Err(RedeError::Routing(_))));
        assert_eq!(mgr.current_ts(), ts, "a cut published without its postings");
        let pinned = c.with_snapshot(mgr.pin().ts());
        for k in 0..8 {
            let ptr = Pointer::logical("base", Value::Int(k), Value::Int(k));
            assert!(pinned.resolve(&ptr, 0).is_err(), "row {k} visible");
        }
    }

    /// A commit posts through the build's routine, so it takes a
    /// partition key exactly as a build does: a record whose partition-key
    /// interpreter yields two values fails both the same way. The commit
    /// fails before it logs anything, so nothing is applied and the index
    /// keeps serving.
    #[test]
    fn commit_and_build_reject_the_same_ambiguous_partition_key() {
        struct TwoKeys;
        impl Interpreter for TwoKeys {
            fn extract(&self, _record: &Record) -> Result<Vec<Value>> {
                Ok(vec![Value::Int(0), Value::Int(1)])
            }
        }
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("base", Partitioning::hash(4));
        s.commit().unwrap();
        let interp = || Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int));
        IndexBuilder::new(c.clone(), IndexSpec::global("base.v", "base", 4), interp())
            .build()
            .unwrap();
        mgr.maintain_index("base.v", interp(), Some(Arc::new(TwoKeys)))
            .unwrap();

        let (log_len, ts) = (mgr.wal().bytes().len(), mgr.current_ts());
        let mut s = mgr.begin();
        s.write("base", Value::Int(1), row(1));
        let commit = s.commit();
        // The same record, loaded outside the write path, for the build.
        c.create_file(FileSpec::new("copy", Partitioning::hash(4)))
            .unwrap()
            .insert(Value::Int(1), row(1))
            .unwrap();
        let build = IndexBuilder::new(c.clone(), IndexSpec::global("copy.v", "copy", 4), interp())
            .with_partition_key(Arc::new(TwoKeys))
            .build();
        match (commit, build) {
            (Err(RedeError::Interpret(a)), Err(RedeError::Interpret(b))) => assert_eq!(a, b),
            other => panic!("expected the same Interpret error twice, got {other:?}"),
        }
        assert_eq!(mgr.wal().bytes().len(), log_len, "nothing logged");
        assert_eq!(mgr.current_ts(), ts, "nothing published");
        assert_eq!(c.file("base").unwrap().len(), 0, "nothing applied");
        let ix = c.index("base.v").unwrap();
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.lookup(&Value::Int(7), 0).unwrap().len(), 0);
    }

    #[test]
    fn maintained_cluster_is_freed_with_its_last_outside_handle() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        maintained_base(&c, &mgr, 1);
        let pool = Arc::downgrade(c.buffer_pool());
        drop(mgr);
        drop(c);
        assert!(
            pool.upgrade().is_none(),
            "a maintained index keeps its cluster's pages alive"
        );
    }

    #[test]
    fn recover_replays_the_log_byte_identically_and_idempotently() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("t", Partitioning::hash(4));
        for k in 0..6 {
            s.write("t", Value::Int(k), row(k));
        }
        s.commit().unwrap();
        let mut s = mgr.begin();
        s.write("t", Value::Int(2), Record::from_text("patched"));
        s.commit().unwrap();
        let image = mgr.wal().bytes();

        // Crash: a brand-new cluster, rebuilt purely from the log.
        let c2 = cluster();
        let mgr2 = TxnManager::recover(c2.clone(), image.clone()).unwrap();
        assert_eq!(mgr2.current_ts(), 2);
        for k in 0..6 {
            let ptr = Pointer::logical("t", Value::Int(k), Value::Int(k));
            let want = if k == 2 {
                Record::from_text("patched")
            } else {
                row(k)
            };
            assert_eq!(c2.resolve(&ptr, 0).unwrap().bytes(), want.bytes());
        }
        // And a pinned read of the first cut still sees the pre-patch row.
        let old = c2.with_snapshot(1);
        assert_eq!(
            old.resolve(&Pointer::logical("t", Value::Int(2), Value::Int(2)), 0)
                .unwrap()
                .bytes(),
            row(2).bytes()
        );

        // Idempotence: replaying the same image into the recovered
        // cluster applies nothing new.
        let len_before = c2.file("t").unwrap().len();
        let mgr3 = TxnManager::recover(c2.clone(), image).unwrap();
        assert_eq!(mgr3.current_ts(), 2);
        assert_eq!(c2.file("t").unwrap().len(), len_before);
    }

    #[test]
    fn read_only_cluster_pays_nothing_for_the_write_path() {
        let c = cluster();
        let f = c
            .create_file(rede_storage::FileSpec::new("t", Partitioning::hash(4)))
            .unwrap();
        for k in 0..8 {
            f.insert(Value::Int(k), row(k)).unwrap();
        }
        c.resolve(&Pointer::logical("t", Value::Int(3), Value::Int(3)), 0)
            .unwrap();
        let snap = c.metrics().snapshot();
        assert_eq!(snap.wal_appends, 0);
        assert_eq!(snap.wal_bytes, 0);
        assert_eq!(snap.snapshots_active, 0);
        assert!(!f.raw().is_versioned());
    }
}
