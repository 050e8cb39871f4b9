//! Online writes with snapshot visibility — the ingest side of keeping
//! structures first-class under mutation.
//!
//! The paper's engine treats structures (heaps, indexes) as first-class,
//! lazily built citizens — but the evaluation freezes the lake while
//! queries run. This module removes that restriction:
//!
//! * [`TxnManager`] owns the write path for one cluster: a
//!   [`WriteAheadLog`] (durability), a monotonic commit clock (ordering),
//!   and the registry of write-behind index maintainers (freshness).
//! * [`IngestSession`] buffers one transaction's operations and commits
//!   them atomically: WAL frames first, then versioned heap application,
//!   then the clock advance that makes the transaction visible. Durability
//!   is a group-committed fsync *after* the commit lock is released, so
//!   concurrent committers share one [`IoModel::wal_fsync`] sleep.
//! * [`Snapshot`] pins a commit timestamp. A reader holding a snapshot —
//!   every SMPE job gets one at submit when ingest is attached — sees the
//!   newest version committed at or before its cut and nothing younger,
//!   however long it runs and however many transactions land meanwhile.
//! * `IndexCatchUp` implements [`rede_storage::IndexMaintainer`]:
//!   committed writes enqueue per-index catch-up (coalesced through the
//!   scheduler's `BuildRegistry`, so N commits in flight trigger at most
//!   one catch-up pass per structure), and a stale index transparently
//!   tops itself up before serving any probe.
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
use crate::scheduler::builds::BuildRegistry;
use crate::traits::Interpreter;
use parking_lot::Mutex;
use rede_common::{Counter, Metrics, RedeError, Result, Value};
use rede_storage::{
    FileSpec, IndexMaintainer, Partitioning, Record, SimCluster, WalOp, WeakCluster, WriteAheadLog,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// The write path of one cluster: WAL + commit clock + write-behind index
/// maintenance. Cheap to share via `Arc`; all methods take `&self`.
pub struct TxnManager {
    cluster: SimCluster,
    wal: Arc<WriteAheadLog>,
    /// Timestamp of the newest committed transaction. Advanced *after*
    /// the transaction's writes are fully applied, so a snapshot pinned
    /// at the current clock never observes a half-applied transaction.
    clock: AtomicU64,
    /// Serializes committers: one transaction stamps, logs, and applies
    /// at a time. The group-commit fsync happens outside this lock.
    commit_lock: Mutex<()>,
    maintained: Mutex<Vec<Arc<IndexCatchUp>>>,
    /// Write-behind coalescing registry, attached by the scheduler. Until
    /// attached, catch-up happens lazily at the next probe instead.
    registry: Mutex<Option<Arc<BuildRegistry>>>,
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
            commit_lock: Mutex::new(()),
            maintained: Mutex::new(Vec::new()),
            registry: Mutex::new(None),
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
            commit_lock: Mutex::new(()),
            maintained: Mutex::new(Vec::new()),
            registry: Mutex::new(None),
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

    /// Register write-behind maintenance for an existing index: committed
    /// base-file writes enqueue a coalesced catch-up pass, and any probe
    /// that arrives before the pass lands tops the index up synchronously
    /// first. Must be called while the index is in sync with its base
    /// (typically right after it was built); the maintainer then covers
    /// every write event from that point on.
    ///
    /// `index_key` extracts the indexed key(s) from a base record;
    /// `partition_key` extracts the entry's partition key (the record key
    /// itself when `None`) — the same contract as
    /// [`crate::maintenance::IndexBuilder`].
    pub fn maintain_index(
        self: &Arc<Self>,
        index: &str,
        index_key: Arc<dyn Interpreter>,
        partition_key: Option<Arc<dyn Interpreter>>,
    ) -> Result<()> {
        let handle = self.cluster.index(index)?;
        let base = handle.raw().base().to_string();
        let horizon = self.cluster.file(&base)?.raw().events_len();
        let catchup = Arc::new(IndexCatchUp {
            cluster: self.cluster.downgrade(),
            index: index.to_string(),
            base,
            postings: Postings {
                index_key,
                partition_key,
            },
            applied: AtomicUsize::new(horizon),
            pass_lock: Mutex::new(()),
        });
        handle.raw().set_maintainer(catchup.clone());
        self.maintained.lock().push(catchup);
        Ok(())
    }

    /// Attach the scheduler's build registry so committed writes enqueue
    /// background catch-up instead of leaving all maintenance to the
    /// next probe.
    pub(crate) fn attach_registry(&self, registry: Arc<BuildRegistry>) {
        *self.registry.lock() = Some(registry);
    }

    /// Write-behind: after a commit, enqueue one coalesced catch-up pass
    /// per maintained index. Errors are dropped — the next probe's
    /// synchronous top-up retries and surfaces them.
    fn enqueue_catchup(&self) {
        let registry = self.registry.lock().clone();
        let Some(registry) = registry else { return };
        let maintained = self.maintained.lock().clone();
        for m in maintained {
            let name = m.index.clone();
            registry.ensure_catchup(&name, move || {
                let _ = m.ensure_fresh();
            });
        }
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("current_ts", &self.current_ts())
            .field("durable_lsn", &self.wal.durable_lsn())
            .field("maintained", &self.maintained.lock().len())
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
    /// 1. under the commit lock: stamp `ts = clock + 1`, append every
    ///    operation plus a commit frame to the WAL, apply the writes as
    ///    versions stamped `ts`, then advance the clock — so the
    ///    transaction becomes visible all-at-once and only when complete;
    /// 2. after releasing the lock: force the log ([`WriteAheadLog::flush`]
    ///    group-commits, so concurrent committers share one fsync sleep);
    /// 3. enqueue write-behind catch-up for every maintained index.
    ///
    /// An application error (e.g. a write naming a missing file) aborts
    /// mid-apply: the clock never advances, so pinned snapshots stay
    /// consistent, but the transaction's frames remain in the log and its
    /// applied prefix in the heaps — recover from a fresh cluster rather
    /// than continuing on one that returned an error here.
    pub fn commit(self) -> Result<u64> {
        let IngestSession { mgr, ops } = self;
        if ops.is_empty() {
            return Ok(mgr.current_ts());
        }
        let metrics = mgr.cluster.metrics();
        let guard = mgr.commit_lock.lock();
        let ts = mgr.clock.load(Ordering::Acquire) + 1;
        for op in &ops {
            let (_, bytes) = mgr.wal.append(op);
            metrics.record_wal_append(bytes);
        }
        let (last_lsn, bytes) = mgr.wal.append(&WalOp::Commit { ts });
        metrics.record_wal_append(bytes);
        for op in ops {
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
                    mgr.cluster
                        .file(&file)?
                        .insert_versioned(&partition_key, key, record, ts)?;
                }
                WalOp::Commit { .. } => unreachable!("sessions never buffer commit frames"),
            }
        }
        mgr.clock.store(ts, Ordering::Release);
        drop(guard);
        mgr.wal.flush(last_lsn);
        mgr.enqueue_catchup();
        Ok(ts)
    }
}

/// Write-behind maintainer for one index (see
/// [`rede_storage::IndexMaintainer`]): tracks how far into its base
/// heap's write-event log the index's postings reach, and replays the
/// missing suffix on demand. Only *first* versions of a key post new
/// entries — postings address keys, not versions, so an overwrite keeps
/// its existing entry and the snapshot filter on the probe side picks
/// the visible version.
struct IndexCatchUp {
    /// Held weakly: the cluster's catalog owns the index that owns this
    /// maintainer, so a strong handle would keep the cluster alive forever.
    cluster: WeakCluster,
    index: String,
    base: String,
    /// The build's posting routine, so a caught-up index holds exactly
    /// the entries a rebuild would.
    postings: Postings,
    /// Write events already reflected in the index's postings.
    applied: AtomicUsize,
    /// Serializes catch-up passes so concurrent probes of a stale index
    /// replay each event exactly once.
    pass_lock: Mutex<()>,
}

impl IndexCatchUp {
    fn run(&self, cluster: &SimCluster) -> Result<()> {
        let heap = cluster.file(&self.base)?;
        let _pass = self.pass_lock.lock();
        let from = self.applied.load(Ordering::Acquire);
        let events = heap.raw().events_since(from);
        if events.is_empty() {
            return Ok(());
        }
        let index = cluster.index(&self.index)?;
        for ev in &events {
            if !ev.first {
                continue;
            }
            // Uncharged base read (the builder's scan is uncharged too);
            // the posting inserts below are charged record writes.
            let (mut rows, _, _) = heap.raw().read_slots(ev.partition, ev.slot, 1, None)?;
            let Some((key, record)) = rows.pop() else {
                continue;
            };
            self.postings.insert(&index, ev.partition, &key, &record)?;
        }
        self.applied.store(from + events.len(), Ordering::Release);
        cluster.metrics().add(Counter::catchup_builds, 1);
        Ok(())
    }
}

impl IndexMaintainer for IndexCatchUp {
    fn ensure_fresh(&self) -> Result<()> {
        // A dropped cluster has nothing left to serve.
        let Some(cluster) = self.cluster.upgrade() else {
            return Ok(());
        };
        // Fast path: one acquire load against the heap's event horizon.
        let heap = cluster.file(&self.base)?;
        if self.applied.load(Ordering::Acquire) >= heap.raw().events_len() {
            return Ok(());
        }
        self.run(&cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::IndexBuilder;
    use crate::prebuilt::{DelimitedInterpreter, FieldType};
    use rede_storage::{IndexEntry, IndexSpec, Pointer};

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

    #[test]
    fn stale_index_tops_itself_up_before_serving() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("base", Partitioning::hash(4));
        for k in 0..10 {
            s.write("base", Value::Int(k), row(k));
        }
        s.commit().unwrap();

        IndexBuilder::new(
            c.clone(),
            IndexSpec::global("base.v", "base", 4),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        )
        .build()
        .unwrap();
        mgr.maintain_index(
            "base.v",
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
            None,
        )
        .unwrap();

        // Fresh at registration: a probe does no catch-up work.
        let before = c.metrics().snapshot();
        let ix = c.index("base.v").unwrap();
        assert_eq!(ix.lookup(&Value::Int(3 * 7), 0).unwrap().len(), 1);
        assert_eq!(c.metrics().snapshot().since(&before).catchup_builds, 0);

        // Commit behind the index's back (no registry attached), then
        // probe: the index must transparently top itself up first.
        let mut s = mgr.begin();
        for k in 10..15 {
            s.write("base", Value::Int(k), row(k));
        }
        s.commit().unwrap();
        let hits = ix.lookup(&Value::Int(12 * 7), 0).unwrap();
        assert_eq!(hits.len(), 1);
        let entry = IndexEntry::from_record(&hits[0]).unwrap();
        assert_eq!(entry.key, Value::Int(12));
        assert_eq!(c.metrics().snapshot().since(&before).catchup_builds, 1);

        // Overwrites post no duplicate entries: postings address keys.
        let mut s = mgr.begin();
        s.write("base", Value::Int(12), row(12));
        s.commit().unwrap();
        assert_eq!(ix.lookup(&Value::Int(12 * 7), 0).unwrap().len(), 1);
    }

    /// Catch-up posts through the build's routine, so it takes a
    /// partition key exactly as a build does: a record whose partition-key
    /// interpreter yields two values fails both the same way.
    #[test]
    fn catchup_and_build_reject_the_same_ambiguous_partition_key() {
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

        let mut s = mgr.begin();
        s.write("base", Value::Int(1), row(1));
        s.commit().unwrap();
        let probe = c.index("base.v").unwrap().lookup(&Value::Int(7), 0);
        let build = IndexBuilder::new(c.clone(), IndexSpec::global("base.w", "base", 4), interp())
            .with_partition_key(Arc::new(TwoKeys))
            .build();
        match (probe, build) {
            (Err(RedeError::Interpret(a)), Err(RedeError::Interpret(b))) => assert_eq!(a, b),
            other => panic!("expected the same Interpret error twice, got {other:?}"),
        }
    }

    #[test]
    fn maintained_cluster_is_freed_with_its_last_outside_handle() {
        let c = cluster();
        let mgr = TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("base", Partitioning::hash(4));
        s.write("base", Value::Int(1), row(1));
        s.commit().unwrap();
        let interp = || Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int));
        IndexBuilder::new(c.clone(), IndexSpec::global("base.v", "base", 4), interp())
            .build()
            .unwrap();
        mgr.maintain_index("base.v", interp(), None).unwrap();

        // The index (and the maintainer it holds) outlives the cluster
        // here only because the test keeps it; the maintainer must not
        // keep the cluster alive in turn.
        let index = c.index("base.v").unwrap().raw().clone();
        let weak = c.downgrade();
        drop(mgr);
        drop(c);
        assert!(
            weak.upgrade().is_none(),
            "cluster -> index -> maintainer -> cluster cycle leaks the cluster"
        );
        // A catch-up pass on the dropped cluster is a clean no-op.
        index.ensure_fresh().unwrap();
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
        let events_before = c2.file("t").unwrap().raw().events_len();
        let mgr3 = TxnManager::recover(c2.clone(), image).unwrap();
        assert_eq!(mgr3.current_ts(), 2);
        assert_eq!(c2.file("t").unwrap().raw().events_len(), events_before);
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
        assert_eq!(snap.catchup_builds, 0);
        assert!(!f.raw().is_versioned());
    }
}
