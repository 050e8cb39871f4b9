//! Atomic I/O and record-access counters.
//!
//! The paper's Figure 9 compares systems by *number of record accesses*, and
//! its cost argument ("the number of record accesses determines the
//! theoretical limitation of query performance") makes these counters the
//! primary measured quantity of the reproduction. Every storage access path
//! increments exactly one [`AccessKind`] counter; executors additionally
//! count spawned tasks and queue hops.
//!
//! A [`Metrics`] handle is cheap to clone (`Arc` inside) and is threaded
//! through cluster, files, and executors so independent experiments never
//! share counters.

use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Kinds of storage accesses the simulator distinguishes.
///
/// The latency model assigns each kind its own cost; Figure 9 sums the
/// record-bearing kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Point read of a record in a partition on the local node.
    LocalPointRead,
    /// Point read served by a different node (adds network RTT).
    RemotePointRead,
    /// One record visited by a sequential scan.
    ScannedRecord,
    /// One B+-tree lookup/range-probe (index traversal, not a record fetch).
    IndexLookup,
    /// One entry emitted by an index range probe.
    IndexEntryRead,
    /// A record appended/written.
    RecordWrite,
}

#[derive(Default)]
struct NodeIo {
    local_point_reads: AtomicU64,
    remote_point_reads: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

#[derive(Default)]
struct Inner {
    local_point_reads: AtomicU64,
    remote_point_reads: AtomicU64,
    scanned_records: AtomicU64,
    index_lookups: AtomicU64,
    index_entries_read: AtomicU64,
    record_writes: AtomicU64,
    tasks_spawned: AtomicU64,
    queue_hops: AtomicU64,
    broadcasts: AtomicU64,
    records_emitted: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    retries: AtomicU64,
    rerouted_reads: AtomicU64,
    faults_injected: AtomicU64,
    deadline_aborts: AtomicU64,
    batched_reads: AtomicU64,
    batches_issued: AtomicU64,
    remote_rtts: AtomicU64,
    fabric_completions: AtomicU64,
    window_stalls: AtomicU64,
    /// Remote flights currently in the air (gauge, not in the snapshot):
    /// incremented when a remote group starts its round trip — whether
    /// slept synchronously or parked in the fabric — and decremented at
    /// completion. `inflight_peak` is its high-water mark.
    flights_in_flight: AtomicU64,
    inflight_peak: AtomicU64,
    page_faults: AtomicU64,
    page_evictions: AtomicU64,
    /// High-water mark of simultaneously pinned buffer-pool bytes
    /// (monotone between resets, like `inflight_peak`).
    pinned_peak: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    /// Snapshot handles currently alive (gauge: begin/end paired like
    /// `flights_in_flight`, but captured into the snapshot so ingest-aware
    /// experiments can report concurrency).
    snapshots_active: AtomicU64,
    catchup_builds: AtomicU64,
    /// Gate sessions currently open (gauge: begin/end paired like
    /// `snapshots_active`, captured into the snapshot).
    sessions_active: AtomicU64,
    /// Gate cursors currently open (gauge, begin/end paired).
    cursors_active: AtomicU64,
    /// Times a producing job's emit path saturated a cursor buffer and
    /// stalled until the client drained it.
    cursor_stalls: AtomicU64,
    /// Commands the front door refused with `Overloaded` (session caps,
    /// cursor caps, or tenant admission bounds).
    shed_commands: AtomicU64,
    /// Point reads and record-cache accesses attributed to the node that
    /// *issued* them, grown on demand to the highest node index seen. Kept
    /// outside [`MetricsSnapshot`] (which stays `Copy`); read via
    /// [`Metrics::node_point_reads`].
    per_node: RwLock<Vec<Arc<NodeIo>>>,
}

/// Shared, thread-safe metrics handle.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Inner>,
}

impl Metrics {
    /// Fresh counters, all zero.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one storage access of the given kind.
    #[inline]
    pub fn record_access(&self, kind: AccessKind) {
        self.record_accesses(kind, 1)
    }

    /// Record `n` storage accesses of the given kind (used by scans that
    /// account for a whole batch at once).
    #[inline]
    pub fn record_accesses(&self, kind: AccessKind, n: u64) {
        let ctr = match kind {
            AccessKind::LocalPointRead => &self.inner.local_point_reads,
            AccessKind::RemotePointRead => &self.inner.remote_point_reads,
            AccessKind::ScannedRecord => &self.inner.scanned_records,
            AccessKind::IndexLookup => &self.inner.index_lookups,
            AccessKind::IndexEntryRead => &self.inner.index_entries_read,
            AccessKind::RecordWrite => &self.inner.record_writes,
        };
        ctr.fetch_add(n, Ordering::Relaxed);
    }

    /// Run `f` against `node`'s counter block, growing the per-node table
    /// on demand (first touch of the highest node index allocates).
    fn with_node_io(&self, node: usize, f: impl FnOnce(&NodeIo)) {
        {
            let per_node = self.inner.per_node.read();
            if let Some(counters) = per_node.get(node) {
                f(counters);
                return;
            }
        }
        let mut per_node = self.inner.per_node.write();
        while per_node.len() <= node {
            per_node.push(Arc::new(NodeIo::default()));
        }
        f(&per_node[node]);
    }

    /// Record `n` point reads issued *from* `node`, additionally split per
    /// node. Called by the cluster's charged access path alongside
    /// [`Metrics::record_accesses`]; feeds [`ExecProfile`]'s per-node
    /// local/remote read breakdown.
    pub fn record_point_reads_at(&self, node: usize, local: bool, n: u64) {
        self.with_node_io(node, |c| {
            let ctr = if local {
                &c.local_point_reads
            } else {
                &c.remote_point_reads
            };
            ctr.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Count a record served from the record cache to `node` (the node
    /// issuing the resolve). Increments both the aggregate and the
    /// per-node counter so `local + remote + cache_hits` always sums to
    /// the logical point reads a node issued.
    pub fn record_cache_hit_at(&self, node: usize) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.with_node_io(node, |c| {
            c.cache_hits.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Count a record-cache miss at `node` (the access fell through to a
    /// charged storage read).
    pub fn record_cache_miss_at(&self, node: usize) {
        self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.with_node_io(node, |c| {
            c.cache_misses.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Per-node I/O counters captured now. Index = issuing node; nodes
    /// that never issued a read may be absent from the tail.
    pub fn node_point_reads(&self) -> Vec<NodeIoSnapshot> {
        self.inner
            .per_node
            .read()
            .iter()
            .enumerate()
            .map(|(node, c)| NodeIoSnapshot {
                node,
                local: c.local_point_reads.load(Ordering::Relaxed),
                remote: c.remote_point_reads.load(Ordering::Relaxed),
                cache_hits: c.cache_hits.load(Ordering::Relaxed),
                cache_misses: c.cache_misses.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Count a task handed to the executor's thread pool.
    #[inline]
    pub fn record_task_spawn(&self) {
        self.inner.tasks_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` items moving through a stage queue (a dispatch's
    /// hand-off to one node counts all of its items at once).
    #[inline]
    pub fn record_queue_hops(&self, n: u64) {
        self.inner.queue_hops.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a pointer broadcast to all partitions.
    #[inline]
    pub fn record_broadcast(&self) {
        self.inner.broadcasts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` records emitted by a job as final output.
    #[inline]
    pub fn record_emits(&self, n: u64) {
        self.inner.records_emitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one retried stage invocation (the executor re-ran a stage body
    /// after a transient failure).
    #[inline]
    pub fn record_retry(&self) {
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one read served by a non-owner replica because the owning
    /// node was down.
    #[inline]
    pub fn record_rerouted_read(&self) {
        self.inner.rerouted_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one charged access the fault injector failed.
    #[inline]
    pub fn record_fault_injected(&self) {
        self.inner.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one job aborted because it exceeded its deadline.
    #[inline]
    pub fn record_deadline_abort(&self) {
        self.inner.deadline_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` charged accesses executed through a coalesced batch (the
    /// per-access counters move too; this tracks how much of the traffic
    /// rode the vectorized path).
    #[inline]
    pub fn record_batched_reads(&self, n: u64) {
        self.inner.batched_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one batch issued against a serving node (one IOPS
    /// acquisition + at most one RTT, however many accesses it carried).
    #[inline]
    pub fn record_batch_issued(&self) {
        self.inner.batches_issued.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one network round trip owed by a remote device group (a
    /// scalar remote access is a group of one; a remote batch pays one for
    /// the whole group — the amortization this counter makes visible).
    #[inline]
    pub fn record_remote_rtt(&self) {
        self.inner.remote_rtts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one dispatch delivered back through the event-driven fabric
    /// (a dispatch that owed no round trip never flies).
    #[inline]
    pub fn record_fabric_completion(&self) {
        self.inner
            .fabric_completions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one fabric submission that found its node's in-flight window
    /// full and had to queue behind an outstanding flight.
    #[inline]
    pub fn record_window_stall(&self) {
        self.inner.window_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark one remote round trip entering the air; pairs with
    /// [`Metrics::record_flight_end`]. Also advances `inflight_peak`, the
    /// high-water mark of concurrent remote flights — the quantity the
    /// fabric exists to raise past the pool size.
    #[inline]
    pub fn record_flight_begin(&self) {
        let now = self.inner.flights_in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.inner.inflight_peak.fetch_max(now, Ordering::SeqCst);
    }

    /// Count `n` buffer-pool pages faulted in from the simulated backing
    /// store (a memory-pressure effect, *not* a logical record access —
    /// conservation invariants over point reads must not move).
    #[inline]
    pub fn record_page_faults(&self, n: u64) {
        if n > 0 {
            self.inner.page_faults.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` buffer-pool frames evicted to make room.
    #[inline]
    pub fn record_page_evictions(&self, n: u64) {
        if n > 0 {
            self.inner.page_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the pinned-bytes high-water mark to at least `bytes`.
    #[inline]
    pub fn record_pinned_peak(&self, bytes: u64) {
        self.inner.pinned_peak.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Count one WAL frame appended, carrying `bytes` of framed log data
    /// (header + payload).
    #[inline]
    pub fn record_wal_append(&self, bytes: u64) {
        self.inner.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.inner.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Mark one MVCC snapshot handle coming alive; pairs with
    /// [`Metrics::record_snapshot_end`].
    #[inline]
    pub fn record_snapshot_begin(&self) {
        self.inner.snapshots_active.fetch_add(1, Ordering::SeqCst);
    }

    /// Mark one MVCC snapshot handle released.
    #[inline]
    pub fn record_snapshot_end(&self) {
        self.inner.snapshots_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Snapshot handles currently alive (0 whenever no reader holds a cut).
    pub fn snapshots_active(&self) -> u64 {
        self.inner.snapshots_active.load(Ordering::SeqCst)
    }

    /// Count one write-behind index catch-up pass that actually applied
    /// pending base-file writes (no-op freshness checks don't count).
    #[inline]
    pub fn record_catchup_build(&self) {
        self.inner.catchup_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark one gate session opening; pairs with
    /// [`Metrics::record_session_end`].
    #[inline]
    pub fn record_session_begin(&self) {
        self.inner.sessions_active.fetch_add(1, Ordering::SeqCst);
    }

    /// Mark one gate session closed or expired.
    #[inline]
    pub fn record_session_end(&self) {
        self.inner.sessions_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Gate sessions currently open (0 whenever no client is connected).
    pub fn sessions_active(&self) -> u64 {
        self.inner.sessions_active.load(Ordering::SeqCst)
    }

    /// Mark one gate cursor opening; pairs with
    /// [`Metrics::record_cursor_end`].
    #[inline]
    pub fn record_cursor_begin(&self) {
        self.inner.cursors_active.fetch_add(1, Ordering::SeqCst);
    }

    /// Mark one gate cursor closed, exhausted, or reaped.
    #[inline]
    pub fn record_cursor_end(&self) {
        self.inner.cursors_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Gate cursors currently open (0 whenever no result is mid-stream).
    pub fn cursors_active(&self) -> u64 {
        self.inner.cursors_active.load(Ordering::SeqCst)
    }

    /// Count one emit-path stall on a saturated cursor buffer (the
    /// transition into saturation, not every blocked record).
    #[inline]
    pub fn record_cursor_stall(&self) {
        self.inner.cursor_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one command the front door refused with `Overloaded`.
    #[inline]
    pub fn record_shed_command(&self) {
        self.inner.shed_commands.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark one remote round trip landing.
    #[inline]
    pub fn record_flight_end(&self) {
        self.inner.flights_in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Remote flights currently in the air (0 whenever quiescent).
    pub fn flights_in_flight(&self) -> u64 {
        self.inner.flights_in_flight.load(Ordering::SeqCst)
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let i = &self.inner;
        MetricsSnapshot {
            local_point_reads: i.local_point_reads.load(Ordering::Relaxed),
            remote_point_reads: i.remote_point_reads.load(Ordering::Relaxed),
            scanned_records: i.scanned_records.load(Ordering::Relaxed),
            index_lookups: i.index_lookups.load(Ordering::Relaxed),
            index_entries_read: i.index_entries_read.load(Ordering::Relaxed),
            record_writes: i.record_writes.load(Ordering::Relaxed),
            tasks_spawned: i.tasks_spawned.load(Ordering::Relaxed),
            queue_hops: i.queue_hops.load(Ordering::Relaxed),
            broadcasts: i.broadcasts.load(Ordering::Relaxed),
            records_emitted: i.records_emitted.load(Ordering::Relaxed),
            cache_hits: i.cache_hits.load(Ordering::Relaxed),
            cache_misses: i.cache_misses.load(Ordering::Relaxed),
            retries: i.retries.load(Ordering::Relaxed),
            rerouted_reads: i.rerouted_reads.load(Ordering::Relaxed),
            faults_injected: i.faults_injected.load(Ordering::Relaxed),
            deadline_aborts: i.deadline_aborts.load(Ordering::Relaxed),
            batched_reads: i.batched_reads.load(Ordering::Relaxed),
            batches_issued: i.batches_issued.load(Ordering::Relaxed),
            remote_rtts: i.remote_rtts.load(Ordering::Relaxed),
            fabric_completions: i.fabric_completions.load(Ordering::Relaxed),
            window_stalls: i.window_stalls.load(Ordering::Relaxed),
            inflight_peak: i.inflight_peak.load(Ordering::SeqCst),
            page_faults: i.page_faults.load(Ordering::Relaxed),
            page_evictions: i.page_evictions.load(Ordering::Relaxed),
            pinned_peak: i.pinned_peak.load(Ordering::Relaxed),
            wal_appends: i.wal_appends.load(Ordering::Relaxed),
            wal_bytes: i.wal_bytes.load(Ordering::Relaxed),
            snapshots_active: i.snapshots_active.load(Ordering::SeqCst),
            catchup_builds: i.catchup_builds.load(Ordering::Relaxed),
            sessions_active: i.sessions_active.load(Ordering::SeqCst),
            cursors_active: i.cursors_active.load(Ordering::SeqCst),
            cursor_stalls: i.cursor_stalls.load(Ordering::Relaxed),
            shed_commands: i.shed_commands.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero (experiments reuse loaded clusters).
    pub fn reset(&self) {
        let i = &self.inner;
        for ctr in [
            &i.local_point_reads,
            &i.remote_point_reads,
            &i.scanned_records,
            &i.index_lookups,
            &i.index_entries_read,
            &i.record_writes,
            &i.tasks_spawned,
            &i.queue_hops,
            &i.broadcasts,
            &i.records_emitted,
            &i.cache_hits,
            &i.cache_misses,
            &i.retries,
            &i.rerouted_reads,
            &i.faults_injected,
            &i.deadline_aborts,
            &i.batched_reads,
            &i.batches_issued,
            &i.remote_rtts,
            &i.fabric_completions,
            &i.window_stalls,
            &i.flights_in_flight,
            &i.inflight_peak,
            &i.page_faults,
            &i.page_evictions,
            &i.pinned_peak,
            &i.wal_appends,
            &i.wal_bytes,
            &i.snapshots_active,
            &i.catchup_builds,
            &i.sessions_active,
            &i.cursors_active,
            &i.cursor_stalls,
            &i.shed_commands,
        ] {
            ctr.store(0, Ordering::Relaxed);
        }
        for node in i.per_node.read().iter() {
            node.local_point_reads.store(0, Ordering::Relaxed);
            node.remote_point_reads.store(0, Ordering::Relaxed);
            node.cache_hits.store(0, Ordering::Relaxed);
            node.cache_misses.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Per-job I/O attribution scope.
///
/// The scheduler attaches one `IoScope` to every job it admits; storage
/// handles carrying the scope mirror each charged access into the scope's
/// private [`Metrics`] (in addition to the cluster-global counters), so a
/// job's `ExecProfile` stays exact even when many jobs share the cluster.
/// The scope also tracks IOPS permits currently held on the job's behalf —
/// the quantity the cancellation path must drive back to zero.
#[derive(Debug, Default)]
pub struct IoScope {
    job: u64,
    metrics: Metrics,
    permits_held: AtomicI64,
}

impl IoScope {
    /// A fresh scope for the job with the given scheduler-assigned id.
    pub fn new(job: u64) -> IoScope {
        IoScope {
            job,
            metrics: Metrics::new(),
            permits_held: AtomicI64::new(0),
        }
    }

    /// The scheduler-assigned job id this scope attributes I/O to.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// The scope-private counters (one job's worth of accesses).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// IOPS permits currently held on this job's behalf. Zero whenever the
    /// job is quiescent (completed, cancelled, or simply not mid-read).
    pub fn permits_held(&self) -> i64 {
        self.permits_held.load(Ordering::SeqCst)
    }

    /// RAII marker for one device-queue slot held under this scope, from
    /// the moment the slot is granted until the access lands. Owned, so the
    /// completion side of an event-driven access can carry it.
    pub fn hold_permit(self: &Arc<Self>) -> PermitHold {
        self.hold_permits(1)
    }

    /// One marker for `n` slots granted together and returned together (a
    /// run of equal accesses admitted to one device as one event).
    pub fn hold_permits(self: &Arc<Self>, n: usize) -> PermitHold {
        let n = n as i64;
        self.permits_held.fetch_add(n, Ordering::SeqCst);
        PermitHold {
            scope: self.clone(),
            n,
        }
    }
}

/// See [`IoScope::hold_permit`].
#[derive(Debug)]
pub struct PermitHold {
    scope: Arc<IoScope>,
    n: i64,
}

impl Drop for PermitHold {
    fn drop(&mut self) {
        self.scope.permits_held.fetch_sub(self.n, Ordering::SeqCst);
    }
}

/// A point-in-time copy of all counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub local_point_reads: u64,
    pub remote_point_reads: u64,
    pub scanned_records: u64,
    pub index_lookups: u64,
    pub index_entries_read: u64,
    pub record_writes: u64,
    pub tasks_spawned: u64,
    pub queue_hops: u64,
    pub broadcasts: u64,
    pub records_emitted: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Stage invocations re-run after a transient failure.
    pub retries: u64,
    /// Reads served by a non-owner replica because the owner was down.
    pub rerouted_reads: u64,
    /// Charged accesses the fault injector failed.
    pub faults_injected: u64,
    /// Jobs aborted for exceeding their deadline.
    pub deadline_aborts: u64,
    /// Charged accesses executed through a coalesced batch.
    pub batched_reads: u64,
    /// Batches issued (one IOPS acquisition + at most one RTT each).
    pub batches_issued: u64,
    /// Network round-trips actually slept.
    pub remote_rtts: u64,
    /// Remote batches delivered through the event-driven fabric.
    pub fabric_completions: u64,
    /// Fabric submissions that queued behind a full in-flight window.
    pub window_stalls: u64,
    /// High-water mark of concurrent remote flights (monotone until
    /// [`Metrics::reset`]).
    pub inflight_peak: u64,
    /// Buffer-pool pages faulted in from the simulated backing store.
    pub page_faults: u64,
    /// Buffer-pool frames evicted to make room under the byte budget.
    pub page_evictions: u64,
    /// High-water mark of simultaneously pinned buffer-pool bytes
    /// (monotone until [`Metrics::reset`]).
    pub pinned_peak: u64,
    /// WAL frames appended (one per logged operation).
    pub wal_appends: u64,
    /// Total framed WAL bytes appended (headers + payloads).
    pub wal_bytes: u64,
    /// Snapshot handles alive at capture time (a gauge, not a count).
    pub snapshots_active: u64,
    /// Write-behind index catch-up passes that applied pending writes.
    pub catchup_builds: u64,
    /// Gate sessions open at capture time (a gauge, not a count).
    pub sessions_active: u64,
    /// Gate cursors open at capture time (a gauge, not a count).
    pub cursors_active: u64,
    /// Emit-path stalls on saturated cursor buffers.
    pub cursor_stalls: u64,
    /// Commands the front door refused with `Overloaded`.
    pub shed_commands: u64,
}

impl MetricsSnapshot {
    /// Total record accesses, the Figure 9 quantity: every record the engine
    /// had to touch, whether by point read or by scan.
    pub fn record_accesses(&self) -> u64 {
        self.local_point_reads + self.remote_point_reads + self.scanned_records
    }

    /// Total random (point) reads — what the IOPS-bound cost model charges.
    pub fn point_reads(&self) -> u64 {
        self.local_point_reads + self.remote_point_reads
    }

    /// Difference since an earlier snapshot (component-wise saturating).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            local_point_reads: self
                .local_point_reads
                .saturating_sub(earlier.local_point_reads),
            remote_point_reads: self
                .remote_point_reads
                .saturating_sub(earlier.remote_point_reads),
            scanned_records: self.scanned_records.saturating_sub(earlier.scanned_records),
            index_lookups: self.index_lookups.saturating_sub(earlier.index_lookups),
            index_entries_read: self
                .index_entries_read
                .saturating_sub(earlier.index_entries_read),
            record_writes: self.record_writes.saturating_sub(earlier.record_writes),
            tasks_spawned: self.tasks_spawned.saturating_sub(earlier.tasks_spawned),
            queue_hops: self.queue_hops.saturating_sub(earlier.queue_hops),
            broadcasts: self.broadcasts.saturating_sub(earlier.broadcasts),
            records_emitted: self.records_emitted.saturating_sub(earlier.records_emitted),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            retries: self.retries.saturating_sub(earlier.retries),
            rerouted_reads: self.rerouted_reads.saturating_sub(earlier.rerouted_reads),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            deadline_aborts: self.deadline_aborts.saturating_sub(earlier.deadline_aborts),
            batched_reads: self.batched_reads.saturating_sub(earlier.batched_reads),
            batches_issued: self.batches_issued.saturating_sub(earlier.batches_issued),
            remote_rtts: self.remote_rtts.saturating_sub(earlier.remote_rtts),
            fabric_completions: self
                .fabric_completions
                .saturating_sub(earlier.fabric_completions),
            window_stalls: self.window_stalls.saturating_sub(earlier.window_stalls),
            // The peak is monotone between resets, so the difference is
            // how much higher the high-water mark climbed in the window.
            inflight_peak: self.inflight_peak.saturating_sub(earlier.inflight_peak),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
            page_evictions: self.page_evictions.saturating_sub(earlier.page_evictions),
            // Monotone like inflight_peak: the delta is the climb.
            pinned_peak: self.pinned_peak.saturating_sub(earlier.pinned_peak),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            // A gauge, not a counter: the delta is how many more handles
            // were alive at capture time (saturating at zero, like peaks).
            snapshots_active: self
                .snapshots_active
                .saturating_sub(earlier.snapshots_active),
            catchup_builds: self.catchup_builds.saturating_sub(earlier.catchup_builds),
            // Gauges like snapshots_active: the delta is how many more
            // were open at capture time (saturating at zero).
            sessions_active: self.sessions_active.saturating_sub(earlier.sessions_active),
            cursors_active: self.cursors_active.saturating_sub(earlier.cursors_active),
            cursor_stalls: self.cursor_stalls.saturating_sub(earlier.cursor_stalls),
            shed_commands: self.shed_commands.saturating_sub(earlier.shed_commands),
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point reads: {} local / {} remote, scanned: {}, index lookups: {} ({} entries), \
             writes: {}, tasks: {}, hops: {}, broadcasts: {}, emitted: {}, cache: {}/{}",
            self.local_point_reads,
            self.remote_point_reads,
            self.scanned_records,
            self.index_lookups,
            self.index_entries_read,
            self.record_writes,
            self.tasks_spawned,
            self.queue_hops,
            self.broadcasts,
            self.records_emitted,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        )?;
        // Recovery counters are omitted entirely for clean runs so the
        // rendered form of a fault-free snapshot is unchanged.
        if self.retries + self.rerouted_reads + self.faults_injected + self.deadline_aborts > 0 {
            write!(
                f,
                ", faults: {} injected / {} retries / {} rerouted / {} deadline aborts",
                self.faults_injected, self.retries, self.rerouted_reads, self.deadline_aborts,
            )?;
        }
        // Batching counters are likewise omitted when no batch was issued,
        // so unbatched runs render exactly as before.
        if self.batches_issued > 0 {
            write!(
                f,
                ", batching: {} reads in {} batches ({} rtts)",
                self.batched_reads, self.batches_issued, self.remote_rtts,
            )?;
        }
        // Fabric counters render only when the event-driven path ran, so
        // synchronous runs keep their exact pre-fabric form.
        if self.fabric_completions + self.window_stalls > 0 {
            write!(
                f,
                ", fabric: {} completions / {} window stalls (peak {} in flight)",
                self.fabric_completions, self.window_stalls, self.inflight_peak,
            )?;
        }
        // Memory-pressure counters render only when the buffer pool
        // actually paged, so unbounded runs keep their exact prior form.
        if self.page_faults + self.page_evictions > 0 {
            write!(
                f,
                ", memory: {} page faults / {} evictions (pinned peak {} B)",
                self.page_faults, self.page_evictions, self.pinned_peak,
            )?;
        }
        // Ingest counters render only when a write path ran, so read-only
        // runs keep their exact prior form.
        if self.wal_appends + self.snapshots_active + self.catchup_builds > 0 {
            write!(
                f,
                ", ingest: {} wal appends ({} B), {} snapshots active, {} catch-up builds",
                self.wal_appends, self.wal_bytes, self.snapshots_active, self.catchup_builds,
            )?;
        }
        // Gate counters render only when a front door served commands, so
        // direct-submission runs keep their exact prior form.
        if self.sessions_active + self.cursors_active + self.cursor_stalls + self.shed_commands > 0
        {
            write!(
                f,
                ", gate: {} sessions / {} cursors active, {} cursor stalls, {} shed",
                self.sessions_active, self.cursors_active, self.cursor_stalls, self.shed_commands,
            )?;
        }
        Ok(())
    }
}

/// Per-node I/O counts (point reads and record-cache accesses), all
/// attributed to the *issuing* node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeIoSnapshot {
    pub node: usize,
    /// Point reads this node issued that its own storage served.
    pub local: u64,
    /// Point reads this node issued that another node served.
    pub remote: u64,
    /// Resolves this node issued that its record cache absorbed.
    pub cache_hits: u64,
    /// Resolves that missed the cache and fell through to a point read.
    pub cache_misses: u64,
}

impl NodeIoSnapshot {
    /// Logical point reads this node issued: every resolve, whether the
    /// cache absorbed it or storage served it.
    pub fn logical_point_reads(&self) -> u64 {
        self.local + self.remote + self.cache_hits
    }
}

/// Per-stage activity within one job run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Stage label (from the job definition).
    pub label: String,
    /// Tasks executed for this stage.
    pub tasks: u64,
    /// Outputs this stage produced (records or pointers).
    pub emits: u64,
}

/// Per-node activity within one job run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    pub node: usize,
    /// Tasks enqueued onto this node's stage queue.
    pub enqueued: u64,
    /// Point reads this node issued that were served locally.
    pub local_point_reads: u64,
    /// Point reads this node issued that another node served.
    pub remote_point_reads: u64,
    /// Resolves this node issued that its record cache absorbed.
    pub cache_hits: u64,
    /// Resolves that missed this node's cache (each pairs with exactly one
    /// local or remote point read, so `local + remote == cache_misses`
    /// whenever a cache is configured).
    pub cache_misses: u64,
}

impl NodeProfile {
    /// Logical point reads this node issued: cache hits plus the storage
    /// reads (`local + remote + cache_hits`). Without a cache this is just
    /// the storage reads.
    pub fn logical_point_reads(&self) -> u64 {
        self.local_point_reads + self.remote_point_reads + self.cache_hits
    }
}

/// Execution profile of one job run: where tasks ran, where their reads
/// were served, and how the executor scheduled them. Complements
/// [`MetricsSnapshot`] (aggregate counters) with the per-stage / per-node
/// structure needed to see *routing* behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// One entry per job stage, in stage order.
    pub stages: Vec<StageProfile>,
    /// One entry per cluster node, in node order.
    pub nodes: Vec<NodeProfile>,
    /// Tasks handed to the thread pool.
    pub pool_spawns: u64,
    /// Tasks run inline on a dispatcher (referencer fast path).
    pub inline_runs: u64,
    /// Maximum number of simultaneously in-flight tasks.
    pub peak_in_flight: u64,
    /// Stage invocations this job re-ran after a transient failure.
    pub retries: u64,
    /// Reads this job had served by a replica because the owner was down.
    pub rerouted_reads: u64,
    /// Charged accesses of this job the fault injector failed.
    pub faults_injected: u64,
    /// Charged accesses this job executed through coalesced batches.
    pub batched_reads: u64,
    /// Batches this job issued (one IOPS acquisition + ≤1 RTT each).
    pub batches_issued: u64,
    /// Network round trips this job owed, one per remote device group.
    /// Unbatched this equals the remote accesses; batching drives it down
    /// by roughly the mean batch size.
    pub remote_rtts: u64,
    /// Dispatches of this job whose owed round trip was delivered through
    /// the event-driven fabric.
    pub fabric_completions: u64,
    /// Fabric submissions of this job that queued behind a full per-node
    /// in-flight window.
    pub window_stalls: u64,
    /// High-water mark of this job's outstanding remote flights (armed
    /// or window-queued). A synchronous `SimCluster` access counts its
    /// inline wait as one flight.
    pub inflight_peak: u64,
    /// Buffer-pool pages this job's accesses faulted back in (zero under
    /// an unbounded memory budget).
    pub page_faults: u64,
    /// Buffer-pool frames evicted while this job's accesses made room.
    pub page_evictions: u64,
    /// High-water mark of pinned buffer-pool bytes observed by this job's
    /// accesses.
    pub pinned_peak: u64,
    /// WAL frames this job appended (zero for read-only jobs).
    pub wal_appends: u64,
    /// Framed WAL bytes this job appended.
    pub wal_bytes: u64,
    /// Snapshot handles alive when this job's profile was captured.
    pub snapshots_active: u64,
    /// Write-behind index catch-up passes this job's accesses triggered.
    pub catchup_builds: u64,
}

impl ExecProfile {
    /// Total remote point reads across nodes.
    pub fn remote_point_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.remote_point_reads).sum()
    }

    /// Total local point reads across nodes.
    pub fn local_point_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.local_point_reads).sum()
    }

    /// Fraction of point reads served locally (1.0 when there were none).
    /// Cache hits are excluded: locality describes where *storage* reads
    /// landed, and a hit never touched storage.
    pub fn locality(&self) -> f64 {
        let local = self.local_point_reads();
        let total = local + self.remote_point_reads();
        if total == 0 {
            1.0
        } else {
            local as f64 / total as f64
        }
    }

    /// Total record-cache hits across nodes.
    pub fn cache_hits(&self) -> u64 {
        self.nodes.iter().map(|n| n.cache_hits).sum()
    }

    /// Total record-cache misses across nodes.
    pub fn cache_misses(&self) -> u64 {
        self.nodes.iter().map(|n| n.cache_misses).sum()
    }

    /// Logical point reads across nodes: `local + remote + cache_hits`,
    /// i.e. every resolve the run issued whether or not a cache absorbed
    /// it. This is the conservation quantity: per node it always equals
    /// `cache_hits + cache_misses` when a cache is configured, and the
    /// plain storage read count when not.
    pub fn logical_point_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.logical_point_reads()).sum()
    }

    /// Fraction of logical point reads the record cache absorbed (0.0
    /// when there were none, or no cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits();
        let total = hits + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Mean accesses per issued batch (0.0 when no batch was issued) —
    /// the RTT amortization factor for remote-heavy stages.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_issued == 0 {
            0.0
        } else {
            self.batched_reads as f64 / self.batches_issued as f64
        }
    }
}

impl fmt::Display for ExecProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "exec profile: {} pool spawns, {} inline, peak in-flight {}, locality {:.1}%",
            self.pool_spawns,
            self.inline_runs,
            self.peak_in_flight,
            self.locality() * 100.0
        )?;
        if self.retries + self.rerouted_reads + self.faults_injected > 0 {
            writeln!(
                f,
                "  recovery: {} faults injected, {} retries, {} rerouted reads",
                self.faults_injected, self.retries, self.rerouted_reads
            )?;
        }
        if self.batches_issued > 0 {
            writeln!(
                f,
                "  batching: {} reads in {} batches (mean {:.1}), {} rtts slept",
                self.batched_reads,
                self.batches_issued,
                self.mean_batch_size(),
                self.remote_rtts
            )?;
        }
        if self.fabric_completions + self.window_stalls > 0 {
            writeln!(
                f,
                "  fabric: {} completions, {} window stalls, peak {} in flight",
                self.fabric_completions, self.window_stalls, self.inflight_peak
            )?;
        }
        if self.page_faults + self.page_evictions > 0 {
            writeln!(
                f,
                "  memory: {} page faults, {} evictions, pinned peak {} B",
                self.page_faults, self.page_evictions, self.pinned_peak
            )?;
        }
        if self.wal_appends + self.snapshots_active + self.catchup_builds > 0 {
            writeln!(
                f,
                "  ingest: {} wal appends ({} B), {} snapshots active, {} catch-up builds",
                self.wal_appends, self.wal_bytes, self.snapshots_active, self.catchup_builds
            )?;
        }
        for s in &self.stages {
            writeln!(
                f,
                "  stage '{}': {} tasks, {} emits",
                s.label, s.tasks, s.emits
            )?;
        }
        for n in &self.nodes {
            writeln!(
                f,
                "  node {}: {} enqueued, point reads {} local / {} remote, cache {}/{}",
                n.node,
                n.enqueued,
                n.local_point_reads,
                n.remote_point_reads,
                n.cache_hits,
                n.cache_hits + n.cache_misses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_access(AccessKind::LocalPointRead);
        m.record_accesses(AccessKind::ScannedRecord, 10);
        m.record_access(AccessKind::RemotePointRead);
        let s = m.snapshot();
        assert_eq!(s.local_point_reads, 1);
        assert_eq!(s.remote_point_reads, 1);
        assert_eq!(s.scanned_records, 10);
        assert_eq!(s.record_accesses(), 12);
        assert_eq!(s.point_reads(), 2);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record_access(AccessKind::IndexLookup);
        assert_eq!(m.snapshot().index_lookups, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.record_access(AccessKind::RecordWrite);
        m.record_task_spawn();
        m.record_broadcast();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let m = Metrics::new();
        m.record_accesses(AccessKind::ScannedRecord, 5);
        let before = m.snapshot();
        m.record_accesses(AccessKind::ScannedRecord, 7);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.scanned_records, 7);
    }

    #[test]
    fn per_node_split_attributes_to_issuing_node() {
        let m = Metrics::new();
        m.record_point_reads_at(0, true, 1);
        m.record_point_reads_at(2, false, 2);
        let nodes = m.node_point_reads();
        assert_eq!(nodes.len(), 3);
        assert_eq!(
            nodes[0],
            NodeIoSnapshot {
                node: 0,
                local: 1,
                ..Default::default()
            }
        );
        assert_eq!(
            nodes[1],
            NodeIoSnapshot {
                node: 1,
                ..Default::default()
            }
        );
        assert_eq!(
            nodes[2],
            NodeIoSnapshot {
                node: 2,
                remote: 2,
                ..Default::default()
            }
        );
        m.reset();
        assert!(m
            .node_point_reads()
            .iter()
            .all(|n| n.local == 0 && n.remote == 0));
    }

    #[test]
    fn per_node_cache_counters_feed_both_levels() {
        let m = Metrics::new();
        m.record_cache_hit_at(1);
        m.record_cache_hit_at(1);
        m.record_cache_miss_at(0);
        m.record_point_reads_at(0, true, 1); // the miss's storage read
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        let nodes = m.node_point_reads();
        assert_eq!(nodes[1].cache_hits, 2);
        assert_eq!(nodes[1].logical_point_reads(), 2);
        assert_eq!(nodes[0].cache_misses, 1);
        assert_eq!(nodes[0].local, 1);
        assert_eq!(
            nodes[0].logical_point_reads(),
            nodes[0].cache_hits + nodes[0].cache_misses
        );
        m.reset();
        assert!(m
            .node_point_reads()
            .iter()
            .all(|n| n.cache_hits == 0 && n.cache_misses == 0));
    }

    #[test]
    fn recovery_counters_round_trip() {
        let m = Metrics::new();
        m.record_retry();
        m.record_retry();
        m.record_rerouted_read();
        m.record_fault_injected();
        m.record_deadline_abort();
        let s = m.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.rerouted_reads, 1);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.deadline_aborts, 1);
        assert!(s.to_string().contains("faults: 1 injected"));
        let delta = m.snapshot().since(&s);
        assert_eq!(delta.retries, 0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // A clean snapshot renders without any recovery suffix.
        assert!(!m.snapshot().to_string().contains("faults:"));
    }

    #[test]
    fn batching_counters_round_trip() {
        let m = Metrics::new();
        m.record_batched_reads(7);
        m.record_batch_issued();
        m.record_batch_issued();
        m.record_remote_rtt();
        let s = m.snapshot();
        assert_eq!(s.batched_reads, 7);
        assert_eq!(s.batches_issued, 2);
        assert_eq!(s.remote_rtts, 1);
        assert!(s.to_string().contains("batching: 7 reads in 2 batches"));
        let delta = m.snapshot().since(&s);
        assert_eq!(delta.batched_reads, 0);
        assert_eq!(delta.batches_issued, 0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // An unbatched snapshot renders without the batching suffix.
        assert!(!m.snapshot().to_string().contains("batching:"));
    }

    #[test]
    fn fabric_counters_round_trip() {
        let m = Metrics::new();
        m.record_flight_begin();
        m.record_flight_begin();
        assert_eq!(m.flights_in_flight(), 2);
        m.record_flight_end();
        m.record_fabric_completion();
        m.record_window_stall();
        let s = m.snapshot();
        assert_eq!(s.fabric_completions, 1);
        assert_eq!(s.window_stalls, 1);
        assert_eq!(s.inflight_peak, 2, "peak survives the flight landing");
        assert!(s.to_string().contains("fabric: 1 completions"));
        m.record_flight_end();
        assert_eq!(m.flights_in_flight(), 0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // A synchronous-path snapshot renders without the fabric suffix.
        assert!(!m.snapshot().to_string().contains("fabric:"));
    }

    #[test]
    fn memory_pressure_counters_round_trip() {
        let m = Metrics::new();
        m.record_page_faults(3);
        m.record_page_evictions(2);
        m.record_pinned_peak(4096);
        m.record_pinned_peak(1024); // must not lower the peak
        let s = m.snapshot();
        assert_eq!(s.page_faults, 3);
        assert_eq!(s.page_evictions, 2);
        assert_eq!(s.pinned_peak, 4096);
        assert!(s.to_string().contains("memory: 3 page faults"));
        let delta = m.snapshot().since(&s);
        assert_eq!(delta.page_faults, 0);
        assert_eq!(delta.pinned_peak, 0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // An unpaged snapshot renders without the memory suffix.
        assert!(!m.snapshot().to_string().contains("memory:"));
    }

    #[test]
    fn ingest_counters_round_trip() {
        let m = Metrics::new();
        m.record_wal_append(40);
        m.record_wal_append(24);
        m.record_snapshot_begin();
        m.record_snapshot_begin();
        m.record_snapshot_end();
        m.record_catchup_build();
        assert_eq!(m.snapshots_active(), 1);
        let s = m.snapshot();
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes, 64);
        assert_eq!(s.snapshots_active, 1);
        assert_eq!(s.catchup_builds, 1);
        assert!(s.to_string().contains("ingest: 2 wal appends (64 B)"));
        let delta = m.snapshot().since(&s);
        assert_eq!(delta.wal_appends, 0);
        assert_eq!(delta.wal_bytes, 0);
        m.record_snapshot_end();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // A read-only snapshot renders without the ingest suffix.
        assert!(!m.snapshot().to_string().contains("ingest:"));
    }

    #[test]
    fn gate_counters_round_trip() {
        let m = Metrics::new();
        m.record_session_begin();
        m.record_session_begin();
        m.record_session_end();
        m.record_cursor_begin();
        m.record_cursor_stall();
        m.record_shed_command();
        m.record_shed_command();
        assert_eq!(m.sessions_active(), 1);
        assert_eq!(m.cursors_active(), 1);
        let s = m.snapshot();
        assert_eq!(s.sessions_active, 1);
        assert_eq!(s.cursors_active, 1);
        assert_eq!(s.cursor_stalls, 1);
        assert_eq!(s.shed_commands, 2);
        assert!(s
            .to_string()
            .contains("gate: 1 sessions / 1 cursors active, 1 cursor stalls, 2 shed"));
        let delta = m.snapshot().since(&s);
        assert_eq!(delta.cursor_stalls, 0);
        assert_eq!(delta.shed_commands, 0);
        m.record_session_end();
        m.record_cursor_end();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // A gate-less snapshot renders without the gate suffix.
        assert!(!m.snapshot().to_string().contains("gate:"));
    }

    #[test]
    fn exec_profile_mean_batch_size() {
        let mut p = ExecProfile::default();
        assert_eq!(p.mean_batch_size(), 0.0);
        p.batched_reads = 30;
        p.batches_issued = 4;
        p.remote_rtts = 4;
        assert!((p.mean_batch_size() - 7.5).abs() < 1e-9);
        assert!(p.to_string().contains("30 reads in 4 batches"));
    }

    #[test]
    fn exec_profile_locality() {
        let mut p = ExecProfile::default();
        assert_eq!(p.locality(), 1.0);
        p.nodes.push(NodeProfile {
            node: 0,
            enqueued: 4,
            local_point_reads: 3,
            remote_point_reads: 1,
            cache_hits: 4,
            cache_misses: 4,
        });
        assert_eq!(p.local_point_reads(), 3);
        assert_eq!(p.remote_point_reads(), 1);
        assert!((p.locality() - 0.75).abs() < 1e-9);
        assert_eq!(p.cache_hits(), 4);
        assert_eq!(p.logical_point_reads(), 8);
        assert!((p.cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn io_scope_tracks_permits_and_private_counters() {
        let scope = Arc::new(IoScope::new(7));
        assert_eq!(scope.job(), 7);
        assert_eq!(scope.permits_held(), 0);
        {
            let _a = scope.hold_permit();
            let _b = scope.hold_permit();
            assert_eq!(scope.permits_held(), 2);
        }
        assert_eq!(scope.permits_held(), 0);
        scope.metrics().record_access(AccessKind::LocalPointRead);
        assert_eq!(scope.metrics().snapshot().local_point_reads, 1);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record_access(AccessKind::LocalPointRead);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().local_point_reads, 4000);
    }
}
