//! Atomic I/O and record-access counters.
//!
//! The paper's Figure 9 compares systems by *number of record accesses*, and
//! its cost argument ("the number of record accesses determines the
//! theoretical limitation of query performance") makes these counters the
//! primary measured quantity of the reproduction. Every storage access path
//! increments exactly one [`AccessKind`] counter; executors additionally
//! count spawned tasks and queue hops.
//!
//! Every counter is declared **once**, as a `name: kind` row of the
//! `counter_table!` invocation below, which generates its [`Counter`] index,
//! its atomic cell, its [`MetricsSnapshot`] field (same name, same doc
//! comment) and its line in `snapshot()`, `since()`, `reset()` and
//! `fields()`. To add a counter: one row, plus its write site through the
//! verb of its [`Kind`] — [`Metrics::add`], [`Metrics::raise`], or
//! [`Metrics::enter`] / [`Metrics::leave`] — and, if it should be rendered,
//! its place in `MetricsSnapshot`'s `Display`.
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

/// What a table cell holds: picks the cell's write verb and its memory
/// ordering, and says what `since` and `reset` mean for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Events counted since the last reset, written with [`Metrics::add`]
    /// (`Relaxed`: a statistic that publishes nothing else). `since` is the
    /// events in the window; `reset` zeroes it.
    Count,
    /// High-water mark, written with [`Metrics::raise`] (`SeqCst`). Monotone
    /// between resets, so `since` is how far the mark climbed in the
    /// window; `reset` zeroes it.
    Peak,
    /// Things alive right now, written by paired [`Metrics::enter`] /
    /// [`Metrics::leave`] calls (`SeqCst`); 0 whenever the system is
    /// quiescent. `since` is how many more were alive at capture time.
    /// `reset` leaves it alone: a gauge belongs to its RAII pairs, not to
    /// the experiment, and zeroing a live one would wrap it below zero at
    /// the next `leave`.
    Gauge,
}

/// From one list of `name: kind` rows, generates the row index enum, the
/// atomic cells (load, reset) and the `Copy` snapshot struct (diff, listing).
/// A row's doc comment lands on both its index variant and its snapshot field.
macro_rules! counter_table {
    (
        $(#[$index_doc:meta])*
        index $Index:ident;
        cells $Cells:ident;
        $(#[$snapshot_doc:meta])*
        snapshot $Snapshot:ident;
        $( $(#[$doc:meta])* $name:ident: $kind:ident, )+
    ) => {
        $(#[$index_doc])*
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $Index {
            $( $(#[$doc])* $name, )+
        }

        impl $Index {
            /// Every row, in table order.
            pub const ALL: &'static [$Index] = &[$( $Index::$name, )+];

            /// The row's declared kind.
            pub const fn kind(self) -> Kind {
                match self {
                    $( $Index::$name => Kind::$kind, )+
                }
            }
        }

        /// One atomic cell per row.
        struct $Cells([AtomicU64; $Index::ALL.len()]);

        impl Default for $Cells {
            fn default() -> $Cells {
                $Cells(std::array::from_fn(|_| AtomicU64::new(0)))
            }
        }

        impl $Cells {
            #[inline]
            fn cell(&self, row: $Index) -> &AtomicU64 {
                &self.0[row as usize]
            }

            fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $( $name: self.cell($Index::$name).load(Ordering::SeqCst), )+
                }
            }

            fn reset(&self) {
                for &row in $Index::ALL {
                    if row.kind() != Kind::Gauge {
                        self.cell(row).store(0, Ordering::Relaxed);
                    }
                }
            }
        }

        $(#[$snapshot_doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Snapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        impl $Snapshot {
            /// Difference since an earlier snapshot (component-wise
            /// saturating; [`Kind`] says what it means per row).
            pub fn since(&self, earlier: &$Snapshot) -> $Snapshot {
                $Snapshot {
                    $( $name: self.$name.saturating_sub(earlier.$name), )+
                }
            }

            /// Every row as `(name, kind, value)`, in table order.
            pub fn fields(&self) -> [(&'static str, Kind, u64); $Index::ALL.len()] {
                [$( (stringify!($name), Kind::$kind, self.$name), )+]
            }
        }
    };
}

counter_table! {
    /// One row of the counter table, spelled like the [`MetricsSnapshot`]
    /// field it fills: names a cell of [`Metrics`] to the write verbs.
    index Counter;
    cells Cells;
    /// A point-in-time copy of all counters.
    snapshot MetricsSnapshot;

    /// Point reads of a record in a partition on the issuing node.
    local_point_reads: Count,
    /// Point reads served by a different node (each adds network RTT).
    remote_point_reads: Count,
    /// Records visited by sequential scans.
    scanned_records: Count,
    /// B+-tree lookups/range probes (index traversals, not record fetches).
    index_lookups: Count,
    /// Entries emitted by index range probes.
    index_entries_read: Count,
    /// Records appended/written.
    record_writes: Count,
    /// Tasks handed to the executor's thread pool.
    tasks_spawned: Count,
    /// Items moved through a stage queue (a dispatch's hand-off to one
    /// node counts all of its items at once).
    queue_hops: Count,
    /// Pointers broadcast to all partitions.
    broadcasts: Count,
    /// Records emitted by jobs as final output.
    records_emitted: Count,
    /// Resolves served from the record cache.
    cache_hits: Count,
    /// Record-cache misses, each falling through to a charged storage read.
    cache_misses: Count,
    /// Stage invocations re-run after a transient failure.
    retries: Count,
    /// Reads served by a non-owner replica because the owner was down.
    rerouted_reads: Count,
    /// Charged accesses the fault injector failed.
    faults_injected: Count,
    /// Jobs aborted for exceeding their deadline.
    deadline_aborts: Count,
    /// Charged accesses executed through a coalesced batch (the per-access
    /// counters move too; this tracks how much of the traffic rode the
    /// vectorized path).
    batched_reads: Count,
    /// Batches issued against a serving node (one IOPS acquisition + at
    /// most one RTT each, however many accesses it carried).
    batches_issued: Count,
    /// Network round trips owed by remote device groups (a scalar remote
    /// access is a group of one; a remote batch pays one for the whole
    /// group — the amortization this counter makes visible).
    remote_rtts: Count,
    /// Dispatches delivered back through the event-driven fabric (a
    /// dispatch that owed no round trip never flies).
    fabric_completions: Count,
    /// Fabric submissions that found their node's in-flight window full
    /// and queued behind an outstanding flight.
    window_stalls: Count,
    /// Remote flights in the air: entered when a remote group starts its
    /// round trip — whether slept synchronously or parked in the fabric —
    /// and left at completion.
    flights_in_flight: Gauge,
    /// High-water mark of `flights_in_flight` — the quantity the fabric
    /// exists to raise past the pool size.
    inflight_peak: Peak,
    /// Buffer-pool pages faulted in from the simulated backing store (a
    /// memory-pressure effect, *not* a logical record access —
    /// conservation invariants over point reads must not move).
    page_faults: Count,
    /// The `page_faults` that index probes took, faulting postings pages
    /// back in (a subset: every one is also a page fault).
    index_page_faults: Count,
    /// Buffer-pool frames evicted to make room under the byte budget.
    page_evictions: Count,
    /// High-water mark of simultaneously pinned buffer-pool bytes.
    pinned_peak: Peak,
    /// WAL frames appended (one per logged operation).
    wal_appends: Count,
    /// Total framed WAL bytes appended (headers + payloads).
    wal_bytes: Count,
    /// MVCC snapshot handles alive (0 whenever no reader holds a cut).
    snapshots_active: Gauge,
    /// Gate sessions open (0 whenever no client is connected).
    sessions_active: Gauge,
    /// Gate cursors open (0 whenever no result is mid-stream).
    cursors_active: Gauge,
    /// Times a producing job's emit path saturated a cursor buffer and
    /// stalled until the client drained it (the transition into
    /// saturation, not every blocked record).
    cursor_stalls: Count,
    /// Commands the front door refused with `Overloaded` (session caps,
    /// cursor caps, or tenant admission bounds).
    shed_commands: Count,
}

counter_table! {
    /// One row of the per-node block.
    index NodeCounter;
    cells NodeIo;
    /// Per-node I/O counts (point reads and record-cache accesses), all
    /// attributed to the *issuing* node.
    snapshot NodeIoSnapshot;

    /// Point reads this node issued that its own storage served.
    local: Count,
    /// Point reads this node issued that another node served.
    remote: Count,
    /// Resolves this node issued that its record cache absorbed.
    cache_hits: Count,
    /// Resolves that missed the cache. Each pairs with exactly one local or
    /// remote point read: `local + remote == cache_misses` under a cache.
    cache_misses: Count,
}

#[derive(Default)]
struct Inner {
    cells: Cells,
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

    /// Count `n` more events on a [`Kind::Count`] row.
    #[inline]
    pub fn add(&self, row: Counter, n: u64) {
        debug_assert_eq!(row.kind(), Kind::Count);
        self.inner.cells.cell(row).fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a [`Kind::Peak`] row to at least `v` (never lowers it).
    #[inline]
    pub fn raise(&self, row: Counter, v: u64) {
        debug_assert_eq!(row.kind(), Kind::Peak);
        self.inner.cells.cell(row).fetch_max(v, Ordering::SeqCst);
    }

    /// Mark one more thing alive on a [`Kind::Gauge`] row; pairs with
    /// [`Metrics::leave`]. Returns the level including this one.
    #[inline]
    pub fn enter(&self, row: Counter) -> u64 {
        debug_assert_eq!(row.kind(), Kind::Gauge);
        self.inner.cells.cell(row).fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Mark one thing on a [`Kind::Gauge`] row gone.
    #[inline]
    pub fn leave(&self, row: Counter) {
        debug_assert_eq!(row.kind(), Kind::Gauge);
        self.inner.cells.cell(row).fetch_sub(1, Ordering::SeqCst);
    }

    /// One row's value right now. Reads are `SeqCst` for every kind: gauges
    /// and peaks need it, and a read is never on the hot path.
    #[inline]
    pub fn get(&self, row: Counter) -> u64 {
        self.inner.cells.cell(row).load(Ordering::SeqCst)
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
        let row = match kind {
            AccessKind::LocalPointRead => Counter::local_point_reads,
            AccessKind::RemotePointRead => Counter::remote_point_reads,
            AccessKind::ScannedRecord => Counter::scanned_records,
            AccessKind::IndexLookup => Counter::index_lookups,
            AccessKind::IndexEntryRead => Counter::index_entries_read,
            AccessKind::RecordWrite => Counter::record_writes,
        };
        self.add(row, n);
    }

    /// Add `n` to `row` of `node`'s counter block, growing the per-node
    /// table on demand (first touch of the highest node index allocates).
    fn add_at(&self, node: usize, row: NodeCounter, n: u64) {
        {
            let per_node = self.inner.per_node.read();
            if let Some(counters) = per_node.get(node) {
                counters.cell(row).fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        let mut per_node = self.inner.per_node.write();
        while per_node.len() <= node {
            per_node.push(Arc::new(NodeIo::default()));
        }
        per_node[node].cell(row).fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` point reads issued *from* `node`, additionally split per
    /// node. Called by the cluster's charged access path alongside
    /// [`Metrics::record_accesses`]; feeds [`ExecProfile`]'s per-node
    /// local/remote read breakdown.
    pub fn record_point_reads_at(&self, node: usize, local: bool, n: u64) {
        let row = if local {
            NodeCounter::local
        } else {
            NodeCounter::remote
        };
        self.add_at(node, row, n);
    }

    /// Count a record served from the record cache to `node` (the node
    /// issuing the resolve). Increments both the aggregate and the
    /// per-node counter so `local + remote + cache_hits` always sums to
    /// the logical point reads a node issued.
    pub fn record_cache_hit_at(&self, node: usize) {
        self.add(Counter::cache_hits, 1);
        self.add_at(node, NodeCounter::cache_hits, 1);
    }

    /// Count a record-cache miss at `node` (the access fell through to a
    /// charged storage read).
    pub fn record_cache_miss_at(&self, node: usize) {
        self.add(Counter::cache_misses, 1);
        self.add_at(node, NodeCounter::cache_misses, 1);
    }

    /// Per-node I/O counters captured now. Index = issuing node; nodes
    /// that never issued a read may be absent from the tail.
    pub fn node_point_reads(&self) -> Vec<NodeIoSnapshot> {
        let per_node = self.inner.per_node.read();
        per_node.iter().map(|c| c.snapshot()).collect()
    }

    /// Mark one remote round trip entering the air; pairs with
    /// [`Metrics::record_flight_end`]. Also advances `inflight_peak`.
    #[inline]
    pub fn record_flight_begin(&self) {
        let now = self.enter(Counter::flights_in_flight);
        self.raise(Counter::inflight_peak, now);
    }

    /// Mark one remote round trip landing.
    #[inline]
    pub fn record_flight_end(&self) {
        self.leave(Counter::flights_in_flight);
    }

    /// Count one WAL frame appended, carrying `bytes` of framed log data
    /// (header + payload).
    #[inline]
    pub fn record_wal_append(&self, bytes: u64) {
        self.add(Counter::wal_appends, 1);
        self.add(Counter::wal_bytes, bytes);
    }

    /// Snapshot handles currently alive (0 whenever no reader holds a cut).
    pub fn snapshots_active(&self) -> u64 {
        self.get(Counter::snapshots_active)
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.cells.snapshot()
    }

    /// Start a new measurement window on a loaded cluster: zero every
    /// `Count` and `Peak`, global and per node. A `Gauge` is left alone —
    /// it is owned by its `enter`/`leave` pairs, and zeroing one that is
    /// live would wrap it to 2⁶⁴−1 at the paired `leave`.
    pub fn reset(&self) {
        self.inner.cells.reset();
        for node in self.inner.per_node.read().iter() {
            node.reset();
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
/// job's `JobResult::metrics` stay exact even when many jobs share the cluster.
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
                ", memory: {} page faults ({} index) / {} evictions (pinned peak {} B)",
                self.page_faults, self.index_page_faults, self.page_evictions, self.pinned_peak,
            )?;
        }
        // Ingest counters render only when a write path ran, so read-only
        // runs keep their exact prior form.
        if self.wal_appends + self.snapshots_active > 0 {
            write!(
                f,
                ", ingest: {} wal appends ({} B), {} snapshots active",
                self.wal_appends, self.wal_bytes, self.snapshots_active,
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

impl NodeIoSnapshot {
    /// Logical point reads this node issued: every resolve, whether the
    /// cache absorbed it or storage served it (`local + remote +
    /// cache_hits`; without a cache, just the storage reads).
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
    /// Point reads and record-cache accesses this node issued.
    pub io: NodeIoSnapshot,
}

/// Execution profile of one job run: where tasks ran, where their reads
/// were served, and how the executor scheduled them. It holds only the
/// per-stage / per-node / scheduling *structure* a [`MetricsSnapshot`]
/// cannot say; the job's counters themselves are `JobResult::metrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// One entry per job stage, in stage order.
    pub stages: Vec<StageProfile>,
    /// One entry per cluster node, in node order.
    pub nodes: Vec<NodeProfile>,
    /// Pooled dispatches: queued stage invocations a worker ran against
    /// the job's pool share (a coalesced batch is one).
    pub pool_spawns: u64,
    /// Referencer invocations fused into the dispatch that produced their
    /// record, with no queue hop (referencer fast path).
    pub inline_runs: u64,
    /// Maximum number of simultaneously in-flight tasks.
    pub peak_in_flight: u64,
}

impl ExecProfile {
    /// Total remote point reads across nodes.
    pub fn remote_point_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.io.remote).sum()
    }

    /// Total local point reads across nodes.
    pub fn local_point_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.io.local).sum()
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
        self.nodes.iter().map(|n| n.io.cache_hits).sum()
    }

    /// Total record-cache misses across nodes.
    pub fn cache_misses(&self) -> u64 {
        self.nodes.iter().map(|n| n.io.cache_misses).sum()
    }

    /// Logical point reads across nodes: `local + remote + cache_hits`,
    /// i.e. every resolve the run issued whether or not a cache absorbed
    /// it. This is the conservation quantity: per node it always equals
    /// `cache_hits + cache_misses` when a cache is configured, and the
    /// plain storage read count when not.
    pub fn logical_point_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.io.logical_point_reads()).sum()
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
                n.io.local,
                n.io.remote,
                n.io.cache_hits,
                n.io.cache_hits + n.io.cache_misses
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
        m.record_wal_append(40);
        m.record_wal_append(24);
        let s = m.snapshot();
        assert_eq!((s.wal_appends, s.wal_bytes), (2, 64));
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

    /// Move `row` up by `n` through the verb of its kind.
    fn bump(m: &Metrics, row: Counter, n: u64) {
        let from = m.get(row);
        match row.kind() {
            Kind::Count => m.add(row, n),
            Kind::Peak => m.raise(row, from + n),
            Kind::Gauge => (1..=n).for_each(|up| assert_eq!(m.enter(row), from + up)),
        }
    }

    /// Walks the table, so a row added to it is covered without an edit
    /// here: written through the verb of its kind, the snapshot field of
    /// that name — and only it — moves.
    #[test]
    fn every_row_round_trips_through_the_verb_of_its_kind() {
        for (i, &row) in Counter::ALL.iter().enumerate() {
            let m = Metrics::new();
            bump(&m, row, 3);
            assert_eq!(m.get(row), 3, "{row:?}");
            let s = m.snapshot();
            for (j, (name, kind, value)) in s.fields().into_iter().enumerate() {
                assert_eq!(name, format!("{:?}", Counter::ALL[j]));
                assert_eq!(kind, Counter::ALL[j].kind(), "{name}");
                assert_eq!(value, if i == j { 3 } else { 0 }, "{name} after {row:?}");
            }
            assert_eq!(s.since(&s), MetricsSnapshot::default(), "{row:?}");
            bump(&m, row, 2);
            assert_eq!(m.snapshot().since(&s).fields()[i].2, 2, "{row:?} since");
            m.reset();
            let kept = if row.kind() == Kind::Gauge { 5 } else { 0 };
            assert_eq!(m.get(row), kept, "{row:?} after reset");
        }
    }

    #[test]
    fn reset_leaves_a_live_gauge_to_its_pair() {
        for &row in Counter::ALL.iter().filter(|r| r.kind() == Kind::Gauge) {
            let m = Metrics::new();
            m.enter(row);
            m.reset();
            m.leave(row);
            assert_eq!(m.get(row), 0, "{row:?} wrapped below zero");
        }
    }

    #[test]
    fn raise_never_lowers_a_peak() {
        let m = Metrics::new();
        m.raise(Counter::pinned_peak, 4096);
        m.raise(Counter::pinned_peak, 1024);
        assert_eq!(m.snapshot().pinned_peak, 4096);
        m.record_flight_begin();
        m.record_flight_begin();
        assert_eq!(m.get(Counter::flights_in_flight), 2);
        m.record_flight_end();
        m.record_flight_end();
        let s = m.snapshot();
        assert_eq!(s.flights_in_flight, 0);
        assert_eq!(s.inflight_peak, 2, "peak survives the flights landing");
    }

    #[test]
    fn per_node_split_attributes_to_issuing_node() {
        let m = Metrics::new();
        m.record_point_reads_at(0, true, 1);
        m.record_point_reads_at(2, false, 2);
        let nodes = m.node_point_reads();
        let local_1 = NodeIoSnapshot {
            local: 1,
            ..Default::default()
        };
        let remote_2 = NodeIoSnapshot {
            remote: 2,
            ..Default::default()
        };
        assert_eq!(nodes, [local_1, NodeIoSnapshot::default(), remote_2]);
        assert_eq!(nodes[2].since(&nodes[2]), NodeIoSnapshot::default());
        m.reset();
        assert_eq!(m.node_point_reads(), [NodeIoSnapshot::default(); 3]);
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
        assert_eq!(m.node_point_reads(), [NodeIoSnapshot::default(); 2]);
    }

    /// The rendered text, captured from the commit before the table
    /// existed (the memory group has since gained its index faults, and
    /// the ingest group lost its catch-up passes): an
    /// all-zero snapshot renders no optional group, and a snapshot with
    /// every field distinct renders every group.
    #[test]
    fn snapshot_display_is_pinned() {
        assert_eq!(
            MetricsSnapshot::default().to_string(),
            "point reads: 0 local / 0 remote, scanned: 0, index lookups: 0 (0 entries), \
             writes: 0, tasks: 0, hops: 0, broadcasts: 0, emitted: 0, cache: 0/0"
        );
        let m = Metrics::new();
        for (i, &row) in Counter::ALL.iter().enumerate() {
            bump(&m, row, i as u64 + 1);
        }
        let s = m.snapshot();
        assert_eq!((s.local_point_reads, s.shed_commands), (1, 34));
        assert_eq!(
            s.to_string(),
            "point reads: 1 local / 2 remote, scanned: 3, index lookups: 4 (5 entries), \
             writes: 6, tasks: 7, hops: 8, broadcasts: 9, emitted: 10, cache: 11/23, \
             faults: 15 injected / 13 retries / 14 rerouted / 16 deadline aborts, \
             batching: 17 reads in 18 batches (19 rtts), \
             fabric: 20 completions / 21 window stalls (peak 23 in flight), \
             memory: 24 page faults (25 index) / 26 evictions (pinned peak 27 B), \
             ingest: 28 wal appends (29 B), 30 snapshots active, \
             gate: 31 sessions / 32 cursors active, 33 cursor stalls, 34 shed"
        );
    }

    #[test]
    fn mean_batch_size() {
        let mut s = MetricsSnapshot::default();
        assert_eq!(s.mean_batch_size(), 0.0);
        s.batched_reads = 30;
        s.batches_issued = 4;
        assert!((s.mean_batch_size() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn exec_profile_locality_and_display() {
        let mut p = ExecProfile::default();
        assert_eq!(p.locality(), 1.0);
        p.nodes.push(NodeProfile {
            node: 0,
            enqueued: 4,
            io: NodeIoSnapshot {
                local: 3,
                remote: 1,
                cache_hits: 4,
                cache_misses: 4,
            },
        });
        assert_eq!(p.local_point_reads(), 3);
        assert_eq!(p.remote_point_reads(), 1);
        assert!((p.locality() - 0.75).abs() < 1e-9);
        assert_eq!(p.cache_hits(), 4);
        assert_eq!(p.logical_point_reads(), 8);
        assert!((p.cache_hit_rate() - 0.5).abs() < 1e-9);
        p.stages.push(StageProfile {
            label: "seed".into(),
            tasks: 2,
            emits: 3,
        });
        (p.pool_spawns, p.inline_runs, p.peak_in_flight) = (9, 10, 11);
        assert_eq!(
            p.to_string(),
            "exec profile: 9 pool spawns, 10 inline, peak in-flight 11, locality 75.0%\n  \
             stage 'seed': 2 tasks, 3 emits\n  \
             node 0: 4 enqueued, point reads 3 local / 1 remote, cache 4/8\n"
        );
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
