//! [`SimCluster`] — N logical nodes, partition placement, and charged
//! access paths.
//!
//! The cluster is the reproduction's stand-in for the paper's 128-node
//! testbed. It owns the catalog, the I/O model, the per-node device
//! queues, and the metrics registry, and exposes *charged* access handles:
//! every read increments the matching access counter on the calling thread
//! (so experiments can be replayed through the deterministic cost model)
//! and owes the configured latency to its serving node's device queue (so
//! concurrent accesses genuinely overlap, up to `queue_depth` per node).
//!
//! Placement: partition `p` of every file lives on node `p % nodes`, the
//! round-robin layout the paper uses for its HDFS load.

use crate::btree_file::{BtreeFile, IndexEntry, IndexSpec};
use crate::buffer::{
    BufferPool, ByteBudget, PageStats, PoolStats, ShrinkBytes, DEFAULT_PAGE_BYTES,
};
use crate::cache::{CacheKey, RecordCache};
use crate::catalog::{Catalog, StorageObject};
use crate::fabric::{self, Completion, Lane, Run, SimFabric};
use crate::faults::{AccessClass, FaultDecision, FaultInjector, FaultPlan};
use crate::heap_file::HeapFile;
use crate::io_model::{IoModel, Owed, Phase, SCAN_BATCH};
use crate::partitioner::Partitioning;
use crate::pointer::{Pointer, PointerKey};
use crate::record::Record;
use parking_lot::Mutex;
use rede_common::{AccessKind, Counter, FxHasher, IoScope, Metrics, RedeError, Result, Value};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic identity of a point-read access for fault decisions:
/// depends only on *what* is read, never on when or by whom.
fn read_site(file: &str, partition: usize, key: &PointerKey) -> u64 {
    let mut h = FxHasher::default();
    0u8.hash(&mut h);
    file.hash(&mut h);
    partition.hash(&mut h);
    key.hash(&mut h);
    h.finish()
}

/// Deterministic identity of an index-probe access (one partition of one
/// probe's key range).
fn probe_site(index: &str, partition: usize, lo: &Value, hi: &Value) -> u64 {
    let mut h = FxHasher::default();
    1u8.hash(&mut h);
    index.hash(&mut h);
    partition.hash(&mut h);
    lo.hash(&mut h);
    hi.hash(&mut h);
    h.finish()
}

/// Declarative description of a heap file.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Catalog name.
    pub name: String,
    /// Partitioning of the primary store.
    pub partitioning: Partitioning,
}

impl FileSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, partitioning: Partitioning) -> FileSpec {
        FileSpec {
            name: name.into(),
            partitioning,
        }
    }
}

/// The record cache: one node-private cache per node (§ V-C — a node can
/// only hit on records its own memory holds), indexed by the node issuing
/// the resolve.
struct CacheLayer(Vec<RecordCache>);

impl CacheLayer {
    fn get(&self, node: usize, key: &CacheKey) -> Option<Record> {
        self.0[node].get(key)
    }

    fn insert(&self, node: usize, key: CacheKey, value: Record) {
        self.0[node].insert(key, value)
    }

    /// Drop a key from every cache that might hold it. Writers cannot know
    /// which nodes dereferenced the record, so all nodes are purged
    /// (misses are O(1) per shard probe).
    fn purge(&self, key: &CacheKey) {
        for cache in &self.0 {
            cache.remove(key);
        }
    }
}

impl ShrinkBytes for CacheLayer {
    /// Give bytes back to the shared budget when the buffer pool cannot
    /// evict its own pages. The caches are drained round-robin so
    /// pressure lands evenly instead of emptying node 0 first.
    fn shrink_bytes(&self, want: usize) -> usize {
        let mut freed = 0;
        while freed < want {
            let mut progress = false;
            for cache in &self.0 {
                if freed >= want {
                    break;
                }
                let f = cache.shrink_bytes(1);
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

/// Smallest allowed [`SimClusterBuilder::memory_budget`]: room for a
/// handful of pages plus slack, so a single page always fits and a read
/// is `Overloaded` only while every other resident page stays pinned.
pub const MIN_MEMORY_BUDGET: usize = 16 * DEFAULT_PAGE_BYTES;

struct ClusterInner {
    nodes: usize,
    io: IoModel,
    metrics: Metrics,
    /// The cluster's one event loop, two lanes per node: `io.queue_depth`
    /// device slots, each charged access holding one of its serving node's
    /// for its modeled device time, and an `io.wire_window` of round trips
    /// in the air. Behind an `Arc` because the continuation of a
    /// multi-phase [`Owed`] submits its next phase from the loop's own
    /// thread.
    fabric: Arc<SimFabric>,
    catalog: Catalog,
    /// Page frames for every heap file and index created on this cluster,
    /// charging the same byte budget as the record cache.
    pool: Arc<BufferPool>,
    cache: Option<Arc<CacheLayer>>,
    /// Absent unless the builder attached a non-inert [`FaultPlan`]; the
    /// healthy hot path stays branch-for-branch identical to a cluster
    /// built without faults.
    faults: Option<Arc<FaultInjector>>,
}

impl ClusterInner {
    fn node_of_partition(&self, partition: usize) -> usize {
        partition % self.nodes
    }
}

impl Drop for ClusterInner {
    /// Dropping the last handle settles everything still owed at once:
    /// every outstanding completion fires before the queue's thread is
    /// joined, so no waiter or in-flight token is stranded.
    fn drop(&mut self) {
        self.fabric.shutdown();
    }
}

/// Handle to a running simulated cluster. Cheap to clone.
///
/// A handle optionally carries an [`IoScope`]: scoped handles (created by
/// [`SimCluster::with_io_scope`]) mirror every charged access into the
/// scope's private metrics in addition to the cluster-global counters, and
/// attribute held device-queue slots to the scope. The scheduler hands each job a
/// scoped handle so per-job profiles stay exact under concurrency; clones
/// (and the file/index handles they mint) inherit the scope.
#[derive(Clone)]
pub struct SimCluster {
    inner: Arc<ClusterInner>,
    scope: Option<Arc<IoScope>>,
    /// Snapshot timestamp pinned on this handle, if any: reads through a
    /// pinned handle see the newest version committed at or before the
    /// cut and nothing younger. `None` (the default) reads the live tip
    /// with zero versioning overhead.
    snapshot: Option<u64>,
}

/// Builder for [`SimCluster`].
pub struct SimClusterBuilder {
    nodes: usize,
    io: IoModel,
    metrics: Option<Metrics>,
    memory_budget: Option<usize>,
    cache_capacity: Option<usize>,
    faults: Option<FaultPlan>,
}

impl SimClusterBuilder {
    /// Number of logical nodes (default 4).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// I/O latency model (default [`IoModel::zero`]).
    pub fn io_model(mut self, io: IoModel) -> Self {
        self.io = io;
        self
    }

    /// Use an externally owned metrics registry (e.g. shared with an
    /// executor under test).
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Enable the record cache (§ V-C) holding up to `capacity` **bytes**
    /// of records *in total across the cluster* (each entry costs its
    /// record bytes plus [`crate::cache::CACHE_ENTRY_OVERHEAD`]). The
    /// budget is split evenly across nodes, each node caching only what it
    /// resolves itself.
    /// Cache hits skip the point-read latency and are counted as
    /// `cache_hits` (aggregate and per issuing node) instead of storage
    /// accesses, so leave the cache off for experiments that compare
    /// logical access counts.
    pub fn record_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Cap the bytes simultaneously resident in memory across *every*
    /// structure on the cluster: heap pages, index pages, and record-cache
    /// entries all charge this one budget. Under pressure the buffer pool
    /// evicts unpinned pages (LRU-K) to its simulated disk and, when that
    /// is not enough, sheds record-cache entries; evicted pages fault back
    /// in on next touch, paying [`IoModel::page_fault`] each.
    ///
    /// Default: unbounded (everything stays resident, no faults ever).
    /// Budgets below [`MIN_MEMORY_BUDGET`] are rejected at build time —
    /// a pool that cannot hold a handful of pages would turn ordinary
    /// reads into errors instead of evictions.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Attach a seeded fault plan (see [`crate::faults`]). An inert plan
    /// is dropped outright, so a `FaultPlan::new(seed)` with no faults
    /// configured leaves the cluster bit-identical to one built without
    /// this call.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Construct the cluster.
    pub fn build(self) -> Result<SimCluster> {
        if self.nodes == 0 {
            return Err(RedeError::Config("cluster needs at least one node".into()));
        }
        if let Some(bytes) = self.memory_budget {
            if bytes < MIN_MEMORY_BUDGET {
                return Err(RedeError::Config(format!(
                    "memory budget of {bytes} B is below the {MIN_MEMORY_BUDGET} B floor \
                     (a pool that cannot hold a few pages fails reads instead of evicting)"
                )));
            }
        }
        let budget = Arc::new(match self.memory_budget {
            Some(bytes) => ByteBudget::new(bytes),
            None => ByteBudget::unbounded(),
        });
        let pool = BufferPool::with_budget(budget.clone());
        // The cache charges the shared budget only when one is actually
        // bounded: an unbounded cluster keeps the cache's own byte
        // capacity as the sole limit, exactly as before this knob existed.
        let new_cache = |capacity: usize| {
            if budget.is_unbounded() {
                RecordCache::with_byte_capacity(capacity, 4)
            } else {
                RecordCache::with_shared_budget(capacity, 4, budget.clone())
            }
        };
        let cache = match self.cache_capacity {
            None => None,
            Some(0) => {
                return Err(RedeError::Config(
                    "record cache capacity must be at least 1 byte (omit record_cache to disable)"
                        .into(),
                ));
            }
            Some(capacity) if capacity < self.nodes => {
                return Err(RedeError::Config(format!(
                    "per-node record cache needs capacity >= nodes \
                     (capacity {capacity} B, nodes {})",
                    self.nodes
                )));
            }
            Some(capacity) => {
                // Exact split of the total budget: node i gets the base
                // share plus one of the remainder bytes.
                let (base, extra) = (capacity / self.nodes, capacity % self.nodes);
                Some(CacheLayer(
                    (0..self.nodes)
                        .map(|i| new_cache(base + usize::from(i < extra)))
                        .collect(),
                ))
            }
        };
        let cache = cache.map(Arc::new);
        if let Some(cache) = &cache {
            // Under pressure the pool evicts its own pages first; the
            // cache is the sink of last resort before waiting on pins.
            pool.set_shrinker(cache.clone() as Arc<dyn ShrinkBytes>);
        }
        let fabric = Arc::new(SimFabric::new(
            self.io.queue_depth.max(1),
            self.io.wire_window.max(1),
        ));
        Ok(SimCluster {
            inner: Arc::new(ClusterInner {
                nodes: self.nodes,
                io: self.io,
                metrics: self.metrics.unwrap_or_default(),
                fabric,
                catalog: Catalog::new(),
                pool,
                cache,
                faults: self
                    .faults
                    .filter(|plan| !plan.is_inert())
                    .map(|plan| Arc::new(FaultInjector::new(plan))),
            }),
            scope: None,
            snapshot: None,
        })
    }
}

impl SimCluster {
    /// Start building a cluster.
    pub fn builder() -> SimClusterBuilder {
        SimClusterBuilder {
            nodes: 4,
            io: IoModel::zero(),
            metrics: None,
            memory_budget: None,
            cache_capacity: None,
            faults: None,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inner.nodes
    }

    /// The node owning a partition (round-robin placement).
    pub fn node_of_partition(&self, partition: usize) -> usize {
        self.inner.node_of_partition(partition)
    }

    /// The cluster-wide metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// A handle to the same cluster that additionally attributes every
    /// charged access to `scope` (per-job accounting). The global counters
    /// keep accumulating; the scope's private metrics see only accesses
    /// issued through this handle and its clones.
    pub fn with_io_scope(&self, scope: Arc<IoScope>) -> SimCluster {
        SimCluster {
            inner: self.inner.clone(),
            scope: Some(scope),
            snapshot: self.snapshot,
        }
    }

    /// A handle to the same cluster whose reads are pinned to the
    /// snapshot committed at timestamp `ts`: point reads, scans and index
    /// probes through this handle (and its clones) see the newest version
    /// with commit timestamp ≤ `ts` and never anything younger. Handles
    /// without a pin — including every handle on a cluster that has never
    /// seen a versioned write — keep the exact unversioned read path.
    pub fn with_snapshot(&self, ts: u64) -> SimCluster {
        SimCluster {
            inner: self.inner.clone(),
            scope: self.scope.clone(),
            snapshot: Some(ts),
        }
    }

    /// The snapshot timestamp pinned on this handle, if any.
    pub fn snapshot(&self) -> Option<u64> {
        self.snapshot
    }

    /// Highest commit timestamp any heap on this cluster has applied —
    /// the durability watermark WAL replay uses to skip transactions that
    /// are already in the image. Zero on a cluster that has never seen a
    /// versioned write.
    pub fn max_commit_ts(&self) -> u64 {
        let mut max = 0;
        for name in self.inner.catalog.names() {
            if let Ok(StorageObject::Heap(heap)) = self.inner.catalog.get(&name) {
                max = max.max(heap.max_version_ts());
            }
        }
        max
    }

    /// Record into the global metrics and, when scoped, the scope's mirror.
    #[inline]
    fn tally(&self, f: impl Fn(&Metrics)) {
        f(&self.inner.metrics);
        if let Some(scope) = &self.scope {
            f(scope.metrics());
        }
    }

    /// Counter half of page-I/O accounting: tally what the data plane
    /// reported without sleeping. Page faults are *physical* effects of
    /// the memory budget, not logical accesses — the conservation
    /// counters (`local`/`remote`/`cache_*`) never move here.
    #[inline]
    fn note_page_stats(&self, stats: PageStats) {
        if stats.any() {
            self.tally(|m| {
                m.add(Counter::page_faults, stats.faults);
                m.add(Counter::page_evictions, stats.evictions);
            });
        }
        if stats.pinned_bytes > 0 {
            self.tally(|m| m.raise(Counter::pinned_peak, stats.pinned_bytes as u64));
        }
    }

    /// Tally one index probe's page I/O (its faults count as index page
    /// faults too) and owe its modeled fault latency: one positioned read
    /// per fault, serviced once the charge's device accesses have landed
    /// and *outside* any device slot — faults hit the buffer manager, not
    /// the owner's request queue. An access's own faults are a chain, one
    /// after the other; the accesses of the charge being recorded service
    /// theirs concurrently ([`Owed::fault`]).
    #[inline]
    fn owe_index_pages(&self, stats: PageStats, owed: &mut Owed) {
        self.note_page_stats(stats);
        if stats.faults > 0 {
            self.tally(|m| m.add(Counter::index_page_faults, stats.faults));
        }
        owed.fault(self.inner.io.page_fault_cost(stats.faults));
    }

    /// Point-in-time buffer pool counters (benches, CI gates, tests).
    pub fn buffer_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// The buffer pool every structure on this cluster pages through.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.inner.pool
    }

    /// Diagnostic: free device-queue slots per node — `queue_depth` minus
    /// the accesses in service there right now. Equals `queue_depth`
    /// everywhere whenever the cluster is at rest.
    pub fn available_iops_permits(&self) -> Vec<usize> {
        let fabric = &self.inner.fabric;
        let in_service = fabric.in_service(Lane::Device);
        (0..self.inner.nodes)
            .map(|node| fabric.capacity(Lane::Device) - in_service.get(node).copied().unwrap_or(0))
            .collect()
    }

    /// Diagnostic: cumulative device time granted per node — Σ modeled
    /// time over every access that ever held one of the node's slots. The
    /// device model's conservation law: the same accesses cost the same
    /// slot time however they were grouped into calls.
    pub fn device_slot_time(&self) -> Vec<Duration> {
        let mut per_node = self.inner.fabric.slot_time(Lane::Device);
        per_node.resize(self.inner.nodes, Duration::ZERO);
        per_node
    }

    /// Diagnostic: events armed or queued on the cluster's loop, device
    /// and wire alike; 0 at rest. Timers ([`SimCluster::timer`]) are not
    /// counted.
    pub fn fabric_in_flight(&self) -> usize {
        self.inner.fabric.in_flight()
    }

    /// Run `complete` on the cluster's event loop once `delay` has passed
    /// (a job's deadline). It holds no slot and is not counted by
    /// [`SimCluster::fabric_in_flight`]. Dropping the last cluster handle
    /// fires it early, so `complete` checks the time itself where that
    /// matters; it must not block, nor hold a handle to this cluster,
    /// which would keep the loop alive until it fired.
    pub fn timer(&self, delay: Duration, complete: impl FnOnce() + Send + 'static) {
        self.inner.fabric.timer(delay, Box::new(complete));
    }

    /// The fault injector attached at build time, if any. `None` means
    /// the cluster is perfect (no plan, or an inert one) and the executor
    /// may skip all recovery scaffolding.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.inner.faults.as_ref()
    }

    /// Consult the fault injector (when present) about one charged access
    /// of `class` against a partition owned by `owner`: which node's
    /// device serves it (the owner, or a live replica when the owner is
    /// down) and at what brown-out latency multiplier. Failed accesses
    /// count only `faults_injected` — the conservation counters
    /// (`local`/`remote`/`cache_*`) never see an access that did not
    /// complete — and replica-served accesses count `rerouted_reads`.
    fn fault_gate(&self, class: AccessClass, owner: usize, site: u64) -> Result<(usize, u32)> {
        let Some(inj) = &self.inner.faults else {
            return Ok((owner, 1));
        };
        match inj.consult(class, owner, site) {
            FaultDecision::Pass { latency_mult } => Ok((owner, latency_mult)),
            FaultDecision::Transient => {
                self.tally(|m| m.add(Counter::faults_injected, 1));
                Err(RedeError::Transient(format!(
                    "injected {class:?} fault on a partition owned by node {owner}"
                )))
            }
            FaultDecision::OwnerDown => match inj.live_replica(owner, self.inner.nodes) {
                Some(node) => {
                    self.tally(|m| m.add(Counter::rerouted_reads, 1));
                    Ok((node, 1))
                }
                None => {
                    self.tally(|m| m.add(Counter::faults_injected, 1));
                    Err(RedeError::Transient(format!(
                        "node {owner} is down and no live replica holds its partitions"
                    )))
                }
            },
        }
    }

    /// The one place an access is charged: every point read and index
    /// probe, scalar or batched, is charged here — and nothing here waits.
    /// `sites` are the accesses as `(partition, fault site)` pairs issued
    /// from `from_node`.
    ///
    /// The fault gate runs once per site in input order — injection
    /// decisions depend only on *what* is read, so they are the same
    /// however the accesses were grouped — and an injected failure yields
    /// that site's `Err(Transient)` before any counter moves for it.
    /// Survivors are grouped by the device that serves them (the owner, or
    /// its replica) and counted; what they cost in time is recorded into
    /// `owed` as one phase: **each access holds one slot of its serving
    /// device's queue for its own modeled time** (`latency × brown-out
    /// multiplier`), exactly as a scalar access does, so the accesses of a
    /// batch overlap up to the device's `queue_depth` like the same reads
    /// issued concurrently would. Wire time must not occupy a disk-queue
    /// slot, so a group served by another node only *counts* its network
    /// round trip and owes it after the devices — all remote groups are in
    /// the air at once, so it is one RTT however many groups were remote.
    ///
    /// `batched` marks a multi-access request: its groups additionally
    /// move `batched_reads` / `batches_issued`, which a scalar access
    /// never touches.
    fn charge(
        &self,
        class: AccessClass,
        from_node: usize,
        sites: &[(usize, u64)],
        batched: bool,
        owed: &mut Owed,
    ) -> Vec<Result<()>> {
        let inner = &*self.inner;
        // Insertion-ordered Vec keeps grouping deterministic; device
        // counts are tiny.
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        let admitted = sites
            .iter()
            .enumerate()
            .map(|(i, &(partition, site))| {
                let owner = inner.node_of_partition(partition);
                let (device, mult) = self.fault_gate(class, owner, site)?;
                match groups.iter_mut().find(|(d, _)| *d == device) {
                    Some((_, mults)) => mults.push(mult),
                    None => {
                        // Sized for every site left: a group never grows.
                        let mut mults = Vec::with_capacity(sites.len() - i);
                        mults.push(mult);
                        groups.push((device, mults));
                    }
                }
                Ok(())
            })
            .collect();
        let device_time = match class {
            AccessClass::PointRead => inner.io.local_point_read,
            AccessClass::IndexProbe => inner.io.index_lookup,
        };
        let mut accesses = Vec::with_capacity(if device_time.is_zero() {
            0
        } else {
            sites.len()
        });
        let mut rtt = Duration::ZERO;
        for (device, mults) in groups {
            let local = device == from_node;
            let n = mults.len() as u64;
            let kind = match class {
                AccessClass::IndexProbe => AccessKind::IndexLookup,
                AccessClass::PointRead => {
                    self.tally(|m| m.record_point_reads_at(from_node, local, n));
                    if local {
                        AccessKind::LocalPointRead
                    } else {
                        AccessKind::RemotePointRead
                    }
                }
            };
            self.tally(|m| m.record_accesses(kind, n));
            if !device_time.is_zero() {
                accesses.extend(
                    mults
                        .iter()
                        .map(|&m| (device, device_time.saturating_mul(m))),
                );
            }
            if batched {
                self.tally(|m| {
                    m.add(Counter::batched_reads, n);
                    m.add(Counter::batches_issued, 1);
                });
            }
            if !local {
                self.tally(|m| m.add(Counter::remote_rtts, 1));
                rtt = inner.io.rtt();
            }
        }
        owed.phase(accesses, rtt);
        admitted
    }

    /// Settle what a submit issued from `node` returned as events,
    /// occupying no thread: walk `owed`'s phases through the device lanes —
    /// every access is admitted to one of its serving node's `queue_depth`
    /// slots (FIFO behind whatever is already queued there), holds it for
    /// its modeled time with this handle's scope gauge up, and the phase's
    /// wait starts when its last access lands — then fly the round trip,
    /// if one is owed, on `node`'s wire lane of the same loop, and call
    /// `complete` when it lands. `complete` runs on the loop's thread, or
    /// right here when nothing is owed; it must not block. An owed round
    /// trip keeps a handle to the cluster until it has landed.
    pub fn settle(&self, node: usize, owed: Owed, complete: impl FnOnce() + Send + 'static) {
        let Owed { phases, rtt, .. } = owed;
        let mut done: Completion = Box::new(complete);
        if !rtt.is_zero() {
            let cluster = self.clone();
            done = Box::new(move || cluster.fly(node, rtt, done));
        }
        run_phases(
            self.inner.fabric.clone(),
            self.scope.clone(),
            phases.into_iter(),
            done,
        );
    }

    /// Fly one round trip of `rtt` under `node`'s wire window, then run
    /// `complete`. Only this flight moves the fabric counters.
    fn fly(&self, node: usize, rtt: Duration, complete: Completion) {
        self.tally(|m| m.record_flight_begin());
        let cluster = self.clone();
        let landed = Box::new(move || {
            cluster.tally(|m| {
                m.add(Counter::fabric_completions, 1);
                m.record_flight_end();
            });
            complete();
        });
        if self.inner.fabric.submit(node, Lane::Wire, rtt, landed) {
            self.tally(|m| m.add(Counter::window_stalls, 1));
        }
    }

    /// The complete half of a synchronous access: the same phases through
    /// the same device slots as [`SimCluster::settle`], waited on the
    /// calling thread. A lone access sleeps in its slot right here; the
    /// accesses of a batch ride the loop's events so they overlap, and
    /// the caller blocks until the last lands. Then the phase's wait, and
    /// finally the round trip, are slept inline and unwindowed — the RTT
    /// is one flight in the air, so the in-flight gauge makes the
    /// caller-bound concurrency of synchronous access directly comparable
    /// to the wire's in-flight peak.
    pub fn wait(&self, owed: Owed) {
        let fabric = &self.inner.fabric;
        for Phase { accesses, then } in owed.phases {
            match accesses[..] {
                [] => {}
                [(node, time)] => fabric.hold(node, Lane::Device, time, self.scope.as_ref()),
                _ => {
                    let (landed_tx, landed) = std::sync::mpsc::sync_channel(1);
                    submit_phase(
                        fabric,
                        self.scope.as_ref(),
                        accesses,
                        Box::new(move || {
                            let _ = landed_tx.send(());
                        }),
                    );
                    landed
                        .recv()
                        .expect("the event loop fires every completion, at shutdown at the latest");
                }
            }
            fabric::sleep(then);
        }
        if !owed.rtt.is_zero() {
            self.tally(|m| m.record_flight_begin());
            fabric::sleep(owed.rtt);
            self.tally(|m| m.record_flight_end());
        }
    }

    /// The configured I/O model.
    pub fn io_model(&self) -> &IoModel {
        &self.inner.io
    }

    /// Create and register a heap file. Its pages live in the cluster's
    /// buffer pool, competing for the shared memory budget.
    pub fn create_file(&self, spec: FileSpec) -> Result<FileHandle> {
        let file = Arc::new(HeapFile::with_pool(
            &spec.name,
            spec.partitioning,
            self.inner.pool.clone(),
            DEFAULT_PAGE_BYTES,
        )?);
        self.inner
            .catalog
            .register(&spec.name, StorageObject::Heap(file.clone()))?;
        Ok(FileHandle {
            file,
            cluster: self.clone(),
        })
    }

    /// Create and register a B-tree index. Its entry pages live in the
    /// cluster's buffer pool — a lazily built index is evictable the
    /// moment memory pressure calls for it.
    pub fn create_index(&self, spec: IndexSpec) -> Result<IndexHandle> {
        // The base file must exist so entries have something to point at.
        self.inner.catalog.heap(&spec.base)?;
        let index = Arc::new(BtreeFile::with_pool(
            &spec,
            self.inner.pool.clone(),
            DEFAULT_PAGE_BYTES,
        )?);
        self.inner
            .catalog
            .register(&spec.name, StorageObject::Btree(index.clone()))?;
        Ok(IndexHandle {
            index,
            cluster: self.clone(),
        })
    }

    /// Look up a registered heap file.
    pub fn file(&self, name: &str) -> Result<FileHandle> {
        Ok(FileHandle {
            file: self.inner.catalog.heap(name)?,
            cluster: self.clone(),
        })
    }

    /// Look up a registered index.
    pub fn index(&self, name: &str) -> Result<IndexHandle> {
        Ok(IndexHandle {
            index: self.inner.catalog.btree(name)?,
            cluster: self.clone(),
        })
    }

    /// Remove an index from the catalog (e.g. a failed build cleaning up
    /// its partially built structure so a later build can start fresh).
    /// Errors if `name` is absent or names a heap file.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        self.inner.catalog.btree(name)?;
        self.inner.catalog.deregister(name)?;
        Ok(())
    }

    /// All indexes registered over `base`.
    pub fn indexes_of(&self, base: &str) -> Vec<IndexHandle> {
        self.inner
            .catalog
            .indexes_of(base)
            .into_iter()
            .map(|index| IndexHandle {
                index,
                cluster: self.clone(),
            })
            .collect()
    }

    /// Catalog names (diagnostics, tests).
    pub fn catalog_names(&self) -> Vec<String> {
        self.inner.catalog.names()
    }

    /// The routing oracle for a run of pointers (see [`Placement`]): one
    /// catalog lookup per run of pointers into the same file.
    pub fn placement(&self) -> Placement<'_> {
        Placement {
            cluster: self,
            last: None,
        }
    }

    /// The partition a non-broadcast pointer will be served from, if it can
    /// be determined without touching storage
    /// ([`Placement::partition_of`]).
    pub fn partition_of_pointer(&self, ptr: &Pointer) -> Option<usize> {
        self.placement().partition_of(ptr)
    }

    /// The node that owns the partition a pointer resolves to, if
    /// determinable ([`Placement::owner_of`]).
    pub fn owner_of_pointer(&self, ptr: &Pointer) -> Option<usize> {
        self.placement().owner_of(ptr)
    }

    /// Resolve a pointer to its record — a charged point read, and
    /// exactly a [`SimCluster::resolve_batch`] of one.
    ///
    /// `from_node` is the node issuing the access; reads of partitions
    /// placed elsewhere pay the remote latency. Broadcast pointers cannot
    /// be resolved directly (the executor materializes them per partition
    /// first).
    pub fn resolve(&self, ptr: &Pointer, from_node: usize) -> Result<Record> {
        self.resolve_batch(&[ptr], from_node)
            .pop()
            .expect("one result per pointer")
    }

    /// Visibility half of a snapshot-pinned resolve: the physical slot of
    /// the newest version of `key` visible at the pinned cut, or `None`
    /// when no redirect is needed (no pin, or the heap has never seen a
    /// versioned write — the zero-overhead read-only path). Uncharged:
    /// the version table lives beside the in-memory key index.
    fn visible_read_key(
        &self,
        heap: &HeapFile,
        partition: usize,
        key: &PointerKey,
    ) -> Result<Option<PointerKey>> {
        match self.snapshot {
            Some(snap) if heap.is_versioned() => Ok(Some(PointerKey::Physical(
                heap.visible_slot(partition, key, snap)?,
            ))),
            _ => Ok(None),
        }
    }

    /// The cache key a pointer's record is filed under: logical and
    /// physical aliases of the same record normalize to one physical key
    /// (the heap knows both), so the cache can never hold — and charge
    /// the byte budget for — the same record twice under two names. A
    /// pointer to a record the heap does not know keeps its own key; the
    /// read it fronts fails before any insert.
    fn cache_key_for(
        heap: &HeapFile,
        partition: usize,
        file: &Arc<str>,
        key: &PointerKey,
    ) -> CacheKey {
        let key = match heap.slot_of(partition, key) {
            Some(slot) => PointerKey::Physical(slot),
            None => key.clone(),
        };
        CacheKey {
            file: file.clone(),
            partition,
            key,
        }
    }

    /// Routing half of [`SimCluster::resolve`]: the partition of `heap`
    /// (the pointer's file) that `ptr` reads, with broadcast and
    /// out-of-range physical pointers rejected. Touches no counters or
    /// latency.
    fn route_resolve(heap: &HeapFile, ptr: &Pointer) -> Result<usize> {
        let partition_key = ptr.partition_key.as_ref().ok_or_else(|| {
            RedeError::Routing(format!("cannot resolve broadcast pointer {ptr:?}"))
        })?;
        match &ptr.key {
            // A negative partition must not wrap through `as usize` into a
            // huge index; reject it (and anything past the file's
            // partition count) as a routing error.
            PointerKey::Physical(_) => partition_key
                .as_int()
                .and_then(|p| usize::try_from(p).ok())
                .filter(|&p| p < heap.partitions())
                .ok_or_else(|| {
                    RedeError::Routing(format!(
                        "physical partition out of range in {ptr:?} (file has {} partitions)",
                        heap.partitions()
                    ))
                }),
            PointerKey::Logical(_) => Ok(heap.partition_of(partition_key)),
        }
    }

    /// A fault site, hashed only when a fault injector will consult it.
    #[inline]
    fn site(&self, hash: impl FnOnce() -> u64) -> u64 {
        match self.inner.faults {
            Some(_) => hash(),
            None => 0,
        }
    }

    /// Resolve a batch of pointers issued from `from_node` synchronously:
    /// [`SimCluster::resolve_batch_submit`], then [`SimCluster::wait`] for
    /// what it owes on the calling thread. The reads overlap on their
    /// devices and remote groups share one round trip — they are in the
    /// air together.
    pub fn resolve_batch(&self, ptrs: &[&Pointer], from_node: usize) -> Vec<Result<Record>> {
        let (results, owed) = self.resolve_batch_submit(ptrs, from_node);
        self.wait(owed);
        results
    }

    /// The dereference path for point reads: resolve `ptrs` issued from
    /// `from_node`, doing everything that is charged on the calling thread
    /// and returning the simulated time still [`Owed`] instead of sleeping
    /// it. Results come back in input order; each item succeeds or fails
    /// independently (a transient fault on one site never poisons its
    /// batchmates). Per item, in order:
    ///
    /// * route the pointer and apply the handle's snapshot pin (the read
    ///   is redirected to the physical slot of the newest version visible
    ///   at the cut; unpinned handles and never-written heaps pay one
    ///   relaxed bool load and read through the pointer's own key);
    /// * probe `from_node`'s record cache — up front for the whole call,
    ///   so a hit is counted (at `from_node`, keeping per-node totals equal
    ///   to the resolves issued) and never consults the fault injector;
    /// * charge the surviving misses through `charge`: fault gate per
    ///   site in input order, keyed off the *original* pointer so
    ///   injection never depends on which version a snapshot selects, each
    ///   survivor owing one slot of its serving device for its device time;
    /// * count the cache miss only after the charge succeeded (an injected
    ///   failure leaves the conservation counters untouched, so every
    ///   recorded miss pairs with exactly one recorded storage read), read
    ///   the heap — one [`HeapFile::read_batch`] per run of misses into
    ///   one file, through the physical slot the cache key already
    ///   resolved — owe any page faults, and insert into the cache. The
    ///   misses are one charge, so their faults overlap: the call waits
    ///   for the read that faulted most, not for every fault in turn.
    ///
    /// Every conservation counter moves identically however the same
    /// pointers are split into calls (`local + remote + cache_hits ==
    /// logical point reads`, per job and per node); grouping is visible
    /// only in wall time and in `remote_rtts` / `batched_reads` /
    /// `batches_issued` (the last two untouched by a one-pointer call).
    /// One divergence: duplicate pointers inside a call each charge a
    /// storage read (the cache probe runs before any insert), where
    /// separate calls would serve the repeat from cache — conservation
    /// still holds, the split just shifts from `cache_hits` to reads.
    ///
    /// The results are final when returned; only time is owed. Records and
    /// cache inserts land at submit time — before the modeled device time
    /// and round trip complete — an anachronism visible only to wall-clock
    /// observers, never to any counter or output byte. Whoever takes the
    /// `Owed` must settle it ([`SimCluster::settle`] / [`SimCluster::wait`])
    /// before acting on the results, or the access was free.
    pub fn resolve_batch_submit(
        &self,
        ptrs: &[&Pointer],
        from_node: usize,
    ) -> (Vec<Result<Record>>, Owed) {
        let cache = self.inner.cache.as_deref();
        let mut out: Vec<Option<Result<Record>>> = (0..ptrs.len()).map(|_| None).collect();

        struct Miss {
            idx: usize,
            /// Index into `heaps`.
            heap: usize,
            partition: usize,
            /// Snapshot redirect; `None` reads through the pointer's own key.
            read_key: Option<PointerKey>,
            /// Normalized cache key, present only when the cluster caches.
            cache_key: Option<CacheKey>,
        }
        impl Miss {
            /// The address the read goes through: the physical slot the
            /// cache key already resolved, else the snapshot redirect,
            /// else the pointer's own key.
            fn read_key<'a>(&'a self, ptr: &'a Pointer) -> &'a PointerKey {
                match (&self.cache_key, &self.read_key) {
                    (Some(ck), _) => &ck.key,
                    (None, Some(key)) => key,
                    (None, None) => &ptr.key,
                }
            }
        }
        // One heap per run of pointers into the same file: the catalog is
        // consulted once per run, not once per pointer.
        let mut heaps: Vec<Arc<HeapFile>> = Vec::new();
        let mut misses: Vec<Miss> = Vec::with_capacity(ptrs.len());
        let mut sites: Vec<(usize, u64)> = Vec::with_capacity(ptrs.len());
        for (idx, ptr) in ptrs.iter().enumerate() {
            if !heaps.last().is_some_and(|h| same_file(h.name(), &ptr.file)) {
                match self.inner.catalog.heap(&ptr.file) {
                    Ok(heap) => heaps.push(heap),
                    Err(e) => {
                        out[idx] = Some(Err(e));
                        continue;
                    }
                }
            }
            let heap = heaps.len() - 1;
            let routed = Self::route_resolve(&heaps[heap], ptr).and_then(|partition| {
                let read_key = self.visible_read_key(&heaps[heap], partition, &ptr.key)?;
                Ok((partition, read_key))
            });
            let (partition, read_key) = match routed {
                Ok(routed) => routed,
                Err(e) => {
                    out[idx] = Some(Err(e));
                    continue;
                }
            };
            let mut cache_key = None;
            if let Some(cache) = cache {
                let key = read_key.as_ref().unwrap_or(&ptr.key);
                let ck = Self::cache_key_for(&heaps[heap], partition, &ptr.file, key);
                if let Some(record) = cache.get(from_node, &ck) {
                    self.tally(|m| m.record_cache_hit_at(from_node));
                    out[idx] = Some(Ok(record));
                    continue;
                }
                cache_key = Some(ck);
            }
            let site = self.site(|| read_site(&ptr.file, partition, &ptr.key));
            sites.push((partition, site));
            misses.push(Miss {
                idx,
                heap,
                partition,
                read_key,
                cache_key,
            });
        }

        let mut owed = Owed::default();
        let admitted = self.charge(
            AccessClass::PointRead,
            from_node,
            &sites,
            ptrs.len() > 1,
            &mut owed,
        );
        let mut admitted = admitted.into_iter();
        misses.retain(
            |miss| match admitted.next().expect("one verdict per miss") {
                Ok(()) => {
                    if cache.is_some() {
                        self.tally(|m| m.record_cache_miss_at(from_node));
                    }
                    true
                }
                Err(e) => {
                    out[miss.idx] = Some(Err(e));
                    false
                }
            },
        );
        // One batched heap read per run of misses into one file. A page run
        // faults at most its one page and the runs overlap like the reads
        // of one charge, so the call owes one fault if any run faulted.
        for run in misses.chunk_by_mut(|a, b| a.heap == b.heap) {
            let (records, pages) = {
                let reads: Vec<(usize, &PointerKey)> = run
                    .iter()
                    .map(|miss| (miss.partition, miss.read_key(ptrs[miss.idx])))
                    .collect();
                heaps[run[0].heap].read_batch(&reads)
            };
            self.note_page_stats(pages);
            owed.fault(self.inner.io.page_fault_cost(pages.faults.min(1)));
            for (miss, read) in run.iter_mut().zip(records) {
                if let (Some(cache), Some(ck), Ok(record)) = (cache, miss.cache_key.take(), &read) {
                    cache.insert(from_node, ck, record.clone());
                }
                out[miss.idx] = Some(read);
            }
        }
        let results = out
            .into_iter()
            .map(|slot| slot.expect("every batch item resolved or failed"))
            .collect();
        (results, owed)
    }
}

/// True when two file names are the same name: the pointer comparison
/// settles every run of pointers minted from one name, the byte comparison
/// the rest.
fn same_file(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// The routing oracle: where a pointer will be served, decided without
/// touching storage. It remembers the last file it looked up, so a run of
/// pointers into one file — what a dispatch emits — costs one catalog
/// lookup instead of one per pointer. Minted per walk by
/// [`SimCluster::placement`]; a catalog change mid-walk can only cost
/// locality (routing never decides an answer).
pub struct Placement<'a> {
    cluster: &'a SimCluster,
    last: Option<(Arc<str>, StorageObject)>,
}

impl Placement<'_> {
    /// The partition a non-broadcast pointer will be served from, if it
    /// can be determined without touching storage.
    ///
    /// * Heap targets: the file's partitioner places the partition key
    ///   (logical) or the key *is* the partition (physical).
    /// * B-tree targets: the index placement's probe set for the logical
    ///   key — a single partition for a global index. Local indexes probe
    ///   every partition, so there is no single serving partition and the
    ///   answer is `None`.
    /// * Broadcast pointers and unknown files: `None`.
    ///
    /// This is the routing oracle for the executor's `Owner` policy; a
    /// `None` simply means "no better placement known" and must not fail
    /// the run.
    pub fn partition_of(&mut self, ptr: &Pointer) -> Option<usize> {
        let partition_key = ptr.partition_key.as_ref()?;
        let object = match &self.last {
            Some((name, object)) if same_file(name, &ptr.file) => object,
            _ => {
                let object = self.cluster.inner.catalog.get(&ptr.file).ok()?;
                &self.last.insert((ptr.file.clone(), object)).1
            }
        };
        match object {
            StorageObject::Heap(heap) => match &ptr.key {
                // A negative or out-of-range physical partition is not
                // routable; `resolve` rejects it, the oracle just answers
                // "no placement known" (it must not fail the run).
                PointerKey::Physical(_) => partition_key
                    .as_int()
                    .and_then(|p| usize::try_from(p).ok())
                    .filter(|&p| p < heap.partitions()),
                PointerKey::Logical(_) => Some(heap.partition_of(partition_key)),
            },
            StorageObject::Btree(index) => {
                let key = ptr.logical_key()?;
                // Local indexes probe every partition, so the probe set
                // pins nothing — but a placement hint recorded at build
                // time can still name the one partition holding the key.
                // Hints only steer routing; lookups keep probing the full
                // placement set, so a stale or missing hint can never
                // change an answer.
                index
                    .probe_partition_for_key(key)
                    .or_else(|| index.hint_partition_for_key(key))
            }
        }
    }

    /// The node that owns the partition a pointer resolves to, if
    /// determinable (see [`Placement::partition_of`]).
    pub fn owner_of(&mut self, ptr: &Pointer) -> Option<usize> {
        self.partition_of(ptr)
            .map(|p| self.cluster.inner.node_of_partition(p))
    }
}

/// Walk the remaining `phases` of an [`Owed`] as events: submit the next
/// phase's accesses, start its wait when the last of them lands, recurse
/// when the wait is over, and run `done` after the final phase.
fn run_phases(
    fabric: Arc<SimFabric>,
    scope: Option<Arc<IoScope>>,
    mut phases: std::vec::IntoIter<Phase>,
    done: Completion,
) {
    let Some(Phase { accesses, then }) = phases.next() else {
        return done();
    };
    let (queue, flight_scope) = (fabric.clone(), scope.clone());
    let landed: Completion = Box::new(move || {
        let timer = fabric.clone();
        let rest: Completion = Box::new(move || run_phases(fabric, scope, phases, done));
        if then.is_zero() {
            rest()
        } else {
            timer.after(then, rest)
        }
    });
    submit_phase(&queue, flight_scope.as_ref(), accesses, landed);
}

/// Submit one phase's accesses to the device lanes together — each takes
/// one slot of its serving node for its own device time — and run `landed`
/// when the last of them has landed (at once if there are none).
///
/// Consecutive accesses of equal `(node, time)` — a charge's reads of one
/// device at one brown-out multiplier — share a deadline whenever they are
/// granted slots together, so they travel as one [`Run`]: one queue entry,
/// one timer event per wave and one completion, where each access still
/// holds one slot for its own modeled time.
fn submit_phase(
    fabric: &SimFabric,
    scope: Option<&Arc<IoScope>>,
    accesses: Vec<(usize, Duration)>,
    landed: Completion,
) {
    let mut runs: Vec<(usize, Duration, usize)> = Vec::new();
    for (node, time) in accesses {
        match runs.last_mut() {
            Some((n, t, count)) if (*n, *t) == (node, time) => *count += 1,
            _ => runs.push((node, time, 1)),
        }
    }
    let run = |(node, delay, count), complete| Run {
        node,
        lane: Lane::Device,
        delay,
        count,
        complete,
    };
    match runs[..] {
        [] => landed(),
        [only] => {
            fabric.submit_all(scope, [run(only, landed)]);
        }
        _ => {
            // (runs still queued or in service, what the last to land runs)
            let last = Arc::new((AtomicUsize::new(runs.len()), Mutex::new(Some(landed))));
            // Built before the call: `submit_all` iterates under the
            // queue's lock.
            let runs: Vec<Run> = runs
                .into_iter()
                .map(|r| {
                    let last = last.clone();
                    let complete: Completion = Box::new(move || {
                        if last.0.fetch_sub(1, Ordering::SeqCst) == 1 {
                            let landed = last.1.lock().take().expect("the last run lands once");
                            landed();
                        }
                    });
                    run(r, complete)
                })
                .collect();
            fabric.submit_all(scope, runs);
        }
    }
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("nodes", &self.inner.nodes)
            .field("objects", &self.inner.catalog.names())
            .finish()
    }
}

/// Charged handle to a heap file.
#[derive(Clone)]
pub struct FileHandle {
    file: Arc<HeapFile>,
    cluster: SimCluster,
}

impl FileHandle {
    /// The underlying file (uncharged; loaders and tests).
    pub fn raw(&self) -> &Arc<HeapFile> {
        &self.file
    }

    /// File name.
    pub fn name(&self) -> &Arc<str> {
        self.file.name()
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.file.partitions()
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.file.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }

    /// Partition for a partition key.
    pub fn partition_of(&self, key: &Value) -> usize {
        self.file.partition_of(key)
    }

    /// Insert a record partitioned and keyed by `key` (the common case:
    /// primary key is the partition key). Charged as a record write; load
    /// latency is not modeled (the paper measures query time only).
    pub fn insert(&self, key: Value, record: Record) -> Result<(usize, usize)> {
        self.insert_with_partition_key(&key.clone(), key, record)
    }

    /// Insert with distinct partition key and in-partition key.
    pub fn insert_with_partition_key(
        &self,
        partition_key: &Value,
        key: Value,
        record: Record,
    ) -> Result<(usize, usize)> {
        self.cluster
            .tally(|m| m.record_access(AccessKind::RecordWrite));
        let (partition, slot) = self.file.insert(partition_key, key, record)?;
        self.invalidate_cached(partition, slot);
        Ok((partition, slot))
    }

    /// Insert a new *version* of `key` stamped with commit timestamp `ts`
    /// (see [`HeapFile::insert_versioned`]): the record lands in a fresh
    /// slot, so no cached entry ever goes stale — snapshot readers keep
    /// hitting the old version's slot, pinned-to-`ts` readers find the
    /// new one. Charged as a record write. Returns `(partition, first)`,
    /// `first` telling a key's first version from an overwrite.
    pub fn insert_versioned(
        &self,
        partition_key: &Value,
        key: Value,
        record: Record,
        ts: u64,
    ) -> Result<(usize, bool)> {
        self.cluster
            .tally(|m| m.record_access(AccessKind::RecordWrite));
        self.file.insert_versioned(partition_key, key, record, ts)
    }

    /// Purge the record at `(partition, slot)` from every record cache.
    /// In-place overwrites reuse the slot the cache keys by, so a write
    /// that skips this could serve the old bytes forever.
    fn invalidate_cached(&self, partition: usize, slot: usize) {
        if let Some(cache) = &self.cluster.inner.cache {
            cache.purge(&CacheKey {
                file: self.file.name().clone(),
                partition,
                key: PointerKey::Physical(slot),
            });
        }
    }

    /// Charged sequential scan of one partition, streaming batches of
    /// [`SCAN_BATCH`] records to `f`. Waits per-record scan latency once
    /// per batch and counts every visited record.
    pub fn scan_partition(
        &self,
        partition: usize,
        mut f: impl FnMut(&Value, &Record),
    ) -> Result<()> {
        let mut start = 0;
        loop {
            // Advance by slots *visited*, not rows returned: under a
            // snapshot invisible versions occupy slots but yield no rows,
            // and a rows-based cursor would stall on an all-filtered batch.
            let (rows, visited) = self.read_slots(partition, start, SCAN_BATCH)?;
            if visited == 0 {
                return Ok(());
            }
            for (k, r) in &rows {
                f(k, r);
            }
            start += visited;
        }
    }

    /// Number of records in one partition (uncharged).
    pub fn partition_len(&self, partition: usize) -> usize {
        self.file.partition_len(partition)
    }

    /// Charged batch read of a contiguous slot range (pull-based scans),
    /// filtered to the versions visible at this handle's snapshot when it
    /// pins one. Returns the rows plus the number of slots *visited* — the
    /// amount a scan cursor must advance by, since filtered-out versions
    /// still occupy slots. Waits per-record scan latency for the batch —
    /// plus the fault latency for any pages the scan pulled back in — and
    /// counts every record.
    pub fn read_slots(
        &self,
        partition: usize,
        start: usize,
        count: usize,
    ) -> Result<(Vec<(Value, Record)>, usize)> {
        // Unversioned files skip the visibility filter altogether.
        let snap = self.cluster.snapshot.filter(|_| self.file.is_versioned());
        let (rows, visited, pages) = self.file.read_slots(partition, start, count, snap)?;
        self.charge_scan(rows.len(), pages);
        Ok((rows, visited))
    }

    /// Count one scan batch and wait on the scanning thread for the page
    /// faults it took plus its per-record streaming time, as one wait-only
    /// phase. A scan is one sequential stream, not a queue of requests, so
    /// its time never enters the device queues.
    fn charge_scan(&self, rows: usize, pages: PageStats) {
        self.cluster.note_page_stats(pages);
        if rows > 0 {
            self.cluster
                .tally(|m| m.record_accesses(AccessKind::ScannedRecord, rows as u64));
        }
        let io = &self.cluster.inner.io;
        let mut owed = Owed::default();
        owed.delay(
            io.page_fault_cost(pages.faults)
                .saturating_add(io.scan_cost(rows)),
        );
        self.cluster.wait(owed);
    }
}

/// Charged handle to a B-tree index.
#[derive(Clone)]
pub struct IndexHandle {
    index: Arc<BtreeFile>,
    cluster: SimCluster,
}

impl IndexHandle {
    /// The underlying index (uncharged; loaders and tests).
    pub fn raw(&self) -> &Arc<BtreeFile> {
        &self.index
    }

    /// Index name.
    pub fn name(&self) -> &Arc<str> {
        self.index.name()
    }

    /// Base file name.
    pub fn base(&self) -> &Arc<str> {
        self.index.base()
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.index.partitions()
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Insert an entry for a *global* index (placement by indexed key).
    /// Charged as a record write.
    pub fn insert(&self, key: Value, entry: Record) -> Result<()> {
        self.cluster
            .tally(|m| m.record_access(AccessKind::RecordWrite));
        self.index.insert(key, entry)
    }

    /// Insert an entry for a *local* index into the base record's
    /// partition. Charged as a record write.
    pub fn insert_at(&self, partition: usize, key: Value, entry: Record) -> Result<()> {
        self.cluster
            .tally(|m| m.record_access(AccessKind::RecordWrite));
        self.index.insert_at(partition, key, entry)
    }

    /// Insert an entry for a *local* index, recording a placement hint so
    /// pointers into the index become owner-routable (builders' path; see
    /// [`BtreeFile::insert_at_hinted`]). Charged as a record write.
    pub fn insert_at_hinted(&self, partition: usize, key: Value, entry: Record) -> Result<()> {
        self.cluster
            .tally(|m| m.record_access(AccessKind::RecordWrite));
        self.index.insert_at_hinted(partition, key, entry)
    }

    /// Charged exact-key probe — exactly a [`IndexHandle::lookup_batch`]
    /// of one: consults the partitions the placement requires (one for
    /// global, all for local) and returns the matching entry records.
    /// Fails only under injected faults.
    pub fn lookup(&self, key: &Value, from_node: usize) -> Result<Vec<Record>> {
        self.lookup_batch(std::slice::from_ref(key), from_node)
            .pop()
            .expect("one result per key")
    }

    /// The one probe loop behind every multi-partition probe: an exact-key
    /// (`hi == None`) or inclusive-range probe of the partitions the
    /// placement requires — restricted to those placed on `on_node`, when
    /// given — charged one partition at a time from `from_node`. The first
    /// failed partition fails the probe (its successors are not consulted,
    /// so a retry meets each remaining fault site exactly once). What the
    /// probe costs in time is appended to `owed`: the partitions are
    /// visited one after the other (a phase each, with the page faults it
    /// took), and their round trips are in the air together.
    fn probe(
        &self,
        lo: &Value,
        hi: Option<&Value>,
        from_node: usize,
        on_node: Option<usize>,
        owed: &mut Owed,
    ) -> Result<Vec<Record>> {
        let partitions = match hi {
            None => self.index.probe_partitions_for_key(lo),
            Some(hi) => self.index.probe_partitions_for_range(lo, hi),
        };
        let mut out = Vec::new();
        for p in partitions {
            if on_node.is_some_and(|node| self.cluster.node_of_partition(p) != node) {
                continue;
            }
            let site = self
                .cluster
                .site(|| probe_site(self.index.name(), p, lo, hi.unwrap_or(lo)));
            self.cluster
                .charge(
                    AccessClass::IndexProbe,
                    from_node,
                    &[(p, site)],
                    false,
                    owed,
                )
                .pop()
                .expect("one result per site")?;
            let (hits, pages) = match hi {
                None => self.index.probe(p, lo)?,
                Some(hi) => self.index.range_in(p, lo, hi)?,
            };
            self.cluster.owe_index_pages(pages, owed);
            out.extend(hits);
        }
        let out = self.filter_visible(out);
        self.count_entries(out.len());
        Ok(out)
    }

    /// The submit half of every partition-filtered probe — what
    /// [`IndexHandle::range`] and [`IndexHandle::range_on_node`] wait for
    /// inline: an exact-key
    /// (`hi == None`) or inclusive-range probe from `from_node`, restricted
    /// to the partitions placed on `on_node` when given, returning the
    /// postings together with the simulated time still owed (see
    /// [`SimCluster::resolve_batch_submit`] for the contract).
    pub fn probe_submit(
        &self,
        lo: &Value,
        hi: Option<&Value>,
        from_node: usize,
        on_node: Option<usize>,
    ) -> (Result<Vec<Record>>, Owed) {
        let mut owed = Owed::default();
        let result = self.probe(lo, hi, from_node, on_node, &mut owed);
        (result, owed)
    }

    /// A synchronous [`IndexHandle::probe_submit`]: what it owes is waited
    /// inline on the calling thread.
    fn probe_sync(
        &self,
        lo: &Value,
        hi: Option<&Value>,
        from_node: usize,
        on_node: Option<usize>,
    ) -> Result<Vec<Record>> {
        let (result, owed) = self.probe_submit(lo, hi, from_node, on_node);
        self.cluster.wait(owed);
        result
    }

    /// Snapshot filter for postings: drop entries whose base record has no
    /// version visible at this handle's pinned cut (keys born after the
    /// snapshot, reachable because every commit posts its keys' entries
    /// as it writes them). A pass-through — no decode, no catalog touch — unless a
    /// snapshot is pinned *and* the base heap is versioned, so the
    /// read-only path pays nothing. Uncharged: visibility consults the
    /// in-memory version table, never entry pages.
    fn filter_visible(&self, hits: Vec<Record>) -> Vec<Record> {
        let snap = match self.cluster.snapshot {
            Some(snap) => snap,
            None => return hits,
        };
        let heap = match self.cluster.inner.catalog.heap(self.index.base()) {
            Ok(heap) => heap,
            Err(_) => return hits,
        };
        if !heap.is_versioned() {
            return hits;
        }
        hits.into_iter()
            .filter(|record| match IndexEntry::from_record(record) {
                Ok(entry) => {
                    let p = heap.partition_of(&entry.partition_key);
                    heap.visible_slot(p, &PointerKey::Logical(entry.key), snap)
                        .is_ok()
                }
                // Non-canonical entries carry no base pointer to judge;
                // keep them (they predate versioning by construction).
                Err(_) => true,
            })
            .collect()
    }

    /// Charged exact-key probes of a batch of keys issued from `from_node`
    /// synchronously: [`IndexHandle::lookup_batch_submit`], then what it
    /// owes waited inline on the calling thread.
    pub fn lookup_batch(&self, keys: &[Value], from_node: usize) -> Vec<Result<Vec<Record>>> {
        let (results, owed) = self.lookup_batch_submit(keys, from_node);
        self.cluster.wait(owed);
        results
    }

    /// The dereference path for index probes: probe `keys` issued from
    /// `from_node`, returning each key's postings in input order together
    /// with the simulated time still owed (see
    /// [`SimCluster::resolve_batch_submit`] for the contract).
    ///
    /// Keys whose placement pins them to a single partition (global
    /// indexes) are charged together through `charge` — fault gate once
    /// per probe site in input order, each survivor owing one slot of its
    /// serving device for one traversal — and the trees underneath are
    /// probed with the shared-descent [`BtreeFile::lookup_batch`], one pass
    /// per partition. The passes are accesses of that one charge: each
    /// pays its own faults in series, and the charge waits for the pass
    /// that faulted most. Keys that must consult every partition (local
    /// indexes) take the per-partition probe loop. Charged `index_lookups`
    /// stay one per partition probed however keys are grouped into calls.
    pub fn lookup_batch_submit(
        &self,
        keys: &[Value],
        from_node: usize,
    ) -> (Vec<Result<Vec<Record>>>, Owed) {
        let mut owed = Owed::default();
        let mut out: Vec<Option<Result<Vec<Record>>>> = (0..keys.len()).map(|_| None).collect();
        // (input index, partition) of every single-partition key.
        let mut singles: Vec<(usize, usize)> = Vec::new();
        let mut sites: Vec<(usize, u64)> = Vec::new();
        for (idx, key) in keys.iter().enumerate() {
            match self.index.probe_partition_for_key(key) {
                Some(p) => {
                    singles.push((idx, p));
                    let site = self
                        .cluster
                        .site(|| probe_site(self.index.name(), p, key, key));
                    sites.push((p, site));
                }
                None => {
                    out[idx] = Some(self.probe(key, None, from_node, None, &mut owed));
                }
            }
        }
        let admitted = self.cluster.charge(
            AccessClass::IndexProbe,
            from_node,
            &sites,
            keys.len() > 1,
            &mut owed,
        );
        // One shared-descent pass per partition over the admitted probes.
        let mut by_partition: Vec<(usize, Vec<usize>)> = Vec::new();
        for ((idx, partition), admitted) in singles.into_iter().zip(admitted) {
            match admitted {
                Err(e) => out[idx] = Some(Err(e)),
                Ok(()) => match by_partition.iter_mut().find(|(p, _)| *p == partition) {
                    Some((_, idxs)) => idxs.push(idx),
                    None => by_partition.push((partition, vec![idx])),
                },
            }
        }
        for (partition, idxs) in by_partition {
            let probe_keys: Vec<Value> = idxs.iter().map(|&i| keys[i].clone()).collect();
            match self.index.lookup_batch(partition, &probe_keys) {
                Ok((postings, _descents, pages)) => {
                    self.cluster.owe_index_pages(pages, &mut owed);
                    for (i, hits) in idxs.into_iter().zip(postings) {
                        let hits = self.filter_visible(hits);
                        self.count_entries(hits.len());
                        out[i] = Some(Ok(hits));
                    }
                }
                // A page-budget failure poisons every probe of this
                // partition alike (they share the exhausted pool).
                Err(e) => {
                    for i in idxs {
                        out[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        let results = out
            .into_iter()
            .map(|slot| slot.expect("every batch key probed or failed"))
            .collect();
        (results, owed)
    }

    /// Charged inclusive range probe across the placement's partitions.
    pub fn range(&self, lo: &Value, hi: &Value, from_node: usize) -> Result<Vec<Record>> {
        self.probe_sync(lo, Some(hi), from_node, None)
    }

    /// Charged range probe restricted to the partitions placed on `node`.
    ///
    /// This is the SMPE seed pattern: the job is distributed to every node
    /// and each node probes only its locally held index partitions, so the
    /// union over nodes covers the whole index with no duplicate work.
    pub fn range_on_node(&self, node: usize, lo: &Value, hi: &Value) -> Result<Vec<Record>> {
        self.probe_sync(lo, Some(hi), node, Some(node))
    }

    /// Estimate how many entries fall in `[lo, hi]` by sampling up to
    /// three partitions and scaling (uncharged: this is catalog-statistics
    /// work, the optimizer's bread and butter). Exact when the index has
    /// ≤ 3 partitions.
    pub fn estimate_range(&self, lo: &Value, hi: &Value) -> u64 {
        let partitions = self.index.partitions();
        let sample = partitions.min(3);
        let mut counted = 0usize;
        for p in 0..sample {
            // Uncharged in latency, but the pages it pulls in are real:
            // note the faults/evictions without sleeping for them.
            if let Ok((hits, pages)) = self.index.range_in(p, lo, hi) {
                self.cluster.note_page_stats(pages);
                counted += hits.len();
            }
        }
        (counted as f64 * partitions as f64 / sample as f64).round() as u64
    }

    fn count_entries(&self, n: usize) {
        if n > 0 {
            self.cluster
                .tally(|m| m.record_accesses(AccessKind::IndexEntryRead, n as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree_file::IndexEntry;

    fn cluster() -> SimCluster {
        SimCluster::builder().nodes(4).build().unwrap()
    }

    fn loaded(cluster: &SimCluster, n: i64) -> FileHandle {
        let f = cluster
            .create_file(FileSpec::new("part", Partitioning::hash(8)))
            .unwrap();
        for i in 0..n {
            f.insert(Value::Int(i), Record::from_text(&format!("row{i}")))
                .unwrap();
        }
        f
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(SimCluster::builder().nodes(0).build().is_err());
    }

    #[test]
    fn resolve_counts_local_vs_remote() {
        let c = cluster();
        let f = loaded(&c, 64);
        let key = Value::Int(5);
        let partition = f.partition_of(&key);
        let owner = c.node_of_partition(partition);
        let other = (owner + 1) % c.nodes();

        let ptr = Pointer::logical("part", key.clone(), key);
        c.resolve(&ptr, owner).unwrap();
        c.resolve(&ptr, other).unwrap();
        let s = c.metrics().snapshot();
        assert_eq!(s.local_point_reads, 1);
        assert_eq!(s.remote_point_reads, 1);
    }

    #[test]
    fn resolve_physical_pointer() {
        let c = cluster();
        let f = c
            .create_file(FileSpec::new("part", Partitioning::hash(2)))
            .unwrap();
        let (p, slot) = f.insert(Value::Int(9), Record::from_text("hello")).unwrap();
        let ptr = Pointer::physical("part", p, slot);
        assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), "hello");
    }

    #[test]
    fn resolve_rejects_broadcast_and_unknown_file() {
        let c = cluster();
        loaded(&c, 4);
        let b = Pointer::broadcast("part", Value::Int(1));
        assert!(matches!(c.resolve(&b, 0), Err(RedeError::Routing(_))));
        let missing = Pointer::logical("nope", Value::Int(1), Value::Int(1));
        assert!(matches!(
            c.resolve(&missing, 0),
            Err(RedeError::NotFound(_))
        ));
    }

    #[test]
    fn scan_counts_records() {
        let c = cluster();
        let f = loaded(&c, 100);
        let mut seen = 0;
        for p in 0..f.partitions() {
            f.scan_partition(p, |_, _| seen += 1).unwrap();
        }
        assert_eq!(seen, 100);
        assert_eq!(c.metrics().snapshot().scanned_records, 100);
    }

    #[test]
    fn index_requires_existing_base() {
        let c = cluster();
        assert!(c
            .create_index(IndexSpec::global("ix", "missing", 4))
            .is_err());
    }

    #[test]
    fn global_index_lookup_counts_one_probe() {
        let c = cluster();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::global("ix", "part", 8)).unwrap();
        ix.insert(
            Value::Int(1),
            IndexEntry::new(Value::Int(1), Value::Int(1)).to_record(),
        )
        .unwrap();
        c.metrics().reset();
        let hits = ix.lookup(&Value::Int(1), 0).unwrap();
        assert_eq!(hits.len(), 1);
        let s = c.metrics().snapshot();
        assert_eq!(s.index_lookups, 1);
        assert_eq!(s.index_entries_read, 1);
    }

    #[test]
    fn local_index_lookup_probes_all_partitions() {
        let c = cluster();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::local("lix", "part", 8)).unwrap();
        ix.insert_at(
            3,
            Value::Int(1),
            IndexEntry::new(Value::Int(1), Value::Int(1)).to_record(),
        )
        .unwrap();
        c.metrics().reset();
        let hits = ix.lookup(&Value::Int(1), 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(c.metrics().snapshot().index_lookups, 8);
    }

    #[test]
    fn range_on_node_partitions_cover_disjointly() {
        let c = cluster();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::local("lix", "part", 8)).unwrap();
        for i in 0..100i64 {
            let p = (i % 8) as usize;
            ix.insert_at(
                p,
                Value::Int(i),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        let mut total = 0;
        for node in 0..c.nodes() {
            total += ix
                .range_on_node(node, &Value::Int(0), &Value::Int(99))
                .unwrap()
                .len();
        }
        assert_eq!(
            total, 100,
            "per-node probes must cover the index exactly once"
        );
    }

    #[test]
    fn partition_of_pointer_matches_resolution_path() {
        let c = cluster();
        let f = loaded(&c, 64);
        let key = Value::Int(11);
        let expected = f.partition_of(&key);

        let logical = Pointer::logical("part", key.clone(), key.clone());
        assert_eq!(c.partition_of_pointer(&logical), Some(expected));
        assert_eq!(
            c.owner_of_pointer(&logical),
            Some(c.node_of_partition(expected))
        );

        let physical = Pointer::physical("part", 5, 0);
        assert_eq!(c.partition_of_pointer(&physical), Some(5));

        let broadcast = Pointer::broadcast("part", key);
        assert_eq!(c.partition_of_pointer(&broadcast), None);

        let unknown = Pointer::logical("nope", Value::Int(1), Value::Int(1));
        assert_eq!(c.partition_of_pointer(&unknown), None);
    }

    #[test]
    fn pointer_owner_for_indexes_depends_on_locality() {
        let c = cluster();
        loaded(&c, 0);
        let global = c.create_index(IndexSpec::global("gix", "part", 8)).unwrap();
        let local = c.create_index(IndexSpec::local("lix", "part", 8)).unwrap();
        let key = Value::Int(7);
        global
            .insert(
                key.clone(),
                IndexEntry::new(key.clone(), key.clone()).to_record(),
            )
            .unwrap();
        local
            .insert_at(
                0,
                key.clone(),
                IndexEntry::new(key.clone(), key.clone()).to_record(),
            )
            .unwrap();

        // Global index: the placement pins the key to one partition.
        let gptr = Pointer::logical("gix", key.clone(), key.clone());
        let gpart = c.partition_of_pointer(&gptr).expect("global is routable");
        assert_eq!(global.raw().probe_partitions_for_key(&key), vec![gpart]);

        // Local index: every partition may hold the key — not routable.
        let lptr = Pointer::logical("lix", key.clone(), key);
        assert_eq!(c.partition_of_pointer(&lptr), None);
        assert_eq!(c.owner_of_pointer(&lptr), None);
    }

    #[test]
    fn charge_point_read_feeds_per_node_split() {
        let c = cluster();
        let f = loaded(&c, 64);
        let key = Value::Int(9);
        let partition = f.partition_of(&key);
        let owner = c.node_of_partition(partition);
        let other = (owner + 1) % c.nodes();
        let ptr = Pointer::logical("part", key.clone(), key);
        c.resolve(&ptr, owner).unwrap();
        c.resolve(&ptr, other).unwrap();
        let per_node = c.metrics().node_point_reads();
        assert_eq!(per_node[owner].local, 1);
        assert_eq!(per_node[owner].remote, 0);
        assert_eq!(per_node[other].local, 0);
        assert_eq!(per_node[other].remote, 1);
    }

    fn cached_cluster() -> SimCluster {
        let c = SimCluster::builder()
            .nodes(2)
            .record_cache(64 * 1024)
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("part", Partitioning::hash(4)))
            .unwrap();
        for i in 0..32i64 {
            f.insert(Value::Int(i), Record::from_text(&format!("r{i}")))
                .unwrap();
        }
        c
    }

    #[test]
    fn per_node_cache_serves_repeats_on_the_same_node_only() {
        let c = cached_cluster();
        let ptr = Pointer::logical("part", Value::Int(5), Value::Int(5));
        c.metrics().reset();
        assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), "r5");
        assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), "r5");
        // Node 1 has its own cache: its first resolve must miss even
        // though node 0 already holds the record.
        assert_eq!(c.resolve(&ptr, 1).unwrap().text().unwrap(), "r5");
        let s = c.metrics().snapshot();
        assert_eq!(s.point_reads(), 2, "one first-touch read per node");
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.cache_hits, 1);
        let per_node = c.metrics().node_point_reads();
        assert_eq!(per_node[0].cache_hits, 1);
        assert_eq!(per_node[0].cache_misses, 1);
        assert_eq!(per_node[1].cache_hits, 0);
        assert_eq!(per_node[1].cache_misses, 1);
        // Conservation per node: every resolve is a hit or a storage read.
        for n in &per_node {
            assert_eq!(n.logical_point_reads(), n.cache_hits + n.cache_misses);
        }
    }

    #[test]
    fn cache_misconfigurations_are_rejected() {
        assert!(matches!(
            SimCluster::builder().nodes(2).record_cache(0).build(),
            Err(RedeError::Config(_))
        ));
        // The per-node split cannot share 3 bytes across 4 nodes.
        assert!(matches!(
            SimCluster::builder().nodes(4).record_cache(3).build(),
            Err(RedeError::Config(_))
        ));
    }

    #[test]
    fn resolve_rejects_negative_or_out_of_range_physical_partition() {
        let c = cluster();
        let f = loaded(&c, 8);
        for bad in [-1i64, -3, f.partitions() as i64, i64::MIN] {
            let ptr = Pointer {
                file: Arc::from("part"),
                partition_key: Some(Value::Int(bad)),
                key: PointerKey::Physical(0),
            };
            assert!(
                matches!(c.resolve(&ptr, 0), Err(RedeError::Routing(_))),
                "partition {bad} must be a routing error, not a wrapped index"
            );
            // The routing oracle answers "unroutable" instead of failing.
            assert_eq!(c.partition_of_pointer(&ptr), None);
            assert_eq!(c.owner_of_pointer(&ptr), None);
        }
        // A non-integer physical partition key is equally unroutable.
        let bad_key = Pointer {
            file: Arc::from("part"),
            partition_key: Some(Value::str("oops")),
            key: PointerKey::Physical(0),
        };
        assert!(matches!(c.resolve(&bad_key, 0), Err(RedeError::Routing(_))));
    }

    #[test]
    fn cache_eviction_falls_back_to_storage() {
        // ~320 B holds only a handful of entries (each costs its record
        // bytes plus CACHE_ENTRY_OVERHEAD), so the sweep must recycle.
        let c = SimCluster::builder()
            .nodes(1)
            .record_cache(320)
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("t", Partitioning::hash(1)))
            .unwrap();
        for i in 0..100i64 {
            f.insert(Value::Int(i), Record::from_text(&i.to_string()))
                .unwrap();
        }
        // Sweep far beyond capacity, then re-read: everything still resolves.
        for i in 0..100i64 {
            let ptr = Pointer::logical("t", Value::Int(i), Value::Int(i));
            assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), i.to_string());
        }
        for i in 0..100i64 {
            let ptr = Pointer::logical("t", Value::Int(i), Value::Int(i));
            assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), i.to_string());
        }
        let s = c.metrics().snapshot();
        assert_eq!(s.cache_hits + s.cache_misses, 200);
        assert!(s.cache_misses >= 100, "capacity 4 cannot hold the sweep");
    }

    #[test]
    fn scoped_handle_mirrors_charges_and_tracks_permits() {
        let c = cluster();
        let f = loaded(&c, 64);
        let scope = Arc::new(rede_common::IoScope::new(1));
        let scoped = c.with_io_scope(scope.clone());

        let key = Value::Int(5);
        let ptr = Pointer::logical("part", key.clone(), key);
        // Unscoped access: global only.
        c.resolve(&ptr, 0).unwrap();
        assert_eq!(scope.metrics().snapshot().point_reads(), 0);
        // Scoped access: both global and scope see it.
        scoped.resolve(&ptr, 0).unwrap();
        assert_eq!(c.metrics().snapshot().point_reads(), 2);
        assert_eq!(scope.metrics().snapshot().point_reads(), 1);
        // Scoped per-node split attributes to the issuing node (0 here).
        let partition = f.partition_of(&Value::Int(5));
        let local = c.node_of_partition(partition) == 0;
        let per_node = scope.metrics().node_point_reads();
        assert_eq!(per_node[0].local, u64::from(local));
        assert_eq!(per_node[0].remote, u64::from(!local));
        // File/index handles minted from the scoped handle inherit it.
        let sf = scoped.file("part").unwrap();
        sf.scan_partition(0, |_, _| {}).unwrap();
        assert_eq!(
            scope.metrics().snapshot().scanned_records,
            c.file("part").unwrap().partition_len(0) as u64
        );
        // Quiescent: no permits held, all limiters full.
        assert_eq!(scope.permits_held(), 0);
        let io = c.io_model();
        assert!(c
            .available_iops_permits()
            .iter()
            .all(|&p| p == io.queue_depth));
    }

    #[test]
    fn hinted_local_index_pointers_become_routable() {
        let c = cluster();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::local("lix", "part", 8)).unwrap();
        let key = Value::Int(7);
        ix.insert_at_hinted(
            5,
            key.clone(),
            IndexEntry::new(key.clone(), key.clone()).to_record(),
        )
        .unwrap();
        let ptr = Pointer::logical("lix", key.clone(), key.clone());
        assert_eq!(c.partition_of_pointer(&ptr), Some(5));
        assert_eq!(c.owner_of_pointer(&ptr), Some(c.node_of_partition(5)));
        // Unhinted writes invalidate the table: back to producer routing.
        ix.insert_at(
            2,
            Value::Int(9),
            IndexEntry::new(Value::Int(9), Value::Int(9)).to_record(),
        )
        .unwrap();
        assert_eq!(c.partition_of_pointer(&ptr), None);
    }

    #[test]
    fn inert_fault_plan_is_dropped() {
        let c = SimCluster::builder()
            .nodes(2)
            .faults(FaultPlan::new(99))
            .build()
            .unwrap();
        assert!(c.fault_injector().is_none());
        let c = SimCluster::builder()
            .nodes(2)
            .faults(FaultPlan::transient(99, 0.5))
            .build()
            .unwrap();
        assert!(c.fault_injector().is_some());
    }

    #[test]
    fn transient_fault_fails_first_resolve_then_recovers() {
        let c = SimCluster::builder()
            .nodes(4)
            .faults(FaultPlan::transient(0, 1.0))
            .build()
            .unwrap();
        loaded(&c, 64);
        let ptr = Pointer::logical("part", Value::Int(5), Value::Int(5));
        let err = c.resolve(&ptr, 0).unwrap_err();
        assert!(err.is_transient(), "expected transient, got {err}");
        // The failed attempt recorded only the injected fault — the
        // conservation counters never saw it.
        let s = c.metrics().snapshot();
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.point_reads(), 0, "a failed attempt records no read");
        // The site has burned its one fault: the retry succeeds.
        assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), "row5");
        let s = c.metrics().snapshot();
        assert_eq!(s.point_reads(), 1);
        assert_eq!(s.faults_injected, 1);
        // A *different* record is a different site: its first touch fails.
        let other = Pointer::logical("part", Value::Int(6), Value::Int(6));
        assert!(c.resolve(&other, 0).unwrap_err().is_transient());
        assert_eq!(c.metrics().snapshot().faults_injected, 2);
    }

    #[test]
    fn down_node_reads_are_replica_served_with_identical_answers() {
        let mut healthy_rows = Vec::new();
        let healthy = cluster();
        loaded(&healthy, 32);
        for i in 0..32i64 {
            let ptr = Pointer::logical("part", Value::Int(i), Value::Int(i));
            healthy_rows.push(healthy.resolve(&ptr, 0).unwrap());
        }

        let c = SimCluster::builder()
            .nodes(4)
            .faults(FaultPlan::new(1).with_node_down(2, 0..10_000))
            .build()
            .unwrap();
        loaded(&c, 32);
        for (i, want) in healthy_rows.iter().enumerate() {
            let ptr = Pointer::logical("part", Value::Int(i as i64), Value::Int(i as i64));
            let got = c.resolve(&ptr, 0).unwrap();
            assert_eq!(got.bytes(), want.bytes(), "row {i} must be byte-identical");
        }
        let s = c.metrics().snapshot();
        assert!(s.rerouted_reads > 0, "node 2 owns some of the partitions");
        assert_eq!(s.faults_injected, 0, "replica-served reads never fail");
        assert_eq!(s.point_reads(), 32);
    }

    #[test]
    fn down_node_with_no_live_replica_fails_transiently() {
        let c = SimCluster::builder()
            .nodes(1)
            .faults(FaultPlan::new(1).with_node_down(0, 0..100))
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("part", Partitioning::hash(2)))
            .unwrap();
        f.insert(Value::Int(1), Record::from_text("x")).unwrap();
        let ptr = Pointer::logical("part", Value::Int(1), Value::Int(1));
        assert!(c.resolve(&ptr, 0).unwrap_err().is_transient());
        assert_eq!(c.metrics().snapshot().faults_injected, 1);
    }

    #[test]
    fn failed_probe_leaves_probe_counters_clean() {
        let c = SimCluster::builder()
            .nodes(4)
            .faults(FaultPlan::new(5).with_probe_fault_rate(1.0))
            .build()
            .unwrap();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::global("ix", "part", 8)).unwrap();
        ix.insert(
            Value::Int(1),
            IndexEntry::new(Value::Int(1), Value::Int(1)).to_record(),
        )
        .unwrap();
        c.metrics().reset();
        assert!(ix.lookup(&Value::Int(1), 0).unwrap_err().is_transient());
        let s = c.metrics().snapshot();
        assert_eq!(s.index_lookups, 0, "failed probes are not counted");
        assert_eq!(s.faults_injected, 1);
        // The retry probes the same site, which has already failed once.
        let hits = ix.lookup(&Value::Int(1), 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(c.metrics().snapshot().index_lookups, 1);
    }

    #[test]
    fn cache_hits_bypass_the_fault_gate() {
        let c = SimCluster::builder()
            .nodes(2)
            .record_cache(4096)
            .faults(FaultPlan::transient(7, 1.0))
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("part", Partitioning::hash(4)))
            .unwrap();
        f.insert(Value::Int(3), Record::from_text("r3")).unwrap();
        let ptr = Pointer::logical("part", Value::Int(3), Value::Int(3));
        assert!(c.resolve(&ptr, 0).unwrap_err().is_transient());
        assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), "r3");
        // Cached now: no storage touch, no consult, no new fault — and the
        // miss recorded by the successful read pairs with its storage read.
        assert_eq!(c.resolve(&ptr, 0).unwrap().text().unwrap(), "r3");
        let s = c.metrics().snapshot();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.point_reads(), 1);
        assert_eq!(s.faults_injected, 1);
    }

    #[test]
    fn resolve_batch_matches_scalar_with_exact_conservation() {
        let scalar_c = cluster();
        loaded(&scalar_c, 64);
        let batch_c = cluster();
        loaded(&batch_c, 64);
        let ptrs: Vec<Pointer> = (0..32i64)
            .map(|i| Pointer::logical("part", Value::Int(i), Value::Int(i)))
            .collect();
        let from_node = 1;
        let scalar: Vec<Record> = ptrs
            .iter()
            .map(|p| scalar_c.resolve(p, from_node).unwrap())
            .collect();
        let refs: Vec<&Pointer> = ptrs.iter().collect();
        let batched: Vec<Record> = batch_c
            .resolve_batch(&refs, from_node)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for (i, (a, b)) in scalar.iter().zip(&batched).enumerate() {
            assert_eq!(a.bytes(), b.bytes(), "row {i} must be byte-identical");
        }
        let s = scalar_c.metrics().snapshot();
        let b = batch_c.metrics().snapshot();
        // Conservation counters identical; only the amortization differs.
        assert_eq!(s.local_point_reads, b.local_point_reads);
        assert_eq!(s.remote_point_reads, b.remote_point_reads);
        assert_eq!(b.batched_reads, 32);
        // One group per serving device; 4 nodes → at most 4 batches, and
        // the remote groups paid one RTT each instead of one per read.
        assert_eq!(b.batches_issued, 4);
        assert_eq!(b.remote_rtts, 3, "three remote device groups");
        assert_eq!(
            s.remote_rtts, s.remote_point_reads,
            "scalar path pays one RTT per remote read"
        );
        let per_node = batch_c.metrics().node_point_reads();
        assert_eq!(
            per_node[from_node].logical_point_reads(),
            32,
            "all accesses attributed to the issuing node"
        );
    }

    /// A model whose only non-zero latency is the network round trip.
    fn rtt_only(rtt: Duration) -> IoModel {
        IoModel {
            remote_point_read: rtt,
            ..IoModel::zero()
        }
    }

    #[test]
    fn scalar_batch_of_one_and_submit_then_wait_move_the_same_counters() {
        // One remote and one local pointer through each of the three entry
        // points, on identical clusters: every counter must agree —
        // `inflight_peak` included (the inline wait is one flight).
        let run = |entry: &dyn Fn(&SimCluster, &Pointer)| {
            let c = SimCluster::builder()
                .nodes(4)
                .io_model(rtt_only(Duration::from_micros(200)))
                .build()
                .unwrap();
            loaded(&c, 16);
            for key in [3i64, 4] {
                entry(
                    &c,
                    &Pointer::logical("part", Value::Int(key), Value::Int(key)),
                );
            }
            assert_eq!(c.metrics().get(Counter::flights_in_flight), 0);
            c.metrics().snapshot()
        };
        let scalar = run(&|c, p| {
            c.resolve(p, 0).unwrap();
        });
        let batch_of_one = run(&|c, p| {
            c.resolve_batch(&[p], 0).pop().unwrap().unwrap();
        });
        let submit_then_wait = run(&|c, p| {
            let (mut results, owed) = c.resolve_batch_submit(&[p], 0);
            c.wait(owed);
            results.pop().unwrap().unwrap();
        });
        assert!(scalar.remote_point_reads > 0, "fixture must go remote");
        assert_eq!(scalar.remote_rtts, scalar.remote_point_reads);
        assert_eq!(scalar.inflight_peak, 1);
        assert_eq!(scalar.batched_reads, 0, "no batch counters at n = 1");
        assert_eq!(scalar.batches_issued, 0);
        assert_eq!(scalar, batch_of_one);
        assert_eq!(scalar, submit_then_wait);
    }

    #[test]
    fn synchronous_batch_waits_one_round_trip_for_all_remote_groups() {
        let rtt = Duration::from_millis(40);
        let c = SimCluster::builder()
            .nodes(4)
            .io_model(rtt_only(rtt))
            .build()
            .unwrap();
        loaded(&c, 64);
        let ptrs: Vec<Pointer> = (0..32i64)
            .map(|i| Pointer::logical("part", Value::Int(i), Value::Int(i)))
            .collect();
        let refs: Vec<&Pointer> = ptrs.iter().collect();
        let start = std::time::Instant::now();
        for r in c.resolve_batch(&refs, 1) {
            r.unwrap();
        }
        let wall = start.elapsed();
        let s = c.metrics().snapshot();
        assert_eq!(s.remote_rtts, 3, "one RTT counted per remote device group");
        assert_eq!(s.inflight_peak, 1, "one inline wait covers them all");
        assert!(wall >= rtt, "the round trip is waited: {wall:?}");
        assert!(
            wall < rtt * 3,
            "three remote groups share one round trip, not their sum: {wall:?}"
        );
    }

    #[test]
    fn resolve_batch_cache_probe_runs_up_front() {
        let c = cached_cluster();
        let ptrs: Vec<Pointer> = (0..8i64)
            .map(|i| Pointer::logical("part", Value::Int(i), Value::Int(i)))
            .collect();
        let refs: Vec<&Pointer> = ptrs.iter().collect();
        c.metrics().reset();
        for r in c.resolve_batch(&refs, 0) {
            r.unwrap();
        }
        // Second pass: all hits, no storage touch, no new batches.
        for r in c.resolve_batch(&refs, 0) {
            r.unwrap();
        }
        let s = c.metrics().snapshot();
        assert_eq!(s.cache_hits, 8);
        assert_eq!(s.cache_misses, 8);
        assert_eq!(s.point_reads(), 8);
        assert_eq!(s.batched_reads, 8);
        // Conservation per node after mixed hit/miss batches.
        for n in &c.metrics().node_point_reads() {
            assert_eq!(n.logical_point_reads(), n.cache_hits + n.cache_misses);
        }
    }

    #[test]
    fn resolve_batch_faults_fail_items_independently() {
        let c = SimCluster::builder()
            .nodes(4)
            .faults(FaultPlan::transient(0, 1.0))
            .build()
            .unwrap();
        loaded(&c, 16);
        let ptrs: Vec<Pointer> = (0..16i64)
            .map(|i| Pointer::logical("part", Value::Int(i), Value::Int(i)))
            .collect();
        let refs: Vec<&Pointer> = ptrs.iter().collect();
        let first = c.resolve_batch(&refs, 0);
        // Every site fails its first touch; nothing succeeds, nothing is
        // charged to the conservation counters.
        assert!(first
            .iter()
            .all(|r| r.as_ref().is_err_and(|e| e.is_transient())));
        let s = c.metrics().snapshot();
        assert_eq!(s.point_reads(), 0);
        assert_eq!(s.faults_injected, 16);
        // Retry: each site has burned its one fault, the whole batch lands.
        let retry = c.resolve_batch(&refs, 0);
        assert!(retry.iter().all(|r| r.is_ok()));
        let s = c.metrics().snapshot();
        assert_eq!(s.point_reads(), 16);
        assert_eq!(s.faults_injected, 16, "no new faults on retry");
        assert_eq!(s.batched_reads, 16);
    }

    #[test]
    fn resolve_batch_serves_down_owner_from_replica() {
        let c = SimCluster::builder()
            .nodes(4)
            .faults(FaultPlan::new(1).with_node_down(2, 0..10_000))
            .build()
            .unwrap();
        loaded(&c, 32);
        let ptrs: Vec<Pointer> = (0..32i64)
            .map(|i| Pointer::logical("part", Value::Int(i), Value::Int(i)))
            .collect();
        let refs: Vec<&Pointer> = ptrs.iter().collect();
        for r in c.resolve_batch(&refs, 0) {
            r.unwrap();
        }
        let s = c.metrics().snapshot();
        assert!(s.rerouted_reads > 0, "node 2 owns some partitions");
        assert_eq!(s.faults_injected, 0);
        assert_eq!(s.point_reads(), 32);
    }

    #[test]
    fn index_lookup_batch_matches_scalar_lookups() {
        let c = cluster();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::global("ix", "part", 8)).unwrap();
        for i in 0..64i64 {
            ix.insert(
                Value::Int(i),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        let keys: Vec<Value> = (0..48i64).map(|i| Value::Int((i * 3) % 80)).collect();
        c.metrics().reset();
        let scalar: Vec<Vec<Record>> = keys.iter().map(|k| ix.lookup(k, 0).unwrap()).collect();
        let s = c.metrics().snapshot();
        c.metrics().reset();
        let batched: Vec<Vec<Record>> = ix
            .lookup_batch(&keys, 0)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let b = c.metrics().snapshot();
        assert_eq!(scalar, batched);
        assert_eq!(s.index_lookups, b.index_lookups, "one charge per probe");
        assert_eq!(s.index_entries_read, b.index_entries_read);
        assert_eq!(b.batched_reads, keys.len() as u64);
        assert!(b.batches_issued <= 4, "at most one group per device");
        assert!(b.remote_rtts < s.remote_rtts, "RTTs amortized per group");
    }

    #[test]
    fn index_lookup_batch_falls_back_for_unhinted_local_keys() {
        let c = cluster();
        loaded(&c, 0);
        let ix = c.create_index(IndexSpec::local("lix", "part", 8)).unwrap();
        for i in 0..16i64 {
            ix.insert_at(
                (i % 8) as usize,
                Value::Int(i),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        let keys: Vec<Value> = (0..16i64).map(Value::Int).collect();
        c.metrics().reset();
        let batched = ix.lookup_batch(&keys, 0);
        for (key, hits) in keys.iter().zip(&batched) {
            assert_eq!(hits.as_ref().unwrap(), &ix.lookup(key, 0).unwrap());
        }
        let s = c.metrics().snapshot();
        assert_eq!(
            s.batched_reads, 0,
            "local-index keys take the per-partition probe loop"
        );
    }

    #[test]
    fn duplicate_file_names_rejected() {
        let c = cluster();
        c.create_file(FileSpec::new("f", Partitioning::hash(1)))
            .unwrap();
        assert!(c
            .create_file(FileSpec::new("f", Partitioning::hash(1)))
            .is_err());
    }

    #[test]
    fn memory_budget_below_floor_is_rejected() {
        assert!(matches!(
            SimCluster::builder()
                .memory_budget(MIN_MEMORY_BUDGET - 1)
                .build(),
            Err(RedeError::Config(_))
        ));
        assert!(SimCluster::builder()
            .memory_budget(MIN_MEMORY_BUDGET)
            .build()
            .is_ok());
    }

    #[test]
    fn tiny_memory_budget_evicts_and_answers_stay_byte_identical() {
        // An unbounded twin provides the ground truth: same load, same
        // resolves, no memory pressure anywhere.
        let make = |budget: Option<usize>| {
            let mut b = SimCluster::builder().nodes(2);
            if let Some(bytes) = budget {
                b = b.memory_budget(bytes);
            }
            let c = b.build().unwrap();
            let f = c
                .create_file(FileSpec::new("part", Partitioning::hash(4)))
                .unwrap();
            for i in 0..600i64 {
                f.insert(
                    Value::Int(i),
                    Record::from_text(&format!("row-{i}-{}", "x".repeat(120))),
                )
                .unwrap();
            }
            c
        };
        let tiny = make(Some(MIN_MEMORY_BUDGET));
        let wide = make(None);
        assert!(
            tiny.buffer_stats().evictions > 0,
            "600 * ~140 B rows cannot all stay resident in {MIN_MEMORY_BUDGET} B"
        );
        for i in 0..600i64 {
            let ptr = Pointer::logical("part", Value::Int(i), Value::Int(i));
            let a = tiny.resolve(&ptr, 0).unwrap();
            let b = wide.resolve(&ptr, 0).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "row {i} must be byte-identical");
        }
        // Resolves under pressure fault pages back in, and the faults are
        // physical: logical conservation is untouched by them.
        let s = tiny.metrics().snapshot();
        assert!(s.page_faults > 0, "re-reads must fault evicted pages in");
        assert!(s.page_evictions > 0);
        assert_eq!(s.point_reads(), 600);
        assert_eq!(wide.metrics().snapshot().page_faults, 0);
        let ps = tiny.buffer_stats();
        assert!(ps.budget_used <= ps.budget_total, "budget is a hard cap");
    }

    #[test]
    fn an_index_probe_that_faults_counts_its_faults_as_index_faults() {
        let c = SimCluster::builder()
            .nodes(2)
            .memory_budget(MIN_MEMORY_BUDGET)
            .build()
            .unwrap();
        let f = loaded(&c, 0);
        for i in 0..600i64 {
            f.insert(
                Value::Int(i),
                Record::from_text(&format!("row-{i}-{}", "x".repeat(120))),
            )
            .unwrap();
        }
        // More postings than the budget holds, so probes fault.
        let ix = c.create_index(IndexSpec::global("ix", "part", 8)).unwrap();
        for i in 0..6_000i64 {
            ix.insert(
                Value::Int(i),
                IndexEntry::new(Value::Int(i % 600), Value::Int(i % 600)).to_record(),
            )
            .unwrap();
        }
        // Heap reads fault pages too, but count no index fault.
        let before = c.metrics().snapshot();
        for i in 0..600i64 {
            c.resolve(&Pointer::logical("part", Value::Int(i), Value::Int(i)), 0)
                .unwrap();
        }
        let heap = c.metrics().snapshot().since(&before);
        assert!(heap.page_faults > 0, "the sweep must page");
        assert_eq!(heap.index_page_faults, 0);
        // Scalar and batched probes: every fault they take is both.
        let before = c.metrics().snapshot();
        for i in (0..6_000i64).step_by(37) {
            assert_eq!(ix.lookup(&Value::Int(i), 0).unwrap().len(), 1);
        }
        let keys: Vec<Value> = (0..6_000i64).step_by(29).map(Value::Int).collect();
        assert!(ix.lookup_batch(&keys, 1).iter().all(|r| r.is_ok()));
        let probes = c.metrics().snapshot().since(&before);
        assert!(
            probes.page_faults > 0,
            "evicted postings must fault back in"
        );
        assert_eq!(probes.index_page_faults, probes.page_faults);
    }

    #[test]
    fn shared_budget_shrinks_record_cache_under_page_pressure() {
        let c = SimCluster::builder()
            .nodes(1)
            .memory_budget(MIN_MEMORY_BUDGET)
            .record_cache(32 * 1024)
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("t", Partitioning::hash(1)))
            .unwrap();
        for i in 0..400i64 {
            f.insert(
                Value::Int(i),
                Record::from_text(&format!("row-{i}-{}", "y".repeat(120))),
            )
            .unwrap();
        }
        // Sweep every record: cache inserts and page faults now compete
        // for the same bytes. Everything must still resolve correctly.
        for i in 0..400i64 {
            let ptr = Pointer::logical("t", Value::Int(i), Value::Int(i));
            assert!(c
                .resolve(&ptr, 0)
                .unwrap()
                .text()
                .unwrap()
                .starts_with(&format!("row-{i}-")));
        }
        let ps = c.buffer_stats();
        assert!(ps.budget_used <= ps.budget_total);
        let s = c.metrics().snapshot();
        assert_eq!(
            s.cache_hits + s.cache_misses,
            400,
            "every resolve is a hit or a miss even under shared pressure"
        );
    }

    #[test]
    fn logical_and_physical_aliases_share_one_cache_entry() {
        let c = SimCluster::builder()
            .nodes(1)
            .record_cache(64 * 1024)
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("t", Partitioning::hash(1)))
            .unwrap();
        let (partition, slot) = f.insert(Value::Int(7), Record::from_text("r7")).unwrap();
        let logical = Pointer::logical("t", Value::Int(7), Value::Int(7));
        let physical = Pointer::physical("t", partition, slot);
        // First resolve (logical) misses and fills the cache; the second
        // (physical alias of the same record) must hit the same entry.
        assert_eq!(c.resolve(&logical, 0).unwrap().text().unwrap(), "r7");
        assert_eq!(c.resolve(&physical, 0).unwrap().text().unwrap(), "r7");
        let s = c.metrics().snapshot();
        assert_eq!(s.cache_misses, 1, "aliases normalize to one cache key");
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.point_reads(), 1, "the alias never touched storage");
    }
}
