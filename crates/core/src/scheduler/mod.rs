//! HarborScheduler — the concurrent multi-job service layer.
//!
//! The executor ([`crate::exec`]) answers "how does *one* job run fast";
//! this module answers "how do *many* tenants share one harbor". A
//! [`HarborScheduler`] owns a single shared SMPE substrate (one weighted
//! stage queue per node, served by `min(pool_threads, cores)` workers) and
//! admits jobs from any number of concurrent clients:
//!
//! * **Fair-share admission.** Every job is submitted with a weight
//!   (default 1). Dispatch is weighted round-robin over per-job stage
//!   queues, and pooled threads are capped per job at
//!   `pool_threads * weight / total_active_weight` — so a scan-heavy
//!   tenant flooding the queues with thousands of dereference tasks
//!   cannot starve a point-lookup tenant of dispatch slots, pool threads,
//!   or (because its I/O is throttled with it) per-node IOPS permits.
//! * **Per-job accounting.** Every job runs through an I/O scope: its
//!   `JobResult` carries exact metrics and an execution profile even
//!   while other jobs hammer the same cluster, preserving the per-job
//!   conservation invariant `local + remote + cache hits == logical point
//!   reads`.
//! * **Build-once structure coordination.** [`ensure_index`] guarantees
//!   that N concurrent requests for the same missing index run exactly
//!   one supervised build; the other N−1 block on its completion
//!   (`builds`).
//! * **Cancellation.** [`JobHandle::cancel`] drains the job's queued
//!   tasks from every node queue; in-flight invocations retire and the
//!   job's pool slots and IOPS permits return to the commons.
//!
//! [`ensure_index`]: HarborScheduler::ensure_index

pub(crate) mod builds;

pub use builds::{EnsureOutcome, StructureTicket};

use crate::exec::smpe::{JobOptions, JobState, Substrate};
use crate::exec::{Batching, RoutingPolicy};
use crate::job::Job;
use crate::maintenance::IndexBuilder;
use crate::JobResult;
use parking_lot::Mutex;
use rede_common::{RedeError, Result};
use rede_storage::{Record, SimCluster};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Scheduler configuration: the substrate knobs shared by all jobs.
/// Per-job knobs (weight, output collection) live in [`SubmitOptions`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Pool capacity shared by all jobs: the fair-share denominator and
    /// the upper bound on workers (see `ExecutorConfig::pool_threads`).
    pub pool_threads: usize,
    /// Run each referencer inside the dispatch that produced its input
    /// record (the paper's default).
    pub referencer_inline: bool,
    /// Pointer routing policy for every job.
    pub routing: RoutingPolicy,
    /// Pointer coalescing at pop time for every job (default on; see
    /// [`Batching`]).
    pub batching: Batching,
    /// Admission bound: the maximum number of unfinished jobs any single
    /// tenant (grouped by the `tenant` label; unlabelled submissions form
    /// one anonymous tenant) may have at once. A submission over the
    /// bound is rejected with [`RedeError::Overloaded`] instead of
    /// queued — fair-share weights keep admitted jobs honest, this keeps
    /// the *backlog* honest. `None` (the default) admits everything.
    pub max_tenant_queue_depth: Option<usize>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            pool_threads: 256,
            referencer_inline: true,
            routing: RoutingPolicy::default(),
            batching: Batching::default(),
            max_tenant_queue_depth: None,
        }
    }
}

/// Per-submission options.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Fair-share weight (0 is treated as 1). A weight-3 job gets three
    /// times the dispatch slots and pool-thread share of a weight-1 job
    /// while both have queued work.
    pub weight: u32,
    /// Collect output records into the result (otherwise only count).
    pub collect_outputs: bool,
    /// Client label carried on the handle (stats, debugging, admission).
    pub tenant: Option<String>,
    /// Abort the job if it has not finished within this span of its
    /// admission. The abort rides the normal cancellation path (queued
    /// tasks drained, permits and pool slots returned); waiters get
    /// `RedeError::Cancelled` naming the deadline.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Set the fair-share weight.
    pub fn weight(mut self, weight: u32) -> SubmitOptions {
        self.weight = weight;
        self
    }

    /// Collect output records.
    pub fn collecting(mut self) -> SubmitOptions {
        self.collect_outputs = true;
        self
    }

    /// Label the submission with a tenant name.
    pub fn tenant(mut self, tenant: impl Into<String>) -> SubmitOptions {
        self.tenant = Some(tenant.into());
        self
    }

    /// Bound the job's total runtime.
    pub fn deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// A client's handle on one submitted job. Cheap to clone; the job runs
/// (or is cancelled) independently of how many handles exist.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id())
            .field("tenant", &self.tenant())
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl JobHandle {
    /// Scheduler-assigned job id (also the id on the job's I/O scope).
    pub fn id(&self) -> u64 {
        self.state.id()
    }

    /// The tenant label given at submission, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.state.label()
    }

    /// Block until the job finishes; returns its result, an execution
    /// error, or `RedeError::Cancelled`. Callable from any number of
    /// threads; all see the same result.
    pub fn wait(&self) -> Result<JobResult> {
        self.state.wait_result()
    }

    /// The result if the job has finished, `None` while it is running.
    pub fn try_result(&self) -> Option<Result<JobResult>> {
        self.state.try_result()
    }

    /// Block until the job finishes or `timeout` elapses. `None` means
    /// the timeout hit first; the job keeps running (pair with
    /// [`JobHandle::cancel`] to abandon it instead).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobResult>> {
        self.state.wait_result_timeout(timeout)
    }

    /// True once a result is available.
    pub fn is_finished(&self) -> bool {
        self.state.is_finished()
    }

    /// Cancel the job: queued tasks are dropped everywhere, in-flight
    /// invocations retire, waiters get `RedeError::Cancelled`. Idempotent.
    pub fn cancel(&self) {
        self.state.cancel()
    }

    /// IOPS permits currently held by this job's in-flight reads (0 once
    /// the job has finished or a cancellation has drained).
    pub fn permits_held(&self) -> i64 {
        self.state.scope().permits_held()
    }

    /// Pooled threads currently occupied by this job.
    pub fn pool_threads_held(&self) -> u64 {
        self.state.pool_inflight()
    }

    /// Take up to `max` buffered records from a streaming submission, in
    /// emission order. Empty on the collect path, and after the stream
    /// is exhausted. A drain that takes the sink below its low-water
    /// mark releases the emit-path backpressure.
    pub(crate) fn drain_output(&self, max: usize) -> Vec<Record> {
        self.state.drain_output(max)
    }

    /// Records buffered in the streaming sink right now.
    pub(crate) fn output_pending(&self) -> usize {
        self.state.output_pending()
    }

    /// True while the streaming sink is saturated (emit path stalled).
    pub(crate) fn output_stalled(&self) -> bool {
        self.state.output_stalled()
    }

    /// Block up to `timeout` for a buffered record or job completion.
    pub(crate) fn output_available(&self, timeout: Duration) -> bool {
        self.state.output_available(timeout)
    }
}

/// Point-in-time scheduler observability counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs admitted and not yet finished.
    pub active_jobs: usize,
    /// Jobs finished (completed, failed, or cancelled) since creation.
    pub completed_jobs: u64,
    /// Coordinated index builds actually started (`ensure_index`
    /// requests that found neither the index nor a build of it). Builds
    /// are all it counts: commits maintain indexes without the registry.
    pub builds_started: u64,
    /// `ensure_index` requests that coalesced onto an in-flight build.
    pub builds_coalesced: u64,
    /// Current stage-queue depth per node.
    pub queue_depths: Vec<u64>,
    /// Stage invocations that panicked (each became a job error, never a
    /// lost worker).
    pub pool_panics: u64,
    /// Jobs aborted because their [`SubmitOptions::deadline`] passed
    /// first: the deadline's timer on the cluster's event loop
    /// (`SimCluster::timer`) fired on the unfinished job.
    pub deadline_aborts: u64,
    /// Submissions refused by per-tenant admission control.
    pub rejected_jobs: u64,
    /// Events armed or queued on the cluster's loop, device and wire
    /// (`SimCluster::fabric_in_flight`); 0 at rest (every flight lands,
    /// and a deadline's timer is not a flight).
    pub fabric_in_flight: usize,
}

/// Arm `job`'s deadline as a timer on `cluster`'s event loop: at `when` an
/// unfinished job is aborted and counted in `aborts`. The timer reaches
/// the job only through a token the job empties when it finishes, and
/// holds no cluster or scheduler, so it keeps none of them alive. Teardown
/// fires it early, hence the clock check. The abort runs on the loop's
/// thread; it only takes queue locks briefly and wakes waiters.
fn arm_deadline(cluster: &SimCluster, when: Instant, job: &Arc<JobState>, aborts: &Arc<AtomicU64>) {
    let (token, aborts) = (job.deadline_token(), aborts.clone());
    cluster.timer(when.saturating_duration_since(Instant::now()), move || {
        if Instant::now() < when {
            return;
        }
        let job = token.lock().as_ref().and_then(Weak::upgrade);
        if let Some(job) = job {
            job.deadline_abort(&aborts);
        }
    });
}

struct Core {
    substrate: Substrate,
    config: SchedulerConfig,
    /// Weak because jobs outlive client interest: a handle dropped without
    /// `wait` must not pin the job state forever in this list.
    active: Mutex<Vec<Weak<JobState>>>,
    completed: Arc<AtomicU64>,
    builds: Arc<builds::BuildRegistry>,
    /// Attached write path, if any. While attached, every submission pins
    /// the committed cut at submit time; unattached, submissions read the
    /// live tip through the zero-overhead path.
    txn: Mutex<Option<Arc<crate::txn::TxnManager>>>,
    deadline_aborts: Arc<AtomicU64>,
    rejected: AtomicU64,
}

impl Drop for Core {
    fn drop(&mut self) {
        // Orderly shutdown: no job left running, no build thread leaked.
        // The substrate's own Drop then stops the workers.
        let active = std::mem::take(&mut *self.active.lock());
        for weak in &active {
            if let Some(job) = weak.upgrade() {
                job.cancel();
            }
        }
        for weak in &active {
            if let Some(job) = weak.upgrade() {
                let _ = job.wait_result();
            }
        }
        self.builds.join_all();
    }
}

/// The multi-tenant job service. Cheap to clone — clones share one
/// substrate; hand one to each client thread.
#[derive(Clone)]
pub struct HarborScheduler {
    core: Arc<Core>,
}

impl HarborScheduler {
    /// Stand up a scheduler over `cluster`: spawns the substrate's workers
    /// eagerly.
    pub fn new(cluster: SimCluster, config: SchedulerConfig) -> HarborScheduler {
        let substrate = Substrate::new(cluster, config.pool_threads);
        HarborScheduler {
            core: Arc::new(Core {
                substrate,
                config,
                active: Mutex::new(Vec::new()),
                completed: Arc::new(AtomicU64::new(0)),
                builds: Arc::new(builds::BuildRegistry::new()),
                txn: Mutex::new(None),
                deadline_aborts: Arc::new(AtomicU64::new(0)),
                rejected: AtomicU64::new(0),
            }),
        }
    }

    /// Scheduler with default configuration.
    pub fn with_defaults(cluster: SimCluster) -> HarborScheduler {
        HarborScheduler::new(cluster, SchedulerConfig::default())
    }

    /// The cluster jobs run against.
    pub fn cluster(&self) -> &SimCluster {
        self.core.substrate.cluster()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.core.config
    }

    /// Submit with default options (weight 1, counting only).
    pub fn submit(&self, job: &Job) -> Result<JobHandle> {
        self.submit_with(job, SubmitOptions::default())
    }

    /// Admit a job. Never blocks on the job: seeding is the only work done
    /// on the caller's thread. Returns immediately with a waitable,
    /// cancellable handle — or `RedeError::Overloaded` when the tenant is
    /// already at its admission bound.
    pub fn submit_with(&self, job: &Job, opts: SubmitOptions) -> Result<JobHandle> {
        self.submit_inner(job, opts, None)
    }

    /// Admit a job whose final records stream through a bounded sink of
    /// `buffer` records instead of accumulating in the result. The gate's
    /// cursors drain the sink page by page; saturation backpressures the
    /// job's pooled tasks (they park in the weighted queues, holding no
    /// pool threads). Same admission control as [`submit_with`].
    ///
    /// [`submit_with`]: HarborScheduler::submit_with
    pub(crate) fn submit_streaming(
        &self,
        job: &Job,
        opts: SubmitOptions,
        buffer: usize,
    ) -> Result<JobHandle> {
        self.submit_inner(job, opts, Some(buffer))
    }

    fn submit_inner(
        &self,
        job: &Job,
        opts: SubmitOptions,
        stream_buffer: Option<usize>,
    ) -> Result<JobHandle> {
        let core = &self.core;
        // Admission check and registration under one lock, so two racing
        // submissions from the same tenant cannot both sneak under the
        // bound.
        let mut active = core.active.lock();
        active.retain(|w| w.upgrade().is_some_and(|j| !j.is_finished()));
        if let Some(bound) = core.config.max_tenant_queue_depth {
            let depth = active
                .iter()
                .filter_map(|w| w.upgrade())
                .filter(|j| j.label() == opts.tenant.as_deref())
                .count();
            if depth >= bound {
                core.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(RedeError::Overloaded(format!(
                    "tenant '{}' has {depth} unfinished jobs (bound {bound})",
                    opts.tenant.as_deref().unwrap_or("<anonymous>"),
                )));
            }
        }
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        let state = core.substrate.submit(
            job,
            JobOptions {
                weight: opts.weight.max(1),
                collect_outputs: opts.collect_outputs,
                referencer_inline: core.config.referencer_inline,
                routing: core.config.routing,
                batching: core.config.batching,
                label: opts.tenant,
                // With ingest attached, pin the committed cut at submit:
                // the job reads one consistent snapshot however many
                // transactions commit while it runs. The guard travels
                // with the job state and drops at finish.
                snapshot: core.txn.lock().as_ref().map(|mgr| mgr.pin()),
                on_finish: Some(core.completed.clone()),
                stream_buffer,
            },
        );
        active.push(Arc::downgrade(&state));
        drop(active);
        if let Some(when) = deadline {
            arm_deadline(
                core.substrate.cluster(),
                when,
                &state,
                &core.deadline_aborts,
            );
        }
        Ok(JobHandle { state })
    }

    /// Ensure an index exists, building it at most once no matter how many
    /// clients ask concurrently. Returns a ticket: `wait` blocks until the
    /// structure is available (`AlreadyPresent` or `Built(report)`) or its
    /// one build failed. A failed build cleans up its partial index, so a
    /// later `ensure_index` retries from scratch.
    pub fn ensure_index(&self, builder: IndexBuilder) -> StructureTicket {
        self.core.builds.ensure(builder)
    }

    /// Attach an online write path. From this call on every job
    /// submission pins the committed cut at submit time, so analytics
    /// read one consistent snapshot while ingest keeps appending. The
    /// manager's commits keep its indexes current themselves.
    pub fn attach_ingest(&self, manager: &Arc<crate::txn::TxnManager>) {
        *self.core.txn.lock() = Some(manager.clone());
    }

    /// The attached transaction manager, if ingest is attached (the gate
    /// pins per-cursor snapshots through it).
    pub(crate) fn txn_manager(&self) -> Option<Arc<crate::txn::TxnManager>> {
        self.core.txn.lock().clone()
    }

    /// Current counters.
    pub fn stats(&self) -> SchedulerStats {
        let active_jobs = self
            .core
            .active
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some_and(|j| !j.is_finished()))
            .count();
        SchedulerStats {
            active_jobs,
            completed_jobs: self.core.completed.load(Ordering::SeqCst),
            builds_started: self.core.builds.started(),
            builds_coalesced: self.core.builds.coalesced(),
            queue_depths: self.core.substrate.queue_depths(),
            pool_panics: self.core.substrate.pool_panics(),
            deadline_aborts: self.core.deadline_aborts.load(Ordering::SeqCst),
            rejected_jobs: self.core.rejected.load(Ordering::SeqCst),
            fabric_in_flight: self.core.substrate.cluster().fabric_in_flight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SeedInput;
    use crate::prebuilt::{
        BtreeRangeDereferencer, DelimitedInterpreter, FieldType, IndexEntryReferencer,
        LookupDereferencer,
    };
    use crate::traits::{DerefInput, Interpreter, StageCtx};
    use rede_common::{RedeError, Value};
    use rede_storage::{FileSpec, IndexSpec, IoModel, Partitioning, Pointer, Record};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// 4-node cluster with a `base` file: key | key%7 | key*2.
    fn cluster(rows: i64, io: IoModel) -> SimCluster {
        let c = SimCluster::builder().nodes(4).io_model(io).build().unwrap();
        let f = c
            .create_file(FileSpec::new("base", Partitioning::hash(8)))
            .unwrap();
        for i in 0..rows {
            f.insert(
                Value::Int(i),
                Record::from_text(&format!("{i}|{}|{}", i % 7, i * 2)),
            )
            .unwrap();
        }
        c
    }

    fn weight_index_builder(c: &SimCluster) -> IndexBuilder {
        IndexBuilder::new(
            c.clone(),
            IndexSpec::global("base.weight", "base", 8),
            Arc::new(DelimitedInterpreter::pipe(2, FieldType::Int)),
        )
    }

    /// Index-probe job over `base.weight` ∈ [lo, hi] fetching base records.
    fn range_job(lo: i64, hi: i64) -> Job {
        Job::builder("range")
            .seed(SeedInput::Range {
                file: "base.weight".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            })
            .dereference(
                "probe",
                Arc::new(BtreeRangeDereferencer::new("base.weight")),
            )
            .reference("to-ptr", Arc::new(IndexEntryReferencer::new("base")))
            .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
            .build()
            .unwrap()
    }

    #[test]
    fn concurrent_clients_get_correct_independent_results() {
        let c = cluster(400, IoModel::zero());
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::with_defaults(c);
        // Client k asks for weight ∈ [0, 2k] → keys 0..=k → k+1 records.
        let handles: Vec<(u64, JobHandle)> = (0..12)
            .map(|k| {
                let job = range_job(0, 2 * k as i64);
                (
                    k + 1,
                    sched
                        .submit_with(&job, SubmitOptions::new().tenant(format!("client-{k}")))
                        .unwrap(),
                )
            })
            .collect();
        for (expect, handle) in handles {
            let result = handle.wait().unwrap();
            assert_eq!(result.count, expect);
            // Per-job conservation: every one of this job's logical point
            // reads (one per fetched record) is accounted as a local
            // read, a remote read, or a cache hit — in this job's scope
            // alone, despite the 11 others sharing the cluster.
            let resolved: u64 = result
                .profile
                .nodes
                .iter()
                .map(|n| n.io.local + n.io.remote + n.io.cache_hits)
                .sum();
            assert_eq!(
                resolved, expect,
                "per-job conservation broke for a concurrent job"
            );
        }
        let stats = sched.stats();
        assert_eq!(stats.completed_jobs, 12);
        assert_eq!(stats.active_jobs, 0);
    }

    #[test]
    fn empty_seed_job_finishes_immediately_with_empty_result() {
        let c = cluster(10, IoModel::zero());
        let sched = HarborScheduler::with_defaults(c);
        let job = Job::builder("empty")
            .seed(SeedInput::Pointers(vec![]))
            .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
            .build()
            .unwrap();
        let result = sched.submit(&job).unwrap().wait().unwrap();
        assert_eq!(result.count, 0);
        assert!(result.records.is_empty());
    }

    /// An interpreter that works correctly but slowly — keeps a build in
    /// flight long enough for concurrent requests to pile onto it.
    struct Slow(DelimitedInterpreter, Duration);
    impl Interpreter for Slow {
        fn extract(&self, record: &Record) -> rede_common::Result<Vec<Value>> {
            std::thread::sleep(self.1);
            self.0.extract(record)
        }
    }

    #[test]
    fn duplicate_index_requests_trigger_exactly_one_build() {
        let c = cluster(200, IoModel::zero());
        let sched = HarborScheduler::with_defaults(c.clone());
        let clients = 8;
        let barrier = Arc::new(Barrier::new(clients));
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let sched = sched.clone();
                let c = c.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let builder = IndexBuilder::new(
                        c,
                        IndexSpec::global("base.weight", "base", 8),
                        Arc::new(Slow(
                            DelimitedInterpreter::pipe(2, FieldType::Int),
                            Duration::from_millis(2),
                        )),
                    );
                    barrier.wait();
                    sched.ensure_index(builder).wait()
                })
            })
            .collect();
        let outcomes: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        assert_eq!(
            sched.stats().builds_started,
            1,
            "duplicate requests must coalesce into exactly one build"
        );
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, EnsureOutcome::Built(_))),
            "someone must have run (or ridden) the build"
        );
        for o in &outcomes {
            if let EnsureOutcome::Built(report) = o {
                assert_eq!(report.entries, 200);
            }
        }
        assert_eq!(c.index("base.weight").unwrap().len(), 200);
        // The structure now exists: a fresh request builds nothing.
        let ticket = sched.ensure_index(weight_index_builder(&c));
        assert!(matches!(
            ticket.wait().unwrap(),
            EnsureOutcome::AlreadyPresent
        ));
        assert_eq!(sched.stats().builds_started, 1);
    }

    struct Bomb;
    impl Interpreter for Bomb {
        fn extract(&self, _record: &Record) -> rede_common::Result<Vec<Value>> {
            panic!("interpreter exploded");
        }
    }

    #[test]
    fn failed_build_cleans_up_so_a_retry_starts_fresh() {
        let c = cluster(50, IoModel::zero());
        let sched = HarborScheduler::with_defaults(c.clone());
        let bad = IndexBuilder::new(
            c.clone(),
            IndexSpec::global("base.weight", "base", 8),
            Arc::new(Bomb),
        );
        let err = sched.ensure_index(bad).wait().unwrap_err();
        match &err {
            RedeError::Exec(msg) => assert!(
                msg.contains("interpreter exploded"),
                "panic message lost: {msg}"
            ),
            other => panic!("expected Exec error, got {other:?}"),
        }
        assert!(
            c.index("base.weight").is_err(),
            "failed build must deregister its partial index"
        );
        // Retry with a working interpreter: a second build runs and wins.
        let outcome = sched.ensure_index(weight_index_builder(&c)).wait().unwrap();
        assert!(matches!(outcome, EnsureOutcome::Built(_)));
        assert_eq!(sched.stats().builds_started, 2);
        assert_eq!(c.index("base.weight").unwrap().len(), 50);
    }

    #[test]
    fn cancelled_job_frees_its_permits_and_pool_slots() {
        // Real injected latency so the job is genuinely in flight when the
        // cancel lands.
        let c = cluster(3000, IoModel::hdd_like(0.5));
        weight_index_builder(&c).build().unwrap();
        let permits_before = c.available_iops_permits();
        let sched = HarborScheduler::new(
            c.clone(),
            SchedulerConfig {
                pool_threads: 16,
                ..SchedulerConfig::default()
            },
        );
        let handle = sched.submit(&range_job(0, 6000)).unwrap();
        // Cancel mid-flight, on an observed condition rather than a sleep
        // the job might outrun: it holds device slots exactly while it has
        // reads in service.
        while handle.permits_held() == 0 {
            assert!(!handle.is_finished(), "job finished before holding a slot");
            std::thread::yield_now();
        }
        handle.cancel();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, RedeError::Cancelled(_)), "got {err:?}");
        // In-flight reads retire on their own schedule; everything the job
        // held must come back promptly.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let clean = handle.permits_held() == 0
                && handle.pool_threads_held() == 0
                && c.available_iops_permits() == permits_before;
            if clean {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cancelled job still holds resources: permits_held={} pool_held={} iops={:?}",
                handle.permits_held(),
                handle.pool_threads_held(),
                c.available_iops_permits(),
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Cancelling again (or after finish) is a harmless no-op.
        handle.cancel();
        assert!(handle.is_finished());
    }

    #[test]
    fn weighted_submission_options_are_respected() {
        let c = cluster(100, IoModel::zero());
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::with_defaults(c);
        let handle = sched
            .submit_with(
                &range_job(0, 200),
                SubmitOptions::new().weight(4).collecting().tenant("t0"),
            )
            .unwrap();
        assert_eq!(handle.tenant(), Some("t0"));
        let result = handle.wait().unwrap();
        assert_eq!(result.count, 100);
        assert_eq!(result.records.len(), 100, "collecting option must stick");
    }

    #[test]
    fn tenant_over_its_admission_bound_is_rejected() {
        // Real latency keeps the admitted jobs unfinished while the
        // over-bound submission arrives.
        let c = cluster(2000, IoModel::hdd_like(0.5));
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::new(
            c,
            SchedulerConfig {
                max_tenant_queue_depth: Some(2),
                ..SchedulerConfig::default()
            },
        );
        let noisy = |s: &HarborScheduler| {
            s.submit_with(&range_job(0, 4000), SubmitOptions::new().tenant("noisy"))
        };
        let a = noisy(&sched).unwrap();
        let b = noisy(&sched).unwrap();
        let err = noisy(&sched).unwrap_err();
        assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
        // Admission is per tenant: another tenant still gets in.
        let other = sched
            .submit_with(&range_job(0, 10), SubmitOptions::new().tenant("quiet"))
            .unwrap();
        assert_eq!(sched.stats().rejected_jobs, 1);
        other.wait().unwrap();
        a.wait().unwrap();
        b.wait().unwrap();
        // With the backlog drained the tenant is admittable again.
        noisy(&sched).unwrap().wait().unwrap();
        assert_eq!(sched.stats().rejected_jobs, 1);
    }

    #[test]
    fn deadline_exceeded_job_aborts_and_returns_its_resources() {
        // One probe and one read cost 12 ms + 50 ms of device time, so the
        // job cannot finish inside its 20 ms deadline however fast the
        // executor is.
        let c = cluster(3000, IoModel::hdd_like(100.0));
        weight_index_builder(&c).build().unwrap();
        let permits_before = c.available_iops_permits();
        let sched = HarborScheduler::new(
            c.clone(),
            SchedulerConfig {
                pool_threads: 16,
                ..SchedulerConfig::default()
            },
        );
        let handle = sched
            .submit_with(
                &range_job(0, 6000),
                SubmitOptions::new().deadline(Duration::from_millis(20)),
            )
            .unwrap();
        let err = handle.wait().unwrap_err();
        match err {
            RedeError::Cancelled(msg) => {
                assert!(
                    msg.contains("deadline"),
                    "abort must name the deadline: {msg}"
                )
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(sched.stats().deadline_aborts, 1);
        // Everything the job held comes back as its in-flight reads retire.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let clean = handle.permits_held() == 0
                && handle.pool_threads_held() == 0
                && c.available_iops_permits() == permits_before;
            if clean {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "deadline-aborted job still holds resources: permits_held={} pool_held={}",
                handle.permits_held(),
                handle.pool_threads_held(),
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // A fast job under the same scheduler sails through its deadline.
        let ok = sched
            .submit_with(
                &range_job(0, 20),
                SubmitOptions::new().deadline(Duration::from_secs(30)),
            )
            .unwrap();
        assert_eq!(ok.wait().unwrap().count, 11);
        assert_eq!(sched.stats().deadline_aborts, 1);
    }

    /// A deadline is a timer, not a side effect of the job's own events: a
    /// streaming job parked on a full sink that nobody fetches has nothing
    /// in flight on the loop, and its deadline still aborts it and hands
    /// back everything it held.
    #[test]
    fn a_deadline_aborts_a_job_with_no_event_in_flight() {
        let c = cluster(4000, IoModel::zero());
        weight_index_builder(&c).build().unwrap();
        let permits_before = c.available_iops_permits();
        let sched = HarborScheduler::new(
            c.clone(),
            SchedulerConfig {
                pool_threads: 16,
                ..SchedulerConfig::default()
            },
        );
        let deadline = Duration::from_millis(100);
        let submitted = Instant::now();
        let handle = sched
            .submit_streaming(
                &range_job(0, 8000),
                SubmitOptions::new().deadline(deadline),
                4,
            )
            .unwrap();
        while !handle.output_stalled() {
            assert!(!handle.is_finished(), "the job must park on its full sink");
            std::thread::yield_now();
        }
        assert_eq!(c.fabric_in_flight(), 0, "a latency-free job flies nothing");

        let err = handle.wait().unwrap_err();
        let waited = submitted.elapsed();
        match err {
            RedeError::Cancelled(msg) => {
                assert!(msg.contains("exceeded its deadline"), "{msg}")
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(
            waited >= deadline,
            "aborted before its deadline: {waited:?}"
        );
        assert!(
            waited < deadline + Duration::from_secs(5),
            "aborted long after its deadline: {waited:?}"
        );
        let stats = sched.stats();
        assert_eq!(stats.deadline_aborts, 1);
        assert_eq!(stats.active_jobs, 0);
        assert!(stats.queue_depths.iter().all(|&d| d == 0), "{stats:?}");
        assert_eq!(stats.fabric_in_flight, 0);
        assert_eq!(handle.pool_threads_held(), 0);
        assert_eq!(handle.permits_held(), 0);
        assert_eq!(c.available_iops_permits(), permits_before);
    }

    /// A deadline that is met leaves nothing in flight, and a deadline
    /// timer fired early — as teardown fires every timer — aborts nothing:
    /// the timer checks the clock itself and keeps neither the scheduler
    /// nor the cluster alive.
    #[test]
    fn a_met_deadline_holds_nothing_and_teardown_aborts_nothing() {
        let c = cluster(4000, IoModel::zero());
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::new(
            c.clone(),
            SchedulerConfig {
                pool_threads: 16,
                ..SchedulerConfig::default()
            },
        );
        let thirty = Duration::from_secs(30);
        let done = sched
            .submit_with(&range_job(0, 20), SubmitOptions::new().deadline(thirty))
            .unwrap();
        assert_eq!(done.wait().unwrap().count, 11);
        let stats = sched.stats();
        assert_eq!((stats.deadline_aborts, stats.fabric_in_flight), (0, 0));

        // A job still running when a deadline timer fires early: arm one
        // on a loop that is torn down at once.
        let parked = sched
            .submit_streaming(
                &range_job(0, 8000),
                SubmitOptions::new().deadline(thirty),
                4,
            )
            .unwrap();
        while !parked.output_stalled() {
            std::thread::yield_now();
        }
        let doomed = SimCluster::builder().nodes(1).build().unwrap();
        arm_deadline(
            &doomed,
            Instant::now() + thirty,
            &parked.state,
            &sched.core.deadline_aborts,
        );
        drop(doomed);
        assert!(!parked.is_finished(), "an early timer aborted a live job");
        assert_eq!(sched.stats().deadline_aborts, 0);
        parked.cancel();
        let err = parked.wait().unwrap_err();
        assert!(
            matches!(&err, RedeError::Cancelled(msg) if !msg.contains("deadline")),
            "{err:?}"
        );

        // Both jobs' timers are still armed, 30 s out: dropping the
        // scheduler and the cluster fires them at once and counts nothing.
        let aborts = sched.core.deadline_aborts.clone();
        drop((done, parked));
        let teardown = Instant::now();
        drop(sched);
        drop(c);
        assert!(
            teardown.elapsed() < Duration::from_secs(5),
            "teardown waited for a deadline: {:?}",
            teardown.elapsed()
        );
        assert_eq!(aborts.load(Ordering::SeqCst), 0);
    }

    /// A met deadline's timer, still 30 s out, no longer reaches the job:
    /// the job emptied the timer's token when it finished, so nothing but
    /// the test's own weak reference points at its state.
    #[test]
    fn a_finished_job_is_not_pinned_by_its_deadline_timer() {
        let c = cluster(100, IoModel::zero());
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::with_defaults(c.clone());
        let handle = sched
            .submit_with(
                &range_job(0, 20),
                SubmitOptions::new().deadline(Duration::from_secs(30)),
            )
            .unwrap();
        assert_eq!(handle.wait().unwrap().count, 11);
        let state = handle.state.clone();
        drop(handle);
        // A submission prunes finished jobs from the scheduler's list.
        sched.submit(&range_job(0, 20)).unwrap().wait().unwrap();
        let weak = Arc::downgrade(&state);
        assert_eq!(Weak::weak_count(&weak), 1);
    }

    #[test]
    fn wait_timeout_reports_running_then_finished() {
        let c = cluster(2000, IoModel::hdd_like(0.5));
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::with_defaults(c);
        let handle = sched.submit(&range_job(0, 4000)).unwrap();
        // Far too short for this job: the first wait times out...
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_none());
        assert!(!handle.is_finished(), "timeout must not cancel");
        // ...and a patient wait sees the real result (the 2000-row fixture
        // has every weight in [0, 4000)).
        let result = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("job finishes well within a minute")
            .unwrap();
        assert_eq!(result.count, 2000);
    }

    /// Pins the deadline-loop contract of every timeout wait: a spurious
    /// wakeup must not return `None` early, and a retried short wait must
    /// not oversleep past its own deadline — measured against a build kept
    /// deliberately slow (300 rows × 5 ms ≈ 1.5 s of interpreter time).
    #[test]
    fn timeout_waits_honor_their_deadline_on_a_slow_job() {
        let c = cluster(300, IoModel::zero());
        let sched = HarborScheduler::with_defaults(c.clone());
        let builder = IndexBuilder::new(
            c,
            IndexSpec::global("base.weight", "base", 8),
            Arc::new(Slow(
                DelimitedInterpreter::pipe(2, FieldType::Int),
                Duration::from_millis(5),
            )),
        );
        let ticket = sched.ensure_index(builder);

        // Far too short for this build: the wait must run its full budget
        // (no spurious-wakeup early return) but not grossly oversleep.
        let t0 = Instant::now();
        assert!(
            ticket.wait_timeout(Duration::from_millis(40)).is_none(),
            "a 1.5 s build cannot resolve in 40 ms"
        );
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(40),
            "timeout wait returned early after {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(750),
            "40 ms timeout wait overslept to {waited:?}"
        );

        // Retried short waits: each retry gets its own full deadline, and
        // the loop converges as soon as the build fulfills — it must not
        // accumulate a whole extra slice per retry.
        let mut retries = 0u32;
        let outcome = loop {
            if let Some(result) = ticket.wait_timeout(Duration::from_millis(50)) {
                break result;
            }
            retries += 1;
            assert!(retries < 600, "slow build never resolved");
        };
        assert!(matches!(outcome.unwrap(), EnsureOutcome::Built(_)));

        // Resolved tickets answer immediately, without sleeping the budget.
        let t1 = Instant::now();
        assert!(ticket.wait_timeout(Duration::from_secs(5)).is_some());
        assert!(
            t1.elapsed() < Duration::from_millis(100),
            "ready ticket slept instead of answering"
        );
    }

    /// A referencer that panics on every record.
    struct PanicReferencer;
    impl crate::traits::Referencer for PanicReferencer {
        fn reference(
            &self,
            _record: &Record,
            _ctx: &crate::traits::StageCtx,
            _emit: &mut dyn FnMut(rede_storage::Pointer),
        ) -> rede_common::Result<()> {
            panic!("referencer exploded");
        }
        fn name(&self) -> &str {
            "panic-referencer"
        }
    }

    #[test]
    fn stage_panics_surface_in_stats_without_wedging_the_scheduler() {
        let c = cluster(100, IoModel::zero());
        weight_index_builder(&c).build().unwrap();
        let sched = HarborScheduler::with_defaults(c);
        assert_eq!(sched.stats().pool_panics, 0);
        let bomb = Job::builder("bomb")
            .seed(SeedInput::Range {
                file: "base.weight".into(),
                lo: Value::Int(0),
                hi: Value::Int(4),
            })
            .dereference(
                "probe",
                Arc::new(BtreeRangeDereferencer::new("base.weight")),
            )
            .reference("boom", Arc::new(PanicReferencer))
            .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
            .build()
            .unwrap();
        let err = sched.submit(&bomb).unwrap().wait().unwrap_err();
        assert!(matches!(err, RedeError::Exec(_)), "got {err:?}");
        assert!(
            sched.stats().pool_panics >= 1,
            "a panicking stage must be visible in scheduler stats"
        );
        // The worker survived: ordinary work still completes.
        let result = sched.submit(&range_job(0, 20)).unwrap().wait().unwrap();
        assert_eq!(result.count, 11);
    }

    /// A finished build's thread is joined when the next one starts, not
    /// held until the scheduler drops: a long-lived scheduler must not
    /// keep one dead thread per build behind.
    #[test]
    fn finished_build_threads_are_joined() {
        let c = cluster(20, IoModel::zero());
        let sched = HarborScheduler::with_defaults(c.clone());
        let registry = sched.core.builds.clone();
        for i in 0..50 {
            let builder = IndexBuilder::new(
                c.clone(),
                IndexSpec::global(format!("base.w{i}"), "base", 2),
                Arc::new(DelimitedInterpreter::pipe(2, FieldType::Int)),
            );
            let outcome = sched.ensure_index(builder).wait().unwrap();
            assert!(matches!(outcome, EnsureOutcome::Built(_)), "{outcome:?}");
            // Waited out: the build's thread has exited too.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !registry.held_finished().iter().all(|&finished| finished) {
                assert!(Instant::now() < deadline, "a finished build never exited");
                std::thread::yield_now();
            }
        }
        assert_eq!(sched.stats().builds_started, 50);
        let held = registry.held_finished().len();
        assert!(held <= 1, "{held} thread handles held after 50 builds");
    }

    /// A commit posts its own index entries: with ingest attached and an
    /// index maintained, commits start no build and no thread.
    #[test]
    fn commits_start_no_build() {
        let c = SimCluster::builder().nodes(2).build().unwrap();
        let mgr = crate::txn::TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("base", Partitioning::hash(4));
        s.commit().unwrap();
        let weight = || Arc::new(DelimitedInterpreter::pipe(2, FieldType::Int));
        let sched = HarborScheduler::with_defaults(c.clone());
        let builder = IndexBuilder::new(
            c.clone(),
            IndexSpec::global("base.weight", "base", 4),
            weight(),
        );
        sched.ensure_index(builder).wait().unwrap();
        mgr.maintain_index("base.weight", weight(), None).unwrap();
        sched.attach_ingest(&mgr);

        let before = sched.stats();
        for i in 0..200i64 {
            let mut s = mgr.begin();
            s.write(
                "base",
                Value::Int(i),
                Record::from_text(&format!("{i}|0|{}", i * 2)),
            );
            s.commit().unwrap();
        }
        let after = sched.stats();
        assert_eq!(after.builds_started, before.builds_started);
        assert_eq!(after.builds_coalesced, before.builds_coalesced);
        assert_eq!(c.index("base.weight").unwrap().len(), 200);
    }

    /// Resolves its point input, but only after the test releases the
    /// gate — holds a job mid-flight while a writer commits.
    struct GatedResolve(Arc<Barrier>);

    impl crate::traits::Dereferencer for GatedResolve {
        fn dereference(
            &self,
            input: &DerefInput,
            ctx: &StageCtx,
            emit: &mut dyn FnMut(Record),
        ) -> Result<()> {
            self.0.wait();
            let ptr = input.as_point().expect("point seed");
            emit(ctx.cluster.resolve(ptr, ctx.node)?);
            Ok(())
        }
    }

    #[test]
    fn attached_ingest_pins_every_submission_to_the_cut_at_submit() {
        // One node so the single seed pointer runs exactly once.
        let c = SimCluster::builder().nodes(1).build().unwrap();
        let mgr = crate::txn::TxnManager::new(c.clone());
        let mut s = mgr.begin();
        s.create_file("live", Partitioning::hash(4));
        s.write("live", Value::Int(1), Record::from_text("v1"));
        s.commit().unwrap();

        let sched = HarborScheduler::with_defaults(c.clone());
        sched.attach_ingest(&mgr);

        let gate = Arc::new(Barrier::new(2));
        let job = Job::builder("pinned-read")
            .seed(SeedInput::Pointers(vec![Pointer::logical(
                "live",
                Value::Int(1),
                Value::Int(1),
            )]))
            .dereference("resolve", Arc::new(GatedResolve(gate.clone())))
            .build()
            .unwrap();
        let handle = sched
            .submit_with(&job, SubmitOptions::new().collecting())
            .unwrap();
        assert_eq!(c.metrics().snapshots_active(), 1, "guard pinned at submit");

        // Overwrite the key *after* submit but before the job's read runs.
        let mut s = mgr.begin();
        s.write("live", Value::Int(1), Record::from_text("v2"));
        s.commit().unwrap();
        gate.wait();

        // The job read the cut it was submitted against, not the tip.
        let result = handle.wait().unwrap();
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].bytes(), b"v1");
        assert_eq!(
            c.metrics().snapshots_active(),
            0,
            "guard released at finish"
        );

        // A fresh submission reads the new tip.
        let gate2 = Arc::new(Barrier::new(2));
        let job2 = Job::builder("tip-read")
            .seed(SeedInput::Pointers(vec![Pointer::logical(
                "live",
                Value::Int(1),
                Value::Int(1),
            )]))
            .dereference("resolve", Arc::new(GatedResolve(gate2.clone())))
            .build()
            .unwrap();
        let handle2 = sched
            .submit_with(&job2, SubmitOptions::new().collecting())
            .unwrap();
        gate2.wait();
        assert_eq!(handle2.wait().unwrap().records[0].bytes(), b"v2");
    }
}
