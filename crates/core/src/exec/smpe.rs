//! Scalable Massively Parallel Execution — Algorithm 1 of the paper —
//! as a *shared, multi-job substrate*.
//!
//! The job is distributed to every node (`EXECUTESMPE`). Each node owns a
//! stage queue, and `EXECUTESTAGES` is a *role*, not a thread: every
//! worker of the substrate serves every node's queue. Items dequeued with
//! partition information run their stage's function — dereferencers as a
//! dispatch of their own on the worker that popped them (the paper creates
//! a thread per invocation so that its read can block; here the wait is
//! the device queue's, so a worker is enough), referencers by default
//! right where their input record was produced (the paper's
//! no-thread-switch optimization: no queue, no thread in between); items
//! *without* partition information are broadcast to all nodes' queues with
//! the local flag set (`SETPARTITION(input, LOCAL); BROADCAST(input)`).
//! Function outputs are re-enqueued tagged `stage + 1`; records emitted by
//! the final stage are the job output.
//!
//! **Hand-off.** What crosses a queue is a *dispatch*, never an item.
//! `JobState::route` walks everything a dispatch produced once: final
//! records land in the output together, records bound for an inline
//! referencer run it on the spot and its pointers join the walk, and the
//! resulting tasks are bucketed by target node. Each non-empty bucket is
//! one `JobState::flush`: the in-flight tokens of all its tasks taken
//! with one add *before* the push, one cancelled/shutdown check, one queue
//! lock, one add per counter — and one condvar signal only when a worker
//! is actually asleep (see *Idling*), because a signal is a system call
//! whether or not anyone is listening. So `queue_hops` and
//! `NodeProfile::enqueued` count exactly the items that crossed a queue
//! (seeds, dereference inputs, and records only when `referencer_inline`
//! is off), `inline_runs` counts the referencer invocations that did not,
//! and the fairness unit is unchanged: one weighted-round-robin credit per
//! pop, where a continuation and the referencers fused into it are one
//! service.
//!
//! **Sharing.** The workers and the per-node queues live in a `Substrate`
//! that outlives any single job: many jobs run concurrently over the same
//! queues. Each node's queue is a weighted round-robin multi-queue (`wrr`)
//! with one slot per job, so dispatch interleaves jobs by weight instead
//! of FIFO order — a scan-heavy job that floods the queues cannot starve a
//! point-lookup job of dispatch slots. The workers are fair-shared the
//! same way: a job may have at most `pool_threads * weight /
//! total_active_weight` pooled dispatches running (min 1), enforced by the
//! eligibility check of every pop. The substrate runs `min(pool_threads,
//! cores)` workers, at least one: stage bodies are CPU work, and a
//! dispatch leaves its worker the moment its accesses are charged. Worker
//! `i` starts its scan at node `i mod nodes` and, after every pop, resumes
//! at the node after the one it served — so however few workers there
//! are, no node's queue waits behind another node's backlog.
//!
//! **Coalescing.** When the popped task is a point dereference with a
//! known owner, the same pop — under the same queue lock — takes up to
//! `max_batch - 1` same-(stage, owner) batchmates out of the job's slot
//! ([`Batching::off`] is simply `max_batch = 1`: every batch is a batch of
//! one). The extras ride the WRR credit and pool-share slot the lead
//! already paid for — a batch is *one* dispatch, so fairness (measured in
//! dispatches) and the pool-share cap are unaffected. A batch is whatever
//! of its group is queued when the lead is popped: nothing waits for
//! company, because on a worker that wait would hold a CPU idle.
//!
//! **Idling.** All workers share one idle protocol: an `epoch` bumped
//! after every push and every eligibility change, a count of sleepers, and
//! one mutex and condvar. A worker reads the epoch before it scans the
//! queues and parks only if, once counted as a sleeper under the mutex,
//! it finds the epoch unchanged — so no push is ever missed. A push wakes
//! one sleeper, and only if there is one; a worker that pops while tasks
//! remain queued on that node passes one wake-up on; and every eligibility
//! change (a drain that clears sink saturation, a pool-share release at
//! the cap, a job failing or finishing) and shutdown wake them all.
//!
//! **Per-job accounting.** Every submitted job gets an [`IoScope`]; the
//! job's storage accesses are mirrored into the scope (see
//! `SimCluster::with_io_scope`), so its `JobResult` metrics and
//! `ExecProfile` are exact even while other jobs share the cluster, and
//! held IOPS permits are attributable for cancellation.
//!
//! **Termination** uses a per-job in-flight task counter: incremented
//! *before* every hand-off (by the number of tasks handed off) and
//! decremented only after a dispatch has handed off all of its outputs, so
//! it can only reach zero when none of the job's work remains anywhere. The thread that observes zero completes the job
//! and wakes its waiters.
//!
//! **Cancellation.** `cancel` drains the job's queued tasks from every
//! node; tasks already on workers finish their current invocation and
//! then skip. Device-queue slots are released as each in-flight read lands
//! (a slot is only ever held for one access's device time), so a cancelled
//! job's held-slot count reaches zero within one device time of its last
//! admitted access.
//!
//! **One dereference path, and nobody waits.** Every dispatch — a lone
//! task or a coalesced batch of point dereferences — runs through
//! `run_stage`, which has a *submit* half and a *complete* half. The
//! submit half runs on the dispatch's thread and performs every charged
//! access — fault injection, all counters, the reads themselves, retries
//! included — buffering the outputs and returning the simulated time the
//! dispatch still [`Owed`]: device slots, page-fault service, retry
//! backoff, and one network round trip. Nothing owed (a latency-free
//! model) routes the outputs at once. Otherwise the worker is freed and
//! the outputs wait for events on the cluster's one event loop
//! (`SimCluster::settle`): each access takes one of its serving node's
//! `queue_depth` device slots; if a round trip is owed it then flies on
//! the submitting node's wire lane, at most `IoModel::wire_window` of them
//! in the air per node; and the last landing re-enqueues a `FlightDone`
//! continuation on the submitting node's weighted queue. Whichever worker
//! pops it routes the buffered outputs inline (pure CPU work: the walk
//! above, fused referencers included). No worker ever blocks on simulated
//! time, so the workers are sized to the machine's cores, not to the I/O
//! concurrency wanted — that is the device queue's depth. The continuation
//! carries the dispatch's in-flight tokens; a job therefore cannot finish
//! — and cancellation cannot complete — until every one of its flights has
//! landed and returned its tokens. A flight still in the air when the
//! substrate drops lands later on the cluster's thread, sees `shutdown`
//! and releases its tokens.
//!
//! **Routing.** A non-broadcast pointer names the partition its target
//! record lives in, and partition placement is static — so the executor
//! can enqueue the follow-up dereference on the *owning* node and turn a
//! would-be remote read into a local one ([`RoutingPolicy::Owner`], the
//! default). [`RoutingPolicy::Producer`] enqueues where the pointer was
//! produced, which leaves cross-partition reads on the wire: it is how
//! tests and benches reach the round-trip and fabric-window path without
//! injecting faults. Pointers whose placement the cluster cannot determine
//! stay at their producer under either policy.

use super::wrr::WrrQueue;
use super::{Batching, ExecutorConfig, JobResult, RoutingPolicy};
use crate::job::{Job, Stage};
use crate::traits::{DerefInput, StageCtx};
use parking_lot::{Condvar, Mutex};
use rede_common::{
    Counter, ExecProfile, IoScope, Metrics, NodeProfile, RedeError, Result, StageProfile,
};
use rede_storage::{Owed, Placement, Pointer, Record, SimCluster};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Bounded-retry envelope for transient storage faults (a perfect cluster
/// never produces one). The bound is generous because the
/// injector fails each access site at most once: a stage invocation
/// touching `k` fault-prone sites recovers after at most `k` retries, and
/// no invocation in the workloads touches more than a handful of sites.
const MAX_RETRIES: u32 = 16;
/// First backoff; doubles per retry up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_micros(20);
const MAX_BACKOFF: Duration = Duration::from_millis(2);

/// Exponential backoff before retry number `attempt` (1-based).
fn backoff(attempt: u32) -> Duration {
    INITIAL_BACKOFF
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(MAX_BACKOFF)
}

/// One queued unit of work: run stage `stage` on `item` for `job`.
struct Task {
    job: Arc<JobState>,
    item: TaskItem,
    stage: usize,
    local_only: bool,
    /// The node owning the pointer's target partition, when known at
    /// enqueue time. This is the pop's batch key: same-(job, stage,
    /// owner) point-dereference tasks coalesce into one storage call.
    /// `None` (seeds, broadcasts, records, unroutable pointers) means the
    /// task is never coalesced.
    owner: Option<usize>,
}

enum TaskItem {
    /// Input for a dereference stage.
    Deref(DerefInput),
    /// Input for a reference stage — queued only when the job switches
    /// threads for referencers (`referencer_inline` off); inline, the
    /// record never becomes a task.
    Record(Record),
    /// Continuation of a dispatch that owed simulated time: its buffered
    /// outputs, ready to route now its last event has landed. Carries
    /// the `tokens` in-flight tokens of the submitted dispatch (lead +
    /// batchmates), released only after the outputs are routed — the
    /// worker that pops it routes them inline (it is pure CPU work) and it
    /// is always dispatch-eligible (it takes no pool share).
    FlightDone {
        outputs: Vec<StageOutput>,
        tokens: u64,
    },
}

impl Task {
    /// How many of the job's in-flight tokens this queued task holds. A
    /// drain (cancellation, straggler sweep) must release exactly this
    /// many per dropped task.
    fn held_tokens(&self) -> u64 {
        match &self.item {
            TaskItem::FlightDone { tokens, .. } => *tokens,
            _ => 1,
        }
    }
}

/// One node's stage queue: a weighted multi-queue guarded by a mutex, and
/// a lock-free depth gauge (read by the scheduler's stats without taking
/// the lock).
struct NodeQueue {
    tasks: Mutex<WrrQueue<Task>>,
    depth: AtomicU64,
}

impl NodeQueue {
    fn new() -> NodeQueue {
        NodeQueue {
            tasks: Mutex::new(WrrQueue::new()),
            depth: AtomicU64::new(0),
        }
    }

    /// Pop this node's next dispatch under one lock: the weighted
    /// round-robin pick among eligible tasks and, when it is a point
    /// dereference with a known owner, up to `max_batch - 1` queued
    /// batchmates of the same (stage, owner), lead first. Also says
    /// whether tasks remain queued here.
    fn pop(&self, shared: &Shared) -> Option<(Vec<Task>, bool)> {
        let mut tasks = self.tasks.lock();
        let (key, lead) = tasks.pop_where(|t| shared.eligible(t))?;
        let limit = match lead.owner {
            Some(_) => lead.job.batching.max_batch.saturating_sub(1),
            None => 0,
        };
        let (stage, owner) = (lead.stage, lead.owner);
        let mates = tasks.take_matching(key, limit, |t| t.stage == stage && t.owner == owner);
        self.depth
            .fetch_sub(1 + mates.len() as u64, Ordering::Relaxed);
        let more = !tasks.is_empty();
        drop(tasks);
        let mut batch = Vec::with_capacity(1 + mates.len());
        batch.push(lead);
        batch.extend(mates);
        Some((batch, more))
    }
}

/// Bounded FIFO of a streaming job's final records, drained by a gate
/// cursor. Applies backpressure to the producing job's emit path: once
/// the buffer holds `capacity` records the job's *pooled* tasks become
/// ineligible (see [`Shared::eligible`]), so its queued work sits in the
/// weighted queues occupying no worker until a drain takes the buffer
/// back under the low-water mark. Dispatches already running still land
/// their outputs, so occupancy can overshoot `capacity` by at most
/// min(the job's pool share, workers) × `max_batch` × its per-task
/// fan-out — bounded, and small compared to collecting the whole result.
pub(crate) struct OutputSink {
    buf: Mutex<VecDeque<Record>>,
    /// Signalled on every push and on close; fetchers park here.
    available: Condvar,
    capacity: usize,
    /// Read lock-free by `Shared::eligible`; transitions happen under
    /// `buf`'s lock so push and drain never race the flag into a state
    /// the buffer contradicts.
    saturated: AtomicBool,
    /// Set when the producing job finished (however it finished); wakes
    /// fetchers waiting for records that will never come.
    closed: AtomicBool,
}

impl OutputSink {
    fn new(capacity: usize) -> OutputSink {
        OutputSink {
            buf: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            saturated: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    /// Append a dispatch's final records: one lock, one wake-up. Returns
    /// true exactly when this push *transitioned* the sink into saturation
    /// (feeds `cursor_stalls`).
    fn push_all(&self, records: Vec<Record>) -> bool {
        let mut buf = self.buf.lock();
        buf.extend(records);
        let newly_saturated =
            buf.len() >= self.capacity && !self.saturated.swap(true, Ordering::SeqCst);
        drop(buf);
        self.available.notify_one();
        newly_saturated
    }

    /// Take up to `max` records in emission order. Returns the records
    /// and whether this drain cleared saturation (the caller must then
    /// wake the workers so the job's queued work resumes).
    fn drain(&self, max: usize) -> (Vec<Record>, bool) {
        let mut buf = self.buf.lock();
        let n = max.min(buf.len());
        let records: Vec<Record> = buf.drain(..n).collect();
        // Low-water at half capacity gives drain/refill hysteresis; for
        // capacity 1 it degenerates to "empty", which is still correct.
        let unsaturated = self.saturated.load(Ordering::SeqCst) && buf.len() <= self.capacity / 2;
        if unsaturated {
            self.saturated.store(false, Ordering::SeqCst);
        }
        (records, unsaturated)
    }

    fn is_saturated(&self) -> bool {
        self.saturated.load(Ordering::SeqCst)
    }

    fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Mark the producer finished and wake every parked fetcher.
    fn close(&self) {
        let _guard = self.buf.lock();
        self.closed.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Block until a record is buffered or the sink closes, up to
    /// `timeout`. Deadline loop: a spurious wakeup re-waits for the
    /// *remaining* time, and retries never oversleep the deadline.
    /// Returns false only on timeout with the sink still open and empty.
    fn wait_available(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut buf = self.buf.lock();
        while buf.is_empty() && !self.closed.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.available.wait_for(&mut buf, deadline - now);
        }
        true
    }
}

/// State shared by all workers and jobs of one substrate.
struct Shared {
    queues: Vec<NodeQueue>,
    /// Sum of the weights of jobs submitted and not yet finished; the
    /// denominator of every job's pool share.
    active_weight: AtomicU64,
    pool_threads: usize,
    shutdown: AtomicBool,
    /// Stage invocations that panicked, counted where [`run_guarded`]
    /// catches them.
    panics: AtomicU64,
    /// Bumped after every push and every eligibility change. A worker
    /// parks only if it is unchanged since before the scan that found
    /// nothing to pop (see [`Shared::sleep`]).
    epoch: AtomicU64,
    /// Workers parked on `wakeup`, or about to re-check `epoch` and park.
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    wakeup: Condvar,
}

impl Shared {
    /// May this task be dispatched right now? Flight continuations always
    /// may (they take no pool share). Pooled tasks are admitted only while
    /// their job is under its fair share of the workers: `pool_threads *
    /// weight / active_weight`, min 1. Cancelled/failed jobs' tasks are
    /// always admitted — their bodies are skipped, and draining them fast
    /// is what frees the job's resources.
    fn eligible(&self, task: &Task) -> bool {
        let job = &task.job;
        // Holding a flight continuation back would strand its in-flight
        // tokens, and routing it is all that is left of its dispatch.
        if matches!(task.item, TaskItem::FlightDone { .. }) {
            return true;
        }
        if job.cancelled.load(Ordering::Relaxed) || job.failed.load(Ordering::Relaxed) {
            return true;
        }
        // A streaming job whose cursor buffer is full parks its pooled
        // work in the queues — the emit path stalls without a worker
        // held. The drain that clears saturation wakes every worker,
        // exactly like a pool-share release.
        if let Some(sink) = &job.sink {
            if sink.is_saturated() {
                return false;
            }
        }
        job.pool_inflight.load(Ordering::Relaxed) < self.pool_cap(job)
    }

    /// A job's current fair share of pooled dispatches.
    fn pool_cap(&self, job: &JobState) -> u64 {
        let total = self
            .active_weight
            .load(Ordering::Relaxed)
            .max(u64::from(job.weight));
        (self.pool_threads as u64 * u64::from(job.weight) / total).max(1)
    }

    /// Hand job `key`'s `tasks` to `node`'s queue: one lock, one depth
    /// add. A parked worker finds them only after [`Shared::publish`].
    fn enqueue<I>(&self, node: usize, key: u64, weight: u32, tasks: I)
    where
        I: IntoIterator<Item = Task>,
        I::IntoIter: ExactSizeIterator,
    {
        let q = &self.queues[node];
        let tasks = tasks.into_iter();
        let n = tasks.len() as u64;
        let mut queued = q.tasks.lock();
        queued.push_all(key, weight, tasks);
        q.depth.fetch_add(n, Ordering::Relaxed);
    }

    /// `pushes` queues just gained work: move the epoch once, so no worker
    /// parks past it, and wake up to one parked worker per push.
    fn publish(&self, pushes: usize) {
        if pushes == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for _ in 0..pushes {
            self.wake_one();
        }
    }

    /// Signal one parked worker, if any. The signal is sent under `idle`,
    /// so it cannot fall between a sleeper's epoch check and its wait.
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _idle = self.idle.lock();
            self.wakeup.notify_one();
        }
    }

    /// Something became eligible (or the substrate is shutting down):
    /// every worker rescans the queues.
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _idle = self.idle.lock();
            self.wakeup.notify_all();
        }
    }

    /// Park the calling worker unless `epoch` has moved since `seen`, read
    /// before the scan that found nothing to pop. The worker counts itself
    /// a sleeper *before* that check, and a producer bumps the epoch
    /// *before* it reads `sleepers`, so either the producer sees the
    /// sleeper and signals it or the sleeper sees the bump and rescans: no
    /// push is lost.
    fn sleep(&self, seen: u64) {
        let mut idle = self.idle.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == seen {
            self.wakeup.wait(&mut idle);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Executor-side profile counters, sized once per job.
struct ProfCounters {
    /// Tasks executed per stage.
    stage_tasks: Vec<AtomicU64>,
    /// Outputs produced per stage (records and pointers).
    stage_emits: Vec<AtomicU64>,
    /// Tasks enqueued per node.
    node_enqueued: Vec<AtomicU64>,
    pool_spawns: AtomicU64,
    inline_runs: AtomicU64,
    peak_in_flight: AtomicU64,
}

impl ProfCounters {
    fn new(stages: usize, nodes: usize) -> ProfCounters {
        let zeroes = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        ProfCounters {
            stage_tasks: zeroes(stages),
            stage_emits: zeroes(stages),
            node_enqueued: zeroes(nodes),
            pool_spawns: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
        }
    }
}

/// Options for one job submission (the substrate-level face of
/// `ExecutorConfig` plus scheduler-only knobs).
pub(crate) struct JobOptions {
    pub weight: u32,
    pub collect_outputs: bool,
    pub referencer_inline: bool,
    pub routing: RoutingPolicy,
    pub batching: Batching,
    pub label: Option<String>,
    /// Snapshot pinned at submit: every read the job issues sees the cut
    /// committed at the guard's timestamp, however long the job runs and
    /// however many writers commit meanwhile. The guard is held by the
    /// job state and dropped when the job finishes, so the
    /// `snapshots_active` gauge tracks jobs actually reading a pinned
    /// cut. `None` (the default, and the only value while no ingest is
    /// attached) reads the live tip through the unversioned
    /// zero-overhead path.
    pub snapshot: Option<crate::txn::Snapshot>,
    /// Bumped once when the job finishes, however it finishes (scheduler
    /// stats).
    pub on_finish: Option<Arc<AtomicU64>>,
    /// `Some(capacity)` streams final records through a bounded
    /// [`OutputSink`] drained incrementally (gate cursors) instead of —
    /// or in addition to — collecting them; saturation backpressures
    /// the job's pooled tasks. `None` keeps the one-shot collect path.
    pub stream_buffer: Option<usize>,
}

impl JobOptions {
    pub fn from_config(config: &ExecutorConfig) -> JobOptions {
        JobOptions {
            weight: 1,
            collect_outputs: config.collect_outputs,
            referencer_inline: config.referencer_inline,
            routing: config.routing,
            batching: config.batching,
            label: None,
            snapshot: None,
            on_finish: None,
            stream_buffer: None,
        }
    }
}

/// A deadline timer's handle on its job: emptied when the job finishes.
pub(crate) type DeadlineToken = Arc<Mutex<Option<Weak<JobState>>>>;

/// All state of one submitted job. Shared by queued tasks, workers, and
/// the `JobHandle` a client waits on.
pub(crate) struct JobState {
    id: u64,
    label: Option<String>,
    job: Job,
    /// Scoped cluster handle: accesses made through it are mirrored into
    /// `scope` in addition to the global counters.
    cluster: SimCluster,
    scope: Arc<IoScope>,
    weight: u32,
    collect: bool,
    referencer_inline: bool,
    routing: RoutingPolicy,
    batching: Batching,
    started: Instant,
    in_flight: AtomicU64,
    /// Pooled dispatches of this job currently running on a worker.
    pool_inflight: AtomicU64,
    failed: AtomicBool,
    cancelled: AtomicBool,
    /// Set when the cancellation was a deadline abort (changes the
    /// reported error and feeds the `deadline_aborts` counter).
    deadline_exceeded: AtomicBool,
    finished: AtomicBool,
    errors: Mutex<Vec<RedeError>>,
    out_count: AtomicU64,
    out_records: Mutex<Vec<Record>>,
    prof: ProfCounters,
    shared: Arc<Shared>,
    done: Mutex<Option<Result<JobResult>>>,
    done_cv: Condvar,
    on_finish: Option<Arc<AtomicU64>>,
    /// Snapshot guard pinned at submit, released exactly when the job
    /// finishes (see [`JobOptions::snapshot`]).
    snapshot_guard: Mutex<Option<crate::txn::Snapshot>>,
    /// Tokens handed to deadline timers (see [`JobState::deadline_token`]).
    deadline_tokens: Mutex<Vec<DeadlineToken>>,
    /// Bounded streaming buffer for final records (gate cursors); `None`
    /// on the one-shot collect path (see [`JobOptions::stream_buffer`]).
    sink: Option<OutputSink>,
}

impl JobState {
    /// The substrate-assigned job id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The submitter-provided label (tenant name), if any.
    pub(crate) fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// This job's I/O attribution scope.
    pub(crate) fn scope(&self) -> &Arc<IoScope> {
        &self.scope
    }

    /// Pooled dispatches of this job currently running on a worker.
    pub(crate) fn pool_inflight(&self) -> u64 {
        self.pool_inflight.load(Ordering::SeqCst)
    }

    /// True once a result (success, failure, or cancellation) is set.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(Ordering::SeqCst)
    }

    /// A token through which a deadline timer reaches this job until it
    /// finishes: `finish` empties it, so the timer pins nothing after.
    pub(crate) fn deadline_token(self: &Arc<Self>) -> DeadlineToken {
        let token = Arc::new(Mutex::new(Some(Arc::downgrade(self))));
        let mut held = self.deadline_tokens.lock();
        if self.is_finished() {
            token.lock().take();
        } else {
            held.push(token.clone());
        }
        token
    }

    /// Block until the job finishes and return its result. Clones the
    /// result so multiple waiters (and later `try_result` calls) all see
    /// it.
    pub(crate) fn wait_result(&self) -> Result<JobResult> {
        let mut done = self.done.lock();
        while done.is_none() {
            self.done_cv.wait(&mut done);
        }
        done.clone().expect("loop exits only when set")
    }

    /// The result, if the job has finished.
    pub(crate) fn try_result(&self) -> Option<Result<JobResult>> {
        self.done.lock().clone()
    }

    /// Block until the job finishes or `timeout` elapses. `None` means
    /// the job is still running (it is *not* cancelled — pair with
    /// [`JobState::cancel`] to abandon it).
    pub(crate) fn wait_result_timeout(&self, timeout: Duration) -> Option<Result<JobResult>> {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock();
        while done.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.done_cv.wait_for(&mut done, deadline - now);
        }
        done.clone()
    }

    /// Take up to `max` buffered final records in emission order
    /// (streaming submissions only; empty on the collect path). A drain
    /// that clears sink saturation wakes every worker so the job's parked
    /// pooled work resumes.
    pub(crate) fn drain_output(&self, max: usize) -> Vec<Record> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let (records, unsaturated) = sink.drain(max);
        if unsaturated {
            self.shared.wake_all();
        }
        records
    }

    /// Records currently buffered in the streaming sink (0 on the
    /// collect path).
    pub(crate) fn output_pending(&self) -> usize {
        self.sink.as_ref().map_or(0, OutputSink::len)
    }

    /// True while the streaming sink is saturated (the emit path is
    /// stalled waiting for a drain).
    pub(crate) fn output_stalled(&self) -> bool {
        self.sink.as_ref().is_some_and(OutputSink::is_saturated)
    }

    /// Block until the streaming sink has a record or the job finishes,
    /// up to `timeout`. False only on timeout with the job still
    /// running and nothing buffered. Immediately true on the collect
    /// path once the job finishes (and after a timeout-slice wait
    /// before: collect-path callers should use `wait_result` instead).
    pub(crate) fn output_available(&self, timeout: Duration) -> bool {
        match &self.sink {
            Some(sink) => sink.wait_available(timeout),
            None => self.wait_result_timeout(timeout).is_some(),
        }
    }

    /// Abort the job because its deadline passed: counts a deadline
    /// abort, in the job's metrics and in `aborts`, then cancels through
    /// the normal path (queued tasks drained, permits and pool slots
    /// returned as in-flight reads retire). Counted first, so a waiter
    /// the cancel wakes already sees it. A no-op once the job finished or
    /// was aborted before.
    pub(crate) fn deadline_abort(&self, aborts: &AtomicU64) {
        if self.finished.load(Ordering::SeqCst)
            || self.deadline_exceeded.swap(true, Ordering::SeqCst)
        {
            return;
        }
        self.tally(|m| m.add(Counter::deadline_aborts, 1));
        aborts.fetch_add(1, Ordering::Relaxed);
        self.cancel();
    }

    /// Cancel the job: drain its queued tasks everywhere and let in-flight
    /// invocations retire. Waiters get `RedeError::Cancelled`. Idempotent;
    /// a no-op after the job finished.
    ///
    /// Dispatches waiting on events — device slots, a fabric flight — are
    /// *not* (and cannot be) snatched back: their in-flight tokens return
    /// when each one's completion fires, observes `cancelled`, and
    /// releases them without routing — so a cancelled job finishes as soon
    /// as its slowest outstanding dispatch lands, with every device slot,
    /// fabric slot and token accounted.
    pub(crate) fn cancel(&self) {
        if self.finished.load(Ordering::SeqCst) || self.cancelled.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut drained: u64 = 0;
        for q in &self.shared.queues {
            // Tasks are collected under the lock but dropped outside it: a
            // queued flight continuation can hold many in-flight tokens
            // (so the count alone is not enough), and dropping payloads
            // under the queue lock would stall every worker popping here.
            let tasks = q.tasks.lock().drain_key(self.id);
            if !tasks.is_empty() {
                q.depth.fetch_sub(tasks.len() as u64, Ordering::Relaxed);
                drained += tasks.iter().map(Task::held_tokens).sum::<u64>();
            }
        }
        if drained > 0 && self.in_flight.fetch_sub(drained, Ordering::SeqCst) == drained {
            self.finish();
        }
        // Otherwise in-flight tasks observe `cancelled`, skip their
        // bodies, and the last one to retire finishes the job.
    }

    /// Record into the global metrics and this job's scope.
    #[inline]
    fn tally(&self, f: impl Fn(&Metrics)) {
        f(self.cluster.metrics());
        f(self.scope.metrics());
    }

    /// A queued unit of this job's work. `owner` is the batch key for
    /// coalescible point dereferences (`None` opts the task out of
    /// coalescing).
    fn task(
        self: &Arc<Self>,
        item: TaskItem,
        stage: usize,
        local_only: bool,
        owner: Option<usize>,
    ) -> Task {
        Task {
            job: self.clone(),
            item,
            stage,
            local_only,
            owner,
        }
    }

    /// Hand `tasks` to `node`'s queue as one unit: their in-flight tokens
    /// are taken *before* the push (so the counter can never read zero
    /// while they sit in the queue), then one cancelled/shutdown check, one
    /// queue lock, one add per counter, at most one wake-up.
    fn flush(self: &Arc<Self>, node: usize, tasks: Vec<Task>) {
        if self.enqueue(node, tasks) {
            self.shared.publish(1);
        }
    }

    /// [`JobState::flush`] without the wake-up; true if it queued tasks.
    fn enqueue(self: &Arc<Self>, node: usize, tasks: Vec<Task>) -> bool {
        let n = tasks.len() as u64;
        if n == 0 {
            return false;
        }
        let now = self.in_flight.fetch_add(n, Ordering::SeqCst) + n;
        self.prof.peak_in_flight.fetch_max(now, Ordering::Relaxed);
        self.prof.node_enqueued[node].fetch_add(n, Ordering::Relaxed);
        self.tally(|m| m.add(Counter::queue_hops, n));
        if self.cancelled.load(Ordering::SeqCst) || self.shared.shutdown.load(Ordering::SeqCst) {
            // Don't grow a cancelled job's backlog: drop the tasks and
            // give back exactly the tokens just taken.
            drop(tasks);
            self.tasks_done(n);
            return false;
        }
        self.shared.enqueue(node, self.id, self.weight, tasks);
        true
    }

    /// Release `n` in-flight tokens at once (a dispatch returns its whole
    /// batch's tokens together); the observer of zero completes the job.
    fn tasks_done(&self, n: u64) {
        if n > 0 && self.in_flight.fetch_sub(n, Ordering::SeqCst) == n {
            self.finish();
        }
    }

    /// Simulated time is owed: settle it as events on the cluster's loop
    /// (device phases, then the round trip under `node`'s wire window).
    /// The dispatch's `tokens` travel with its buffered outputs and return
    /// through [`JobState::land`] when the last event fires.
    fn fly(
        self: &Arc<Self>,
        node: usize,
        stage: usize,
        outputs: Vec<StageOutput>,
        tokens: u64,
        owed: Owed,
    ) {
        let job = self.clone();
        self.cluster
            .settle(node, owed, move || job.land(node, stage, outputs, tokens));
    }

    /// A dispatch's last event has landed: re-enqueue the continuation on
    /// the submitting node's weighted queue so a worker routes the buffered
    /// outputs. The dispatch's in-flight tokens transfer into the
    /// queued task; if the job was cancelled (or the substrate is shutting
    /// down) the outputs are dropped and the tokens released here, which
    /// is what lets a cancelled job's last outstanding flight complete it.
    ///
    /// Deliberately *not* routed through [`JobState::flush`]: the
    /// continuation is the second half of an already-counted dispatch, so
    /// it must not count a queue hop or a node enqueue of its own — the
    /// executor counters are the same whatever a dispatch owed.
    fn land(self: &Arc<Self>, node: usize, stage: usize, outputs: Vec<StageOutput>, tokens: u64) {
        if self.cancelled.load(Ordering::SeqCst) || self.shared.shutdown.load(Ordering::SeqCst) {
            self.tasks_done(tokens);
            return;
        }
        let done = self.task(TaskItem::FlightDone { outputs, tokens }, stage, false, None);
        self.shared.enqueue(node, self.id, self.weight, [done]);
        self.shared.publish(1);
    }

    fn fail(&self, err: RedeError) {
        let first = !self.failed.swap(true, Ordering::SeqCst);
        self.errors.lock().push(err);
        // A failed job's queued tasks are always eligible: wake any worker
        // that parked past them (held back by a saturated sink or the
        // pool cap), so the backlog drains and the job can finish.
        if first {
            self.shared.wake_all();
        }
    }

    /// Complete the job exactly once: assemble the result, release the
    /// job's fair-share weight, and wake every waiter.
    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drop any straggler slots (e.g. a task enqueued concurrently with
        // cancellation); normally the slots are already empty. Stragglers
        // are dropped outside the queue lock.
        for q in &self.shared.queues {
            let dropped = q.tasks.lock().drain_key(self.id);
            if !dropped.is_empty() {
                q.depth.fetch_sub(dropped.len() as u64, Ordering::Relaxed);
            }
        }
        self.shared
            .active_weight
            .fetch_sub(u64::from(self.weight), Ordering::SeqCst);
        // The remaining jobs' pool shares just grew; re-check blocked work.
        self.shared.wake_all();
        let result = if self.cancelled.load(Ordering::SeqCst) {
            let reason = if self.deadline_exceeded.load(Ordering::SeqCst) {
                " exceeded its deadline"
            } else {
                ""
            };
            Err(RedeError::Cancelled(format!(
                "job '{}' (id {}){reason}",
                self.job.name(),
                self.id
            )))
        } else {
            let errors = self.errors.lock();
            if let Some(first) = errors.first() {
                Err(RedeError::Exec(format!(
                    "job '{}' failed with {} error(s); first: {first}",
                    self.job.name(),
                    errors.len()
                )))
            } else {
                drop(errors);
                Ok(JobResult {
                    count: self.out_count.load(Ordering::Relaxed),
                    records: std::mem::take(&mut *self.out_records.lock()),
                    wall: self.started.elapsed(),
                    metrics: self.scope.metrics().snapshot(),
                    profile: self.build_profile(),
                })
            }
        };
        // Release the pinned snapshot (drops the `snapshots_active`
        // gauge) — the job's last read is behind us.
        drop(self.snapshot_guard.lock().take());
        for token in self.deadline_tokens.lock().drain(..) {
            token.lock().take();
        }
        // Wake any cursor parked on the streaming buffer: no more
        // records are coming, and the fetcher must see `done` (or the
        // error) instead of blocking for its full timeout.
        if let Some(sink) = &self.sink {
            sink.close();
        }
        if let Some(counter) = &self.on_finish {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        *self.done.lock() = Some(result);
        self.done_cv.notify_all();
    }

    /// Route everything a dispatch produced at `node` while running
    /// `stage` — the dispatch, not the item, is what crosses threads. One
    /// walk sorts the outputs: final records go to the job's output
    /// together, records bound for an inline referencer run it right here
    /// (its pointers join the walk), and everything else becomes a task in
    /// its target node's bucket; then each non-empty bucket is
    /// [`JobState::flush`]ed — one lock and at most one wake-up per node
    /// touched, whatever the fan-out.
    fn route(self: &Arc<Self>, node: usize, stage: usize, outputs: Vec<StageOutput>) {
        if outputs.is_empty() {
            return;
        }
        let mut routed = Routed {
            buckets: self.shared.queues.iter().map(|_| Vec::new()).collect(),
            finals: Vec::new(),
            placement: self.cluster.placement(),
        };
        self.sort(node, stage, outputs, &mut routed);
        if !routed.finals.is_empty() {
            self.emit(routed.finals);
        }
        for (target, tasks) in routed.buckets.into_iter().enumerate() {
            self.flush(target, tasks);
        }
    }

    /// Land a dispatch's final records in the job's output.
    fn emit(&self, finals: Vec<Record>) {
        let n = finals.len() as u64;
        self.out_count.fetch_add(n, Ordering::Relaxed);
        self.tally(|m| m.add(Counter::records_emitted, n));
        match &self.sink {
            Some(sink) => {
                if self.collect {
                    self.out_records.lock().extend(finals.iter().cloned());
                }
                if sink.push_all(finals) {
                    self.tally(|m| m.add(Counter::cursor_stalls, 1));
                }
            }
            None if self.collect => self.out_records.lock().extend(finals),
            None => {}
        }
    }

    /// The walk behind [`JobState::route`]: sort the outputs `stage`
    /// produced at `node` into `routed`.
    ///
    /// A record whose next stage is a referencer does not switch threads
    /// when `referencer_inline` is set (the paper's default): the stage
    /// runs here, on the thread that produced the record, through the same
    /// [`run_guarded`] a queued referencer gets — same counters, same panic
    /// guard, same retry loop. It charges no access, so it normally owes
    /// nothing and its pointers are sorted by this same walk (they never
    /// fuse further: a dereference always crosses a queue). Only a retried
    /// referencer owes its backoff, and its pointers wait that out as a
    /// flight of their own.
    fn sort(
        self: &Arc<Self>,
        node: usize,
        stage: usize,
        outputs: Vec<StageOutput>,
        routed: &mut Routed<'_>,
    ) {
        let stages = self.job.stages();
        let next = stage + 1;
        let fuse =
            self.referencer_inline && matches!(stages.get(next), Some(Stage::Reference { .. }));
        let mut fused: Vec<TaskItem> = Vec::new();
        self.prof.stage_emits[stage].fetch_add(outputs.len() as u64, Ordering::Relaxed);
        let walk = outputs.len();
        for output in outputs {
            match output {
                StageOutput::Record(record) if next >= stages.len() => {
                    push_sized(&mut routed.finals, record, walk)
                }
                StageOutput::Record(record) if fuse => {
                    push_sized(&mut fused, TaskItem::Record(record), walk)
                }
                StageOutput::Record(record) => {
                    let task = self.task(TaskItem::Record(record), next, false, None);
                    push_sized(&mut routed.buckets[node], task, walk);
                }
                StageOutput::Pointer(ptr) => {
                    debug_assert!(next < stages.len(), "validated: jobs end in a deref");
                    self.sort_pointer(node, next, ptr, walk, routed);
                }
            }
        }
        if fused.is_empty() {
            return;
        }
        self.prof
            .inline_runs
            .fetch_add(fused.len() as u64, Ordering::Relaxed);
        match run_guarded(self, node, next, false, &fused) {
            Some((pointers, owed)) if owed.is_zero() => self.sort(node, next, pointers, routed),
            Some((pointers, owed)) => {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                self.fly(node, next, pointers, 1, owed);
            }
            None => {}
        }
    }

    /// Pick the node that dereferences `ptr` at stage `next` and add the
    /// task to its bucket, sized for the `walk` outputs being sorted.
    fn sort_pointer(
        self: &Arc<Self>,
        node: usize,
        next: usize,
        ptr: Pointer,
        walk: usize,
        routed: &mut Routed<'_>,
    ) {
        if ptr.is_broadcast() {
            // Null partition information: replicate to every node's
            // queue and have each node cover only its partitions.
            self.tally(|m| m.add(Counter::broadcasts, 1));
            for bucket in &mut routed.buckets {
                let input = TaskItem::Deref(DerefInput::Point(ptr.clone()));
                push_sized(bucket, self.task(input, next, true, None), walk);
            }
            return;
        }
        // The locality decision: a pointer with known placement runs its
        // dereference on the owning node (a local read) instead of
        // wherever it was produced. The owner, when known, doubles as the
        // pop's batch key whatever node the task lands on.
        let owner = routed.placement.owner_of(&ptr);
        let mut target = match self.routing {
            RoutingPolicy::Producer => node,
            RoutingPolicy::Owner => owner.unwrap_or(node),
        };
        // A down owner would only replica-serve the read anyway, so
        // routing there buys no locality; keep the task at its producer
        // and let the storage layer pick the replica.
        if target != node {
            if let Some(inj) = self.cluster.fault_injector() {
                if inj.is_node_down(target) {
                    target = node;
                }
            }
        }
        let input = TaskItem::Deref(DerefInput::Point(ptr));
        push_sized(
            &mut routed.buckets[target],
            self.task(input, next, false, owner),
            walk,
        );
    }

    /// Assemble this job's [`ExecProfile`] from its counters and its
    /// scope's per-node point-read split (absolute: the scope counts this
    /// job alone).
    fn build_profile(&self) -> ExecProfile {
        let prof = &self.prof;
        let stages = self
            .job
            .stages()
            .iter()
            .enumerate()
            .map(|(i, stage)| StageProfile {
                label: stage.label().to_string(),
                tasks: prof.stage_tasks[i].load(Ordering::Relaxed),
                emits: prof.stage_emits[i].load(Ordering::Relaxed),
            })
            .collect();
        let node_reads = self.scope.metrics().node_point_reads();
        let nodes = (0..self.shared.queues.len())
            .map(|node| NodeProfile {
                node,
                enqueued: prof.node_enqueued[node].load(Ordering::Relaxed),
                io: node_reads.get(node).copied().unwrap_or_default(),
            })
            .collect();
        ExecProfile {
            stages,
            nodes,
            pool_spawns: prof.pool_spawns.load(Ordering::Relaxed),
            inline_runs: prof.inline_runs.load(Ordering::Relaxed),
            peak_in_flight: prof.peak_in_flight.load(Ordering::Relaxed),
        }
    }
}

enum StageOutput {
    Record(Record),
    Pointer(Pointer),
}

/// Where one dispatch's outputs go (see [`JobState::route`]).
struct Routed<'a> {
    /// Tasks to queue, per target node.
    buckets: Vec<Vec<Task>>,
    /// Records the final stage emitted: the job's output.
    finals: Vec<Record>,
    /// The walk's routing oracle: one catalog lookup per run of pointers
    /// into the same file.
    placement: Placement<'a>,
}

/// Push `item` onto one of a walk's buckets, sizing the bucket for all
/// `walk` outputs on its first push: a bucket the walk fills never grows
/// again, and one it leaves empty never allocates.
fn push_sized<T>(bucket: &mut Vec<T>, item: T, walk: usize) {
    if bucket.capacity() == 0 {
        bucket.reserve_exact(walk);
    }
    bucket.push(item);
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Execute one dispatch — a lone task, or a coalesced batch of
/// same-(job, stage, owner) point dereferences — on the worker that popped
/// it. Cancelled and already-failed jobs skip the bodies so their backlog
/// drains at queue speed.
///
/// [`run_guarded`] is the *submit* half: all charged accesses, outputs
/// buffered. When it owes nothing the outputs are routed right here and
/// every task's token released. Otherwise the dispatch is handed to the
/// event layers instead: the tokens travel with it and return through
/// [`JobState::land`] when its last event fires.
fn process_tasks(tasks: Vec<Task>, node: usize) {
    let job = tasks[0].job.clone();
    let (stage, local_only) = (tasks[0].stage, tasks[0].local_only);
    let tokens = tasks.len() as u64;
    if !job.failed.load(Ordering::SeqCst) && !job.cancelled.load(Ordering::SeqCst) {
        let items: Vec<TaskItem> = tasks.into_iter().map(|t| t.item).collect();
        if let Some((outputs, owed)) = run_guarded(&job, node, stage, local_only, &items) {
            if !owed.is_zero() {
                return job.fly(node, stage, outputs, tokens, owed);
            }
            job.route(node, stage, outputs);
        }
    }
    job.tasks_done(tokens);
}

/// Run `stage` over `items` — queued tasks' or the records an inline
/// referencer was fused onto — counting them as the stage's tasks, with
/// the stage bodies under `catch_unwind`: a panicking referencer or
/// dereferencer becomes a job error (`None` here) instead of killing the
/// thread with in-flight tokens still held — which would leave the job
/// hanging forever (the counter could never reach zero).
fn run_guarded(
    job: &Arc<JobState>,
    node: usize,
    stage: usize,
    local_only: bool,
    items: &[TaskItem],
) -> Option<(Vec<StageOutput>, Owed)> {
    job.prof.stage_tasks[stage].fetch_add(items.len() as u64, Ordering::Relaxed);
    match catch_unwind(AssertUnwindSafe(|| {
        run_stage(job, node, stage, local_only, items)
    })) {
        Ok(ran) => Some(ran),
        Err(payload) => {
            job.shared.panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(payload.as_ref());
            job.fail(RedeError::Exec(format!(
                "stage {} ('{}') panicked: {msg}",
                stage,
                job.job.stages()[stage].label()
            )));
            None
        }
    }
}

/// Route a landed flight's buffered outputs. Runs inline on the worker
/// that popped the continuation — by the time a flight lands, all that
/// remains is pure CPU work: routing, and the referencers fused into it. Releases the
/// dispatch's in-flight tokens exactly once; cancelled and failed jobs
/// skip the routing so their backlog drains.
fn process_flight_done(task: Task, node: usize) {
    let job = task.job.clone();
    let TaskItem::FlightDone { outputs, tokens } = task.item else {
        unreachable!("caller matched FlightDone");
    };
    if !job.failed.load(Ordering::SeqCst) && !job.cancelled.load(Ordering::SeqCst) {
        job.route(node, task.stage, outputs);
    }
    job.tasks_done(tokens);
}

/// The *submit* half of a dispatch: run the stage over every item with
/// per-item transient-fault recovery, buffering the outputs instead of
/// routing them, and return them together with the simulated time the
/// caller must see settled before routing.
///
/// Every charged access happens here, at once, in input order — so seeded
/// chaos runs take identical fault decisions however tasks were coalesced
/// — and nothing here waits. Each item's outputs are kept only once that
/// item succeeds, and only the transient-failed subset is re-executed (up
/// to [`MAX_RETRIES`] times each, each round owing an exponential backoff
/// before it), so a retried item never double-emits — emit counters live in
/// [`JobState::route`], at routing time — and its batchmates are never
/// re-read. Because the injector fails each access site at most once, the
/// first retry of any given site always passes. Retries stop early when
/// the job was cancelled or already failed elsewhere — recovering work
/// nobody will collect just delays the drain. Every other item error
/// fails the job. Retry rounds are owed one after the other — device time,
/// backoff, device time — and model sequential round trips, so the owed
/// RTT is their sum; outputs of items that succeeded in an early round are
/// held until the whole dispatch routes.
fn run_stage(
    job: &Arc<JobState>,
    node: usize,
    stage_idx: usize,
    local_only: bool,
    all: &[TaskItem],
) -> (Vec<StageOutput>, Owed) {
    let stage = &job.job.stages()[stage_idx];
    let ctx = StageCtx {
        cluster: job.cluster.clone(),
        node,
        local_only,
    };
    let mut outputs: Vec<StageOutput> = Vec::new();
    let mut owed = Owed::default();
    let mut pending: Vec<usize> = (0..all.len()).collect();
    // Every pending item is re-executed every round, so the round number
    // is also each pending item's retry count.
    let mut round: u32 = 0;
    loop {
        let items: Vec<&TaskItem> = pending.iter().map(|&i| &all[i]).collect();
        // (position in `pending`, output), in emission order.
        let mut buffered: Vec<(usize, StageOutput)> = Vec::new();
        let (results, round_owed) = run_attempt(stage_idx, stage, &ctx, &items, &mut |pos, out| {
            push_sized(&mut buffered, (pos, out), items.len())
        });
        owed.then(round_owed);
        let mut retry: Vec<usize> = Vec::new();
        let succeeded: Vec<bool> = results
            .into_iter()
            .zip(&pending)
            .map(|(result, &idx)| match result {
                Ok(()) => true,
                Err(e)
                    if e.is_transient()
                        && round < MAX_RETRIES
                        && !job.cancelled.load(Ordering::SeqCst)
                        && !job.failed.load(Ordering::SeqCst) =>
                {
                    job.tally(|m| m.add(Counter::retries, 1));
                    retry.push(idx);
                    false
                }
                Err(e) => {
                    job.fail(e);
                    false
                }
            })
            .collect();
        outputs.reserve(buffered.len());
        outputs.extend(
            buffered
                .into_iter()
                .filter_map(|(pos, out)| succeeded[pos].then_some(out)),
        );
        if retry.is_empty() {
            return (outputs, owed);
        }
        round += 1;
        owed.delay(backoff(round));
        pending = retry;
    }
}

/// One attempt at a stage over `items`: each item's outputs go to `emit`
/// tagged with the item's position, and each item gets its own result.
/// Dereference stages make one batched call (a lone input is a batch of
/// one) and apply the stage filter — the first filter error poisons its
/// item, records keep streaming past it unemitted; reference stages owe
/// nothing.
fn run_attempt(
    stage_idx: usize,
    stage: &Stage,
    ctx: &StageCtx,
    items: &[&TaskItem],
    emit: &mut dyn FnMut(usize, StageOutput),
) -> (Vec<Result<()>>, Owed) {
    let mismatched = || {
        Err(RedeError::Exec(format!(
            "stage {} ('{}') received mismatched input",
            stage_idx,
            stage.label()
        )))
    };
    match stage {
        Stage::Dereference { func, filter, .. } => {
            let mut inputs: Vec<DerefInput> = Vec::with_capacity(items.len());
            for item in items {
                let TaskItem::Deref(input) = item else {
                    return (
                        items.iter().map(|_| mismatched()).collect(),
                        Owed::default(),
                    );
                };
                inputs.push(input.clone());
            }
            let mut filter_errs: Vec<Option<RedeError>> = vec![None; inputs.len()];
            let (results, owed) = func.dereference_batch(&inputs, ctx, &mut |pos, record| {
                let keep = match filter {
                    Some(f) => f.matches(&record).unwrap_or_else(|e| {
                        filter_errs[pos].get_or_insert(e);
                        false
                    }),
                    None => true,
                };
                if keep {
                    emit(pos, StageOutput::Record(record));
                }
            });
            let results = results
                .into_iter()
                .zip(filter_errs)
                .map(|(result, filter_err)| result.and(filter_err.map_or(Ok(()), Err)))
                .collect();
            (results, owed)
        }
        Stage::Reference { func, .. } => {
            let results = items
                .iter()
                .enumerate()
                .map(|(pos, item)| match item {
                    TaskItem::Record(record) => {
                        func.reference(record, ctx, &mut |ptr| emit(pos, StageOutput::Pointer(ptr)))
                    }
                    _ => mismatched(),
                })
                .collect();
            (results, Owed::default())
        }
    }
}

/// One worker: serve every node's weighted queue, round-robin over the
/// nodes from node `worker mod nodes`, until the substrate shuts down.
/// Lives for the substrate's lifetime.
fn work(shared: &Shared, worker: usize) {
    let nodes = shared.queues.len();
    let mut next = worker % nodes;
    loop {
        let seen = shared.epoch.load(Ordering::SeqCst);
        let popped = (0..nodes)
            .map(|step| (next + step) % nodes)
            .find_map(|node| shared.queues[node].pop(shared).map(|pop| (node, pop)));
        let Some((node, (batch, more))) = popped else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            shared.sleep(seen);
            continue;
        };
        if more {
            shared.wake_one();
        }
        next = (node + 1) % nodes;
        run_dispatch(shared, node, batch);
    }
}

/// Run one popped dispatch on the calling worker. A landed flight's
/// continuation is routed inline: it never coalesces (its owner is
/// `None`), takes no pool share, and releases its in-flight tokens. Every
/// other dispatch — dereferences, and referencers only when the job asked
/// for the thread switch — holds one slot of its job's pool share until
/// its accesses are charged, however many tasks it coalesced.
fn run_dispatch(shared: &Shared, node: usize, mut batch: Vec<Task>) {
    if matches!(batch[0].item, TaskItem::FlightDone { .. }) {
        debug_assert_eq!(batch.len(), 1, "flight continuations never batch");
        let done = batch.pop().expect("a pop yields its lead");
        return process_flight_done(done, node);
    }
    let job = batch[0].job.clone();
    job.prof.pool_spawns.fetch_add(1, Ordering::Relaxed);
    job.pool_inflight.fetch_add(1, Ordering::SeqCst);
    job.tally(|m| m.add(Counter::tasks_spawned, 1));
    process_tasks(batch, node);
    let prev = job.pool_inflight.fetch_sub(1, Ordering::SeqCst);
    // Wake every worker only when this job was actually at its cap — work
    // can only have been held back by *this* slot in that case, and an
    // unconditional wake per dispatch is a notify storm that dominates
    // small jobs.
    if prev >= shared.pool_cap(&job) {
        shared.wake_all();
    }
}

/// The shared SMPE execution substrate: `min(pool_threads, cores)` workers
/// serving one weighted stage queue per node, for any number of concurrent
/// jobs. `JobRunner` owns one for sequential use; the scheduler owns one
/// and multiplexes clients onto it.
pub(crate) struct Substrate {
    cluster: SimCluster,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Substrate {
    /// Spawn the workers eagerly so job timings exclude thread creation.
    /// `pool_threads` is each job's fair-share denominator and the upper
    /// bound on workers (0 counts as 1); no worker ever waits on simulated
    /// time, so more of them than cores would only add context switches.
    pub(crate) fn new(cluster: SimCluster, pool_threads: usize) -> Substrate {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            queues: (0..cluster.nodes()).map(|_| NodeQueue::new()).collect(),
            active_weight: AtomicU64::new(0),
            pool_threads: pool_threads.max(1),
            shutdown: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wakeup: Condvar::new(),
        });
        let workers = (0..pool_threads.clamp(1, cores))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rede-smpe-{i}"))
                    .stack_size(128 * 1024)
                    .spawn(move || work(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        Substrate {
            cluster,
            shared,
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// The cluster this substrate executes against.
    pub(crate) fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Current queued-task depth per node (scheduler stats gauge).
    pub(crate) fn queue_depths(&self) -> Vec<u64> {
        self.shared
            .queues
            .iter()
            .map(|q| q.depth.load(Ordering::Relaxed))
            .collect()
    }

    /// Stage invocations that panicked (and were converted into job
    /// errors) since the substrate was created.
    pub(crate) fn pool_panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Admit a job: seed stage 0 on every node and return its state (the
    /// caller waits on it, polls it, or cancels it). Never blocks on the
    /// job itself.
    pub(crate) fn submit(&self, job: &Job, opts: JobOptions) -> Arc<JobState> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let scope = Arc::new(IoScope::new(id));
        let weight = opts.weight.max(1);
        self.shared
            .active_weight
            .fetch_add(u64::from(weight), Ordering::SeqCst);
        // Pin the snapshot before scoping so every handle the job's stages
        // clone — file, index, batch — reads the same committed cut.
        let cluster = match &opts.snapshot {
            Some(snap) => self.cluster.with_snapshot(snap.ts()),
            None => self.cluster.clone(),
        };
        let state = Arc::new(JobState {
            id,
            label: opts.label,
            job: job.clone(),
            cluster: cluster.with_io_scope(scope.clone()),
            scope,
            weight,
            collect: opts.collect_outputs,
            referencer_inline: opts.referencer_inline,
            routing: opts.routing,
            batching: opts.batching,
            started: Instant::now(),
            // One guard token held during seeding, so early tasks that
            // complete instantly cannot drive the counter to zero before
            // every seed is enqueued.
            in_flight: AtomicU64::new(1),
            pool_inflight: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_exceeded: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            errors: Mutex::new(Vec::new()),
            out_count: AtomicU64::new(0),
            out_records: Mutex::new(Vec::new()),
            prof: ProfCounters::new(job.stages().len(), self.shared.queues.len()),
            shared: self.shared.clone(),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
            on_finish: opts.on_finish,
            snapshot_guard: Mutex::new(opts.snapshot),
            deadline_tokens: Mutex::new(Vec::new()),
            sink: opts.stream_buffer.map(OutputSink::new),
        });
        // Seed every node: the initial stage runs everywhere, each node
        // covering its locally placed partitions (lines 2-5 of Algorithm 1).
        // Every node is seeded before any worker is woken, so the first
        // worker to run finds the whole seed and batches it the same way
        // however the threads are scheduled.
        let mut seeded = 0;
        for node in 0..self.shared.queues.len() {
            let seeds = job.seed().to_inputs().into_iter();
            let tasks = seeds
                .map(|input| state.task(TaskItem::Deref(input), 0, true, None))
                .collect();
            seeded += usize::from(state.enqueue(node, tasks));
        }
        self.shared.publish(seeded);
        // Release the guard. A job with zero seed inputs finishes here,
        // immediately, with an empty result (previously it would hang).
        state.tasks_done(1);
        state
    }
}

impl Drop for Substrate {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds its dispatch on a worker until released, and says when it has
    /// got there.
    struct HoldUntil {
        entered: Arc<AtomicBool>,
        release: Arc<AtomicBool>,
    }

    impl crate::traits::Dereferencer for HoldUntil {
        fn dereference(
            &self,
            _input: &DerefInput,
            _ctx: &StageCtx,
            _emit: &mut dyn FnMut(Record),
        ) -> Result<()> {
            self.entered.store(true, Ordering::SeqCst);
            while !self.release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Ok(())
        }
    }

    /// Releases a [`HoldUntil`] when the test ends, however it ends: a
    /// failed assertion must not leave a worker spinning under the
    /// substrate's teardown.
    struct ReleaseOnDrop(Arc<AtomicBool>);

    impl Drop for ReleaseOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Tokens are taken before the push, so a hand-off that then finds the
    /// job cancelled must give back exactly those — no more (the job would
    /// finish under its running task), no fewer (it would never finish) —
    /// and queue nothing.
    #[test]
    fn a_flush_that_observes_cancellation_returns_exactly_its_tokens() {
        let cluster = SimCluster::builder().nodes(1).build().unwrap();
        let substrate = Substrate::new(cluster, 1);
        // Declared after the substrate, so dropped before it.
        let release = ReleaseOnDrop(Arc::new(AtomicBool::new(false)));
        let entered = Arc::new(AtomicBool::new(false));
        let pointer = Pointer::logical("nothing", 0i64.into(), 0i64.into());
        let job = Job::builder("held")
            .seed(crate::job::SeedInput::Pointers(vec![pointer.clone()]))
            .dereference(
                "hold",
                Arc::new(HoldUntil {
                    entered: entered.clone(),
                    release: release.0.clone(),
                }),
            )
            .build()
            .unwrap();
        let state = substrate.submit(&job, JobOptions::from_config(&ExecutorConfig::smpe(1)));
        // The one seed dispatch is inside its stage body, holding its token
        // (the cancelled check is behind it); nothing else moves the
        // counter until the release.
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert_eq!(state.in_flight.load(Ordering::SeqCst), 1);
        // The flag alone, not `cancel()`: the flush must meet it itself.
        state.cancelled.store(true, Ordering::SeqCst);
        let tasks = (0..5)
            .map(|_| {
                let input = TaskItem::Deref(DerefInput::Point(pointer.clone()));
                state.task(input, 0, false, None)
            })
            .collect();
        state.flush(0, tasks);
        assert_eq!(state.in_flight.load(Ordering::SeqCst), 1);
        assert_eq!(substrate.queue_depths(), vec![0]);
        assert!(!state.is_finished());
        drop(release);
        assert!(matches!(state.wait_result(), Err(RedeError::Cancelled(_))));
        assert_eq!(state.in_flight.load(Ordering::SeqCst), 0);
    }

    /// Logs which job ran each dispatch of key 1, and on which node. The
    /// seeds (key 0) run on every node and are not logged.
    struct Recorder {
        tag: char,
        log: Arc<Mutex<Vec<(char, usize)>>>,
    }

    impl crate::traits::Dereferencer for Recorder {
        fn dereference(
            &self,
            input: &DerefInput,
            ctx: &StageCtx,
            _emit: &mut dyn FnMut(Record),
        ) -> Result<()> {
            let key = input.as_point().and_then(Pointer::logical_key);
            if key == Some(&rede_common::Value::Int(1)) {
                self.log.lock().push((self.tag, ctx.node));
            }
            Ok(())
        }
    }

    /// One worker serves every node: after each pop it moves on to the
    /// node after the one it served, so a lone task on node 3 runs within
    /// one round of the nodes however deep node 0's backlog is. A scan
    /// that always starts at a fixed home node would run all of node 0's
    /// thousand tasks first.
    #[test]
    fn one_worker_serves_every_node() {
        let nodes = 4;
        let cluster = SimCluster::builder()
            .nodes(nodes)
            .io_model(rede_storage::IoModel::zero())
            .build()
            .unwrap();
        let substrate = Substrate::new(cluster, 1);
        let release = ReleaseOnDrop(Arc::new(AtomicBool::new(false)));
        let entered = Arc::new(AtomicBool::new(false));
        let opts = || JobOptions::from_config(&ExecutorConfig::smpe(1));
        let pointer = |key: i64| Pointer::logical("nothing", 0i64.into(), key.into());
        let job = |name: &str, stage: Arc<dyn crate::traits::Dereferencer>| {
            Job::builder(name)
                .seed(crate::job::SeedInput::Pointers(vec![pointer(0)]))
                .dereference(name, stage)
                .build()
                .unwrap()
        };
        let hold = HoldUntil {
            entered: entered.clone(),
            release: release.0.clone(),
        };
        let held = substrate.submit(&job("held", Arc::new(hold)), opts());
        // The one worker is inside the held job's node-0 seed.
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let recorded = |tag: char| {
            let recorder = Recorder {
                tag,
                log: log.clone(),
            };
            substrate.submit(&job(&tag.to_string(), Arc::new(recorder)), opts())
        };
        let (a, b) = (recorded('A'), recorded('B'));
        let task = |state: &Arc<JobState>| {
            let input = TaskItem::Deref(DerefInput::Point(pointer(1)));
            state.task(input, 0, false, None)
        };
        a.flush(0, (0..1000).map(|_| task(&a)).collect());
        b.flush(nodes - 1, vec![task(&b)]);
        drop(release);
        for state in [&held, &a, &b] {
            state.wait_result().unwrap();
        }
        let log = log.lock();
        assert_eq!(log.len(), 1001);
        let b_ran = log
            .iter()
            .position(|&run| run == ('B', nodes - 1))
            .expect("B's task ran on its node");
        let a_before = log[..b_ran].iter().filter(|(tag, _)| *tag == 'A').count();
        assert!(
            a_before <= nodes,
            "B's task waited behind {a_before} of A's node-0 tasks"
        );
    }

    /// `pool_threads = 0` runs one worker with a pool share of one, through
    /// the runner and the scheduler alike.
    #[test]
    fn zero_pool_threads_run_one_worker() {
        let cluster = SimCluster::builder().nodes(1).build().unwrap();
        let base = cluster
            .create_file(rede_storage::FileSpec::new(
                "base",
                rede_storage::Partitioning::hash(4),
            ))
            .unwrap();
        for k in 0..20i64 {
            base.insert(k.into(), Record::from_text(&format!("rec-{k}")))
                .unwrap();
        }
        let pointers = (0..20i64)
            .map(|k| Pointer::logical("base", k.into(), k.into()))
            .collect();
        let job = Job::builder("lookup")
            .seed(crate::job::SeedInput::Pointers(pointers))
            .dereference(
                "fetch",
                Arc::new(crate::prebuilt::LookupDereferencer::new("base")),
            )
            .build()
            .unwrap();
        let runner = crate::exec::JobRunner::new(cluster.clone(), ExecutorConfig::smpe(0));
        assert_eq!(runner.run(&job).unwrap().count, 20);
        let sched = crate::scheduler::HarborScheduler::new(
            cluster,
            crate::scheduler::SchedulerConfig {
                pool_threads: 0,
                ..Default::default()
            },
        );
        assert_eq!(sched.submit(&job).unwrap().wait().unwrap().count, 20);
    }

    #[test]
    fn batching_knobs() {
        assert!(Batching::default().max_batch > 1);
        assert_eq!(Batching::off().max_batch, 1, "off is a batch of one");
        assert_eq!(Batching::max(0).max_batch, 1, "max clamps to at least 1");
        assert_eq!(Batching::max(7).max_batch, 7);
    }
}
