//! Job executors.
//!
//! Two execution models, matching the paper's Fig. 7 systems:
//!
//! * [`smpe`] — **Scalable Massively Parallel Execution** (Algorithm 1):
//!   jobs decompose into per-record tasks at run time; every dereference
//!   invocation is its own dispatch whose reads wait in the device queues,
//!   not on a thread, so thousands of point reads overlap ("ReDe (w/
//!   SMPE)").
//! * [`partitioned`] — the conservative model of existing balanced
//!   solutions: one worker per node walking the stage list depth-first, so
//!   parallelism is fixed by the partitioning ("ReDe (w/o SMPE)").
//!
//! [`JobRunner`] is the public entry point; it owns the SMPE workers so
//! repeated runs reuse them.

pub mod partitioned;
pub mod smpe;
pub mod wrr;

use crate::job::Job;
use rede_common::{ExecProfile, MetricsSnapshot, Result};
use rede_storage::{Record, SimCluster};
use std::time::Duration;

pub use wrr::WrrQueue;

/// Which execution model to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Scalable massively parallel execution (fine-grained task spawning).
    Smpe,
    /// Static partitioned parallelism (one worker per node).
    Partitioned,
}

/// Where SMPE enqueues the follow-up task for a non-broadcast pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Enqueue on the node that produced the pointer, so cross-partition
    /// dereferences are remote reads. No workload wants this; it is the
    /// lever tests and benches use to put reads on the wire — under
    /// [`RoutingPolicy::Owner`] every routable read is local, and the
    /// round-trip / fabric-window path would be reachable only through
    /// injected faults.
    Producer,
    /// Enqueue on the node owning the pointer's target partition, so the
    /// dereference is a local read. Pointers whose placement cannot be
    /// determined (e.g. into local indexes), or whose owner is down, stay
    /// at their producer.
    #[default]
    Owner,
}

/// Pointer-batching knob for SMPE (see [`smpe`]): same-(job, stage,
/// owner) point dereferences queued together are coalesced into one
/// batched storage call, amortizing dispatch, IOPS admission, and — for
/// remote owners — the network RTT across the batch. A batch is whatever
/// of its group is queued when its lead task is popped; nothing waits for
/// more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batching {
    /// Largest number of pointers coalesced into one batch. `1` disables
    /// coalescing entirely (every batch is a batch of one).
    pub max_batch: usize,
}

impl Default for Batching {
    fn default() -> Self {
        Batching { max_batch: 32 }
    }
}

impl Batching {
    /// Coalescing disabled: every pointer is dereferenced as a batch of
    /// one.
    pub fn off() -> Batching {
        Batching { max_batch: 1 }
    }

    /// Batching with a given batch-size bound (at least 1).
    pub fn max(max_batch: usize) -> Batching {
        Batching {
            max_batch: max_batch.max(1),
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Execution model.
    pub mode: ExecMode,
    /// Pool capacity for SMPE: the denominator of each job's fair share of
    /// running pooled dispatches (`pool_threads × weight / active
    /// weight`), and the upper bound on worker threads — the substrate
    /// runs `min(pool_threads, cores)` of them (at least one), because no
    /// worker waits on simulated I/O. Every worker pops every node's
    /// queue; there is no thread per node. The paper's per-node default of
    /// 1000 sleeping threads bought I/O concurrency; here that is
    /// `IoModel::queue_depth`.
    pub pool_threads: usize,
    /// Run each referencer inside the dispatch that produced its input
    /// record instead of queueing it as a dispatch of its own — the
    /// paper's default optimization ("ReDe does not switch threads for
    /// Referencers by default to avoid excessive context switching because
    /// Referencers do not usually incur IO").
    pub referencer_inline: bool,
    /// Collect output records into [`JobResult::records`] (otherwise only
    /// count them).
    pub collect_outputs: bool,
    /// How SMPE routes non-broadcast pointer tasks across nodes.
    pub routing: RoutingPolicy,
    /// Pointer coalescing at pop time (default on; see [`Batching`]).
    pub batching: Batching,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            mode: ExecMode::Smpe,
            pool_threads: 256,
            referencer_inline: true,
            collect_outputs: false,
            routing: RoutingPolicy::default(),
            batching: Batching::default(),
        }
    }
}

impl ExecutorConfig {
    /// SMPE with a given pool size.
    pub fn smpe(pool_threads: usize) -> ExecutorConfig {
        ExecutorConfig {
            mode: ExecMode::Smpe,
            pool_threads,
            ..Default::default()
        }
    }

    /// Partitioned (w/o SMPE) execution.
    pub fn partitioned() -> ExecutorConfig {
        ExecutorConfig {
            mode: ExecMode::Partitioned,
            ..Default::default()
        }
    }

    /// Enable output collection.
    pub fn collecting(mut self) -> ExecutorConfig {
        self.collect_outputs = true;
        self
    }

    /// Use a specific pointer-routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> ExecutorConfig {
        self.routing = routing;
        self
    }

    /// Use specific pointer-batching knobs ([`Batching::off`] dereferences
    /// strictly one pointer per storage call).
    pub fn with_batching(mut self, batching: Batching) -> ExecutorConfig {
        self.batching = batching;
        self
    }
}

/// Outcome of one job run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Number of records emitted by the final stage.
    pub count: u64,
    /// The emitted records, if collection was enabled. Order is
    /// nondeterministic under SMPE.
    pub records: Vec<Record>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Storage counters accumulated by this run alone.
    pub metrics: MetricsSnapshot,
    /// Per-stage / per-node execution profile of this run.
    pub profile: ExecProfile,
}

/// Executes jobs against a cluster under a fixed configuration.
///
/// In SMPE mode the runner owns a `smpe::Substrate` — the workers and the
/// per-node weighted stage queues they serve — and submits each
/// `run` as a weight-1 job. `run` may be called from many threads
/// concurrently; the jobs share the substrate fairly. (The scheduler layer
/// builds on the same substrate and adds admission, weights, and lazy
/// structure coordination.)
pub struct JobRunner {
    cluster: SimCluster,
    config: ExecutorConfig,
    substrate: Option<smpe::Substrate>,
}

impl JobRunner {
    /// Create a runner; the SMPE workers are spawned eagerly so run
    /// timings exclude thread creation.
    pub fn new(cluster: SimCluster, config: ExecutorConfig) -> JobRunner {
        let substrate = match config.mode {
            ExecMode::Smpe => Some(smpe::Substrate::new(cluster.clone(), config.pool_threads)),
            ExecMode::Partitioned => None,
        };
        JobRunner {
            cluster,
            config,
            substrate,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// The cluster jobs run against.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Execute a job to completion.
    pub fn run(&self, job: &Job) -> Result<JobResult> {
        match self.config.mode {
            ExecMode::Smpe => {
                let substrate = self.substrate.as_ref().expect("smpe substrate");
                let state = substrate.submit(job, smpe::JobOptions::from_config(&self.config));
                state.wait_result()
            }
            ExecMode::Partitioned => {
                let before = self.cluster.metrics().snapshot();
                let start = std::time::Instant::now();
                let output = partitioned::run(&self.cluster, job, &self.config)?;
                let wall = start.elapsed();
                let metrics = self.cluster.metrics().snapshot().since(&before);
                Ok(JobResult {
                    count: output.count,
                    records: output.records,
                    wall,
                    metrics,
                    profile: output.profile,
                })
            }
        }
    }
}

/// Internal executor output before timing/metrics annotation.
pub(crate) struct RawOutput {
    pub count: u64,
    pub records: Vec<Record>,
    pub profile: ExecProfile,
}
