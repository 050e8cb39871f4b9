//! Partitioned (non-SMPE) execution — the conservative model the paper
//! ascribes to existing balanced solutions and evaluates as "ReDe (w/o
//! SMPE)".
//!
//! The same Reference–Dereference job runs with "the partitioned
//! parallelism given from data partitions": one worker thread per node
//! walks the stage list depth-first, so every point read on a node is
//! issued sequentially — the structures are used, but their inherent
//! parallelism is not.

use super::{ExecutorConfig, RawOutput};
use crate::job::{Job, Stage};
use crate::traits::{DerefInput, StageCtx};
use parking_lot::Mutex;
use rede_common::{Counter, ExecProfile, NodeProfile, RedeError, Result, StageProfile};
use rede_storage::{Record, SimCluster};
use std::sync::atomic::{AtomicU64, Ordering};

struct Sink {
    count: AtomicU64,
    records: Mutex<Vec<Record>>,
    collect: bool,
}

/// Profile counters for the partitioned model: every invocation runs
/// inline on its node's single worker, so "tasks" are function
/// invocations and per-node activity is whatever that node's worker did.
struct Prof {
    stage_tasks: Vec<AtomicU64>,
    stage_emits: Vec<AtomicU64>,
    node_tasks: Vec<AtomicU64>,
}

impl Prof {
    fn new(stages: usize, nodes: usize) -> Prof {
        let zeroes = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Prof {
            stage_tasks: zeroes(stages),
            stage_emits: zeroes(stages),
            node_tasks: zeroes(nodes),
        }
    }

    fn count_task(&self, stage: usize, node: usize) {
        self.stage_tasks[stage].fetch_add(1, Ordering::Relaxed);
        self.node_tasks[node].fetch_add(1, Ordering::Relaxed);
    }

    fn count_emits(&self, stage: usize, n: u64) {
        self.stage_emits[stage].fetch_add(n, Ordering::Relaxed);
    }
}

/// Shared, read-only state of one run: the worker threads borrow this and
/// walk the stage list against it.
struct Eval<'a> {
    cluster: &'a SimCluster,
    job: &'a Job,
    sink: &'a Sink,
    prof: &'a Prof,
}

impl Eval<'_> {
    /// Depth-first evaluation of one dereference input through the
    /// remaining stages. Broadcast pointers are evaluated in place against
    /// *all* partitions (`local_only = false`): a single worker has no
    /// peers to replicate to, which is exactly the limitation that
    /// distinguishes this model.
    fn deref(
        &self,
        node: usize,
        stage_idx: usize,
        input: &DerefInput,
        local_only: bool,
    ) -> Result<()> {
        self.prof.count_task(stage_idx, node);
        let Stage::Dereference { func, filter, .. } = &self.job.stages()[stage_idx] else {
            return Err(RedeError::Exec(format!(
                "stage {stage_idx} expected a dereference"
            )));
        };
        let ctx = StageCtx {
            cluster: self.cluster.clone(),
            node,
            local_only,
        };
        // Collect this invocation's records first, then recurse: the
        // recursion re-enters storage and must not run inside the emit
        // callback.
        let mut records = Vec::new();
        let mut filter_err = None;
        func.dereference(input, &ctx, &mut |record| {
            let keep = match filter {
                Some(f) => match f.matches(&record) {
                    Ok(keep) => keep,
                    Err(e) => {
                        filter_err.get_or_insert(e);
                        false
                    }
                },
                None => true,
            };
            if keep {
                records.push(record);
            }
        })?;
        if let Some(e) = filter_err {
            return Err(e);
        }
        self.prof.count_emits(stage_idx, records.len() as u64);

        let next = stage_idx + 1;
        if next >= self.job.stages().len() {
            self.sink
                .count
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            self.cluster
                .metrics()
                .add(Counter::records_emitted, records.len() as u64);
            if self.sink.collect {
                self.sink.records.lock().extend(records);
            }
            return Ok(());
        }

        let Stage::Reference { func: refr, .. } = &self.job.stages()[next] else {
            return Err(RedeError::Exec(format!(
                "stage {next} expected a reference"
            )));
        };
        for record in &records {
            self.prof.count_task(next, node);
            let mut ptrs = Vec::new();
            refr.reference(record, &ctx, &mut |p| ptrs.push(p))?;
            self.prof.count_emits(next, ptrs.len() as u64);
            for ptr in ptrs {
                if ptr.is_broadcast() {
                    self.cluster.metrics().add(Counter::broadcasts, 1);
                }
                self.deref(node, next + 1, &DerefInput::Point(ptr), false)?;
            }
        }
        Ok(())
    }
}

/// Run a job with partitioned parallelism: one worker per node.
pub(crate) fn run(cluster: &SimCluster, job: &Job, config: &ExecutorConfig) -> Result<RawOutput> {
    let sink = Sink {
        count: AtomicU64::new(0),
        records: Mutex::new(Vec::new()),
        collect: config.collect_outputs,
    };
    let errors: Mutex<Vec<RedeError>> = Mutex::new(Vec::new());
    let prof = Prof::new(job.stages().len(), cluster.nodes());
    let node_reads_before = cluster.metrics().node_point_reads();

    let eval = Eval {
        cluster,
        job,
        sink: &sink,
        prof: &prof,
    };
    std::thread::scope(|s| {
        for node in 0..cluster.nodes() {
            let (eval, errors) = (&eval, &errors);
            s.spawn(move || {
                for input in eval.job.seed().to_inputs() {
                    // The seed runs on every node restricted to its local
                    // partitions, exactly as under SMPE.
                    if let Err(e) = eval.deref(node, 0, &input, true) {
                        errors.lock().push(e);
                        return;
                    }
                }
            });
        }
    });

    let errors = errors.into_inner();
    if let Some(first) = errors.first() {
        return Err(RedeError::Exec(format!(
            "job '{}' failed with {} error(s); first: {first}",
            job.name(),
            errors.len()
        )));
    }
    let node_reads_after = cluster.metrics().node_point_reads();
    let stages = job
        .stages()
        .iter()
        .enumerate()
        .map(|(i, stage)| StageProfile {
            label: stage.label().to_string(),
            tasks: prof.stage_tasks[i].load(Ordering::Relaxed),
            emits: prof.stage_emits[i].load(Ordering::Relaxed),
        })
        .collect();
    let nodes = (0..cluster.nodes())
        .map(|node| {
            let after = node_reads_after.get(node).copied().unwrap_or_default();
            let before = node_reads_before.get(node).copied().unwrap_or_default();
            NodeProfile {
                node,
                enqueued: prof.node_tasks[node].load(Ordering::Relaxed),
                io: after.since(&before),
            }
        })
        .collect();
    let inline_runs = prof
        .node_tasks
        .iter()
        .map(|t| t.load(Ordering::Relaxed))
        .sum();
    let profile = ExecProfile {
        stages,
        nodes,
        pool_spawns: 0,
        inline_runs,
        // One worker per node, each running one invocation at a time.
        peak_in_flight: cluster.nodes() as u64,
    };

    Ok(RawOutput {
        count: sink.count.load(Ordering::Relaxed),
        records: sink.records.into_inner(),
        profile,
    })
}
