//! Batched-dereference equivalence: coalescing same-(job, stage, owner)
//! point dereferences into vectorized storage calls is a pure performance
//! transformation. Across every routing policy × record cache on/off ×
//! fault plan × batch bound, the batched run must produce byte-identical
//! output to the strict per-pointer run (`Batching::off()`, every batch a
//! batch of one) and move the same conservation counters, and the
//! invariant `local + remote + cache hits == logical point reads` must hold
//! exactly, per job and per node. The same grid runs with referencers
//! inline (fused into the dispatch that produced their records) and
//! switched (queued to the pool): where a referencer runs may change only
//! how many items crossed a queue.

use rede_common::{RedeError, Value};
use rede_core::exec::{Batching, ExecutorConfig, JobRunner, RoutingPolicy};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::*;
use rede_core::traits::{DerefInput, Dereferencer, StageCtx};
use rede_storage::{FaultPlan, FileSpec, IndexSpec, IoModel, Partitioning, Record, SimCluster};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PARTS: i64 = 120;
const LINES_PER_PART: i64 = 3;

/// Same shape as the routing fixture: `part` (local retailprice index)
/// joined to `lineitem` (global FK index), with the FK hop crossing
/// partitions — the access pattern batching is built for.
fn fixture(nodes: usize, partitions: usize, cache: bool, faults: bool) -> SimCluster {
    fixture_with(nodes, partitions, cache, faults, IoModel::zero())
}

fn fixture_with(
    nodes: usize,
    partitions: usize,
    cache: bool,
    faults: bool,
    io: IoModel,
) -> SimCluster {
    let mut b = SimCluster::builder().nodes(nodes).io_model(io);
    if cache {
        b = b.record_cache(64 * 1024);
    }
    if faults {
        b = b.faults(FaultPlan::transient(7, 0.25));
    }
    let c = b.build().unwrap();
    let part = c
        .create_file(FileSpec::new("part", Partitioning::hash(partitions)))
        .unwrap();
    for i in 0..PARTS {
        part.insert(Value::Int(i), Record::from_text(&format!("{i}|{}", i * 10)))
            .unwrap();
    }
    let lineitem = c
        .create_file(FileSpec::new("lineitem", Partitioning::hash(partitions)))
        .unwrap();
    let mut order = 0i64;
    for p in 0..PARTS {
        for l in 0..LINES_PER_PART {
            order += 1;
            lineitem
                .insert_with_partition_key(
                    &Value::Int(order),
                    Value::Int(order),
                    Record::from_text(&format!("{order}|{p}|{}", l + 1)),
                )
                .unwrap();
        }
    }
    IndexBuilder::new(
        c.clone(),
        IndexSpec::local("part.p_retailprice", "part", partitions),
        Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
    )
    .build()
    .unwrap();
    IndexBuilder::new(
        c.clone(),
        IndexSpec::global("lineitem.l_partkey", "lineitem", partitions),
        Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
    )
    .with_partition_key(Arc::new(DelimitedInterpreter::pipe(0, FieldType::Int)))
    .build()
    .unwrap();
    c
}

fn join_job() -> Job {
    Job::builder("part-lineitem-join")
        .seed(SeedInput::Range {
            file: "part.p_retailprice".into(),
            lo: Value::Int(0),
            hi: Value::Int(1190),
        })
        .dereference(
            "deref-0",
            Arc::new(BtreeRangeDereferencer::new("part.p_retailprice")),
        )
        .reference("ref-1", Arc::new(IndexEntryReferencer::new("part")))
        .dereference("deref-1", Arc::new(LookupDereferencer::new("part")))
        .reference(
            "ref-2",
            Arc::new(InterpretReferencer::new(
                "lineitem.l_partkey",
                Arc::new(DelimitedInterpreter::pipe(0, FieldType::Int)),
            )),
        )
        .dereference(
            "deref-2",
            Arc::new(IndexLookupDereferencer::new("lineitem.l_partkey")),
        )
        .reference("ref-3", Arc::new(IndexEntryReferencer::new("lineitem")))
        .dereference("deref-3", Arc::new(LookupDereferencer::new("lineitem")))
        .build()
        .unwrap()
}

fn run_with(
    c: &SimCluster,
    job: &Job,
    routing: RoutingPolicy,
    batching: Batching,
) -> rede_core::exec::JobResult {
    run_with_referencers(c, job, routing, batching, true)
}

fn run_with_referencers(
    c: &SimCluster,
    job: &Job,
    routing: RoutingPolicy,
    batching: Batching,
    referencer_inline: bool,
) -> rede_core::exec::JobResult {
    let config = ExecutorConfig {
        referencer_inline,
        ..ExecutorConfig::smpe(64)
            .collecting()
            .with_routing(routing)
            .with_batching(batching)
    };
    JobRunner::new(c.clone(), config).run(job).unwrap()
}

fn sorted_texts(records: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = records
        .iter()
        .map(|r| r.text().unwrap().to_string())
        .collect();
    v.sort();
    v
}

fn assert_conservation(result: &rede_core::exec::JobResult, tag: &str) {
    for n in &result.profile.nodes {
        assert_eq!(
            n.io.local + n.io.remote + n.io.cache_hits,
            n.io.logical_point_reads(),
            "[{tag}] node {} conservation broken: {}",
            n.node,
            result.profile
        );
    }
    // Batched reads cover both heap lookups and index probes, so they are
    // bounded by the sum of the two access populations.
    assert!(
        result.metrics.batched_reads
            <= result.profile.local_point_reads()
                + result.profile.remote_point_reads()
                + result.metrics.index_lookups,
        "[{tag}] batched reads exceed the batchable access population"
    );
    if result.metrics.batches_issued == 0 {
        assert_eq!(
            result.metrics.batched_reads, 0,
            "[{tag}] no batches but batched reads recorded"
        );
    }
    // A queue hop is an item that crossed a node queue, wherever it went.
    assert_eq!(
        result.metrics.queue_hops,
        result.profile.nodes.iter().map(|n| n.enqueued).sum::<u64>(),
        "[{tag}] queue hops must equal the tasks the nodes were handed"
    );
}

/// The reference stages sit at the odd positions of `join_job`.
fn reference_stage_tasks(result: &rede_core::exec::JobResult) -> u64 {
    let stages = &result.profile.stages;
    stages.iter().skip(1).step_by(2).map(|s| s.tasks).sum()
}

#[test]
fn batching_is_invisible_across_routing_cache_and_fault_grid() {
    let routings = [RoutingPolicy::Owner, RoutingPolicy::Producer];
    let job = join_job();
    for faults in [false, true] {
        for cache in [false, true] {
            for routing in routings {
                let tag = format!("faults={faults} cache={cache} routing={routing:?}");
                // Every run gets a fresh fixture: cold caches and untouched
                // fault sites, so the batched runs face exactly the faults
                // the baseline faced.
                let off = {
                    let c = fixture(3, 6, cache, faults);
                    run_with(&c, &job, routing, Batching::off())
                };
                assert_eq!(
                    off.metrics.batches_issued, 0,
                    "[{tag}] batching off must never batch"
                );
                assert_conservation(&off, &tag);
                let baseline = sorted_texts(&off.records);
                assert!(!baseline.is_empty(), "[{tag}] fixture produced no rows");
                for max_batch in [7usize, 32] {
                    let c = fixture(3, 6, cache, faults);
                    let b = run_with(&c, &job, routing, Batching::max(max_batch));
                    assert_eq!(
                        sorted_texts(&b.records),
                        baseline,
                        "[{tag}] batch={max_batch} changed the answer"
                    );
                    assert_eq!(off.count, b.count);
                    assert_conservation(&b, &format!("{tag} batch={max_batch}"));
                    // Coalescing moves no conservation counter: the same
                    // logical reads, the same probes, the same fault sites
                    // met once each and retried once each.
                    assert_eq!(
                        b.metrics.point_reads() + b.metrics.cache_hits,
                        off.metrics.point_reads() + off.metrics.cache_hits,
                        "[{tag}] batch={max_batch} changed the logical read count"
                    );
                    assert_eq!(b.metrics.index_lookups, off.metrics.index_lookups);
                    assert_eq!(b.metrics.faults_injected, off.metrics.faults_injected);
                    assert_eq!(b.metrics.retries, b.metrics.faults_injected);
                    assert_eq!(off.metrics.retries, off.metrics.faults_injected);
                    // RTT counts are only run-to-run comparable when the
                    // remote population is deterministic: cache hits
                    // depend on LRU timing, and retried faults re-pay RTTs.
                    if !cache && !faults {
                        assert!(
                            b.metrics.remote_rtts <= off.metrics.remote_rtts,
                            "[{tag}] batching may only amortize RTTs, got {} > {}",
                            b.metrics.remote_rtts,
                            off.metrics.remote_rtts
                        );
                    }
                    // The same run with every referencer switched to the
                    // pool: same bytes, same reads, same faults, the same
                    // work per stage — only the records' queue crossings
                    // are added.
                    let c = fixture(3, 6, cache, faults);
                    let switched =
                        run_with_referencers(&c, &job, routing, Batching::max(max_batch), false);
                    let tag = format!("{tag} batch={max_batch} switched");
                    assert_eq!(sorted_texts(&switched.records), baseline, "[{tag}]");
                    assert_conservation(&switched, &tag);
                    assert_eq!(
                        switched.metrics.point_reads() + switched.metrics.cache_hits,
                        b.metrics.point_reads() + b.metrics.cache_hits,
                        "[{tag}] logical reads"
                    );
                    assert_eq!(switched.metrics.index_lookups, b.metrics.index_lookups);
                    assert_eq!(switched.metrics.faults_injected, b.metrics.faults_injected);
                    assert_eq!(switched.metrics.retries, switched.metrics.faults_injected);
                    for (fused, queued) in b.profile.stages.iter().zip(&switched.profile.stages) {
                        assert_eq!(
                            (fused.tasks, fused.emits),
                            (queued.tasks, queued.emits),
                            "[{tag}] stage '{}' did different work",
                            fused.label
                        );
                    }
                    assert_eq!(switched.profile.inline_runs, 0, "[{tag}]");
                    assert_eq!(b.profile.inline_runs, reference_stage_tasks(&b), "[{tag}]");
                    assert_eq!(
                        b.metrics.queue_hops,
                        switched.metrics.queue_hops - reference_stage_tasks(&switched),
                        "[{tag}] inline referencers must be exactly the hops saved"
                    );
                }
            }
        }
    }
}

#[test]
fn batch_of_one_is_batching_off() {
    let c = fixture(3, 6, false, false);
    let job = join_job();
    let off = run_with(&c, &job, RoutingPolicy::Owner, Batching::off());
    // max_batch == 1 via `max` clamping must behave exactly like `off`.
    let one = run_with(&c, &job, RoutingPolicy::Owner, Batching::max(1));
    assert_eq!(one.metrics.batches_issued, 0);
    assert_eq!(one.metrics.batched_reads, 0);
    assert_eq!(sorted_texts(&one.records), sorted_texts(&off.records));
    assert_eq!(
        one.profile.local_point_reads() + one.profile.remote_point_reads(),
        off.profile.local_point_reads() + off.profile.remote_point_reads(),
    );
}

#[test]
fn producer_routing_batches_amortize_remote_rtts() {
    let c = fixture(3, 6, false, false);
    let job = join_job();
    // Producer routing leaves the FK hop remote, so every dereference pays
    // an RTT unbatched; coalescing must collapse them to one per batch.
    let off = run_with(&c, &job, RoutingPolicy::Producer, Batching::off());
    let batched = run_with(&c, &job, RoutingPolicy::Producer, Batching::default());
    assert!(off.metrics.remote_rtts > 0, "fixture must read remotely");
    // Unbatched, every remote heap read pays its own RTT (remote index
    // probes pay additional ones on top).
    assert!(off.metrics.remote_rtts >= off.profile.remote_point_reads());
    assert!(
        batched.metrics.batches_issued > 0,
        "pointer flood must form batches: {}",
        batched.profile
    );
    assert!(batched.metrics.mean_batch_size() > 1.0);
    assert!(
        batched.metrics.remote_rtts < off.metrics.remote_rtts,
        "batches must amortize RTTs: batched {} vs scalar {}",
        batched.metrics.remote_rtts,
        off.metrics.remote_rtts
    );
    assert_eq!(sorted_texts(&batched.records), sorted_texts(&off.records));
}

/// No worker waits on simulated time: with a *single* pool worker, a
/// job's reads still overlap on the device, so it finishes in a fraction
/// of the device time it was charged.
#[test]
fn one_worker_overlaps_a_jobs_reads_on_the_device() {
    let latency = Duration::from_millis(2);
    let io = IoModel {
        local_point_read: latency,
        remote_point_read: latency,
        index_lookup: latency,
        ..IoModel::zero()
    };
    let c = fixture_with(1, 4, false, false, io);
    let config = ExecutorConfig::smpe(1).collecting();
    let result = JobRunner::new(c.clone(), config).run(&join_job()).unwrap();
    assert_eq!(result.count, (PARTS * LINES_PER_PART) as u64);
    let accesses = result.metrics.point_reads() + result.metrics.index_lookups;
    let device_time = c.device_slot_time()[0];
    assert_eq!(
        device_time,
        latency * accesses as u32,
        "every access held one slot for its full device time"
    );
    // Four dereference stages follow one another, so four device times is
    // the floor — and on this one-node cluster, finishing in less than the
    // charged device time means more than one access was in service at
    // once, which one sleeping worker could never do.
    assert!(result.wall >= latency * 4, "wall {:?}", result.wall);
    assert!(
        result.wall < device_time / 2,
        "one worker must not serialize {device_time:?} of device time: wall {:?}",
        result.wall
    );
    assert_eq!(c.available_iops_permits(), vec![c.io_model().queue_depth]);
}

/// Fails transiently the first `failures` times it runs on each node,
/// then emits one record. Touches no storage, so the only simulated time
/// its dispatches owe is the retry backoff.
struct FailsFirst {
    failures: u32,
    attempts: Vec<AtomicU32>,
}

impl Dereferencer for FailsFirst {
    fn dereference(
        &self,
        _input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> rede_common::Result<()> {
        if self.attempts[ctx.node].fetch_add(1, Ordering::SeqCst) < self.failures {
            return Err(RedeError::Transient("try again".into()));
        }
        emit(Record::from_text("ok"));
        Ok(())
    }
}

/// Retry backoff is owed, not slept on a worker: sixteen seed dispatches
/// that each back off ~4.5 ms share one worker and still finish in about
/// one backoff, not sixteen.
#[test]
fn retry_backoff_does_not_occupy_a_worker() {
    let nodes = 16;
    let failures = 8;
    // 20 µs doubling per retry, capped at 2 ms: the executor's envelope.
    let backoff: Duration = (0..failures)
        .map(|n| Duration::from_micros(20 << n).min(Duration::from_millis(2)))
        .sum();
    let c = SimCluster::builder().nodes(nodes).build().unwrap();
    let job = Job::builder("backoff")
        .seed(SeedInput::Range {
            file: "nothing".into(),
            lo: Value::Int(0),
            hi: Value::Int(0),
        })
        .dereference(
            "flaky",
            Arc::new(FailsFirst {
                failures,
                attempts: (0..nodes).map(|_| AtomicU32::new(0)).collect(),
            }),
        )
        .build()
        .unwrap();
    let result = JobRunner::new(c, ExecutorConfig::smpe(1))
        .run(&job)
        .unwrap();
    assert_eq!(result.count, nodes as u64);
    assert_eq!(result.metrics.retries, u64::from(failures) * nodes as u64);
    assert!(
        result.wall >= backoff,
        "backoff is still owed: {:?}",
        result.wall
    );
    assert!(
        result.wall < backoff * (nodes as u32) / 2,
        "{nodes} dispatches backed off {backoff:?} each on one worker: {:?}",
        result.wall
    );
}
