//! Batched-dereference equivalence: coalescing same-(job, stage, owner)
//! point dereferences into vectorized storage calls is a pure performance
//! transformation. Across every routing policy × record cache on/off ×
//! fault plan × batch bound, the batched run must produce byte-identical
//! output to the strict per-pointer run (`Batching::off()`, every batch a
//! batch of one) and move the same conservation counters, and the
//! invariant `local + remote + cache hits == logical point reads` must hold
//! exactly, per job and per node.

use rede_common::Value;
use rede_core::exec::{Batching, ExecutorConfig, JobRunner, RoutingPolicy};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::*;
use rede_storage::{FaultPlan, FileSpec, IndexSpec, Partitioning, Record, SimCluster};
use std::sync::Arc;

const PARTS: i64 = 120;
const LINES_PER_PART: i64 = 3;

/// Same shape as the routing fixture: `part` (local retailprice index)
/// joined to `lineitem` (global FK index), with the FK hop crossing
/// partitions — the access pattern batching is built for.
fn fixture(nodes: usize, partitions: usize, cache: bool, faults: bool) -> SimCluster {
    let mut b = SimCluster::builder().nodes(nodes);
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
    let config = ExecutorConfig::smpe(64)
        .collecting()
        .with_routing(routing)
        .with_batching(batching);
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
            n.local_point_reads + n.remote_point_reads + n.cache_hits,
            n.logical_point_reads(),
            "[{tag}] node {} conservation broken: {}",
            n.node,
            result.profile
        );
    }
    // Batched reads cover both heap lookups and index probes, so they are
    // bounded by the sum of the two access populations.
    assert!(
        result.profile.batched_reads
            <= result.profile.local_point_reads()
                + result.profile.remote_point_reads()
                + result.metrics.index_lookups,
        "[{tag}] batched reads exceed the batchable access population"
    );
    if result.profile.batches_issued == 0 {
        assert_eq!(
            result.profile.batched_reads, 0,
            "[{tag}] no batches but batched reads recorded"
        );
    }
}

#[test]
fn batching_is_invisible_across_routing_cache_and_fault_grid() {
    let routings = [
        RoutingPolicy::Owner,
        RoutingPolicy::Producer,
        RoutingPolicy::hybrid(),
    ];
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
                    off.profile.batches_issued, 0,
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
                    // remote population is deterministic: hybrid's split
                    // shifts with load, cache hits depend on LRU timing,
                    // and retried faults re-pay RTTs.
                    if !matches!(routing, RoutingPolicy::Hybrid { .. }) && !cache && !faults {
                        assert!(
                            b.profile.remote_rtts <= off.profile.remote_rtts,
                            "[{tag}] batching may only amortize RTTs, got {} > {}",
                            b.profile.remote_rtts,
                            off.profile.remote_rtts
                        );
                    }
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
    assert_eq!(one.profile.batches_issued, 0);
    assert_eq!(one.profile.batched_reads, 0);
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
    assert!(off.profile.remote_rtts > 0, "fixture must read remotely");
    // Unbatched, every remote heap read pays its own RTT (remote index
    // probes pay additional ones on top).
    assert!(off.profile.remote_rtts >= off.profile.remote_point_reads());
    assert!(
        batched.profile.batches_issued > 0,
        "pointer flood must form batches: {}",
        batched.profile
    );
    assert!(batched.profile.mean_batch_size() > 1.0);
    assert!(
        batched.profile.remote_rtts < off.profile.remote_rtts,
        "batches must amortize RTTs: batched {} vs scalar {}",
        batched.profile.remote_rtts,
        off.profile.remote_rtts
    );
    assert_eq!(sorted_texts(&batched.records), sorted_texts(&off.records));
}
