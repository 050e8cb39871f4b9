//! Routing-policy tests: the SMPE executor must place non-broadcast
//! pointer tasks on the node owning the target partition (the default
//! [`RoutingPolicy::Owner`]), turning cross-partition dereferences into
//! local reads, while [`RoutingPolicy::Producer`] preserves the original
//! produce-local behaviour for ablation. Results must be byte-identical
//! either way — routing moves work, never changes it.

use rede_common::Value;
use rede_core::exec::{ExecutorConfig, JobRunner, RoutingPolicy};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::*;
use rede_storage::{FileSpec, IndexSpec, Partitioning, Record, SimCluster};
use std::sync::Arc;

const PARTS: i64 = 120;
const LINES_PER_PART: i64 = 3;

/// The exec_integration fixture: `part` (local retailprice index) joined
/// to `lineitem` (global FK index). `lineitem` is partitioned by order
/// key while the FK index is partitioned by part key, so every
/// index-entry pointer in the final hop crosses partitions — exactly the
/// access pattern where producer routing pays remote latency.
fn fixture(nodes: usize, partitions: usize) -> SimCluster {
    let c = SimCluster::builder().nodes(nodes).build().unwrap();
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

fn join_job(lo: i64, hi: i64) -> Job {
    Job::builder("part-lineitem-join")
        .seed(SeedInput::Range {
            file: "part.p_retailprice".into(),
            lo: Value::Int(lo),
            hi: Value::Int(hi),
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

fn run_with(c: &SimCluster, job: &Job, routing: RoutingPolicy) -> rede_core::exec::JobResult {
    let config = ExecutorConfig::smpe(64).collecting().with_routing(routing);
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

#[test]
fn owner_routing_eliminates_remote_point_reads() {
    let c = fixture(3, 6);
    let job = join_job(100, 490);

    let producer = run_with(&c, &job, RoutingPolicy::Producer);
    let owner = run_with(&c, &job, RoutingPolicy::Owner);

    // Identical answers — routing is invisible to job semantics.
    assert_eq!(producer.count, owner.count);
    assert_eq!(
        sorted_texts(&producer.records),
        sorted_texts(&owner.records)
    );

    // Producer routing leaves cross-partition dereferences on whatever
    // node produced the pointer, so some heap reads are remote; owner
    // routing ships the task to the data instead.
    assert!(
        producer.profile.remote_point_reads() > 0,
        "fixture must actually cross partitions under producer routing"
    );
    assert_eq!(
        owner.profile.remote_point_reads(),
        0,
        "owner routing must make every heap read local: {}",
        owner.profile
    );
    assert_eq!(
        producer.profile.local_point_reads() + producer.profile.remote_point_reads(),
        owner.profile.local_point_reads(),
        "routing must shift reads from remote to local, not change their number"
    );
    assert!(owner.profile.locality() > producer.profile.locality());
}

#[test]
fn default_config_routes_to_owner() {
    assert_eq!(ExecutorConfig::default().routing, RoutingPolicy::Owner);
    assert_eq!(ExecutorConfig::smpe(8).routing, RoutingPolicy::Owner);
    let c = fixture(2, 4);
    let job = join_job(0, 300);
    let default_run = JobRunner::new(c.clone(), ExecutorConfig::smpe(32).collecting())
        .run(&job)
        .unwrap();
    assert_eq!(default_run.profile.remote_point_reads(), 0);
}

#[test]
fn broadcast_pointers_still_replicate_to_all_nodes() {
    let c = fixture(3, 6);
    // The FK hop broadcasts (no partition info): owner routing must not
    // interfere — the pointer replicates to every node, each probing only
    // local partitions, and the answer matches the key-routed variant.
    let job = Job::builder("broadcast-join")
        .seed(SeedInput::Range {
            file: "part.p_retailprice".into(),
            lo: Value::Int(100),
            hi: Value::Int(190),
        })
        .dereference(
            "d0",
            Arc::new(BtreeRangeDereferencer::new("part.p_retailprice")),
        )
        .reference("r1", Arc::new(IndexEntryReferencer::new("part")))
        .dereference("d1", Arc::new(LookupDereferencer::new("part")))
        .reference(
            "r2",
            Arc::new(InterpretReferencer::broadcast(
                "lineitem.l_partkey",
                Arc::new(DelimitedInterpreter::pipe(0, FieldType::Int)),
            )),
        )
        .dereference(
            "d2",
            Arc::new(IndexLookupDereferencer::new("lineitem.l_partkey")),
        )
        .reference("r3", Arc::new(IndexEntryReferencer::new("lineitem")))
        .dereference("d3", Arc::new(LookupDereferencer::new("lineitem")))
        .build()
        .unwrap();
    let result = run_with(&c, &job, RoutingPolicy::Owner);
    assert_eq!(result.count, 30);
    assert!(result.metrics.broadcasts >= 10, "one per matched part");
    // Replication reaches every node: all three enqueued work.
    for node in &result.profile.nodes {
        assert!(
            node.enqueued > 0,
            "node {} received no tasks: {}",
            node.node,
            result.profile
        );
    }
}

#[test]
fn profile_reports_every_stage_and_node() {
    let c = fixture(3, 6);
    let job = join_job(100, 490);
    let result = run_with(&c, &job, RoutingPolicy::Owner);

    // One profile row per job stage, labelled like the job.
    let labels: Vec<&str> = result
        .profile
        .stages
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    assert_eq!(
        labels,
        ["deref-0", "ref-1", "deref-1", "ref-2", "deref-2", "ref-3", "deref-3"]
    );
    for stage in &result.profile.stages {
        assert!(stage.tasks > 0, "stage '{}' ran no tasks", stage.label);
    }
    // Final stage emits exactly the output records.
    assert_eq!(result.profile.stages.last().unwrap().emits, result.count);
    assert_eq!(result.profile.nodes.len(), 3);
    let enqueued: u64 = result.profile.nodes.iter().map(|n| n.enqueued).sum();
    assert!(enqueued > 0);
    assert!(result.profile.peak_in_flight >= 1);
    // Referencers run inline by default; dereferences hit the pool.
    assert!(result.profile.inline_runs > 0);
    assert!(result.profile.pool_spawns > 0);
}

#[test]
fn partitioned_model_also_reports_a_profile() {
    let c = fixture(2, 4);
    let job = join_job(100, 300);
    let result = JobRunner::new(c.clone(), ExecutorConfig::partitioned().collecting())
        .run(&job)
        .unwrap();
    assert!(result.count > 0);
    assert_eq!(result.profile.stages.len(), 7);
    assert!(result.profile.stages.iter().all(|s| s.tasks > 0));
    assert_eq!(result.profile.nodes.len(), 2);
    assert_eq!(result.profile.pool_spawns, 0, "no pool in this model");
    assert!(result.profile.inline_runs > 0);
}
