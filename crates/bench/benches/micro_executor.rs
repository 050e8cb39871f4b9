//! Microbenchmark of the execution layer: the pure orchestration overhead
//! of SMPE vs. partitioned execution on a zero-latency cluster (any gap
//! here is bookkeeping, not I/O).

use criterion::{criterion_group, criterion_main, Criterion};
use rede_common::Value;
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::*;
use rede_storage::{FileSpec, IndexSpec, Partitioning, Record, SimCluster};
use std::hint::black_box;
use std::sync::Arc;

/// A two-hop index join fixture with zero injected latency.
fn fixture() -> (SimCluster, Job) {
    let cluster = SimCluster::builder().nodes(4).build().unwrap();
    let base = cluster
        .create_file(FileSpec::new("base", Partitioning::hash(8)))
        .unwrap();
    for i in 0..5_000i64 {
        base.insert(
            Value::Int(i),
            Record::from_text(&format!("{i}|{}", i % 100)),
        )
        .unwrap();
    }
    IndexBuilder::new(
        cluster.clone(),
        IndexSpec::global("base.group", "base", 8),
        Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
    )
    .build()
    .unwrap();
    let job = Job::builder("bench-join")
        .seed(SeedInput::Range {
            file: "base.group".into(),
            lo: Value::Int(0),
            hi: Value::Int(9),
        })
        .dereference("d0", Arc::new(BtreeRangeDereferencer::new("base.group")))
        .reference("r1", Arc::new(IndexEntryReferencer::new("base")))
        .dereference("d1", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap();
    (cluster, job)
}

fn bench_executors(c: &mut Criterion) {
    let (cluster, job) = fixture();
    let smpe = JobRunner::new(cluster.clone(), ExecutorConfig::smpe(64));
    let partitioned = JobRunner::new(cluster.clone(), ExecutorConfig::partitioned());
    let mut group = c.benchmark_group("executor_overhead_500_outputs");
    group.sample_size(20);
    group.bench_function("smpe", |b| {
        b.iter(|| black_box(smpe.run(&job).unwrap().count))
    });
    group.bench_function("partitioned", |b| {
        b.iter(|| black_box(partitioned.run(&job).unwrap().count))
    });
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
