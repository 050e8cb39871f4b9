//! Ablation: referencer thread-switching (§ III-C: "as an optimization,
//! ReDe does not switch threads for Referencers by default to avoid
//! excessive context switching because Referencers do not usually incur IO
//! and are lightweight").
//!
//! Runs the same SMPE job with referencers fused into the dispatch that
//! produced their record (default) vs. every referencer invocation queued
//! as a pooled dispatch of its own.

use criterion::{criterion_group, criterion_main, Criterion};
use rede_bench::{Fig7Config, Fig7Fixture};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_tpch::{q5_prime_job, Q5Params};
use std::hint::black_box;
use std::time::Duration;

fn bench_referencer_inline(c: &mut Criterion) {
    let fixture = Fig7Fixture::build(Fig7Config {
        nodes: 4,
        partitions: 16,
        scale_factor: 0.002,
        io_scale: 0.0, // no I/O latency: isolate the context-switch cost
        smpe_threads: 128,
        cores_per_node: 8,
        seed: 42,
        ..Fig7Config::default()
    })
    .expect("load fixture");
    let job = q5_prime_job(&Q5Params::with_selectivity(3e-2)).unwrap();

    let inline = JobRunner::new(
        fixture.cluster.clone(),
        ExecutorConfig {
            referencer_inline: true,
            ..ExecutorConfig::smpe(128)
        },
    );
    let switched = JobRunner::new(
        fixture.cluster.clone(),
        ExecutorConfig {
            referencer_inline: false,
            ..ExecutorConfig::smpe(128)
        },
    );

    let mut group = c.benchmark_group("ablation/referencer");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    group.bench_function("inline_default", |b| {
        b.iter(|| black_box(inline.run(&job).unwrap().count))
    });
    group.bench_function("thread_switched", |b| {
        b.iter(|| black_box(switched.run(&job).unwrap().count))
    });
    group.finish();
}

criterion_group!(benches, bench_referencer_inline);
criterion_main!(benches);
