//! Ablation: I/O concurrency (§ III-C: "It manages 1000 threads in the
//! default setting, but the number can be adjusted based on underlying
//! hardware capabilities such as the number of CPU cores and the IOPS of
//! IO path.")
//!
//! The paper buys I/O concurrency with sleeping threads, so its knob is
//! the pool size. Here no worker waits on simulated I/O — a dispatch
//! charges its reads and the per-node device queues serve them as events
//! — so the pool is sized to the cores and the same knob is the device
//! queue depth, "the IOPS of the IO path" itself. With injected point-read
//! latency, job time should fall roughly linearly with queue depth until
//! the job's intrinsic parallelism saturates; past that a deeper queue
//! buys nothing (and, unlike oversubscribed threads, costs nothing). The
//! old thread sweep's last numbers are frozen in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_storage::{IoModel, SimCluster};
use rede_tpch::{load_tpch, q5_prime_job, LoadOptions, Q5Params, TpchGenerator};
use std::hint::black_box;
use std::time::Duration;

fn bench_queue_depth(c: &mut Criterion) {
    let job = q5_prime_job(&Q5Params::with_selectivity(3e-3)).unwrap();
    let mut group = c.benchmark_group("ablation/pool_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for queue_depth in [8usize, 32, 128, 512] {
        let cluster = SimCluster::builder()
            .nodes(4)
            .io_model(IoModel {
                queue_depth,
                ..IoModel::hdd_like(0.25)
            })
            .build()
            .expect("build cluster");
        load_tpch(
            &cluster,
            TpchGenerator::new(0.002, 42),
            &LoadOptions {
                partitions: Some(16),
                date_indexes: true,
                fk_indexes: true,
            },
        )
        .expect("load fixture");
        // Default pool: its worker count is the machine's cores.
        let runner = JobRunner::new(cluster, ExecutorConfig::default());
        group.bench_function(format!("queue_depth_{queue_depth}"), |b| {
            b.iter(|| black_box(runner.run(&job).unwrap().count))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queue_depth);
criterion_main!(benches);
