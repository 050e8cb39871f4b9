//! Ablation: SMPE pointer-routing policy.
//!
//! Runs the same Q5' job with non-broadcast pointer tasks enqueued on the
//! node owning the target partition (default, `RoutingPolicy::Owner`) vs.
//! on the node that produced the pointer (`RoutingPolicy::Producer`).
//! The injected latency model charges cross-node reads extra, so the gap
//! here is precisely the remote-read penalty the owner policy removes. The
//! measured runs double as a check that both policies agree on the answer.

use criterion::{criterion_group, criterion_main, Criterion};
use rede_baseline::{Engine, EngineConfig, ShuffleLocality};
use rede_bench::{Fig7Config, Fig7Fixture};
use rede_core::exec::{ExecutorConfig, JobRunner, RoutingPolicy};
use rede_tpch::{q5_prime_job, q5_prime_plan, Q5Params};
use std::hint::black_box;
use std::time::Duration;

fn bench_routing(c: &mut Criterion) {
    let fixture = Fig7Fixture::build(Fig7Config {
        nodes: 4,
        partitions: 16,
        scale_factor: 0.002,
        io_scale: 0.05, // keep the local/remote latency gap, scaled down
        smpe_threads: 128,
        cores_per_node: 8,
        seed: 42,
        ..Fig7Config::default()
    })
    .expect("load fixture");
    let job = q5_prime_job(&Q5Params::with_selectivity(3e-2)).unwrap();

    let owner = JobRunner::new(
        fixture.cluster.clone(),
        ExecutorConfig::smpe(128).with_routing(RoutingPolicy::Owner),
    );
    let producer = JobRunner::new(
        fixture.cluster.clone(),
        ExecutorConfig::smpe(128).with_routing(RoutingPolicy::Producer),
    );

    // Sanity outside the timed region: same answer, and the owner policy
    // actually removes remote reads on this workload.
    let a = owner.run(&job).unwrap();
    let b = producer.run(&job).unwrap();
    assert_eq!(a.count, b.count, "routing changed the answer");
    assert!(a.profile.remote_point_reads() < b.profile.remote_point_reads());
    eprintln!(
        "[ablation/routing] owner: {} local / {} remote; producer: {} local / {} remote",
        a.profile.local_point_reads(),
        a.profile.remote_point_reads(),
        b.profile.local_point_reads(),
        b.profile.remote_point_reads()
    );

    let mut group = c.benchmark_group("ablation/routing");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    group.bench_function("owner_default", |bch| {
        bch.iter(|| black_box(owner.run(&job).unwrap().count))
    });
    group.bench_function("producer", |bch| {
        bch.iter(|| black_box(producer.run(&job).unwrap().count))
    });
    group.finish();

    // The baseline-engine analogue of pointer routing: shuffle locality.
    // A placement-blind charged shuffle pays one RTT per cross-node scan
    // batch; locality-aware workers drain their own node first. Answers
    // must agree with the uncharged model; only the cost moves.
    let plan = q5_prime_plan(&Q5Params::with_selectivity(3e-2));
    let engine_with = |shuffle| {
        Engine::new(
            fixture.cluster.clone(),
            EngineConfig {
                cores_per_node: 8,
                join_fanout: 32,
                shuffle,
            },
        )
    };
    let implicit_rows = engine_with(ShuffleLocality::Implicit)
        .execute(&plan)
        .unwrap()
        .rows
        .len();
    let mut group = c.benchmark_group("ablation/shuffle_locality");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for shuffle in [ShuffleLocality::Remote, ShuffleLocality::Local] {
        let engine = engine_with(shuffle);
        let result = engine.execute(&plan).unwrap();
        assert_eq!(
            result.rows.len(),
            implicit_rows,
            "shuffle locality changed the answer"
        );
        eprintln!(
            "[ablation/shuffle] {shuffle:?}: {} shuffle RTTs",
            result.metrics.remote_rtts
        );
        let name = format!("{shuffle:?}").to_lowercase();
        group.bench_function(&name, |bch| {
            bch.iter(|| black_box(engine.execute(&plan).unwrap().rows.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
