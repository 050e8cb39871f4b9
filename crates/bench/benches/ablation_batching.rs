//! Ablation: owner-coalesced batched dereference.
//!
//! Runs the same join job on a deliberately *remote-heavy* configuration —
//! producer routing on a 4-node cluster (≈¾ of FK-hop dereferences cross
//! nodes) under an RTT-dominant latency model — with batching off vs. on
//! at several batch bounds. Unbatched, every remote pointer pays its own
//! fabric RTT; coalesced, a batch of n pays one RTT + n× device time, so
//! the wall-clock gap here is precisely the amortized-RTT win the
//! pop-time coalescing buys.
//!
//! Besides the timed criterion runs, the bench measures each config's
//! throughput and RTT-sleep counts outside the timed region and writes
//! them to `BENCH_smpe.json` at the workspace root (the committed file is
//! the tracked baseline; CI regenerates and gates on it). Sanity asserts:
//! all configs agree on the answer, batching strictly reduces RTT sleeps,
//! and the remote-heavy batched wall is at least 2× faster than unbatched.

use criterion::{criterion_group, criterion_main, Criterion};
use rede_common::Value;
use rede_core::exec::{Batching, ExecutorConfig, JobRunner, RoutingPolicy};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::{
    BtreeRangeDereferencer, DelimitedInterpreter, FieldType, IndexEntryReferencer,
    IndexLookupDereferencer, InterpretReferencer, LookupDereferencer,
};
use rede_storage::{FileSpec, IndexSpec, IoModel, Partitioning, Record, SimCluster};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const PARTS: i64 = 400;
const LINES_PER_PART: i64 = 3;
const POOL: usize = 32;

/// The window-sweep fixture: a 128-node fabric, the paper's cluster scale.
const FABRIC_NODES: usize = 128;
const FABRIC_PARTS: i64 = 1280;

/// RTT-dominant latency model: device time is tens of µs, the fabric RTT
/// half a millisecond. `hdd_like` is the opposite regime (RTT/local ≈ 0.3,
/// seek-dominated), where batching can only win modestly; this is the
/// disaggregated-storage shape where per-pointer RTTs dominate and
/// coalescing pays directly.
fn remote_heavy_io() -> IoModel {
    IoModel {
        local_point_read: Duration::from_micros(20),
        remote_point_read: Duration::from_micros(520),
        scan_per_record: Duration::ZERO,
        index_lookup: Duration::from_micros(10),
        page_fault: Duration::from_micros(20),
        wal_fsync: Duration::ZERO,
        queue_depth: 1008,
        wire_window: 16,
    }
}

/// Fabric-saturation latency model for the 128-node sweep: device time is
/// single-digit µs, the round trip fifty milliseconds (a WAN-ish
/// disaggregated fabric). A thread that waits its round trip inline pins
/// itself for the duration, so a 32-thread pool doing that could keep at
/// most 32 in the air; the event-driven fabric is bounded by nodes ×
/// window instead. The RTT is deliberately huge relative to per-dispatch CPU
/// cost so the sweep measures the *architecture*, not the host's ability
/// to context-switch 160 simulator threads.
fn fabric_heavy_io() -> IoModel {
    IoModel {
        local_point_read: Duration::from_micros(5),
        remote_point_read: Duration::from_millis(50),
        scan_per_record: Duration::ZERO,
        index_lookup: Duration::from_micros(2),
        page_fault: Duration::from_micros(5),
        wal_fsync: Duration::ZERO,
        queue_depth: 1008,
        wire_window: 16,
    }
}

/// Same shape as the batching-equivalence fixture: `part` (local
/// retailprice index) joined to `lineitem` (global FK index), with the FK
/// hop crossing partitions.
fn fixture_with(nodes: usize, parts: i64, partitions: usize, io: IoModel) -> SimCluster {
    let c = SimCluster::builder()
        .nodes(nodes)
        .io_model(io)
        .build()
        .unwrap();
    let part = c
        .create_file(FileSpec::new("part", Partitioning::hash(partitions)))
        .unwrap();
    for i in 0..parts {
        part.insert(Value::Int(i), Record::from_text(&format!("{i}|{}", i * 10)))
            .unwrap();
    }
    let lineitem = c
        .create_file(FileSpec::new("lineitem", Partitioning::hash(partitions)))
        .unwrap();
    let mut order = 0i64;
    for p in 0..parts {
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

fn fixture() -> SimCluster {
    fixture_with(4, PARTS, 8, remote_heavy_io())
}

fn join_job_with(parts: i64) -> Job {
    Job::builder("part-lineitem-join")
        .seed(SeedInput::Range {
            file: "part.p_retailprice".into(),
            lo: Value::Int(0),
            hi: Value::Int(parts * 10),
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

fn join_job() -> Job {
    join_job_with(PARTS)
}

/// Measured numbers for one batching config, averaged over `runs`.
struct ConfigPoint {
    name: &'static str,
    max_batch: usize,
    /// Fabric window (per-node in-flight bound).
    window: usize,
    wall: Duration,
    count: u64,
    pointers: u64,
    remote_rtts: u64,
    batches_issued: u64,
    batched_reads: u64,
    mean_batch_size: f64,
    /// Peak concurrent remote round trips in the air (bounded by nodes ×
    /// window, not by the pool).
    inflight_peak: u64,
    fabric_completions: u64,
    window_stalls: u64,
}

impl ConfigPoint {
    /// Pointer dereferences per second of job wall-clock.
    fn throughput(&self) -> f64 {
        self.pointers as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn measure(
    runner: &JobRunner,
    job: &Job,
    name: &'static str,
    max_batch: usize,
    window: usize,
) -> ConfigPoint {
    const RUNS: u32 = 3;
    let mut wall = Duration::ZERO;
    let mut last = None;
    for _ in 0..RUNS {
        let result = runner.run(job).unwrap();
        wall += result.wall;
        last = Some(result);
    }
    let result = last.unwrap();
    ConfigPoint {
        name,
        max_batch,
        window,
        wall: wall / RUNS,
        count: result.count,
        pointers: result.profile.logical_point_reads(),
        remote_rtts: result.metrics.remote_rtts,
        batches_issued: result.metrics.batches_issued,
        batched_reads: result.metrics.batched_reads,
        mean_batch_size: result.metrics.mean_batch_size(),
        inflight_peak: result.metrics.inflight_peak,
        fabric_completions: result.metrics.fabric_completions,
        window_stalls: result.metrics.window_stalls,
    }
}

/// Render the measured points as this bench's section of the committed
/// `BENCH_smpe.json` baseline (other benches' sections are preserved).
fn write_baseline(points: &[ConfigPoint]) {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"config\": \"{}\",\n",
                    "        \"max_batch\": {},\n",
                    "        \"fabric_window\": {},\n",
                    "        \"wall_ms\": {:.2},\n",
                    "        \"output_rows\": {},\n",
                    "        \"point_dereferences\": {},\n",
                    "        \"throughput_pointers_per_sec\": {:.0},\n",
                    "        \"remote_rtt_sleeps\": {},\n",
                    "        \"batches_issued\": {},\n",
                    "        \"batched_reads\": {},\n",
                    "        \"mean_batch_size\": {:.2},\n",
                    "        \"inflight_peak\": {},\n",
                    "        \"fabric_completions\": {},\n",
                    "        \"window_stalls\": {}\n",
                    "      }}"
                ),
                p.name,
                p.max_batch,
                p.window,
                p.wall.as_secs_f64() * 1e3,
                p.count,
                p.pointers,
                p.throughput(),
                p.remote_rtts,
                p.batches_issued,
                p.batched_reads,
                p.mean_batch_size,
                p.inflight_peak,
                p.fabric_completions,
                p.window_stalls,
            )
        })
        .collect();
    let body = format!(
        concat!(
            "{{\n",
            "    \"workload\": \"part⋈lineitem join, producer routing, pool {}; ",
            "batching rows: 4 nodes, RTT-dominant io (local 20µs / remote 520µs); ",
            "fabric_* rows: {} nodes, fabric-saturation io (local 5µs / remote 50ms), ",
            "window sweep K in {{1,4,16,64}}\",\n",
            "    \"configs\": [\n{}\n    ]\n",
            "  }}"
        ),
        POOL,
        FABRIC_NODES,
        rows.join(",\n")
    );
    rede_bench::write_baseline_section("ablation_batching", &body);
}

fn bench_batching(c: &mut Criterion) {
    let cluster = fixture();
    let job = join_job();
    let runner_with = |batching| {
        JobRunner::new(
            cluster.clone(),
            ExecutorConfig::smpe(POOL)
                .with_routing(RoutingPolicy::Producer)
                .with_batching(batching),
        )
    };
    let configs: Vec<(&'static str, Batching)> = vec![
        ("unbatched", Batching::off()),
        ("batched_7", Batching::max(7)),
        ("batched_default", Batching::default()),
    ];

    // Sanity + baseline measurement outside the timed region.
    let mut points: Vec<ConfigPoint> = configs
        .iter()
        .map(|(name, batching)| {
            measure(
                &runner_with(*batching),
                &job,
                name,
                batching.max_batch,
                remote_heavy_io().wire_window,
            )
        })
        .collect();
    let off = &points[0];
    assert!(
        off.remote_rtts >= off.pointers / 2,
        "workload must be remote-heavy: {} RTTs for {} pointers",
        off.remote_rtts,
        off.pointers
    );
    for p in &points[1..] {
        assert_eq!(
            p.count, off.count,
            "[{}] batching changed the answer",
            p.name
        );
        assert!(
            p.batches_issued > 0 && p.mean_batch_size > 1.0,
            "[{}] pointer flood must form batches",
            p.name
        );
        assert!(
            p.remote_rtts < off.remote_rtts,
            "[{}] batching must amortize RTT sleeps: {} vs {}",
            p.name,
            p.remote_rtts,
            off.remote_rtts
        );
    }
    // The acceptance gate: on the remote-heavy config, coalescing at the
    // default bound cuts remote point-read wall time at least 2×. The
    // sleeps are real and hundreds of µs each, so the margin is wide.
    let best = points.last().unwrap();
    assert!(
        off.wall >= best.wall * 2,
        "default batching must be ≥2× faster remote-heavy: {:?} vs {:?}",
        off.wall,
        best.wall
    );
    // ── Fabric window sweep ────────────────────────────────────────────
    // The headline of the event-driven fabric: a 32-thread pool driving a
    // 128-node cluster whose round trips dwarf device time. Waiting them
    // inline would cap the pool at 32 round trips in the air (each
    // occupies the thread that issued it); with per-node windows the same
    // pool saturates the whole fabric, so peak in-flight concurrency and
    // throughput both climb with K while every answer stays
    // byte-identical. K = 1 — one outstanding flight per node — is the
    // serial baseline. The window is the network's, so each K gets its own
    // cluster.
    let fabric_job = join_job_with(FABRIC_PARTS);
    let fabric_runner = |window: usize| {
        let io = IoModel {
            wire_window: window,
            ..fabric_heavy_io()
        };
        JobRunner::new(
            fixture_with(FABRIC_NODES, FABRIC_PARTS, FABRIC_NODES, io),
            ExecutorConfig::smpe(POOL)
                .with_routing(RoutingPolicy::Producer)
                .with_batching(Batching::default()),
        )
    };
    let sweep: Vec<(&'static str, usize)> = vec![
        ("fabric_k1", 1),
        ("fabric_k4", 4),
        ("fabric_k16", 16),
        ("fabric_k64", 64),
    ];
    let fabric_points: Vec<ConfigPoint> = sweep
        .iter()
        .map(|(name, window)| {
            measure(
                &fabric_runner(*window),
                &fabric_job,
                name,
                Batching::default().max_batch,
                *window,
            )
        })
        .collect();
    let serial = &fabric_points[0];
    // Batching is on for the whole sweep, so RTT sleeps count per
    // coalesced owner group; remote-dominance shows in where the *reads*
    // landed (127/128 partitions are foreign under producer routing).
    assert!(
        serial.remote_rtts > FABRIC_NODES as u64,
        "the fabric sweep must be remote-dominant: only {} remote groups",
        serial.remote_rtts,
    );
    for p in &fabric_points {
        assert_eq!(
            p.count, serial.count,
            "[{}] the window changed the answer",
            p.name
        );
        assert!(
            p.fabric_completions > 0,
            "[{}] remote round trips must ride the fabric",
            p.name
        );
    }
    points.extend(fabric_points);

    for p in &points {
        eprintln!(
            "[ablation/batching] {:>15}: wall {:>8.2?}  {:>7.0} ptrs/s  {:>5} RTT sleeps  {:>4} batches (mean {:.1})  inflight_peak {:>4}  completions {:>5}  stalls {:>5}",
            p.name,
            p.wall,
            p.throughput(),
            p.remote_rtts,
            p.batches_issued,
            p.mean_batch_size,
            p.inflight_peak,
            p.fabric_completions,
            p.window_stalls,
        );
    }
    let serial = points.iter().find(|p| p.name == "fabric_k1").unwrap();
    // Acceptance gates: any window K ≥ 4 must (a) hold more remote round
    // trips in the air than a pool waiting them inline ever could, and
    // (b) not lose throughput to the one-flight-per-node baseline.
    for p in points
        .iter()
        .filter(|p| p.name.starts_with("fabric_") && p.window >= 4)
    {
        assert!(
            p.inflight_peak > POOL as u64,
            "[{}] windowed flight concurrency must exceed the {POOL}-thread \
             pool: {}",
            p.name,
            p.inflight_peak,
        );
        assert!(
            p.throughput() >= serial.throughput(),
            "[{}] a wider window must not be slower than K=1: \
             {:.0} vs {:.0} ptrs/s",
            p.name,
            p.throughput(),
            serial.throughput()
        );
    }
    write_baseline(&points);

    let mut group = c.benchmark_group("ablation/batching");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for (name, batching) in configs {
        let runner = runner_with(batching);
        group.bench_function(name, |bch| {
            bch.iter(|| black_box(runner.run(&job).unwrap().count))
        });
    }
    for (name, window) in [("fabric_k1", 1usize), ("fabric_k16", 16)] {
        let runner = fabric_runner(window);
        group.bench_function(name, |bch| {
            bch.iter(|| black_box(runner.run(&fabric_job).unwrap().count))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batching);
criterion_main!(benches);
