//! Fabric equivalence: the in-flight window of the event-driven
//! completion layer must change *timing* only — never answers, counters,
//! or resource accounting.
//!
//! The same TPC-H Q5'/Q6 jobs run against an RTT-dominant cluster once per
//! fabric window K ∈ {1, 8, 64}. For every window, routing policy, and
//! fault seed the answers must be byte-identical to the partitioned
//! executor's (an independent implementation: one worker per node walking
//! the stages depth-first, no queues, no fabric), the read-conservation
//! counters must be identical across K, and every IOPS permit must come
//! back. A separate test cancels a job while flights are provably in the
//! air and asserts that every fabric slot, permit, and pool thread flows
//! back. The straggler pin (`a_straggler_pointer_still_runs_under_batching`)
//! lives here too: a pointer delayed behind its batchmates still runs,
//! whatever the window.

use lakeharbor::prelude::*;
use lakeharbor::storage::{IndexEntry, IndexSpec};
use rede_core::job::SeedInput;
use rede_tpch::{load_tpch, q5_prime_job, q6_job, LoadOptions, Q5Params, Q6Params, TpchGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency model where the network round trip dwarfs device time: the
/// regime the fabric exists for. 5 ms RTT on a 2 µs local read — also
/// longer than an unoptimized build takes to run a batch, so a node's
/// successive remote batches are still in the air together and a window
/// of 1 has something to stall.
fn rtt_heavy_io() -> IoModel {
    IoModel {
        local_point_read: Duration::from_micros(2),
        remote_point_read: Duration::from_micros(5002),
        scan_per_record: Duration::ZERO,
        index_lookup: Duration::from_micros(1),
        page_fault: Duration::from_micros(2),
        wal_fsync: Duration::ZERO,
        queue_depth: 1008,
        wire_window: 16,
    }
}

fn fixture(io: IoModel, faults: Option<FaultPlan>) -> SimCluster {
    let mut builder = SimCluster::builder()
        .nodes(4)
        .io_model(io)
        .record_cache(64 * 1024);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let cluster = builder.build().unwrap();
    load_tpch(
        &cluster,
        TpchGenerator::new(0.002, 7),
        &LoadOptions {
            partitions: Some(8),
            date_indexes: true,
            fk_indexes: true,
        },
    )
    .unwrap();
    cluster
}

fn sorted_bytes(result: &JobResult) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = result.records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

fn jobs() -> [Job; 2] {
    [
        q5_prime_job(&Q5Params::with_selectivity(3e-2)).unwrap(),
        q6_job(&Q6Params::standard()).unwrap(),
    ]
}

/// Run Q5' and Q6 through a scheduler with the given routing, asserting
/// permit conservation around the whole run.
fn run_all(cluster: &SimCluster, routing: RoutingPolicy) -> Vec<JobResult> {
    let permits_at_rest = cluster.available_iops_permits();
    let sched = HarborScheduler::new(
        cluster.clone(),
        SchedulerConfig {
            pool_threads: 32,
            routing,
            ..SchedulerConfig::default()
        },
    );
    let results: Vec<JobResult> = jobs()
        .iter()
        .map(|job| {
            sched
                .submit_with(job, SubmitOptions::new().collecting())
                .unwrap()
                .wait()
                .unwrap()
        })
        .collect();
    assert_eq!(
        sched.stats().fabric_in_flight,
        0,
        "flights must all land by the time their jobs complete"
    );
    assert_eq!(
        cluster.available_iops_permits(),
        permits_at_rest,
        "a run leaked or over-released IOPS permits"
    );
    results
}

/// The reference answers: the partitioned executor on a perfect,
/// latency-free copy of the fixture (it has no recovery machinery, and
/// neither latency nor recovered faults may change an answer).
fn partitioned_reference() -> Vec<JobResult> {
    let runner = JobRunner::new(
        fixture(IoModel::zero(), None),
        ExecutorConfig::partitioned().collecting(),
    );
    jobs().iter().map(|job| runner.run(job).unwrap()).collect()
}

/// What every SMPE run must preserve against the partitioned reference.
fn assert_equivalent(smpe: &[JobResult], reference: &[JobResult], label: &str) {
    for (f, r) in smpe.iter().zip(reference) {
        assert_eq!(
            sorted_bytes(f),
            sorted_bytes(r),
            "{label}: the answer differs from the partitioned executor's"
        );
        // Logical-resolve conservation: every record fetch is exactly one
        // cache hit or one successful charged read, wherever the round
        // trip was waited. The hit/read split may legally shift with
        // timing (cache inserts land at submit time), but the sum is the
        // job's logical point-read count and must be exact.
        assert_eq!(
            f.metrics.point_reads() + f.metrics.cache_hits,
            r.metrics.point_reads() + r.metrics.cache_hits,
            "{label}: executor leaked into the read-conservation counters"
        );
        for n in &f.profile.nodes {
            assert_eq!(
                n.io.local + n.io.remote,
                n.io.cache_misses,
                "{label}: node {}: misses and storage reads must pair",
                n.node
            );
        }
        // Every injected fault fails exactly one item once, and that item
        // is retried exactly once for it.
        assert_eq!(f.metrics.retries, f.metrics.faults_injected, "{label}");
    }
}

#[test]
fn window_grid_matches_the_partitioned_executor() {
    let reference = partitioned_reference();
    for routing in [RoutingPolicy::Producer, RoutingPolicy::Owner] {
        for fault_seed in [None, Some(7u64)] {
            let plan = fault_seed.map(|s| FaultPlan::transient(s, 0.1).with_probe_fault_rate(0.1));
            // (faults injected, remote round trips) per job, pinned by
            // the first window and required of every other. Round trips
            // are counted per remote *group*, so under producer routing
            // they follow how the pops happened to coalesce — only
            // owner routing (where nothing coalescible goes remote) pins
            // them across runs.
            let mut across_k: Option<Vec<(u64, u64)>> = None;
            for window in [1usize, 8, 64] {
                let label = format!("routing={routing:?} faults={fault_seed:?} K={window}");
                let io = IoModel {
                    wire_window: window,
                    ..rtt_heavy_io()
                };
                let cluster = fixture(io, plan.clone());
                let results = run_all(&cluster, routing);
                assert_equivalent(&results, &reference, &label);
                let counters: Vec<(u64, u64)> = results
                    .iter()
                    .map(|r| match routing {
                        RoutingPolicy::Owner => (r.metrics.faults_injected, r.metrics.remote_rtts),
                        _ => (r.metrics.faults_injected, 0),
                    })
                    .collect();
                match &across_k {
                    None => across_k = Some(counters),
                    Some(first) => assert_eq!(
                        first, &counters,
                        "{label}: the window moved a conservation counter"
                    ),
                }
                // Remote dereferences really flew through the fabric
                // (producer routing guarantees remote reads here).
                let completions: u64 = results.iter().map(|r| r.metrics.fabric_completions).sum();
                let remote: u64 = results.iter().map(|r| r.metrics.remote_rtts).sum();
                if matches!(routing, RoutingPolicy::Producer) {
                    assert!(remote > 0, "{label}: fixture must exercise remote reads");
                }
                if remote > 0 {
                    assert!(
                        completions > 0,
                        "{label}: remote round trips must ride the fabric"
                    );
                }
                // A K=1 window on a batched workload must report stalls;
                // they are the window doing its job, not an error.
                if window == 1 && completions > 1 {
                    let stalls: u64 = results.iter().map(|r| r.metrics.window_stalls).sum();
                    assert!(stalls > 0, "{label}: a window of 1 cannot avoid stalling");
                }
            }
        }
    }
}

#[test]
fn cancellation_mid_flight_returns_every_slot_permit_and_thread() {
    // A fat RTT so flights stay in the air long enough to observe, and a
    // small window so the submit side also queues behind it.
    let io = IoModel {
        remote_point_read: Duration::from_millis(20),
        wire_window: 2,
        ..rtt_heavy_io()
    };
    let cluster = fixture(io, None);
    let permits_at_rest = cluster.available_iops_permits();
    let sched = HarborScheduler::new(
        cluster.clone(),
        SchedulerConfig {
            pool_threads: 32,
            routing: RoutingPolicy::Producer,
            ..SchedulerConfig::default()
        },
    );
    let handle = sched
        .submit_with(
            &q5_prime_job(&Q5Params::with_selectivity(3e-1)).unwrap(),
            SubmitOptions::new(),
        )
        .unwrap();
    // Wait until remote batches are provably in the air, then cancel.
    let poll_deadline = Instant::now() + Duration::from_secs(10);
    while sched.stats().fabric_in_flight == 0 {
        assert!(
            Instant::now() < poll_deadline,
            "job never put a flight in the air"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    handle.cancel();
    assert!(matches!(
        handle.wait().unwrap_err(),
        RedeError::Cancelled(_)
    ));
    // Every resource must flow back: fabric slots (armed and
    // window-queued), the in-flight gauge, IOPS permits, pool threads.
    let poll_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let clean = sched.stats().fabric_in_flight == 0
            && cluster.metrics().get(Counter::flights_in_flight) == 0
            && handle.permits_held() == 0
            && handle.pool_threads_held() == 0
            && cluster.available_iops_permits() == permits_at_rest;
        if clean {
            break;
        }
        assert!(
            Instant::now() < poll_deadline,
            "cancelled job still holds resources: fabric={} gauge={} permits={} pool={}",
            sched.stats().fabric_in_flight,
            cluster.metrics().get(Counter::flights_in_flight),
            handle.permits_held(),
            handle.pool_threads_held(),
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The substrate is unharmed: the same scheduler still answers.
    let ok = sched
        .submit(&q6_job(&Q6Params::standard()).unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert!(ok.count > 0);
}

/// Referencer that delays one specific pointer — the "single straggler"
/// of the straggler pin below.
struct StragglerRef {
    inner: IndexEntryReferencer,
    slow_key: i64,
    delay: Duration,
}

impl Referencer for StragglerRef {
    fn reference(
        &self,
        record: &Record,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Pointer),
    ) -> Result<()> {
        if let Ok(entry) = IndexEntry::from_record(record) {
            if entry.key == Value::Int(self.slow_key) {
                std::thread::sleep(self.delay);
            }
        }
        self.inner.reference(record, ctx, emit)
    }
}

/// Tiny two-node fixture: 8 base records, a global index whose entries
/// feed a referencer that delays exactly one pointer.
fn straggler_fixture(io: IoModel) -> SimCluster {
    let c = SimCluster::builder().nodes(2).io_model(io).build().unwrap();
    let f = c
        .create_file(FileSpec::new("base", Partitioning::hash(2)))
        .unwrap();
    let ix = c.create_index(IndexSpec::global("ix", "base", 2)).unwrap();
    for k in 0..8i64 {
        f.insert(Value::Int(k), Record::from_text(&format!("rec-{k}")))
            .unwrap();
        ix.insert(
            Value::Int(k),
            IndexEntry::new(Value::Int(k), Value::Int(k)).to_record(),
        )
        .unwrap();
    }
    c
}

fn straggler_job(slow_key: i64, delay: Duration) -> Job {
    Job::builder("straggler")
        .seed(SeedInput::Range {
            file: "ix".into(),
            lo: Value::Int(0),
            hi: Value::Int(7),
        })
        .dereference("scan-ix", Arc::new(BtreeRangeDereferencer::new("ix")))
        .reference(
            "entry->base",
            Arc::new(StragglerRef {
                inner: IndexEntryReferencer::new("base"),
                slow_key,
                delay,
            }),
        )
        .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap()
}

/// A pointer delayed far behind its batchmates still runs under batching:
/// the batch its group had queued when the lead was popped goes without
/// it, the straggler runs on its own, all eight records come out and the
/// job terminates promptly — with the default wire window and a narrow
/// one. Losing the lead, a taken batchmate or the straggler would surface
/// as missing records or a hang.
#[test]
fn a_straggler_pointer_still_runs_under_batching() {
    let narrow = IoModel {
        wire_window: 4,
        ..IoModel::zero()
    };
    for (io, delay) in [(IoModel::zero(), 200), (narrow, 80)] {
        let runner = JobRunner::new(
            straggler_fixture(io),
            ExecutorConfig::smpe(8)
                .collecting()
                .with_batching(Batching::max(8)),
        );
        let start = Instant::now();
        let result = runner
            .run(&straggler_job(6, Duration::from_millis(delay)))
            .unwrap();
        assert_eq!(result.count, 8, "a batch dropped the straggler or itself");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a straggler must not stall its job"
        );
    }
}
