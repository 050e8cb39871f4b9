//! Scheduler concurrency stress: many simultaneous tenants on one
//! `HarborScheduler` must get byte-identical answers to serial runs, and
//! a cancelled tenant must return every resource it held — whether the
//! cancel arrives on the raw `JobHandle` or through the gate's
//! cursor-close path.

use lakeharbor::prelude::*;
use lakeharbor::storage::CostModel;
use rede_tpch::{load_tpch, q5_prime_job, q6_job, LoadOptions, Q5Params, Q6Params, TpchGenerator};
use std::time::{Duration, Instant};

fn fixture(io: IoModel) -> SimCluster {
    let cluster = SimCluster::builder().nodes(4).io_model(io).build().unwrap();
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

/// Sorted raw bytes of a result's records — the strongest possible
/// equality: not just the same count, the same payloads.
fn sorted_bytes(result: &JobResult) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = result.records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

#[test]
fn twelve_concurrent_jobs_match_serial_runs_byte_for_byte() {
    let cluster = fixture(IoModel::zero());

    // The workload mix: three different jobs (two Q5' selectivities + Q6).
    let jobs = [
        q5_prime_job(&Q5Params::with_selectivity(3e-2)).unwrap(),
        q5_prime_job(&Q5Params::with_selectivity(1e-1)).unwrap(),
        q6_job(&Q6Params::standard()).unwrap(),
    ];

    // Serial ground truth, one job at a time on a plain runner.
    let serial_runner = JobRunner::new(cluster.clone(), ExecutorConfig::smpe(64).collecting());
    let expected: Vec<Vec<Vec<u8>>> = jobs
        .iter()
        .map(|job| sorted_bytes(&serial_runner.run(job).unwrap()))
        .collect();
    assert!(
        expected.iter().all(|e| !e.is_empty()),
        "fixture must select rows for every job"
    );
    drop(serial_runner);

    // 12 clients (4 per job kind, mixed weights) all in flight at once.
    let scheduler = HarborScheduler::with_defaults(cluster);
    let handles: Vec<(usize, JobHandle)> = (0..12)
        .map(|client| {
            let kind = client % jobs.len();
            let opts = SubmitOptions::new()
                .weight(1 + (client % 3) as u32)
                .collecting()
                .tenant(format!("tenant-{client}"));
            (kind, scheduler.submit_with(&jobs[kind], opts).unwrap())
        })
        .collect();

    for (kind, handle) in handles {
        let result = handle.wait().unwrap();
        assert_eq!(
            sorted_bytes(&result),
            expected[kind],
            "job kind {kind} diverged from its serial run under concurrency"
        );
    }
    let stats = scheduler.stats();
    assert_eq!(stats.completed_jobs, 12);
    assert_eq!(stats.active_jobs, 0);
    assert!(
        stats.queue_depths.iter().all(|&d| d == 0),
        "queues must be drained: {:?}",
        stats.queue_depths
    );
}

/// The modeled floor of `job` on a fixture under `io`: the [`CostModel`]
/// over the access counts of its run on a zero-latency twin, with every
/// device-queue slot of every node busy. No executor, however fast,
/// finishes the job sooner.
fn modeled_floor(job: &Job, io: &IoModel) -> Duration {
    let twin = JobRunner::new(fixture(IoModel::zero()), ExecutorConfig::smpe(32));
    let counts = twin.run(job).unwrap().metrics;
    CostModel {
        nodes: 4,
        point_concurrency_per_node: io.queue_depth,
        scan_streams_per_node: io.queue_depth,
    }
    .model(io, &counts)
    .total()
}

#[test]
fn cancelled_tenant_returns_its_iops_permits_and_pool_slots() {
    // Real injected latency so the victim job is mid-I/O when cancelled:
    // the cancel waits until the victim holds device slots, and the job's
    // modeled floor is far longer than any stall between that and the
    // cancel.
    let victim_job = q5_prime_job(&Q5Params::with_selectivity(3e-1)).unwrap();
    let io = IoModel::hdd_like(400.0);
    let floor = modeled_floor(&victim_job, &io);
    assert!(
        floor >= Duration::from_millis(200),
        "the victim's modeled floor {floor:?} must be at least 200 ms"
    );
    let cluster = fixture(io);
    let permits_at_rest = cluster.available_iops_permits();
    let scheduler = HarborScheduler::new(
        cluster.clone(),
        SchedulerConfig {
            pool_threads: 32,
            ..SchedulerConfig::default()
        },
    );

    let victim = scheduler
        .submit_with(&victim_job, SubmitOptions::new().tenant("victim"))
        .unwrap();
    let survivor = scheduler
        .submit_with(
            &q6_job(&Q6Params::standard()).unwrap(),
            SubmitOptions::new().collecting().tenant("survivor"),
        )
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while victim.permits_held() == 0 {
        assert!(
            Instant::now() < deadline,
            "the victim never took a device slot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    victim.cancel();
    assert!(matches!(
        victim.wait().unwrap_err(),
        RedeError::Cancelled(_)
    ));

    // The survivor is untouched by its neighbour's cancellation.
    let survivor_result = survivor.wait().unwrap();
    assert!(survivor_result.count > 0);

    // Everything the victim held flows back: its scope's permit count hits
    // zero, its pool slots free, and the cluster's IOPS limiters return to
    // their at-rest capacity.
    let deadline = Instant::now() + Duration::from_secs(10);
    while victim.permits_held() != 0
        || victim.pool_threads_held() != 0
        || cluster.available_iops_permits() != permits_at_rest
    {
        assert!(
            Instant::now() < deadline,
            "cancelled tenant still holds resources: permits={} pool={} cluster={:?}",
            victim.permits_held(),
            victim.pool_threads_held(),
            cluster.available_iops_permits()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn gate_cursor_close_returns_permits_pool_slots_and_snapshots() {
    // Same resource-return contract as the raw-handle test above, but
    // exercised through the front door: the cancel is a cursor close, and
    // the cursor's pinned snapshot must unpin along with the permits.
    let cluster = fixture(IoModel::hdd_like(0.3));
    let permits_at_rest = cluster.available_iops_permits();
    let gate = HarborGate::with_config(
        HarborScheduler::new(
            cluster.clone(),
            SchedulerConfig {
                pool_threads: 32,
                ..SchedulerConfig::default()
            },
        ),
        GateConfig {
            cursor_buffer: 16,
            ..GateConfig::default()
        },
    );

    let victim_session = gate.open_session("victim").unwrap();
    let victim_cursor = gate
        .open_cursor(
            victim_session,
            &q5_prime_job(&Q5Params::with_selectivity(3e-1)).unwrap(),
        )
        .unwrap();
    let survivor_session = gate.open_session("survivor").unwrap();
    let survivor_cursor = gate
        .open_cursor(survivor_session, &q6_job(&Q6Params::standard()).unwrap())
        .unwrap();

    // Catch the victim mid-I/O, then abandon it.
    std::thread::sleep(Duration::from_millis(25));
    gate.close_cursor(victim_cursor).unwrap();
    gate.close_session(victim_session).unwrap();

    // The survivor's stream is untouched by its neighbour's close: page it
    // to completion and check it actually produced rows.
    let mut survivor_rows = 0usize;
    loop {
        let page = gate.fetch(survivor_cursor, 64).unwrap();
        survivor_rows += page.records.len();
        if page.done {
            break;
        }
    }
    assert!(survivor_rows > 0);
    gate.close_session(survivor_session).unwrap();

    // Everything flows back: the cancelled job's in-flight I/O retires,
    // permits return to at-rest, and both cursors' snapshots unpin.
    let stats = gate.stats();
    assert_eq!(stats.sessions, 0);
    assert_eq!(stats.cursors, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while gate.stats().scheduler.active_jobs != 0
        || cluster.available_iops_permits() != permits_at_rest
        || cluster.metrics().snapshots_active() != 0
    {
        assert!(
            Instant::now() < deadline,
            "gate-closed tenant still holds resources: active_jobs={} cluster={:?} snapshots={}",
            gate.stats().scheduler.active_jobs,
            cluster.available_iops_permits(),
            cluster.metrics().snapshots_active()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
