//! Chaos recovery: deterministic fault injection under the scheduler must
//! never change an answer.
//!
//! Two identically loaded clusters — one perfect, one with a seeded
//! [`FaultPlan`] — run the same TPC-H Q5'/Q6 jobs through a
//! `HarborScheduler`. For every fault seed and every fault shape
//! (transient read/probe failures, brown-outs, node-down windows) the
//! faulted run must produce byte-identical outputs, keep the per-node
//! read-conservation invariant intact, and report exact recovery
//! counters:
//!
//! * transient-only plans: `retries == faults_injected > 0`, nothing
//!   rerouted — every injected failure was survived by exactly one retry;
//! * node-down plans: `rerouted_reads > 0` with zero faults and zero
//!   retries — replica service is not an error path;
//! * brown-out plans: latency only, every recovery counter zero;
//! * inert plans: dropped at build time, all counters zero.

use lakeharbor::prelude::*;
use lakeharbor::storage::CostModel;
use rede_tpch::{load_tpch, q5_prime_job, q6_job, LoadOptions, Q5Params, Q6Params, TpchGenerator};
use std::time::{Duration, Instant};

/// Build and load a cluster; `faults` is the only degree of freedom, so
/// any output difference between two fixtures is the injector's doing.
fn fixture(io: IoModel, faults: Option<FaultPlan>) -> SimCluster {
    let mut builder = SimCluster::builder()
        .nodes(4)
        .io_model(io)
        // A small record cache so the chaos runs also exercise the
        // hits-bypass-the-gate path and the per-node miss pairing.
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

fn jobs() -> Vec<Job> {
    vec![
        q5_prime_job(&Q5Params::with_selectivity(3e-2)).unwrap(),
        q6_job(&Q6Params::standard()).unwrap(),
    ]
}

fn sorted_bytes(result: &JobResult) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = result.records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

/// Run every job through a scheduler on `cluster`, collecting outputs.
/// Asserts IOPS-permit conservation around the whole run: whatever the
/// fault shape did mid-batch (fault aborts between device groups,
/// replica reroutes, retries), every per-device-group permit acquired by
/// `resolve_batch`/`lookup_batch` must be back by the time the jobs have
/// all completed — permits are RAII-scoped to the device-time window and
/// never survive an abort.
fn run_all(cluster: &SimCluster) -> Vec<JobResult> {
    let permits_at_rest = cluster.available_iops_permits();
    let sched = HarborScheduler::with_defaults(cluster.clone());
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
        cluster.available_iops_permits(),
        permits_at_rest,
        "a chaos run leaked or over-released IOPS permits"
    );
    results
}

/// The invariants every faulted run must preserve against its fault-free
/// reference, whatever the plan shape.
fn assert_identical_and_conserving(faulty: &[JobResult], reference: &[JobResult]) {
    for (f, r) in faulty.iter().zip(reference) {
        assert_eq!(
            sorted_bytes(f),
            sorted_bytes(r),
            "a faulted run changed an answer"
        );
        // Logical-resolve conservation: each of the job's record fetches is
        // exactly one cache hit or one successful charged read — failed
        // attempts must leave no trace in these counters, so the total
        // matches the fault-free run exactly.
        assert_eq!(
            f.metrics.point_reads() + f.metrics.cache_hits,
            r.metrics.point_reads() + r.metrics.cache_hits,
            "faults leaked into the read-conservation counters"
        );
        // Per node: every recorded miss pairs with exactly one recorded
        // storage read, even when attempts failed in between.
        for n in &f.profile.nodes {
            assert_eq!(
                n.io.local + n.io.remote,
                n.io.cache_misses,
                "node {}: misses and storage reads must pair under faults",
                n.node
            );
        }
    }
}

#[test]
fn transient_faults_are_survived_by_exactly_one_retry_each() {
    let reference = run_all(&fixture(IoModel::zero(), None));
    for seed in [1u64, 7, 42] {
        let plan = FaultPlan::transient(seed, 0.15).with_probe_fault_rate(0.15);
        let cluster = fixture(IoModel::zero(), Some(plan));
        let results = run_all(&cluster);
        assert_identical_and_conserving(&results, &reference);
        let (mut faults, mut retries, mut rerouted) = (0, 0, 0);
        for r in &results {
            faults += r.metrics.faults_injected;
            retries += r.metrics.retries;
            rerouted += r.metrics.rerouted_reads;
        }
        assert!(faults > 0, "seed {seed}: a 15% fault rate must fire");
        assert_eq!(
            retries, faults,
            "seed {seed}: fail-once-per-site means exactly one retry per injected fault"
        );
        assert_eq!(rerouted, 0, "seed {seed}: no node was down");
    }
}

#[test]
fn down_node_reads_are_replica_served_without_any_failures() {
    let reference = run_all(&fixture(IoModel::zero(), None));
    for seed in [1u64, 7, 42] {
        // A different node down per seed, for the whole run.
        let down = (seed % 4) as usize;
        let plan = FaultPlan::new(seed).with_node_down(down, 0..u64::MAX);
        let cluster = fixture(IoModel::zero(), Some(plan));
        let results = run_all(&cluster);
        assert_identical_and_conserving(&results, &reference);
        let (mut faults, mut retries, mut rerouted) = (0, 0, 0);
        for r in &results {
            faults += r.metrics.faults_injected;
            retries += r.metrics.retries;
            rerouted += r.metrics.rerouted_reads;
        }
        assert!(
            rerouted > 0,
            "seed {seed}: node {down} owns partitions, so reads must reroute"
        );
        assert_eq!(faults, 0, "seed {seed}: replica service is not a failure");
        assert_eq!(retries, 0, "seed {seed}: replica service needs no retry");
    }
}

#[test]
fn brownouts_slow_but_never_fail_or_reroute() {
    let reference = run_all(&fixture(IoModel::zero(), None));
    let plan = FaultPlan::new(42)
        .with_brownout(1, 0..u64::MAX, 5)
        .with_brownout(3, 0..u64::MAX, 3);
    let cluster = fixture(IoModel::zero(), Some(plan));
    let results = run_all(&cluster);
    assert_identical_and_conserving(&results, &reference);
    for r in &results {
        assert_eq!(r.metrics.faults_injected, 0);
        assert_eq!(r.metrics.retries, 0);
        assert_eq!(r.metrics.rerouted_reads, 0);
    }
}

#[test]
fn everything_at_once_still_yields_identical_answers() {
    let reference = run_all(&fixture(IoModel::zero(), None));
    for seed in [1u64, 7, 42] {
        let down = (seed % 4) as usize;
        let plan = FaultPlan::transient(seed, 0.1)
            .with_probe_fault_rate(0.1)
            .with_brownout((down + 1) % 4, 0..u64::MAX, 4)
            .with_node_down(down, 0..u64::MAX);
        let cluster = fixture(IoModel::zero(), Some(plan));
        let results = run_all(&cluster);
        assert_identical_and_conserving(&results, &reference);
        let faults: u64 = results.iter().map(|r| r.metrics.faults_injected).sum();
        let retries: u64 = results.iter().map(|r| r.metrics.retries).sum();
        let rerouted: u64 = results.iter().map(|r| r.metrics.rerouted_reads).sum();
        assert!(
            faults > 0 && rerouted > 0,
            "seed {seed}: both shapes must fire"
        );
        assert_eq!(retries, faults, "seed {seed}");
    }
}

#[test]
fn an_inert_plan_is_dropped_and_costs_nothing() {
    // All-zero rates, no windows: the builder must not even construct an
    // injector, so the executor's zero-overhead streaming path stays on.
    let cluster = fixture(IoModel::zero(), Some(FaultPlan::new(9)));
    assert!(
        cluster.fault_injector().is_none(),
        "an inert plan must be dropped at build time"
    );
    let results = run_all(&cluster);
    for r in &results {
        assert_eq!(r.metrics.faults_injected, 0);
        assert_eq!(r.metrics.retries, 0);
        assert_eq!(r.metrics.rerouted_reads, 0);
        assert_eq!(r.metrics.deadline_aborts, 0);
    }
}

/// The modeled floor of `job` on a fixture under `io`: the [`CostModel`]
/// over the access counts of its run on a zero-latency twin, with every
/// device-queue slot of every node busy. No executor, however fast,
/// finishes the job sooner.
fn modeled_floor(job: &Job, io: &IoModel) -> Duration {
    let twin = JobRunner::new(fixture(IoModel::zero(), None), ExecutorConfig::smpe(32));
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
fn deadline_abort_under_chaos_returns_every_permit_and_pool_slot() {
    // Real latency plus a fault plan: the abort lands while retries and
    // reroutes are genuinely in flight. The job's modeled floor is ten
    // times its deadline, so it is still running when the deadline fires
    // however fast the box is.
    let deadline = Duration::from_millis(20);
    let job = q5_prime_job(&Q5Params::with_selectivity(3e-1)).unwrap();
    let io = IoModel::hdd_like(400.0);
    let floor = modeled_floor(&job, &io);
    assert!(
        floor >= deadline * 10,
        "the job's modeled floor {floor:?} must be at least ten deadlines"
    );
    let plan = FaultPlan::transient(7, 0.1).with_node_down(2, 0..u64::MAX);
    let cluster = fixture(io, Some(plan));
    let permits_at_rest = cluster.available_iops_permits();
    let sched = HarborScheduler::new(
        cluster.clone(),
        SchedulerConfig {
            pool_threads: 32,
            ..SchedulerConfig::default()
        },
    );
    let handle = sched
        .submit_with(&job, SubmitOptions::new().deadline(deadline))
        .unwrap();
    match handle.wait().unwrap_err() {
        RedeError::Cancelled(msg) => {
            assert!(
                msg.contains("deadline"),
                "error must name the deadline: {msg}"
            )
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(sched.stats().deadline_aborts, 1);
    // Every resource the aborted job held must flow back as its in-flight
    // reads retire: scope permit count, pool slots, cluster-wide IOPS.
    let poll_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let clean = handle.permits_held() == 0
            && handle.pool_threads_held() == 0
            && cluster.available_iops_permits() == permits_at_rest;
        if clean {
            break;
        }
        assert!(
            Instant::now() < poll_deadline,
            "aborted job still holds resources: permits={} pool={} cluster={:?}",
            handle.permits_held(),
            handle.pool_threads_held(),
            cluster.available_iops_permits(),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The scheduler is unharmed: the same job, undeadlined, completes.
    let ok = sched
        .submit(&q6_job(&Q6Params::standard()).unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert!(ok.count > 0);
}
