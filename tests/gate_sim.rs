//! Deterministic client-simulation grid for the HarborGate front door.
//!
//! Seeded virtual clients drive the full command path — session → cursor
//! → scheduler → SMPE — over a shared TPC-H cluster. Every completed
//! stream must be byte-identical to a one-shot collected run of the same
//! job (record order is execution-order nondeterministic under SMPE, so
//! payload multisets are compared, sorted), including under a chaos
//! fault seed and with seeded mid-stream cancellations. After every
//! simulation the harness asserts nothing leaked: no open sessions or
//! cursors, no active or queued jobs, no pinned snapshots, and every
//! IOPS permit back at its at-rest level.
//!
//! The grid re-runs each configuration with the same seed and asserts
//! the per-client outcome tables are identical — the simulation is a
//! function of its seed, not of thread timing.

use lakeharbor::prelude::*;
use rede_bench::chaos_plan;
use rede_common::rng::Xoshiro256;
use rede_tpch::{load_tpch, q5_prime_job, q6_job, LoadOptions, Q5Params, Q6Params, TpchGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 12;
const TENANTS: usize = 3;

fn fixture(io: IoModel, faults: Option<FaultPlan>) -> SimCluster {
    let mut builder = SimCluster::builder().nodes(4).io_model(io);
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

/// The job mix clients draw from.
fn jobs() -> Vec<Job> {
    vec![
        q5_prime_job(&Q5Params::with_selectivity(3e-2)).unwrap(),
        q5_prime_job(&Q5Params::with_selectivity(1e-1)).unwrap(),
        q6_job(&Q6Params::standard()).unwrap(),
    ]
}

fn sorted_bytes(records: &[Record]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

/// What one virtual client's run resolved to. `Completed` carries the
/// sorted payload bytes (so equality is byte-identity); `Cancelled`
/// records only the seeded decision — the prefix length a mid-stream
/// close happens to catch is timing, not semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Completed { kind: usize, bytes: Vec<Vec<u8>> },
    Cancelled { kind: usize, after_pages: usize },
}

/// Drive `CLIENTS` seeded virtual clients through one gate. Each client
/// derives its own RNG stream from `seed`, picks a job kind, opens a
/// session and cursor through the `Command` vocabulary, pages with
/// seeded page sizes (1..=17, so size-1 pages are always exercised), and
/// — when its seed says so — closes the cursor mid-stream after a seeded
/// number of pages.
fn simulate(gate: Arc<HarborGate>, seed: u64) -> Vec<Outcome> {
    let mix = jobs();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let gate = gate.clone();
            let job = mix[{
                let mut rng = Xoshiro256::new(seed).derive(client as u64);
                rng.gen_range(mix.len() as u64) as usize
            }]
            .clone();
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::new(seed).derive(client as u64);
                let kind = rng.gen_range(mix_len() as u64) as usize;
                let cancel_after = if rng.gen_bool(0.25) {
                    Some(1 + rng.gen_range(3) as usize)
                } else {
                    None
                };
                let tenant = format!("tenant-{}", client % TENANTS);
                let session = match gate
                    .handle(Command::OpenSession { tenant })
                    .expect("open session")
                {
                    Reply::SessionOpened(session) => session,
                    other => panic!("unexpected reply {other:?}"),
                };
                let cursor = match gate
                    .handle(Command::Query {
                        session,
                        job,
                        opts: QueryOptions::default(),
                    })
                    .expect("open cursor")
                {
                    Reply::CursorOpened(cursor) => cursor,
                    other => panic!("unexpected reply {other:?}"),
                };
                let mut records: Vec<Record> = Vec::new();
                let mut pages = 0usize;
                let outcome = loop {
                    if cancel_after == Some(pages) {
                        match gate.handle(Command::CloseCursor { cursor }).expect("close") {
                            Reply::CursorClosed => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                        break Outcome::Cancelled {
                            kind,
                            after_pages: pages,
                        };
                    }
                    let size = 1 + rng.gen_range(17) as usize;
                    let page = match gate
                        .handle(Command::Fetch {
                            cursor,
                            max_rows: size,
                        })
                        .expect("fetch")
                    {
                        Reply::Page(page) => page,
                        other => panic!("unexpected reply {other:?}"),
                    };
                    assert!(page.records.len() <= size, "page overflows requested size");
                    assert_eq!(
                        page.offset,
                        records.len() as u64,
                        "page offset must be the exact resume point"
                    );
                    records.extend(page.records);
                    pages += 1;
                    if page.done {
                        break Outcome::Completed {
                            kind,
                            bytes: sorted_bytes(&records),
                        };
                    }
                };
                gate.handle(Command::CloseSession { session })
                    .expect("close session");
                outcome
            })
        })
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("client panicked"))
        .collect()
}

fn mix_len() -> usize {
    3
}

/// Poll `cond` up to 10 s; panic with `what` if it never holds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Assert the gate and cluster are back at rest: no sessions, cursors,
/// active jobs, queued work, pinned snapshots, or missing IOPS permits.
fn assert_nothing_leaked(gate: &HarborGate, cluster: &SimCluster, permits_at_rest: &[usize]) {
    let stats = gate.stats();
    assert_eq!(stats.sessions, 0, "sessions leaked");
    assert_eq!(stats.cursors, 0, "cursors leaked");
    assert_eq!(cluster.metrics().get(Counter::sessions_active), 0);
    assert_eq!(cluster.metrics().get(Counter::cursors_active), 0);
    // Cancelled jobs retire their in-flight I/O asynchronously; jobs,
    // queued tasks, permits, and snapshots return as those invocations
    // land.
    eventually("jobs retired", || gate.stats().scheduler.active_jobs == 0);
    eventually("task queues drained", || {
        gate.stats().scheduler.queue_depths.iter().all(|&d| d == 0)
    });
    eventually("snapshots unpinned", || {
        cluster.metrics().snapshots_active() == 0
    });
    eventually("IOPS permits returned", || {
        cluster.available_iops_permits() == permits_at_rest
    });
}

/// One grid cell: run the simulation twice with the same seed on the
/// same cluster and check correctness, determinism, and leak-freedom.
fn run_cell(cluster: &SimCluster, seed: u64) {
    // One-shot collected references, per job kind, on the same cluster.
    let reference: Vec<Vec<Vec<u8>>> = {
        let scheduler = HarborScheduler::with_defaults(cluster.clone());
        jobs()
            .iter()
            .map(|job| {
                let result = scheduler
                    .submit_with(job, SubmitOptions::new().collecting())
                    .unwrap()
                    .wait()
                    .unwrap();
                sorted_bytes(&result.records)
            })
            .collect()
    };
    assert!(
        reference.iter().all(|r| !r.is_empty()),
        "every job kind must select rows"
    );

    let permits_at_rest = cluster.available_iops_permits();
    let mut outcome_tables = Vec::new();
    for _run in 0..2 {
        let gate = Arc::new(HarborGate::with_config(
            HarborScheduler::with_defaults(cluster.clone()),
            GateConfig {
                cursor_buffer: 64, // small enough that big results stall
                ..GateConfig::default()
            },
        ));
        let outcomes = simulate(gate.clone(), seed);
        let mut completed = 0;
        let mut cancelled = 0;
        for outcome in &outcomes {
            match outcome {
                Outcome::Completed { kind, bytes } => {
                    completed += 1;
                    assert_eq!(
                        bytes, &reference[*kind],
                        "paged stream diverged from the one-shot run (kind {kind}, seed {seed})"
                    );
                }
                Outcome::Cancelled { .. } => cancelled += 1,
            }
        }
        assert_eq!(completed + cancelled, CLIENTS);
        assert!(completed > 0, "seed {seed} completed nothing");
        let gate = Arc::into_inner(gate).expect("all clients joined");
        assert_nothing_leaked(&gate, cluster, &permits_at_rest);
        drop(gate);
        outcome_tables.push(outcomes);
    }
    assert_eq!(
        outcome_tables[0], outcome_tables[1],
        "same seed, different outcomes: the simulation is not deterministic"
    );
}

#[test]
fn seeded_client_grid_is_exact_and_deterministic() {
    let cluster = fixture(IoModel::zero(), None);
    for seed in [11, 42] {
        run_cell(&cluster, seed);
    }
}

#[test]
fn chaos_seed_still_pages_byte_identically() {
    // The canonical chaos plan: transient faults on reads and probes, a
    // brown-out window, a node-down window. Retries and replica reroutes
    // must keep every page stream byte-identical and leak-free.
    let cluster = fixture(IoModel::hdd_like(0.05), Some(chaos_plan(7, 4)));
    run_cell(&cluster, 7);
}

#[test]
fn mid_stream_cancellation_frees_every_resource_under_load() {
    // All clients cancel: a gate full of aborted streams must still
    // return every permit, slot, and snapshot.
    let cluster = fixture(IoModel::zero(), None);
    let permits_at_rest = cluster.available_iops_permits();
    let gate = Arc::new(HarborGate::with_config(
        HarborScheduler::with_defaults(cluster.clone()),
        GateConfig {
            cursor_buffer: 16,
            ..GateConfig::default()
        },
    ));
    let mix = jobs();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let gate = gate.clone();
            let job = mix[client % mix.len()].clone();
            std::thread::spawn(move || {
                let session = gate
                    .open_session(&format!("tenant-{}", client % TENANTS))
                    .unwrap();
                let cursor = gate.open_cursor(session, &job).unwrap();
                // Fetch one small page (so some clients catch the stream
                // mid-flight), then abandon the rest.
                let _ = gate.fetch(cursor, 3);
                gate.close_cursor(cursor).ok();
                gate.close_session(session).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let gate = Arc::into_inner(gate).expect("all clients joined");
    assert_nothing_leaked(&gate, &cluster, &permits_at_rest);
}
