//! HTAP: analytics against a live ingest stream.
//!
//! The paper's evaluation freezes the lake after load; this bench runs
//! the same two analytic workloads — TPC-H Q5' and claims patient
//! traceability — while a writer streams new claims through the WAL/MVCC
//! ingest path into the very file and index the analytics probe.
//!
//! Gates, asserted outside the timed region:
//!
//! * **byte-identical snapshots** — every pinned patient-history answer
//!   under concurrent ingest equals the same query on a frozen reference
//!   cluster recovered from the WAL image of the pinned cut;
//! * **Q5' stability** — the TPC-H tables are not written, so Q5' returns
//!   the same rows in every round;
//! * **write-through postings** — every commit posts its new claims into
//!   the patient index itself; each streamed claim is a new key with one
//!   patient, so the index grows by exactly one entry per ingested row;
//! * **clean shutdown** — every job's snapshot guard is released.
//!
//! The measured points land in the `htap_ingest` section of
//! `BENCH_smpe.json`; CI regenerates the section and checks the
//! posting and equivalence witnesses from the committed file.

use criterion::{criterion_group, criterion_main, Criterion};
use rede_claims::analytics::{build_patient_index, names::CLAIMS_BY_PATIENT, PatientIdInterpreter};
use rede_claims::gen::{ClaimsGenerator, ClaimsProfile};
use rede_claims::lake::names::CLAIMS;
use rede_common::Value;
use rede_core::query::Query;
use rede_core::scheduler::{HarborScheduler, SubmitOptions};
use rede_core::txn::TxnManager;
use rede_core::Job;
use rede_storage::{IoModel, Partitioning, SimCluster};
use rede_tpch::{load_tpch, LoadOptions, Q5Params, TpchGenerator};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const SEED_CLAIMS: usize = 800;
const INGEST_BATCH: usize = 25;
const ROUNDS: usize = 5;
const SAMPLE_PATIENTS: usize = 6;

/// Scaled-down HDD model: device times small enough for a CI smoke, but
/// the 20µs WAL fsync keeps group commit visible in the ingest rate.
fn htap_io() -> IoModel {
    IoModel::hdd_like(0.01)
}

fn generator() -> ClaimsGenerator {
    ClaimsGenerator::new(
        ClaimsProfile {
            claims: usize::MAX / 2, // stream, not a fixed dataset
            ..Default::default()
        },
        4242,
    )
}

/// Commit claims `[from, to)` in `INGEST_BATCH`-row transactions.
fn ingest_claims(mgr: &Arc<TxnManager>, gen: &ClaimsGenerator, from: usize, to: usize) -> u64 {
    let mut commits = 0;
    let mut i = from;
    while i < to {
        let mut s = mgr.begin();
        for j in i..(i + INGEST_BATCH).min(to) {
            let claim = gen.claim(j);
            s.write(CLAIMS, Value::Int(claim.claim_id), claim.to_record());
        }
        s.commit().unwrap();
        commits += 1;
        i += INGEST_BATCH;
    }
    commits
}

fn patient_job(patient: i64) -> Job {
    Query::via_index(CLAIMS_BY_PATIENT)
        .keys(vec![Value::Int(patient)])
        .named(format!("history-{patient}"))
        .fetch(CLAIMS)
        .build()
        .compile()
        .unwrap()
}

/// Sorted record bytes — the byte-identity witness for one answer.
fn sorted_bytes(records: &[rede_storage::Record]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = records.iter().map(|r| r.bytes().to_vec()).collect();
    out.sort();
    out
}

fn run_patient(sched: &HarborScheduler, patient: i64) -> Vec<Vec<u8>> {
    let result = sched
        .submit_with(&patient_job(patient), SubmitOptions::new().collecting())
        .unwrap()
        .wait()
        .unwrap();
    sorted_bytes(&result.records)
}

struct HtapPoint {
    rows_ingested: u64,
    commits: u64,
    ingest_wall: Duration,
    analytics_wall: Duration,
    equivalent_rounds: usize,
    q5_rows: u64,
    wal_appends: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    entries_posted: u64,
}

fn measure() -> HtapPoint {
    let cluster = SimCluster::builder()
        .nodes(NODES)
        .io_model(htap_io())
        .build()
        .unwrap();
    load_tpch(
        &cluster,
        TpchGenerator::new(0.01, 7),
        &LoadOptions {
            partitions: Some(16),
            date_indexes: true,
            fk_indexes: true,
        },
    )
    .unwrap();

    // Claims arrive through the write path from the first row: the heap
    // is versioned, every commit WAL-framed.
    let gen = generator();
    let mgr = TxnManager::new(cluster.clone());
    let mut s = mgr.begin();
    s.create_file(CLAIMS, Partitioning::hash(NODES));
    s.commit().unwrap();
    ingest_claims(&mgr, &gen, 0, SEED_CLAIMS);
    build_patient_index(&cluster).unwrap();
    mgr.maintain_index(CLAIMS_BY_PATIENT, Arc::new(PatientIdInterpreter), None)
        .unwrap();

    // Freeze the pinned cut: recover the WAL image (captured before any
    // concurrent writer starts) into a fresh cluster and answer the same
    // queries there — physically the snapshot, structurally independent.
    let pin = mgr.pin();
    let frozen = SimCluster::builder()
        .nodes(NODES)
        .io_model(htap_io())
        .build()
        .unwrap();
    TxnManager::recover(frozen.clone(), mgr.wal().bytes()).unwrap();
    build_patient_index(&frozen).unwrap();
    let frozen_sched = HarborScheduler::with_defaults(frozen.clone());
    let patients: Vec<i64> = {
        let mut seen = Vec::new();
        for i in 0..SEED_CLAIMS {
            let p = gen.claim(i).patient_id;
            if !seen.contains(&p) {
                seen.push(p);
            }
            if seen.len() == SAMPLE_PATIENTS {
                break;
            }
        }
        seen
    };
    let reference: Vec<Vec<Vec<u8>>> = patients
        .iter()
        .map(|&p| run_patient(&frozen_sched, p))
        .collect();
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "sample patients must have seeded claims"
    );

    let sched = HarborScheduler::with_defaults(cluster.clone());
    sched.attach_ingest(&mgr);
    let index_len = || cluster.index(CLAIMS_BY_PATIENT).unwrap().len() as u64;
    let entries_before = index_len();
    let io_before = cluster.metrics().snapshot();
    let fsyncs_before = mgr.wal().fsyncs();

    // Q5' before ingest starts: the TPC-H side's reference answer.
    let q5 = rede_tpch::q5_prime_job(&Q5Params::with_selectivity(0.05)).unwrap();
    let q5_reference = sched.submit(&q5).unwrap().wait().unwrap().count;

    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let rows = Arc::new(AtomicU64::new(0));
    let mut equivalent_rounds = 0;
    let mut analytics_wall = Duration::ZERO;
    let ingest_t = Instant::now();
    std::thread::scope(|scope| {
        {
            let (mgr, gen, stop) = (mgr.clone(), generator(), stop.clone());
            let (commits, rows) = (commits.clone(), rows.clone());
            scope.spawn(move || {
                let mut next = SEED_CLAIMS;
                while !stop.load(Ordering::Relaxed) {
                    let c = ingest_claims(&mgr, &gen, next, next + INGEST_BATCH);
                    commits.fetch_add(c, Ordering::Relaxed);
                    rows.fetch_add(INGEST_BATCH as u64, Ordering::Relaxed);
                    next += INGEST_BATCH;
                }
            });
        }
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let q5_rows = sched.submit(&q5).unwrap().wait().unwrap().count;
            let answers: Vec<Vec<Vec<u8>>> =
                patients.iter().map(|&p| run_patient(&sched, p)).collect();
            analytics_wall += t.elapsed();
            assert_eq!(q5_rows, q5_reference, "Q5' answer moved under ingest");
            if answers == reference {
                equivalent_rounds += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let ingest_wall = ingest_t.elapsed();

    assert_eq!(
        equivalent_rounds, ROUNDS,
        "pinned analytics drifted from the frozen reference"
    );
    drop(pin);
    assert_eq!(cluster.metrics().snapshots_active(), 0, "leaked a guard");

    let io = cluster.metrics().snapshot().since(&io_before);
    let rows_ingested = rows.load(Ordering::Relaxed);
    let entries_posted = index_len() - entries_before;
    assert_eq!(
        entries_posted, rows_ingested,
        "the commits did not post one entry per ingested claim"
    );

    HtapPoint {
        rows_ingested,
        commits: commits.load(Ordering::Relaxed),
        ingest_wall,
        analytics_wall,
        equivalent_rounds,
        q5_rows: q5_reference,
        wal_appends: io.wal_appends,
        wal_bytes: io.wal_bytes,
        wal_fsyncs: mgr.wal().fsyncs() - fsyncs_before,
        entries_posted,
    }
}

fn write_baseline(p: &HtapPoint) {
    let body = format!(
        concat!(
            "{{\n",
            "    \"workload\": \"TPC-H Q5' (sf 0.01) + {} patient-history probes per round x {} rounds ",
            "on {} nodes, against a live claims ingest stream ({}-row commits, 20us WAL fsync); ",
            "every pinned answer byte-compared to a frozen cluster recovered from the pinned cut's WAL image\",\n",
            "    \"rows_ingested\": {},\n",
            "    \"commits\": {},\n",
            "    \"ingest_rows_per_sec\": {:.0},\n",
            "    \"analytics_wall_ms\": {:.2},\n",
            "    \"snapshot_equivalent_rounds\": {},\n",
            "    \"rounds\": {},\n",
            "    \"q5_rows\": {},\n",
            "    \"wal_appends\": {},\n",
            "    \"wal_bytes\": {},\n",
            "    \"wal_fsyncs\": {},\n",
            "    \"entries_posted\": {}\n",
            "  }}"
        ),
        SAMPLE_PATIENTS,
        ROUNDS,
        NODES,
        INGEST_BATCH,
        p.rows_ingested,
        p.commits,
        p.rows_ingested as f64 / p.ingest_wall.as_secs_f64().max(1e-9),
        p.analytics_wall.as_secs_f64() * 1e3,
        p.equivalent_rounds,
        ROUNDS,
        p.q5_rows,
        p.wal_appends,
        p.wal_bytes,
        p.wal_fsyncs,
        p.entries_posted,
    );
    rede_bench::write_baseline_section("htap_ingest", &body);
}

fn bench_htap(c: &mut Criterion) {
    let point = measure();
    eprintln!(
        "[htap] ingested {} rows in {} commits ({:.0} rows/s), analytics {:?} across {} rounds, \
         {} WAL appends / {} B / {} fsyncs, {} index entries posted",
        point.rows_ingested,
        point.commits,
        point.rows_ingested as f64 / point.ingest_wall.as_secs_f64().max(1e-9),
        point.analytics_wall,
        ROUNDS,
        point.wal_appends,
        point.wal_bytes,
        point.wal_fsyncs,
        point.entries_posted,
    );
    write_baseline(&point);

    // Timed region: one ingest commit against the versioned claims heap
    // (WAL append + group-commit fsync + versioned apply) — the write
    // path's steady-state unit of work.
    let cluster = SimCluster::builder()
        .nodes(NODES)
        .io_model(htap_io())
        .build()
        .unwrap();
    let gen = generator();
    let mgr = TxnManager::new(cluster.clone());
    let mut s = mgr.begin();
    s.create_file(CLAIMS, Partitioning::hash(NODES));
    s.commit().unwrap();
    ingest_claims(&mgr, &gen, 0, SEED_CLAIMS);
    let next = std::sync::atomic::AtomicUsize::new(SEED_CLAIMS);
    let mut group = c.benchmark_group("htap/ingest");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    group.bench_function("commit_25_claims", |b| {
        b.iter(|| {
            let from = next.fetch_add(INGEST_BATCH, Ordering::Relaxed);
            black_box(ingest_claims(&mgr, &gen, from, from + INGEST_BATCH))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_htap);
criterion_main!(benches);
