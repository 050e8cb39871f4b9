//! HTAP gate: analytics pinned to a snapshot must return answers
//! byte-identical to a frozen clone of that snapshot, however hard
//! concurrent ingest hammers the same structures — and the read-only
//! path must pay nothing for the machinery when no writer is attached.

use rede_common::Value;
use rede_core::job::{Job, SeedInput};
use rede_core::prebuilt::{
    BtreeRangeDereferencer, DelimitedInterpreter, FieldType, IndexEntryReferencer,
    LookupDereferencer,
};
use rede_core::scheduler::{HarborScheduler, SubmitOptions};
use rede_core::txn::TxnManager;
use rede_core::IndexBuilder;
use rede_storage::{IndexSpec, Partitioning, Record, SimCluster};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARTITIONS: usize = 8;
const CUSTOMERS: i64 = 10;

fn fresh() -> SimCluster {
    SimCluster::builder().nodes(4).build().unwrap()
}

/// `id | customer | amount` claim rows; customer = id % CUSTOMERS.
fn claim(id: i64, gen: i64) -> Record {
    Record::from_text(&format!("{id}|{}|{}", id % CUSTOMERS, id * 10 + gen))
}

fn customer_interp() -> Arc<DelimitedInterpreter> {
    Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int))
}

/// Commit `rows` claims in batches of 25 through the ingest path.
fn seed_claims(mgr: &Arc<TxnManager>, rows: i64) {
    let mut s = mgr.begin();
    s.create_file("claims", Partitioning::hash(PARTITIONS));
    s.commit().unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(25) {
        let mut s = mgr.begin();
        for &id in chunk {
            s.write("claims", Value::Int(id), claim(id, 0));
        }
        s.commit().unwrap();
    }
}

/// The analytic: per-customer claim fetch through the index, plus a full
/// scan — returns (sorted record bytes per customer, scan digest, rows).
type Answer = (Vec<Vec<Vec<u8>>>, u64, u64);

fn analytics(c: &SimCluster) -> Answer {
    let ix = c.index("claims.customer").unwrap();
    let mut per_customer = Vec::new();
    for cust in 0..CUSTOMERS {
        let mut rows: Vec<Vec<u8>> = ix
            .lookup(&Value::Int(cust), (cust as usize) % 4)
            .unwrap()
            .iter()
            .map(|entry| {
                let e = rede_storage::IndexEntry::from_record(entry).unwrap();
                c.resolve(
                    &rede_storage::Pointer::logical("claims", e.partition_key, e.key),
                    (cust as usize) % 4,
                )
                .unwrap()
                .bytes()
                .to_vec()
            })
            .collect();
        rows.sort();
        per_customer.push(rows);
    }
    let f = c.file("claims").unwrap();
    let (mut digest, mut n) = (0xcbf29ce484222325u64, 0u64);
    let mut scanned: Vec<(String, Vec<u8>)> = Vec::new();
    for p in 0..PARTITIONS {
        f.scan_partition(p, |k, r| {
            scanned.push((format!("{k:?}"), r.bytes().to_vec()));
        })
        .unwrap();
    }
    scanned.sort();
    for (k, r) in scanned {
        for b in k.bytes().chain(r.iter().copied()) {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x100000001b3);
        }
        n += 1;
    }
    (per_customer, digest, n)
}

/// Wait until a commit lands past `ts`, for at most 30 s: a writer that
/// never commits then fails the caller's asserts instead of hanging its
/// thread scope.
fn await_commit_past(mgr: &TxnManager, ts: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while mgr.current_ts() <= ts && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[test]
fn pinned_analytics_match_a_frozen_clone_under_concurrent_ingest() {
    let c = fresh();
    let mgr = TxnManager::new(c.clone());
    seed_claims(&mgr, 200);
    IndexBuilder::new(
        c.clone(),
        IndexSpec::global("claims.customer", "claims", PARTITIONS),
        customer_interp(),
    )
    .build()
    .unwrap();
    mgr.maintain_index("claims.customer", customer_interp(), None)
        .unwrap();

    // Pin the cut and freeze it: with no writer running yet, the WAL
    // image holds exactly the transactions at or before the pin, so a
    // cluster recovered from it IS the snapshot, physically.
    let pin = mgr.pin();
    let image = mgr.wal().bytes();
    let frozen = fresh();
    TxnManager::recover(frozen.clone(), image).unwrap();
    IndexBuilder::new(
        frozen.clone(),
        IndexSpec::global("claims.customer", "claims", PARTITIONS),
        customer_interp(),
    )
    .build()
    .unwrap();
    let reference = analytics(&frozen);
    assert_eq!(reference.2, 200);

    // Hammer the pinned structures from four concurrent ingest streams:
    // overwrites of seeded claims and brand-new claims, every commit
    // stamping fresh versions into the very heaps and index the pinned
    // reader is probing.
    let stop = Arc::new(AtomicBool::new(false));
    let pinned = c.with_snapshot(pin.ts());
    std::thread::scope(|scope| {
        for w in 0..2i64 {
            let (mgr, stop) = (mgr.clone(), stop.clone());
            scope.spawn(move || {
                let mut gen = 1;
                while !stop.load(Ordering::Relaxed) {
                    let mut s = mgr.begin();
                    for i in 0..10 {
                        // Half overwrites, half new ids.
                        let id = if i % 2 == 0 {
                            (w * 50 + gen * 7 + i) % 200
                        } else {
                            200 + w * 10_000 + gen * 10 + i
                        };
                        s.write("claims", Value::Int(id), claim(id, gen));
                    }
                    s.commit().unwrap();
                    gen += 1;
                }
            });
        }
        let check = |round: usize| {
            let got = analytics(&pinned);
            assert_eq!(
                got, reference,
                "round {round}: pinned analytics drifted from the frozen clone"
            );
        };
        (0..10).for_each(check);
        // A last round once a commit has landed past the cut, so at least
        // one round reads beside a moved tip however fast the rounds ran.
        await_commit_past(&mgr, pin.ts());
        check(10);
        stop.store(true, Ordering::Relaxed);
    });

    // The writers really did land: the live tip has moved past the cut.
    let live = analytics(&c);
    assert!(live.2 > 200, "concurrent ingest landed no rows");
    assert_ne!(live.1, reference.1);
    // And a fresh pin sees a consistent multiple of the txn size.
    assert!(mgr.current_ts() > pin.ts());
}

#[test]
fn scheduler_jobs_read_atomic_cuts_while_ingest_streams() {
    const TXN_ROWS: u64 = 10;
    let c = fresh();
    let mgr = TxnManager::new(c.clone());
    seed_claims(&mgr, 100);
    IndexBuilder::new(
        c.clone(),
        IndexSpec::global("claims.customer", "claims", PARTITIONS),
        customer_interp(),
    )
    .build()
    .unwrap();
    mgr.maintain_index("claims.customer", customer_interp(), None)
        .unwrap();

    let sched = HarborScheduler::with_defaults(c.clone());
    sched.attach_ingest(&mgr);

    // All customers → the job touches every claim visible at its cut.
    let job = Job::builder("all-claims")
        .seed(SeedInput::Range {
            file: "claims.customer".into(),
            lo: Value::Int(0),
            hi: Value::Int(CUSTOMERS - 1),
        })
        .dereference(
            "probe",
            Arc::new(BtreeRangeDereferencer::new("claims.customer")),
        )
        .reference("to-ptr", Arc::new(IndexEntryReferencer::new("claims")))
        .dereference("fetch", Arc::new(LookupDereferencer::new("claims")))
        .build()
        .unwrap();

    let seeded = mgr.current_ts();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let (mgr2, stop2) = (mgr.clone(), stop.clone());
        scope.spawn(move || {
            let mut gen = 0i64;
            while !stop2.load(Ordering::Relaxed) {
                // Every transaction inserts exactly TXN_ROWS *new* claims:
                // any consistent cut holds 100 + k·TXN_ROWS rows.
                let mut s = mgr2.begin();
                for i in 0..TXN_ROWS as i64 {
                    let id = 100 + gen * TXN_ROWS as i64 + i;
                    s.write("claims", Value::Int(id), claim(id, gen));
                }
                s.commit().unwrap();
                gen += 1;
            }
        });
        let run = |t: usize| {
            sched
                .submit_with(&job, SubmitOptions::new().tenant(format!("olap-{t}")))
                .unwrap()
                .wait()
                .unwrap()
                .count
        };
        let mut counts: Vec<u64> = (0..12).map(run).collect();
        // A last job once a commit has landed, so some job's cut holds
        // streamed rows (and its index caught up) however fast the jobs
        // ran.
        await_commit_past(&mgr, seeded);
        counts.push(run(12));
        stop.store(true, Ordering::Relaxed);
        for (t, &count) in counts.iter().enumerate() {
            assert!(
                count >= 100 && count % TXN_ROWS == 0,
                "job {t} read a torn cut: {count} rows is not 100 + k*{TXN_ROWS}"
            );
        }
        assert!(
            counts.windows(2).all(|w| w[1] >= w[0]),
            "snapshot cuts went backwards: {counts:?}"
        );
    });
    // Every job's snapshot guard was released at finish.
    assert_eq!(c.metrics().snapshots_active(), 0);
    // The writer has stopped: every claims row, seeded or streamed, has
    // exactly one entry, posted by the commit that wrote it.
    assert_eq!(
        c.index("claims.customer").unwrap().len(),
        c.file("claims").unwrap().len()
    );
}

#[test]
fn read_only_jobs_pay_nothing_for_the_write_path() {
    let c = fresh();
    let f = c
        .create_file(rede_storage::FileSpec::new(
            "claims",
            Partitioning::hash(PARTITIONS),
        ))
        .unwrap();
    for id in 0..200 {
        f.insert(Value::Int(id), claim(id, 0)).unwrap();
    }
    IndexBuilder::new(
        c.clone(),
        IndexSpec::global("claims.customer", "claims", PARTITIONS),
        customer_interp(),
    )
    .build()
    .unwrap();
    let sched = HarborScheduler::with_defaults(c.clone());
    let job = Job::builder("all-claims")
        .seed(SeedInput::Range {
            file: "claims.customer".into(),
            lo: Value::Int(0),
            hi: Value::Int(CUSTOMERS - 1),
        })
        .dereference(
            "probe",
            Arc::new(BtreeRangeDereferencer::new("claims.customer")),
        )
        .reference("to-ptr", Arc::new(IndexEntryReferencer::new("claims")))
        .dereference("fetch", Arc::new(LookupDereferencer::new("claims")))
        .build()
        .unwrap();
    let result = sched.submit(&job).unwrap().wait().unwrap();
    assert_eq!(result.count, 200);
    // No writer attached → not one cycle of the ingest machinery shows
    // up anywhere: no WAL traffic, no pinned snapshots, and the heap
    // never flipped into versioned mode.
    assert_eq!(result.metrics.wal_appends, 0);
    assert_eq!(result.metrics.wal_bytes, 0);
    assert_eq!(result.metrics.snapshots_active, 0);
    let global = c.metrics().snapshot();
    assert_eq!(global.wal_appends, 0);
    assert_eq!(global.snapshots_active, 0);
    assert!(!f.raw().is_versioned());
}
