//! Front-door unit tests: session caps, exact cursor pagination,
//! zero-pool-thread backpressure, and idle reaping that returns every
//! resource.

use super::*;
use crate::job::SeedInput;
use crate::maintenance::IndexBuilder;
use crate::prebuilt::{
    BtreeRangeDereferencer, DelimitedInterpreter, FieldType, IndexEntryReferencer,
    LookupDereferencer,
};
use crate::scheduler::SchedulerConfig;
use rede_common::{Counter, Value};
use rede_storage::{FileSpec, IndexSpec, IoModel, Partitioning, Pointer, SimCluster};

/// 4-node cluster with a `base` file (key | key%7 | key*2) and its
/// weight index — the same fixture shape the scheduler tests use.
fn cluster(rows: i64) -> SimCluster {
    let c = SimCluster::builder()
        .nodes(4)
        .io_model(IoModel::zero())
        .build()
        .unwrap();
    let f = c
        .create_file(FileSpec::new("base", Partitioning::hash(8)))
        .unwrap();
    for i in 0..rows {
        f.insert(
            Value::Int(i),
            Record::from_text(&format!("{i}|{}|{}", i % 7, i * 2)),
        )
        .unwrap();
    }
    IndexBuilder::new(
        c.clone(),
        IndexSpec::global("base.weight", "base", 8),
        Arc::new(DelimitedInterpreter::pipe(2, FieldType::Int)),
    )
    .build()
    .unwrap();
    c
}

/// Index-probe job over `base.weight` ∈ [lo, hi] fetching base records.
fn range_job(lo: i64, hi: i64) -> Job {
    Job::builder("range")
        .seed(SeedInput::Range {
            file: "base.weight".into(),
            lo: Value::Int(lo),
            hi: Value::Int(hi),
        })
        .dereference(
            "probe",
            Arc::new(BtreeRangeDereferencer::new("base.weight")),
        )
        .reference("to-ptr", Arc::new(IndexEntryReferencer::new("base")))
        .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap()
}

thread_local! {
    /// Test seam in `HarborGate::fetch`: runs on the fetching thread right
    /// after a drain came back empty, before anything else is observed.
    static AFTER_EMPTY_DRAIN: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
        const { std::cell::RefCell::new(None) };
}

pub(super) fn after_empty_drain() {
    AFTER_EMPTY_DRAIN.with(|hook| {
        if let Some(hook) = hook.borrow_mut().as_mut() {
            hook();
        }
    });
}

fn gate_over(c: &SimCluster, config: GateConfig) -> HarborGate {
    HarborGate::with_config(HarborScheduler::with_defaults(c.clone()), config)
}

/// Rows of a job that is certain to stall on an undrained cursor under
/// [`small_pool`]: dispatches already running when the sink saturates
/// still land, so the sink can overshoot by min(pool share 16, workers) ×
/// `max_batch` 32 × fan-out 1 ≤ 512 records, and the job must be several
/// times that — not small enough to fit inside it.
const STALLING_ROWS: i64 = 4000;

fn stalling_job() -> Job {
    range_job(0, STALLING_ROWS * 2)
}

fn small_pool() -> SchedulerConfig {
    SchedulerConfig {
        pool_threads: 16,
        ..SchedulerConfig::default()
    }
}

fn sorted_bytes(records: &[Record]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

/// Poll `cond` up to 10 s; panic with `what` if it never holds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn session_cap_rejects_with_overloaded_and_frees_on_close() {
    let c = cluster(50);
    let gate = gate_over(
        &c,
        GateConfig {
            max_sessions_per_tenant: Some(2),
            ..GateConfig::default()
        },
    );
    let s1 = gate.open_session("acme").unwrap();
    let _s2 = gate.open_session("acme").unwrap();
    // A *different* tenant is not affected by acme's cap.
    let _other = gate.open_session("globex").unwrap();
    let err = gate.open_session("acme").unwrap_err();
    assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
    assert_eq!(gate.stats().shed_commands, 1);
    assert_eq!(c.metrics().snapshot().shed_commands, 1);
    assert_eq!(c.metrics().get(Counter::sessions_active), 3);
    // Closing frees the slot immediately.
    gate.close_session(s1).unwrap();
    assert!(gate.open_session("acme").is_ok());
    assert_eq!(c.metrics().get(Counter::sessions_active), 3);
}

/// Regression: `fetch` used to drain the sink, find it empty, and only
/// then look at `is_finished()` — a job that emitted its last records and
/// finished between the two got a done page without them.
#[test]
fn records_emitted_between_an_empty_drain_and_completion_are_not_lost() {
    let c = cluster(40);
    let gate = gate_over(&c, GateConfig::default());
    let s = gate.open_session("acme").unwrap();
    // Every final record waits in the filter until the latch opens, so
    // the job can neither emit nor finish before the test says so.
    let latch = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
    let held = latch.clone();
    let job = Job::builder("latched")
        .seed(SeedInput::Range {
            file: "base.weight".into(),
            lo: Value::Int(0),
            hi: Value::Int(1000),
        })
        .dereference(
            "probe",
            Arc::new(BtreeRangeDereferencer::new("base.weight")),
        )
        .reference("to-ptr", Arc::new(IndexEntryReferencer::new("base")))
        .dereference_filtered(
            "fetch",
            Arc::new(LookupDereferencer::new("base")),
            Arc::new(crate::traits::FnFilter(move |_: &Record| {
                let mut open = held.0.lock();
                while !*open {
                    held.1.wait(&mut open);
                }
                Ok(true)
            })),
        )
        .build()
        .unwrap();
    let cursor = gate.open_cursor(s, &job).unwrap();
    let handle = gate.state.lock().cursors[&cursor.0].handle.clone();
    // Force the interleaving: right after fetch's first (empty) drain,
    // let the job emit everything and run to completion.
    AFTER_EMPTY_DRAIN.with(|hook| {
        *hook.borrow_mut() = Some(Box::new(move || {
            *latch.0.lock() = true;
            latch.1.notify_all();
            eventually("latched job finishes", || handle.is_finished());
        }));
    });
    let mut rows = 0;
    loop {
        let page = gate.fetch(cursor, 16).unwrap();
        rows += page.records.len();
        if page.done {
            break;
        }
    }
    AFTER_EMPTY_DRAIN.with(|hook| *hook.borrow_mut() = None);
    assert_eq!(rows, 40, "the tail emitted after the empty drain was lost");
}

#[test]
fn cursor_cap_rejects_with_overloaded() {
    let c = cluster(200);
    let gate = gate_over(
        &c,
        GateConfig {
            max_cursors_per_session: 2,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let job = range_job(0, 100);
    let c1 = gate.open_cursor(s, &job).unwrap();
    let _c2 = gate.open_cursor(s, &job).unwrap();
    let err = gate.open_cursor(s, &job).unwrap_err();
    assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
    assert_eq!(gate.stats().shed_commands, 1);
    // Closing a cursor frees the slot.
    gate.close_cursor(c1).unwrap();
    assert!(gate.open_cursor(s, &job).is_ok());
}

#[test]
fn cursor_pages_concatenate_to_the_one_shot_result() {
    let c = cluster(300);
    // One-shot reference through the plain collect path.
    let reference = {
        let sched = HarborScheduler::with_defaults(c.clone());
        let result = sched
            .submit_with(&range_job(0, 400), SubmitOptions::new().collecting())
            .unwrap()
            .wait()
            .unwrap();
        assert!(result.count > 0);
        sorted_bytes(&result.records)
    };

    let gate = gate_over(&c, GateConfig::default());
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &range_job(0, 400)).unwrap();
    let mut pages = Vec::new();
    let mut all = Vec::new();
    loop {
        let page = gate.fetch(cur, 7).unwrap();
        assert!(page.records.len() <= 7, "page overflows requested size");
        assert_eq!(
            page.offset,
            all.len() as u64,
            "page offset must be the exact resume point"
        );
        all.extend(page.records.iter().cloned());
        pages.push(page.records.len());
        if page.done {
            break;
        }
    }
    assert_eq!(sorted_bytes(&all), reference, "pages dropped/duped rows");
    // The done page released the cursor; fetching again is NotFound.
    assert!(matches!(
        gate.fetch(cur, 7).unwrap_err(),
        RedeError::NotFound(_)
    ));
    assert_eq!(gate.stats().cursors, 0);
    assert_eq!(c.metrics().get(Counter::cursors_active), 0);
}

/// A page read the buffer pool refuses — every frame of a floor-sized
/// budget pinned — fails the cursor's job: `fetch` returns the overload
/// instead of hanging, and the cursor, its snapshot and its queued work
/// are all released. Once the pins drop, the same query pages through.
#[test]
fn a_refused_page_read_surfaces_through_the_cursor() {
    use rede_storage::buffer::PageId;
    let c = SimCluster::builder()
        .nodes(1)
        .memory_budget(rede_storage::cluster::MIN_MEMORY_BUDGET)
        .build()
        .unwrap();
    let f = c
        .create_file(FileSpec::new("base", Partitioning::hash(4)))
        .unwrap();
    // Each partition alone is most of the 16-page budget.
    for i in 0..2000i64 {
        let row = format!("{i}|{}|{}", i % 7, "x".repeat(60));
        f.insert(Value::Int(i), Record::from_text(&row)).unwrap();
    }
    // Pin from the last partition down until the pool refuses; what is
    // left unpinned — all of partition 0 — is on disk by then.
    let pool = c.buffer_pool();
    let ns = pool.namespace("heap:base");
    let mut guards = Vec::new();
    'pin: for partition in (1..4).rev() {
        for page_no in 0.. {
            let id = PageId {
                ns,
                partition,
                page_no,
            };
            match pool.fetch(&id) {
                Ok((guard, _)) => guards.push(guard),
                Err(RedeError::NotFound(_)) => break,
                Err(RedeError::Overloaded(_)) => break 'pin,
                Err(e) => panic!("unexpected pool error: {e:?}"),
            }
        }
    }
    assert!(!guards.is_empty());
    // The fetch stage reads four records of the on-disk partition.
    let pointers: Vec<Pointer> = (0..2000i64)
        .map(|k| Pointer::logical("base", Value::Int(k), Value::Int(k)))
        .filter(|p| c.partition_of_pointer(p) == Some(0))
        .take(4)
        .collect();
    let job = Job::builder("on-disk")
        .seed(SeedInput::Pointers(pointers))
        .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap();
    let fetch_timeout = Duration::from_secs(10);
    let gate = gate_over(
        &c,
        GateConfig {
            fetch_timeout,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &job).unwrap();
    let start = Instant::now();
    let err = gate.fetch(cur, 16).unwrap_err();
    assert!(start.elapsed() < fetch_timeout, "the fetch hung: {err}");
    assert!(err.to_string().contains("overloaded"), "{err}");
    assert!(matches!(
        gate.fetch(cur, 16).unwrap_err(),
        RedeError::NotFound(_)
    ));
    assert_eq!(c.metrics().get(Counter::cursors_active), 0);
    assert_eq!(c.metrics().snapshots_active(), 0);
    assert!(gate.stats().scheduler.queue_depths.iter().all(|&d| d == 0));

    drop(guards);
    let cur = gate.open_cursor(s, &job).unwrap();
    let mut rows = 0;
    loop {
        let page = gate.fetch(cur, 16).unwrap();
        rows += page.records.len();
        if page.done {
            break;
        }
    }
    assert_eq!(rows, 4);
}

#[test]
fn empty_result_yields_a_single_done_page() {
    let c = cluster(20);
    let gate = gate_over(&c, GateConfig::default());
    let s = gate.open_session("acme").unwrap();
    // weight ∈ [1000, 2000] matches nothing (weights are 0..=6 doubled).
    let cur = gate.open_cursor(s, &range_job(1000, 2000)).unwrap();
    let page = gate.fetch(cur, 10).unwrap();
    assert!(page.records.is_empty());
    assert!(page.done);
    assert_eq!(page.offset, 0);
    assert_eq!(gate.stats().cursors, 0);
}

#[test]
fn stalled_cursor_blocks_emits_without_consuming_pool_threads() {
    let c = cluster(STALLING_ROWS);
    let gate = HarborGate::with_config(
        HarborScheduler::new(c.clone(), small_pool()),
        GateConfig {
            cursor_buffer: 4,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &stalling_job()).unwrap();

    // Never fetch: the sink saturates at 4 records and the job's pooled
    // work parks in the queues.
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();
    eventually("sink saturation", || handle.output_stalled());
    // Give in-flight tasks time to land, then hold the invariant: the
    // job is alive but costs zero pool threads while stalled.
    eventually("pool threads released", || handle.pool_threads_held() == 0);
    std::thread::sleep(Duration::from_millis(50));
    assert!(!handle.is_finished(), "job must be stalled, not finished");
    assert_eq!(
        handle.pool_threads_held(),
        0,
        "a stalled cursor must not hold pool threads"
    );
    assert!(
        c.metrics().snapshot().cursor_stalls >= 1,
        "saturation must count a cursor stall"
    );

    // Draining resumes the job and delivers the complete result.
    let mut all = Vec::new();
    loop {
        let page = gate.fetch(cur, 16).unwrap();
        all.extend(page.records);
        if page.done {
            break;
        }
    }
    assert_eq!(
        all.len(),
        STALLING_ROWS as usize,
        "stall/resume dropped records"
    );
}

#[test]
fn idle_cursor_reap_cancels_job_and_returns_all_resources() {
    let c = cluster(STALLING_ROWS);
    let permits_at_rest = c.available_iops_permits();
    let gate = HarborGate::with_config(
        HarborScheduler::new(c.clone(), small_pool()),
        GateConfig {
            cursor_buffer: 2,
            cursor_idle_timeout: Duration::from_millis(40),
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &stalling_job()).unwrap();
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();
    eventually("sink saturation", || handle.output_stalled());

    std::thread::sleep(Duration::from_millis(60));
    let report = gate.sweep_idle();
    assert_eq!(report.cursors_reaped, 1);
    assert_eq!(gate.stats().cursors, 0);
    assert_eq!(c.metrics().get(Counter::cursors_active), 0);
    assert!(matches!(
        gate.fetch(cur, 4).unwrap_err(),
        RedeError::NotFound(_)
    ));

    // The backing job was cancelled and every resource flows back.
    assert!(matches!(handle.wait(), Err(RedeError::Cancelled(_))));
    eventually("resource return after reap", || {
        handle.permits_held() == 0
            && handle.pool_threads_held() == 0
            && c.available_iops_permits() == permits_at_rest
            && gate
                .scheduler()
                .stats()
                .queue_depths
                .iter()
                .all(|&d| d == 0)
    });
    assert_eq!(gate.scheduler().stats().active_jobs, 0);
}

#[test]
fn idle_session_expires_and_frees_the_tenant_slot() {
    let c = cluster(20);
    let gate = gate_over(
        &c,
        GateConfig {
            max_sessions_per_tenant: Some(1),
            session_idle_timeout: Duration::from_millis(30),
            ..GateConfig::default()
        },
    );
    gate.open_session("acme").unwrap();
    assert!(matches!(
        gate.open_session("acme").unwrap_err(),
        RedeError::Overloaded(_)
    ));
    std::thread::sleep(Duration::from_millis(50));
    let report = gate.sweep_idle();
    assert_eq!(report.sessions_expired, 1);
    assert_eq!(c.metrics().get(Counter::sessions_active), 0);
    // The expired slot is usable again.
    assert!(gate.open_session("acme").is_ok());
}

#[test]
fn scheduler_admission_bound_sheds_at_the_front_door() {
    let c = cluster(400);
    let gate = HarborGate::with_config(
        HarborScheduler::new(
            c.clone(),
            SchedulerConfig {
                max_tenant_queue_depth: Some(1),
                ..SchedulerConfig::default()
            },
        ),
        GateConfig {
            cursor_buffer: 2,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    // First cursor stalls (never fetched) and occupies the tenant's one
    // admission slot; the second must shed at the front door.
    let _c1 = gate.open_cursor(s, &range_job(0, 800)).unwrap();
    let err = gate.open_cursor(s, &range_job(0, 800)).unwrap_err();
    assert!(matches!(err, RedeError::Overloaded(_)), "got {err:?}");
    assert_eq!(gate.stats().shed_commands, 1);
    assert_eq!(gate.scheduler().stats().rejected_jobs, 1);
}

#[test]
fn command_handler_drives_the_full_path() {
    let c = cluster(100);
    let gate = gate_over(&c, GateConfig::default());
    let Reply::SessionOpened(s) = gate
        .handle(Command::OpenSession {
            tenant: "acme".into(),
        })
        .unwrap()
    else {
        panic!("wrong reply")
    };
    let Reply::CursorOpened(cur) = gate
        .handle(Command::Query {
            session: s,
            job: range_job(0, 40),
            opts: QueryOptions::default(),
        })
        .unwrap()
    else {
        panic!("wrong reply")
    };
    let mut rows = 0usize;
    loop {
        let Reply::Page(page) = gate
            .handle(Command::Fetch {
                cursor: cur,
                max_rows: 5,
            })
            .unwrap()
        else {
            panic!("wrong reply")
        };
        rows += page.records.len();
        if page.done {
            break;
        }
    }
    assert_eq!(rows, 21);
    let Reply::Stats(stats) = gate.handle(Command::Stats).unwrap() else {
        panic!("wrong reply")
    };
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.cursors, 0);
    assert!(matches!(
        gate.handle(Command::CloseSession { session: s }).unwrap(),
        Reply::SessionClosed
    ));
}

#[test]
fn closing_a_mid_stream_cursor_cancels_and_cleans_up() {
    let c = cluster(400);
    let gate = gate_over(
        &c,
        GateConfig {
            cursor_buffer: 8,
            ..GateConfig::default()
        },
    );
    let s = gate.open_session("acme").unwrap();
    let cur = gate.open_cursor(s, &range_job(0, 800)).unwrap();
    // Take one page, then walk away mid-stream.
    let page = gate.fetch(cur, 4).unwrap();
    assert!(!page.records.is_empty());
    let handle = gate.state.lock().cursors[&cur.0].handle.clone();
    gate.close_cursor(cur).unwrap();
    assert_eq!(gate.stats().cursors, 0);
    eventually("mid-stream close returns resources", || {
        handle.is_finished() && handle.permits_held() == 0 && handle.pool_threads_held() == 0
    });
    // The session survives its cursor.
    assert!(gate.open_cursor(s, &range_job(0, 10)).is_ok());
}

#[test]
fn gate_drop_closes_everything() {
    let c = cluster(200);
    {
        let gate = gate_over(
            &c,
            GateConfig {
                cursor_buffer: 2,
                ..GateConfig::default()
            },
        );
        let s = gate.open_session("acme").unwrap();
        let _cur = gate.open_cursor(s, &range_job(0, 400)).unwrap();
        assert_eq!(c.metrics().get(Counter::sessions_active), 1);
        assert_eq!(c.metrics().get(Counter::cursors_active), 1);
    }
    assert_eq!(c.metrics().get(Counter::sessions_active), 0);
    assert_eq!(c.metrics().get(Counter::cursors_active), 0);
}
