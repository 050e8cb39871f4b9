//! Property-based checks on HarborGate cursor pagination.
//!
//! Two properties over arbitrary page sizes, result lengths, and
//! fetch/close/expire interleavings:
//!
//! 1. **Exact pagination**: for any page-size sequence (including size 1)
//!    and any result length (including empty), the concatenated pages are
//!    byte-identical to a one-shot collected run of the same job — no row
//!    duplicated, none dropped, every page's `offset` the exact resume
//!    point after a partial fetch.
//! 2. **Interleaving safety**: an arbitrary interleaving of fetches,
//!    mid-stream closes, and idle expiries never duplicates a row, never
//!    invents one (delivered rows are always a sub-multiset of the
//!    reference), keeps `offset` consistent, and always leaves the gate
//!    with zero cursors once the session closes.
//!
//! Record order across runs is execution-order nondeterministic under
//! SMPE, so multiset comparisons sort record bytes first.

use proptest::prelude::*;
use rede_common::{RedeError, Value};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::{
    BtreeRangeDereferencer, DelimitedInterpreter, FieldType, IndexEntryReferencer,
    LookupDereferencer,
};
use rede_core::{GateConfig, HarborGate, HarborScheduler, SchedulerConfig, SubmitOptions};
use rede_storage::{FileSpec, IndexSpec, IoModel, Partitioning, Record, SimCluster};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Rows in the shared fixture; weights are `2 * key`, so a range probe
/// over `base.weight` ∈ [0, 2(m-1)] yields exactly `m` records.
const ROWS: i64 = 64;

/// One gate per property, shared by that property's generated cases
/// (which run sequentially). The two properties run on parallel test
/// threads and both assert gate-wide state (zero cursors after close,
/// exactly one cursor reaped by a sweep), so they must not share one.
/// Tiny cursor buffer so pagination exercises sink backpressure, tiny
/// cursor idle timeout so the `Expire` op can trip it with a short sleep.
fn gate(cell: &'static OnceLock<HarborGate>) -> &'static HarborGate {
    cell.get_or_init(|| {
        let c = SimCluster::builder()
            .nodes(4)
            .io_model(IoModel::zero())
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("base", Partitioning::hash(8)))
            .unwrap();
        for i in 0..ROWS {
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
        HarborGate::with_config(
            HarborScheduler::new(
                c,
                SchedulerConfig {
                    pool_threads: 32,
                    ..SchedulerConfig::default()
                },
            ),
            GateConfig {
                cursor_buffer: 8,
                cursor_idle_timeout: Duration::from_millis(20),
                session_idle_timeout: Duration::from_secs(600),
                ..GateConfig::default()
            },
        )
    })
}

/// A job whose collected result has exactly `matches` records.
fn job_matching(matches: usize) -> Job {
    let (lo, hi) = if matches == 0 {
        (1000, 2000) // weights are 0..=126: matches nothing
    } else {
        (0, 2 * (matches as i64 - 1))
    };
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

fn sorted_bytes(records: &[Record]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

/// One-shot collected reference for `matches`, memoized across cases.
fn reference(gate: &HarborGate, matches: usize) -> Vec<Vec<u8>> {
    static REFS: OnceLock<Mutex<HashMap<usize, Vec<Vec<u8>>>>> = OnceLock::new();
    let refs = REFS.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(cached) = refs.lock().unwrap().get(&matches) {
        return cached.clone();
    }
    let result = gate
        .scheduler()
        .submit_with(&job_matching(matches), SubmitOptions::new().collecting())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(result.count, matches as u64, "fixture math broke");
    let bytes = sorted_bytes(&result.records);
    refs.lock().unwrap().insert(matches, bytes.clone());
    bytes
}

/// Sorted-multiset containment: every element of `sub` (with multiplicity)
/// appears in `sup`.
fn is_sub_multiset(sub: &[Vec<u8>], sup: &[Vec<u8>]) -> bool {
    let mut i = 0;
    for s in sub {
        while i < sup.len() && sup[i] < *s {
            i += 1;
        }
        if i >= sup.len() || sup[i] != *s {
            return false;
        }
        i += 1;
    }
    true
}

/// One step of a generated client script.
#[derive(Debug, Clone)]
enum Op {
    /// Fetch a page of this size.
    Fetch(usize),
    /// Close the cursor mid-stream.
    Close,
    /// Go idle past the cursor idle timeout, then run the reaper.
    Expire,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (1usize..=9).prop_map(Op::Fetch),
            1 => Just(Op::Close),
            1 => Just(Op::Expire),
        ],
        1..=12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: pages concatenate byte-identically to the one-shot
    /// collected result, for any result length (0 through every row) and
    /// any cycling page-size sequence (sizes down to 1).
    #[test]
    fn pages_concatenate_byte_identically(
        matches in 0usize..=ROWS as usize,
        sizes in proptest::collection::vec(1usize..=17, 1..=8),
    ) {
        static GATE: OnceLock<HarborGate> = OnceLock::new();
        let gate = gate(&GATE);
        let expect = reference(gate, matches);
        let session = gate.open_session("prop").unwrap();
        let cursor = gate.open_cursor(session, &job_matching(matches)).unwrap();
        let mut all: Vec<Record> = Vec::new();
        let mut turn = 0usize;
        loop {
            let size = sizes[turn % sizes.len()];
            turn += 1;
            let page = gate.fetch(cursor, size).unwrap();
            prop_assert!(page.records.len() <= size, "page overflows requested size");
            prop_assert_eq!(
                page.offset,
                all.len() as u64,
                "offset must be the exact resume point after a partial fetch"
            );
            all.extend(page.records);
            if page.done {
                break;
            }
        }
        prop_assert_eq!(all.len(), matches, "rows dropped or duplicated");
        prop_assert_eq!(sorted_bytes(&all), expect, "pages differ from one-shot result");
        // The done page auto-released the cursor.
        prop_assert!(matches!(
            gate.fetch(cursor, 1).unwrap_err(),
            RedeError::NotFound(_)
        ));
        gate.close_session(session).unwrap();
        prop_assert_eq!(gate.stats().cursors, 0);
    }

    /// Property 2: arbitrary fetch/close/expire interleavings never
    /// duplicate or invent a row, keep resume offsets exact, report
    /// `NotFound` for every touch after release, and leave nothing open.
    #[test]
    fn interleaved_close_and_expire_stay_exact(
        matches in 0usize..=ROWS as usize,
        ops in ops_strategy(),
    ) {
        static GATE: OnceLock<HarborGate> = OnceLock::new();
        let gate = gate(&GATE);
        let expect = reference(gate, matches);
        let session = gate.open_session("prop").unwrap();
        let cursor = gate.open_cursor(session, &job_matching(matches)).unwrap();
        let mut delivered: Vec<Record> = Vec::new();
        let mut open = true;
        let mut completed = false;
        for op in ops {
            match op {
                Op::Fetch(size) => {
                    if open {
                        let page = gate.fetch(cursor, size).unwrap();
                        prop_assert_eq!(page.offset, delivered.len() as u64);
                        delivered.extend(page.records);
                        if page.done {
                            open = false;
                            completed = true;
                        }
                    } else {
                        prop_assert!(matches!(
                            gate.fetch(cursor, size).unwrap_err(),
                            RedeError::NotFound(_)
                        ));
                    }
                }
                Op::Close => {
                    if open {
                        gate.close_cursor(cursor).unwrap();
                        open = false;
                    } else {
                        prop_assert!(matches!(
                            gate.close_cursor(cursor).unwrap_err(),
                            RedeError::NotFound(_)
                        ));
                    }
                }
                Op::Expire => {
                    // Outlast the 20 ms cursor idle timeout, then reap.
                    std::thread::sleep(Duration::from_millis(30));
                    let report = gate.sweep_idle();
                    if open {
                        prop_assert_eq!(report.cursors_reaped, 1, "idle cursor not reaped");
                        open = false;
                    } else {
                        prop_assert_eq!(report.cursors_reaped, 0, "reaped a released cursor");
                    }
                }
            }
        }
        if completed {
            prop_assert_eq!(
                sorted_bytes(&delivered), expect.clone(),
                "completed stream differs from one-shot result"
            );
        } else {
            prop_assert!(delivered.len() <= matches, "more rows than the job produces");
            prop_assert!(
                is_sub_multiset(&sorted_bytes(&delivered), &expect),
                "interleaving invented or duplicated a row"
            );
        }
        gate.close_session(session).unwrap();
        prop_assert_eq!(gate.stats().cursors, 0, "session close leaked a cursor");
        prop_assert_eq!(gate.stats().sessions, 0, "session leaked");
    }
}
