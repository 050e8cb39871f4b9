//! The data plane's reads fail with an error, never a panic: an unknown
//! partition is `Routing`, and a page budget whose every resident frame is
//! pinned is `Overloaded` once the pool's pin wait expires.

use rede_common::{RedeError, Result, Value};
use rede_storage::buffer::{BufferPool, ByteBudget, PageGuard, PageId};
use rede_storage::{BtreeFile, HeapFile, IndexEntry, IndexSpec, Partitioning, PointerKey, Record};
use std::sync::Arc;

const PAGE_BYTES: usize = 512;
const ROWS: i64 = 200;

/// A one-partition heap and a one-partition index over it, ~30 pages each,
/// paging through `pool`.
fn files(pool: &Arc<BufferPool>) -> (HeapFile, BtreeFile) {
    let heap = HeapFile::with_pool("t", Partitioning::hash(1), pool.clone(), PAGE_BYTES).unwrap();
    let spec = IndexSpec::global("ix", "t", 1);
    let index = BtreeFile::with_pool(&spec, pool.clone(), PAGE_BYTES).unwrap();
    for i in 0..ROWS {
        let row = Record::from_text(&format!("row-{i}-{}", "x".repeat(40)));
        heap.insert(&Value::Int(i), Value::Int(i), row).unwrap();
        let entry = IndexEntry::new(Value::Int(i), Value::Int(i)).to_record();
        index.insert(Value::Int(i), entry).unwrap();
    }
    (heap, index)
}

/// One read entry point, its result reduced to success or the error.
type Read<'a> = Box<dyn Fn() -> Result<()> + 'a>;

/// Every read entry point of both files, aimed at `partition` and at the
/// first row / first key (page 0 of each file).
fn reads<'a>(
    heap: &'a HeapFile,
    index: &'a BtreeFile,
    partition: usize,
) -> Vec<(&'static str, Read<'a>)> {
    let first = Value::Int(0);
    let slot = PointerKey::Physical(0);
    let (k1, k2, s1) = (first.clone(), first.clone(), slot.clone());
    vec![
        (
            "HeapFile::read",
            Box::new(move || heap.read(partition, &s1).map(drop)),
        ),
        (
            "HeapFile::get",
            Box::new(move || heap.get(partition, &slot).map(drop)),
        ),
        (
            "HeapFile::read_slots",
            Box::new(move || heap.read_slots(partition, 0, 1, None).map(drop)),
        ),
        (
            "HeapFile::read_slots (snapshot)",
            Box::new(move || heap.read_slots(partition, 0, 1, Some(0)).map(drop)),
        ),
        (
            "HeapFile::for_each_in_partition",
            Box::new(move || heap.for_each_in_partition(partition, |_, _| {}).map(drop)),
        ),
        (
            "BtreeFile::probe",
            Box::new(move || index.probe(partition, &first).map(drop)),
        ),
        (
            "BtreeFile::lookup_batch",
            Box::new(move || {
                index
                    .lookup_batch(partition, std::slice::from_ref(&k1))
                    .map(drop)
            }),
        ),
        (
            "BtreeFile::range_in",
            Box::new(move || index.range_in(partition, &k2, &k2).map(drop)),
        ),
    ]
}

#[test]
fn every_read_rejects_an_unknown_partition() {
    let (heap, index) = files(&BufferPool::unbounded());
    for (name, read) in reads(&heap, &index, 0) {
        assert!(read().is_ok(), "{name}: partition 0 exists");
    }
    for (name, read) in reads(&heap, &index, 1) {
        let result = read();
        assert!(
            matches!(result, Err(RedeError::Routing(_))),
            "{name}: want Routing, got {result:?}"
        );
    }
    // The metadata probes answer "nothing there" instead.
    assert_eq!(heap.partition_len(1), 0);
    assert_eq!(index.distinct_keys_in(1), 0);
}

/// Pin heap pages from the last one down until the pool refuses: by then
/// every resident frame is pinned, and page 0 of both files is on disk.
fn pin_every_resident_frame<'p>(pool: &'p BufferPool, heap: &HeapFile) -> Vec<PageGuard<'p>> {
    let pages = (heap.total_bytes() / PAGE_BYTES) as u32 + 1;
    let ns = pool.namespace("heap:t");
    let mut guards = Vec::new();
    for page_no in (1..pages).rev() {
        let id = PageId {
            ns,
            partition: 0,
            page_no,
        };
        match pool.fetch(&id) {
            Ok((guard, _)) => guards.push(guard),
            Err(RedeError::NotFound(_)) => continue, // past the last page
            Err(RedeError::Overloaded(_)) => return guards,
            Err(e) => panic!("unexpected pool error: {e:?}"),
        }
    }
    panic!("the heap must be larger than the budget");
}

#[test]
fn every_read_is_overloaded_when_every_resident_frame_is_pinned() {
    let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(4 * PAGE_BYTES)));
    let (heap, index) = files(&pool);
    let guards = pin_every_resident_frame(&pool, &heap);
    assert!(!guards.is_empty());
    for (name, read) in reads(&heap, &index, 0) {
        let result = read();
        assert!(
            matches!(result, Err(RedeError::Overloaded(_))),
            "{name}: want Overloaded, got {result:?}"
        );
    }
    // Nothing was lost: with the pins gone every read succeeds again.
    drop(guards);
    for (name, read) in reads(&heap, &index, 0) {
        assert!(read().is_ok(), "{name} after unpinning");
    }
}
