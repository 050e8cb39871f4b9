//! Microbenchmarks of the storage substrate: the from-scratch B+-tree,
//! heap-file point reads, the buffer pool's miss path, partition routing,
//! and the Fx hasher.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rede_common::{fxhash, Value};
use rede_storage::{
    BPlusTree, BufferPool, ByteBudget, FileSpec, PageId, Partitioning, Pointer, Record, SimCluster,
    SlottedPage,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(20);

    group.bench_function("insert_10k_seq", |b| {
        b.iter_batched(
            BPlusTree::<i64, i64>::new,
            |mut tree| {
                for i in 0..10_000 {
                    tree.insert(i, i);
                }
                tree
            },
            BatchSize::SmallInput,
        )
    });

    let mut tree = BPlusTree::new();
    for i in 0..100_000i64 {
        tree.insert(i, i);
    }
    group.bench_function("get_hit_100k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(tree.get(&k))
        })
    });
    group.bench_function("range_100_of_100k", |b| {
        let mut lo = 0i64;
        b.iter(|| {
            lo = (lo + 7919) % 99_000;
            let hi = lo + 99;
            black_box(tree.range_inclusive(&lo, &hi).count())
        })
    });

    // std::BTreeMap reference point for the same shapes.
    let mut std_tree = std::collections::BTreeMap::new();
    for i in 0..100_000i64 {
        std_tree.insert(i, i);
    }
    group.bench_function("std_btreemap_get_hit_100k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(std_tree.get(&k))
        })
    });
    group.finish();
}

fn bench_heap_file(c: &mut Criterion) {
    let cluster = SimCluster::builder().nodes(4).build().unwrap();
    let file = cluster
        .create_file(FileSpec::new("t", Partitioning::hash(16)))
        .unwrap();
    for i in 0..50_000i64 {
        file.insert(
            Value::Int(i),
            Record::from_text(&format!("{i}|payload-{i}")),
        )
        .unwrap();
    }
    let mut group = c.benchmark_group("heap_file");
    group.sample_size(20);
    group.bench_function("resolve_logical", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 50_000;
            let ptr = Pointer::logical("t", Value::Int(k), Value::Int(k));
            black_box(cluster.resolve(&ptr, 0).unwrap())
        })
    });
    group.bench_function("scan_partition", |b| {
        b.iter(|| {
            let mut n = 0usize;
            file.scan_partition(0, |_, _| n += 1).unwrap();
            black_box(n)
        })
    });
    group.finish();
}

/// A fetch that faults and evicts on a full pool. Twice as many pages as
/// fit are written in order, which leaves the second half resident with a
/// full LRU-K history; then the first half is fetched round-robin. Each
/// fetch misses and evicts the page faulted in before it, the one frame
/// with a single access. The time per fetch should not grow with the
/// resident count.
fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer");
    group.sample_size(20);
    for resident in [256u32, 4_096] {
        let page = |page_no| PageId {
            ns: 0,
            partition: 0,
            page_no,
        };
        let payload = [b'p'; 200];
        let cost = SlottedPage::push_cost(None, payload.len());
        let page_bytes = SlottedPage::new().byte_size() + cost;
        let budget = resident as usize * page_bytes + page_bytes / 2;
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(budget)));
        for n in 0..2 * resident {
            pool.create_page(page(n)).unwrap();
            pool.with_page_mut(&page(n), cost, |p| p.push(None, &payload))
                .unwrap();
        }
        // One lap checks that the pattern misses every time.
        for n in 0..resident {
            let (_, stats) = pool.fetch(&page(n)).unwrap();
            assert_eq!((stats.faults, stats.evictions), (1, 1), "page {n}");
        }
        let mut next = 0u32;
        group.bench_function(format!("fault_evict_{resident}_resident"), |b| {
            b.iter(|| {
                let (guard, stats) = pool.fetch(&page(next)).unwrap();
                next = (next + 1) % resident;
                let len = guard.read().len();
                black_box((len, stats))
            })
        });
    }
    group.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let hash = Partitioning::hash(128).build().unwrap();
    let range = Partitioning::range((0..127).map(|i| Value::Int(i * 1000)).collect())
        .build()
        .unwrap();
    let mut group = c.benchmark_group("partitioner");
    group.bench_function("hash_partition_of", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k += 1;
            black_box(hash.partition_of(&Value::Int(k)))
        })
    });
    group.bench_function("range_partition_of", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 997) % 127_000;
            black_box(range.partition_of(&Value::Int(k)))
        })
    });
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fxhash");
    group.bench_function("hash_u64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            black_box(fxhash::hash_u64(0, k))
        })
    });
    group.bench_function("hash_16_bytes", |b| {
        b.iter(|| black_box(fxhash::hash_bytes(0, b"0123456789abcdef")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_btree,
    bench_heap_file,
    bench_buffer,
    bench_partitioner,
    bench_hashing
);
criterion_main!(benches);
