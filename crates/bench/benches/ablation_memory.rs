//! Ablation: evictable paged structures under a shared byte budget.
//!
//! Sweeps structure count × memory pressure: S lazily-indexed files are
//! built and then probed end-to-end (index lookup per key, heap resolve
//! per pointer) under three budgets — unbounded (everything resident, the
//! pre-buffer-pool behaviour), a mid budget that forces the structures to
//! take turns, and the floor budget (16 pages) where nearly every access
//! storms the eviction path.
//!
//! What the sweep must show, asserted outside the timed region:
//!
//! * every budget returns byte-identical answers (a digest over all
//!   resolved records) — paging is a performance knob, never a
//!   correctness knob;
//! * the unbounded run never evicts; constrained runs fault and evict;
//! * resident bytes stay under the configured budget at every point;
//! * `IndexBuildReport` splits build cost from resident cost: under the
//!   floor budget an index's `resident_bytes` is a fraction of its
//!   `structure_bytes`, while unbounded the two agree.
//!
//! The measured points are written to the `ablation_memory` section of
//! `BENCH_smpe.json` (the committed file is the tracked baseline; CI
//! regenerates and gates on it).

use criterion::{criterion_group, criterion_main, Criterion};
use rede_common::Value;
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::{DelimitedInterpreter, FieldType};
use rede_storage::{
    FileSpec, IndexSpec, IoModel, Partitioning, Pointer, Record, SimCluster, MIN_MEMORY_BUDGET,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS_PER_STRUCTURE: i64 = 300;
const NODES: usize = 4;
const PARTITIONS: usize = 8;

/// Device-time-only model: page faults cost a small, nonzero device time
/// so the eviction storm is visible in wall-clock, while reads stay cheap
/// enough that the sweep runs in seconds.
fn paged_io() -> IoModel {
    IoModel {
        local_point_read: Duration::from_micros(2),
        remote_point_read: Duration::from_micros(2),
        scan_per_record: Duration::ZERO,
        index_lookup: Duration::from_micros(1),
        page_fault: Duration::from_micros(10),
        wal_fsync: Duration::ZERO,
        queue_depth: 1008,
        wire_window: 16,
    }
}

/// Build S files of ~100-byte records, each with a local secondary index
/// over field 1. Returns the cluster, the per-index build reports'
/// (structure_bytes, resident_bytes) pairs, and the post-build
/// (total_bytes, resident_bytes) pairs taken after *all* S builds — under
/// a tight budget, later builds evict earlier indexes, so the post-build
/// residency is where the build-cost/resident-cost split shows.
type BuildCosts = Vec<(usize, usize)>;

fn fixture(structures: usize, budget: Option<usize>) -> (SimCluster, BuildCosts, BuildCosts) {
    let mut builder = SimCluster::builder().nodes(NODES).io_model(paged_io());
    if let Some(bytes) = budget {
        builder = builder.memory_budget(bytes);
    }
    let c = builder.build().unwrap();
    let mut build_costs = Vec::new();
    for s in 0..structures {
        let file = c
            .create_file(FileSpec::new(
                format!("f{s}"),
                Partitioning::hash(PARTITIONS),
            ))
            .unwrap();
        for k in 0..ROWS_PER_STRUCTURE {
            // ~100 B per record: padding makes page pressure real without
            // needing millions of rows.
            let payload = format!("{k}|{}|{:#>80}", k * 7 + s as i64, s);
            file.insert(Value::Int(k), Record::from_text(&payload))
                .unwrap();
        }
        let report = IndexBuilder::new(
            c.clone(),
            IndexSpec::local(format!("f{s}.v"), format!("f{s}"), PARTITIONS),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        )
        .build()
        .unwrap();
        build_costs.push((report.structure_bytes, report.resident_bytes));
    }
    let mut post_build = Vec::new();
    for s in 0..structures {
        let ix = c.index(&format!("f{s}.v")).unwrap();
        post_build.push((ix.raw().total_bytes(), ix.raw().resident_bytes()));
    }
    (c, build_costs, post_build)
}

/// Probe every structure end-to-end: an index lookup per key, then a heap
/// resolve per key. Returns (records resolved, FNV-1a digest over all
/// record bytes) — the digest is the byte-identity witness across budgets.
fn probe_all(c: &SimCluster, structures: usize) -> (u64, u64) {
    let mut digest: u64 = 0xcbf29ce484222325;
    let mut resolved = 0u64;
    for s in 0..structures {
        let ix = c.index(&format!("f{s}.v")).unwrap();
        for k in 0..ROWS_PER_STRUCTURE {
            let node = (k as usize + s) % NODES;
            let hits = ix.lookup(&Value::Int(k * 7 + s as i64), node).unwrap();
            assert!(!hits.is_empty(), "f{s}.v lost key {k}");
            let record = c
                .resolve(
                    &Pointer::logical(format!("f{s}"), Value::Int(k), Value::Int(k)),
                    node,
                )
                .unwrap();
            for &b in record.bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100000001b3);
            }
            resolved += 1;
        }
    }
    (resolved, digest)
}

struct MemoryPoint {
    name: String,
    structures: usize,
    /// Configured budget in bytes (0 = unbounded).
    budget: usize,
    wall: Duration,
    resolved: u64,
    digest: u64,
    page_faults: u64,
    page_evictions: u64,
    resident_bytes: usize,
    disk_bytes: usize,
    /// Summed `IndexBuildReport::structure_bytes` across the S indexes.
    build_bytes: usize,
    /// Summed index bytes still resident once *all* S builds finished.
    post_build_resident_bytes: usize,
}

impl MemoryPoint {
    fn throughput(&self) -> f64 {
        self.resolved as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn measure(name: &str, structures: usize, budget: Option<usize>) -> MemoryPoint {
    let (c, build_costs, post_build) = fixture(structures, budget);
    for &(structure, resident) in &build_costs {
        assert!(
            resident <= structure && structure > 0,
            "[{name}] a build report must split cost: resident {resident} of {structure}"
        );
    }
    let before = c.metrics().snapshot();
    let t = Instant::now();
    let (resolved, digest) = probe_all(&c, structures);
    let wall = t.elapsed();
    let delta = c.metrics().snapshot().since(&before);
    let pool = c.buffer_stats();
    assert!(
        pool.budget_used <= pool.budget_total,
        "[{name}] resident {} exceeds budget {}",
        pool.budget_used,
        pool.budget_total
    );
    MemoryPoint {
        name: name.to_string(),
        structures,
        budget: budget.unwrap_or(0),
        wall,
        resolved,
        digest,
        page_faults: delta.page_faults,
        page_evictions: delta.page_evictions,
        resident_bytes: pool.resident_bytes,
        disk_bytes: pool.disk_bytes,
        build_bytes: build_costs.iter().map(|&(b, _)| b).sum(),
        post_build_resident_bytes: post_build.iter().map(|&(_, r)| r).sum(),
    }
}

fn write_baseline(points: &[MemoryPoint]) {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"config\": \"{}\",\n",
                    "        \"structures\": {},\n",
                    "        \"memory_budget_bytes\": {},\n",
                    "        \"wall_ms\": {:.2},\n",
                    "        \"records_resolved\": {},\n",
                    "        \"answer_digest\": \"{:016x}\",\n",
                    "        \"throughput_resolves_per_sec\": {:.0},\n",
                    "        \"page_faults\": {},\n",
                    "        \"page_evictions\": {},\n",
                    "        \"resident_bytes\": {},\n",
                    "        \"spilled_bytes\": {},\n",
                    "        \"index_build_bytes\": {},\n",
                    "        \"index_post_build_resident_bytes\": {}\n",
                    "      }}"
                ),
                p.name,
                p.structures,
                p.budget,
                p.wall.as_secs_f64() * 1e3,
                p.resolved,
                p.digest,
                p.throughput(),
                p.page_faults,
                p.page_evictions,
                p.resident_bytes,
                p.disk_bytes,
                p.build_bytes,
                p.post_build_resident_bytes,
            )
        })
        .collect();
    let body = format!(
        concat!(
            "{{\n",
            "    \"workload\": \"S locally-indexed files of {} ~100B rows on {} nodes; ",
            "index lookup + heap resolve per key; budgets: unbounded / 128 KiB / ",
            "the 16-page floor ({} B); page fault charged 10µs device time\",\n",
            "    \"configs\": [\n{}\n    ]\n",
            "  }}"
        ),
        ROWS_PER_STRUCTURE,
        NODES,
        MIN_MEMORY_BUDGET,
        rows.join(",\n")
    );
    rede_bench::write_baseline_section("ablation_memory", &body);
}

fn bench_memory(c: &mut Criterion) {
    const MID_BUDGET: usize = 128 << 10;
    let sweep: Vec<(String, usize, Option<usize>)> = [4usize, 12]
        .iter()
        .flat_map(|&s| {
            vec![
                (format!("s{s}_unbounded"), s, None),
                (format!("s{s}_mid"), s, Some(MID_BUDGET)),
                (format!("s{s}_floor"), s, Some(MIN_MEMORY_BUDGET)),
            ]
        })
        .collect();

    let points: Vec<MemoryPoint> = sweep
        .iter()
        .map(|(name, structures, budget)| measure(name, *structures, *budget))
        .collect();

    for group in points.chunks(3) {
        let unbounded = &group[0];
        assert_eq!(
            unbounded.page_evictions, 0,
            "[{}] an unbounded pool must never evict",
            unbounded.name
        );
        // Unbounded, a finished build is fully resident: build cost and
        // resident cost agree even after every sibling structure is built.
        assert_eq!(
            unbounded.build_bytes, unbounded.post_build_resident_bytes,
            "[{}] unbounded build must stay resident",
            unbounded.name
        );
        for p in &group[1..] {
            assert_eq!(
                p.digest, unbounded.digest,
                "[{}] memory pressure changed the answer",
                p.name
            );
            assert_eq!(p.resolved, unbounded.resolved);
            assert!(
                p.page_faults > 0 && p.page_evictions > 0,
                "[{}] a constrained budget must fault and evict (faults {}, evictions {})",
                p.name,
                p.page_faults,
                p.page_evictions
            );
        }
        let floor = group.last().unwrap();
        // The build-vs-resident split, measured: at the floor budget the
        // built indexes cannot all stay resident — building a structure no
        // longer implies holding it in memory.
        assert!(
            floor.post_build_resident_bytes < floor.build_bytes,
            "[{}] floor-budget builds must spill: resident {} of {}",
            floor.name,
            floor.post_build_resident_bytes,
            floor.build_bytes
        );
    }

    for p in &points {
        eprintln!(
            "[ablation/memory] {:>14}: wall {:>8.2?}  {:>7.0} resolves/s  {:>6} faults  {:>6} evictions  resident {:>8}B  spilled {:>8}B",
            p.name,
            p.wall,
            p.throughput(),
            p.page_faults,
            p.page_evictions,
            p.resident_bytes,
            p.disk_bytes,
        );
    }
    write_baseline(&points);

    let mut group = c.benchmark_group("ablation/memory");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for (name, structures, budget) in [
        ("s4_unbounded", 4usize, None),
        ("s4_floor", 4, Some(MIN_MEMORY_BUDGET)),
    ] {
        let (cluster, _, _) = fixture(structures, budget);
        group.bench_function(name, |bch| {
            bch.iter(|| black_box(probe_all(&cluster, structures).1))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_memory);
criterion_main!(benches);
