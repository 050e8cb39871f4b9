//! The § V-C record cache under a full SMPE workload: Q5' repeatedly
//! dereferences the same supplier records (10k× fewer suppliers than
//! lineitems), so a cache-enabled cluster should serve most supplier
//! fetches from memory — without changing any result.

use lakeharbor::prelude::*;
use rede_tpch::{load_tpch, q5_prime_job, LoadOptions, Q5Params, TpchGenerator};

fn load(cache: Option<usize>) -> SimCluster {
    let mut builder = SimCluster::builder().nodes(2).io_model(IoModel::zero());
    if let Some(capacity) = cache {
        builder = builder.record_cache(capacity);
    }
    let cluster = builder.build().unwrap();
    load_tpch(
        &cluster,
        TpchGenerator::new(0.002, 5),
        &LoadOptions {
            partitions: Some(6),
            date_indexes: true,
            fk_indexes: true,
        },
    )
    .unwrap();
    cluster
}

#[test]
fn cache_preserves_results_and_absorbs_hot_fetches() {
    let job = q5_prime_job(&Q5Params::with_selectivity(0.2)).unwrap();

    let plain = load(None);
    let cached = load(Some(16 << 20));
    let plain_run = JobRunner::new(plain, ExecutorConfig::smpe(32).collecting())
        .run(&job)
        .unwrap();
    let cached_run = JobRunner::new(cached, ExecutorConfig::smpe(32).collecting())
        .run(&job)
        .unwrap();

    assert_eq!(
        plain_run.count, cached_run.count,
        "cache must not change answers"
    );
    let sorted = |records: &[Record]| {
        let mut v: Vec<String> = records
            .iter()
            .map(|r| r.text().unwrap().to_string())
            .collect();
        v.sort();
        v
    };
    assert_eq!(sorted(&plain_run.records), sorted(&cached_run.records));

    // The plain cluster pays a storage read per dereference…
    assert_eq!(plain_run.metrics.cache_hits, 0);
    // …while the cached one serves the repeated supplier fetches (and any
    // repeated order/lineitem touches) from memory.
    assert!(
        cached_run.metrics.cache_hits > 0,
        "hot supplier records must hit: {:?}",
        cached_run.metrics
    );
    assert!(
        cached_run.metrics.point_reads() < plain_run.metrics.point_reads(),
        "cache must absorb storage reads ({} vs {})",
        cached_run.metrics.point_reads(),
        plain_run.metrics.point_reads()
    );
    // Conservation: hits + misses = the uncached read count.
    assert_eq!(
        cached_run.metrics.cache_hits + cached_run.metrics.cache_misses,
        plain_run.metrics.point_reads()
    );
}

/// The per-node accounting must stay honest under SMPE concurrency: many
/// pool threads race through `resolve`, and every one of their accesses
/// has to land in exactly one node's hit or miss counter. For each node,
/// every miss pays exactly one storage read issued by that node, and hits
/// plus misses equal the node's logical point reads — so summed across
/// nodes they reproduce the uncached run's storage read count exactly
/// (no access lost or double-counted in the race between cache probe and
/// counter update).
#[test]
fn per_node_counters_conserve_accesses_under_smpe() {
    let job = q5_prime_job(&Q5Params::with_selectivity(0.2)).unwrap();
    let plain = load(None);
    let cached = load(Some(16 << 20));
    let plain_run = JobRunner::new(plain, ExecutorConfig::smpe(32))
        .run(&job)
        .unwrap();
    let cached_run = JobRunner::new(cached, ExecutorConfig::smpe(32))
        .run(&job)
        .unwrap();

    let mut hits = 0u64;
    let mut misses = 0u64;
    for n in &cached_run.profile.nodes {
        // Every miss fell through to exactly one storage read issued by
        // this node; hits never touched storage.
        assert_eq!(
            n.io.local + n.io.remote,
            n.io.cache_misses,
            "node {}: misses must match storage reads",
            n.node
        );
        assert_eq!(
            n.io.logical_point_reads(),
            n.io.cache_hits + n.io.cache_misses,
            "node {}: hits + misses must cover every resolve",
            n.node
        );
        hits += n.io.cache_hits;
        misses += n.io.cache_misses;
    }
    // The per-node counters agree with the aggregate ones…
    assert_eq!(hits, cached_run.metrics.cache_hits);
    assert_eq!(misses, cached_run.metrics.cache_misses);
    assert!(hits > 0, "hot supplier fetches must hit");
    // …and hits + misses across nodes equal the logical access count, i.e.
    // the storage reads an identical uncached run performs.
    assert_eq!(hits + misses, plain_run.metrics.point_reads());
    assert_eq!(
        cached_run.profile.logical_point_reads(),
        plain_run.metrics.point_reads()
    );
}

#[test]
fn tiny_cache_still_correct_under_churn() {
    let job = q5_prime_job(&Q5Params::with_selectivity(0.1)).unwrap();
    let plain = load(None);
    let tiny = load(Some(8)); // pathological: constant eviction
    let a = JobRunner::new(plain, ExecutorConfig::smpe(16))
        .run(&job)
        .unwrap();
    let b = JobRunner::new(tiny, ExecutorConfig::smpe(16))
        .run(&job)
        .unwrap();
    assert_eq!(a.count, b.count);
}
