//! Acceptance check for the node-private record cache × Owner vs.
//! Producer routing on the Q5' repeated-hot-key workload (suppliers are
//! dereferenced once per qualifying lineitem, so hot suppliers repeat
//! thousands of times).
//!
//! Routing is a performance knob only: both configurations must return
//! byte-identical results. And the locality claim must hold as measured,
//! not asserted: with Owner routing every resolve of a key lands on the
//! owning node, so the per-node caches see the whole access stream of the
//! keys they own and a repeated run is served entirely from memory. (The
//! cluster-wide placement this was once compared against is retired; its
//! last numbers are frozen in EXPERIMENTS.md.)

use lakeharbor::prelude::*;
use rede_tpch::{load_tpch, q5_prime_job, LoadOptions, Q5Params, TpchGenerator};

const CACHE_TOTAL: usize = 32 << 20; // 32 MiB: no eviction on this workload

fn load() -> SimCluster {
    let cluster = SimCluster::builder()
        .nodes(2)
        .io_model(IoModel::zero())
        .record_cache(CACHE_TOTAL)
        .build()
        .unwrap();
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

fn sorted(records: &[Record]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = records.iter().map(|r| r.bytes().to_vec()).collect();
    v.sort();
    v
}

#[test]
fn routings_agree_and_owner_routing_serves_a_repeat_from_memory() {
    let job = q5_prime_job(&Q5Params::with_selectivity(0.2)).unwrap();
    let configs = [
        ("per-node × owner", RoutingPolicy::Owner),
        ("per-node × producer", RoutingPolicy::Producer),
    ];

    let mut reference: Option<Vec<Vec<u8>>> = None;
    let mut warm_hit_rate = std::collections::HashMap::new();
    for (label, routing) in configs {
        let runner = JobRunner::new(
            load(),
            ExecutorConfig::smpe(32).with_routing(routing).collecting(),
        );
        let cold = runner.run(&job).unwrap();
        let rows = sorted(&cold.records);
        match &reference {
            None => reference = Some(rows),
            Some(want) => assert_eq!(want, &rows, "{label}: routing changed the answer"),
        }
        assert!(
            cold.profile.cache_hits() > 0,
            "{label}: hot suppliers must hit the cache"
        );
        if routing == RoutingPolicy::Owner {
            // Premise of the locality claim: owner routing keeps every
            // storage read on the issuing node.
            assert_eq!(
                cold.profile.remote_point_reads(),
                0,
                "{label}: owner routing must not read across nodes"
            );
        }
        // A second, warm run of the same job: with ample capacity every
        // record the job touches is resident, so the warm hit rate is a
        // deterministic measure of how well the caches captured the
        // access stream (cold rates can wobble by a few double-misses when
        // concurrent resolves race on a not-yet-inserted key).
        let warm = runner.run(&job).unwrap();
        warm_hit_rate.insert(label, warm.profile.cache_hit_rate());
    }

    let per_node_owner = warm_hit_rate["per-node × owner"];
    assert!(
        (per_node_owner - 1.0).abs() < 1e-12,
        "owner routing + ample per-node caches must serve a repeated run \
         entirely from memory (got {per_node_owner:.3})"
    );
}
