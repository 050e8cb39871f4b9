//! Property-based equivalence of the dereference path under grouping.
//!
//! Splitting the same pointers into `resolve_batch_submit` calls of any size
//! is a pure performance transformation over per-pointer `resolve`: across
//! random issuing nodes × record cache on/off × fault seeds × batch bounds,
//! the batched side must return byte-identical records and keep the
//! conservation invariant `local + remote + cache hits == logical point
//! reads` exact on every node. At batch size 1 the synchronous scalar entry
//! point and a one-element submit must move *every* counter identically.

use proptest::prelude::*;
use rede_common::Value;
use rede_storage::{FaultPlan, FileSpec, Partitioning, Pointer, Record, SimCluster};

const KEYS: i64 = 60;
const NODES: usize = 3;

fn build_cluster(cache: bool, fault_seed: Option<u64>) -> SimCluster {
    let mut b = SimCluster::builder().nodes(NODES);
    if cache {
        b = b.record_cache(NODES * 8192);
    }
    if let Some(seed) = fault_seed {
        b = b.faults(FaultPlan::transient(seed, 0.3));
    }
    let cluster = b.build().unwrap();
    let file = cluster
        .create_file(FileSpec::new("t", Partitioning::hash(8)))
        .unwrap();
    for i in 0..KEYS {
        file.insert(Value::Int(i), Record::from_text(&format!("r{i}")))
            .unwrap();
    }
    cluster.metrics().reset();
    cluster
}

fn ptr(k: i64) -> Pointer {
    Pointer::logical("t", Value::Int(k), Value::Int(k))
}

/// Resolve one pointer to success, retrying transient faults (the
/// executor's retry loop, minus the backoff).
fn resolve_retrying(c: &SimCluster, p: &Pointer, node: usize) -> Record {
    for _ in 0..32 {
        match c.resolve(p, node) {
            Ok(r) => return r,
            Err(e) if e.is_transient() => continue,
            Err(e) => panic!("non-transient fault in transient plan: {e}"),
        }
    }
    panic!("pointer never resolved within the retry bound");
}

/// Resolve a chunk through the submit path to success, retrying only the
/// transient-failed slots as a sub-batch (the executor's per-item retry).
/// The model is latency-free, so a submit never owes a round trip.
fn resolve_batch_retrying(c: &SimCluster, ptrs: &[&Pointer], node: usize) -> Vec<Record> {
    let mut out: Vec<Option<Record>> = vec![None; ptrs.len()];
    let mut pending: Vec<usize> = (0..ptrs.len()).collect();
    for _ in 0..32 {
        let chunk: Vec<&Pointer> = pending.iter().map(|&i| ptrs[i]).collect();
        let (results, rtt) = c.resolve_batch_submit(&chunk, node);
        assert!(rtt.is_zero());
        let mut retry = Vec::new();
        for (pos, result) in results.into_iter().enumerate() {
            let idx = pending[pos];
            match result {
                Ok(r) => out[idx] = Some(r),
                Err(e) if e.is_transient() => retry.push(idx),
                Err(e) => panic!("non-transient fault in transient plan: {e}"),
            }
        }
        if retry.is_empty() {
            return out.into_iter().map(|r| r.unwrap()).collect();
        }
        pending = retry;
    }
    panic!("batch never resolved within the retry bound");
}

fn assert_conservation(c: &SimCluster, tag: &str) {
    for (node, io) in c.metrics().node_point_reads().iter().enumerate() {
        assert_eq!(
            io.local + io.remote + io.cache_hits,
            io.logical_point_reads(),
            "[{tag}] node {node} conservation broken"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_resolve_is_byte_identical_and_conserving(
        keys in prop::collection::vec(0i64..KEYS, 1..80),
        from_node in 0usize..NODES,
        cache in any::<bool>(),
        fault_seed in prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
        batch in (0usize..4).prop_map(|i| [1usize, 2, 7, 64][i]),
    ) {
        let scalar = build_cluster(cache, fault_seed);
        let batched = build_cluster(cache, fault_seed);
        let ptrs: Vec<Pointer> = keys.iter().map(|&k| ptr(k)).collect();

        let scalar_records: Vec<Record> = ptrs
            .iter()
            .map(|p| resolve_retrying(&scalar, p, from_node))
            .collect();
        let mut batched_records = Vec::with_capacity(ptrs.len());
        for chunk in ptrs.chunks(batch) {
            let refs: Vec<&Pointer> = chunk.iter().collect();
            batched_records.extend(resolve_batch_retrying(&batched, &refs, from_node));
        }

        // Byte-identical results, in input order.
        prop_assert_eq!(scalar_records.len(), batched_records.len());
        for (i, (s, b)) in scalar_records.iter().zip(&batched_records).enumerate() {
            prop_assert_eq!(s.bytes(), b.bytes(), "record {} diverged", i);
            prop_assert_eq!(s.text().unwrap(), format!("r{}", keys[i]));
        }

        assert_conservation(&scalar, "scalar");
        assert_conservation(&batched, "batched");

        let s = scalar.metrics().snapshot();
        let b = batched.metrics().snapshot();
        // Same sites touched under the same seed: identical fault counts.
        prop_assert_eq!(s.faults_injected, b.faults_injected);
        prop_assert_eq!(
            s.local_point_reads + s.remote_point_reads + s.cache_hits,
            b.local_point_reads + b.remote_point_reads + b.cache_hits,
            "total logical reads must agree"
        );
        if !cache {
            // Without a cache every logical read is a storage read on both
            // sides (duplicate keys inside one batch only diverge through
            // the cache), so the local/remote split matches exactly.
            prop_assert_eq!(s.local_point_reads, b.local_point_reads);
            prop_assert_eq!(s.remote_point_reads, b.remote_point_reads);
            if fault_seed.is_none() {
                // One RTT per remote read scalar-side, one per remote batch
                // group batched-side: amortization can only reduce RTTs.
                prop_assert_eq!(s.remote_rtts, s.remote_point_reads);
                prop_assert!(b.remote_rtts <= s.remote_rtts);
            }
        }
        if batch == 1 {
            // A scalar access is a batch of one: the synchronous entry
            // point and a one-element submit agree on every counter.
            prop_assert_eq!(b.batches_issued, 0);
            prop_assert_eq!(b.batched_reads, 0);
            prop_assert_eq!(s, b);
        }
    }
}
