//! Property-based equivalence of the dereference path under grouping.
//!
//! Splitting the same pointers into `resolve_batch_submit` calls of any size
//! is a pure performance transformation over per-pointer `resolve`: across
//! random issuing nodes × record cache on/off × fault seeds × batch bounds,
//! the batched side must return byte-identical records and keep the
//! conservation invariant `local + remote + cache hits == logical point
//! reads` exact on every node. At batch size 1 the synchronous scalar entry
//! point and a one-element submit must move *every* counter identically.
//!
//! The same holds over a paged heap under a bounded memory budget, where a
//! batch reads each run of records on one page under one pin: arbitrary
//! orders, duplicates, logical and physical aliases and interleaved
//! partitions read back byte-identical, and a dangling pointer among its
//! page-mates fails alone.

use proptest::prelude::*;
use rede_common::{RedeError, Value};
use rede_storage::{
    FaultPlan, FileSpec, Partitioning, Pointer, Record, SimCluster, MIN_MEMORY_BUDGET,
};

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

/// Records of the paged fixture: about 30 to a 4 KiB page, 40 pages in
/// all against a 16-page budget.
const PAGED_KEYS: i64 = 1200;
const PAGED_PARTITIONS: usize = 8;

fn paged_record(k: i64) -> Record {
    Record::from_text(&format!("r{k}-{}", "p".repeat(96)))
}

/// The paged fixture, with each key's `(partition, slot)`.
fn build_paged_cluster(cache: bool) -> (SimCluster, Vec<(usize, usize)>) {
    let mut b = SimCluster::builder()
        .nodes(NODES)
        .memory_budget(MIN_MEMORY_BUDGET);
    if cache {
        b = b.record_cache(NODES * 4096);
    }
    let cluster = b.build().unwrap();
    let file = cluster
        .create_file(FileSpec::new("t", Partitioning::hash(PAGED_PARTITIONS)))
        .unwrap();
    let slots = (0..PAGED_KEYS)
        .map(|k| file.insert(Value::Int(k), paged_record(k)).unwrap())
        .collect();
    assert!(
        cluster.buffer_stats().evictions > 0,
        "the load must overflow the budget"
    );
    cluster.metrics().reset();
    (cluster, slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paged_batches_read_like_scalar_resolves(
        // Keys from a window, so pages repeat and keys duplicate.
        window in 0i64..PAGED_KEYS - 200,
        picks in prop::collection::vec((0i64..200, any::<bool>()), 1..120),
        dangle_at in 0usize..1000,
        from_node in 0usize..NODES,
        cache in any::<bool>(),
        batch in (0usize..3).prop_map(|i| [7usize, 64, 200][i]),
    ) {
        let (scalar, slots) = build_paged_cluster(cache);
        let (batched, _) = build_paged_cluster(cache);
        let mut ptrs: Vec<Pointer> = picks
            .iter()
            .map(|&(offset, physical)| {
                let k = window + offset;
                match physical {
                    true => Pointer::physical("t", slots[k as usize].0, slots[k as usize].1),
                    false => ptr(k),
                }
            })
            .collect();
        // A slot past the end of a partition the batch reads.
        let dangle = dangle_at % ptrs.len();
        let partition = slots[(window + picks[dangle].0) as usize].0;
        let len = scalar.file("t").unwrap().partition_len(partition);
        ptrs.insert(dangle, Pointer::physical("t", partition, len + 1));

        let scalar_reads: Vec<_> = ptrs.iter().map(|p| scalar.resolve(p, from_node)).collect();
        let mut batched_reads = Vec::with_capacity(ptrs.len());
        for chunk in ptrs.chunks(batch) {
            let refs: Vec<&Pointer> = chunk.iter().collect();
            batched_reads.extend(batched.resolve_batch(&refs, from_node));
        }

        for (i, (s, b)) in scalar_reads.iter().zip(&batched_reads).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => prop_assert_eq!(s.bytes(), b.bytes(), "record {} diverged", i),
                (Err(s), Err(b)) => {
                    prop_assert_eq!(i, dangle, "only the dangling pointer fails");
                    prop_assert_eq!(s.to_string(), b.to_string());
                    prop_assert!(matches!(b, RedeError::DanglingPointer(_)));
                }
                _ => prop_assert!(false, "read {} diverged: {:?} vs {:?}", i, s, b),
            }
        }
        let mut want = picks.iter().map(|&(offset, _)| paged_record(window + offset));
        for (i, read) in batched_reads.iter().enumerate().filter(|&(i, _)| i != dangle) {
            prop_assert_eq!(
                read.as_ref().unwrap().bytes(),
                want.next().unwrap().bytes(),
                "read {} is the wrong record", i
            );
        }

        assert_conservation(&scalar, "scalar");
        assert_conservation(&batched, "batched");
        let (s, b) = (scalar.metrics().snapshot(), batched.metrics().snapshot());
        prop_assert_eq!(
            s.local_point_reads + s.remote_point_reads + s.cache_hits,
            b.local_point_reads + b.remote_point_reads + b.cache_hits,
            "total logical reads must agree"
        );
        prop_assert_eq!(
            b.local_point_reads + b.remote_point_reads + b.cache_hits,
            ptrs.len() as u64
        );
    }

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
