//! Property-based tests of partition routing and pointer resolution over
//! randomly generated datasets.

use proptest::prelude::*;
use rede_common::{fxhash, Date, Value};
use rede_storage::{FileSpec, Partitioning, Pointer, Record, SimCluster};
use std::sync::Arc;

/// A `Value` of any variant, including the float edge cases.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(-0.0f64)].prop_map(Value::Float),
        "[ -~]{0,24}".prop_map(|s| Value::str(&s)),
        any::<i32>().prop_map(|d| Value::Date(Date(d))),
        prop::collection::vec(any::<u8>(), 0..24)
            .prop_map(|b| Value::Bytes(Arc::from(b.into_boxed_slice()))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every inserted record resolves through both logical and physical
    /// pointers, from every node, regardless of partitioning.
    #[test]
    fn pointers_resolve_after_load(
        keys in prop::collection::btree_set(-10_000i64..10_000, 1..120),
        partitions in 1usize..16,
        nodes in 1usize..6,
    ) {
        let cluster = SimCluster::builder().nodes(nodes).build().unwrap();
        let file = cluster
            .create_file(FileSpec::new("t", Partitioning::hash(partitions)))
            .unwrap();
        let mut addrs = Vec::new();
        for &k in &keys {
            let (p, slot) = file
                .insert(Value::Int(k), Record::from_text(&format!("row-{k}")))
                .unwrap();
            addrs.push((k, p, slot));
        }
        for &(k, p, slot) in &addrs {
            for node in 0..nodes {
                let logical = Pointer::logical("t", Value::Int(k), Value::Int(k));
                let rec = cluster.resolve(&logical, node).unwrap();
                prop_assert_eq!(rec.text().unwrap(), format!("row-{k}"));
                let physical = Pointer::physical("t", p, slot);
                let rec = cluster.resolve(&physical, node).unwrap();
                prop_assert_eq!(rec.text().unwrap(), format!("row-{k}"));
            }
        }
    }

    /// Hash routing is a pure function of the key and stays in range.
    #[test]
    fn hash_routing_is_stable(keys in prop::collection::vec(any::<i64>(), 1..200), parts in 1usize..64) {
        let p = Partitioning::hash(parts).build().unwrap();
        for k in keys {
            let a = p.partition_of(&Value::Int(k));
            prop_assert!(a < parts);
            prop_assert_eq!(a, p.partition_of(&Value::Int(k)));
        }
    }

    /// Hash routing hashes exactly the bytes `Value::hash_bytes` defines,
    /// for every variant, so no row can move partition when the routing
    /// path stops materializing them.
    #[test]
    fn hash_routing_hashes_the_defined_bytes(
        values in prop::collection::vec(any_value(), 1..64),
        parts in 1usize..64,
        seed in any::<u64>(),
    ) {
        let p = Partitioning::Hash { partitions: parts, seed }.build().unwrap();
        for v in &values {
            let defined = fxhash::hash_bytes(seed, &v.hash_bytes()) % parts as u64;
            prop_assert_eq!(p.partition_of(v) as u64, defined, "{:?}", v);
        }
    }

    /// Range partitioner: partition_of(k) lies in partitions_for_range of
    /// any range containing k, and partition indexes are monotone in keys.
    #[test]
    fn range_routing_consistent(
        mut boundaries in prop::collection::btree_set(-1000i64..1000, 1..20),
        key in -1100i64..1100,
        span in 0i64..300,
    ) {
        let bounds: Vec<Value> = boundaries.iter().map(|&b| Value::Int(b)).collect();
        boundaries.clear();
        let p = Partitioning::range(bounds).build().unwrap();
        let part = p.partition_of(&Value::Int(key));
        prop_assert!(part < p.partitions());
        let covering = p.partitions_for_range(&Value::Int(key - span), &Value::Int(key + span));
        prop_assert!(covering.contains(&part), "partition {part} not in covering {covering:?}");
        // Monotone in the key.
        prop_assert!(p.partition_of(&Value::Int(key + 1)) >= part);
    }

    /// Per-node index probes partition the key space: summing local probes
    /// over nodes equals one global probe.
    #[test]
    fn per_node_probes_cover_exactly_once(
        entries in prop::collection::vec((0i64..50, 0i64..10_000), 1..150),
        nodes in 1usize..5,
        partitions in 1usize..12,
    ) {
        use rede_storage::{IndexEntry, IndexSpec};
        let cluster = SimCluster::builder().nodes(nodes).build().unwrap();
        cluster.create_file(FileSpec::new("base", Partitioning::hash(partitions))).unwrap();
        let ix = cluster
            .create_index(IndexSpec::global("ix", "base", partitions))
            .unwrap();
        for &(k, v) in &entries {
            ix.insert(Value::Int(k), IndexEntry::new(Value::Int(v), Value::Int(v)).to_record())
                .unwrap();
        }
        let global = ix.range(&Value::Int(0), &Value::Int(49), 0).unwrap().len();
        let per_node: usize = (0..nodes)
            .map(|n| ix.range_on_node(n, &Value::Int(0), &Value::Int(49)).unwrap().len())
            .sum();
        prop_assert_eq!(global, entries.len());
        prop_assert_eq!(per_node, entries.len());
    }
}
