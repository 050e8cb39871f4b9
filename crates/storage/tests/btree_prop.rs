//! Property-based tests of the B+-tree against `std::collections::BTreeMap`
//! as the reference model, plus structural-invariant checks after random
//! workloads.

use proptest::prelude::*;
use rede_storage::BPlusTree;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One step of a random workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Get(i64),
    Range(i64, i64),
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..key_space, any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0..key_space).prop_map(Op::Get),
        1 => (0..key_space, 0..key_space).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn behaves_like_btreemap(
        ops in prop::collection::vec(op_strategy(200), 1..400),
        order in 4usize..32,
    ) {
        let mut tree: BPlusTree<i64, i64> = BPlusTree::with_order(order);
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(tree.insert(k, v), model.insert(k, v)),
                Op::Get(k) => prop_assert_eq!(tree.get(&k), model.get(&k)),
                Op::Range(lo, hi) => {
                    let ours: Vec<(i64, i64)> =
                        tree.range_inclusive(&lo, &hi).map(|(k, v)| (*k, *v)).collect();
                    let theirs: Vec<(i64, i64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(ours, theirs);
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants();
        let ours: Vec<(i64, i64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let theirs: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(ours, theirs);
    }

    #[test]
    fn arbitrary_bound_combinations_match_model(
        keys in prop::collection::btree_set(0i64..500, 0..200),
        lo in 0i64..500,
        hi in 0i64..500,
        lo_incl in any::<bool>(),
        hi_incl in any::<bool>(),
    ) {
        let mut tree: BPlusTree<i64, ()> = BPlusTree::with_order(6);
        let mut model = BTreeMap::new();
        for &k in &keys {
            tree.insert(k, ());
            model.insert(k, ());
        }
        let lo_bound = if lo_incl { Bound::Included(&lo) } else { Bound::Excluded(&lo) };
        let hi_bound = if hi_incl { Bound::Included(&hi) } else { Bound::Excluded(&hi) };
        let ours: Vec<i64> = tree.range(lo_bound, hi_bound).map(|(k, _)| *k).collect();
        // BTreeMap panics on inverted/equal-excluded bounds; normalize.
        let theirs: Vec<i64> = if lo > hi || (lo == hi && !(lo_incl && hi_incl)) {
            Vec::new()
        } else {
            model.range((lo_bound, hi_bound)).map(|(k, _)| *k).collect()
        };
        prop_assert_eq!(ours, theirs);
    }

    #[test]
    fn height_stays_logarithmic(n in 1usize..3000) {
        let mut tree: BPlusTree<i64, ()> = BPlusTree::with_order(8);
        for i in 0..n as i64 {
            tree.insert(i, ());
        }
        // order-8 tree: each level multiplies capacity by >= 4.
        let bound = ((n as f64).log2() / 2.0).ceil() as usize + 2;
        prop_assert!(tree.height() <= bound, "height {} > bound {bound} for n={n}", tree.height());
    }
}
