//! A from-scratch in-memory B+-tree.
//!
//! This is the structure behind [`BtreeFile`](crate::BtreeFile): all keys
//! live in the leaves, interior nodes hold separators only, and range
//! queries walk the leaf level. It is implemented from first principles
//! (rather than wrapping `std::collections::BTreeMap`) because the paper's
//! whole premise is that structures are *built by the system from registered
//! access methods* — the tree, its splits, and its point, batched and range
//! probes are part of the reproduction surface and are benchmarked and
//! property-tested on their own.
//!
//! The tree only grows. Structures are built lazily and then appended to
//! (§ III-D); no operation deletes an index entry (dropping an index drops
//! the whole structure), so there is no remove, borrow or merge path.
//!
//! Concurrency is provided one level up (each partition's tree sits behind a
//! `parking_lot::RwLock`); the tree itself is single-writer.

mod node;

pub use node::MIN_ORDER;
use node::{InsertOutcome, Node};
use std::fmt::Debug;
use std::ops::Bound;

/// An in-memory B+-tree with unique keys.
///
/// `order` is the maximum number of keys per node; nodes split above it
/// into halves of at least `order / 2` keys each. Duplicate index keys are
/// handled by the layer above, which stores a postings `Vec` per key.
pub struct BPlusTree<K: Ord + Clone, V> {
    root: Node<K, V>,
    order: usize,
    len: usize,
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// An empty tree with the default order (64 keys per node — a few cache
    /// lines of integer keys, mirroring disk-page trees at small scale).
    pub fn new() -> Self {
        Self::with_order(64)
    }

    /// An empty tree with an explicit order.
    ///
    /// # Panics
    /// Panics if `order < MIN_ORDER` (4): smaller nodes cannot satisfy the
    /// occupancy invariants.
    pub fn with_order(order: usize) -> Self {
        assert!(order >= MIN_ORDER, "order must be >= {MIN_ORDER}");
        BPlusTree {
            root: Node::empty_leaf(),
            order,
            len: 0,
        }
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `key → value`; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.root.insert(key, value, self.order) {
            InsertOutcome::Replaced(old) => Some(old),
            InsertOutcome::Inserted => {
                self.len += 1;
                None
            }
            InsertOutcome::Split(sep, right) => {
                self.len += 1;
                let old_root = std::mem::replace(&mut self.root, Node::empty_leaf());
                self.root = Node::new_root(sep, old_root, right);
                None
            }
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.root.get(key)
    }

    /// Mutable lookup (used to extend postings lists in place).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.root.get_mut(key)
    }

    /// Vectorized lookup: probe every key, sharing root-to-leaf descents
    /// across probes that land in the same leaf.
    ///
    /// Keys are visited in sorted order; after each descent the leaf's
    /// upper separator bound is remembered, and any subsequent key still
    /// under that bound is served by binary search in the same leaf
    /// without touching the interior. For keys clustered by partition this
    /// collapses `n` descents into roughly `n / (order/2)`.
    ///
    /// Returns the values in **input** order plus the number of descents
    /// actually performed (`<= keys.len()`; diagnostics and tests).
    pub fn get_many<'a>(&'a self, keys: &[K]) -> (Vec<Option<&'a V>>, usize) {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let mut out: Vec<Option<&'a V>> = vec![None; keys.len()];
        let mut cur: Option<(&'a Node<K, V>, Option<&'a K>)> = None;
        let mut descents = 0usize;
        for i in order {
            let key = &keys[i];
            // A leaf covers all keys strictly below its path's tightest
            // upper separator; sorted visiting order guarantees the lower
            // bound, so `key < upper` alone decides reuse.
            let reusable = match &cur {
                Some((_, upper)) => upper.is_none_or(|u| key < u),
                None => false,
            };
            if !reusable {
                cur = Some(self.descend_with_bound(key));
                descents += 1;
            }
            let (leaf, _) = cur.expect("descended above");
            let Node::Leaf {
                keys: leaf_keys,
                values,
            } = leaf
            else {
                unreachable!("descent ends at a leaf")
            };
            out[i] = leaf_keys.binary_search(key).ok().map(|j| &values[j]);
        }
        (out, descents)
    }

    /// Walk root→leaf for `key`, returning the leaf and the tightest upper
    /// separator bound along the path (`None` on the rightmost spine).
    fn descend_with_bound<'a>(&'a self, key: &K) -> (&'a Node<K, V>, Option<&'a K>) {
        let mut node = &self.root;
        let mut upper: Option<&'a K> = None;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    if idx < keys.len() {
                        upper = Some(&keys[idx]);
                    }
                    node = &children[idx];
                }
                Node::Leaf { .. } => return (node, upper),
            }
        }
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over `(key, value)` pairs within bounds, in key order.
    pub fn range<'a>(&'a self, lo: Bound<&'a K>, hi: Bound<&'a K>) -> RangeIter<'a, K, V> {
        RangeIter::new(&self.root, lo, hi)
    }

    /// Convenience: inclusive range `[lo, hi]`.
    pub fn range_inclusive<'a>(&'a self, lo: &'a K, hi: &'a K) -> RangeIter<'a, K, V> {
        self.range(Bound::Included(lo), Bound::Included(hi))
    }

    /// Iterate over all pairs in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Height of the tree (1 for a lone leaf). Diagnostic.
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Validate all structural invariants; panics with a description on
    /// violation. Used by tests and property tests after random workloads.
    pub fn check_invariants(&self)
    where
        K: Debug,
    {
        self.root.check_invariants(self.order, true, None, None);
        assert_eq!(
            self.iter().count(),
            self.len,
            "len out of sync with contents"
        );
    }
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// In-order iterator over a key range.
///
/// Maintains an explicit descent stack of `(internal node, next child)`
/// pairs instead of leaf-sibling links (links would require interior
/// mutability or unsafe back-edges; a stack is simpler and equally fast for
/// in-memory nodes).
pub struct RangeIter<'a, K: Ord + Clone, V> {
    stack: Vec<(&'a Node<K, V>, usize)>,
    leaf: Option<(&'a Node<K, V>, usize)>,
    hi: Bound<&'a K>,
    done: bool,
}

impl<'a, K: Ord + Clone, V> RangeIter<'a, K, V> {
    fn new(root: &'a Node<K, V>, lo: Bound<&'a K>, hi: Bound<&'a K>) -> Self {
        let mut it = RangeIter {
            stack: Vec::new(),
            leaf: None,
            hi,
            done: false,
        };
        it.descend_to_lower_bound(root, lo);
        it
    }

    fn descend_to_lower_bound(&mut self, root: &'a Node<K, V>, lo: Bound<&'a K>) {
        let mut node = root;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let child_idx = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(k) => keys.partition_point(|key| key <= k),
                        Bound::Excluded(k) => keys.partition_point(|key| key <= k),
                    };
                    self.stack.push((node, child_idx + 1));
                    node = &children[child_idx];
                }
                Node::Leaf { keys, .. } => {
                    let start = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(k) => keys.partition_point(|key| key < k),
                        Bound::Excluded(k) => keys.partition_point(|key| key <= k),
                    };
                    self.leaf = Some((node, start));
                    return;
                }
            }
        }
    }

    /// Advance to the next leaf in key order, popping exhausted internals.
    fn advance_leaf(&mut self) {
        while let Some((node, next_child)) = self.stack.pop() {
            let Node::Internal { children, .. } = node else {
                unreachable!()
            };
            if next_child < children.len() {
                self.stack.push((node, next_child + 1));
                // Descend along the leftmost spine of the next subtree.
                let mut cur = &children[next_child];
                loop {
                    match cur {
                        Node::Internal { children, .. } => {
                            self.stack.push((cur, 1));
                            cur = &children[0];
                        }
                        Node::Leaf { .. } => {
                            self.leaf = Some((cur, 0));
                            return;
                        }
                    }
                }
            }
        }
        self.done = true;
    }

    fn within_upper(&self, key: &K) -> bool {
        match self.hi {
            Bound::Unbounded => true,
            Bound::Included(hi) => key <= hi,
            Bound::Excluded(hi) => key < hi,
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            let Some((leaf, idx)) = self.leaf else {
                self.advance_leaf();
                continue;
            };
            let Node::Leaf { keys, values } = leaf else {
                unreachable!()
            };
            if idx >= keys.len() {
                self.leaf = None;
                self.advance_leaf();
                continue;
            }
            let key = &keys[idx];
            if !self.within_upper(key) {
                self.done = true;
                return None;
            }
            self.leaf = Some((leaf, idx + 1));
            return Some((key, &values[idx]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(n: usize, order: usize) -> BPlusTree<i64, i64> {
        let mut t = BPlusTree::with_order(order);
        for i in 0..n as i64 {
            assert_eq!(t.insert(i, i * 10), None);
        }
        t
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new();
        assert!(t.is_empty());
        t.insert(5, "five");
        t.insert(1, "one");
        t.insert(9, "nine");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&5), Some(&"five"));
        assert_eq!(t.get(&1), Some(&"one"));
        assert_eq!(t.get(&2), None);
        t.check_invariants();
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn splits_preserve_all_keys_sequential() {
        let t = tree_with(10_000, 4);
        assert_eq!(t.len(), 10_000);
        assert!(t.height() > 3, "order-4 tree of 10k keys must be tall");
        for i in 0..10_000i64 {
            assert_eq!(t.get(&i), Some(&(i * 10)), "missing key {i}");
        }
        t.check_invariants();
    }

    #[test]
    fn splits_preserve_all_keys_reverse_and_shuffled() {
        for order in [4, 5, 8, 64] {
            let mut t = BPlusTree::with_order(order);
            for i in (0..2000i64).rev() {
                t.insert(i, i);
            }
            t.check_invariants();
            // Interleave a shuffled batch.
            let mut keys: Vec<i64> = (2000..4000).collect();
            let mut rng = rede_common::Xoshiro256::new(1);
            rng.shuffle(&mut keys);
            for k in keys {
                t.insert(k, k);
            }
            t.check_invariants();
            assert_eq!(t.len(), 4000);
            for i in 0..4000i64 {
                assert_eq!(t.get(&i), Some(&i));
            }
        }
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let t = tree_with(1000, 5);
        let collected: Vec<i64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(collected, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn range_inclusive_bounds() {
        let t = tree_with(100, 4);
        let got: Vec<i64> = t.range_inclusive(&10, &20).map(|(k, _)| *k).collect();
        assert_eq!(got, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn range_exclusive_and_open_bounds() {
        let t = tree_with(50, 4);
        let got: Vec<i64> = t
            .range(Bound::Excluded(&10), Bound::Excluded(&15))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, vec![11, 12, 13, 14]);
        let from: Vec<i64> = t
            .range(Bound::Included(&47), Bound::Unbounded)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(from, vec![47, 48, 49]);
        let upto: Vec<i64> = t
            .range(Bound::Unbounded, Bound::Excluded(&3))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(upto, vec![0, 1, 2]);
    }

    #[test]
    fn range_misses_and_empty_ranges() {
        let mut t = BPlusTree::with_order(4);
        for i in (0..100i64).step_by(10) {
            t.insert(i, i);
        }
        // Bounds between keys.
        let got: Vec<i64> = t.range_inclusive(&11, &39).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![20, 30]);
        // Entirely out of range.
        assert_eq!(t.range_inclusive(&101, &200).count(), 0);
        assert_eq!(t.range_inclusive(&-10, &-1).count(), 0);
        // Inverted bounds yield nothing.
        assert_eq!(t.range_inclusive(&50, &40).count(), 0);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn tiny_order_rejected() {
        let _: BPlusTree<i64, ()> = BPlusTree::with_order(2);
    }

    #[test]
    fn get_many_matches_get_in_input_order() {
        let t = tree_with(5000, 8);
        let mut rng = rede_common::Xoshiro256::new(7);
        let keys: Vec<i64> = (0..400).map(|_| rng.gen_range(6000) as i64 - 500).collect();
        let (got, descents) = t.get_many(&keys);
        assert_eq!(got.len(), keys.len());
        assert!(descents <= keys.len());
        for (k, v) in keys.iter().zip(&got) {
            assert_eq!(*v, t.get(k), "mismatch at key {k}");
        }
    }

    #[test]
    fn get_many_shares_descents_across_adjacent_keys() {
        let t = tree_with(10_000, 64);
        // A dense run of adjacent keys spans few leaves: descents must be
        // roughly n / (keys-per-leaf), far below one per probe.
        let keys: Vec<i64> = (2000..2512).collect();
        let (got, descents) = t.get_many(&keys);
        assert!(got.iter().all(|v| v.is_some()));
        assert!(
            descents <= keys.len() / 8,
            "512 adjacent probes took {descents} descents; descent sharing broken"
        );
        // Input order is preserved even when probe order is shuffled.
        let mut shuffled = keys.clone();
        rede_common::Xoshiro256::new(3).shuffle(&mut shuffled);
        let (got2, _) = t.get_many(&shuffled);
        for (k, v) in shuffled.iter().zip(&got2) {
            assert_eq!(*v, Some(&(k * 10)));
        }
    }

    #[test]
    fn get_many_handles_duplicates_misses_and_empty() {
        let t = tree_with(100, 4);
        let keys = vec![5, 5, -1, 200, 5, 99];
        let (got, _) = t.get_many(&keys);
        assert_eq!(got[0], Some(&50));
        assert_eq!(got[1], Some(&50));
        assert_eq!(got[2], None);
        assert_eq!(got[3], None);
        assert_eq!(got[4], Some(&50));
        assert_eq!(got[5], Some(&990));
        let (empty, descents) = t.get_many(&[]);
        assert!(empty.is_empty());
        assert_eq!(descents, 0);
        // A lone-leaf tree still answers.
        let mut small = BPlusTree::with_order(4);
        small.insert(1i64, 1i64);
        let (one, d) = small.get_many(&[1, 2]);
        assert_eq!(one, vec![Some(&1), None]);
        assert_eq!(d, 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = tree_with(100, 4);
        *t.get_mut(&50).unwrap() = 777;
        assert_eq!(t.get(&50), Some(&777));
        assert_eq!(t.get_mut(&1000), None);
    }
}
