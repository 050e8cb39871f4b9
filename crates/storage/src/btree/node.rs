//! B+-tree node representation and the split algorithms.
//!
//! Routing invariant: in an internal node, separator `keys[i]` is a lower
//! bound (inclusive) for everything under `children[i + 1]` and a strict
//! upper bound for everything under `children[0..=i]`. Lookups therefore
//! descend into `children[partition_point(keys, |k| k <= target)]`.

use std::fmt::Debug;

/// Minimum supported order; below this a split cannot produce two nodes
/// that both satisfy the minimum-occupancy constraint.
pub const MIN_ORDER: usize = 4;

/// One tree node. All data lives in leaves; internals hold separators.
pub enum Node<K, V> {
    Internal {
        keys: Vec<K>,
        children: Vec<Node<K, V>>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
    },
}

/// Result of an insertion into a subtree.
pub enum InsertOutcome<K, V> {
    /// Key existed; value replaced.
    Replaced(V),
    /// New key inserted, no structural change visible to the parent.
    Inserted,
    /// New key inserted and this node split: the parent must add the
    /// separator and the new right sibling.
    Split(K, Node<K, V>),
}

impl<K: Ord + Clone, V> Node<K, V> {
    /// A fresh empty leaf (the initial root).
    pub fn empty_leaf() -> Self {
        Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build a new root after the old root split.
    pub fn new_root(sep: K, left: Node<K, V>, right: Node<K, V>) -> Self {
        Node::Internal {
            keys: vec![sep],
            children: vec![left, right],
        }
    }

    /// Child index that `key` routes to.
    #[inline]
    fn route(keys: &[K], key: &K) -> usize {
        keys.partition_point(|k| k <= key)
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = self;
        loop {
            match node {
                Node::Internal { keys, children } => node = &children[Self::route(keys, key)],
                Node::Leaf { keys, values } => {
                    return keys.binary_search(key).ok().map(|i| &values[i]);
                }
            }
        }
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut node = self;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = Self::route(keys, key);
                    node = &mut children[idx];
                }
                Node::Leaf { keys, values } => {
                    return keys.binary_search(key).ok().map(|i| &mut values[i]);
                }
            }
        }
    }

    pub fn height(&self) -> usize {
        match self {
            Node::Internal { children, .. } => 1 + children[0].height(),
            Node::Leaf { .. } => 1,
        }
    }

    pub fn insert(&mut self, key: K, value: V, order: usize) -> InsertOutcome<K, V> {
        match self {
            Node::Leaf { keys, values } => match keys.binary_search(&key) {
                Ok(i) => InsertOutcome::Replaced(std::mem::replace(&mut values[i], value)),
                Err(i) => {
                    keys.insert(i, key);
                    values.insert(i, value);
                    if keys.len() > order {
                        let (sep, right) = self.split_leaf();
                        InsertOutcome::Split(sep, right)
                    } else {
                        InsertOutcome::Inserted
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = Self::route(keys, &key);
                match children[idx].insert(key, value, order) {
                    InsertOutcome::Split(sep, right) => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() > order {
                            let (sep, right) = self.split_internal();
                            InsertOutcome::Split(sep, right)
                        } else {
                            InsertOutcome::Inserted
                        }
                    }
                    other => other,
                }
            }
        }
    }

    /// Split an over-full leaf in half; returns `(separator, right)` where
    /// the separator is the right half's first key.
    fn split_leaf(&mut self) -> (K, Node<K, V>) {
        let Node::Leaf { keys, values } = self else {
            unreachable!("split_leaf on internal")
        };
        let mid = keys.len() / 2;
        let right_keys: Vec<K> = keys.split_off(mid);
        let right_values: Vec<V> = values.split_off(mid);
        let sep = right_keys[0].clone();
        (
            sep,
            Node::Leaf {
                keys: right_keys,
                values: right_values,
            },
        )
    }

    /// Split an over-full internal node; the middle separator moves up.
    fn split_internal(&mut self) -> (K, Node<K, V>) {
        let Node::Internal { keys, children } = self else {
            unreachable!("split_internal on leaf")
        };
        let mid = keys.len() / 2;
        let right_keys: Vec<K> = keys.split_off(mid + 1);
        let sep = keys.pop().expect("mid separator");
        let right_children: Vec<Node<K, V>> = children.split_off(mid + 1);
        (
            sep,
            Node::Internal {
                keys: right_keys,
                children: right_children,
            },
        )
    }

    /// Recursively validate occupancy, ordering, routing bounds, and uniform
    /// leaf depth. Returns the subtree height.
    pub fn check_invariants(
        &self,
        order: usize,
        is_root: bool,
        lo: Option<&K>,
        hi: Option<&K>,
    ) -> usize
    where
        K: Debug,
    {
        let min = order / 2;
        match self {
            Node::Leaf { keys, values } => {
                assert_eq!(keys.len(), values.len(), "leaf keys/values out of sync");
                assert!(
                    keys.len() <= order,
                    "leaf overfull: {} > {order}",
                    keys.len()
                );
                if !is_root {
                    assert!(keys.len() >= min, "leaf underfull: {} < {min}", keys.len());
                }
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "leaf keys not strictly sorted"
                );
                if let (Some(lo), Some(first)) = (lo, keys.first()) {
                    assert!(first >= lo, "leaf key {first:?} below bound {lo:?}");
                }
                if let (Some(hi), Some(last)) = (hi, keys.last()) {
                    assert!(last < hi, "leaf key {last:?} not below bound {hi:?}");
                }
                1
            }
            Node::Internal { keys, children } => {
                assert!(
                    !is_root || !keys.is_empty(),
                    "internal root must have a separator"
                );
                assert_eq!(
                    children.len(),
                    keys.len() + 1,
                    "children/keys arity mismatch"
                );
                assert!(keys.len() <= order, "internal overfull");
                if !is_root {
                    assert!(
                        keys.len() >= min,
                        "internal underfull: {} < {min}",
                        keys.len()
                    );
                }
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "separators not strictly sorted"
                );
                if let (Some(lo), Some(first)) = (lo, keys.first()) {
                    assert!(first >= lo, "separator below subtree bound");
                }
                if let (Some(hi), Some(last)) = (hi, keys.last()) {
                    assert!(last < hi, "separator above subtree bound");
                }
                let mut heights = Vec::with_capacity(children.len());
                for (i, child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    heights.push(child.check_invariants(order, false, child_lo, child_hi));
                }
                assert!(
                    heights.windows(2).all(|w| w[0] == w[1]),
                    "leaves at differing depths: {heights:?}"
                );
                1 + heights[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_boundaries() {
        let keys = vec![10, 20, 30];
        assert_eq!(Node::<i32, ()>::route(&keys, &5), 0);
        assert_eq!(
            Node::<i32, ()>::route(&keys, &10),
            1,
            "equal key routes right"
        );
        assert_eq!(Node::<i32, ()>::route(&keys, &15), 1);
        assert_eq!(Node::<i32, ()>::route(&keys, &30), 3);
        assert_eq!(Node::<i32, ()>::route(&keys, &99), 3);
    }

    #[test]
    fn leaf_split_halves() {
        let mut leaf: Node<i32, i32> = Node::Leaf {
            keys: vec![1, 2, 3, 4, 5],
            values: vec![10, 20, 30, 40, 50],
        };
        let (sep, right) = leaf.split_leaf();
        assert_eq!(sep, 3);
        let keys = |node: &Node<i32, i32>| match node {
            Node::Leaf { keys, .. } => keys.clone(),
            Node::Internal { .. } => unreachable!("a leaf splits into leaves"),
        };
        assert_eq!(keys(&leaf), [1, 2]);
        assert_eq!(keys(&right), [3, 4, 5]);
    }
}
