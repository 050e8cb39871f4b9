//! Partitioners: map a partition key to a partition index.
//!
//! The paper's `File` "takes a partition key from a given Pointer, applies
//! it to a pre-configured Partitioner (e.g., HashPartitioner or
//! RangePartitioner) to locate a partition". Both are implemented here
//! behind the [`Partitioner`] trait; [`Partitioning`] is the declarative
//! spec stored in file metadata.

use rede_common::{fxhash, RedeError, Result, Value};
use std::sync::Arc;

/// Most partitions a spec may produce. Each is a store of its own, so a
/// count read from an untrusted image (a WAL frame) must not size an
/// allocation unchecked.
pub const MAX_PARTITIONS: usize = 1 << 16;

/// Declarative partitioning spec attached to a file at creation time.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioning {
    /// Hash the partition key into `partitions` buckets.
    Hash { partitions: usize, seed: u64 },
    /// Range-partition by sorted upper boundaries; keys above the last
    /// boundary go to the final partition (`boundaries.len()` partitions +1).
    Range { boundaries: Vec<Value> },
}

impl Partitioning {
    /// Hash partitioning with a default seed.
    pub fn hash(partitions: usize) -> Partitioning {
        Partitioning::Hash {
            partitions,
            seed: 0x5eed,
        }
    }

    /// Range partitioning over sorted boundaries.
    pub fn range(boundaries: Vec<Value>) -> Partitioning {
        Partitioning::Range { boundaries }
    }

    /// Number of partitions this spec produces.
    pub fn partitions(&self) -> usize {
        match self {
            Partitioning::Hash { partitions, .. } => *partitions,
            Partitioning::Range { boundaries } => boundaries.len() + 1,
        }
    }

    /// Validate and compile into a runnable [`Partitioner`].
    pub fn build(&self) -> Result<Arc<dyn Partitioner>> {
        if self.partitions() > MAX_PARTITIONS {
            return Err(RedeError::Config(format!(
                "{} partitions exceed the {MAX_PARTITIONS} limit",
                self.partitions()
            )));
        }
        match self {
            Partitioning::Hash { partitions, seed } => {
                if *partitions == 0 {
                    return Err(RedeError::Config(
                        "hash partitioning needs >=1 partition".into(),
                    ));
                }
                Ok(Arc::new(HashPartitioner {
                    partitions: *partitions,
                    seed: *seed,
                }))
            }
            Partitioning::Range { boundaries } => {
                if boundaries.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(RedeError::Config(
                        "range boundaries must be strictly increasing".into(),
                    ));
                }
                Ok(Arc::new(RangePartitioner {
                    boundaries: boundaries.clone(),
                }))
            }
        }
    }
}

/// Maps partition keys to partition indexes.
pub trait Partitioner: Send + Sync {
    /// The partition owning `key`.
    fn partition_of(&self, key: &Value) -> usize;

    /// Total number of partitions.
    fn partitions(&self) -> usize;

    /// Partitions that may hold keys in the inclusive range `[lo, hi]`.
    ///
    /// A hash partitioner cannot bound a range, so it returns all
    /// partitions; a range partitioner returns the covering span. Index
    /// range probes use this to avoid touching irrelevant partitions.
    fn partitions_for_range(&self, lo: &Value, hi: &Value) -> Vec<usize>;
}

/// Fx-hash based partitioner.
#[derive(Debug)]
pub struct HashPartitioner {
    partitions: usize,
    seed: u64,
}

impl Partitioner for HashPartitioner {
    fn partition_of(&self, key: &Value) -> usize {
        let hash = key.with_hash_bytes(|bytes| fxhash::hash_bytes(self.seed, bytes));
        (hash % self.partitions as u64) as usize
    }

    fn partitions(&self) -> usize {
        self.partitions
    }

    fn partitions_for_range(&self, _lo: &Value, _hi: &Value) -> Vec<usize> {
        (0..self.partitions).collect()
    }
}

/// Sorted-boundary range partitioner.
///
/// Partition `i` holds keys `<= boundaries[i]` (and greater than
/// `boundaries[i-1]`); the final partition holds everything above the last
/// boundary.
#[derive(Debug)]
pub struct RangePartitioner {
    boundaries: Vec<Value>,
}

impl Partitioner for RangePartitioner {
    fn partition_of(&self, key: &Value) -> usize {
        self.boundaries.partition_point(|b| b < key)
    }

    fn partitions(&self) -> usize {
        self.boundaries.len() + 1
    }

    fn partitions_for_range(&self, lo: &Value, hi: &Value) -> Vec<usize> {
        let first = self.partition_of(lo);
        let last = self.partition_of(hi);
        (first..=last).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = Partitioning::hash(8).build().unwrap();
        for i in 0..1000 {
            let part = p.partition_of(&Value::Int(i));
            assert!(part < 8);
            assert_eq!(part, p.partition_of(&Value::Int(i)));
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = Partitioning::hash(8).build().unwrap();
        let mut counts = [0u32; 8];
        for i in 0..8000 {
            counts[p.partition_of(&Value::Int(i))] += 1;
        }
        for &c in &counts {
            assert!((600..=1400).contains(&c), "bad spread: {counts:?}");
        }
    }

    #[test]
    fn range_partitioner_assigns_spans() {
        let p = Partitioning::range(vec![Value::Int(10), Value::Int(20)])
            .build()
            .unwrap();
        assert_eq!(p.partitions(), 3);
        assert_eq!(p.partition_of(&Value::Int(5)), 0);
        assert_eq!(p.partition_of(&Value::Int(10)), 0);
        assert_eq!(p.partition_of(&Value::Int(11)), 1);
        assert_eq!(p.partition_of(&Value::Int(20)), 1);
        assert_eq!(p.partition_of(&Value::Int(21)), 2);
    }

    #[test]
    fn range_partitioner_bounds_range_probes() {
        let p = Partitioning::range(vec![Value::Int(10), Value::Int(20), Value::Int(30)])
            .build()
            .unwrap();
        assert_eq!(
            p.partitions_for_range(&Value::Int(12), &Value::Int(25)),
            vec![1, 2]
        );
        assert_eq!(
            p.partitions_for_range(&Value::Int(0), &Value::Int(5)),
            vec![0]
        );
        assert_eq!(
            p.partitions_for_range(&Value::Int(0), &Value::Int(100)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn hash_partitioner_range_probe_covers_all() {
        let p = Partitioning::hash(4).build().unwrap();
        assert_eq!(
            p.partitions_for_range(&Value::Int(0), &Value::Int(1)),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(Partitioning::Hash {
            partitions: 0,
            seed: 0
        }
        .build()
        .is_err());
        assert!(Partitioning::range(vec![Value::Int(5), Value::Int(5)])
            .build()
            .is_err());
        assert!(Partitioning::range(vec![Value::Int(9), Value::Int(2)])
            .build()
            .is_err());
    }

    #[test]
    fn empty_range_boundaries_is_single_partition() {
        let p = Partitioning::range(vec![]).build().unwrap();
        assert_eq!(p.partitions(), 1);
        assert_eq!(p.partition_of(&Value::Int(123)), 0);
    }
}
