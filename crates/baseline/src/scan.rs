//! Statically parallel, charged external-table scans.
//!
//! The defining property of the baseline's access path: every query reads
//! its input files in full, with parallelism fixed at
//! `nodes × cores_per_node` worker threads ("dozens of statically defined
//! parallelism, usually matching the number of CPU cores"). Workers pull
//! whole partitions off a shared list; each batch read is charged
//! per-record scan latency by the storage layer.

use crate::expr::Expr;
use crate::row::{RowBatch, RowParser};
use parking_lot::Mutex;
use rede_common::{Counter, RedeError, Result};
use rede_storage::{FileHandle, Owed, SimCluster, SCAN_BATCH};
use std::collections::VecDeque;

/// How the engine's scan shuffle relates to partition placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleLocality {
    /// Placement-blind and uncharged — the engine's original model, where
    /// "placement is implicit" and every partition streams at local cost
    /// regardless of which worker reads it.
    #[default]
    Implicit,
    /// Placement-blind worker assignment with a *charged* shuffle: every
    /// scan batch a worker pulls from a partition its home node does not
    /// own pays one network RTT (and counts one remote RTT).
    Remote,
    /// Locality-aware shuffle: workers drain their home node's partitions
    /// first (free local streams) and only steal still-unscanned remote
    /// partitions — paying the RTT per batch — once their own node is dry.
    Local,
}

/// Scan `file` in full with `workers` threads, parse every record with
/// `parser`, keep rows passing `predicate` (if any). Returns the surviving
/// batches. Placement-blind and shuffle-uncharged
/// ([`ShuffleLocality::Implicit`]).
pub fn parallel_scan(
    cluster: &SimCluster,
    file: &FileHandle,
    parser: &RowParser,
    predicate: Option<&Expr>,
    workers: usize,
) -> Result<Vec<RowBatch>> {
    parallel_scan_with_locality(
        cluster,
        file,
        parser,
        predicate,
        workers,
        ShuffleLocality::Implicit,
    )
}

/// [`parallel_scan`] with an explicit shuffle-locality model. Worker `w`'s
/// home node is `w % nodes`; under the charged models, every scan batch
/// pulled from a partition owned elsewhere pays one network RTT.
pub fn parallel_scan_with_locality(
    cluster: &SimCluster,
    file: &FileHandle,
    parser: &RowParser,
    predicate: Option<&Expr>,
    workers: usize,
    locality: ShuffleLocality,
) -> Result<Vec<RowBatch>> {
    let workers = workers.max(1);
    let partitions = file.partitions();
    let nodes = cluster.nodes().max(1);
    // Work lists: one global FIFO for the placement-blind modes, one per
    // node for locality-aware draining-then-stealing.
    let queues: Vec<Mutex<VecDeque<usize>>> = match locality {
        ShuffleLocality::Implicit | ShuffleLocality::Remote => {
            vec![Mutex::new((0..partitions).collect())]
        }
        ShuffleLocality::Local => {
            let mut per_node: Vec<VecDeque<usize>> = vec![VecDeque::new(); nodes];
            for p in 0..partitions {
                per_node[cluster.node_of_partition(p)].push_back(p);
            }
            per_node.into_iter().map(Mutex::new).collect()
        }
    };
    let out: Mutex<Vec<RowBatch>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<RedeError>> = Mutex::new(Vec::new());
    let charged = locality != ShuffleLocality::Implicit;

    std::thread::scope(|s| {
        let queues = &queues;
        let out = &out;
        let errors = &errors;
        for w in 0..workers.min(partitions.max(1)) {
            let home = w % nodes;
            s.spawn(move || loop {
                let p = match queues.len() {
                    1 => queues[0].lock().pop_front(),
                    n => (0..n).find_map(|i| queues[(home + i) % n].lock().pop_front()),
                };
                let Some(p) = p else { return };
                let remote = charged && cluster.node_of_partition(p) != home;
                let mut rows = Vec::new();
                let mut start = 0;
                loop {
                    let (slots, visited) = match file.read_slots(p, start, SCAN_BATCH) {
                        Ok(read) => read,
                        Err(e) => {
                            errors.lock().push(e);
                            return;
                        }
                    };
                    if visited == 0 {
                        break;
                    }
                    if remote {
                        // One shuffle hop per pulled batch: one round trip,
                        // waited through the cluster like the scan itself.
                        cluster.metrics().add(Counter::remote_rtts, 1);
                        let mut hop = Owed::default();
                        hop.delay(cluster.io_model().rtt());
                        cluster.wait(hop);
                    }
                    start += visited;
                    for (_, record) in &slots {
                        match parser.parse(record) {
                            Ok(row) => {
                                let keep = match predicate {
                                    Some(pred) => match pred.eval_bool(&row) {
                                        Ok(k) => k,
                                        Err(e) => {
                                            errors.lock().push(e);
                                            return;
                                        }
                                    },
                                    None => true,
                                };
                                if keep {
                                    rows.push(row);
                                }
                            }
                            Err(e) => {
                                errors.lock().push(e);
                                return;
                            }
                        }
                    }
                }
                if !rows.is_empty() {
                    out.lock().push(RowBatch {
                        schema: parser.schema().clone(),
                        rows,
                    });
                }
            });
        }
    });

    let errors = errors.into_inner();
    if let Some(first) = errors.into_iter().next() {
        return Err(first);
    }
    Ok(out.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{ColType, Schema};
    use rede_common::Value;
    use rede_storage::{FileSpec, IoModel, Partitioning, Record};
    use std::time::{Duration, Instant};

    fn fixture(n: i64) -> (SimCluster, FileHandle, RowParser) {
        fixture_with(n, IoModel::zero())
    }

    fn fixture_with(n: i64, io: IoModel) -> (SimCluster, FileHandle, RowParser) {
        let c = SimCluster::builder().nodes(2).io_model(io).build().unwrap();
        let f = c
            .create_file(FileSpec::new("t", Partitioning::hash(4)))
            .unwrap();
        for i in 0..n {
            f.insert(Value::Int(i), Record::from_text(&format!("{i}|{}", i % 5)))
                .unwrap();
        }
        let parser = RowParser::new(
            Schema::new(vec![("id", ColType::Int), ("grp", ColType::Int)]),
            '|',
        );
        (c, f, parser)
    }

    #[test]
    fn scans_everything_once() {
        let (c, f, parser) = fixture(500);
        let batches = parallel_scan(&c, &f, &parser, None, 8).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 500);
        assert_eq!(c.metrics().snapshot().scanned_records, 500);
    }

    #[test]
    fn predicate_pushdown_filters_at_scan() {
        let (c, f, parser) = fixture(500);
        let pred = Expr::col(1).eq(Expr::lit(2i64));
        let batches = parallel_scan(&c, &f, &parser, Some(&pred), 4).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 100);
        // Still scanned all records (no index — that is the point).
        assert_eq!(c.metrics().snapshot().scanned_records, 500);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (c, f, parser) = fixture(300);
        for workers in [1, 2, 16] {
            let batches = parallel_scan(&c, &f, &parser, None, workers).unwrap();
            let total: usize = batches.iter().map(|b| b.len()).sum();
            assert_eq!(total, 300, "workers={workers}");
        }
    }

    #[test]
    fn parse_errors_abort_scan() {
        let c = SimCluster::builder().nodes(1).build().unwrap();
        let f = c
            .create_file(FileSpec::new("t", Partitioning::hash(1)))
            .unwrap();
        f.insert(Value::Int(0), Record::from_text("not-an-int|1"))
            .unwrap();
        let parser = RowParser::new(Schema::new(vec![("id", ColType::Int)]), '|');
        assert!(parallel_scan(&c, &f, &parser, None, 2).is_err());
    }

    #[test]
    fn empty_file_scans_cleanly() {
        let (c, f, parser) = fixture(0);
        let batches = parallel_scan(&c, &f, &parser, None, 4).unwrap();
        assert!(batches.is_empty());
    }

    #[test]
    fn implicit_shuffle_charges_no_rtts() {
        let (c, f, parser) = fixture(500);
        let batches = parallel_scan(&c, &f, &parser, None, 8).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 500);
        assert_eq!(c.metrics().snapshot().remote_rtts, 0);
    }

    #[test]
    fn remote_shuffle_pays_one_rtt_per_cross_node_batch() {
        let (c, f, parser) = fixture(500);
        // One worker, home node 0: the two partitions owned by node 1 are
        // each one remote batch (500 rows < SCAN_BATCH per partition).
        let batches =
            parallel_scan_with_locality(&c, &f, &parser, None, 1, ShuffleLocality::Remote).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 500);
        let remote_partitions = (0..f.partitions())
            .filter(|&p| c.node_of_partition(p) != 0)
            .count() as u64;
        assert_eq!(remote_partitions, 2);
        assert_eq!(c.metrics().snapshot().remote_rtts, remote_partitions);
    }

    #[test]
    fn a_remote_shuffle_waits_one_rtt_per_remote_batch() {
        let rtt = Duration::from_millis(5);
        let (c, f, parser) = fixture_with(
            500,
            IoModel {
                remote_point_read: rtt,
                ..IoModel::zero()
            },
        );
        let start = Instant::now();
        parallel_scan_with_locality(&c, &f, &parser, None, 1, ShuffleLocality::Remote).unwrap();
        let wall = start.elapsed();
        let hops = c.metrics().snapshot().remote_rtts;
        assert_eq!(hops, 2, "one worker pulls node 1's two partitions");
        assert!(
            wall >= rtt * hops as u32,
            "{hops} shuffle hops on one worker wait one RTT each: {wall:?}"
        );
    }

    #[test]
    fn local_shuffle_covers_every_partition_and_steals_at_rtt_cost() {
        let (c, f, parser) = fixture(500);
        // A single worker (home 0) must still scan node 1's partitions —
        // by stealing them, at one RTT per batch, after its own are dry.
        let batches =
            parallel_scan_with_locality(&c, &f, &parser, None, 1, ShuffleLocality::Local).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 500);
        assert_eq!(c.metrics().snapshot().remote_rtts, 2, "stolen partitions");

        // With a worker per node, locality-aware scheduling never *needs*
        // to steal; it may only pay at most what the blind model pays.
        let (c2, f2, parser2) = fixture(500);
        let batches =
            parallel_scan_with_locality(&c2, &f2, &parser2, None, 2, ShuffleLocality::Local)
                .unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 500);
        assert!(c2.metrics().snapshot().remote_rtts <= 2);
    }
}
