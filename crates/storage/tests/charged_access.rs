//! Charged-access regressions: the IOPS permit must cover only *device*
//! time, never network time.
//!
//! A remote probe or read spends `remote - local` of its latency on the
//! wire. Holding the owner's admission permit through that sleep would
//! mean one slow remote reader occupies a disk-queue slot for the whole
//! RTT and falsely throttles the owner's local readers — with
//! `queue_depth = 1` a single remote access would serialize the entire
//! node for hundreds of device-times.

use rede_common::Value;
use rede_storage::{
    FileSpec, IndexEntry, IndexSpec, IoModel, Partitioning, Pointer, Record, SimCluster,
};
use std::time::{Duration, Instant};

/// A two-node cluster whose I/O model has a tiny device time and a huge
/// RTT, with a per-node queue depth of one.
fn tight_queue_cluster() -> SimCluster {
    let io = IoModel {
        local_point_read: Duration::from_millis(1),
        remote_point_read: Duration::from_millis(401), // RTT = 400ms
        scan_per_record: Duration::ZERO,
        index_lookup: Duration::from_millis(1),
        page_fault: Duration::ZERO,
        wal_fsync: Duration::ZERO,
        queue_depth: 1,
        wire_window: 16,
    };
    SimCluster::builder().nodes(2).io_model(io).build().unwrap()
}

#[test]
fn remote_index_probe_does_not_hold_the_permit_through_the_rtt() {
    let c = tight_queue_cluster();
    c.create_file(FileSpec::new("base", Partitioning::hash(2)))
        .unwrap();
    let ix = c.create_index(IndexSpec::global("ix", "base", 2)).unwrap();
    let key = Value::Int(7);
    ix.insert(
        key.clone(),
        IndexEntry::new(key.clone(), key.clone()).to_record(),
    )
    .unwrap();
    let partition = ix.raw().probe_partitions_for_key(&key)[0];
    let owner = c.node_of_partition(partition);
    let remote_node = (owner + 1) % c.nodes();

    std::thread::scope(|s| {
        let (c_remote, ix_remote, key_remote) = (c.clone(), ix.clone(), key.clone());
        let remote = s.spawn(move || {
            let t = Instant::now();
            let hits = ix_remote.lookup(&key_remote, remote_node).unwrap();
            assert_eq!(hits.len(), 1);
            drop(c_remote);
            t.elapsed()
        });
        // Let the remote probe pass its 1ms device slot and enter the
        // 400ms RTT sleep, then probe locally against the same owner.
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        let hits = ix.lookup(&key, owner).unwrap();
        let local_elapsed = t.elapsed();
        assert_eq!(hits.len(), 1);
        let remote_elapsed = remote.join().unwrap();
        assert!(
            remote_elapsed >= Duration::from_millis(400),
            "remote probe must still pay the full RTT, took {remote_elapsed:?}"
        );
        assert!(
            local_elapsed < Duration::from_millis(200),
            "local probe waited on a permit held through the RTT: {local_elapsed:?}"
        );
    });
}

#[test]
fn remote_point_read_does_not_hold_the_permit_through_the_rtt() {
    let c = tight_queue_cluster();
    let f = c
        .create_file(FileSpec::new("t", Partitioning::hash(2)))
        .unwrap();
    for i in 0..16i64 {
        f.insert(Value::Int(i), Record::from_text(&format!("r{i}")))
            .unwrap();
    }
    let key = Value::Int(3);
    let partition = f.partition_of(&key);
    let owner = c.node_of_partition(partition);
    let remote_node = (owner + 1) % c.nodes();
    let ptr = Pointer::logical("t", key.clone(), key);

    std::thread::scope(|s| {
        let (c_remote, ptr_remote) = (c.clone(), ptr.clone());
        let remote = s.spawn(move || {
            let t = Instant::now();
            c_remote.resolve(&ptr_remote, remote_node).unwrap();
            t.elapsed()
        });
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        c.resolve(&ptr, owner).unwrap();
        let local_elapsed = t.elapsed();
        let remote_elapsed = remote.join().unwrap();
        assert!(
            remote_elapsed >= Duration::from_millis(400),
            "remote read must still pay the full remote latency, took {remote_elapsed:?}"
        );
        assert!(
            local_elapsed < Duration::from_millis(200),
            "local read waited on a permit held through the RTT: {local_elapsed:?}"
        );
    });
}
