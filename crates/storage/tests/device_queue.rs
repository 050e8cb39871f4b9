//! The device model, pinned: moving device time and IOPS admission from
//! sleeping threads to events must not make any access cheaper.
//!
//! Every charged access holds exactly one slot of its serving node's
//! device queue for exactly `latency × brown-out multiplier`; a node never
//! serves more than `queue_depth` at once; the rest wait FIFO. What
//! changed is only that the accesses of one *batch* now overlap on the
//! device the way the same reads issued concurrently always did — never
//! more than that. Timing assertions use ≥ 2 ms latencies with hard lower
//! bounds and loose upper bounds.

use rede_common::{IoScope, Value};
use rede_storage::{
    FaultPlan, FileSpec, IoModel, Partitioning, Pointer, Record, SimCluster, MIN_MEMORY_BUDGET,
    SCAN_BATCH,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

const L: Duration = Duration::from_millis(2);

/// Point reads cost `L`, everything else nothing.
fn read_model(queue_depth: usize) -> IoModel {
    IoModel {
        local_point_read: L,
        remote_point_read: L,
        queue_depth,
        ..IoModel::zero()
    }
}

fn cluster_with(nodes: usize, io: IoModel, faults: Option<FaultPlan>) -> SimCluster {
    let mut b = SimCluster::builder().nodes(nodes).io_model(io);
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    let c = b.build().unwrap();
    let f = c
        .create_file(FileSpec::new("t", Partitioning::hash(2 * nodes)))
        .unwrap();
    for i in 0..256i64 {
        f.insert(Value::Int(i), Record::from_text(&format!("r{i}")))
            .unwrap();
    }
    c
}

fn ptrs(n: i64) -> Vec<Pointer> {
    (0..n)
        .map(|i| Pointer::logical("t", Value::Int(i), Value::Int(i)))
        .collect()
}

/// Resolve every pointer as its own scalar call, all released together;
/// returns how long the slowest took, timed from before the release (a
/// start taken after it could miss reads that were already in service).
fn resolve_concurrently(c: &SimCluster, ptrs: &[Pointer], from_node: usize) -> Duration {
    let barrier = Barrier::new(ptrs.len() + 1);
    let start = std::thread::scope(|s| {
        for p in ptrs {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                c.resolve(p, from_node).unwrap();
            });
        }
        let start = Instant::now();
        barrier.wait();
        start
    });
    start.elapsed()
}

/// How many of `ptrs` each node's device serves (healthy cluster).
fn reads_per_node(c: &SimCluster, ptrs: &[Pointer]) -> Vec<u32> {
    let mut per_node = vec![0u32; c.nodes()];
    for p in ptrs {
        per_node[c.owner_of_pointer(p).unwrap()] += 1;
    }
    per_node
}

/// (i) Saturated throughput is what it was: 64 reads against a device of
/// depth 4 proceed in 16 FIFO waves, as one batch or as 64 callers.
#[test]
fn a_saturated_device_serves_queue_depth_at_a_time() {
    let ptrs = ptrs(64);
    let refs: Vec<&Pointer> = ptrs.iter().collect();

    let c = cluster_with(1, read_model(4), None);
    let start = Instant::now();
    for r in c.resolve_batch(&refs, 0) {
        r.unwrap();
    }
    let batch = start.elapsed();
    assert!(batch >= L * 16, "64 reads / depth 4 = 16 waves: {batch:?}");
    assert!(batch < L * 64, "the waves overlap 4 reads each: {batch:?}");
    assert_eq!(c.device_slot_time(), vec![L * 64]);

    let c = cluster_with(1, read_model(4), None);
    let scalar = resolve_concurrently(&c, &ptrs, 0);
    assert!(scalar >= L * 16, "concurrent callers queue too: {scalar:?}");
    assert_eq!(c.device_slot_time(), vec![L * 64]);

    // Depth 1 is strictly serial, batch or not.
    let c = cluster_with(1, read_model(1), None);
    let start = Instant::now();
    for r in c.resolve_batch(&refs[..8], 0) {
        r.unwrap();
    }
    assert!(start.elapsed() >= L * 8);
}

/// (ii) A batch that fits the device overlaps like concurrent scalar reads
/// do: one device time, not the sum of them.
#[test]
fn a_batch_within_the_queue_depth_takes_one_device_time() {
    let n = 16;
    let c = cluster_with(1, read_model(n), None);
    let ptrs = ptrs(n as i64);
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let start = Instant::now();
    for r in c.resolve_batch(&refs, 0) {
        r.unwrap();
    }
    let wall = start.elapsed();
    assert!(wall >= L, "never cheaper than one access: {wall:?}");
    assert!(
        wall < L * (n as u32) / 2,
        "{n} reads in a depth-{n} queue overlap: {wall:?}"
    );
}

/// (iii) Slot time is conserved: the same pointers cost each device
/// exactly Σ latency × multiplier, as one batch, as concurrent scalar
/// calls, and with a browned-out node.
#[test]
fn slot_time_is_the_same_however_reads_are_grouped() {
    let ptrs = ptrs(48);
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let brownout = || FaultPlan::new(3).with_brownout(2, 0..u64::MAX, 5);
    for plan in [None, Some(brownout())] {
        let mult = |node: usize| if plan.is_some() && node == 2 { 5 } else { 1 };
        let batched = cluster_with(4, read_model(8), plan.clone());
        let expected: Vec<Duration> = reads_per_node(&batched, &ptrs)
            .iter()
            .enumerate()
            .map(|(node, &reads)| L * reads * mult(node))
            .collect();
        for r in batched.resolve_batch(&refs, 0) {
            r.unwrap();
        }
        assert_eq!(batched.device_slot_time(), expected, "one batch");

        let scalar = cluster_with(4, read_model(8), plan.clone());
        resolve_concurrently(&scalar, &ptrs, 0);
        assert_eq!(scalar.device_slot_time(), expected, "concurrent scalar");
    }
}

/// (iv) In-service never exceeds `queue_depth`, and every slot is back at
/// rest — after injected faults, their retries, and a caller that walked
/// away from what it was owed mid-flight.
#[test]
fn slots_never_exceed_capacity_and_all_return() {
    let depth = 3;
    let c = cluster_with(2, read_model(depth), Some(FaultPlan::transient(11, 0.3)));
    let scope = Arc::new(IoScope::new(1));
    let scoped = c.with_io_scope(scope.clone());
    let at_rest = c.available_iops_permits();
    assert_eq!(at_rest, vec![depth; 2]);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                // A slot over capacity would underflow the diagnostic.
                assert!(c.available_iops_permits().iter().all(|&free| free <= depth));
                assert!(scope.permits_held() <= 2 * depth as i64);
                std::thread::yield_now();
            }
        });
        let ptrs = ptrs(40);
        let mut pending: Vec<&Pointer> = ptrs.iter().collect();
        // Abandon the first round mid-flight: charged, owed, never waited.
        let (results, owed) = scoped.resolve_batch_submit(&pending, 0);
        let (landed_tx, landed_rx) = mpsc::channel();
        scoped.settle(0, owed, move || landed_tx.send(()).unwrap());
        pending.retain({
            let mut results = results.into_iter();
            move |_| results.next().unwrap().is_err()
        });
        assert!(!pending.is_empty(), "the plan must inject faults");
        // Retry the faulted subset synchronously, on top of the backlog.
        for r in scoped.resolve_batch(&pending, 0) {
            r.unwrap();
        }
        landed_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(c.available_iops_permits(), at_rest);
    assert_eq!(scope.permits_held(), 0);
    let s = c.metrics().snapshot();
    assert_eq!(s.point_reads(), 40);
    assert!(s.faults_injected > 0);
}

/// (v) Nothing owed is dropped on the synchronous path: page faults are
/// waited one after the other, and a remote batch still waits its round
/// trip after its device time.
#[test]
fn synchronous_reads_wait_page_faults_and_the_round_trip() {
    let page_fault = Duration::from_millis(2);
    let c = SimCluster::builder()
        .nodes(1)
        .memory_budget(MIN_MEMORY_BUDGET)
        .io_model(IoModel {
            page_fault,
            ..IoModel::zero()
        })
        .build()
        .unwrap();
    let f = c
        .create_file(FileSpec::new("wide", Partitioning::hash(2)))
        .unwrap();
    for i in 0..600i64 {
        f.insert(
            Value::Int(i),
            Record::from_text(&format!("row-{i}-{}", "x".repeat(120))),
        )
        .unwrap();
    }
    assert!(c.buffer_stats().evictions > 0, "the load must overflow");
    c.metrics().reset();
    let start = Instant::now();
    for i in (0..600i64).step_by(40) {
        c.resolve(&Pointer::logical("wide", Value::Int(i), Value::Int(i)), 0)
            .unwrap();
    }
    let wall = start.elapsed();
    let faults = c.metrics().snapshot().page_faults;
    assert!(faults > 0, "re-reads must fault evicted pages in");
    assert!(
        wall >= page_fault * faults as u32,
        "{faults} faults are serviced serially: {wall:?}"
    );

    let rtt = Duration::from_millis(20);
    let c = cluster_with(
        4,
        IoModel {
            remote_point_read: L + rtt,
            ..read_model(64)
        },
        None,
    );
    let ptrs = ptrs(32);
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let start = Instant::now();
    for r in c.resolve_batch(&refs, 1) {
        r.unwrap();
    }
    let wall = start.elapsed();
    assert!(
        c.metrics().snapshot().remote_rtts > 0,
        "fixture goes remote"
    );
    assert!(
        wall >= L + rtt,
        "device time, then the round trip: {wall:?}"
    );
    assert!(
        wall < rtt * 3,
        "remote groups share one round trip: {wall:?}"
    );
}

/// (v′) A scan batch waits on the scanning thread for the page faults it
/// took and then its per-record stream time, one after the other.
#[test]
fn a_scan_batch_waits_its_faults_and_its_stream_time() {
    let page_fault = Duration::from_millis(2);
    let scan_per_record = Duration::from_micros(20);
    let c = SimCluster::builder()
        .nodes(1)
        .memory_budget(MIN_MEMORY_BUDGET)
        .io_model(IoModel {
            page_fault,
            scan_per_record,
            ..IoModel::zero()
        })
        .build()
        .unwrap();
    let f = c
        .create_file(FileSpec::new("wide", Partitioning::hash(2)))
        .unwrap();
    for i in 0..600i64 {
        f.insert(
            Value::Int(i),
            Record::from_text(&format!("row-{i}-{}", "x".repeat(120))),
        )
        .unwrap();
    }
    assert!(c.buffer_stats().evictions > 0, "the load must overflow");
    c.metrics().reset();
    let start = Instant::now();
    let (rows, _) = f.read_slots(0, 0, SCAN_BATCH).unwrap();
    let wall = start.elapsed();
    let faults = c.metrics().snapshot().page_faults;
    assert!(faults > 0, "the scan must fault evicted pages in");
    let owed = page_fault * faults as u32 + scan_per_record * rows.len() as u32;
    assert!(
        wall >= owed,
        "{faults} faults and {} rows owe {owed:?}: {wall:?}",
        rows.len()
    );
}

/// (vi) A batch's page faults overlap exactly as concurrent scalar reads'
/// faults do: each read pays its own, and the call waits for the slowest
/// read rather than for every fault in turn — synchronously, from one
/// thread per read, or settled as events. The upper bound is half the
/// same reads' serial wall, measured in the same run, so a loaded box
/// slows the bound with the reads.
#[test]
fn a_batch_waits_its_slowest_fault_like_concurrent_scalar_reads() {
    let page_fault = Duration::from_millis(2);
    // The fixture of the serial test above, loaded four times as far so
    // that the keys read (40 apart, as there) sit on distinct pages the
    // rest of the load evicted: nearly every read faults.
    let evicted = || {
        let c = SimCluster::builder()
            .nodes(1)
            .memory_budget(MIN_MEMORY_BUDGET)
            .io_model(IoModel {
                page_fault,
                ..IoModel::zero()
            })
            .build()
            .unwrap();
        let f = c
            .create_file(FileSpec::new("wide", Partitioning::hash(2)))
            .unwrap();
        for i in 0..2400i64 {
            f.insert(
                Value::Int(i),
                Record::from_text(&format!("row-{i}-{}", "x".repeat(120))),
            )
            .unwrap();
        }
        assert!(c.buffer_stats().evictions > 0, "the load must overflow");
        c.metrics().reset();
        let ptrs: Vec<Pointer> = (0..600i64)
            .step_by(40)
            .map(|i| Pointer::logical("wide", Value::Int(i), Value::Int(i)))
            .collect();
        (c, ptrs)
    };
    // One scalar read at a time waits every fault in turn.
    let (c, ptrs) = evicted();
    let start = Instant::now();
    for p in &ptrs {
        c.resolve(p, 0).unwrap();
    }
    let serial = start.elapsed();
    let faults = c.metrics().snapshot().page_faults;
    assert!(
        faults >= 4,
        "serial: re-reads must fault pages in: {faults}"
    );
    assert!(
        serial >= page_fault * faults as u32,
        "serial: {faults} faults are waited in turn: {serial:?}"
    );
    let within = |how: &str, c: &SimCluster, wall: Duration| {
        let faults = c.metrics().snapshot().page_faults;
        assert!(faults >= 4, "{how}: re-reads must fault pages in: {faults}");
        assert!(wall >= page_fault, "{how}: one fault is waited: {wall:?}");
        assert!(
            wall < serial / 2,
            "{how}: {faults} faults overlap: {wall:?} (one at a time: {serial:?})"
        );
    };

    let (c, ptrs) = evicted();
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let start = Instant::now();
    for r in c.resolve_batch(&refs, 0) {
        r.unwrap();
    }
    within("batch", &c, start.elapsed());

    let (c, ptrs) = evicted();
    within("scalars", &c, resolve_concurrently(&c, &ptrs, 0));

    let (c, ptrs) = evicted();
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let (fired, landed) = mpsc::channel();
    let start = Instant::now();
    let (results, owed) = c.resolve_batch_submit(&refs, 0);
    for r in results {
        r.unwrap();
    }
    c.settle(0, owed, move || {
        let _ = fired.send(start.elapsed());
    });
    let wall = landed.recv_timeout(Duration::from_secs(10)).unwrap();
    within("settled", &c, wall);
}

/// Dropping the last handle settles everything outstanding at once
/// instead of stranding whoever waits on it.
#[test]
fn dropping_the_cluster_fires_outstanding_completions() {
    let hour = Duration::from_secs(3600);
    let c = cluster_with(
        1,
        IoModel {
            local_point_read: hour,
            ..read_model(1)
        },
        None,
    );
    let ptrs = ptrs(3);
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let (results, owed) = c.resolve_batch_submit(&refs, 0);
    assert!(results.iter().all(|r| r.is_ok()) && !owed.is_zero());
    let (tx, rx) = mpsc::channel();
    c.settle(0, owed, move || tx.send(()).unwrap());
    assert_eq!(c.available_iops_permits(), vec![0]);
    drop(c);
    rx.recv_timeout(Duration::from_secs(30))
        .expect("dropping the cluster fires the completion");
}

/// Pointers whose reads node 0's device serves.
fn ptrs_on_node_0(c: &SimCluster, n: usize) -> Vec<Pointer> {
    let on_node_0 = |p: &Pointer| c.owner_of_pointer(p) == Some(0);
    ptrs(256).into_iter().filter(on_node_0).take(n).collect()
}

/// (vii) The equal reads of a batch travel through the device queue as
/// one run, and the run is still `n` accesses: more of them than free
/// slots proceed in FIFO waves of `queue_depth`, each holding one slot for
/// its own device time, and the batch lands exactly once.
#[test]
fn a_batch_over_capacity_proceeds_in_waves_and_lands_once() {
    let depth = 4;
    let c = cluster_with(2, read_model(depth), None);
    let scope = Arc::new(IoScope::new(1));
    let scoped = c.with_io_scope(scope.clone());
    let ptrs = ptrs_on_node_0(&c, 10);
    let refs: Vec<&Pointer> = ptrs.iter().collect();
    let stop = AtomicBool::new(false);
    // Everything that can fail is asserted after the sampler has been
    // stopped, so a failure reports instead of leaving it spinning.
    let (first, second) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                // A slot over capacity would underflow the diagnostic.
                assert!(c.available_iops_permits().iter().all(|&free| free <= depth));
                assert!(scope.permits_held() <= depth as i64);
                std::thread::yield_now();
            }
        });
        let start = Instant::now();
        let (results, owed) = scoped.resolve_batch_submit(&refs, 0);
        let (landed_tx, landed_rx) = mpsc::channel();
        scoped.settle(0, owed, move || {
            let _ = landed_tx.send((results.iter().all(|r| r.is_ok()), start.elapsed()));
        });
        let landings = (
            landed_rx.recv_timeout(Duration::from_secs(30)),
            landed_rx.recv_timeout(Duration::from_secs(30)),
        );
        stop.store(true, Ordering::SeqCst);
        landings
    });
    let (all_ok, took) = first.expect("the batch lands");
    assert!(all_ok);
    assert!(took >= L * 3, "10 reads / depth 4 = 3 waves: {took:?}");
    assert!(
        second.is_err(),
        "the batch lands once (its completion is gone afterwards)"
    );
    assert_eq!(c.device_slot_time(), vec![L * 10, Duration::ZERO]);
    assert_eq!(c.available_iops_permits(), vec![depth; 2]);
    assert_eq!(scope.permits_held(), 0);
}

/// (viii) A read issued while a batch's remainder is still waiting for
/// slots queues behind it: by the time it returns, the batch has landed.
#[test]
fn a_later_read_does_not_overtake_a_batch_waiting_for_slots() {
    let c = cluster_with(2, read_model(2), None);
    let ptrs = ptrs_on_node_0(&c, 7);
    let (late, batch) = ptrs.split_last().unwrap();
    let refs: Vec<&Pointer> = batch.iter().collect();
    let (results, owed) = c.resolve_batch_submit(&refs, 0);
    assert!(results.iter().all(|r| r.is_ok()));
    let (landed_tx, landed_rx) = mpsc::channel();
    c.settle(0, owed, move || landed_tx.send(()).unwrap());
    let start = Instant::now();
    c.resolve(late, 0).unwrap();
    assert!(start.elapsed() >= L, "never cheaper than one access");
    assert!(
        landed_rx.try_recv().is_ok(),
        "6 reads / depth 2 = 3 waves were ahead of the late read"
    );
    assert_eq!(c.device_slot_time(), vec![L * 7, Duration::ZERO]);
}

/// (ix) `settle` flies the round trip itself, on the settling node's wire
/// lane of the same loop: two remote batches settled together from one
/// node against a wire window of 1 overlap on the device, then fly one
/// after the other. The wire holds no device slot.
#[test]
fn settle_flies_the_round_trip_under_the_wire_window() {
    let rtt = Duration::from_millis(20);
    let c = cluster_with(
        4,
        IoModel {
            remote_point_read: L + rtt,
            wire_window: 1,
            ..read_model(64)
        },
        None,
    );
    let ptrs = ptrs_on_node_0(&c, 8);
    let (first, second) = ptrs.split_at(4);
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    for (i, batch) in [first, second].into_iter().enumerate() {
        let refs: Vec<&Pointer> = batch.iter().collect();
        let (results, owed) = c.resolve_batch_submit(&refs, 1);
        assert!(results.iter().all(|r| r.is_ok()) && owed.rtt() == rtt);
        let tx = tx.clone();
        c.settle(1, owed, move || tx.send((i, start.elapsed())).unwrap());
    }
    let landed: Vec<(usize, Duration)> = (0..2)
        .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap())
        .collect();
    assert_eq!(landed[0].0, 0, "FIFO on the wire: {landed:?}");
    assert!(
        landed[0].1 >= L + rtt,
        "device time, then the RTT: {landed:?}"
    );
    assert!(
        landed[1].1 >= L + rtt * 2,
        "the second flight waits for the window: {landed:?}"
    );
    let s = c.metrics().snapshot();
    assert_eq!((s.window_stalls, s.fabric_completions), (1, 2));
    assert_eq!(
        c.device_slot_time(),
        vec![L * 8, Duration::ZERO, Duration::ZERO, Duration::ZERO]
    );
    assert_eq!(c.fabric_in_flight(), 0);
}
