//! One event loop per cluster: device slots and the wire window are two
//! lanes of the cluster's single timer heap, and a job's deadline is a
//! timer on the same heap, so a scheduler whose jobs fly both device time
//! and round trips under a deadline adds no timer thread of its own — and
//! no thread per node either: its workers are the dispatchers.
//!
//! Threads are counted by name from `/proc/self/task/*/comm`, so this file
//! holds this one test: any other test in the same binary could own a
//! cluster or a scheduler of its own while it runs.
#![cfg(target_os = "linux")]

use lakeharbor::prelude::*;
use lakeharbor::storage::{IndexEntry, IndexSpec};
use rede_core::job::SeedInput;
use std::sync::Arc;
use std::time::Duration;

/// Live threads of this process whose name satisfies `pred`.
fn threads_where(pred: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|c| pred(c.trim()))
        })
        .count()
}

/// Live threads of this process named `name`.
fn threads_named(name: &str) -> usize {
    threads_where(|comm| comm == name)
}

/// Live threads of this process whose name starts with `prefix`.
fn threads_prefixed(prefix: &str) -> usize {
    threads_where(|comm| comm.starts_with(prefix))
}

#[test]
fn a_cluster_and_its_scheduler_share_one_timer_thread() {
    let cluster = SimCluster::builder()
        .nodes(4)
        .io_model(IoModel {
            local_point_read: Duration::from_micros(200),
            remote_point_read: Duration::from_micros(1200),
            index_lookup: Duration::from_micros(100),
            queue_depth: 8,
            wire_window: 2,
            ..IoModel::zero()
        })
        .build()
        .unwrap();
    let base = cluster
        .create_file(FileSpec::new("base", Partitioning::hash(8)))
        .unwrap();
    let ix = cluster
        .create_index(IndexSpec::global("ix", "base", 5))
        .unwrap();
    for k in 0..64i64 {
        base.insert(Value::Int(k), Record::from_text(&format!("rec-{k}")))
            .unwrap();
        ix.insert(
            Value::Int(k),
            IndexEntry::new(Value::Int(k), Value::Int(k)).to_record(),
        )
        .unwrap();
    }
    let job = Job::builder("index-then-base")
        .seed(SeedInput::Range {
            file: "ix".into(),
            lo: Value::Int(0),
            hi: Value::Int(63),
        })
        .dereference("scan-ix", Arc::new(BtreeRangeDereferencer::new("ix")))
        .reference("entry->base", Arc::new(IndexEntryReferencer::new("base")))
        .dereference("fetch", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap();
    let sched = HarborScheduler::new(
        cluster.clone(),
        SchedulerConfig {
            pool_threads: 4,
            routing: RoutingPolicy::Producer,
            ..SchedulerConfig::default()
        },
    );
    let result = sched
        .submit_with(&job, SubmitOptions::new().deadline(Duration::from_secs(30)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(result.count, 64);
    assert!(
        result.metrics.fabric_completions > 0,
        "producer routing must fly round trips"
    );
    assert!(
        cluster.device_slot_time().iter().any(|t| !t.is_zero()),
        "the job must hold device slots"
    );
    assert_eq!(
        threads_named("rede-fabric"),
        1,
        "one timer thread per cluster, none per scheduler"
    );
    assert_eq!(
        threads_named("rede-deadline"),
        0,
        "deadlines are timers on the cluster's loop, not a thread"
    );
    assert_eq!(
        sched.stats().fabric_in_flight,
        0,
        "an armed deadline is not a flight"
    );
    assert_eq!(
        threads_prefixed("rede-dispatch"),
        0,
        "dispatch is the workers' role, not a thread per node"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        threads_prefixed("rede-smpe-"),
        4.min(cores),
        "min(pool_threads, cores) workers"
    );
}
