//! Single-threaded layer probes and one-off comparisons of the traced
//! run: each calls one `pub` entry point of one layer a fixed number of
//! times on an otherwise idle fixture, so its median is that layer's own
//! cost, without queueing.

use crate::drive::{q5_params, Spec};
use crate::fixture::Fixture;
use crate::stats::median;
use crate::trace::{Recorder, Span, TraceClock};
use crate::workloads::{JobDef, Workload};
use rede_baseline::{Engine, EngineConfig};
use rede_common::rng::Xoshiro256;
use rede_common::{Result, Value};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_storage::{Pointer, PointerKey};
use rede_tpch::load::names::{LINEITEM_BY_ORDERKEY, ORDERS};
use rede_tpch::q5_prime_plan;
use std::time::Instant;

/// Pointers per `resolve_batch` call: the executor's default batch.
const BATCH: usize = 32;

#[derive(Debug, Default)]
pub struct Probes {
    pub resolve_us_p50: f64,
    /// `resolve` p50 minus the modeled local point read it sleeps.
    pub resolve_overhead_us: f64,
    pub resolve_batch_us_per_ptr: f64,
    /// Charged `IndexHandle::lookup`.
    pub btree_lookup_us_p50: f64,
    /// Uncharged B+-tree probe underneath it.
    pub btree_probe_ns_p50: f64,
    /// Uncharged heap read by logical key.
    pub heap_read_ns_p50: f64,
    /// `TxnManager::pin` + drop (0 without a write path).
    pub snapshot_pin_ns_p50: f64,
    pub spans: Vec<Span>,
}

/// Time `f` once, in a span, in ns.
fn timed<R>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = rec.span(name, 0, 0, f);
    (t.elapsed().as_nanos() as f64, out)
}

/// `n` seeded probes of each layer against the orders table and the
/// `l_orderkey` index, which every workload's fixture holds.
pub fn run(fixture: &Fixture, seed: u64, n: usize, clock: &TraceClock) -> Result<Probes> {
    let cluster = &fixture.cluster;
    let mut rng = Xoshiro256::new(seed).derive(0x9e37);
    let keys: Vec<Value> = (0..n)
        .map(|_| Value::Int(1 + rng.gen_range(fixture.orders as u64) as i64))
        .collect();
    let ptrs: Vec<Pointer> = keys
        .iter()
        .map(|k| Pointer::logical(ORDERS, k.clone(), k.clone()))
        .collect();
    let mut rec = Recorder::new(Some(clock));
    let mut out = Probes::default();

    let mut resolve_ns = Vec::with_capacity(n);
    for ptr in &ptrs {
        let node = cluster.owner_of_pointer(ptr).unwrap_or(0);
        let (ns, record) = timed(&mut rec, "probe.resolve", || cluster.resolve(ptr, node));
        record?;
        resolve_ns.push(ns);
    }
    out.resolve_us_p50 = median(&resolve_ns) / 1e3;
    out.resolve_overhead_us =
        out.resolve_us_p50 - cluster.io_model().local_point_read.as_secs_f64() * 1e6;

    let mut batch_ns_per_ptr = Vec::new();
    for chunk in ptrs.chunks(BATCH) {
        let refs: Vec<&Pointer> = chunk.iter().collect();
        let (ns, records) = timed(&mut rec, "probe.resolve_batch", || {
            cluster.resolve_batch(&refs, 0)
        });
        for record in records {
            record?;
        }
        batch_ns_per_ptr.push(ns / chunk.len() as f64);
    }
    out.resolve_batch_us_per_ptr = median(&batch_ns_per_ptr) / 1e3;

    let index = cluster.index(LINEITEM_BY_ORDERKEY)?;
    let orders = cluster.file(ORDERS)?;
    let (mut lookup_ns, mut probe_ns, mut heap_ns) = (Vec::new(), Vec::new(), Vec::new());
    for key in &keys {
        let partition = index.raw().partition_of_key(key);
        let node = cluster.node_of_partition(partition);
        let (ns, hits) = timed(&mut rec, "probe.index_lookup", || index.lookup(key, node));
        hits?;
        lookup_ns.push(ns);
        let (ns, hits) = timed(&mut rec, "probe.btree", || {
            index.raw().lookup_in(partition, key)
        });
        std::hint::black_box(hits);
        probe_ns.push(ns);
        let partition = orders.partition_of(key);
        let (ns, record) = timed(&mut rec, "probe.heap_read", || {
            orders
                .raw()
                .get(partition, &PointerKey::Logical(key.clone()))
        });
        record?;
        heap_ns.push(ns);
    }
    out.btree_lookup_us_p50 = median(&lookup_ns) / 1e3;
    out.btree_probe_ns_p50 = median(&probe_ns);
    out.heap_read_ns_p50 = median(&heap_ns);

    if let Some(mgr) = &fixture.mgr {
        let pins: Vec<f64> = (0..n)
            .map(|_| timed(&mut rec, "probe.snapshot_pin", || drop(mgr.pin())).0)
            .collect();
        out.snapshot_pin_ns_p50 = median(&pins);
    }
    out.spans = rec.spans;
    Ok(out)
}

/// The same Q5' job on the three systems of Fig. 7, once each.
#[derive(Debug, Default)]
pub struct Fig7Row {
    /// Impala-like scan + hash-join engine.
    pub engine_ms: f64,
    /// ReDe without SMPE (partitioned parallelism only).
    pub partitioned_ms: f64,
    /// ReDe with SMPE, through this fixture's scheduler.
    pub smpe_ms: f64,
}

pub fn fig7_row(fixture: &Fixture, workload: &Workload, specs: &[Spec]) -> Result<Fig7Row> {
    let (idx, lo_day, span_days) = workload
        .defs
        .iter()
        .enumerate()
        .find_map(|(i, def)| match def {
            JobDef::Q5 { lo_day, span_days } => Some((i, *lo_day, *span_days)),
            _ => None,
        })
        .expect("every workload issues at least one Q5' job");
    let job = &specs[idx].job;
    // SMPE first: the other two would leave its pages and records cached.
    let smpe = fixture.gate.scheduler().submit(job)?.wait()?;
    let engine = Engine::new(fixture.cluster.clone(), EngineConfig::default());
    let scanned = engine.execute(&q5_prime_plan(&q5_params(lo_day, span_days)))?;
    let partitioned =
        JobRunner::new(fixture.cluster.clone(), ExecutorConfig::partitioned()).run(job)?;
    if scanned.rows.len() as u64 != smpe.count || partitioned.count != smpe.count {
        return Err(rede_common::RedeError::Exec(format!(
            "the three systems disagree on {}: scan {} / partitioned {} / smpe {}",
            job.name(),
            scanned.rows.len(),
            partitioned.count,
            smpe.count
        )));
    }
    Ok(Fig7Row {
        engine_ms: scanned.wall.as_secs_f64() * 1e3,
        partitioned_ms: partitioned.wall.as_secs_f64() * 1e3,
        smpe_ms: smpe.wall.as_secs_f64() * 1e3,
    })
}
