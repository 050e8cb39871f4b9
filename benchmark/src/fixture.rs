//! The one configuration every workload runs on, and the timed set-up
//! that builds it: generate → load → build structures → open the
//! scheduler and the gate.
//!
//! Defaults are deliberate: `SchedulerConfig::default()`,
//! `GateConfig::default()` and the executor's own defaults, so a later
//! change to a default shows up in the numbers.

use crate::workloads::{Kind, Workload, SEED_CLAIMS, TXN_ROWS};
use rede_claims::analytics::{build_patient_index, names::CLAIMS_BY_PATIENT, PatientIdInterpreter};
use rede_claims::lake::{load_lake, names::CLAIMS};
use rede_claims::{Claim, ClaimsGenerator, ClaimsProfile};
use rede_common::{Result, Value};
use rede_core::gate::HarborGate;
use rede_core::scheduler::HarborScheduler;
use rede_core::txn::TxnManager;
use rede_storage::{IoModel, Partitioning, SimCluster};
use rede_tpch::{load_tpch, LoadOptions, TpchGenerator};
use std::sync::Arc;
use std::time::Instant;

pub const NODES: usize = 4;
pub const PARTITIONS: usize = 16;
pub const SCALE_FACTOR: f64 = 0.01;
/// Every modeled sleep is ≥ 120 µs at this scale, above timer slack.
pub const IO_SCALE: f64 = 1.0;
/// The dataset is a fixture: the same rows for every `--seed`, which only
/// drives the jobs issued against it.
pub const DATA_SEED: u64 = 42;
/// Rows a client asks for per fetch.
pub const PAGE_ROWS: usize = 256;
/// `mem_pressure`: about a quarter of the resident data, shared between
/// pages and the record cache.
pub const MEMORY_BUDGET: usize = 4 << 20;
pub const RECORD_CACHE: usize = 1 << 20;

/// Seconds each set-up step took in one build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub tpch_load_s: f64,
    pub claims_load_s: f64,
    pub index_build_s: f64,
}

pub struct Fixture {
    pub cluster: SimCluster,
    /// Owns the scheduler (`gate.scheduler()`).
    pub gate: HarborGate,
    /// The write path, on `htap_mix`.
    pub mgr: Option<Arc<TxnManager>>,
    pub orders: usize,
    pub times: SetupTimes,
}

/// The claims generator shared by the loader, the writer and the
/// reference: claim `i` is a pure function of `i`.
pub fn claims_generator() -> ClaimsGenerator {
    ClaimsGenerator::new(
        ClaimsProfile {
            claims: SEED_CLAIMS,
            ..Default::default()
        },
        DATA_SEED,
    )
}

/// Generated claim `i`, re-assigned to `patient`: the generator's own
/// patient ids are ignored so that the population and who is written
/// when are the workload's to decide.
fn claim_for(gen: &ClaimsGenerator, i: usize, patient: i64) -> Claim {
    let mut claim = gen.claim(i);
    claim.patient_id = patient;
    claim
}

/// The rows of ingest transaction `txn`: the next `TXN_ROWS` generated
/// claims, one for each patient of that transaction's write group.
pub fn txn_claims(workload: &Workload, gen: &ClaimsGenerator, txn: u64) -> Vec<Claim> {
    let first = SEED_CLAIMS + txn as usize * TXN_ROWS;
    workload
        .txn_patients(txn)
        .enumerate()
        .map(|(j, patient)| claim_for(gen, first + j, patient))
        .collect()
}

fn bare_cluster(kind: Kind, io_scale: f64) -> Result<SimCluster> {
    let mut builder = SimCluster::builder()
        .nodes(NODES)
        .io_model(IoModel::hdd_like(io_scale));
    if kind == Kind::MemPressure {
        builder = builder
            .memory_budget(MEMORY_BUDGET)
            .record_cache(RECORD_CACHE);
    }
    builder.build()
}

/// Create the claims file through the write path and commit the seed
/// claims — one per patient — in `TXN_ROWS`-row transactions, so the heap
/// is versioned and WAL-framed from its first row.
fn seed_claims_through_wal(mgr: &Arc<TxnManager>, gen: &ClaimsGenerator) -> Result<()> {
    let mut s = mgr.begin();
    s.create_file(CLAIMS, Partitioning::hash(NODES));
    s.commit()?;
    for first in (0..SEED_CLAIMS).step_by(TXN_ROWS) {
        let mut s = mgr.begin();
        for i in first..first + TXN_ROWS {
            let claim = claim_for(gen, i, i as i64 + 1);
            s.write(CLAIMS, Value::Int(claim.claim_id), claim.to_record());
        }
        s.commit()?;
    }
    Ok(())
}

/// One full set-up of `kind`'s fixture, timed step by step.
/// `scale_factor` and `io_scale` are [`SCALE_FACTOR`] and [`IO_SCALE`]
/// except under `--smoke`.
pub fn build(kind: Kind, scale_factor: f64, io_scale: f64) -> Result<Fixture> {
    let start = Instant::now();
    let cluster = bare_cluster(kind, io_scale)?;

    let t = Instant::now();
    let loaded = load_tpch(
        &cluster,
        TpchGenerator::new(scale_factor, DATA_SEED),
        &LoadOptions {
            partitions: Some(PARTITIONS),
            date_indexes: true,
            fk_indexes: true,
        },
    )?;
    let tpch_load_s = t.elapsed().as_secs_f64();

    let mut claims_load_s = 0.0;
    let mut index_build_s = 0.0;
    let mut mgr = None;
    if kind.loads_claims() {
        let gen = claims_generator();
        let t = Instant::now();
        if kind == Kind::HtapMix {
            let m = TxnManager::new(cluster.clone());
            seed_claims_through_wal(&m, &gen)?;
            claims_load_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            build_patient_index(&cluster)?;
            m.maintain_index(CLAIMS_BY_PATIENT, Arc::new(PatientIdInterpreter), None)?;
            index_build_s = t.elapsed().as_secs_f64();
            mgr = Some(m);
        } else {
            load_lake(&cluster, &gen)?;
            claims_load_s = t.elapsed().as_secs_f64();
        }
    }

    let gate = HarborGate::new(HarborScheduler::with_defaults(cluster.clone()));
    if let Some(m) = &mgr {
        gate.scheduler().attach_ingest(m);
    }
    Ok(Fixture {
        cluster,
        gate,
        mgr,
        orders: loaded.orders_rows,
        times: SetupTimes {
            total_s: start.elapsed().as_secs_f64(),
            tpch_load_s,
            claims_load_s,
            index_build_s,
        },
    })
}

impl Drop for Fixture {
    /// A maintained index holds its catch-up maintainer, which holds the
    /// cluster, which holds the index: without this the cluster of every
    /// discarded `htap_mix` set-up stays allocated and `peak_rss_mb`
    /// reads five fixtures instead of one.
    fn drop(&mut self) {
        if self.mgr.is_some() {
            if let Ok(index) = self.cluster.index(CLAIMS_BY_PATIENT) {
                index.raw().clear_maintainer();
            }
        }
    }
}

/// Bytes of every index per byte of every heap file (resident or not).
pub fn structure_bytes_per_data_byte(cluster: &SimCluster) -> f64 {
    let (mut data, mut structures) = (0usize, 0usize);
    for name in cluster.catalog_names() {
        if let Ok(index) = cluster.index(&name) {
            structures += index.raw().total_bytes();
        } else if let Ok(file) = cluster.file(&name) {
            data += file.raw().total_bytes();
        }
    }
    structures as f64 / data.max(1) as f64
}
