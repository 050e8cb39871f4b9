//! Post-run correctness: nothing leaked, and (with a write path) every
//! acknowledged commit survives recovery from the log alone. A failure
//! here fails the run; it is never reported as a metric.

use crate::fixture::{Fixture, NODES};
use crate::workloads::Workload;
use rede_claims::analytics::{build_patient_index, names::CLAIMS_BY_PATIENT};
use rede_claims::lake::names::CLAIMS;
use rede_common::{RedeError, Result, Value};
use rede_core::query::Query;
use rede_core::scheduler::{HarborScheduler, SubmitOptions};
use rede_core::txn::TxnManager;
use rede_storage::SimCluster;
use std::time::{Duration, Instant};

fn fail(what: String) -> RedeError {
    RedeError::Exec(what)
}

/// What is still held right now, if anything: IOPS permits away from
/// rest, a pinned snapshot, a session, a cursor, an unfinished job.
fn held(fixture: &Fixture, permits_at_rest: &[usize]) -> Option<String> {
    let permits = fixture.cluster.available_iops_permits();
    if permits != permits_at_rest {
        return Some(format!(
            "IOPS permits leaked: at rest {permits_at_rest:?}, now {permits:?}"
        ));
    }
    let snapshots = fixture.cluster.metrics().snapshots_active();
    if snapshots != 0 {
        return Some(format!("{snapshots} snapshots still pinned"));
    }
    let stats = fixture.gate.stats();
    if stats.sessions != 0 || stats.cursors != 0 || stats.scheduler.active_jobs != 0 {
        return Some(format!(
            "left behind: {} sessions, {} cursors, {} active jobs",
            stats.sessions, stats.cursors, stats.scheduler.active_jobs
        ));
    }
    None
}

/// After the last pass nothing may stay held. A client sees its done page
/// a moment before the pool thread that produced it has dropped its
/// permit, so the system gets a second to come to rest; a leak does not
/// go away in a second. Returns what was transiently held, if anything.
pub fn nothing_leaked(fixture: &Fixture, permits_at_rest: &[usize]) -> Result<Option<String>> {
    let start = Instant::now();
    let mut transient = None;
    loop {
        match held(fixture, permits_at_rest) {
            None => {
                return Ok(transient.map(|what| {
                    format!("came to rest after {:?}; before: {what}", start.elapsed())
                }))
            }
            Some(what) if start.elapsed() >= Duration::from_secs(1) => return Err(fail(what)),
            Some(what) => {
                transient = Some(what);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// One patient's history as sorted record bytes.
fn history(sched: &HarborScheduler, patient: i64) -> Result<Vec<Vec<u8>>> {
    let job = Query::via_index(CLAIMS_BY_PATIENT)
        .keys(vec![Value::Int(patient)])
        .fetch(CLAIMS)
        .build()
        .compile()?;
    let result = sched
        .submit_with(&job, SubmitOptions::new().collecting())?
        .wait()?;
    let mut rows: Vec<Vec<u8>> = result.records.iter().map(|r| r.bytes().to_vec()).collect();
    rows.sort();
    Ok(rows)
}

/// Durability: recover a fresh cluster from nothing but the WAL image and
/// require byte-identical histories for 16 sample patients. Returns the
/// seconds recovery took.
pub fn wal_recovers(fixture: &Fixture, workload: &Workload) -> Result<f64> {
    let mgr = fixture.mgr.as_ref().expect("only run with a write path");
    let t = Instant::now();
    let recovered = SimCluster::builder()
        .nodes(NODES)
        .io_model(fixture.cluster.io_model().clone())
        .build()?;
    TxnManager::recover(recovered.clone(), mgr.wal().bytes())?;
    let recover_s = t.elapsed().as_secs_f64();
    build_patient_index(&recovered)?;
    let recovered_sched = HarborScheduler::with_defaults(recovered);
    for patient in workload.sample_patients(16) {
        let live = history(fixture.gate.scheduler(), patient)?;
        let replayed = history(&recovered_sched, patient)?;
        if live != replayed {
            return Err(fail(format!(
                "patient {patient}: {} live rows vs {} recovered from the WAL",
                live.len(),
                replayed.len()
            )));
        }
    }
    Ok(recover_s)
}
