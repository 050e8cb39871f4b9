//! Case-study queries Q1–Q3 on both systems (§ IV, Fig. 9).
//!
//! * **Q1** — medical expenses of care prescribing antihypertensive
//!   medicines for hypertension.
//! * **Q2** — … antimicrobial medicines to acne patients.
//! * **Q3** — … GLP-1 receptor medicines to diabetes patients.
//!
//! Each query is "sum the expenses of claims diagnosed with D and
//! prescribed M". The two systems answer it very differently:
//!
//! * **ReDe** (raw claims): probe the disease-code index, fetch each
//!   matching *whole claim once*, check the prescription inside the record
//!   with schema-on-read, and read the expense from the same record.
//!   Record accesses ≈ claims diagnosed with D.
//! * **Warehouse** (normalized): probe the diagnosis-code index, fetch the
//!   diagnosis rows, join to the prescriptions table through the FK index
//!   and fetch every prescription row of every candidate claim, then fetch
//!   the claim row for the survivors. Record accesses ≈ diagnoses +
//!   all prescriptions of the candidates + qualifying claims — the
//!   "intensive joins caused by data normalization".
//!
//! Both implementations return the same expense total (asserted in
//! integration tests); Fig. 9 compares their record-access counts.

use crate::format::Claim;
use crate::gen::{Condition, ACNE, DIABETES, HYPERTENSION};
use crate::interpret::HasMedicineFilter;
use crate::{lake, normalize};
use rede_baseline::warehouse::Warehouse;
use rede_common::{ExecProfile, MetricsSnapshot, RedeError, Result, Value};
use rede_core::exec::JobRunner;
use rede_core::job::{Job, SeedInput};
use rede_core::prebuilt::{BtreeRangeDereferencer, IndexEntryReferencer, LookupDereferencer};
use rede_storage::Pointer;
use std::sync::Arc;

/// One case-study query: a disease-code set × a medicine-code set.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Display name ("Q1" …).
    pub name: &'static str,
    /// Disease codes defining the cohort.
    pub disease_codes: &'static [&'static str],
    /// Medicine codes defining the treatment.
    pub medicine_codes: &'static [&'static str],
}

impl QuerySpec {
    /// The paper's three queries.
    pub fn all() -> [QuerySpec; 3] {
        [
            QuerySpec::from_condition("Q1", &HYPERTENSION),
            QuerySpec::from_condition("Q2", &ACNE),
            QuerySpec::from_condition("Q3", &DIABETES),
        ]
    }

    fn from_condition(name: &'static str, cond: &'static Condition) -> QuerySpec {
        QuerySpec {
            name,
            disease_codes: cond.disease_codes,
            medicine_codes: cond.medicine_codes,
        }
    }
}

/// Result of one query run: the answer plus the access accounting.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Total expense points of qualifying claims.
    pub total_expense: i64,
    /// Number of qualifying claims.
    pub qualifying_claims: u64,
    /// Storage counters for this run alone.
    pub metrics: MetricsSnapshot,
    /// Per-stage / per-node execution profile. Only the ReDe runner
    /// produces one; the warehouse and lake-scan paths execute outside the
    /// job executor and report an empty profile.
    pub profile: ExecProfile,
}

/// Build the ReDe job for a query: disease-index probes (one broadcast
/// pointer per code) → claim fetches filtered on the medicine set.
pub fn rede_job(spec: &QuerySpec) -> Result<Job> {
    let seeds = spec
        .disease_codes
        .iter()
        .map(|code| Pointer::broadcast(lake::names::CLAIMS_BY_DISEASE, Value::str(*code)))
        .collect();
    Job::builder(format!("claims-{}", spec.name))
        .seed(SeedInput::Pointers(seeds))
        .dereference(
            "deref-0:disease-ix",
            Arc::new(BtreeRangeDereferencer::new(lake::names::CLAIMS_BY_DISEASE)),
        )
        .reference(
            "ref-1:claim-ptr",
            Arc::new(IndexEntryReferencer::new(lake::names::CLAIMS)),
        )
        .dereference_filtered(
            "deref-1:claims",
            Arc::new(LookupDereferencer::new(lake::names::CLAIMS)),
            Arc::new(HasMedicineFilter::new(spec.medicine_codes)),
        )
        .build()
}

/// Run a query on ReDe over the raw claims lake.
pub fn run_rede(runner: &JobRunner, spec: &QuerySpec) -> Result<QueryOutcome> {
    let job = rede_job(spec)?;
    let result = runner.run(&job)?;
    // The job collected qualifying claims; the expense lives in the same
    // record (schema-on-read) — no further storage access needed.
    let mut total = 0i64;
    for record in &result.records {
        total += Claim::parse(record)?.expense;
    }
    Ok(QueryOutcome {
        total_expense: total,
        qualifying_claims: result.count,
        metrics: result.metrics,
        profile: result.profile,
    })
}

/// Run a query on the normalized warehouse with fine-grained parallel
/// index nested-loop joins.
pub fn run_warehouse(wh: &Warehouse, spec: &QuerySpec) -> Result<QueryOutcome> {
    let cluster = wh.cluster().clone();
    let before = cluster.metrics().snapshot();

    // Join 1: disease-code index → diagnosis rows → candidate claim ids.
    let mut candidates: Vec<i64> = Vec::new();
    for code in spec.disease_codes {
        let entries = wh.probe_index(normalize::names::DIAGNOSES_BY_CODE, &Value::str(*code), 0)?;
        let claim_ids = wh.parallel_map(entries, |node, entry| {
            let row = wh.fetch(normalize::names::DIAGNOSES, entry, node)?;
            let claim_id: i64 = row
                .field(normalize::dx_cols::CLAIM_ID, '|')?
                .parse()
                .map_err(|_| RedeError::Interpret("dx claim id".into()))?;
            Ok(vec![claim_id])
        })?;
        candidates.extend(claim_ids);
    }
    candidates.sort_unstable();
    candidates.dedup();

    // Join 2: candidate claims → prescription rows (FK index), keep claims
    // with a tracked medicine; Join 3: fetch the claim row for expenses.
    let results = wh.parallel_map(candidates, |node, &claim_id| {
        let entries = wh.probe_index(
            normalize::names::PRESCRIPTIONS_BY_CLAIM,
            &Value::Int(claim_id),
            node,
        )?;
        let mut has_medicine = false;
        for entry in &entries {
            let row = wh.fetch(normalize::names::PRESCRIPTIONS, entry, node)?;
            let code = row.field(normalize::rx_cols::CODE, '|')?;
            if spec.medicine_codes.contains(&code) {
                has_medicine = true;
                // A real engine still fetches the remaining rows of the
                // matching RID list it materialized; keep scanning to stay
                // faithful to the join's access pattern.
            }
        }
        if !has_medicine {
            return Ok(vec![]);
        }
        let claim_row = wh.fetch_by_key(normalize::names::CLAIMS, &Value::Int(claim_id), node)?;
        let expense: i64 = claim_row
            .field(normalize::claims_cols::EXPENSE, '|')?
            .parse()
            .map_err(|_| RedeError::Interpret("claim expense".into()))?;
        Ok(vec![expense])
    })?;

    Ok(QueryOutcome {
        total_expense: results.iter().sum(),
        qualifying_claims: results.len() as u64,
        metrics: cluster.metrics().snapshot().since(&before),
        profile: ExecProfile::default(),
    })
}

/// Run a query the plain-data-lake way: a full scan of the raw claims with
/// schema-on-read filtering and the statically defined partitioned
/// parallelism of conventional lake engines.
///
/// The paper measured this system too but left it out of Fig. 9 because
/// "it was a lot slower than the others" (footnote 3). It is reproduced
/// here for completeness: its record accesses equal the whole claims file
/// regardless of selectivity.
pub fn run_lake_scan(cluster: &rede_storage::SimCluster, spec: &QuerySpec) -> Result<QueryOutcome> {
    let before = cluster.metrics().snapshot();
    let claims = cluster.file(lake::names::CLAIMS)?;
    let disease_filter = crate::interpret::HasDiseaseFilter::new(spec.disease_codes);
    let medicine_filter = HasMedicineFilter::new(spec.medicine_codes);

    // One worker per node, each scanning its node's partitions — the
    // "statically defined parallelism" of § II.
    let totals: std::sync::Mutex<(i64, u64)> = std::sync::Mutex::new((0, 0));
    let errors: std::sync::Mutex<Vec<RedeError>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for node in 0..cluster.nodes() {
            let (claims, disease_filter, medicine_filter, totals, errors) =
                (&claims, &disease_filter, &medicine_filter, &totals, &errors);
            s.spawn(move || {
                use rede_core::traits::Filter;
                let mut local = (0i64, 0u64);
                for p in (0..claims.partitions()).filter(|p| p % cluster.nodes() == node) {
                    let scanned = claims.scan_partition(p, |_, record| {
                        let hit = (|| -> Result<Option<i64>> {
                            if disease_filter.matches(record)? && medicine_filter.matches(record)? {
                                Ok(Some(Claim::parse(record)?.expense))
                            } else {
                                Ok(None)
                            }
                        })();
                        match hit {
                            Ok(Some(expense)) => {
                                local.0 += expense;
                                local.1 += 1;
                            }
                            Ok(None) => {}
                            Err(e) => errors.lock().expect("lock").push(e),
                        }
                    });
                    if let Err(e) = scanned {
                        errors.lock().expect("lock").push(e);
                    }
                }
                let mut t = totals.lock().expect("lock");
                t.0 += local.0;
                t.1 += local.1;
            });
        }
    });
    if let Some(first) = errors.into_inner().expect("lock").into_iter().next() {
        return Err(first);
    }
    let (total_expense, qualifying_claims) = totals.into_inner().expect("lock");
    Ok(QueryOutcome {
        total_expense,
        qualifying_claims,
        metrics: cluster.metrics().snapshot().since(&before),
        profile: ExecProfile::default(),
    })
}

/// Ground truth computed straight from the generator (tests).
pub fn expected_outcome(generator: &crate::gen::ClaimsGenerator, spec: &QuerySpec) -> (i64, u64) {
    let mut total = 0i64;
    let mut count = 0u64;
    for i in 0..generator.profile().claims {
        let claim = generator.claim(i);
        let dx = claim
            .disease_codes()
            .any(|d| spec.disease_codes.contains(&d));
        let rx = claim
            .medicine_codes()
            .any(|m| spec.medicine_codes.contains(&m));
        if dx && rx {
            total += claim.expense;
            count += 1;
        }
    }
    (total, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ClaimsGenerator, ClaimsProfile};
    use rede_core::exec::ExecutorConfig;
    use rede_storage::SimCluster;

    fn setup(n: usize) -> (SimCluster, ClaimsGenerator) {
        let c = SimCluster::builder().nodes(2).build().unwrap();
        let g = ClaimsGenerator::new(
            ClaimsProfile {
                claims: n,
                ..Default::default()
            },
            11,
        );
        lake::load_lake(&c, &g).unwrap();
        normalize::load_warehouse(&c, &g).unwrap();
        (c, g)
    }

    #[test]
    fn both_systems_agree_with_ground_truth() {
        let (c, g) = setup(2_000);
        let runner = JobRunner::new(c.clone(), ExecutorConfig::smpe(32).collecting());
        let wh = Warehouse::new(c.clone(), 8);
        for spec in QuerySpec::all() {
            let (want_total, want_count) = expected_outcome(&g, &spec);
            let rede = run_rede(&runner, &spec).unwrap();
            assert_eq!(rede.total_expense, want_total, "{} rede total", spec.name);
            assert_eq!(
                rede.qualifying_claims, want_count,
                "{} rede count",
                spec.name
            );
            let whr = run_warehouse(&wh, &spec).unwrap();
            assert_eq!(whr.total_expense, want_total, "{} wh total", spec.name);
            assert_eq!(whr.qualifying_claims, want_count, "{} wh count", spec.name);
        }
    }

    #[test]
    fn rede_accesses_far_fewer_records() {
        let (c, _) = setup(3_000);
        let runner = JobRunner::new(c.clone(), ExecutorConfig::smpe(32).collecting());
        let wh = Warehouse::new(c.clone(), 8);
        for spec in QuerySpec::all() {
            let rede = run_rede(&runner, &spec).unwrap();
            let whr = run_warehouse(&wh, &spec).unwrap();
            assert!(rede.metrics.record_accesses() > 0, "{}", spec.name);
            let ratio =
                rede.metrics.record_accesses() as f64 / whr.metrics.record_accesses() as f64;
            assert!(
                ratio < 0.5,
                "{}: ReDe should access well under half the records (got {ratio:.2})",
                spec.name
            );
        }
    }

    #[test]
    fn lake_scan_agrees_but_reads_everything() {
        let (c, g) = setup(2_000);
        let runner = JobRunner::new(c.clone(), ExecutorConfig::smpe(32).collecting());
        for spec in QuerySpec::all() {
            let (want_total, want_count) = expected_outcome(&g, &spec);
            let scan = run_lake_scan(&c, &spec).unwrap();
            assert_eq!(scan.total_expense, want_total, "{} scan total", spec.name);
            assert_eq!(
                scan.qualifying_claims, want_count,
                "{} scan count",
                spec.name
            );
            // The footnote-3 system: it touches every claim, every time.
            assert_eq!(scan.metrics.record_accesses(), 2_000);
            assert_eq!(scan.metrics.point_reads(), 0);
            // And therefore vastly more than ReDe through the structure.
            let rede = run_rede(&runner, &spec).unwrap();
            assert!(scan.metrics.record_accesses() > rede.metrics.record_accesses() * 4);
        }
    }
}
