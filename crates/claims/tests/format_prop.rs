//! Property-based tests of the claims format: arbitrary well-formed claims
//! roundtrip through serialization, the schema-on-read interpreters agree
//! with the parsed structure, and the parser meets arbitrary or damaged
//! input with an error, never a panic.

use proptest::prelude::*;
use rede_claims::format::{Claim, ClaimType, SubRecord};
use rede_claims::interpret::{
    DiseaseCodeInterpreter, ExpenseInterpreter, HasDiseaseFilter, MedicineCodeInterpreter,
};
use rede_common::Value;
use rede_core::traits::{Filter, Interpreter};

fn code_strategy() -> impl Strategy<Value = String> {
    "[A-Z][A-Z0-9]{1,5}".prop_map(|s| s)
}

fn sub_record_strategy() -> impl Strategy<Value = SubRecord> {
    prop_oneof![
        (code_strategy(), 0i64..10_000)
            .prop_map(|(code, points)| SubRecord::Treatment { code, points }),
        (code_strategy(), 1i64..500, 0i64..10_000).prop_map(|(code, quantity, points)| {
            SubRecord::Medicine {
                code,
                quantity,
                points,
            }
        }),
        (code_strategy(), any::<bool>())
            .prop_map(|(code, primary)| SubRecord::Disease { code, primary }),
    ]
}

fn claim_strategy() -> impl Strategy<Value = Claim> {
    (
        1i64..1_000_000,
        1i64..10_000,
        prop_oneof![
            Just(ClaimType::Piecework),
            "[A-Z][0-9]{3,4}".prop_map(|code| ClaimType::Dpc { code }),
        ],
        1i64..1_000_000,
        any::<bool>(),
        0i64..120,
        prop_oneof![Just("M".to_string()), Just("F".to_string())],
        0i64..10_000_000,
        prop::collection::vec(sub_record_strategy(), 0..12),
    )
        .prop_map(
            |(
                claim_id,
                hospital_id,
                claim_type,
                patient_id,
                inpatient,
                age,
                sex,
                expense,
                details,
            )| {
                Claim {
                    claim_id,
                    hospital_id,
                    claim_type,
                    patient_id,
                    inpatient,
                    age,
                    sex,
                    expense,
                    details,
                }
            },
        )
}

/// Bytes that mostly speak the format's alphabet, so a fair share of them
/// get past the first checks; the rest are arbitrary, UTF-8 or not.
fn noise_strategy() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"IRESHOYDPCMFinout0123456789,+-\n\r";
    let byte = (any::<u8>(), any::<bool>()).prop_map(|(b, arbitrary)| {
        if arbitrary {
            b
        } else {
            ALPHABET[b as usize % ALPHABET.len()]
        }
    });
    prop::collection::vec(byte, 0..160)
}

/// A serialized claim with one line dropped (`how == 0`), duplicated
/// (`1`), or with one of its bytes XOR-ed with `mask` (`2`).
fn damaged(claim: &Claim, line: usize, how: u8, at: usize, mask: u8) -> Vec<u8> {
    let text = claim.to_record().text().unwrap().to_string();
    let mut lines: Vec<Vec<u8>> = text.split('\n').map(|l| l.as_bytes().to_vec()).collect();
    let line = line % lines.len();
    match how {
        0 => {
            lines.remove(line);
        }
        1 => lines.insert(line, lines[line].clone()),
        _ => {
            let bytes = &mut lines[line];
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
    }
    lines.join(&b'\n')
}

/// `Claim::parse` returns (never panics), and whatever it accepts
/// round-trips through `to_record`.
fn parses_or_rejects(bytes: Vec<u8>) {
    if let Ok(claim) = Claim::parse(&rede_storage::Record::from_bytes(bytes)) {
        assert_eq!(Claim::parse(&claim.to_record()).unwrap(), claim);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in noise_strategy()) {
        parses_or_rejects(bytes);
    }

    #[test]
    fn parse_never_panics_on_damaged_claims(
        claim in claim_strategy(),
        line in any::<usize>(),
        how in 0u8..3,
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        parses_or_rejects(damaged(&claim, line, how, at, mask));
    }

    #[test]
    fn roundtrip(claim in claim_strategy()) {
        let parsed = Claim::parse(&claim.to_record()).unwrap();
        prop_assert_eq!(parsed, claim);
    }

    #[test]
    fn interpreters_agree_with_structure(claim in claim_strategy()) {
        let record = claim.to_record();
        let dx = DiseaseCodeInterpreter.extract(&record).unwrap();
        let want_dx: Vec<Value> = claim.disease_codes().map(Value::str).collect();
        prop_assert_eq!(dx, want_dx);

        let rx = MedicineCodeInterpreter.extract(&record).unwrap();
        prop_assert_eq!(rx.len(), claim.medicine_codes().count());

        let expense = ExpenseInterpreter.extract(&record).unwrap();
        prop_assert_eq!(expense, vec![Value::Int(claim.expense)]);
    }

    #[test]
    fn disease_filter_agrees_with_any(claim in claim_strategy(), probe in code_strategy()) {
        let record = claim.to_record();
        let filter = HasDiseaseFilter::new(&[probe.as_str()]);
        let want = claim.disease_codes().any(|c| c == probe);
        prop_assert_eq!(filter.matches(&record).unwrap(), want);
    }

    /// Truncating a serialized claim anywhere inside the header makes it
    /// unparseable (never silently misparsed).
    #[test]
    fn truncated_headers_rejected(claim in claim_strategy(), cut in 0usize..10) {
        let text = claim.to_record().text().unwrap().to_string();
        // Cut inside the first line (the IR header).
        let first_line_len = text.lines().next().unwrap().len();
        if cut < first_line_len {
            let truncated = &text[..cut];
            prop_assert!(Claim::parse(&rede_storage::Record::from_text(truncated)).is_err());
        }
    }
}
