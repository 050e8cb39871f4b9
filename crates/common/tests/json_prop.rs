//! Property-based tests of the minimal JSON reader/writer: arbitrary
//! documents roundtrip through `Display` → `parse`.

use proptest::prelude::*;
use rede_common::Json;
use std::collections::BTreeMap;

/// Numbers are restricted to values the writer prints exactly (integers in
/// the safe range and simple fractions), mirroring how the FHIR layer uses
/// them.
fn number_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1_000_000_000i64..1_000_000_000).prop_map(|v| v as f64),
        (-1_000_000i64..1_000_000).prop_map(|v| v as f64 / 4.0),
    ]
}

fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        number_strategy().prop_map(Json::Number),
        "[ -~]{0,16}".prop_map(Json::String),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::btree_map("[a-zA-Z_][a-zA-Z0-9_]{0,8}", inner, 0..6)
                .prop_map(|m| Json::Object(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

/// Arbitrary printable text, or a long run of one opening sequence: the
/// parser recurses per nesting level, so depth is its own way to fail.
fn hostile_input() -> impl Strategy<Value = String> {
    const OPENERS: [&str; 3] = ["[", "{\"k\":", "[{\"a\":"];
    prop_oneof![
        "\\PC{0,80}",
        (0..OPENERS.len(), 0usize..4000).prop_map(|(opener, n)| OPENERS[opener].repeat(n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_parse_roundtrip(doc in json_strategy()) {
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(back, doc, "text: {}", text);
    }

    #[test]
    fn strings_with_arbitrary_content_roundtrip(s in "\\PC{0,40}") {
        let doc = Json::String(s.clone());
        let back = Json::parse(&doc.to_string()).unwrap();
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    #[test]
    fn parse_never_panics_on_arbitrary_input(input in hostile_input()) {
        let _ = Json::parse(&input); // must return, never panic
    }

    #[test]
    fn nested_path_lookup_consistent(
        keys in prop::collection::vec("[a-z]{1,6}", 1..4),
        leaf in number_strategy(),
    ) {
        // Build {k1: {k2: {... leaf}}} and read it back via path().
        let mut doc = Json::Number(leaf);
        for key in keys.iter().rev() {
            let mut map = BTreeMap::new();
            map.insert(key.clone(), doc);
            doc = Json::Object(map);
        }
        let dotted = keys.join(".");
        prop_assert_eq!(doc.path(&dotted).and_then(Json::as_f64), Some(leaf));
        // A path that dives one level past the leaf can never resolve.
        let too_deep = format!("{dotted}.zzz");
        prop_assert!(doc.path(&too_deep).is_none());
    }
}
