//! `IndexEntry::from_record` on arbitrary bytes: every index probe hit is
//! decoded through it, so it must answer `Ok` or `Err` on any input and
//! never panic. Inputs mix uniform bytes with the fragments the format is
//! made of (type tags, the unit separator, hex digits, multi-byte chars),
//! so the generator reaches the decoder's inner branches rather than only
//! its first "not UTF-8" exit.

use proptest::prelude::*;
use rede_storage::{IndexEntry, Record};

/// The format's own vocabulary, plus chars wider than one byte.
const PIECES: &[&str] = &[
    "x:",
    "i:",
    "f:",
    "s:",
    "d:",
    "b:",
    "n:",
    ":",
    "\u{1f}",
    "0",
    "9",
    "a",
    "F",
    "ff",
    "-",
    "+",
    "\u{e9}",
    "\u{1f600}",
    "1",
];

/// Type tags `Value::from_field` knows, and one it does not.
const TAGS: &[&str] = &["x:", "i:", "f:", "s:", "d:", "b:", "n:", "q:"];

fn fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => any::<u8>().prop_map(|b| vec![b]),
        6 => (0..PIECES.len()).prop_map(|i| PIECES[i].as_bytes().to_vec()),
    ]
}

/// A `tag:body` field with a body of fragments.
fn field() -> impl Strategy<Value = Vec<u8>> {
    (0..TAGS.len(), prop::collection::vec(fragment(), 0..8))
        .prop_map(|(tag, body)| [TAGS[tag].as_bytes().to_vec(), body.concat()].concat())
}

fn entry_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(fragment(), 0..24).prop_map(|f| f.concat()),
        (field(), field()).prop_map(|(pk, k)| [pk, "\u{1f}".as_bytes().to_vec(), k].concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn index_entry_decode_never_panics(bytes in entry_bytes()) {
        if let Ok(entry) = IndexEntry::from_record(&Record::from_bytes(bytes)) {
            // Whatever decodes re-encodes to an entry that decodes back to
            // itself.
            let again = IndexEntry::from_record(&entry.to_record()).unwrap();
            prop_assert_eq!(again, entry);
        }
    }
}
