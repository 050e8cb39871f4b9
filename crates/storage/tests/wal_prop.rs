//! `WriteAheadLog::from_bytes` on arbitrary images: recovery reads a log
//! a crash may have left in any state, so `frames` and `replay_into` must
//! answer `Ok` or `Err` on any input and never panic or abort.
//!
//! A frame is `[u32 payload_len][u64 lsn][u64 checksum][payload]`, the
//! checksum being `fxhash::hash_bytes(lsn, payload)`. Random bytes almost
//! never carry a valid checksum, so they would only ever test the torn-tail
//! scan; every payload here is framed with a valid one so it reaches the
//! op decoder. Payloads mix uniform bytes with the format's own pieces (op
//! and partitioning tags, small and huge counts, length-prefixed fields),
//! so the decoder's inner branches are reached too.

use proptest::prelude::*;
use rede_common::fxhash;
use rede_storage::{SimCluster, WriteAheadLog};
use std::time::Duration;

/// Length-prefixed fields: file names and `Value` fields, well formed or not.
const FIELDS: &[&str] = &[
    "t", "", "i:1", "i:-7", "s:k", "x:ff", "x:f", "d:1", "q:", "\u{e9}",
];

fn le_u32(n: u32) -> Vec<u8> {
    n.to_le_bytes().to_vec()
}

fn fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        2 => any::<u8>().prop_map(|b| vec![b]),
        // Op tags (create, write, commit) and partitioning tags (hash,
        // range), plus one of each kind that is unknown.
        4 => (0u8..5).prop_map(|tag| vec![tag]),
        2 => (0u32..4).prop_map(le_u32),
        1 => Just(le_u32(u32::MAX)),
        1 => any::<u64>().prop_map(|n| n.to_le_bytes().to_vec()),
        1 => (0u64..4).prop_map(|n| n.to_le_bytes().to_vec()),
        4 => (0..FIELDS.len()).prop_map(|i| {
            let field = FIELDS[i].as_bytes();
            [le_u32(field.len() as u32), field.to_vec()].concat()
        }),
    ]
}

fn fragments(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(fragment(), 0..max).prop_map(|f| f.concat())
}

/// Uniform fragments, or an op's skeleton — tag, name, partitioning tag,
/// then anything — so the partitioning branches are reached often.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        fragments(10),
        (0..FIELDS.len(), 0u8..3, fragments(6)).prop_map(|(name, part, rest)| {
            let name = FIELDS[name].as_bytes();
            [
                vec![1],
                le_u32(name.len() as u32),
                name.to_vec(),
                vec![part],
                rest,
            ]
            .concat()
        }),
    ]
}

/// Every payload framed with a valid checksum, LSNs counting from 1.
fn image(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        let lsn = i as u64 + 1;
        out.extend_from_slice(&le_u32(payload.len() as u32));
        out.extend_from_slice(&lsn.to_le_bytes());
        out.extend_from_slice(&fxhash::hash_bytes(lsn, payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn recovery_never_panics(payloads in prop::collection::vec(payload(), 0..6)) {
        let wal = WriteAheadLog::from_bytes(image(&payloads), Duration::ZERO);
        prop_assert_eq!(wal.last_lsn(), payloads.len() as u64);
        let _ = wal.frames();
        let cluster = SimCluster::builder().nodes(2).build().unwrap();
        let _ = wal.replay_into(&cluster);
    }
}
