//! Crash-recovery guarantees of the ingest path: a cluster rebuilt from a
//! WAL image — cut *anywhere*, mid-frame or at a frame boundary — must be
//! byte-identical to a cluster that committed exactly the transactions
//! whose commit frames survive in the prefix, and replaying the same
//! image again must change nothing.

use proptest::prelude::*;
use rede_common::Value;
use rede_core::txn::TxnManager;
use rede_storage::{Partitioning, Record, SimCluster, MIN_MEMORY_BUDGET};
use std::collections::BTreeMap;
use std::sync::Arc;

const PARTITIONS: usize = 4;
const ROWS_PER_TXN: i64 = 6;

fn fresh(nodes: usize) -> SimCluster {
    SimCluster::builder().nodes(nodes).build().unwrap()
}

/// Deterministic workload: txn 0 creates the file; every txn writes
/// `ROWS_PER_TXN` rows — a mix of brand-new keys and overwrites of keys
/// from earlier transactions, so replay must reproduce version chains,
/// not just final values.
fn apply_txn(mgr: &Arc<TxnManager>, t: i64) {
    let mut s = mgr.begin();
    if t == 0 {
        s.create_file("t", Partitioning::hash(PARTITIONS));
    }
    for i in 0..ROWS_PER_TXN {
        let key = if i % 3 == 2 && t > 0 {
            // Overwrite a key written by an earlier transaction.
            (t - 1) * ROWS_PER_TXN + i
        } else {
            t * ROWS_PER_TXN + i
        };
        s.write(
            "t",
            Value::Int(key),
            Record::from_text(&format!("{key}@{t}|{}", key * 3 + t)),
        );
    }
    assert_eq!(s.commit().unwrap(), (t + 1) as u64);
}

/// Slot-exact fingerprint of every heap in the cluster: catalog name →
/// partition → ordered (key, record bytes) slots. Raw (uncharged,
/// unversioned) reads, so two clusters compare equal only if replay
/// reproduced the physical slot layout — version chains included — not
/// just the visible tip.
type Fingerprint = BTreeMap<String, Vec<Vec<(String, Vec<u8>)>>>;

fn fingerprint(c: &SimCluster) -> Fingerprint {
    let mut out = BTreeMap::new();
    for name in c.catalog_names() {
        let Ok(f) = c.file(&name) else { continue };
        let heap = f.raw();
        let parts = (0..heap.partitions())
            .map(|p| {
                heap.read_slots(p, 0, usize::MAX, None)
                    .unwrap()
                    .0
                    .into_iter()
                    .map(|(k, r)| (format!("{k:?}"), r.bytes().to_vec()))
                    .collect()
            })
            .collect();
        out.insert(name, parts);
    }
    out
}

/// Reference cluster that committed exactly the first `j` transactions.
fn reference(j: u64) -> SimCluster {
    let c = fresh(2);
    let mgr = TxnManager::new(c.clone());
    for t in 0..j {
        apply_txn(&mgr, t as i64);
    }
    c
}

/// Frame boundary offsets of a WAL image: 0, end of frame 1, end of
/// frame 2, … (walks the `[u32 len][u64 lsn][u64 checksum]` headers).
fn frame_boundaries(image: &[u8]) -> Vec<usize> {
    const HEADER: usize = 4 + 8 + 8;
    let mut offs = vec![0];
    let mut off = 0;
    while off + HEADER <= image.len() {
        let len = u32::from_le_bytes(image[off..off + 4].try_into().unwrap()) as usize;
        off += HEADER + len;
        offs.push(off);
    }
    assert_eq!(*offs.last().unwrap(), image.len(), "image parses cleanly");
    offs
}

#[test]
fn every_crash_point_recovers_a_committed_prefix_byte_identically() {
    const TXNS: i64 = 5;
    let c = fresh(2);
    let mgr = TxnManager::new(c.clone());
    for t in 0..TXNS {
        apply_txn(&mgr, t);
    }
    let image = mgr.wal().bytes();
    let boundaries = frame_boundaries(&image);
    // txn 0 has an extra CreateFile frame; each txn is ROWS_PER_TXN write
    // frames + 1 commit frame.
    assert_eq!(
        boundaries.len() as i64 - 1,
        1 + TXNS * (ROWS_PER_TXN + 1),
        "frame count matches the workload"
    );
    let references: Vec<_> = (0..=TXNS as u64)
        .map(|j| fingerprint(&reference(j)))
        .collect();

    // Kill after every frame, and at torn offsets inside the next frame:
    // one byte in, one byte short of a full header, one byte past it.
    let mut cuts: Vec<usize> = Vec::new();
    for &b in &boundaries {
        for cut in [b, b + 1, b + 19, b + 21] {
            if cut <= image.len() {
                cuts.push(cut);
            }
        }
    }
    for cut in cuts {
        let recovered = fresh(2);
        let mgr2 = TxnManager::recover(recovered.clone(), image[..cut].to_vec()).unwrap();
        let j = mgr2.current_ts();
        assert!(j <= TXNS as u64);
        assert_eq!(
            fingerprint(&recovered),
            references[j as usize],
            "cut at byte {cut} (recovered {j} txns) must match the reference prefix"
        );
        assert_eq!(
            recovered.catalog_names(),
            reference(j).catalog_names(),
            "catalog must match at cut {cut}"
        );
        // Idempotence: replaying the full image into the recovered
        // cluster applies only the missing suffix — and replaying it
        // *again* applies nothing.
        let mgr3 = TxnManager::recover(recovered.clone(), image.clone()).unwrap();
        assert_eq!(mgr3.current_ts(), TXNS as u64);
        assert_eq!(fingerprint(&recovered), references[TXNS as usize]);
        let mgr4 = TxnManager::recover(recovered.clone(), image.clone()).unwrap();
        assert_eq!(mgr4.current_ts(), TXNS as u64);
        assert_eq!(fingerprint(&recovered), references[TXNS as usize]);
    }
}

#[test]
fn a_corrupt_byte_truncates_to_the_last_valid_prefix() {
    let c = fresh(2);
    let mgr = TxnManager::new(c.clone());
    for t in 0..4 {
        apply_txn(&mgr, t);
    }
    let image = mgr.wal().bytes();
    // Flip one payload byte roughly mid-log: everything from the damaged
    // frame on is discarded, and what remains is still a committed prefix.
    let mut damaged = image.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xff;
    let recovered = fresh(2);
    let mgr2 = TxnManager::recover(recovered.clone(), damaged).unwrap();
    let j = mgr2.current_ts();
    assert!(j < 4, "corruption mid-log must cost at least the last txn");
    assert_eq!(fingerprint(&recovered), fingerprint(&reference(j)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Buffer-pool write-back survives reopen: replaying one WAL image
    /// into an unbounded cluster and into one pinned at the 16-page floor
    /// budget (every access storms the evict/write-back/reload path)
    /// yields byte-identical pages.
    #[test]
    fn write_back_then_reopen_is_byte_identical(
        txns in 1i64..6,
        pad in 1usize..60,
        seed in 0u64..1000,
    ) {
        let c = fresh(2);
        let mgr = TxnManager::new(c.clone());
        for t in 0..txns {
            let mut s = mgr.begin();
            if t == 0 {
                s.create_file("t", Partitioning::hash(PARTITIONS));
            }
            for i in 0..ROWS_PER_TXN {
                let key = (seed as i64 + t * ROWS_PER_TXN + i) % 40;
                s.write(
                    "t",
                    Value::Int(key),
                    Record::from_text(&format!("{key}@{t}|{:x>pad$}", t)),
                );
            }
            s.commit().unwrap();
        }
        let image = mgr.wal().bytes();

        let unbounded = fresh(2);
        TxnManager::recover(unbounded.clone(), image.clone()).unwrap();
        let floor = SimCluster::builder()
            .nodes(2)
            .memory_budget(MIN_MEMORY_BUDGET)
            .build()
            .unwrap();
        TxnManager::recover(floor.clone(), image).unwrap();
        prop_assert_eq!(fingerprint(&unbounded), fingerprint(&floor));
        prop_assert_eq!(fingerprint(&unbounded), fingerprint(&c));
    }
}
