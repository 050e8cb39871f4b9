//! Write-ahead log: durability for online writes.
//!
//! The lake's heaps and catalog are rebuilt from raw data on load, but
//! *online* writes — the ingest path — need durability of their own: a
//! crash between commit and the next full reload must not lose acknowledged
//! transactions, and recovery must rebuild heaps + catalog to exactly the
//! pre-crash state. [`WriteAheadLog`] provides that as a simulated
//! append-only log:
//!
//! * **LSN-stamped, checksummed frames** — every logged operation becomes
//!   one frame `[u32 payload_len][u64 lsn][u64 checksum][payload]`, with
//!   the checksum (FxHash seeded by the LSN) covering the payload. Replay
//!   stops at the first torn or corrupt frame, so a crash mid-append
//!   truncates to the last intact prefix instead of reviving garbage.
//! * **Group commit** — [`WriteAheadLog::flush`] blocks until the given
//!   LSN is durable, but only one committer at a time plays fsync leader:
//!   it sleeps the modeled [`IoModel::wal_fsync`](crate::IoModel) latency
//!   once and advances the durable horizon past *every* frame appended
//!   before the sync started, releasing all waiters behind it. Concurrent
//!   committers therefore share fsyncs instead of paying one each.
//! * **Replay** — [`WriteAheadLog::replay_into`] re-applies committed
//!   transactions to a cluster in commit order, skipping transactions at
//!   or below the cluster's applied high-water timestamp, which makes
//!   re-replay (and replay over a partially recovered cluster) idempotent.
//!
//! The log body lives in memory (`Vec<u8>`) like every other simulated
//! device in this crate; [`WriteAheadLog::bytes`] /
//! [`WriteAheadLog::from_bytes`] expose the on-"disk" image so crash tests
//! can truncate it at arbitrary byte positions and recover.

use crate::cluster::{FileSpec, SimCluster};
use crate::partitioner::Partitioning;
use crate::record::Record;
use parking_lot::{Condvar, Mutex};
use rede_common::{fxhash, RedeError, Result, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bytes of a frame header: payload length (u32), LSN (u64), checksum (u64).
const FRAME_HEADER: usize = 4 + 8 + 8;

const TAG_CREATE_FILE: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_COMMIT: u8 = 3;

const PART_HASH: u8 = 0;
const PART_RANGE: u8 = 1;

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A heap file registered in the catalog.
    CreateFile {
        name: String,
        partitioning: Partitioning,
    },
    /// One record version written to a heap file. The commit timestamp is
    /// carried by the transaction's closing [`WalOp::Commit`] frame.
    Write {
        file: String,
        partition_key: Value,
        key: Value,
        record: Record,
    },
    /// Transaction boundary: every op since the previous commit belongs to
    /// the transaction committed at `ts`.
    Commit { ts: u64 },
}

impl WalOp {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalOp::CreateFile { name, partitioning } => {
                out.push(TAG_CREATE_FILE);
                put_str(&mut out, name);
                match partitioning {
                    Partitioning::Hash { partitions, seed } => {
                        out.push(PART_HASH);
                        out.extend_from_slice(&(*partitions as u64).to_le_bytes());
                        out.extend_from_slice(&seed.to_le_bytes());
                    }
                    Partitioning::Range { boundaries } => {
                        out.push(PART_RANGE);
                        out.extend_from_slice(&(boundaries.len() as u32).to_le_bytes());
                        for b in boundaries {
                            put_str(&mut out, &b.to_field());
                        }
                    }
                }
            }
            WalOp::Write {
                file,
                partition_key,
                key,
                record,
            } => {
                out.push(TAG_WRITE);
                put_str(&mut out, file);
                put_str(&mut out, &partition_key.to_field());
                put_str(&mut out, &key.to_field());
                put_bytes(&mut out, record.bytes());
            }
            WalOp::Commit { ts } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&ts.to_le_bytes());
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<WalOp> {
        let bad = |what: &str| RedeError::Corrupt(format!("wal frame: {what}"));
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        match cur.u8().ok_or_else(|| bad("empty payload"))? {
            TAG_CREATE_FILE => {
                let name = cur.str_field().ok_or_else(|| bad("file name"))?;
                let partitioning = match cur.u8().ok_or_else(|| bad("partitioning tag"))? {
                    PART_HASH => {
                        let partitions = cur.u64().ok_or_else(|| bad("hash partitions"))? as usize;
                        let seed = cur.u64().ok_or_else(|| bad("hash seed"))?;
                        Partitioning::Hash { partitions, seed }
                    }
                    PART_RANGE => {
                        let n = cur.u32().ok_or_else(|| bad("range boundary count"))?;
                        // Grown, never sized from the untrusted count: a
                        // truncated list fails at its first missing field.
                        let mut boundaries = Vec::new();
                        for _ in 0..n {
                            let f = cur.str_field().ok_or_else(|| bad("range boundary"))?;
                            boundaries.push(Value::from_field(&f)?);
                        }
                        Partitioning::Range { boundaries }
                    }
                    _ => return Err(bad("unknown partitioning")),
                };
                Ok(WalOp::CreateFile { name, partitioning })
            }
            TAG_WRITE => {
                let file = cur.str_field().ok_or_else(|| bad("write file"))?;
                let pk = cur.str_field().ok_or_else(|| bad("partition key"))?;
                let k = cur.str_field().ok_or_else(|| bad("record key"))?;
                let rec = cur.bytes_field().ok_or_else(|| bad("record payload"))?;
                Ok(WalOp::Write {
                    file,
                    partition_key: Value::from_field(&pk)?,
                    key: Value::from_field(&k)?,
                    record: Record::from_bytes(rec.to_vec()),
                })
            }
            TAG_COMMIT => {
                let ts = cur.u64().ok_or_else(|| bad("commit ts"))?;
                Ok(WalOp::Commit { ts })
            }
            _ => Err(bad("unknown op tag")),
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn bytes_field(&mut self) -> Option<&[u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn str_field(&mut self) -> Option<String> {
        let b = self.bytes_field()?;
        std::str::from_utf8(b).ok().map(str::to_string)
    }
}

struct LogBuf {
    buf: Vec<u8>,
    /// LSN of the last appended frame (0 = empty log).
    last_lsn: u64,
}

struct FlushState {
    /// Highest LSN known durable.
    durable: u64,
    /// True while one committer is playing fsync leader.
    flushing: bool,
}

/// Simulated append-only write-ahead log with group commit.
pub struct WriteAheadLog {
    log: Mutex<LogBuf>,
    flush: Mutex<FlushState>,
    flushed: Condvar,
    fsync_latency: Duration,
    fsyncs: AtomicU64,
}

impl WriteAheadLog {
    /// An empty log whose fsyncs sleep `fsync_latency` (wire
    /// [`IoModel::wal_fsync`](crate::IoModel) here; `Duration::ZERO` for
    /// counting-only tests).
    pub fn new(fsync_latency: Duration) -> WriteAheadLog {
        WriteAheadLog::from_bytes(Vec::new(), fsync_latency)
    }

    /// Reopen a log from its on-disk image (possibly truncated by a
    /// crash). The intact frame prefix defines the durable horizon — a
    /// frame that survived IS durable; anything after the first torn or
    /// corrupt frame is discarded.
    pub fn from_bytes(bytes: Vec<u8>, fsync_latency: Duration) -> WriteAheadLog {
        let (valid_len, last_lsn) = scan_valid_prefix(&bytes);
        let mut buf = bytes;
        buf.truncate(valid_len);
        WriteAheadLog {
            log: Mutex::new(LogBuf { buf, last_lsn }),
            flush: Mutex::new(FlushState {
                durable: last_lsn,
                flushing: false,
            }),
            flushed: Condvar::new(),
            fsync_latency,
            fsyncs: AtomicU64::new(0),
        }
    }

    /// Append one operation; returns its LSN and the framed byte count
    /// (callers feed the latter to `Metrics::record_wal_append`). The
    /// frame is in the log buffer but NOT yet durable — call
    /// [`WriteAheadLog::flush`] with the returned LSN before
    /// acknowledging a commit.
    pub fn append(&self, op: &WalOp) -> (u64, u64) {
        let payload = op.encode();
        let mut log = self.log.lock();
        let lsn = log.last_lsn + 1;
        let checksum = fxhash::hash_bytes(lsn, &payload);
        log.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.buf.extend_from_slice(&lsn.to_le_bytes());
        log.buf.extend_from_slice(&checksum.to_le_bytes());
        log.buf.extend_from_slice(&payload);
        log.last_lsn = lsn;
        (lsn, (FRAME_HEADER + payload.len()) as u64)
    }

    /// Block until `lsn` is durable (group commit). If no sync is in
    /// flight this caller becomes the leader: it pays one fsync latency
    /// and advances the durable horizon past every frame appended before
    /// the sync started. Otherwise it waits; the leader's single fsync
    /// usually covers it, and if not, it takes the next turn.
    pub fn flush(&self, lsn: u64) {
        let mut st = self.flush.lock();
        loop {
            if st.durable >= lsn {
                return;
            }
            if !st.flushing {
                st.flushing = true;
                let end = self.log.lock().last_lsn;
                drop(st);
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                if !self.fsync_latency.is_zero() {
                    std::thread::sleep(self.fsync_latency);
                }
                st = self.flush.lock();
                st.durable = st.durable.max(end);
                st.flushing = false;
                self.flushed.notify_all();
            } else {
                self.flushed.wait(&mut st);
            }
        }
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.flush.lock().durable
    }

    /// LSN of the last appended frame (durable or not).
    pub fn last_lsn(&self) -> u64 {
        self.log.lock().last_lsn
    }

    /// Fsyncs actually performed. Group commit makes this grow slower
    /// than the number of committed transactions under concurrency.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// The on-"disk" image (crash tests truncate this and reopen with
    /// [`WriteAheadLog::from_bytes`]).
    pub fn bytes(&self) -> Vec<u8> {
        self.log.lock().buf.clone()
    }

    /// Decode the intact frame prefix into `(lsn, op)` pairs.
    pub fn frames(&self) -> Result<Vec<(u64, WalOp)>> {
        let log = self.log.lock();
        let mut out = Vec::new();
        let mut pos = 0;
        while let Some((lsn, payload, next)) = next_frame(&log.buf, pos) {
            out.push((lsn, WalOp::decode(payload)?));
            pos = next;
        }
        Ok(out)
    }

    /// Re-apply committed transactions to `cluster`, in commit order.
    ///
    /// Only transactions closed by a [`WalOp::Commit`] frame inside the
    /// intact prefix are applied — a transaction whose commit frame was
    /// torn off by the crash is discarded wholesale (it was never
    /// acknowledged). Transactions at or below the cluster's applied
    /// high-water timestamp are skipped, so replaying twice, or over a
    /// cluster that already saw some of the log live, is idempotent.
    /// Returns the highest commit timestamp applied or skipped.
    pub fn replay_into(&self, cluster: &SimCluster) -> Result<u64> {
        let applied = cluster.max_commit_ts();
        let mut high = applied;
        let mut pending: Vec<WalOp> = Vec::new();
        for (_, op) in self.frames()? {
            match op {
                WalOp::Commit { ts } => {
                    if ts > applied {
                        for p in pending.drain(..) {
                            apply_op(cluster, p, ts)?;
                        }
                        high = high.max(ts);
                    } else {
                        pending.clear();
                    }
                }
                other => pending.push(other),
            }
        }
        // Ops after the last commit frame belong to an unacknowledged
        // transaction: dropped by construction.
        Ok(high)
    }
}

impl std::fmt::Debug for WriteAheadLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteAheadLog")
            .field("last_lsn", &self.last_lsn())
            .field("durable_lsn", &self.durable_lsn())
            .field("fsyncs", &self.fsyncs())
            .finish()
    }
}

fn apply_op(cluster: &SimCluster, op: WalOp, ts: u64) -> Result<()> {
    match op {
        WalOp::CreateFile { name, partitioning } => {
            match cluster.create_file(FileSpec::new(&name, partitioning)) {
                Ok(_) => Ok(()),
                // Already present (e.g. created live before the crash, or
                // by an earlier replay): recovery converges, not errors.
                Err(RedeError::AlreadyExists(_)) => Ok(()),
                Err(e) => Err(e),
            }
        }
        WalOp::Write {
            file,
            partition_key,
            key,
            record,
        } => {
            let handle = cluster.file(&file)?;
            handle
                .raw()
                .insert_versioned(&partition_key, key, record, ts)?;
            Ok(())
        }
        WalOp::Commit { .. } => unreachable!("commit frames delimit, never apply"),
    }
}

/// Parse one frame at `pos`; `None` on a torn or corrupt frame (or end).
fn next_frame(buf: &[u8], pos: usize) -> Option<(u64, &[u8], usize)> {
    let header = buf.get(pos..pos + FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let lsn = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let checksum = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let payload = buf.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len)?;
    if fxhash::hash_bytes(lsn, payload) != checksum {
        return None;
    }
    Some((lsn, payload, pos + FRAME_HEADER + len))
}

/// Length of the intact frame prefix and the LSN of its last frame.
fn scan_valid_prefix(buf: &[u8]) -> (usize, u64) {
    let mut pos = 0;
    let mut last_lsn = 0;
    while let Some((lsn, _, next)) = next_frame(buf, pos) {
        last_lsn = lsn;
        pos = next;
    }
    (pos, last_lsn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateFile {
                name: "t".into(),
                partitioning: Partitioning::hash(4),
            },
            WalOp::Commit { ts: 1 },
            WalOp::Write {
                file: "t".into(),
                partition_key: Value::Int(1),
                key: Value::Int(1),
                record: Record::from_text("a|1"),
            },
            WalOp::Write {
                file: "t".into(),
                partition_key: Value::str("k"),
                key: Value::str("k"),
                record: Record::from_bytes(vec![0xff, 0x00, 0x7f]),
            },
            WalOp::Commit { ts: 2 },
        ]
    }

    #[test]
    fn ops_round_trip_through_frames() {
        let wal = WriteAheadLog::new(Duration::ZERO);
        for op in ops() {
            wal.append(&op);
        }
        let frames = wal.frames().unwrap();
        assert_eq!(frames.len(), 5);
        for ((lsn, got), (i, want)) in frames.into_iter().zip(ops().into_iter().enumerate()) {
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn range_partitioning_round_trips() {
        let op = WalOp::CreateFile {
            name: "r".into(),
            partitioning: Partitioning::range(vec![Value::Int(10), Value::str("zz")]),
        };
        let wal = WriteAheadLog::new(Duration::ZERO);
        wal.append(&op);
        assert_eq!(wal.frames().unwrap()[0].1, op);
    }

    #[test]
    fn torn_tail_is_discarded_on_reopen() {
        let wal = WriteAheadLog::new(Duration::ZERO);
        for op in ops() {
            wal.append(&op);
        }
        let full = wal.bytes();
        // Every strict prefix shorter than the full image drops at least
        // the torn frame; the surviving prefix must parse cleanly.
        for cut in [1, 10, full.len() / 2, full.len() - 1] {
            let reopened = WriteAheadLog::from_bytes(full[..cut].to_vec(), Duration::ZERO);
            let frames = reopened.frames().unwrap();
            assert!(frames.len() < 5, "cut {cut} must lose the tail");
            // Reopened log keeps appending from the surviving LSN.
            let (lsn, _) = reopened.append(&WalOp::Commit { ts: 99 });
            assert_eq!(lsn, frames.len() as u64 + 1);
        }
    }

    #[test]
    fn corrupt_byte_truncates_from_damage_onward() {
        let wal = WriteAheadLog::new(Duration::ZERO);
        for op in ops() {
            wal.append(&op);
        }
        let mut image = wal.bytes();
        // Flip a byte inside the third frame's payload.
        let target = image.len() - 10;
        image[target] ^= 0xa5;
        let reopened = WriteAheadLog::from_bytes(image, Duration::ZERO);
        assert!(reopened.frames().unwrap().len() < 5);
    }

    /// One frame around `payload` with a valid checksum, so it reaches
    /// `WalOp::decode`.
    fn framed(payload: &[u8]) -> WriteAheadLog {
        let mut image = (payload.len() as u32).to_le_bytes().to_vec();
        image.extend_from_slice(&1u64.to_le_bytes());
        image.extend_from_slice(&fxhash::hash_bytes(1, payload).to_le_bytes());
        image.extend_from_slice(payload);
        WriteAheadLog::from_bytes(image, Duration::ZERO)
    }

    #[test]
    fn untrusted_counts_are_errors_not_allocations() {
        // A range-boundary count of u32::MAX with no boundaries behind it.
        let mut payload = vec![TAG_CREATE_FILE];
        put_str(&mut payload, "t");
        payload.push(PART_RANGE);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            framed(&payload).frames(),
            Err(RedeError::Corrupt(_))
        ));

        // A hash partition count of u64::MAX, committed: replay must refuse
        // to build it.
        let wal = WriteAheadLog::new(Duration::ZERO);
        wal.append(&WalOp::CreateFile {
            name: "t".into(),
            partitioning: Partitioning::Hash {
                partitions: usize::MAX,
                seed: 0,
            },
        });
        wal.append(&WalOp::Commit { ts: 1 });
        let cluster = SimCluster::builder().build().unwrap();
        assert!(matches!(
            wal.replay_into(&cluster),
            Err(RedeError::Config(_))
        ));
    }

    #[test]
    fn flush_advances_durable_horizon() {
        let wal = WriteAheadLog::new(Duration::ZERO);
        let (lsn, _) = wal.append(&WalOp::Commit { ts: 1 });
        assert_eq!(wal.durable_lsn(), 0);
        wal.flush(lsn);
        assert_eq!(wal.durable_lsn(), lsn);
        assert_eq!(wal.fsyncs(), 1);
        // Already durable: no second fsync.
        wal.flush(lsn);
        assert_eq!(wal.fsyncs(), 1);
    }

    #[test]
    fn group_commit_shares_fsyncs() {
        let wal = Arc::new(WriteAheadLog::new(Duration::from_millis(20)));
        let mut lsns = Vec::new();
        for i in 0..16 {
            lsns.push(wal.append(&WalOp::Commit { ts: i }).0);
        }
        std::thread::scope(|s| {
            for &lsn in &lsns {
                let wal = wal.clone();
                s.spawn(move || wal.flush(lsn));
            }
        });
        assert!(wal.durable_lsn() >= *lsns.last().unwrap());
        assert!(
            wal.fsyncs() < 16,
            "16 concurrent committers must share fsyncs, got {}",
            wal.fsyncs()
        );
    }
}
