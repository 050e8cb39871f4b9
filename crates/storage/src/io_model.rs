//! Injectable I/O latency model: what each storage access costs in
//! simulated time, and the [`Owed`] value that carries that cost from the
//! call that was charged to whoever waits for it.
//!
//! This module is the substitution for the paper's physical testbed (24-HDD
//! RAID-6 arrays per node, `queue_depth = 1008`, 10 GbE fabric). Two
//! mechanisms together reproduce the behaviour the paper's evaluation
//! depends on:
//!
//! 1. **Latency injection** — every storage access takes a configurable
//!    duration depending on its kind (local point read, remote point read,
//!    per-record sequential scan, index traversal). The time is real wall
//!    time, so *concurrent* accesses genuinely overlap: 1000 point reads in
//!    flight together finish in ~1 latency, while an executor issuing them
//!    one at a time per partition serializes them. That is exactly the
//!    SMPE-vs-partitioned-parallelism effect of Fig. 7.
//!
//! 2. **Admission control** — each node's device serves at most
//!    `queue_depth` accesses at once (the paper sets the device queue depth
//!    to 1008); the rest wait FIFO. Massive parallelism beyond the device
//!    capacity queues up rather than speeding up further, bounding the
//!    benefit exactly as real hardware would.
//!
//! Where the time is spent: a point read or index probe is *charged* on the
//! calling thread — fault decision, counters, the actual bytes — and
//! returns an [`Owed`]: one device slot per access for its modeled time,
//! then any page-fault service, then one network round trip. Faults are
//! serial within one access (a descent is a chain of pages) and overlap
//! across the accesses of one charge, so a batch waits for its slowest
//! access's faults, as the same reads from as many threads would. The
//! cluster's event loop turns that into events: each node has two lanes
//! on its one heap, `queue_depth` device slots and a `wire_window` of
//! round trips in the air. Synchronous callers block until their own
//! `Owed` is settled (sleeping the round trip inline, unwindowed); the
//! SMPE executor never blocks. Sequential scans and the baseline's shuffle
//! hops owe their time the same way, as a wait-only phase
//! ([`Owed::delay`]) their callers wait through the cluster: a scan batch
//! owes its page faults plus `scan_cost`, a shuffle hop one `rtt`. They model a
//! stream, not a queue of requests, so they take no device slot. Outside
//! the WAL, which sleeps its own `wal_fsync` per group commit, every
//! simulated wait is an event on the loop or the loop's one inline sleep.
//!
//! Latencies default to microseconds rather than the milliseconds of real
//! HDDs so experiments run in seconds; all *ratios* (random:sequential,
//! remote:local) follow the hardware the paper describes.

use std::time::Duration;

/// How many slots one charged scan batch reads: `scan_partition` and the
/// baseline engine's scans call [`crate::FileHandle::read_slots`] with
/// this count, and each batch is one wait (its page faults plus
/// `scan_cost`), so a scan pays per batch, not per record, at the same
/// total time.
pub const SCAN_BATCH: usize = 1024;

/// Latency model for simulated storage accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoModel {
    /// One random point read served from a local partition.
    pub local_point_read: Duration,
    /// One random point read served by another node (adds network RTT).
    pub remote_point_read: Duration,
    /// Per-record cost of a sequential scan (amortized; charged per batch).
    pub scan_per_record: Duration,
    /// One B+-tree traversal (root-to-leaf; the interior is assumed cached,
    /// so this is cheaper than a data point read).
    pub index_lookup: Duration,
    /// Servicing one buffer-pool page fault: reading a ~4 KiB page back
    /// from the backing store. One positioned read, so it costs like a
    /// local point read rather than a per-record scan. The faults of one
    /// access are serviced one after the other; those of different
    /// accesses in one charge concurrently (see [`Owed`]).
    pub page_fault: Duration,
    /// One WAL fsync: forcing buffered log frames to stable storage. A
    /// positioned write plus a device cache flush, so it is the most
    /// expensive single operation in the model; group commit exists to
    /// amortize it across concurrent committers.
    pub wal_fsync: Duration,
    /// Maximum in-flight point reads per node (device queue depth).
    pub queue_depth: usize,
    /// Maximum network round trips one node keeps in the air (the wire
    /// window); further ones queue FIFO behind them. A property of the
    /// network as `queue_depth` is of the device; clamped to ≥ 1 when the
    /// cluster is built.
    pub wire_window: usize,
}

impl IoModel {
    /// No injected latency and effectively unlimited queue depth. Used by
    /// unit tests and by experiments that only count accesses (Fig. 9).
    pub fn zero() -> IoModel {
        IoModel {
            local_point_read: Duration::ZERO,
            remote_point_read: Duration::ZERO,
            scan_per_record: Duration::ZERO,
            index_lookup: Duration::ZERO,
            page_fault: Duration::ZERO,
            wal_fsync: Duration::ZERO,
            queue_depth: usize::MAX,
            wire_window: 16,
        }
    }

    /// An HDD-cluster-like model scaled down by `scale` (1.0 = microseconds
    /// stand in for the testbed's milliseconds).
    ///
    /// Ratios follow the paper's testbed: a 10K RPM SAS random read is
    /// ~5-8 ms while sequential streaming amortizes to a few µs per
    /// ~150-byte record under contended RAID streams (real HDDs are
    /// 1000:1+ random:sequential; we use a *conservative* 250:1, which
    /// under-states ReDe's advantage); a 10 GbE RTT adds ~0.1-0.2 ms
    /// (remote:local ≈ 1.3:1). `scale = 1.0` compresses everything ~10×
    /// below real hardware so experiments run in seconds.
    pub fn hdd_like(scale: f64) -> IoModel {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "IoModel::hdd_like scale must be finite and non-negative, got {scale}"
        );
        // `as u64` on an out-of-range f64 saturates since Rust 1.45, but the
        // *product* `x * 1000.0 * scale` can itself overflow to infinity for
        // huge scales; clamp explicitly so any such model saturates at
        // u64::MAX nanoseconds instead of depending on cast edge cases (the
        // same treatment `scan_cost` got for its batch multiplication).
        let us = |x: f64| {
            let ns = (x * 1000.0 * scale).min(u64::MAX as f64);
            Duration::from_nanos(ns as u64)
        };
        IoModel {
            local_point_read: us(500.0),
            remote_point_read: us(650.0),
            scan_per_record: us(2.0),
            index_lookup: us(120.0),
            page_fault: us(400.0),
            wal_fsync: us(2000.0),
            queue_depth: 1008,
            wire_window: 16,
        }
    }

    /// True if every latency is zero (lets hot paths skip sleeping).
    pub fn is_zero(&self) -> bool {
        self.local_point_read.is_zero()
            && self.remote_point_read.is_zero()
            && self.scan_per_record.is_zero()
            && self.index_lookup.is_zero()
            && self.page_fault.is_zero()
            && self.wal_fsync.is_zero()
    }

    /// Total modeled cost of scanning `n` records. Computed in 128-bit
    /// nanosecond arithmetic: the earlier `saturating_mul(n as u32)`
    /// silently truncated batch sizes above `u32::MAX`, undercharging
    /// very large scans.
    pub fn scan_cost(&self, n: usize) -> Duration {
        let ns = self.scan_per_record.as_nanos().saturating_mul(n as u128);
        if ns > u64::MAX as u128 {
            Duration::from_nanos(u64::MAX)
        } else {
            Duration::from_nanos(ns as u64)
        }
    }

    /// Modeled time to service `n` buffer-pool page faults taken by one
    /// access (or one scan), one after the other (128-bit saturating math
    /// like `scan_cost`). Fault service is owed by the access path that
    /// took the faults, *outside* the device slots: the simulated backing
    /// store stands apart from the point-read device queue the paper
    /// saturates. The accesses of one charge owe theirs through
    /// `Owed::fault`, which overlaps them.
    pub fn page_fault_cost(&self, n: u64) -> Duration {
        let ns = self.page_fault.as_nanos().saturating_mul(n as u128);
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Network RTT component of a remote access: `remote − local`. The
    /// fixed per-request cost batching amortizes.
    #[inline]
    pub fn rtt(&self) -> Duration {
        self.remote_point_read.saturating_sub(self.local_point_read)
    }
}

/// What a charged storage call still owes in simulated time.
///
/// Charging (fault gate, counters, the read itself) happens at submit, on
/// the calling thread; the *time* is returned as this value and settled by
/// the cluster's event loop ([`crate::SimCluster::settle`] as events,
/// [`crate::SimCluster::wait`] blocking). It is a sequence of **phases**
/// followed by one network flight:
///
/// * a phase is the accesses of one charge — each holds one slot on its
///   serving node's device for its own modeled time, all of them contending
///   together — then a wait once the last has landed: the charge's page
///   faults, serviced concurrently across its accesses so the longest
///   access's fault chain is what is waited (`Owed::fault`), then any
///   retry backoff, serially ([`Owed::delay`]);
/// * phases run one after the other (the partitions of a multi-partition
///   probe, the rounds of a retried dispatch);
/// * the round trip, if any phase was served remotely, flies last.
///
/// Zero-time accesses and waits are never recorded, so a latency-free
/// model owes [`Owed::is_zero`] and allocates nothing.
#[derive(Debug, Default)]
pub struct Owed {
    pub(crate) phases: Vec<Phase>,
    pub(crate) rtt: Duration,
    /// True while the last phase belongs to the charge being recorded, so
    /// its faults may fold into it; any other step closes it.
    open: bool,
}

/// One step of an [`Owed`]: concurrent device accesses, then a wait.
#[derive(Debug, Default)]
pub(crate) struct Phase {
    /// `(serving node, device time)` per access, in charge order.
    pub(crate) accesses: Vec<(usize, Duration)>,
    /// Waited after the last access lands: the longest fault chain of
    /// the charge's accesses, plus any backoff delayed after it.
    pub(crate) then: Duration,
}

impl Owed {
    /// True when nothing is owed: every result is final now.
    pub fn is_zero(&self) -> bool {
        self.phases.is_empty() && self.rtt.is_zero()
    }

    /// The network round trip flown after the device phases.
    pub fn rtt(&self) -> Duration {
        self.rtt
    }

    /// Sequence `later` after everything owed so far — a retry round
    /// follows the round before it, round trip included, so the RTTs add.
    pub fn then(&mut self, later: Owed) {
        self.phases.extend(later.phases);
        self.rtt = self.rtt.saturating_add(later.rtt);
        self.open = false;
    }

    /// Wait `d` after everything owed so far has landed (and before the
    /// network flight), serially: a retry's backoff, or the whole of a
    /// scan batch's or shuffle hop's time. Closes the charge, so no later
    /// fault overlaps the wait.
    pub fn delay(&mut self, d: Duration) {
        if d.is_zero() {
            return;
        }
        self.open = false;
        match self.phases.last_mut() {
            Some(phase) => phase.then = phase.then.saturating_add(d),
            None => self.phases.push(Phase {
                accesses: Vec::new(),
                then: d,
            }),
        }
    }

    /// Owe `d` of page-fault service for one access of the charge being
    /// recorded. The accesses of a charge service their faults
    /// concurrently, so the phase waits for the longest (`max`), never
    /// the sum; a charge that owed no device time gets a wait-only phase
    /// of its own rather than folding into an earlier charge's.
    pub(crate) fn fault(&mut self, d: Duration) {
        if d.is_zero() {
            return;
        }
        match self.phases.last_mut() {
            Some(phase) if self.open => phase.then = phase.then.max(d),
            _ => {
                self.phases.push(Phase {
                    accesses: Vec::new(),
                    then: d,
                });
                self.open = true;
            }
        }
    }

    /// Record one charge: its accesses contend for device slots together,
    /// after every earlier phase. `rtt` is the round trip the charge
    /// incurred; charges of one storage call are in the air together, so
    /// they share the longest rather than summing. Opens the phase the
    /// charge's faults fold into ([`Owed::fault`]).
    pub(crate) fn phase(&mut self, accesses: Vec<(usize, Duration)>, rtt: Duration) {
        self.open = !accesses.is_empty();
        if self.open {
            self.phases.push(Phase {
                accesses,
                then: Duration::ZERO,
            });
        }
        self.rtt = self.rtt.max(rtt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        assert!(IoModel::zero().is_zero());
        assert!(!IoModel::hdd_like(1.0).is_zero());
    }

    /// Regression: `is_zero` must consider *every* latency field — a model
    /// with only an index-lookup or scan cost is not zero, or a gated
    /// "zero-cost" cluster would silently sleep through those accesses.
    #[test]
    fn is_zero_audits_every_latency_field() {
        let fields: [fn(&mut IoModel, Duration); 6] = [
            |m, d| m.local_point_read = d,
            |m, d| m.remote_point_read = d,
            |m, d| m.scan_per_record = d,
            |m, d| m.index_lookup = d,
            |m, d| m.page_fault = d,
            |m, d| m.wal_fsync = d,
        ];
        for (i, set) in fields.iter().enumerate() {
            let mut m = IoModel::zero();
            set(&mut m, Duration::from_micros(1));
            assert!(!m.is_zero(), "field {i} alone must defeat is_zero");
        }
        // Queue depth and wire window are not latencies.
        let mut m = IoModel::zero();
        m.queue_depth = 4;
        m.wire_window = 1;
        assert!(m.is_zero());
    }

    #[test]
    fn hdd_like_scales() {
        let a = IoModel::hdd_like(1.0);
        let b = IoModel::hdd_like(2.0);
        assert_eq!(b.local_point_read, a.local_point_read * 2);
        assert_eq!(a.queue_depth, 1008);
        assert_eq!((a.wire_window, IoModel::zero().wire_window), (16, 16));
    }

    #[test]
    fn hdd_like_saturates_on_huge_scale_instead_of_wrapping() {
        // 500 µs × 1e300 overflows any integer width; the model must pin at
        // u64::MAX nanoseconds, not wrap to something small.
        let m = IoModel::hdd_like(1e300);
        assert_eq!(m.local_point_read, Duration::from_nanos(u64::MAX));
        assert_eq!(m.remote_point_read, Duration::from_nanos(u64::MAX));
        // A merely-large finite scale must stay exact (no premature clamp).
        let big = IoModel::hdd_like(1e6);
        assert_eq!(big.local_point_read, Duration::from_millis(500_000));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn hdd_like_rejects_negative_scale() {
        let _ = IoModel::hdd_like(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn hdd_like_rejects_nan_scale() {
        let _ = IoModel::hdd_like(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn hdd_like_rejects_infinite_scale() {
        let _ = IoModel::hdd_like(f64::INFINITY);
    }

    #[test]
    fn random_to_sequential_ratio_is_large() {
        let m = IoModel::hdd_like(1.0);
        let ratio = m.local_point_read.as_nanos() / m.scan_per_record.as_nanos();
        assert!(
            ratio >= 100,
            "random reads must dwarf per-record scan cost, got {ratio}"
        );
    }

    #[test]
    fn scan_cost_survives_batches_beyond_u32_max() {
        let mut m = IoModel::zero();
        m.scan_per_record = Duration::from_nanos(2);
        let n = u32::MAX as usize + 5;
        // The truncating implementation computed `n as u32` = 4, i.e. 8 ns.
        assert_eq!(m.scan_cost(n), Duration::from_nanos(2 * n as u64));
        assert!(m.scan_cost(n) > m.scan_cost(u32::MAX as usize));
    }

    #[test]
    fn scan_cost_saturates_instead_of_overflowing() {
        let mut m = IoModel::zero();
        m.scan_per_record = Duration::from_secs(u64::MAX / 1_000_000_000);
        assert_eq!(m.scan_cost(usize::MAX), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn brownout_multiplier_scales_device_cost() {
        let m = IoModel::hdd_like(1.0);
        assert_eq!(
            m.local_point_read.saturating_mul(3),
            m.local_point_read * 3,
            "multiplied latency must not saturate at realistic scales"
        );
        // mult 1 must be indistinguishable from the healthy path (both are
        // one slot held for `local_point_read`), so the zero-fault path
        // pays nothing extra.
        assert_eq!(m.local_point_read.saturating_mul(1), m.local_point_read);
    }

    #[test]
    fn scan_cost_matches_small_batches() {
        let m = IoModel::hdd_like(1.0);
        assert_eq!(m.scan_cost(1), m.scan_per_record);
        assert_eq!(m.scan_cost(1000), m.scan_per_record * 1000);
        assert_eq!(m.scan_cost(0), Duration::ZERO);
    }

    #[test]
    fn page_fault_cost_is_serial_and_saturating() {
        let m = IoModel::hdd_like(1.0);
        assert_eq!(m.page_fault_cost(0), Duration::ZERO);
        assert_eq!(m.page_fault_cost(3), m.page_fault * 3);
        let mut huge = IoModel::zero();
        huge.page_fault = Duration::from_secs(u64::MAX / 1_000_000_000);
        assert_eq!(
            huge.page_fault_cost(u64::MAX),
            Duration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn owed_sequences_phases_and_sums_round_trips_across_rounds() {
        let l = Duration::from_micros(500);
        let rtt = Duration::from_micros(150);
        let mut round = Owed::default();
        assert!(round.is_zero());
        // Two charges of one call: phases in order, one shared round trip.
        round.phase(vec![(0, l), (1, l)], rtt);
        round.phase(vec![(2, l)], rtt);
        round.delay(Duration::from_micros(400));
        assert_eq!(round.phases.len(), 2);
        assert_eq!(round.phases[1].then, Duration::from_micros(400));
        assert_eq!(round.rtt(), rtt);
        // A retry round follows it: backoff, then its own phase and RTT.
        round.delay(Duration::from_micros(20));
        let mut retry = Owed::default();
        retry.phase(vec![(2, l)], rtt);
        round.then(retry);
        assert_eq!(round.phases.len(), 3);
        assert_eq!(round.phases[1].then, Duration::from_micros(420));
        assert_eq!(round.rtt(), rtt * 2);
        // A charge with no timed access records no phase, and a bare wait
        // is a phase of its own.
        let mut wait_only = Owed::default();
        wait_only.phase(Vec::new(), Duration::ZERO);
        assert!(wait_only.is_zero());
        wait_only.delay(l);
        assert!(!wait_only.is_zero());
        assert!(wait_only.phases[0].accesses.is_empty());
    }

    #[test]
    fn owed_overlaps_faults_within_a_charge_and_never_across_charges() {
        let l = Duration::from_micros(500);
        let f = |n: u64| Duration::from_micros(400 * n);
        let backoff = Duration::from_micros(20);

        // Two accesses of one charge: the phase waits for the longer chain.
        let mut owed = Owed::default();
        owed.phase(vec![(0, l), (0, l)], Duration::ZERO);
        owed.fault(f(1));
        owed.fault(f(3));
        owed.fault(f(2));
        assert_eq!(owed.phases.len(), 1);
        assert_eq!(owed.phases[0].then, f(3));
        // Backoff waits after the faults, serially.
        owed.delay(backoff);
        assert_eq!(owed.phases[0].then, f(3) + backoff);

        // A second charge's faults open their own phase, with device time
        // or without.
        let mut owed = Owed::default();
        owed.phase(vec![(0, l)], Duration::ZERO);
        owed.fault(f(2));
        owed.phase(vec![(0, l)], Duration::ZERO);
        owed.fault(f(1));
        assert_eq!(owed.phases.len(), 2);
        assert_eq!((owed.phases[0].then, owed.phases[1].then), (f(2), f(1)));
        owed.phase(Vec::new(), Duration::ZERO);
        owed.fault(f(1));
        owed.fault(f(2));
        assert_eq!(owed.phases.len(), 3);
        assert!(owed.phases[2].accesses.is_empty());
        assert_eq!(owed.phases[2].then, f(2));
        assert_eq!(owed.phases[1].then, f(1), "no leak into the earlier charge");

        // Retry rounds still add: each round's slowest chain, plus backoff.
        let round = |faults: &[u64]| {
            let mut r = Owed::default();
            r.phase(vec![(0, l)], Duration::ZERO);
            for &n in faults {
                r.fault(f(n));
            }
            r
        };
        let mut owed = round(&[1, 2]);
        owed.delay(backoff);
        owed.then(round(&[3]));
        assert_eq!(owed.phases.len(), 2);
        assert_eq!(
            owed.phases.iter().map(|p| p.then).sum::<Duration>(),
            f(2) + backoff + f(3)
        );
        // Faults after a delay never fold under the backoff.
        owed.delay(backoff);
        owed.fault(f(1));
        assert_eq!(owed.phases.len(), 3);

        // Zero fault time records nothing, and does not open a phase.
        let mut owed = Owed::default();
        owed.phase(Vec::new(), Duration::ZERO);
        owed.fault(Duration::ZERO);
        assert!(owed.is_zero());
        owed.phase(vec![(0, l)], Duration::ZERO);
        owed.fault(Duration::ZERO);
        assert_eq!(owed.phases.len(), 1);
        assert!(owed.phases[0].then.is_zero());
    }
}
