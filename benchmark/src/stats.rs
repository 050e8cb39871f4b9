//! Measurement hygiene: the few primitives every number in the report
//! rests on, each with a unit test.
//!
//! * process CPU from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` — the
//!   `/proc/self/stat` counters are sampled at the 10 ms scheduler tick,
//!   which is the same order as one job here;
//! * peak resident set from `VmHWM`;
//! * nearest-rank percentiles that refuse to name a percentile with fewer
//!   than ten samples beyond it;
//! * an open-loop arrival schedule with a fixed arrival count, so goodput
//!   does not inherit the Poisson count's ±4 % from seed to seed.

use rede_common::rng::Xoshiro256;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) this process has consumed.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`-layout struct (two
    // 64-bit fields on every 64-bit Linux target) that outlives the call,
    // and clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Parse the `VmHWM` line (kB) out of a `/proc/<pid>/status` body.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in (0, 1]) of an ascending sample, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it — such a
/// "percentile" is just one of the largest few observations.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = (p * sorted.len() as f64).ceil() as usize; // 1-based
    if rank == 0 || sorted.len() < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle pair when even); 0.0
/// for an empty one, which per-layer metrics of an idle layer report.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `count` arrival offsets inside `[0, window)`, ascending: a Poisson
/// process conditioned on its arrival count is exactly `count` sorted
/// uniforms, so bursts and gaps stay random while the offered load is the
/// same for every seed.
pub fn arrival_schedule(rng: &mut Xoshiro256, count: usize, window: Duration) -> Vec<Duration> {
    let mut at: Vec<Duration> = (0..count).map(|_| window.mul_f64(rng.gen_f64())).collect();
    at.sort();
    at
}

/// `n` zipf(`skew`) weights over popularity ranks 0..n.
pub fn zipf_weights(n: usize, skew: f64) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / (k as f64).powf(skew)).collect()
}

/// Order-independent checksum of a result: wrapping sum of an FNV-1a hash
/// per record, so pages may arrive in any emission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_not_with_sleep() {
        let before = process_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = process_cpu() - before;
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = process_cpu() - before - slept;
        assert!(slept < Duration::from_millis(15), "sleep charged {slept:?}");
        assert!(
            worked > Duration::from_millis(15),
            "spin charged {worked:?}"
        );
    }

    #[test]
    fn vm_hwm_is_parsed_from_status() {
        let body = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(body), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(100.0));
        assert_eq!(percentile(&v, 0.95), Some(190.0)); // exactly 10 beyond
        assert_eq!(percentile(&v, 0.96), None); // only 8 beyond
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn arrival_schedule_is_seeded_sorted_and_count_exact() {
        let window = Duration::from_secs(10);
        let a = arrival_schedule(&mut Xoshiro256::new(7), 300, window);
        let b = arrival_schedule(&mut Xoshiro256::new(7), 300, window);
        let c = arrival_schedule(&mut Xoshiro256::new(8), 300, window);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < window);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let mut x = Digest::default();
        let mut y = Digest::default();
        x.add(b"a|1");
        x.add(b"b|2");
        y.add(b"b|2");
        y.add(b"a|1");
        assert_eq!(x, y);
        y.add(b"");
        assert_ne!(x, y);
    }
}
