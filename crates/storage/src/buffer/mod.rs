//! Paged storage under a byte-budgeted buffer pool.
//!
//! The paper's pitch is "millions of structures built post hoc", but a
//! structure you cannot evict is a structure you cannot afford to build:
//! with fully resident indexes the structure count is capped by RAM, not
//! by a managed budget. This module makes index and heap storage
//! *first-class paged citizens*:
//!
//! * [`SlottedPage`] — a contiguous byte page with a slot directory; heap
//!   records and index postings live on these.
//! * [`BufferPool`] — pin-counted frames over a simulated disk store.
//!   Pages are fetched through RAII [`PageGuard`]s; a pinned page is never
//!   evicted; evicted dirty pages are written back to the disk store and
//!   re-reads are byte-identical. Victims are chosen LRU-K (K = 2, the
//!   largest backward 2-distance first) from a history each frame keeps,
//!   so one sequential scan cannot flush the hot set the way plain LRU
//!   does. A resident read takes no pool-wide mutex.
//! * [`ByteBudget`] — one shared byte meter covering buffer-pool frames
//!   *and* record-cache entries, so "memory" means one number. Under
//!   pressure the pool first evicts its own unpinned pages, then asks the
//!   record cache to shrink (see [`ShrinkBytes`]).
//!
//! The pool is the data plane only: it counts faults and evictions per
//! call ([`PageStats`]) but injects no latency — the cluster layer charges
//! faults through [`IoModel`](crate::io_model::IoModel) accounting, the
//! same split every other storage type here uses.

mod page;
mod pool;

pub use page::{PageId, SlottedPage, DEFAULT_PAGE_BYTES};
pub use pool::{BufferPool, PageGuard, PageReadGuard, PageStats, PoolStats, ShrinkBytes};

use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared byte meter with a hard ceiling.
///
/// Everything that consumes budgeted memory — buffer-pool frames, record
/// cache entries — charges bytes here before materializing and releases
/// them when dropped, so `used <= total` is an invariant, not a hope.
#[derive(Debug)]
pub struct ByteBudget {
    total: usize,
    used: AtomicUsize,
}

impl ByteBudget {
    /// A budget of exactly `total` bytes.
    pub fn new(total: usize) -> ByteBudget {
        ByteBudget {
            total,
            used: AtomicUsize::new(0),
        }
    }

    /// A budget that never rejects a charge (used when no memory budget is
    /// configured: everything stays resident, nothing ever evicts).
    pub fn unbounded() -> ByteBudget {
        ByteBudget::new(usize::MAX)
    }

    /// The ceiling in bytes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// True if this budget never rejects a charge.
    pub fn is_unbounded(&self) -> bool {
        self.total == usize::MAX
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.total.saturating_sub(self.used())
    }

    /// Try to charge `bytes`; returns false (charging nothing) if the
    /// ceiling would be exceeded.
    pub fn try_charge(&self, bytes: usize) -> bool {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_add(bytes) else {
                return false;
            };
            if next > self.total {
                return false;
            }
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return `bytes` to the budget.
    pub fn release(&self, bytes: usize) {
        let prev = self.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "byte budget release underflow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_roundtrip() {
        let b = ByteBudget::new(100);
        assert!(b.try_charge(60));
        assert!(b.try_charge(40));
        assert!(!b.try_charge(1), "ceiling is hard");
        assert_eq!(b.used(), 100);
        b.release(40);
        assert_eq!(b.available(), 40);
        assert!(b.try_charge(40));
    }

    #[test]
    fn unbounded_never_rejects() {
        let b = ByteBudget::unbounded();
        assert!(b.try_charge(usize::MAX / 2));
        assert!(b.try_charge(usize::MAX / 4));
    }

    #[test]
    fn concurrent_charges_never_exceed_total() {
        let b = std::sync::Arc::new(ByteBudget::new(1_000));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        if b.try_charge(7) {
                            assert!(b.used() <= 1_000);
                            b.release(7);
                        }
                    }
                });
            }
        });
        assert_eq!(b.used(), 0);
    }
}
