//! The buffer pool under real threads: a resident read takes no pool-wide
//! mutex, so what keeps it correct is the frame map's lock and the pin
//! protocol. Two cells:
//!
//! * readers hammer resident and spilled pages of a floor-sized pool while
//!   a writer grows pages: every read is byte-identical, the budget holds
//!   at every sample, and a page stays resident for as long as a reader
//!   holds its pin;
//! * no lost wake-up: a charge parked on an all-pinned pool resumes at
//!   once when the pin it waits for drops — not at the end of its pin
//!   wait — however the unpin races its registration.

use rede_common::Value;
use rede_storage::buffer::{BufferPool, ByteBudget, PageId, SlottedPage};
use rede_storage::MIN_MEMORY_BUDGET;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READ_PAGES: u32 = 48;
const RECORDS: usize = 12;

fn payload(page: u32, slot: usize) -> String {
    format!("{page}/{slot}|{:=>150}", page as usize * 31 + slot)
}

/// Append `bytes` (keyed by the slot number) to page `id`.
fn push(pool: &BufferPool, id: &PageId, slot: usize, bytes: &[u8]) {
    let key = Value::Int(slot as i64);
    let cost = SlottedPage::push_cost(Some(&key), bytes.len());
    pool.with_page_mut(id, cost, |page| page.push(Some(key), bytes))
        .unwrap();
}

/// A deterministic per-thread sequence (xorshift).
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn readers_and_a_growing_writer_share_a_floor_budget_pool() {
    let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(MIN_MEMORY_BUDGET)));
    let (reads, grows) = (pool.namespace("reads"), pool.namespace("grows"));
    let id = |ns, page_no| PageId {
        ns,
        partition: 0,
        page_no,
    };
    // ~2 KiB pages, 48 of them: about twice what the budget holds.
    for page in 0..READ_PAGES {
        pool.create_page(id(reads, page)).unwrap();
        for slot in 0..RECORDS {
            push(
                &pool,
                &id(reads, page),
                slot,
                payload(page, slot).as_bytes(),
            );
        }
    }
    let spilled = pool.stats().disk_pages;
    assert!(spilled > 0, "the read set must not fit the budget");

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for reader in 0..4u64 {
            let (pool, done) = (&pool, &done);
            s.spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (reader + 1);
                for _ in 0..3_000 {
                    let page = (next(&mut rng) % READ_PAGES as u64) as u32;
                    let (guard, _) = pool.fetch(&id(reads, page)).unwrap();
                    {
                        let p = guard.read();
                        for slot in 0..RECORDS {
                            assert_eq!(
                                p.record(slot).unwrap().bytes(),
                                payload(page, slot).as_bytes(),
                                "page {page} slot {slot}"
                            );
                        }
                    }
                    // Pinned: re-fetching must hit, whatever the others
                    // evict meanwhile.
                    let (again, stats) = pool.fetch(&id(reads, page)).unwrap();
                    assert_eq!(stats.faults, 0, "page {page} faulted while pinned");
                    drop(again);
                    drop(guard);
                    let st = pool.stats();
                    assert!(st.budget_used <= st.budget_total, "{st:?}");
                }
                done.store(true, Ordering::Relaxed);
            });
        }
        // The writer grows its own pages (and appends past the checked
        // slots of the read set) until the readers finish.
        let mut rng = 7u64;
        let mut grown = [0usize; 8];
        let mut tails = [0usize; READ_PAGES as usize];
        for page in 0..grown.len() as u32 {
            pool.create_page(id(grows, page)).unwrap();
        }
        while !done.load(Ordering::Relaxed) {
            let page = next(&mut rng) as usize % grown.len();
            if grown[page] < 16 {
                push(&pool, &id(grows, page as u32), grown[page], &[b'w'; 100]);
                grown[page] += 1;
            } else {
                pool.fetch(&id(grows, page as u32)).unwrap();
            }
            let read_page = next(&mut rng) as usize % tails.len();
            if tails[read_page] < 8 {
                let slot = RECORDS + tails[read_page];
                push(&pool, &id(reads, read_page as u32), slot, b"tail");
                tails[read_page] += 1;
            }
            let st = pool.stats();
            assert!(st.budget_used <= st.budget_total, "{st:?}");
        }
    });
    let st = pool.stats();
    assert!(
        st.faults > 0 && st.evictions > 0,
        "the storm must page: {st:?}"
    );
    assert!(st.pinned_peak_bytes > 0);
}

/// A charge parked on an all-pinned pool is woken by the unpin of the one
/// pin it waits for. Thousands of frames stay pinned for the whole test,
/// so each of the charge's scans takes long enough for the unpin — timed
/// at random across the charge's expected path (thread start, scan,
/// registration, re-scan, park) — to land before its first scan, during
/// its re-scan, or after it parked. An unpin that skips the signal, or
/// signals without the state lock, leaves some round asleep until its pin
/// wait runs out, which the pool counts (`pin_wait_timeouts`); how late a
/// woken charge is scheduled on a busy box does not count. A round whose
/// unpin returns later than the charge's start plus the pin wait (the
/// test thread descheduled for that long) may legitimately time out, so
/// it asserts nothing; at least half the rounds must be decisive.
#[test]
fn an_unpin_wakes_a_parked_charge_at_once() {
    const FRAMES: u32 = 4_096;
    const ROUNDS: u32 = 200;
    // The pool's pin wait budget (`PIN_WAIT_BUDGET` in `buffer/pool.rs`).
    const PIN_WAIT: Duration = Duration::from_millis(250);
    let empty = SlottedPage::new().byte_size();
    let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(FRAMES as usize * empty)));
    let ns = pool.namespace("pinned");
    let id = |page_no| PageId {
        ns,
        partition: 0,
        page_no,
    };
    for page in 0..FRAMES {
        pool.create_page(id(page)).unwrap();
    }
    let held: Vec<_> = (1..FRAMES)
        .map(|page| pool.fetch(&id(page)).unwrap().0)
        .collect();
    let (mut last, _) = pool.fetch(&id(0)).unwrap();

    // How long the charge takes to reach its park: a thread start plus
    // three victim searches (scan, re-scan, slack). A search is timed on
    // a charge that succeeds: its one unpinned frame is `last`, the
    // hottest, which the search reaches only after every pinned frame.
    // Each such charge's page is pinned as the next `last`.
    let mut page_no = FRAMES;
    let spawn = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::thread::spawn(Instant::now).join().unwrap() - t
        })
        .min()
        .unwrap();
    let mut scan = Duration::MAX;
    for _ in 0..5 {
        drop(last);
        let t = Instant::now();
        pool.create_page(id(page_no)).unwrap();
        scan = scan.min(t.elapsed());
        last = pool.fetch(&id(page_no)).unwrap().0;
        page_no += 1;
    }
    let span = (spawn + 3 * scan).as_nanos() as u64 + 1;

    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut decisive = 0;
    for round in 0..ROUNDS {
        // Each round's new page evicts the previous round's, and is then
        // pinned as the next round's `last`.
        let new = id(page_no + round);
        let delay = Duration::from_nanos(next(&mut rng) % span);
        let timeouts = pool.stats().pin_wait_timeouts;
        let (started, created, unpinned) = std::thread::scope(|s| {
            let creator = s.spawn(|| (Instant::now(), pool.create_page(new)));
            let start = Instant::now();
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
            drop(last);
            let unpinned = Instant::now();
            let (started, created) = creator.join().unwrap();
            (started, created, unpinned)
        });
        // The charge arms its deadline after `started`, so an unpin that
        // returned before `started + PIN_WAIT` signalled it in time.
        if unpinned < started + PIN_WAIT {
            decisive += 1;
            created.unwrap();
            assert_eq!(
                pool.stats().pin_wait_timeouts,
                timeouts,
                "round {round}: the charge slept through the unpin \
                 (delay {delay:?} of {span} ns)"
            );
        } else if created.is_err() {
            pool.create_page(new).unwrap();
        }
        last = pool.fetch(&new).unwrap().0;
    }
    assert!(
        decisive >= ROUNDS / 2,
        "only {decisive} of {ROUNDS} rounds unpinned within the pin wait"
    );
    drop((last, held));
    assert_eq!(pool.stats().evictions, (page_no - FRAMES + ROUNDS) as u64);
}
