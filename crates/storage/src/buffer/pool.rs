//! [`BufferPool`] — pin-counted page frames over a simulated disk.
//!
//! The pool owns every resident [`SlottedPage`] and meters them against a
//! shared [`ByteBudget`]. Reads go through [`PageGuard`]s: fetching pins
//! the frame (a pinned page is never evicted), dropping the guard unpins
//! it. When a fault needs room the pool evicts unpinned frames in LRU-K
//! order, writing dirty pages back to the disk store; if every frame is
//! pinned it asks the registered [`ShrinkBytes`] sink (the record cache)
//! to give bytes back before reporting the budget exhausted.
//!
//! Two locks, split by how often they are taken:
//!
//! * **Hit path.** Resident frames live in their own
//!   `RwLock<FxHashMap<PageId, Arc<FrameCell>>>`. A fetch of a resident
//!   page takes only its *read* lock, pins the frame under it, and records
//!   the access in the frame itself: each frame keeps its two most recent
//!   access ticks (LRU-K with K = 2) from one pool-wide atomic clock. No
//!   mutex, no allocation, and no hash lookup but the frame map's. One
//!   pin is one reference, however many records the caller reads under
//!   it: a run of reads of one page is LRU-K's *correlated reference
//!   period* (O'Neil, O'Neil & Weikum, 1993), so a page read by one batch
//!   keeps a one-access history and ranks below pages re-referenced
//!   across batches.
//! * **Miss path.** The `Mutex<PoolState>` (the disk store, the
//!   namespace table and the victim queue) serializes faults,
//!   [`BufferPool::create_page`], [`BufferPool::with_page_mut`] and
//!   eviction. A fault costs O(log n) and copies no page:
//!   - The victim queue is a min-heap of `(rank, PageId)`, one entry per
//!     resident frame, pushed when the frame is inserted. A frame's rank
//!     only grows, so its entry's rank is a lower bound. Eviction pops the
//!     least entry and re-reads the frame's rank: an accessed frame goes
//!     back at its current rank, a pinned one is set aside until the
//!     search ends, and the first entry that is current and unpinned is
//!     exactly the LRU-K victim a scan of every frame would pick.
//!   - The disk store and a clean frame share one `Arc<SlottedPage>`: a
//!     fault bumps a refcount, a dirty victim hands its page to the store,
//!     and [`BufferPool::with_page_mut`] copies the page only while the
//!     store still shares it.
//!
//! Lock order is state → frames. The frame map's *write* lock is taken
//! only to insert a frame, or to re-check a victim's pin and rank and
//! remove it: no pin (under the read lock) can pass it, so a pin and the
//! eviction of the same frame cannot interleave. The hit path holds
//! frames alone and never waits on the state mutex.
//!
//! **Pin waiters.** A charge that finds every frame pinned parks on a
//! condvar for a pin to fall. An unpin signals it only when a waiter has
//! registered, and then under the state mutex; the waiter registers,
//! retries eviction once, and only then parks (atomically releasing the
//! mutex). Either the retry sees the unpin, or the unpin sees the
//! registration and its signal cannot arrive before the waiter sleeps — no
//! wake-up is lost, and an unpin with nobody waiting makes no syscall.
//!
//! Latency is *not* injected here — the pool reports what happened per
//! call ([`PageStats`]) and the cluster layer converts faults into
//! `IoModel` charges, keeping the data plane replayable under different
//! I/O models like every other storage type in this crate.

use super::page::{PageId, SlottedPage};
use super::ByteBudget;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rede_common::{FxHashMap, RedeError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Total time one charge will wait for pinned frames to unpin before
/// giving up. Pins are short-lived (guards are dropped without the pool
/// lock), so under transient pin pressure a charge parks briefly instead
/// of failing a correct workload; a budget that is genuinely too small
/// still errors within this bound. A *deadline*, not a wait-slice count:
/// spurious condvar wakeups must not burn the patience early, and a
/// retried wait must not sleep past the bound.
const PIN_WAIT_BUDGET: Duration = Duration::from_millis(250);

/// A budget consumer the pool may ask to give bytes back under pressure.
pub trait ShrinkBytes: Send + Sync {
    /// Release up to `want` bytes back to the shared budget; returns how
    /// many bytes were actually freed.
    fn shrink_bytes(&self, want: usize) -> usize;
}

/// What one pool call did, for the cluster's accounting layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Pages faulted in from the disk store.
    pub faults: u64,
    /// Frames evicted to make room (anywhere in the pool).
    pub evictions: u64,
    /// Pool-wide pinned bytes observed at pin time (high-water signal).
    pub pinned_bytes: usize,
}

impl PageStats {
    /// Merge another call's stats into this one.
    pub fn absorb(&mut self, other: PageStats) {
        self.faults += other.faults;
        self.evictions += other.evictions;
        self.pinned_bytes = self.pinned_bytes.max(other.pinned_bytes);
    }

    /// True if anything happened worth tallying.
    pub fn any(&self) -> bool {
        self.faults > 0 || self.evictions > 0
    }
}

/// Point-in-time pool counters (diagnostics, benches, CI gates).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Frames currently resident.
    pub resident_pages: usize,
    /// Bytes currently resident (charged to the budget).
    pub resident_bytes: usize,
    /// Pages only on the simulated disk.
    pub disk_pages: usize,
    /// Bytes written back to the simulated disk.
    pub disk_bytes: usize,
    /// Lifetime page faults.
    pub faults: u64,
    /// Lifetime evictions.
    pub evictions: u64,
    /// High-water mark of simultaneously pinned bytes.
    pub pinned_peak_bytes: usize,
    /// Shared budget ceiling (`usize::MAX` when unbounded).
    pub budget_total: usize,
    /// Shared budget bytes in use (pool frames + record cache).
    pub budget_used: usize,
}

/// LRU-K eviction rank, coldest first (see [`FrameCell::rank`]).
type Rank = (u8, u64);

/// One resident page plus its pin count and LRU-K history.
struct FrameCell {
    /// Shared with the disk store while the frame is clean.
    page: RwLock<Arc<SlottedPage>>,
    bytes: AtomicUsize,
    pin: AtomicU32,
    dirty: AtomicBool,
    /// Pool tick of the most recent access (0: never accessed).
    last: AtomicU64,
    /// Pool tick of the access before that (0: fewer than two).
    prev: AtomicU64,
}

impl FrameCell {
    fn new(page: Arc<SlottedPage>, dirty: bool) -> Arc<FrameCell> {
        Arc::new(FrameCell {
            bytes: AtomicUsize::new(page.byte_size()),
            page: RwLock::new(page),
            pin: AtomicU32::new(0),
            dirty: AtomicBool::new(dirty),
            last: AtomicU64::new(0),
            prev: AtomicU64::new(0),
        })
    }

    /// Shift an access at tick `at` into the two-entry history. Both ticks
    /// only grow, so the history is exact however accesses race: `last`
    /// keeps the largest tick and `prev` the second largest (the smaller
    /// of `at` and the `last` it found). The victim queue relies on it: a
    /// frame's rank never falls.
    fn touch(&self, at: u64) {
        let last = self.last.fetch_max(at, Ordering::Relaxed);
        self.prev.fetch_max(last.min(at), Ordering::Relaxed);
    }

    /// Eviction rank, coldest first: a frame with fewer than two accesses
    /// has infinite backward 2-distance and goes before any frame with a
    /// full history (class 0 before class 1); within a class the oldest
    /// timestamp — the last access, or the second-to-last for a full
    /// history — goes first.
    fn rank(&self) -> Rank {
        match self.prev.load(Ordering::Relaxed) {
            0 => (0, self.last.load(Ordering::Relaxed)),
            prev => (1, prev),
        }
    }

    fn is_pinned(&self) -> bool {
        // SeqCst pairs with every unpin's SeqCst decrement and the
        // waiter count (the waiter protocol in the module docs).
        self.pin.load(Ordering::SeqCst) > 0
    }
}

/// A resident frame in the victim queue, at the rank it had when pushed:
/// ranks only grow, so that is a lower bound on its rank now.
struct Queued {
    rank: Rank,
    id: PageId,
    cell: Arc<FrameCell>,
}

impl Queued {
    fn new(id: PageId, cell: Arc<FrameCell>) -> Queued {
        Queued {
            rank: cell.rank(),
            id,
            cell,
        }
    }

    /// Reversed: `BinaryHeap` is a max-heap and the coldest frame pops
    /// first. The id only breaks ties, for a deterministic order.
    fn key(&self) -> Reverse<(Rank, PageId)> {
        Reverse((self.rank, self.id))
    }

    /// Nobody pins the frame and no access has moved its rank since it
    /// was queued: no frame left in the queue ranks below it.
    fn is_victim(&self) -> bool {
        !self.cell.is_pinned() && self.cell.rank() == self.rank
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Queued) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Queued) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Queued) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

struct PoolState {
    /// Written-back pages. A clean resident frame shares its page with
    /// this store.
    disk: FxHashMap<PageId, Arc<SlottedPage>>,
    /// Page namespace per file name (see [`BufferPool::namespace`]).
    names: FxHashMap<Box<str>, u32>,
    /// The LRU-K victim queue: one entry per resident frame (none when
    /// the budget is unbounded).
    queue: BinaryHeap<Queued>,
}

/// A byte-budgeted page cache over a simulated disk store.
pub struct BufferPool {
    /// Resident frames. Read-locked by hits; write-locked only to insert
    /// or evict, always under `state`.
    frames: RwLock<FxHashMap<PageId, Arc<FrameCell>>>,
    state: Mutex<PoolState>,
    /// The LRU-K clock: one tick per page access.
    tick: AtomicU64,
    budget: Arc<ByteBudget>,
    shrinker: RwLock<Option<Arc<dyn ShrinkBytes>>>,
    pin_wait: Condvar,
    /// Charges registered to wait on `pin_wait`.
    waiters: AtomicUsize,
    faults: AtomicU64,
    evictions: AtomicU64,
    pinned_bytes: AtomicUsize,
    pinned_peak: AtomicUsize,
    disk_bytes: AtomicUsize,
}

thread_local! {
    /// Pins this thread took, counted in unit tests only (`cfg!(test)`):
    /// the tests of batched reads count pins per batch.
    static PINS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl BufferPool {
    /// A pool charging the given shared budget.
    pub fn with_budget(budget: Arc<ByteBudget>) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            frames: RwLock::new(FxHashMap::default()),
            state: Mutex::new(PoolState {
                disk: FxHashMap::default(),
                names: FxHashMap::default(),
                queue: BinaryHeap::new(),
            }),
            tick: AtomicU64::new(0),
            budget,
            shrinker: RwLock::new(None),
            pin_wait: Condvar::new(),
            waiters: AtomicUsize::new(0),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pinned_bytes: AtomicUsize::new(0),
            pinned_peak: AtomicUsize::new(0),
            disk_bytes: AtomicUsize::new(0),
        })
    }

    /// A pool with no memory ceiling: pages stay resident forever and no
    /// fault or eviction can occur after creation.
    pub fn unbounded() -> Arc<BufferPool> {
        BufferPool::with_budget(Arc::new(ByteBudget::unbounded()))
    }

    /// The shared budget this pool charges.
    pub fn budget(&self) -> &Arc<ByteBudget> {
        &self.budget
    }

    /// Register the sink asked to give bytes back when the pool cannot
    /// evict its own way out of pressure (the record cache).
    pub fn set_shrinker(&self, sink: Arc<dyn ShrinkBytes>) {
        *self.shrinker.write() = Some(sink);
    }

    /// The page namespace of the file named `name` ([`PageId::ns`]),
    /// interned on first use: files call this once, at creation, and name
    /// their pages by the id from then on. The same name always maps to
    /// the same id on one pool.
    pub fn namespace(&self, name: &str) -> u32 {
        let mut st = self.state.lock();
        if let Some(&ns) = st.names.get(name) {
            return ns;
        }
        let ns = st.names.len() as u32;
        st.names.insert(name.into(), ns);
        ns
    }

    /// Record one access to `cell` at the next tick of the pool clock.
    fn touch(&self, cell: &FrameCell) {
        cell.touch(self.tick.fetch_add(1, Ordering::Relaxed) + 1);
    }

    /// The hit path: pin `id`'s frame under the frame map's read lock, if
    /// it is resident.
    fn pin_resident(&self, id: &PageId) -> Option<Arc<FrameCell>> {
        let frames = self.frames.read();
        let cell = frames.get(id)?;
        // Relaxed: eviction checks pins under the write lock, which this
        // read lock excludes, so the lock orders the two.
        cell.pin.fetch_add(1, Ordering::Relaxed);
        Some(cell.clone())
    }

    /// After an unpin: wake the charges registered to wait for one. Under
    /// the state lock (taken here unless the caller holds it): a waiter
    /// holds it from its retry until it parks, so the signal cannot fall
    /// in between. With nobody registered this is one load.
    fn signal_unpin(&self, locked: bool) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _st = (!locked).then(|| self.state.lock());
            self.pin_wait.notify_all();
        }
    }

    /// Register a new, empty, resident page. Fails if the id exists.
    pub fn create_page(&self, id: PageId) -> Result<PageStats> {
        let exists = |st: &PoolState| {
            (self.frames.read().contains_key(&id) || st.disk.contains_key(&id)).then(|| {
                RedeError::AlreadyExists(format!("buffer pool: page {id:?} already exists"))
            })
        };
        let mut st = self.state.lock();
        if let Some(e) = exists(&st) {
            return Err(e);
        }
        let page = Arc::new(SlottedPage::new());
        let bytes = page.byte_size();
        let stats = PageStats {
            evictions: self.make_room(&mut st, bytes)?,
            ..PageStats::default()
        };
        if let Some(e) = exists(&st) {
            self.budget.release(bytes);
            return Err(e);
        }
        let cell = FrameCell::new(page, true);
        self.touch(&cell);
        self.insert(&mut st, id, cell);
        Ok(stats)
    }

    /// Fetch a page, pinning it for the lifetime of the returned guard. The
    /// pin is one LRU-K reference, whatever the caller reads under it.
    pub fn fetch(&self, id: &PageId) -> Result<(PageGuard<'_>, PageStats)> {
        if cfg!(test) {
            PINS.with(|pins| pins.set(pins.get() + 1));
        }
        let mut stats = PageStats::default();
        let cell = match self.pin_resident(id) {
            Some(cell) => cell,
            None => {
                let mut st = self.state.lock();
                self.pin_or_fault(&mut st, id, &mut stats)?
            }
        };
        self.touch(&cell);
        let bytes = cell.bytes.load(Ordering::Relaxed);
        let pinned = self.pinned_bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if pinned > self.pinned_peak.load(Ordering::Relaxed) {
            self.pinned_peak.fetch_max(pinned, Ordering::Relaxed);
        }
        stats.pinned_bytes = pinned;
        Ok((
            PageGuard {
                pool: self,
                cell,
                bytes,
            },
            stats,
        ))
    }

    /// Run `f` over a read-pinned page: one pin and one LRU-K reference,
    /// however many of the page's records `f` reads.
    pub fn with_page<R>(
        &self,
        id: &PageId,
        f: impl FnOnce(&SlottedPage) -> R,
    ) -> Result<(R, PageStats)> {
        let (guard, stats) = self.fetch(id)?;
        let r = f(&guard.read());
        Ok((r, stats))
    }

    /// Mutate a page. `grow_hint` must be an upper bound on the byte
    /// growth `f` causes (writers compute it exactly via
    /// [`SlottedPage::push_cost`] / [`SlottedPage::replace_cost`]); it is
    /// charged *before* `f` runs so a budget refusal leaves the page
    /// untouched.
    pub fn with_page_mut<R>(
        &self,
        id: &PageId,
        grow_hint: usize,
        f: impl FnOnce(&mut SlottedPage) -> R,
    ) -> Result<(R, PageStats)> {
        let mut stats = PageStats::default();
        let mut st = self.state.lock();
        // Pinned across make_room so the page we are about to grow cannot
        // be chosen as its own eviction victim.
        let cell = self.pin_or_fault(&mut st, id, &mut stats)?;
        match self.make_room(&mut st, grow_hint) {
            Ok(ev) => stats.evictions += ev,
            Err(e) => {
                cell.pin.fetch_sub(1, Ordering::SeqCst);
                self.signal_unpin(true);
                return Err(e);
            }
        }
        let mut shared = cell.page.write();
        // Copies the page only while the disk store still shares it.
        let page = Arc::make_mut(&mut shared);
        let before = page.byte_size();
        let r = f(page);
        let after = page.byte_size();
        drop(shared);
        let grown = after.saturating_sub(before);
        debug_assert!(
            grown <= grow_hint,
            "page grew {grown} B but the writer only budgeted {grow_hint} B"
        );
        self.budget.release(grow_hint - grown.min(grow_hint));
        cell.bytes.store(after, Ordering::Relaxed);
        cell.dirty.store(true, Ordering::Relaxed);
        self.touch(&cell);
        cell.pin.fetch_sub(1, Ordering::SeqCst);
        self.signal_unpin(true);
        Ok((r, stats))
    }

    /// The miss path, under the state lock: pin `id`'s frame, faulting it
    /// in from the disk store if it is (still) not resident.
    fn pin_or_fault(
        &self,
        st: &mut MutexGuard<'_, PoolState>,
        id: &PageId,
        stats: &mut PageStats,
    ) -> Result<Arc<FrameCell>> {
        // Another thread may have faulted it in since the caller looked.
        if let Some(cell) = self.pin_resident(id) {
            return Ok(cell);
        }
        let page = st
            .disk
            .get(id)
            .cloned()
            .ok_or_else(|| RedeError::NotFound(format!("buffer pool: no page {id:?}")))?;
        let bytes = page.byte_size();
        stats.evictions += self.make_room(st, bytes)?;
        // make_room can release the lock while parked on pinned frames:
        // another thread may have faulted this page in meanwhile.
        if let Some(cell) = self.pin_resident(id) {
            self.budget.release(bytes);
            return Ok(cell);
        }
        // The disk copy is current until the next mutation.
        let cell = FrameCell::new(page, false);
        cell.pin.fetch_add(1, Ordering::Relaxed);
        self.insert(st, *id, cell.clone());
        self.faults.fetch_add(1, Ordering::Relaxed);
        stats.faults += 1;
        Ok(cell)
    }

    /// Make `cell` resident as `id`, and queue it for eviction unless the
    /// budget is unbounded: such a pool never evicts.
    fn insert(&self, st: &mut PoolState, id: PageId, cell: Arc<FrameCell>) {
        self.frames.write().insert(id, cell.clone());
        if !self.budget.is_unbounded() {
            st.queue.push(Queued::new(id, cell));
        }
    }

    /// Evict the coldest unpinned frame, writing it back if dirty. Returns
    /// false if every resident frame is pinned.
    ///
    /// Pops the victim queue, coldest stored rank first. An entry whose
    /// frame was accessed since it was pushed goes back at its current
    /// rank; a pinned one is set aside until the search ends. The first
    /// entry that is current and unpinned is the unpinned frame of least
    /// rank — the LRU-K victim.
    fn evict_one(&self, st: &mut PoolState) -> bool {
        let mut aside = Vec::new();
        let victim = loop {
            let Some(mut entry) = st.queue.pop() else {
                break None;
            };
            if entry.is_victim() {
                // Re-check under the write lock, which no pin can pass: a
                // pin may have come and gone since.
                let mut frames = self.frames.write();
                if entry.is_victim() {
                    frames.remove(&entry.id);
                    break Some(entry);
                }
            }
            if entry.cell.is_pinned() {
                aside.push(entry);
            } else {
                entry.rank = entry.cell.rank();
                st.queue.push(entry);
            }
        };
        st.queue.extend(aside);
        let Some(Queued { id, cell, .. }) = victim else {
            return false;
        };
        // Out of the map and unpinned: nobody else can reach the frame.
        let bytes = cell.bytes.load(Ordering::Relaxed);
        if cell.dirty.load(Ordering::Relaxed) {
            // The disk store takes the frame's page itself, not a copy.
            let page = cell.page.read().clone();
            let old = st.disk.insert(id, page).map_or(0, |p| p.byte_size());
            self.disk_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.disk_bytes.fetch_sub(old, Ordering::Relaxed);
        }
        self.budget.release(bytes);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Charge `need` bytes, evicting unpinned frames (then shrinking the
    /// record cache, then briefly waiting for pinned frames to unpin)
    /// until the charge fits. Returns evictions performed.
    fn make_room(&self, st: &mut MutexGuard<'_, PoolState>, need: usize) -> Result<u64> {
        let mut evictions = 0u64;
        // Armed lazily on the first pin-wait so eviction work done before
        // any wait never counts against the waiting budget.
        let mut pin_deadline: Option<Instant> = None;
        let mut registered = false;
        let result = loop {
            if self.budget.try_charge(need) {
                break Ok(evictions);
            }
            // Read before the victim search: guards unpin before they
            // un-count their bytes, so zero here means the search sees
            // every unpin.
            let pinned = self.pinned_bytes.load(Ordering::SeqCst);
            if self.evict_one(st) {
                evictions += 1;
                continue;
            }
            // Nothing evictable left: ask the record cache for bytes.
            let want = need.saturating_sub(self.budget.available());
            let freed = {
                let sink = self.shrinker.read().clone();
                sink.map_or(0, |s| s.shrink_bytes(want))
            };
            if freed > 0 {
                continue;
            }
            // Every resident frame is pinned and the cache has nothing
            // left. Park briefly for a pin to fall rather than failing a
            // workload that is merely momentarily pin-heavy. Register
            // first and retry once before parking, so an unpin racing
            // this search is either seen by the retry or signals the park
            // (module docs). Deadline loop: a spurious wakeup re-waits
            // only the *remaining* budget, and repeated waits cannot
            // oversleep.
            if pinned > 0 {
                let deadline =
                    *pin_deadline.get_or_insert_with(|| Instant::now() + PIN_WAIT_BUDGET);
                let now = Instant::now();
                if now < deadline {
                    if !registered {
                        self.waiters.fetch_add(1, Ordering::SeqCst);
                        registered = true;
                    } else {
                        self.pin_wait.wait_for(st, deadline - now);
                    }
                    continue;
                }
            }
            break Err(RedeError::Overloaded(format!(
                "buffer pool: byte budget exhausted ({need} B needed, \
                 {} B free, every resident page pinned)",
                self.budget.available()
            )));
        };
        if registered {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        result
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> PoolStats {
        let st = self.state.lock();
        let frames = self.frames.read();
        PoolStats {
            resident_pages: frames.len(),
            resident_bytes: frames
                .values()
                .map(|c| c.bytes.load(Ordering::Relaxed))
                .sum(),
            disk_pages: st.disk.len(),
            disk_bytes: self.disk_bytes.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pinned_peak_bytes: self.pinned_peak.load(Ordering::Relaxed),
            budget_total: self.budget.total(),
            budget_used: self.budget.used(),
        }
    }

    /// Bytes of `file`'s pages currently resident.
    pub fn resident_bytes_of(&self, file: &str) -> usize {
        let st = self.state.lock();
        let Some(&ns) = st.names.get(file) else {
            return 0;
        };
        let frames = self.frames.read();
        frames
            .iter()
            .filter(|(id, _)| id.ns == ns)
            .map(|(_, c)| c.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Total bytes of `file`'s pages, resident or on disk.
    pub fn total_bytes_of(&self, file: &str) -> usize {
        let st = self.state.lock();
        let Some(&ns) = st.names.get(file) else {
            return 0;
        };
        let frames = self.frames.read();
        let resident: usize = frames
            .iter()
            .filter(|(id, _)| id.ns == ns)
            .map(|(_, c)| c.bytes.load(Ordering::Relaxed))
            .sum();
        let spilled: usize = st
            .disk
            .iter()
            .filter(|(id, _)| id.ns == ns && !frames.contains_key(id))
            .map(|(_, p)| p.byte_size())
            .sum();
        resident + spilled
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("resident_pages", &s.resident_pages)
            .field("resident_bytes", &s.resident_bytes)
            .field("faults", &s.faults)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// RAII pin on one page: the frame cannot be evicted while a guard lives.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    cell: Arc<FrameCell>,
    bytes: usize,
}

impl PageGuard<'_> {
    /// Read access to the pinned page.
    pub fn read(&self) -> PageReadGuard<'_> {
        PageReadGuard(self.cell.page.read())
    }
}

/// A read lock on a pinned page ([`PageGuard::read`]); derefs to the page.
pub struct PageReadGuard<'a>(parking_lot::RwLockReadGuard<'a, Arc<SlottedPage>>);

impl std::ops::Deref for PageReadGuard<'_> {
    type Target = SlottedPage;

    fn deref(&self) -> &SlottedPage {
        &self.0
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        // Unpin before un-counting the bytes: a charge that reads zero
        // pinned bytes must find the frame unpinned (`make_room`).
        self.cell.pin.fetch_sub(1, Ordering::SeqCst);
        self.pool
            .pinned_bytes
            .fetch_sub(self.bytes, Ordering::SeqCst);
        self.pool.signal_unpin(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rede_common::Value;

    impl BufferPool {
        /// Pins the calling thread has taken, on any pool.
        pub(crate) fn thread_pins() -> u64 {
            PINS.with(|pins| pins.get())
        }

        /// The LRU-K history `(last, prev)` of a resident page.
        pub(crate) fn history(&self, id: &PageId) -> Option<(u64, u64)> {
            let frames = self.frames.read();
            let cell = frames.get(id)?;
            Some((
                cell.last.load(Ordering::Relaxed),
                cell.prev.load(Ordering::Relaxed),
            ))
        }
    }

    const F: u32 = 0;

    fn pid(ns: u32, page_no: u32) -> PageId {
        PageId {
            ns,
            partition: 0,
            page_no,
        }
    }

    fn fill(pool: &BufferPool, id: &PageId, tag: u32, n: usize) {
        pool.create_page(*id).unwrap();
        for i in 0..n {
            let payload = format!("page-{tag}-rec-{i}-{}", "x".repeat(100));
            pool.with_page_mut(
                id,
                SlottedPage::push_cost(Some(&Value::Int(i as i64)), payload.len()),
                |p| p.push(Some(Value::Int(i as i64)), payload.as_bytes()),
            )
            .unwrap();
        }
    }

    #[test]
    fn unbounded_pool_never_faults() {
        let pool = BufferPool::unbounded();
        for n in 0..10 {
            fill(&pool, &pid(F, n), n, 5);
        }
        for n in 0..10 {
            let ((), stats) = pool
                .with_page(&pid(F, n), |p| assert_eq!(p.len(), 5))
                .unwrap();
            assert_eq!(stats.faults, 0);
        }
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn eviction_under_pressure_and_byte_identical_refault() {
        // Each page ≈ 5 * (~115 + 16) + 64 ≈ 730 B; budget fits ~3 pages.
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(2_500)));
        for n in 0..8 {
            fill(&pool, &pid(F, n), n, 5);
        }
        let stats = pool.stats();
        assert!(stats.evictions > 0, "pressure must evict");
        assert!(stats.budget_used <= stats.budget_total);
        // Every page — including evicted ones — reads back byte-identical.
        for n in 0..8 {
            let (ok, _) = pool
                .with_page(&pid(F, n), |p| {
                    (0..5).all(|i| {
                        p.record(i).unwrap().bytes()
                            == format!("page-{n}-rec-{i}-{}", "x".repeat(100)).as_bytes()
                    })
                })
                .unwrap();
            assert!(ok, "page {n} corrupted by evict/refault");
        }
        assert!(pool.stats().faults > 0);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(2_500)));
        fill(&pool, &pid(F, 0), 0, 5);
        let (guard, _) = pool.fetch(&pid(F, 0)).unwrap();
        // Storm past the budget; page 0 must survive because it is pinned.
        for n in 1..10 {
            fill(&pool, &pid(F, n), n, 5);
        }
        assert_eq!(guard.read().len(), 5);
        let ((), stats) = pool
            .with_page(&pid(F, 0), |p| assert_eq!(p.len(), 5))
            .unwrap();
        assert_eq!(stats.faults, 0, "pinned page faulted: it was evicted");
        drop(guard);
        assert!(pool.stats().pinned_peak_bytes > 0);
    }

    #[test]
    fn budget_refusal_leaves_page_untouched() {
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(400)));
        pool.create_page(pid(F, 0)).unwrap();
        let (guard, _) = pool.fetch(&pid(F, 0)).unwrap();
        let err = pool.with_page_mut(&pid(F, 0), 100_000, |p| p.push(None, b"x"));
        assert!(matches!(err, Err(RedeError::Overloaded(_))));
        assert_eq!(guard.read().len(), 0, "refused write must not mutate");
    }

    #[test]
    fn missing_page_is_not_found() {
        let pool = BufferPool::unbounded();
        assert!(matches!(
            pool.fetch(&pid(F, 9)),
            Err(RedeError::NotFound(_))
        ));
    }

    #[test]
    fn racing_touches_never_lower_a_rank_and_keep_the_exact_history() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 10_000;
        let pool = BufferPool::unbounded();
        pool.create_page(pid(F, 0)).unwrap();
        let (guard, _) = pool.fetch(&pid(F, 0)).unwrap();
        let cell = &guard.cell;
        let start = std::sync::Barrier::new(THREADS);
        let end = std::sync::Barrier::new(THREADS);
        // Counted, not asserted, in the threads: a panic would strand the
        // others at a barrier.
        let (fell, stale) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut seen = cell.rank();
                    for _ in 0..ROUNDS {
                        // Every thread touches at once, then one checks the
                        // history the round left: the two largest ticks.
                        start.wait();
                        pool.touch(cell);
                        let rank = cell.rank();
                        if rank < seen {
                            fell.fetch_add(1, Ordering::Relaxed);
                        }
                        seen = rank;
                        if end.wait().is_leader() {
                            let issued = pool.tick.load(Ordering::Relaxed);
                            let history = (
                                cell.last.load(Ordering::Relaxed),
                                cell.prev.load(Ordering::Relaxed),
                            );
                            if history != (issued, issued - 1) {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(fell.into_inner(), 0, "a rank fell");
        assert_eq!(stale.into_inner(), 0, "rounds that left a stale history");
    }

    #[test]
    fn the_victim_queue_holds_one_entry_per_resident_frame() {
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(3_000)));
        let mut held = Vec::new();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let id = pid(F, (rng % 16) as u32);
            // Pages stay under 8 records, so two held pages never leave a
            // charge without a victim.
            let grow = SlottedPage::push_cost(None, 40);
            match (rng >> 8) % 5 {
                0 => _ = pool.create_page(id),
                1 => _ = pool.fetch(&id),
                2 => {
                    _ = pool.with_page_mut(&id, grow, |p| {
                        if p.len() < 8 {
                            p.push(None, &[7; 40]);
                        }
                    })
                }
                3 if held.len() < 2 => held.extend(pool.fetch(&id).ok().map(|(g, _)| g)),
                _ => drop(held.pop()),
            }
        }
        assert!(pool.stats().evictions > 0, "the sequence must evict");
        let st = pool.state.lock();
        let mut queued: Vec<PageId> = st.queue.iter().map(|q| q.id).collect();
        let mut resident: Vec<PageId> = pool.frames.read().keys().copied().collect();
        queued.sort();
        resident.sort();
        assert_eq!(queued, resident);
    }

    #[test]
    fn per_file_byte_accounting_spans_disk() {
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(2_500)));
        let a = pool.namespace("a");
        assert_eq!(pool.namespace("a"), a, "a name interns once");
        for n in 0..6 {
            fill(&pool, &pid(a, n), n, 5);
        }
        let total = pool.total_bytes_of("a");
        let resident = pool.resident_bytes_of("a");
        assert!(resident < total, "some of `a` must have spilled");
        assert_eq!(pool.total_bytes_of("nope"), 0);
    }
}
