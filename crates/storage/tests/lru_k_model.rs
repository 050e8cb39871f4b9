//! The buffer pool's eviction order, pinned to a reference model.
//!
//! [`LruKReplacer`] is textbook LRU-K (O'Neil et al.) over a map of
//! per-page access histories. The pool does not use it: each frame keeps
//! its own two most recent access ticks, so a resident read records its
//! access without any pool-wide lock. This file keeps the replacer as the
//! executable model of what the pool must still do — its unit tests
//! pin LRU-K itself, and the property drives random single-threaded
//! `create_page` / `fetch` / `with_page_mut` sequences under a small budget
//! through the pool and through a model of the pool built on the replacer,
//! asserting that the same pages leave residency at every step, with the
//! same fault and eviction counts.

use proptest::prelude::*;
use rede_common::{FxHashMap, RedeError};
use rede_storage::buffer::{BufferPool, ByteBudget, PageId, SlottedPage};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-page access history: up to `k` most recent logical timestamps,
/// oldest first.
#[derive(Debug, Default)]
struct History {
    times: Vec<u64>,
}

/// LRU-K replacement state over logical access time.
///
/// Plain LRU is scan-vulnerable: one sequential pass over a cold file
/// flushes every hot page. LRU-K instead evicts the page with the largest
/// *backward k-distance* — the age of its k-th most recent access — so a
/// page touched once by a scan ranks as "infinite distance" and is
/// reclaimed before a page with a real re-reference history. Classic
/// tie-breaking: among pages with fewer than `k` recorded accesses, the
/// one with the *oldest* most-recent access goes first.
#[derive(Debug)]
struct LruKReplacer {
    k: usize,
    tick: u64,
    history: FxHashMap<PageId, History>,
}

impl LruKReplacer {
    /// A replacer tracking the `k` most recent accesses per page.
    fn new(k: usize) -> LruKReplacer {
        LruKReplacer {
            k: k.max(1),
            tick: 0,
            history: FxHashMap::default(),
        }
    }

    /// Record one access to `id` at the next logical timestamp.
    fn record_access(&mut self, id: &PageId) {
        self.tick += 1;
        let h = self.history.entry(*id).or_default();
        if h.times.len() == self.k {
            h.times.remove(0);
        }
        h.times.push(self.tick);
    }

    /// Forget a page (it left the pool).
    fn remove(&mut self, id: &PageId) {
        self.history.remove(id);
    }

    /// Pick the eviction victim among `candidates`: the page with the
    /// largest backward k-distance. Pages with fewer than `k` accesses
    /// have infinite distance and are preferred, oldest last-access first.
    fn victim<'a>(&self, candidates: impl Iterator<Item = &'a PageId>) -> Option<PageId> {
        let mut best: Option<(PageId, (bool, u64))> = None;
        for id in candidates {
            // A candidate the history has never seen sorts as coldest.
            let rank = match self.history.get(id) {
                Some(h) if h.times.len() == self.k => (false, h.times[0]),
                Some(h) => (true, *h.times.last().unwrap_or(&0)),
                None => (true, 0),
            };
            // (infinite-distance?, timestamp): prefer infinite distance,
            // then the smallest timestamp. `(true, t)` beats `(false, t)`;
            // within a class, smaller t is colder.
            let beats = match &best {
                None => true,
                Some((_, (b_inf, b_t))) => match (rank.0, *b_inf) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => rank.1 < *b_t,
                },
            };
            if beats {
                best = Some((*id, rank));
            }
        }
        best.map(|(id, _)| id)
    }
}

fn pid(n: u32) -> PageId {
    PageId {
        ns: 0,
        partition: 0,
        page_no: n,
    }
}

#[test]
fn single_access_pages_evict_before_reaccessed_ones() {
    let mut r = LruKReplacer::new(2);
    // Page 1 is hot (two accesses), pages 2 and 3 were scanned once.
    r.record_access(&pid(1));
    r.record_access(&pid(2));
    r.record_access(&pid(1));
    r.record_access(&pid(3));
    let ids = [pid(1), pid(2), pid(3)];
    let v = r.victim(ids.iter()).unwrap();
    assert_eq!(v, pid(2), "oldest single-access page goes first");
    let remaining = [pid(1), pid(3)];
    assert_eq!(r.victim(remaining.iter()).unwrap(), pid(3));
}

#[test]
fn among_full_histories_largest_backward_k_distance_wins() {
    let mut r = LruKReplacer::new(2);
    for _ in 0..2 {
        r.record_access(&pid(1)); // k-th recent: t=1..2 (older window)
    }
    for _ in 0..2 {
        r.record_access(&pid(2)); // k-th recent: t=3..4
    }
    let ids = [pid(1), pid(2)];
    assert_eq!(r.victim(ids.iter()).unwrap(), pid(1));
    // Touch 1 twice more: its window is now the newest, 2 becomes victim.
    r.record_access(&pid(1));
    r.record_access(&pid(1));
    assert_eq!(r.victim(ids.iter()).unwrap(), pid(2));
}

#[test]
fn empty_candidate_set_has_no_victim() {
    let r = LruKReplacer::new(2);
    assert_eq!(r.victim([].iter()), None);
}

/// Pages in the property: each is page 0 of its own namespace, so
/// `BufferPool::resident_bytes_of` observes one page's residency.
const PAGES: usize = 10;

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Fetch(usize),
    /// Append a record of this many bytes.
    Push(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PAGES).prop_map(Op::Create),
        (0..PAGES).prop_map(Op::Fetch),
        (0..PAGES).prop_map(Op::Fetch),
        (0..PAGES, 1usize..240).prop_map(|(p, len)| Op::Push(p, len)),
        (0..PAGES, 1usize..240).prop_map(|(p, len)| Op::Push(p, len)),
    ]
}

/// The pool, single-threaded and with nothing pinned between calls,
/// modelled on the replacer: charge until the budget fits, evicting the
/// replacer's victim among unpinned resident pages.
struct Model {
    total: usize,
    used: usize,
    /// Current byte size of every page that exists, resident or not.
    sizes: BTreeMap<usize, usize>,
    resident: BTreeSet<usize>,
    replacer: LruKReplacer,
    faults: u64,
    evictions: u64,
}

impl Model {
    fn id(page: usize) -> PageId {
        pid(page as u32)
    }

    /// Charge `need`, evicting victims in order; `pinned` is never one.
    fn make_room(&mut self, need: usize, pinned: Option<usize>) -> bool {
        while self.used + need > self.total {
            let candidates: Vec<PageId> = self
                .resident
                .iter()
                .filter(|&&p| Some(p) != pinned)
                .map(|&p| Model::id(p))
                .collect();
            let Some(victim) = self.replacer.victim(candidates.iter()) else {
                return false;
            };
            let page = victim.page_no as usize;
            self.resident.remove(&page);
            self.replacer.remove(&victim);
            self.used -= self.sizes[&page];
            self.evictions += 1;
        }
        self.used += need;
        true
    }

    fn fault_in(&mut self, page: usize) {
        if !self.resident.contains(&page) {
            assert!(
                self.make_room(self.sizes[&page], None),
                "pages fit the budget"
            );
            self.resident.insert(page);
            self.faults += 1;
        }
    }

    /// Apply `op`; false if it is one the pool refuses for the data it
    /// names (a duplicate page, a missing one).
    fn apply(&mut self, op: &Op) -> bool {
        match *op {
            Op::Create(page) => {
                if self.sizes.contains_key(&page) {
                    return false;
                }
                let bytes = SlottedPage::new().byte_size();
                assert!(self.make_room(bytes, None), "an empty page fits");
                self.sizes.insert(page, bytes);
                self.resident.insert(page);
                self.replacer.record_access(&Model::id(page));
            }
            Op::Fetch(page) => {
                if !self.sizes.contains_key(&page) {
                    return false;
                }
                self.fault_in(page);
                self.replacer.record_access(&Model::id(page));
            }
            Op::Push(page, len) => {
                if !self.sizes.contains_key(&page) {
                    return false;
                }
                self.fault_in(page);
                let cost = SlottedPage::push_cost(None, len);
                assert!(self.make_room(cost, Some(page)), "growth was screened");
                *self.sizes.get_mut(&page).unwrap() += cost;
                self.replacer.record_access(&Model::id(page));
            }
        }
        true
    }

    /// A push that would grow its page past the whole budget: the pool
    /// would park on its own pin for the full pin wait, then refuse. Such
    /// ops are skipped (no page ever outgrows the budget).
    fn overflows(&self, op: &Op) -> bool {
        match *op {
            Op::Push(page, len) => self
                .sizes
                .get(&page)
                .is_some_and(|&size| size + SlottedPage::push_cost(None, len) > self.total),
            _ => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_evicts_what_the_lru_k_model_evicts(
        total in 600usize..2400,
        ops in prop::collection::vec(op_strategy(), 1..160),
    ) {
        let pool = BufferPool::with_budget(Arc::new(ByteBudget::new(total)));
        let names: Vec<String> = (0..PAGES).map(|p| format!("p{p}")).collect();
        let ids: Vec<PageId> = names
            .iter()
            .map(|name| PageId { ns: pool.namespace(name), partition: 0, page_no: 0 })
            .collect();
        let mut model = Model {
            total,
            used: 0,
            sizes: BTreeMap::new(),
            resident: BTreeSet::new(),
            replacer: LruKReplacer::new(2),
            faults: 0,
            evictions: 0,
        };
        for (step, op) in ops.iter().enumerate() {
            if model.overflows(op) {
                continue;
            }
            let accepted = model.apply(op);
            let result = match *op {
                Op::Create(p) => pool.create_page(ids[p]).map(drop),
                Op::Fetch(p) => pool.fetch(&ids[p]).map(drop),
                Op::Push(p, len) => {
                    let payload = vec![b'r'; len];
                    pool.with_page_mut(&ids[p], SlottedPage::push_cost(None, len), |page| {
                        page.push(None, &payload)
                    })
                    .map(drop)
                }
            };
            match result {
                Ok(()) => prop_assert!(accepted, "step {}: {:?} should be refused", step, op),
                Err(RedeError::AlreadyExists(_) | RedeError::NotFound(_)) => {
                    prop_assert!(!accepted, "step {}: {:?} refused", step, op)
                }
                Err(e) => prop_assert!(false, "step {}: {:?} failed: {:?}", step, op, e),
            }
            // Residency, page by page: the same pages left the pool.
            for (p, name) in names.iter().enumerate() {
                let want = if model.resident.contains(&p) { model.sizes[&p] } else { 0 };
                prop_assert_eq!(
                    pool.resident_bytes_of(name), want,
                    "step {}: page {} after {:?}", step, p, op
                );
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.faults, model.faults, "step {}: faults", step);
            prop_assert_eq!(stats.evictions, model.evictions, "step {}: evictions", step);
            prop_assert_eq!(stats.budget_used, model.used, "step {}: budget", step);
        }
        // The payload bytes never mattered to the order, but must survive.
        for (p, id) in ids.iter().enumerate() {
            if model.sizes.contains_key(&p) {
                let (ok, _) = pool
                    .with_page(id, |page| (0..page.len()).all(|s| {
                        page.record(s).unwrap().bytes().iter().all(|&b| b == b'r')
                    }))
                    .unwrap();
                prop_assert!(ok, "page {} corrupted", p);
            }
        }
    }
}
