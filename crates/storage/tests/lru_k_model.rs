//! The buffer pool's eviction order, pinned to a reference model.
//!
//! [`LruKReplacer`] is textbook LRU-K (O'Neil et al.) over a map of
//! per-page access histories. The pool does not use it: each frame keeps
//! its own two most recent access ticks, so a resident read records its
//! access without any pool-wide lock. This file keeps the replacer as the
//! executable model of what the pool must still do — its unit tests
//! pin LRU-K itself, and the property drives random single-threaded
//! `create_page` / `fetch` / `with_page_mut` sequences under a small budget,
//! with up to two pages held pinned across ops, through the pool and
//! through a model of the pool built on the replacer, asserting that the
//! same pages leave residency at every step, with the same fault and
//! eviction counts. Re-accessed and held pages are what make the pool's
//! victim queue re-push stale entries and set pinned ones aside.

use proptest::prelude::*;
use rede_common::{FxHashMap, RedeError};
use rede_storage::buffer::{BufferPool, ByteBudget, PageId, SlottedPage};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-page access history: up to `k` most recent logical timestamps,
/// oldest first.
#[derive(Debug, Default, Clone)]
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
#[derive(Debug, Clone)]
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
/// `BufferPool::resident_bytes_of` observes one page's residency. More
/// pages than fit the budget, so the victim queue holds stale entries.
const PAGES: usize = 24;

/// Guards kept alive across ops: a `Hold` beyond this releases the oldest.
const MAX_HELD: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Fetch(usize),
    /// Append a record of this many bytes.
    Push(usize, usize),
    /// Fetch the page and keep its guard (its pin) across later ops.
    Hold(usize),
    /// Drop the oldest guard held on the page, if any.
    Release(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PAGES).prop_map(Op::Create),
        (0..PAGES).prop_map(Op::Fetch),
        (0..PAGES).prop_map(Op::Fetch),
        (0..PAGES, 1usize..240).prop_map(|(p, len)| Op::Push(p, len)),
        (0..PAGES, 1usize..240).prop_map(|(p, len)| Op::Push(p, len)),
        (0..PAGES).prop_map(Op::Hold),
        (0..PAGES).prop_map(Op::Release),
    ]
}

/// What the model says an op does.
#[derive(Debug, PartialEq)]
enum Outcome {
    Done,
    /// Refused for the data it names (a duplicate page, a missing one).
    Refused,
    /// Needs room that only a held page could give: the pool would park
    /// for its whole pin wait and then refuse. Such ops are skipped.
    Stuck,
}

/// The pool, single-threaded, modelled on the replacer: charge until the
/// budget fits, evicting the replacer's victim among resident pages that
/// are neither held nor being grown.
#[derive(Clone)]
struct Model {
    total: usize,
    used: usize,
    /// Current byte size of every page that exists, resident or not.
    sizes: BTreeMap<usize, usize>,
    resident: BTreeSet<usize>,
    /// Pages pinned by a held guard, oldest first (a page may repeat).
    held: Vec<usize>,
    replacer: LruKReplacer,
    faults: u64,
    evictions: u64,
}

impl Model {
    fn id(page: usize) -> PageId {
        pid(page as u32)
    }

    /// Charge `need`, evicting victims in order; held pages and `growing`
    /// are never one.
    fn make_room(&mut self, need: usize, growing: Option<usize>) -> bool {
        while self.used + need > self.total {
            let candidates: Vec<PageId> = self
                .resident
                .iter()
                .filter(|&&p| Some(p) != growing && !self.held.contains(&p))
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

    fn fault_in(&mut self, page: usize) -> bool {
        if self.resident.contains(&page) {
            return true;
        }
        if !self.make_room(self.sizes[&page], None) {
            return false;
        }
        self.resident.insert(page);
        self.faults += 1;
        true
    }

    /// A push that would grow its page past the whole budget.
    fn outgrows(&self, op: &Op) -> bool {
        match *op {
            Op::Push(page, len) => self
                .sizes
                .get(&page)
                .is_some_and(|&size| size + SlottedPage::push_cost(None, len) > self.total),
            _ => false,
        }
    }

    fn apply(&mut self, op: &Op) -> Outcome {
        let exists = |page: usize| self.sizes.contains_key(&page);
        match *op {
            Op::Create(page) if exists(page) => return Outcome::Refused,
            Op::Fetch(page) | Op::Push(page, _) | Op::Hold(page) if !exists(page) => {
                return Outcome::Refused
            }
            Op::Create(page) => {
                let bytes = SlottedPage::new().byte_size();
                if !self.make_room(bytes, None) {
                    return Outcome::Stuck;
                }
                self.sizes.insert(page, bytes);
                self.resident.insert(page);
            }
            Op::Fetch(page) => {
                if !self.fault_in(page) {
                    return Outcome::Stuck;
                }
            }
            Op::Push(page, len) => {
                let cost = SlottedPage::push_cost(None, len);
                if !self.fault_in(page) || !self.make_room(cost, Some(page)) {
                    return Outcome::Stuck;
                }
                *self.sizes.get_mut(&page).unwrap() += cost;
            }
            Op::Hold(page) => {
                if self.held.len() == MAX_HELD {
                    self.held.remove(0);
                }
                if !self.fault_in(page) {
                    return Outcome::Stuck;
                }
                self.held.push(page);
            }
            Op::Release(page) => {
                if let Some(at) = self.held.iter().position(|&h| h == page) {
                    self.held.remove(at);
                }
                return Outcome::Done;
            }
        }
        self.replacer.record_access(&Model::id(op_page(op)));
        Outcome::Done
    }
}

fn op_page(op: &Op) -> usize {
    match *op {
        Op::Create(p) | Op::Fetch(p) | Op::Push(p, _) | Op::Hold(p) | Op::Release(p) => p,
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
            held: Vec::new(),
            replacer: LruKReplacer::new(2),
            faults: 0,
            evictions: 0,
        };
        // Guards in step with `model.held`: (page, pin).
        let mut held = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let mut next = model.clone();
            let outcome = next.apply(op);
            if outcome == Outcome::Stuck {
                // With nothing held, only a push past the whole budget
                // can be stuck: the pool would park on its own pin.
                prop_assert!(
                    !model.held.is_empty() || model.outgrows(op),
                    "step {}: {:?} stuck with nothing held",
                    step,
                    op
                );
                continue;
            }
            model = next;
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
                Op::Hold(p) => {
                    if outcome == Outcome::Done && held.len() == MAX_HELD {
                        held.remove(0);
                    }
                    pool.fetch(&ids[p]).map(|(guard, _)| held.push((p, guard)))
                }
                Op::Release(p) => {
                    if let Some(at) = held.iter().position(|(h, _)| *h == p) {
                        held.remove(at);
                    }
                    Ok(())
                }
            };
            match result {
                Ok(()) => prop_assert_eq!(outcome, Outcome::Done, "step {}: {:?}", step, op),
                Err(RedeError::AlreadyExists(_) | RedeError::NotFound(_)) => {
                    prop_assert_eq!(outcome, Outcome::Refused, "step {}: {:?}", step, op)
                }
                Err(e) => prop_assert!(false, "step {}: {:?} failed: {:?}", step, op, e),
            }
            let pinned: Vec<usize> = held.iter().map(|(p, _)| *p).collect();
            prop_assert_eq!(&pinned, &model.held, "step {}: held pages", step);
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
        drop(held);
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
