//! Weighted round-robin multi-queue — the fair-share heart of the shared
//! SMPE substrate.
//!
//! One [`WrrQueue`] backs each node's stage queue. Items are partitioned
//! into per-key slots (one slot per job), and `pop_where` serves slots in
//! deficit round-robin order: each slot gets `weight` credits per refill
//! cycle, so over any window where several jobs have queued work, job `a`
//! is served `weight_a / weight_b` times as often as job `b` — a
//! scan-heavy job with thousands of queued tasks cannot starve a
//! point-lookup job that enqueues one task at a time.
//!
//! The structure is not thread-safe by itself; the substrate wraps it in
//! a mutex (see `smpe`).

use std::collections::VecDeque;

struct Slot<T> {
    key: u64,
    weight: u32,
    credits: u32,
    items: VecDeque<T>,
}

/// A multi-queue with per-key weighted fair service. Keys are job ids.
pub struct WrrQueue<T> {
    slots: Vec<Slot<T>>,
    cursor: usize,
    len: usize,
}

impl<T> Default for WrrQueue<T> {
    fn default() -> Self {
        WrrQueue::new()
    }
}

impl<T> WrrQueue<T> {
    pub fn new() -> WrrQueue<T> {
        WrrQueue {
            slots: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Total queued items across all slots.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an item to `key`'s slot, creating the slot (with the given
    /// weight and a full credit allowance) on first sight.
    pub fn push(&mut self, key: u64, weight: u32, item: T) {
        self.push_all(key, weight, [item]);
    }

    /// Append every item of `items` to `key`'s slot in order — one slot
    /// lookup for a whole dispatch's hand-off.
    pub fn push_all(&mut self, key: u64, weight: u32, items: impl IntoIterator<Item = T>) {
        let idx = match self.slots.iter().position(|s| s.key == key) {
            Some(idx) => idx,
            None => {
                let weight = weight.max(1);
                self.slots.push(Slot {
                    key,
                    weight,
                    credits: weight,
                    items: VecDeque::new(),
                });
                self.slots.len() - 1
            }
        };
        let queue = &mut self.slots[idx].items;
        let before = queue.len();
        queue.extend(items);
        self.len += queue.len() - before;
    }

    /// Serve the next item in weighted round-robin order, considering only
    /// items for which `eligible` holds (a worker's pop uses this to skip
    /// jobs at their pool-share cap). Each served item costs its slot one
    /// credit; when no creditable slot has eligible work but queued work
    /// remains, every slot's credits refill to its weight and one more
    /// pass runs. Returns the slot key alongside the item.
    pub fn pop_where(&mut self, mut eligible: impl FnMut(&T) -> bool) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        for round in 0..2 {
            let n = self.slots.len();
            for step in 0..n {
                let idx = (self.cursor + step) % n;
                let slot = &mut self.slots[idx];
                if slot.credits == 0 || slot.items.is_empty() {
                    continue;
                }
                match slot.items.front() {
                    Some(front) if eligible(front) => {}
                    _ => continue,
                }
                slot.credits -= 1;
                let item = slot.items.pop_front().expect("checked non-empty");
                let key = slot.key;
                self.len -= 1;
                self.cursor = (idx + 1) % n;
                return Some((key, item));
            }
            if round == 0 {
                for slot in &mut self.slots {
                    slot.credits = slot.weight;
                }
            }
        }
        // Work is queued but nothing is eligible right now.
        None
    }

    /// Take up to `limit` additional items from `key`'s slot for which
    /// `matches` holds, preserving FIFO order among the taken items and
    /// among the ones left behind. Used by a worker's pop to coalesce a
    /// just-popped task with its queued batchmates: the extras ride the
    /// credit already spent by `pop_where`, so batching never lets a slot
    /// exceed its weighted share of *dispatches* (a batch is one service).
    ///
    /// Only the prefix up to the last batchmate is touched: the scan stops
    /// at `limit` matches, and the items it passed over go back to the
    /// front in order — a slot holding a thousand tasks costs a coalescing
    /// dispatch its batch, not the slot.
    pub fn take_matching(
        &mut self,
        key: u64,
        limit: usize,
        mut matches: impl FnMut(&T) -> bool,
    ) -> Vec<T> {
        if limit == 0 {
            return Vec::new();
        }
        let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) else {
            return Vec::new();
        };
        // Positions of the batchmates, ascending (`matches` runs once per
        // scanned item), sized for the most the scan can find at its first.
        let mut hits: Vec<usize> = Vec::new();
        for (i, item) in slot.items.iter().enumerate() {
            if matches(item) {
                if hits.is_empty() {
                    hits.reserve_exact(limit.min(slot.items.len() - i));
                }
                hits.push(i);
                if hits.len() == limit {
                    break;
                }
            }
        }
        let Some(&last) = hits.last() else {
            return Vec::new();
        };
        let mut taken = Vec::with_capacity(hits.len());
        let mut passed_over = Vec::with_capacity(last + 1 - hits.len());
        for (i, item) in slot.items.drain(..=last).enumerate() {
            if hits[taken.len()..].first() == Some(&i) {
                taken.push(item);
            } else {
                passed_over.push(item);
            }
        }
        for item in passed_over.into_iter().rev() {
            slot.items.push_front(item);
        }
        self.len -= taken.len();
        taken
    }

    /// Empty the whole queue, yielding every queued item exactly once in
    /// (cursor-independent) slot order, each tagged with its key. Slots
    /// are removed; the queue is reusable afterwards.
    pub fn drain(&mut self) -> Vec<(u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        for slot in &mut self.slots {
            for item in slot.items.drain(..) {
                out.push((slot.key, item));
            }
        }
        self.slots.clear();
        self.cursor = 0;
        self.len = 0;
        out
    }

    /// Remove `key`'s slot entirely, returning its queued items (the
    /// caller balances in-flight accounting — a fabric-completion item can
    /// hold many task tokens, so a bare count is not enough — and drops
    /// the items outside the queue lock).
    pub fn drain_key(&mut self, key: u64) -> Vec<T> {
        let Some(idx) = self.slots.iter().position(|s| s.key == key) else {
            return Vec::new();
        };
        let slot = self.slots.remove(idx);
        self.len -= slot.items.len();
        if idx < self.cursor {
            self.cursor -= 1;
        }
        if self.cursor >= self.slots.len() {
            self.cursor = 0;
        }
        slot.items.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(q: &mut WrrQueue<&'static str>) -> Vec<(u64, &'static str)> {
        let mut out = Vec::new();
        while let Some(pair) = q.pop_where(|_| true) {
            out.push(pair);
        }
        out
    }

    #[test]
    fn single_key_is_fifo() {
        let mut q = WrrQueue::new();
        q.push(1, 1, "a");
        q.push(1, 1, "b");
        q.push(1, 1, "c");
        let order: Vec<_> = drain_order(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_weights_interleave() {
        let mut q = WrrQueue::new();
        for i in 0..4 {
            q.push(1, 1, "x");
            let _ = i;
        }
        for _ in 0..4 {
            q.push(2, 1, "y");
        }
        let keys: Vec<u64> = drain_order(&mut q).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn weights_set_the_service_ratio() {
        let mut q = WrrQueue::new();
        for _ in 0..30 {
            q.push(1, 3, "heavy");
            q.push(2, 1, "light");
        }
        let served = drain_order(&mut q);
        // In the first 20 services, the 3:1 weighting must hold within
        // one credit cycle of slack.
        let heavy_first20 = served[..20].iter().filter(|(k, _)| *k == 1).count();
        assert!(
            (13..=17).contains(&heavy_first20),
            "expected ~15 heavy services in the first 20, got {heavy_first20}"
        );
    }

    #[test]
    fn ineligible_items_are_skipped_not_lost() {
        let mut q = WrrQueue::new();
        q.push(1, 1, "blocked");
        q.push(2, 1, "ready");
        let (key, item) = q.pop_where(|it| *it != "blocked").unwrap();
        assert_eq!((key, item), (2, "ready"));
        // Only blocked work left: pop_where declines without dropping it.
        assert!(q.pop_where(|it| *it != "blocked").is_none());
        assert_eq!(q.len(), 1);
        let (key, item) = q.pop_where(|_| true).unwrap();
        assert_eq!((key, item), (1, "blocked"));
    }

    #[test]
    fn drain_key_drops_only_that_slot() {
        let mut q = WrrQueue::new();
        for _ in 0..5 {
            q.push(1, 1, "a");
            q.push(2, 1, "b");
        }
        assert_eq!(q.drain_key(1), vec!["a"; 5]);
        assert_eq!(q.len(), 5);
        assert!(q.drain_key(1).is_empty(), "already drained");
        let keys: Vec<u64> = drain_order(&mut q).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2; 5]);
    }

    #[test]
    fn take_matching_preserves_order_and_respects_limit() {
        let mut q = WrrQueue::new();
        for item in ["a1", "b1", "a2", "b2", "a3", "a4"] {
            q.push(1, 1, item);
        }
        q.push(2, 1, "other");
        let taken = q.take_matching(1, 3, |it| it.starts_with('a'));
        assert_eq!(taken, vec!["a1", "a2", "a3"]);
        assert_eq!(q.len(), 4);
        // Untaken items keep their FIFO order; other slots are untouched.
        let rest: Vec<_> = drain_order(&mut q);
        assert_eq!(rest, vec![(1, "b1"), (2, "other"), (1, "b2"), (1, "a4")]);
        // Unknown keys and zero limits are no-ops.
        assert!(q.take_matching(9, 4, |_| true).is_empty());
        q.push(1, 1, "x");
        assert!(q.take_matching(1, 0, |_| true).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn starvation_free_under_a_flooding_key() {
        let mut q = WrrQueue::new();
        for _ in 0..1000 {
            q.push(1, 1, "flood");
        }
        q.push(2, 1, "single");
        // The single-item job is served within one full credit cycle.
        let served_keys: Vec<u64> = (0..3)
            .filter_map(|_| q.pop_where(|_| true))
            .map(|(k, _)| k)
            .collect();
        assert!(
            served_keys.contains(&2),
            "flooded key starved the single-task key: {served_keys:?}"
        );
    }
}
