//! Property-based fairness and conservation checks on the weighted
//! round-robin multi-queue backing every SMPE dispatcher.
//!
//! Four properties over arbitrary weight assignments and enqueue
//! sequences:
//!
//! 1. **No starvation**: any slot with queued work is served within a
//!    bounded number of pops (one full credit cycle across all slots).
//! 2. **Weighted shares**: over a long all-eligible service run, each
//!    slot's service count tracks its weight share to within one refill
//!    cycle of slack.
//! 3. **Drain conservation**: `drain` yields every queued item exactly
//!    once — the multiset out equals the multiset in.
//! 4. **Coalescing is order-preserving**: `take_matching`, which touches
//!    only a prefix of the slot, agrees with the whole-slot rebuild it
//!    replaced (kept here as the reference model).

use proptest::prelude::*;
use rede_core::exec::WrrQueue;

/// A generated workload: per-slot (key, weight, item count).
fn slots_strategy() -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    // 2..=6 slots with distinct keys, weights 1..=5, 1..=40 items each.
    proptest::collection::vec((1u32..=5, 1usize..=40), 2..=6).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (w, n))| (i as u64 + 1, w, n))
            .collect()
    })
}

/// Interleave pushes round-robin across slots so no slot's items are all
/// contiguous (a harsher ordering than slot-at-a-time).
fn fill(queue: &mut WrrQueue<(u64, usize)>, slots: &[(u64, u32, usize)]) {
    let max = slots.iter().map(|&(_, _, n)| n).max().unwrap_or(0);
    for seq in 0..max {
        for &(key, weight, n) in slots {
            if seq < n {
                queue.push(key, weight, (key, seq));
            }
        }
    }
}

/// Reference model for `take_matching`: the implementation it replaced,
/// over a plain deque — pop every item, keeping the first `limit` matches
/// aside. Returns (taken, left behind), both in queue order.
fn take_matching_model(
    items: &[u32],
    limit: usize,
    matches: impl Fn(&u32) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    let mut taken = Vec::new();
    let mut kept = Vec::new();
    for &item in items {
        if taken.len() < limit && matches(&item) {
            taken.push(item);
        } else {
            kept.push(item);
        }
    }
    (taken, kept)
}

proptest! {
    /// `take_matching` takes the same items in the same order, leaves the
    /// same items behind in the same order, and keeps `len` exact — for
    /// arbitrary slot contents, predicates (items are their own class:
    /// `item % classes == wanted`) and limits, with a bystander slot that
    /// must not be touched.
    #[test]
    fn take_matching_agrees_with_the_whole_slot_rebuild(
        items in proptest::collection::vec(0u32..1000, 0..80),
        classes in 1u32..5,
        wanted in 0u32..5,
        limit in 0usize..40,
    ) {
        let matches = |item: &u32| item % classes == wanted % classes;
        let mut q = WrrQueue::new();
        for &item in &items {
            q.push(1, 1, item);
        }
        let bystanders = [7u32, 8, 9];
        for &item in &bystanders {
            q.push(2, 1, item);
        }
        let (taken, kept) = take_matching_model(&items, limit, matches);
        prop_assert_eq!(q.take_matching(1, limit, matches), taken);
        prop_assert_eq!(q.len(), kept.len() + bystanders.len());
        prop_assert_eq!(q.drain_key(1), kept);
        prop_assert_eq!(q.drain_key(2), bystanders.to_vec());
        prop_assert!(q.is_empty());
    }

    /// Any slot with queued work is served at least once in any window of
    /// `sum(min(weight, backlog)) + slots` consecutive pops — a flooding
    /// heavy slot cannot starve a light one.
    #[test]
    fn no_slot_starves(slots in slots_strategy()) {
        let mut q = WrrQueue::new();
        fill(&mut q, &slots);
        // One full credit cycle serves every slot that still has work at
        // most `weight` times; a slot with work waits at most one cycle.
        let cycle: usize = slots.iter().map(|&(_, w, _)| w as usize).sum::<usize>() + slots.len();
        let mut waits: std::collections::HashMap<u64, usize> =
            slots.iter().map(|&(k, _, _)| (k, 0)).collect();
        let mut remaining: std::collections::HashMap<u64, usize> =
            slots.iter().map(|&(k, _, n)| (k, n)).collect();
        while let Some((served, _)) = q.pop_where(|_| true) {
            *remaining.get_mut(&served).unwrap() -= 1;
            for (&key, wait) in waits.iter_mut() {
                if key == served {
                    *wait = 0;
                } else if remaining[&key] > 0 {
                    *wait += 1;
                    prop_assert!(
                        *wait <= cycle,
                        "slot {key} waited {wait} pops (cycle bound {cycle})"
                    );
                }
            }
        }
        prop_assert!(remaining.values().all(|&n| n == 0));
    }

    /// While every slot has backlog, service counts match weight shares to
    /// within one refill of slack per slot.
    #[test]
    fn service_counts_track_weight_shares(slots in slots_strategy()) {
        let mut q = WrrQueue::new();
        // Deep, equal backlogs isolate the weighting from depletion
        // effects: give every slot enough items to survive the window.
        let depth = 64usize;
        let padded: Vec<(u64, u32, usize)> =
            slots.iter().map(|&(k, w, _)| (k, w, depth)).collect();
        fill(&mut q, &padded);
        let total_weight: u64 = padded.iter().map(|&(_, w, _)| u64::from(w)).sum();
        // Serve a window short enough that no slot can run dry: the
        // heaviest slot is served at most `weight` times per cycle.
        let cycles = padded
            .iter()
            .map(|&(_, w, _)| depth / w as usize)
            .min()
            .unwrap()
            .min(8);
        let pops = total_weight as usize * cycles;
        let mut served: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..pops {
            let (key, _) = q.pop_where(|_| true).expect("backlog sized to cover the window");
            *served.entry(key).or_default() += 1;
        }
        for &(key, weight, _) in &padded {
            let got = served.get(&key).copied().unwrap_or(0);
            let share = pops as u64 * u64::from(weight) / total_weight;
            let slack = u64::from(weight) + 1;
            prop_assert!(
                got >= share.saturating_sub(slack) && got <= share + slack,
                "slot {key} (weight {weight}): served {got}, share {share} ± {slack}"
            );
        }
    }

    /// `drain` yields every queued item exactly once, each under its own
    /// key, and leaves a reusable empty queue.
    #[test]
    fn drain_yields_every_item_exactly_once(slots in slots_strategy()) {
        let mut q = WrrQueue::new();
        fill(&mut q, &slots);
        // Mix in some served items so drain runs against a mid-service
        // cursor/credit state, not just a fresh queue.
        let pre_serve = slots.len().min(q.len() / 2);
        let mut expected: std::collections::HashSet<(u64, usize)> = slots
            .iter()
            .flat_map(|&(k, _, n)| (0..n).map(move |seq| (k, seq)))
            .collect();
        for _ in 0..pre_serve {
            let (_, item) = q.pop_where(|_| true).unwrap();
            prop_assert!(expected.remove(&item), "pop yielded unknown item {item:?}");
        }
        let drained = q.drain();
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.len(), 0);
        for (key, item) in drained {
            prop_assert_eq!(key, item.0, "item drained under the wrong key");
            prop_assert!(expected.remove(&item), "drain duplicated or invented {item:?}");
        }
        prop_assert!(expected.is_empty(), "drain lost items: {expected:?}");
        // The queue is reusable after a drain.
        q.push(99, 1, (99, 0));
        prop_assert_eq!(q.pop_where(|_| true), Some((99, (99, 0))));
    }
}
