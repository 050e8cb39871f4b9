//! Deterministic, seeded fault injection for [`SimCluster`](crate::SimCluster).
//!
//! The paper's SMPE argument rests on massive I/O concurrency across 128
//! HDD nodes — an environment where transient read failures, stragglers,
//! and node brown-outs are the norm. This module makes the simulated
//! cluster imperfect *on purpose*, and does it deterministically so chaos
//! tests can assert byte-identical answers and exact recovery counters for
//! any fixed seed.
//!
//! A [`FaultPlan`] describes what can go wrong; a [`FaultInjector`] (one
//! per cluster, built from the plan) is consulted on every charged point
//! read and index probe and answers with a [`FaultDecision`]:
//!
//! * **Transient failures** — a charged access fails with
//!   [`RedeError::Transient`](rede_common::RedeError::Transient). The
//!   decision is a pure function of the plan seed and the access *site*
//!   (a hash of file/partition/key), and each site fails at most once, so
//!   the set of injected faults depends only on the workload — never on
//!   thread interleaving — and one bounded retry per fault always
//!   recovers. This is what makes `retries == faults_injected` an exact
//!   invariant for transient-only plans.
//! * **Brown-outs** — a node's device latency is multiplied for a window
//!   of simulated time. Accesses still succeed; the node is merely a
//!   straggler.
//! * **Node-down windows** — a node's storage is unavailable for a
//!   window. Reads of its partitions are served by a *replica* on the
//!   next live node (counted as `rerouted_reads`); they only fail if no
//!   live replica exists (single-node cluster, or everything down).
//!
//! Simulated time is a global *access tick*: every injector consult
//! advances it by one. Windows are expressed in ticks, which keeps runs
//! reproducible regardless of wall-clock speed and guarantees windows end
//! even under pure retry pressure.

use rede_common::rng::SplitMix64;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which charged access path is consulting the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// A point read of a heap record.
    PointRead,
    /// A B+-tree traversal (lookup or range probe).
    IndexProbe,
}

/// A half-open window `[from, to)` of access ticks on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownWindow {
    pub node: usize,
    pub ticks: Range<u64>,
}

/// A brown-out: `node` serves accesses `multiplier`× slower during the
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Brownout {
    pub node: usize,
    pub ticks: Range<u64>,
    pub multiplier: u32,
}

/// Declarative description of everything that may go wrong in a run.
///
/// The default plan is *inert*: no fault can ever fire, and an inert plan
/// attached to a cluster behaves identically to no plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all randomized decisions (transient-fault rolls).
    pub seed: u64,
    /// Probability that a point-read site fails once (0.0 disables).
    pub read_fault_rate: f64,
    /// Probability that an index-probe site fails once (0.0 disables).
    pub probe_fault_rate: f64,
    /// Straggler windows.
    pub brownouts: Vec<Brownout>,
    /// Unavailability windows.
    pub downs: Vec<DownWindow>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An inert plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_fault_rate: 0.0,
            probe_fault_rate: 0.0,
            brownouts: Vec::new(),
            downs: Vec::new(),
        }
    }

    /// Transient faults only: both point reads and index probes fail at
    /// `rate` (per site, at most once each).
    pub fn transient(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_read_fault_rate(rate)
            .with_probe_fault_rate(rate)
    }

    /// Set the point-read transient fault rate.
    pub fn with_read_fault_rate(mut self, rate: f64) -> FaultPlan {
        self.read_fault_rate = rate;
        self
    }

    /// Set the index-probe transient fault rate.
    pub fn with_probe_fault_rate(mut self, rate: f64) -> FaultPlan {
        self.probe_fault_rate = rate;
        self
    }

    /// Add a brown-out window: `node` is `multiplier`× slower for
    /// access ticks in `ticks`.
    pub fn with_brownout(mut self, node: usize, ticks: Range<u64>, multiplier: u32) -> FaultPlan {
        self.brownouts.push(Brownout {
            node,
            ticks,
            multiplier: multiplier.max(1),
        });
        self
    }

    /// Add a node-down window: reads of `node`'s partitions are
    /// replica-served (or fail when no replica is live) for access ticks
    /// in `ticks`.
    pub fn with_node_down(mut self, node: usize, ticks: Range<u64>) -> FaultPlan {
        self.downs.push(DownWindow { node, ticks });
        self
    }

    /// True if no fault can ever fire under this plan.
    pub fn is_inert(&self) -> bool {
        self.read_fault_rate <= 0.0
            && self.probe_fault_rate <= 0.0
            && self.brownouts.is_empty()
            && self.downs.is_empty()
    }
}

/// What the injector decided about one charged access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed, paying `latency_mult`× the device latency (1 = healthy).
    Pass { latency_mult: u32 },
    /// Fail this access with a transient error; a retry will succeed.
    Transient,
    /// The owning node is down for this access; serve from a replica.
    OwnerDown,
}

/// Per-cluster fault state: the plan, the access-tick clock, and the set
/// of sites that already failed once.
pub struct FaultInjector {
    plan: FaultPlan,
    read_threshold: u64,
    probe_threshold: u64,
    tick: AtomicU64,
    faulted_sites: Mutex<HashSet<u64>>,
}

/// Scale a probability into a threshold for a uniform `u64` roll.
fn threshold(rate: f64) -> u64 {
    let rate = rate.clamp(0.0, 1.0);
    if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

impl FaultInjector {
    /// Build the injector for a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            read_threshold: threshold(plan.read_fault_rate),
            probe_threshold: threshold(plan.probe_fault_rate),
            plan,
            tick: AtomicU64::new(0),
            faulted_sites: Mutex::new(HashSet::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current access tick (simulated time).
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Number of distinct sites that have been failed so far.
    pub fn faulted_sites(&self) -> usize {
        self.faulted_sites.lock().unwrap().len()
    }

    /// Is `node` inside one of its down windows at the current tick?
    /// (Does not advance the clock — routing queries are free.)
    pub fn is_node_down(&self, node: usize) -> bool {
        self.down_at(node, self.tick())
    }

    fn down_at(&self, node: usize, tick: u64) -> bool {
        self.plan
            .downs
            .iter()
            .any(|w| w.node == node && w.ticks.contains(&tick))
    }

    fn brownout_mult(&self, node: usize, tick: u64) -> u32 {
        self.plan
            .brownouts
            .iter()
            .filter(|b| b.node == node && b.ticks.contains(&tick))
            .map(|b| b.multiplier)
            .max()
            .unwrap_or(1)
    }

    /// The first live node other than `owner` (round-robin from
    /// `owner + 1`) that could serve a replica of its data, if any.
    pub fn live_replica(&self, owner: usize, nodes: usize) -> Option<usize> {
        let tick = self.tick();
        (1..nodes)
            .map(|d| (owner + d) % nodes)
            .find(|&n| !self.down_at(n, tick))
    }

    /// Decide the fate of one charged access of `class` against a
    /// partition owned by `owner`, identified by its deterministic `site`
    /// hash. Advances the access-tick clock by one.
    pub fn consult(&self, class: AccessClass, owner: usize, site: u64) -> FaultDecision {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if self.down_at(owner, tick) {
            return FaultDecision::OwnerDown;
        }
        let threshold = match class {
            AccessClass::PointRead => self.read_threshold,
            AccessClass::IndexProbe => self.probe_threshold,
        };
        if threshold > 0 {
            // The roll is a pure function of (seed, site): whether a site
            // is fault-prone never depends on timing. The site set makes
            // each prone site fail exactly once, so a single retry is
            // always enough and the total fault count is workload-exact.
            let roll = SplitMix64::new(self.plan.seed ^ site).next_u64();
            if roll < threshold && self.faulted_sites.lock().unwrap().insert(site) {
                return FaultDecision::Transient;
            }
        }
        FaultDecision::Pass {
            latency_mult: self.brownout_mult(owner, tick),
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("tick", &self.tick())
            .field("faulted_sites", &self.faulted_sites())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_always_passes() {
        let inj = FaultInjector::new(FaultPlan::new(7));
        assert!(inj.plan().is_inert());
        for site in 0..1000 {
            assert_eq!(
                inj.consult(AccessClass::PointRead, 0, site),
                FaultDecision::Pass { latency_mult: 1 }
            );
        }
        assert_eq!(inj.tick(), 1000);
        assert_eq!(inj.faulted_sites(), 0);
    }

    #[test]
    fn transient_faults_are_deterministic_and_fail_once() {
        let plan = FaultPlan::transient(42, 0.25);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let sites: Vec<u64> = (0..400).collect();
        let first_pass: Vec<FaultDecision> = sites
            .iter()
            .map(|&s| a.consult(AccessClass::PointRead, 0, s))
            .collect();
        // Same plan, same sites, different injector: identical decisions.
        for (&s, d) in sites.iter().zip(&first_pass) {
            assert_eq!(b.consult(AccessClass::PointRead, 0, s), *d);
        }
        let faults = first_pass
            .iter()
            .filter(|d| matches!(d, FaultDecision::Transient))
            .count();
        assert!(faults > 0, "a 25% rate over 400 sites must fire");
        assert!(faults < sites.len());
        assert_eq!(a.faulted_sites(), faults);
        // Second touch of every site passes: each site fails at most once.
        for &s in &sites {
            assert_eq!(
                a.consult(AccessClass::PointRead, 0, s),
                FaultDecision::Pass { latency_mult: 1 }
            );
        }
        assert_eq!(a.faulted_sites(), faults);
    }

    #[test]
    fn classes_roll_independently() {
        let plan = FaultPlan::new(9).with_probe_fault_rate(1.0);
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.consult(AccessClass::PointRead, 0, 5),
            FaultDecision::Pass { latency_mult: 1 }
        );
        assert_eq!(
            inj.consult(AccessClass::IndexProbe, 0, 5),
            FaultDecision::Transient
        );
    }

    #[test]
    fn brownout_window_multiplies_then_ends() {
        let inj = FaultInjector::new(FaultPlan::new(1).with_brownout(2, 1..3, 5));
        // tick 0: before the window.
        assert_eq!(
            inj.consult(AccessClass::PointRead, 2, 0),
            FaultDecision::Pass { latency_mult: 1 }
        );
        // ticks 1, 2: inside.
        for _ in 0..2 {
            assert_eq!(
                inj.consult(AccessClass::PointRead, 2, 0),
                FaultDecision::Pass { latency_mult: 5 }
            );
        }
        // tick 3: the window is half-open.
        assert_eq!(
            inj.consult(AccessClass::PointRead, 2, 0),
            FaultDecision::Pass { latency_mult: 1 }
        );
        // Other nodes are unaffected throughout.
        assert_eq!(
            inj.consult(AccessClass::PointRead, 1, 0),
            FaultDecision::Pass { latency_mult: 1 }
        );
    }

    #[test]
    fn down_window_reports_owner_down_and_replicas_skip_down_nodes() {
        let inj = FaultInjector::new(
            FaultPlan::new(3)
                .with_node_down(1, 0..10)
                .with_node_down(2, 0..10),
        );
        assert!(inj.is_node_down(1));
        assert!(inj.is_node_down(2));
        assert!(!inj.is_node_down(0));
        // Replica choice walks past down nodes.
        assert_eq!(inj.live_replica(1, 4), Some(3));
        assert_eq!(inj.live_replica(2, 4), Some(3));
        // Two-node cluster with the only other node down: no replica.
        assert_eq!(inj.live_replica(2, 3), Some(0));
        assert_eq!(
            inj.consult(AccessClass::PointRead, 1, 0),
            FaultDecision::OwnerDown
        );
        // Consults advance the clock, so windows end even under retry.
        for _ in 0..10 {
            inj.consult(AccessClass::PointRead, 0, 0);
        }
        assert!(!inj.is_node_down(1));
        assert_eq!(
            inj.consult(AccessClass::PointRead, 1, 0),
            FaultDecision::Pass { latency_mult: 1 }
        );
    }

    #[test]
    fn injector_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultInjector>();
    }
}
