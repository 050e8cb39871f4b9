//! The four workloads as pure functions of `--seed`: which jobs exist,
//! in which order they are issued, when open-loop arrivals and writer
//! commits are due. Nothing here touches a cluster, so the same seed
//! reproduces the same inputs byte for byte (see the tests).
//!
//! Every seeded choice is *stratified*: Q5' windows tile the whole order
//! date domain from a seeded offset and are issued as one seeded
//! permutation per cycle; open-loop kinds are dealt from a deck holding
//! the exact zipf proportions. Seeds therefore change which job runs when
//! and beside which other job, but not how much work a run contains —
//! otherwise goodput and accesses per job would move from seed to seed by
//! more than any regression bound.

use crate::stats::{arrival_schedule, zipf_weights};
use rede_common::rng::Xoshiro256;
use std::time::Duration;

/// Synthetic claims present before any run starts: one for each patient
/// of a bounded population (ids `1..=SEED_CLAIMS`), on whom every streamed
/// claim lands too.
pub const SEED_CLAIMS: usize = 4_000;
/// Rows per ingest transaction: one claim for each patient of one write
/// group, so every patient's history grows smoothly (a 25-row burst on
/// one patient made lookup latency bimodal and its median a coin toss)
/// and, at any atomic cut, two patients of a group hold equally many.
pub const TXN_ROWS: usize = 25;
/// Write groups: group `g` is patients `25g + 1 ..= 25g + 25`.
pub const GROUPS: usize = SEED_CLAIMS / TXN_ROWS;
/// Reader households per group: patients `(a, a + 1)` of one group.
const PAIRS_PER_GROUP: usize = TXN_ROWS / 2;
/// `o_orderdate` is uniform over this many days (`rede_tpch::gen`).
const ORDER_DAYS: i32 = 2406;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Q5Deref,
    ServeOpen,
    HtapMix,
    MemPressure,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Q5Deref,
        Kind::ServeOpen,
        Kind::HtapMix,
        Kind::MemPressure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Q5Deref => "q5_deref",
            Kind::ServeOpen => "serve_open",
            Kind::HtapMix => "htap_mix",
            Kind::MemPressure => "mem_pressure",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The fixed latency limit `within_limit_frac` is judged against.
    pub fn limit(self) -> Duration {
        Duration::from_millis(match self {
            Kind::Q5Deref | Kind::MemPressure => 150,
            Kind::ServeOpen => 100,
            Kind::HtapMix => 50,
        })
    }

    /// Claims are loaded beside TPC-H only where the mix reads them.
    pub fn loads_claims(self) -> bool {
        matches!(self, Kind::ServeOpen | Kind::HtapMix)
    }
}

/// One distinct job of a workload, before it is compiled against a
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum JobDef {
    /// TPC-H Q5' over `o_orderdate` days `[lo_day, lo_day + span_days)`.
    Q5 { lo_day: i32, span_days: i32 },
    /// Case-study claims query `QuerySpec::all()[i]` (Q1..Q3).
    Claims(usize),
    /// The claim histories of patients `a` and `a + 1` — two members of
    /// one write group — through the traceability index, in one job.
    Household(i64),
}

/// How the load generator issues jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// `connections` callers, each issuing its next job when the previous
    /// one completed; whole cycles of [`Workload::cycle`] until the run's
    /// seconds are spent.
    Closed { connections: usize },
    /// Independent arrivals at a fixed `rate` (jobs/s) served by
    /// `connections` connections; latency runs from the due time.
    Open { rate: f64, connections: usize },
}

/// A live ingest stream beside the readers (`htap_mix`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriterPlan {
    /// Fixed commit rate; commit latency runs from the due time.
    pub commits_per_s: f64,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub defs: Vec<JobDef>,
    pub arrivals: Arrivals,
    pub writer: Option<WriterPlan>,
    /// Zipf weights over `household_rank` (htap_mix only).
    household_weights: Vec<f64>,
    /// Seeded popularity order of the households (htap_mix only).
    household_rank: Vec<usize>,
    /// Index of the first `JobDef::Household` in `defs`.
    first_household: usize,
    /// Seeded order in which the writer visits the write groups.
    group_order: Vec<usize>,
    /// serve_open: one 100-card deck of def indices in the mix's shares.
    deck: Vec<usize>,
}

/// Days a Q5' window spans at a target selectivity (the same rounding as
/// `rede_tpch::selectivity_date_range`).
fn span_days(selectivity: f64) -> i32 {
    ((selectivity * f64::from(ORDER_DAYS)).ceil() as i32).clamp(1, ORDER_DAYS)
}

/// `n` Q5' windows of one selectivity, evenly spaced over every start day
/// that keeps the window inside the date domain, from a seeded offset.
fn tiled_windows(rng: &mut Xoshiro256, n: usize, selectivity: f64) -> Vec<JobDef> {
    let span = span_days(selectivity);
    let starts = ORDER_DAYS - span + 1;
    let offset = rng.gen_range(starts as u64) as i64;
    (0..n as i64)
        .map(|i| JobDef::Q5 {
            lo_day: ((offset + i * i64::from(starts) / n as i64) % i64::from(starts)) as i32,
            span_days: span,
        })
        .collect()
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let root = Xoshiro256::new(seed).derive(kind as u64 + 1);
        let mut rng = root.derive(0);
        let mut w = Workload {
            kind,
            seed,
            defs: Vec::new(),
            arrivals: Arrivals::Closed { connections: 2 },
            writer: None,
            household_weights: Vec::new(),
            household_rank: Vec::new(),
            first_household: 0,
            group_order: Vec::new(),
            deck: Vec::new(),
        };
        match kind {
            // Fig. 7's condition: thousands of overlapped dereferences
            // per job, so executor + cluster + B+-tree do the work. (2e-2,
            // not 3e-2: a third of a 20 s pass must hold 200 jobs for its
            // p95 to have ten samples beyond it.)
            Kind::Q5Deref => w.defs = tiled_windows(&mut rng, 32, 2e-2),
            // Larger than the program's own cache: 64 windows touch far
            // more pages than the 4 MiB budget holds.
            Kind::MemPressure => w.defs = tiled_windows(&mut rng, 64, 3e-3),
            // Five short kinds; per-job fixed cost dominates, dereference
            // volume does not. Popularity is zipf(1.1), and the most
            // popular kind is the one of middling latency, so the median
            // job falls inside its latency cluster instead of on its edge.
            // The two Q5' kinds are tiled, one window per card, so every
            // 100-arrival deck holds the same work whatever the seed.
            Kind::ServeOpen => {
                let shares: Vec<usize> = {
                    let weights = zipf_weights(5, 1.1);
                    let total: f64 = weights.iter().sum();
                    weights
                        .iter()
                        .map(|w| (100.0 * w / total).round() as usize)
                        .collect()
                };
                let kinds = [
                    vec![JobDef::Claims(0)],
                    vec![JobDef::Claims(1)],
                    tiled_windows(&mut rng, shares[2], 5e-4),
                    vec![JobDef::Claims(2)],
                    tiled_windows(&mut rng, shares[4], 3e-3),
                ];
                for (kind, cards) in kinds.into_iter().zip(shares) {
                    let first = w.defs.len();
                    let n = kind.len();
                    w.defs.extend(kind);
                    w.deck.extend((0..cards).map(|c| first + c % n));
                }
                w.deck.resize(100, 0); // rounding slack goes to the top kind
                w.arrivals = Arrivals::Open {
                    rate: 30.0,
                    connections: 2,
                };
            }
            // Household lookups beside a live writer; every 8th job a Q5'.
            Kind::HtapMix => {
                w.defs = tiled_windows(&mut rng, 32, 1e-3);
                w.first_household = w.defs.len();
                for g in 0..GROUPS {
                    for j in 0..PAIRS_PER_GROUP {
                        let a = (g * TXN_ROWS + 2 * j + 1) as i64;
                        w.defs.push(JobDef::Household(a));
                    }
                }
                let households = GROUPS * PAIRS_PER_GROUP;
                w.household_rank = (0..households).collect();
                rng.shuffle(&mut w.household_rank);
                w.household_weights = zipf_weights(households, 1.1);
                w.group_order = (0..GROUPS).collect();
                rng.shuffle(&mut w.group_order);
                w.arrivals = Arrivals::Closed { connections: 1 };
                w.writer = Some(WriterPlan {
                    commits_per_s: 100.0,
                });
            }
        }
        w
    }

    fn stream(&self, purpose: u64, k: u64) -> Xoshiro256 {
        Xoshiro256::new(self.seed)
            .derive(self.kind as u64 + 1)
            .derive(purpose)
            .derive(k)
    }

    /// Indices into `defs` to issue during cycle `k` of a closed loop. A
    /// cycle is at most two seconds of work, so a run that finishes its
    /// last cycle overshoots its seconds by at most that.
    pub fn cycle(&self, k: u64) -> Vec<usize> {
        let mut rng = self.stream(1, k);
        match self.kind {
            Kind::Q5Deref | Kind::MemPressure => {
                let mut order: Vec<usize> = (0..self.defs.len()).collect();
                rng.shuffle(&mut order);
                order
            }
            // 56 household lookups and 8 of the 32 Q5' windows; four
            // cycles visit every window. Short cycles, because the work
            // a lookup does grows with the time since the run began: a
            // long overshoot would change the metrics, not just the wait.
            Kind::HtapMix => {
                let quarter = self.first_household / 4;
                let tiles = (k % 4) as usize * quarter;
                (0..8 * quarter)
                    .map(|i| {
                        if i % 8 == 7 {
                            tiles + i / 8
                        } else {
                            let rank = rng.choose_weighted(&self.household_weights);
                            self.first_household + self.household_rank[rank]
                        }
                    })
                    .collect()
            }
            // Only driven closed-loop by the paired gate-vs-scheduler
            // probe of the traced run: one deck.
            Kind::ServeOpen => self.shuffled_deck(&mut rng),
        }
    }

    fn shuffled_deck(&self, rng: &mut Xoshiro256) -> Vec<usize> {
        let mut deck = self.deck.clone();
        rng.shuffle(&mut deck);
        deck
    }

    /// The open-loop schedule for a pass of `window`: `(due, def index)`
    /// ascending by due time. `pass` separates warm-up from measurement.
    pub fn open_schedule(&self, pass: u64, window: Duration) -> Vec<(Duration, usize)> {
        let Arrivals::Open { rate, .. } = self.arrivals else {
            return Vec::new();
        };
        let count = (rate * window.as_secs_f64()).round() as usize;
        let mut rng = self.stream(2, pass);
        let due = arrival_schedule(&mut rng, count, window);
        let mut kinds = Vec::with_capacity(count + 100);
        while kinds.len() < count {
            kinds.extend(self.shuffled_deck(&mut rng));
        }
        due.into_iter().zip(kinds).collect()
    }

    /// The patients ingest transaction `txn` writes one claim each for:
    /// the write groups take turns in a seeded order.
    pub fn txn_patients(&self, txn: u64) -> std::ops::Range<i64> {
        let group = self.group_order[txn as usize % GROUPS];
        let first = (group * TXN_ROWS) as i64 + 1;
        first..first + TXN_ROWS as i64
    }

    /// Patients whose histories are compared after WAL recovery: members
    /// of the most popular households, which also receive streamed claims.
    pub fn sample_patients(&self, n: usize) -> Vec<i64> {
        self.household_rank
            .iter()
            .take(n)
            .map(|&h| match self.defs[self.first_household + h] {
                JobDef::Household(a) => a,
                _ => unreachable!("households follow first_household"),
            })
            .collect()
    }

    /// Everything seeded about this workload, as text: the byte-for-byte
    /// reproducibility witness.
    pub fn describe(&self) -> String {
        let mut out = format!("{} seed {}\n", self.kind.name(), self.seed);
        // The households themselves are the same for every seed; their
        // seeded part is the popularity order, printed below.
        for def in self.defs.iter().take(self.defs.len().min(64)) {
            out.push_str(&format!("{def:?}\n"));
        }
        for k in 0..2 {
            out.push_str(&format!("cycle {k}: {:?}\n", self.cycle(k)));
        }
        let sched = self.open_schedule(1, Duration::from_secs(2));
        out.push_str(&format!("open: {sched:?}\n"));
        if self.writer.is_some() {
            let firsts: Vec<i64> = (0..16).map(|t| self.txn_patients(t).start).collect();
            out.push_str(&format!("txn groups start at: {firsts:?}\n"));
            out.push_str(&format!("samples: {:?}\n", self.sample_patients(16)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_and_other_seed_changes_every_workload() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 11).describe();
            let b = Workload::generate(kind, 11).describe();
            let c = Workload::generate(kind, 12).describe();
            assert_eq!(a, b, "{} is not reproducible", kind.name());
            assert_ne!(a, c, "{} ignores its seed", kind.name());
        }
    }

    #[test]
    fn windows_stay_inside_the_date_domain_and_spread_over_it() {
        for seed in 0..50 {
            let w = Workload::generate(Kind::Q5Deref, seed);
            let mut starts = Vec::new();
            for def in &w.defs {
                let JobDef::Q5 { lo_day, span_days } = def else {
                    panic!("q5_deref holds only Q5' jobs");
                };
                assert!(*lo_day >= 0 && lo_day + span_days <= ORDER_DAYS);
                starts.push(*lo_day);
            }
            starts.sort();
            starts.dedup();
            assert_eq!(starts.len(), 32, "windows must be distinct");
        }
    }

    #[test]
    fn cycles_are_permutations_and_htap_interleaves_q5_every_eighth() {
        let w = Workload::generate(Kind::MemPressure, 3);
        let mut c = w.cycle(5);
        assert_ne!(c, w.cycle(6));
        c.sort();
        assert_eq!(c, (0..64).collect::<Vec<_>>());

        let h = Workload::generate(Kind::HtapMix, 3);
        let cycle = h.cycle(0);
        assert_eq!(cycle.len(), 64);
        let mut windows: Vec<usize> = (0..4)
            .flat_map(|k| h.cycle(k))
            .filter(|&i| i < 32)
            .collect();
        windows.sort();
        assert_eq!(
            windows,
            (0..32).collect::<Vec<_>>(),
            "four cycles visit every window"
        );
        for (i, &idx) in cycle.iter().enumerate() {
            let is_q5 = matches!(h.defs[idx], JobDef::Q5 { .. });
            assert_eq!(is_q5, i % 8 == 7, "position {i}");
        }
    }

    #[test]
    fn open_schedule_has_exact_count_and_zipf_shares() {
        let w = Workload::generate(Kind::ServeOpen, 9);
        let sched = w.open_schedule(1, Duration::from_secs(20));
        assert_eq!(sched.len(), 600);
        let mut shares = [0usize; 25];
        for (_, k) in &sched {
            shares[*k] += 1;
        }
        // 600 arrivals = 6 whole decks: shares are exact multiples.
        let by_kind = |lo: usize, hi: usize| shares[lo..hi].iter().sum::<usize>();
        assert_eq!(shares[0], 6 * 46); // claims Q1
        assert_eq!(shares[1], 6 * 22); // claims Q2
        assert_eq!(by_kind(2, 16), 6 * 14); // 14 narrow Q5' tiles
        assert_eq!(shares[16], 6 * 10); // claims Q3
        assert_eq!(by_kind(17, 25), 6 * 8); // 8 wide Q5' tiles
                                            // One window per card: each tile is issued once per deck.
        assert!(shares[2..16].iter().chain(&shares[17..25]).all(|&n| n == 6));
        assert_ne!(sched, w.open_schedule(0, Duration::from_secs(20)));
    }

    #[test]
    fn writer_visits_every_group_once_per_round_and_households_share_a_group() {
        let w = Workload::generate(Kind::HtapMix, 1);
        let mut firsts: Vec<i64> = (0..GROUPS as u64)
            .map(|t| {
                let range = w.txn_patients(t);
                assert_eq!(range.end - range.start, TXN_ROWS as i64);
                assert!(range.start >= 1 && range.end - 1 <= SEED_CLAIMS as i64);
                range.start
            })
            .collect();
        firsts.sort();
        firsts.dedup();
        assert_eq!(firsts.len(), GROUPS);
        assert_eq!(w.txn_patients(3), w.txn_patients(3 + GROUPS as u64));
        for def in &w.defs {
            if let JobDef::Household(a) = def {
                let group = |p: i64| (p - 1) / TXN_ROWS as i64;
                assert_eq!(group(*a), group(a + 1));
            }
        }
        assert_eq!(w.sample_patients(16).len(), 16);
    }
}
