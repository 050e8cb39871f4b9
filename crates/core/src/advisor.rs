//! Adaptive structure maintenance (§ V-B).
//!
//! "We should care about data processing performance and loading
//! performance to decide what structures to build … structure maintenance
//! should be adaptive to workload changes and future workloads."
//!
//! [`WorkloadTracker`] records which `(file, attribute)` pairs queries
//! predicate on (and whether as points or ranges); [`StructureAdvisor`]
//! turns the counters into ranked [`Recommendation`]s — skipping
//! already-built structures and weighing the build cost (file size)
//! against observed demand. The advisor only recommends: a caller builds a
//! recommended [`IndexSpec`] like any other structure, through
//! `HarborScheduler::ensure_index` (background, build-once) or
//! `IndexBuilder::build` (synchronous).

use parking_lot::Mutex;
use rede_common::FxHashMap;
use rede_storage::{IndexSpec, SimCluster};
use std::sync::Arc;

/// How a predicate addressed an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Equality / key probe.
    Point,
    /// Range probe.
    Range,
}

/// One observed predicate target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// Heap file the predicate applies to.
    pub file: String,
    /// Attribute name (by convention the index would be named
    /// `"<file>.<attribute>"`).
    pub attribute: String,
    /// Point or range.
    pub kind: PatternKind,
}

/// Thread-safe counter of predicate occurrences. Cheap to clone.
#[derive(Clone, Default)]
pub struct WorkloadTracker {
    counts: Arc<Mutex<FxHashMap<AccessPattern, u64>>>,
}

impl WorkloadTracker {
    /// Fresh tracker.
    pub fn new() -> WorkloadTracker {
        WorkloadTracker::default()
    }

    /// Record one predicate occurrence.
    pub fn record(&self, file: &str, attribute: &str, kind: PatternKind) {
        let pattern = AccessPattern {
            file: file.to_string(),
            attribute: attribute.to_string(),
            kind,
        };
        *self.counts.lock().entry(pattern).or_insert(0) += 1;
    }

    /// Times a pattern was seen.
    pub fn count(&self, file: &str, attribute: &str, kind: PatternKind) -> u64 {
        let pattern = AccessPattern {
            file: file.to_string(),
            attribute: attribute.to_string(),
            kind,
        };
        self.counts.lock().get(&pattern).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, most frequent first.
    pub fn hottest(&self) -> Vec<(AccessPattern, u64)> {
        let mut v: Vec<(AccessPattern, u64)> = self
            .counts
            .lock()
            .iter()
            .map(|(p, c)| (p.clone(), *c))
            .collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.attribute.cmp(&b.0.attribute))
        });
        v
    }

    /// Discard all observations (e.g. after a workload shift).
    pub fn reset(&self) {
        self.counts.lock().clear();
    }
}

/// A ranked index suggestion.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The index to build. Named `"<file>.<attribute>"`.
    pub spec: IndexSpec,
    /// Observed predicate count driving the suggestion.
    pub demand: u64,
    /// Records that must be scanned to build it (the loading-overhead side
    /// of the paper's trade-off).
    pub build_cost_records: u64,
    /// demand / build-cost ratio used for ranking.
    pub score: f64,
}

/// Advisor configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Ignore patterns seen fewer times than this.
    pub min_demand: u64,
    /// Recommend at most this many structures per round.
    pub max_recommendations: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            min_demand: 3,
            max_recommendations: 4,
        }
    }
}

/// Turns workload observations into build decisions.
pub struct StructureAdvisor {
    cluster: SimCluster,
    tracker: WorkloadTracker,
    config: AdvisorConfig,
}

impl StructureAdvisor {
    /// Advisor over a cluster and a tracker.
    pub fn new(cluster: SimCluster, tracker: WorkloadTracker, config: AdvisorConfig) -> Self {
        StructureAdvisor {
            cluster,
            tracker,
            config,
        }
    }

    /// The tracker being observed.
    pub fn tracker(&self) -> &WorkloadTracker {
        &self.tracker
    }

    /// Rank missing structures by demand per build cost. Point-dominated
    /// patterns get global (key-partitioned) indexes; range-dominated ones
    /// get local indexes (range probes consult all partitions either way,
    /// and local placement keeps entries next to their records).
    pub fn recommend(&self) -> Vec<Recommendation> {
        // Merge point/range counts per (file, attribute).
        let mut merged: FxHashMap<(String, String), (u64, u64)> = FxHashMap::default();
        for (pattern, count) in self.tracker.hottest() {
            let slot = merged
                .entry((pattern.file, pattern.attribute))
                .or_insert((0, 0));
            match pattern.kind {
                PatternKind::Point => slot.0 += count,
                PatternKind::Range => slot.1 += count,
            }
        }
        let mut out = Vec::new();
        for ((file, attribute), (points, ranges)) in merged {
            let demand = points + ranges;
            if demand < self.config.min_demand {
                continue;
            }
            let name = format!("{file}.{attribute}");
            if self.cluster.index(&name).is_ok() {
                continue; // structure already exists
            }
            let Ok(base) = self.cluster.file(&file) else {
                continue; // pattern references an unknown file
            };
            let build_cost = base.len() as u64;
            let spec = if points >= ranges {
                IndexSpec::global(name, file, base.partitions())
            } else {
                IndexSpec::local(name, file, base.partitions())
            };
            out.push(Recommendation {
                spec,
                demand,
                build_cost_records: build_cost,
                score: demand as f64 / (build_cost.max(1) as f64).sqrt(),
            });
        }
        out.sort_by(|a, b| b.score.total_cmp(&a.score));
        out.truncate(self.config.max_recommendations);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::IndexBuilder;
    use crate::prebuilt::{DelimitedInterpreter, FieldType};
    use crate::scheduler::{EnsureOutcome, HarborScheduler};
    use rede_common::Value;
    use rede_storage::{FileSpec, Partitioning, Record};

    fn cluster() -> SimCluster {
        let c = SimCluster::builder().nodes(2).build().unwrap();
        for (name, rows) in [("orders", 1_000i64), ("tiny", 10)] {
            let f = c
                .create_file(FileSpec::new(name, Partitioning::hash(4)))
                .unwrap();
            for i in 0..rows {
                f.insert(Value::Int(i), Record::from_text(&format!("{i}|{}", i % 9)))
                    .unwrap();
            }
        }
        c
    }

    #[test]
    fn tracker_counts_and_ranks() {
        let t = WorkloadTracker::new();
        for _ in 0..5 {
            t.record("orders", "o_orderdate", PatternKind::Range);
        }
        t.record("orders", "o_custkey", PatternKind::Point);
        assert_eq!(t.count("orders", "o_orderdate", PatternKind::Range), 5);
        assert_eq!(t.count("orders", "o_custkey", PatternKind::Point), 1);
        assert_eq!(t.hottest()[0].0.attribute, "o_orderdate");
        t.reset();
        assert!(t.hottest().is_empty());
    }

    #[test]
    fn recommends_above_threshold_only() {
        let c = cluster();
        let t = WorkloadTracker::new();
        for _ in 0..10 {
            t.record("orders", "grp", PatternKind::Point);
        }
        t.record("orders", "rare", PatternKind::Point); // below min_demand
        let advisor = StructureAdvisor::new(c, t, AdvisorConfig::default());
        let recs = advisor.recommend();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].spec.name, "orders.grp");
        assert_eq!(recs[0].demand, 10);
        assert_eq!(recs[0].build_cost_records, 1_000);
    }

    #[test]
    fn point_dominated_gets_global_range_dominated_gets_local() {
        let c = cluster();
        let t = WorkloadTracker::new();
        for _ in 0..5 {
            t.record("orders", "pointy", PatternKind::Point);
            t.record("orders", "rangey", PatternKind::Range);
        }
        let advisor = StructureAdvisor::new(c, t, AdvisorConfig::default());
        let recs = advisor.recommend();
        let by_name: FxHashMap<&str, &Recommendation> =
            recs.iter().map(|r| (r.spec.name.as_str(), r)).collect();
        assert!(matches!(
            by_name["orders.pointy"].spec.locality,
            rede_storage::IndexLocality::Global
        ));
        assert!(matches!(
            by_name["orders.rangey"].spec.locality,
            rede_storage::IndexLocality::Local
        ));
    }

    #[test]
    fn existing_indexes_and_unknown_files_are_skipped() {
        let c = cluster();
        // Pre-build orders.grp.
        IndexBuilder::new(
            c.clone(),
            IndexSpec::global("orders.grp", "orders", 4),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        )
        .build()
        .unwrap();
        let t = WorkloadTracker::new();
        for _ in 0..10 {
            t.record("orders", "grp", PatternKind::Point);
            t.record("ghost_file", "x", PatternKind::Point);
        }
        let advisor = StructureAdvisor::new(c, t, AdvisorConfig::default());
        assert!(advisor.recommend().is_empty());
    }

    #[test]
    fn a_recommendation_builds_through_ensure_index() {
        let c = cluster();
        let t = WorkloadTracker::new();
        for _ in 0..10 {
            t.record("orders", "grp", PatternKind::Point);
        }
        let advisor = StructureAdvisor::new(c.clone(), t, AdvisorConfig::default());
        let recs = advisor.recommend();
        let builder = IndexBuilder::new(
            c.clone(),
            recs[0].spec.clone(),
            Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
        );
        let sched = HarborScheduler::with_defaults(c.clone());
        let Ok(EnsureOutcome::Built(report)) = sched.ensure_index(builder).wait() else {
            panic!("a recommended index must build");
        };
        assert_eq!(report.entries, 1_000);
        let ix = c.index("orders.grp").unwrap();
        let expected = (0..1_000).filter(|i| i % 9 == 3).count();
        assert_eq!(ix.lookup(&Value::Int(3), 0).unwrap().len(), expected);
        // A second round no longer recommends it.
        assert!(advisor.recommend().is_empty());
    }

    #[test]
    fn demand_per_cost_ranking_prefers_cheap_hot_structures() {
        let c = cluster();
        let t = WorkloadTracker::new();
        for _ in 0..5 {
            t.record("orders", "big", PatternKind::Point); // 1000-row build
            t.record("tiny", "small", PatternKind::Point); // 10-row build
        }
        let advisor = StructureAdvisor::new(c, t, AdvisorConfig::default());
        let recs = advisor.recommend();
        assert_eq!(
            recs[0].spec.name, "tiny.small",
            "same demand, cheaper build first"
        );
    }
}
