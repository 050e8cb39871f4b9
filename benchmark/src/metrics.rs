//! The metrics this benchmark declares, by name, unit and direction —
//! the same lists `BENCHMARK.json` carries (a test keeps them equal) —
//! and the report that prints them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; printed by `--trace 0`, gated by the
/// bounds in `BENCHMARK.json`.
pub const END_TO_END: &[Decl] = &[
    lo("setup_s", "s"),
    hi("goodput_jobs_per_s", "jobs/s"),
    lo("job_p50_ms", "ms"),
    lo("job_p95_ms", "ms"),
    hi("within_limit_frac", "frac"),
    lo("accesses_per_job", "count"),
    lo("peak_rss_mb", "MB"),
];

/// One layer each; printed by `--trace 1`, not gated. README.md maps each
/// to the end-to-end metric it should move, on which workload.
pub const PER_LAYER: &[Decl] = &[
    lo("tpch.load_s", "s"),
    lo("claims.load_s", "s"),
    lo("core.maintenance.index_build_s", "s"),
    lo("core.maintenance.structure_bytes_per_data_byte", "ratio"),
    lo("storage.buffer.resident_mb", "MB"),
    lo("core.gate.open_cursor_us_p50", "us"),
    lo("core.gate.first_page_ms_p50", "ms"),
    lo("core.gate.fetch_us_p50", "us"),
    lo("core.gate.fetches_per_job", "count"),
    lo("core.gate.overhead_ms_p50", "ms"),
    lo("core.gate.shed_frac", "frac"),
    lo("core.gate.cursor_stalls_per_job", "count"),
    lo("core.gate.lost_tail_retries", "count"),
    lo("core.scheduler.submit_us_p50", "us"),
    lo("core.scheduler.job_ms_p50", "ms"),
    lo("core.scheduler.queue_depth_max", "count"),
    lo("core.scheduler.rejected_jobs", "count"),
    lo("core.scheduler.catchup_passes_per_commit", "count"),
    hi("core.scheduler.catchup_coalesced_frac", "frac"),
    lo("core.exec.tasks_per_job", "count"),
    lo("core.exec.queue_hops_per_job", "count"),
    lo("core.exec.pool_spawn_frac", "frac"),
    hi("core.exec.peak_in_flight", "count"),
    hi("core.exec.mean_batch_size", "count"),
    lo("core.exec.batches_per_job", "count"),
    lo("core.exec.job_wall_ms_p50", "ms"),
    lo("core.exec.modeled_ms_per_job", "ms"),
    lo("core.exec.wall_over_modeled", "ratio"),
    lo("core.exec.cpu_ms_per_job", "ms"),
    lo("core.exec.partitioned_job_ms", "ms"),
    lo("storage.cluster.resolve_us_p50", "us"),
    lo("storage.cluster.resolve_overhead_us", "us"),
    lo("storage.cluster.resolve_batch_us_per_ptr", "us"),
    hi("storage.cluster.local_frac", "frac"),
    lo("storage.cluster.remote_rtts_per_job", "count"),
    lo("storage.cluster.point_reads_per_job", "count"),
    lo("storage.cluster.index_lookups_per_job", "count"),
    lo("storage.btree_file.lookup_us_p50", "us"),
    lo("storage.btree_file.probe_ns_p50", "ns"),
    lo("storage.btree_file.entries_read_per_lookup", "count"),
    lo("storage.heap_file.read_ns_p50", "ns"),
    lo("storage.buffer.page_faults_per_job", "count"),
    lo("storage.buffer.evictions_per_job", "count"),
    lo("storage.buffer.fault_frac", "frac"),
    lo("storage.buffer.pinned_peak_kb", "kB"),
    lo("storage.buffer.budget_used_frac", "frac"),
    hi("storage.cache.hit_frac", "frac"),
    hi("storage.fabric.completions_per_job", "count"),
    lo("storage.fabric.window_stalls_per_job", "count"),
    hi("storage.fabric.inflight_peak", "count"),
    lo("storage.wal.fsyncs_per_commit", "count"),
    lo("storage.wal.appends_per_commit", "count"),
    lo("storage.wal.bytes_per_user_byte", "ratio"),
    lo("storage.wal.recover_s", "s"),
    lo("core.txn.commit_p50_ms", "ms"),
    lo("core.txn.commit_p95_ms", "ms"),
    lo("core.txn.commit_call_ms_p50", "ms"),
    lo("core.txn.snapshot_pin_ns_p50", "ns"),
    lo("core.txn.writer_late_ms_p95", "ms"),
    lo("baseline.engine.q5_job_ms", "ms"),
    hi("baseline.speedup_smpe_vs_scan", "ratio"),
    lo("harness.gen_late_ms_p95", "ms"),
    lo("harness.trace_overhead_frac", "frac"),
    lo("harness.job_self_us_p50", "us"),
    hi("harness.spans_recorded", "count"),
];

/// One run's result: every declared metric of the requested list, once.
pub struct Report {
    pub workload: &'static str,
    declared: &'static [Decl],
    values: Vec<Option<f64>>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<String>,
    /// Why the run is not correct (empty = correct).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str, declared: &'static [Decl]) -> Report {
        Report {
            workload,
            declared,
            values: vec![None; declared.len()],
            notes: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a metric. Panics on an undeclared name, a second value, or
    /// a non-finite one: each is a bug in this harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values[i].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Human-readable lines first, then — last — the one-line JSON object
    /// the driver reads.
    pub fn print(&self) {
        for note in &self.notes {
            println!("[{}] # {note}", self.workload);
        }
        for problem in &self.problems {
            println!("[{}] INCORRECT: {problem}", self.workload);
        }
        let mut json = Vec::new();
        for (decl, value) in self.declared.iter().zip(&self.values) {
            let value = value.unwrap_or_else(|| panic!("metric {} was never set", decl.name));
            println!(
                "[{}] {} = {value} {} ({} is better)",
                self.workload,
                decl.name,
                decl.unit,
                decl.better.as_str()
            );
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                decl.name, decl.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for decl in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(decl.name), "{} declared twice", decl.name);
            assert!(decl.name.len() <= 64);
            assert!(decl
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!decl.unit.is_empty() && decl.unit.len() <= 16);
            assert!(decl
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Report::new("w", END_TO_END).set("nope", 1.0);
    }
}
