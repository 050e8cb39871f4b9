//! harborbench — end-to-end + per-layer benchmark of the LakeHarbor/ReDe
//! stack, driven from outside through `pub` items only.
//!
//! ```text
//! harborbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! harborbench --smoke [--workload <name>] [--seed <n>] [--out <dir>]
//! harborbench --describe --workload <name> --seed <n>
//! ```
//!
//! One run: timed set-up (median of several in-process builds, the last
//! one kept) → un-timed reference answers → warm-up → measured passes →
//! leak and durability checks. `--trace 0` measures with tracing off and
//! prints the end-to-end metrics; `--trace 1` splits the same seconds
//! into an untraced pass, a traced pass, a paired gate-vs-scheduler probe
//! and single-threaded layer probes, prints the per-layer metrics and
//! writes the spans to `<out>/trace-<workload>.jsonl`. The last line of
//! standard output is one JSON object for the driver. See README.md.

mod checks;
mod drive;
mod fixture;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use drive::{Pass, PassId, Sample};
use fixture::{Fixture, SetupTimes, NODES};
use metrics::{Report, END_TO_END, PER_LAYER};
use rede_common::{MetricsSnapshot, RedeError, Result};
use rede_storage::CostModel;
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::Duration;
use trace::{Span, TraceClock};
use workloads::{Kind, Workload};

/// Run-shape knobs; only `--smoke` departs from [`Shape::full`].
#[derive(Debug, Clone, Copy)]
struct Shape {
    scale_factor: f64,
    io_scale: f64,
    /// In-process set-ups; `setup_s` is their median.
    setup_reps: usize,
    warmup: Duration,
    /// Probes per layer in the traced run.
    probes: usize,
    /// Accept percentiles with thin tails (smoke runs are too short).
    thin_tails: bool,
}

impl Shape {
    fn full() -> Shape {
        Shape {
            scale_factor: fixture::SCALE_FACTOR,
            io_scale: fixture::IO_SCALE,
            setup_reps: 5,
            warmup: Duration::from_secs(2),
            probes: 1000,
            thin_tails: false,
        }
    }

    fn smoke() -> Shape {
        Shape {
            scale_factor: 0.001,
            io_scale: 0.1,
            setup_reps: 1,
            warmup: Duration::from_millis(200),
            probes: 50,
            thin_tails: true,
        }
    }
}

fn too_short(what: &str, n: usize) -> RedeError {
    RedeError::Config(format!(
        "{what}: {n} samples leave fewer than {} beyond the percentile; run longer",
        stats::MIN_BEYOND
    ))
}

/// A percentile of an unsorted sample, refused on a thin tail unless the
/// shape allows it (then the largest sample stands in).
fn pctl(shape: &Shape, what: &str, values: &[f64], p: f64) -> Result<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match percentile(&sorted, p) {
        Some(v) => Ok(v),
        None if shape.thin_tails || sorted.is_empty() => Ok(sorted.last().copied().unwrap_or(0.0)),
        None => Err(too_short(what, sorted.len())),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set up `reps` times in this process, keep the last fixture, and report
/// each step's median.
fn set_up(kind: Kind, shape: &Shape) -> Result<(Fixture, SetupTimes)> {
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut fixture = None;
    for _ in 0..shape.setup_reps {
        drop(fixture.take()); // one fixture resident at a time
        let built = fixture::build(kind, shape.scale_factor, shape.io_scale)?;
        times.push(built.times);
        fixture = Some(built);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let medians = SetupTimes {
        total_s: med(|t| t.total_s),
        tpch_load_s: med(|t| t.tpch_load_s),
        claims_load_s: med(|t| t.claims_load_s),
        index_build_s: med(|t| t.index_build_s),
    };
    Ok((fixture.expect("setup_reps >= 1"), medians))
}

/// Logical record accesses: point reads wherever they were served plus
/// index lookups. Cache hits count, so the number does not depend on
/// eviction order.
fn logical_accesses(d: &MetricsSnapshot) -> u64 {
    d.local_point_reads + d.remote_point_reads + d.cache_hits + d.index_lookups
}

fn note_pass(report: &mut Report, name: &str, pass: &Pass) {
    report.notes.push(format!(
        "{name}: {} jobs attempted, {} verified, {} shed, wall {:.3} s ({:.2} jobs/s overall, {} cycles)",
        pass.attempted(),
        pass.verified(),
        pass.shed,
        pass.wall.as_secs_f64(),
        pass.verified() as f64 / pass.wall.as_secs_f64(),
        pass.cycle_rates.len()
    ));
    report.attempted += pass.attempted() + pass.writer.as_ref().map_or(0, |w| w.commits);
    report.failed += pass.failed();
    report.problems.extend(pass.errors.iter().take(3).cloned());
    if pass.lost_tails > 0 {
        report.notes.push(format!(
            "{name}: {} jobs got a truncated answer (HarborGate::fetch done-page race, see README) \
             and verified on retry",
            pass.lost_tails
        ));
    }
    if pass.lost_tails > drive::lost_tail_limit(pass.attempted()) {
        report.problems.push(format!(
            "{name}: {} of {} jobs needed a retry to get a right answer",
            pass.lost_tails,
            pass.attempted()
        ));
    }
}

/// A timing metric as the median of its value on each third of the
/// measured pass. This box is shared: a stall of a second or two lands in
/// one third and moves that third's tail, not the reported number, while
/// a change to the program moves all three. When a third is too thin for
/// the metric (a slow run), the whole pass is used instead.
fn median_of_thirds(samples: &[Sample], f: impl Fn(&[Sample]) -> Result<f64>) -> Result<f64> {
    let third = samples.len().div_ceil(3).max(1);
    match samples.chunks(third).map(&f).collect::<Result<Vec<f64>>>() {
        Ok(values) => Ok(median(&values)),
        Err(_) => f(samples),
    }
}

fn end_to_end(
    report: &mut Report,
    shape: &Shape,
    setup: &SetupTimes,
    limit: Duration,
    pass: &Pass,
) -> Result<()> {
    let limit_ms = limit.as_secs_f64() * 1e3;
    let latencies = |chunk: &[Sample]| -> Vec<f64> {
        chunk
            .iter()
            .filter(|s| s.verified)
            .map(|s| s.latency_ms)
            .collect()
    };
    report.set("setup_s", setup.total_s);
    report.set("goodput_jobs_per_s", pass.goodput());
    for (name, p) in [("job_p50_ms", 0.50), ("job_p95_ms", 0.95)] {
        let value = median_of_thirds(&pass.samples, |chunk| {
            pctl(shape, name, &latencies(chunk), p)
        })?;
        report.set(name, value);
    }
    // Failed, shed and wrong answers count as missing the limit.
    report.set(
        "within_limit_frac",
        median_of_thirds(&pass.samples, |chunk| {
            let within = chunk
                .iter()
                .filter(|s| s.verified && s.latency_ms <= limit_ms);
            Ok(within.count() as f64 / chunk.len() as f64)
        })?,
    );
    report.set(
        "accesses_per_job",
        logical_accesses(&pass.delta) as f64 / pass.verified().max(1) as f64,
    );
    report.set("peak_rss_mb", stats::peak_rss_mb());
    Ok(())
}

fn span_micros(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Per job: root span start → end of its first `gate.fetch`, in ms.
fn first_page_ms(spans: &[Span]) -> Vec<f64> {
    let mut first: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.name == "gate.fetch") {
        let e = first.entry(s.parent).or_insert(u64::MAX);
        *e = (*e).min(s.end_ns);
    }
    spans
        .iter()
        .filter(|s| s.name == "job")
        .filter_map(|root| {
            first
                .get(&root.id)
                .map(|end| (end - root.start_ns) as f64 / 1e6)
        })
        .collect()
}

struct Traced<'a> {
    setup: &'a SetupTimes,
    untraced: &'a Pass,
    traced: &'a Pass,
    paired: &'a drive::Paired,
    probes: &'a probes::Probes,
    fig7: &'a probes::Fig7Row,
    recover_s: f64,
    spans: &'a [Span],
}

fn per_layer(report: &mut Report, shape: &Shape, fixture: &Fixture, t: &Traced) -> Result<()> {
    let b = t.traced;
    let d = &b.delta;
    let jobs = b.verified().max(1) as f64;
    let per_job = |count: u64| count as f64 / jobs;

    // Set-up.
    report.set("tpch.load_s", t.setup.tpch_load_s);
    report.set("claims.load_s", t.setup.claims_load_s);
    report.set("core.maintenance.index_build_s", t.setup.index_build_s);
    report.set(
        "core.maintenance.structure_bytes_per_data_byte",
        fixture::structure_bytes_per_data_byte(&fixture.cluster),
    );
    let pool = fixture.cluster.buffer_stats();
    report.set(
        "storage.buffer.resident_mb",
        pool.resident_bytes as f64 / (1 << 20) as f64,
    );

    // Gate, from the spans around its calls.
    let fetches = span_micros(&b.spans, "gate.fetch");
    report.set(
        "core.gate.open_cursor_us_p50",
        median(&span_micros(&b.spans, "gate.open_cursor")),
    );
    report.set(
        "core.gate.first_page_ms_p50",
        median(&first_page_ms(&b.spans)),
    );
    report.set("core.gate.fetch_us_p50", median(&fetches));
    report.set("core.gate.fetches_per_job", fetches.len() as f64 / jobs);
    report.set(
        "core.gate.overhead_ms_p50",
        median(&t.paired.gate_ms) - median(&t.paired.direct_ms),
    );
    report.set(
        "core.gate.shed_frac",
        ratio(b.shed as f64, b.attempted() as f64),
    );
    report.set("core.gate.cursor_stalls_per_job", per_job(d.cursor_stalls));
    report.set("core.gate.lost_tail_retries", b.lost_tails as f64);

    // Scheduler.
    let commits = b.writer.as_ref().map_or(0, |w| w.commits) as f64;
    let (passes, coalesced) = (b.catchup_passes as f64, b.catchup_coalesced as f64);
    report.set("core.scheduler.submit_us_p50", median(&t.paired.submit_us));
    report.set("core.scheduler.job_ms_p50", median(&t.paired.direct_ms));
    report.set("core.scheduler.queue_depth_max", b.queue_depth_max as f64);
    report.set("core.scheduler.rejected_jobs", b.rejected_jobs as f64);
    report.set(
        "core.scheduler.catchup_passes_per_commit",
        ratio(passes, commits),
    );
    report.set(
        "core.scheduler.catchup_coalesced_frac",
        ratio(coalesced, passes + coalesced),
    );

    // Executor: counters from the traced pass, per-job profiles and the
    // modeled floor from the paired probe's direct jobs.
    let io = fixture.cluster.io_model();
    let model = CostModel {
        nodes: NODES,
        point_concurrency_per_node: fixture.gate.scheduler().config().pool_threads / NODES,
        scan_streams_per_node: 1,
    };
    let modeled_ms: Vec<f64> = t
        .paired
        .metrics
        .iter()
        .map(|m| model.model(io, m).total_secs() * 1e3)
        .collect();
    let direct = modeled_ms.len().max(1) as f64;
    let pool_spawns: u64 = t.paired.profiles.iter().map(|p| p.pool_spawns).sum();
    let inline_runs: u64 = t.paired.profiles.iter().map(|p| p.inline_runs).sum();
    report.set("core.exec.tasks_per_job", per_job(d.tasks_spawned));
    report.set("core.exec.queue_hops_per_job", per_job(d.queue_hops));
    report.set(
        "core.exec.pool_spawn_frac",
        ratio(pool_spawns as f64, (pool_spawns + inline_runs) as f64),
    );
    report.set(
        "core.exec.peak_in_flight",
        t.paired
            .profiles
            .iter()
            .map(|p| p.peak_in_flight)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set(
        "core.exec.mean_batch_size",
        ratio(d.batched_reads as f64, d.batches_issued as f64),
    );
    report.set("core.exec.batches_per_job", per_job(d.batches_issued));
    report.set("core.exec.job_wall_ms_p50", median(&t.paired.exec_wall_ms));
    report.set(
        "core.exec.modeled_ms_per_job",
        modeled_ms.iter().sum::<f64>() / direct,
    );
    report.set(
        "core.exec.wall_over_modeled",
        ratio(t.paired.exec_wall_ms.iter().sum(), modeled_ms.iter().sum()),
    );
    report.set("core.exec.cpu_ms_per_job", b.cpu.as_secs_f64() * 1e3 / jobs);
    report.set("core.exec.partitioned_job_ms", t.fig7.partitioned_ms);

    // Cluster.
    let point_reads = d.local_point_reads + d.remote_point_reads;
    report.set("storage.cluster.resolve_us_p50", t.probes.resolve_us_p50);
    report.set(
        "storage.cluster.resolve_overhead_us",
        t.probes.resolve_overhead_us,
    );
    report.set(
        "storage.cluster.resolve_batch_us_per_ptr",
        t.probes.resolve_batch_us_per_ptr,
    );
    report.set(
        "storage.cluster.local_frac",
        ratio(d.local_point_reads as f64, point_reads as f64),
    );
    report.set(
        "storage.cluster.remote_rtts_per_job",
        per_job(d.remote_rtts),
    );
    report.set("storage.cluster.point_reads_per_job", per_job(point_reads));
    report.set(
        "storage.cluster.index_lookups_per_job",
        per_job(d.index_lookups),
    );

    // B+-tree and heap files.
    report.set(
        "storage.btree_file.lookup_us_p50",
        t.probes.btree_lookup_us_p50,
    );
    report.set(
        "storage.btree_file.probe_ns_p50",
        t.probes.btree_probe_ns_p50,
    );
    report.set(
        "storage.btree_file.entries_read_per_lookup",
        ratio(d.index_entries_read as f64, d.index_lookups as f64),
    );
    report.set("storage.heap_file.read_ns_p50", t.probes.heap_read_ns_p50);

    // Buffer pool and record cache.
    report.set("storage.buffer.page_faults_per_job", per_job(d.page_faults));
    report.set(
        "storage.buffer.evictions_per_job",
        per_job(d.page_evictions),
    );
    report.set(
        "storage.buffer.fault_frac",
        ratio(d.page_faults as f64, (point_reads + d.index_lookups) as f64),
    );
    report.set(
        "storage.buffer.pinned_peak_kb",
        pool.pinned_peak_bytes as f64 / 1024.0,
    );
    let bounded = pool.budget_total > 0 && pool.budget_total < usize::MAX / 2;
    report.set(
        "storage.buffer.budget_used_frac",
        if bounded {
            pool.budget_used as f64 / pool.budget_total as f64
        } else {
            0.0
        },
    );
    report.set(
        "storage.cache.hit_frac",
        ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
    );

    // Fabric (off by default: zero until a default changes).
    report.set(
        "storage.fabric.completions_per_job",
        per_job(d.fabric_completions),
    );
    report.set(
        "storage.fabric.window_stalls_per_job",
        per_job(d.window_stalls),
    );
    report.set("storage.fabric.inflight_peak", d.inflight_peak as f64);

    // WAL and transactions.
    let w = b.writer.clone().unwrap_or_default();
    report.set(
        "storage.wal.fsyncs_per_commit",
        ratio(w.fsyncs as f64, commits),
    );
    report.set(
        "storage.wal.appends_per_commit",
        ratio(d.wal_appends as f64, commits),
    );
    report.set(
        "storage.wal.bytes_per_user_byte",
        ratio(d.wal_bytes as f64, w.user_bytes as f64),
    );
    report.set("storage.wal.recover_s", t.recover_s);
    report.set("core.txn.commit_p50_ms", median(&w.commit_ms));
    report.set(
        "core.txn.commit_p95_ms",
        pctl(shape, "core.txn.commit_p95_ms", &w.commit_ms, 0.95)?,
    );
    report.set("core.txn.commit_call_ms_p50", median(&w.call_ms));
    report.set("core.txn.snapshot_pin_ns_p50", t.probes.snapshot_pin_ns_p50);
    report.set(
        "core.txn.writer_late_ms_p95",
        pctl(shape, "core.txn.writer_late_ms_p95", &w.late_ms, 0.95)?,
    );

    // Fig. 7's headline ratio on this workload's first Q5' job.
    report.set("baseline.engine.q5_job_ms", t.fig7.engine_ms);
    report.set(
        "baseline.speedup_smpe_vs_scan",
        ratio(t.fig7.engine_ms, t.fig7.smpe_ms),
    );

    // The harness itself.
    // Means, not medians: the untraced halves sit before and after the
    // traced pass, and only a mean of the two halves equals the mean of
    // the middle under a steady drift.
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (mean_off, mean_on) = (mean(t.untraced.latencies_ms()), mean(b.latencies_ms()));
    let job_self_us: Vec<f64> = {
        let roots: std::collections::HashSet<u64> = b
            .spans
            .iter()
            .filter(|s| s.name == "job")
            .map(|s| s.id)
            .collect();
        trace::self_times(&b.spans)
            .into_iter()
            .filter(|(id, _)| roots.contains(id))
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    };
    report.set(
        "harness.gen_late_ms_p95",
        pctl(shape, "harness.gen_late_ms_p95", &b.late_ms, 0.95)?,
    );
    report.set(
        "harness.trace_overhead_frac",
        ratio(mean_on - mean_off, mean_off),
    );
    report.set("harness.job_self_us_p50", median(&job_self_us));
    report.set("harness.spans_recorded", t.spans.len() as f64);
    Ok(())
}

/// One complete run of one workload.
fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    shape: &Shape,
    out_dir: &Path,
) -> Result<Report> {
    let started = std::time::Instant::now();
    let workload = Workload::generate(kind, seed);
    let declared = if traced { PER_LAYER } else { END_TO_END };
    let mut report = Report::new(kind.name(), declared);

    let (fixture, setup) = set_up(kind, shape)?;
    let specs = drive::reference(&fixture, &workload)?;
    let permits_at_rest = fixture.cluster.available_iops_permits();
    let next_txn = AtomicU64::new(0);
    let window = |share: f64| Duration::from_secs_f64(seconds * share);
    let pass = |id: u64, window: Duration, clock: Option<&TraceClock>| {
        drive::run_pass(
            &fixture,
            &specs,
            &workload,
            &next_txn,
            PassId(id),
            window,
            clock,
        )
    };

    let warm = pass(0, shape.warmup, None);
    if warm.failed() > 0 {
        report
            .problems
            .push(format!("{} warm-up operations failed", warm.failed()));
        report.problems.extend(warm.errors.iter().take(3).cloned());
    }

    // Durability check, where there is a write path; seconds it took.
    let recovered = || match fixture.mgr {
        Some(_) => checks::wal_recovers(&fixture, &workload),
        None => Ok(0.0),
    };
    let recover_s;
    if traced {
        // Half the untraced seconds before the traced pass and half
        // after it, so drift over the run (histories grow under ingest)
        // cancels out of the tracing-overhead comparison.
        let mut untraced = pass(1, window(0.125), None);
        let clock = TraceClock::new();
        let traced_pass = pass(2, window(0.5), Some(&clock));
        untraced.absorb(pass(4, window(0.125), None));
        let paired = drive::run_paired(
            &fixture,
            &specs,
            &workload,
            &next_txn,
            PassId(3),
            window(0.25),
            &clock,
        );
        let probed = probes::run(&fixture, seed, shape.probes, &clock)?;
        let fig7 = probes::fig7_row(&fixture, &workload, &specs)?;
        recover_s = recovered()?;

        let mut spans = traced_pass.spans.clone();
        spans.extend(paired.spans.iter().cloned());
        spans.extend(probed.spans.iter().cloned());
        if let Err(why) = trace::check_nesting(&spans) {
            report.problems.push(why);
        }
        let path = out_dir.join(format!("trace-{}.jsonl", kind.name()));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| RedeError::Exec(format!("write {}: {e}", path.display())))?;
        report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));

        note_pass(&mut report, "untraced pass", &untraced);
        note_pass(&mut report, "traced pass", &traced_pass);
        report.notes.push(format!(
            "paired probe: {} gate + {} direct jobs; {} probes per layer",
            paired.gate_ms.len(),
            paired.direct_ms.len(),
            shape.probes
        ));
        report.attempted += paired.attempted + paired.writer.as_ref().map_or(0, |w| w.commits);
        report.failed += paired.failed + paired.writer.as_ref().map_or(0, |w| w.failed);
        report
            .problems
            .extend(paired.errors.iter().take(3).cloned());
        per_layer(
            &mut report,
            shape,
            &fixture,
            &Traced {
                setup: &setup,
                untraced: &untraced,
                traced: &traced_pass,
                paired: &paired,
                probes: &probed,
                fig7: &fig7,
                recover_s,
                spans: &spans,
            },
        )?;
    } else {
        let measured = pass(1, window(1.0), None);
        note_pass(&mut report, "measured pass", &measured);
        report.notes.push(format!(
            "job latency percentiles: median over three thirds of {} samples each",
            measured.samples.len().div_ceil(3)
        ));
        end_to_end(&mut report, shape, &setup, kind.limit(), &measured)?;
        recover_s = recovered()?;
    }
    if fixture.mgr.is_some() {
        report
            .notes
            .push(format!("WAL recovery check passed in {recover_s:.3} s"));
    }
    match checks::nothing_leaked(&fixture, &permits_at_rest) {
        Ok(transient) => report.notes.extend(transient),
        Err(why) => report.problems.push(why.to_string()),
    }
    report.notes.push(format!(
        "whole run (set-up x{}, reference, warm-up, passes, checks) took {:.1} s",
        shape.setup_reps,
        started.elapsed().as_secs_f64()
    ));
    Ok(report)
}

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    describe: bool,
    out_dir: PathBuf,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        describe: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if (args.describe || !args.smoke) && args.workload.is_none() {
        return Err("--workload is required (except with --smoke)".into());
    }
    Ok(args)
}

/// A run that takes four times its expected length is stuck: fail loudly
/// instead of hanging the caller.
fn arm_watchdog(expected: Duration) {
    let limit = (expected * 4).min(Duration::from_secs(170));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("harborbench: exceeded {limit:?} (4x the expected run length); giving up");
        std::process::exit(3);
    });
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("harborbench: {why}");
            std::process::exit(2);
        }
    };
    if args.describe {
        let kind = args.workload.expect("checked by parse_args");
        print!("{}", Workload::generate(kind, args.seed).describe());
        return;
    }
    let runs: Vec<(Kind, bool, f64, Shape)> = if args.smoke {
        Kind::ALL
            .into_iter()
            .filter(|k| args.workload.is_none_or(|only| only == *k))
            .flat_map(|k| {
                [
                    (k, false, 1.0, Shape::smoke()),
                    (k, true, 1.0, Shape::smoke()),
                ]
            })
            .collect()
    } else {
        let kind = args.workload.expect("checked by parse_args");
        vec![(kind, args.traced, args.seconds, Shape::full())]
    };
    arm_watchdog(Duration::from_secs_f64(
        runs.iter().map(|r| r.2 + 12.0).sum::<f64>(),
    ));
    let mut all_correct = true;
    for (kind, traced, seconds, shape) in runs {
        match run(kind, args.seed, seconds, traced, &shape, &args.out_dir) {
            Ok(report) => {
                report.print();
                all_correct &= report.correct();
            }
            Err(why) => {
                eprintln!("harborbench: {}: {why}", kind.name());
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}
