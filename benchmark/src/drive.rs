//! The load generator: compiles the seeded job definitions, computes the
//! reference answers, and drives passes of the workload through the gate
//! (or, for the paired probe, through the scheduler directly), verifying
//! every answer as it arrives.

use crate::fixture::{claims_generator, txn_claims, Fixture, PAGE_ROWS};
use crate::stats::{process_cpu, Digest};
use crate::trace::{Recorder, Span, TraceClock};
use crate::workloads::{Arrivals, JobDef, Workload};
use rede_claims::analytics::names::CLAIMS_BY_PATIENT;
use rede_claims::lake::names::CLAIMS;
use rede_claims::queries::{rede_job as claims_job, QuerySpec};
use rede_claims::Claim;
use rede_common::{Date, ExecProfile, MetricsSnapshot, RedeError, Result, Value};
use rede_core::gate::{HarborGate, SessionId};
use rede_core::query::Query;
use rede_core::scheduler::SubmitOptions;
use rede_core::Job;
use rede_storage::Record;
use rede_tpch::gen::ORDERDATE_LO;
use rede_tpch::{q5_prime_job, Q5Params};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a correct answer to one job looks like.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// A read-only relation: row count and order-independent checksum
    /// from the un-timed reference run.
    Exact(Digest),
    /// Two patients of one write group under live ingest: every row
    /// belongs to `a` or `a + 1`, both hold at least their seeded claim,
    /// and — every transaction writing one claim for each — equally many.
    /// A cut that split a transaction would show them unequal.
    Household { a: i64 },
}

pub struct Spec {
    pub job: Job,
    pub check: Check,
}

pub fn q5_params(lo_day: i32, span_days: i32) -> Q5Params {
    let origin = Date::from_ymd(ORDERDATE_LO.0, ORDERDATE_LO.1, ORDERDATE_LO.2);
    Q5Params {
        region: "ASIA".to_string(),
        date_lo: origin.plus_days(lo_day),
        date_hi: origin.plus_days(lo_day + span_days - 1),
    }
}

fn compile(def: &JobDef) -> Result<Job> {
    match def {
        JobDef::Q5 { lo_day, span_days } => q5_prime_job(&q5_params(*lo_day, *span_days)),
        JobDef::Claims(i) => claims_job(&QuerySpec::all()[*i]),
        JobDef::Household(a) => Query::via_index(CLAIMS_BY_PATIENT)
            .keys(vec![Value::Int(*a), Value::Int(a + 1)])
            .named(format!("household-{a}"))
            .fetch(CLAIMS)
            .build()
            .compile(),
    }
}

/// Un-timed reference prep: compile every job definition and compute what
/// its answer must be. Read-only jobs run once, collected, four at a
/// time; household lookups are judged by their invariant instead.
pub fn reference(fixture: &Fixture, workload: &Workload) -> Result<Vec<Spec>> {
    let mut specs = Vec::with_capacity(workload.defs.len());
    for def in &workload.defs {
        let check = match def {
            JobDef::Household(a) => Check::Household { a: *a },
            _ => Check::Exact(Digest::default()),
        };
        specs.push(Spec {
            job: compile(def)?,
            check,
        });
    }
    let sched = fixture.gate.scheduler();
    let exact: Vec<usize> = (0..specs.len())
        .filter(|&i| matches!(specs[i].check, Check::Exact(_)))
        .collect();
    for chunk in exact.chunks(4) {
        let handles = chunk
            .iter()
            .map(|&i| sched.submit_with(&specs[i].job, SubmitOptions::new().collecting()))
            .collect::<Result<Vec<_>>>()?;
        for (&i, handle) in chunk.iter().zip(handles) {
            let mut digest = Digest::default();
            for record in &handle.wait()?.records {
                digest.add(record.bytes());
            }
            specs[i].check = Check::Exact(digest);
        }
    }
    let selects_rows = |s: &Spec| !matches!(s.check, Check::Exact(d) if d.rows == 0);
    if !specs.iter().any(selects_rows) {
        return Err(RedeError::Exec(
            "every reference answer is empty; empty jobs verify nothing".into(),
        ));
    }
    Ok(specs)
}

/// Accumulates one job's pages and judges them against its [`Check`].
struct Verifier<'a> {
    check: &'a Check,
    digest: Digest,
    /// Household checks: rows of patient `a`, and rows of neither member.
    rows_of_a: u64,
    foreign: u64,
}

impl<'a> Verifier<'a> {
    fn new(check: &'a Check) -> Verifier<'a> {
        Verifier {
            check,
            digest: Digest::default(),
            rows_of_a: 0,
            foreign: 0,
        }
    }

    fn page(&mut self, records: &[Record]) {
        for record in records {
            match self.check {
                Check::Exact(_) => self.digest.add(record.bytes()),
                Check::Household { a } => {
                    self.digest.rows += 1;
                    match Claim::parse(record).map(|c| c.patient_id) {
                        Ok(p) if p == *a => self.rows_of_a += 1,
                        Ok(p) if p == a + 1 => {}
                        _ => self.foreign += 1,
                    }
                }
            }
        }
    }

    fn verdict(&self) -> bool {
        match self.check {
            Check::Exact(d) => self.digest == *d,
            Check::Household { .. } => {
                self.foreign == 0 && self.rows_of_a >= 1 && self.digest.rows == 2 * self.rows_of_a
            }
        }
    }
}

/// Judge a result the scheduler only counted.
fn count_ok(check: &Check, rows: u64) -> bool {
    match check {
        Check::Exact(d) => rows == d.rows,
        Check::Household { .. } => rows >= 2 && rows.is_multiple_of(2),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    Verified,
    Shed,
    /// A wrong answer, with what to tell the user.
    Wrong(String),
    /// An error from the gate.
    Failed(String),
}

/// One attempt at a job through the front door: open a cursor, page to
/// the done page, verify. Child spans hang off `root`.
fn gate_attempt(
    gate: &HarborGate,
    session: SessionId,
    spec: &Spec,
    rec: &mut Recorder,
    root: u64,
    job_no: u64,
) -> Status {
    let cursor = match rec.span("gate.open_cursor", root, job_no, || {
        gate.open_cursor(session, &spec.job)
    }) {
        Ok(cursor) => cursor,
        Err(RedeError::Overloaded(_)) => return Status::Shed,
        Err(why) => return Status::Failed(format!("{}: open: {why}", spec.job.name())),
    };
    let mut verifier = Verifier::new(&spec.check);
    loop {
        match rec.span("gate.fetch", root, job_no, || gate.fetch(cursor, PAGE_ROWS)) {
            Ok(page) => {
                verifier.page(&page.records);
                if page.done {
                    break;
                }
            }
            Err(why) => return Status::Failed(format!("{}: fetch: {why}", spec.job.name())),
        }
    }
    if verifier.verdict() {
        Status::Verified
    } else {
        Status::Wrong(format!(
            "{}: wrong answer: {} rows (checksum {:#x}; {} of the first patient, {} foreign) against {:?}",
            spec.job.name(),
            verifier.digest.rows,
            verifier.digest.sum,
            verifier.rows_of_a,
            verifier.foreign,
            spec.check
        ))
    }
}

/// One job as a client that validates its answer end to end: a wrong
/// answer is asked for once more, and the job's latency covers both
/// attempts. Returns the final status and whether a retry was needed.
///
/// The retry exists because of a defect this benchmark found in
/// `HarborGate::fetch`: it drains the sink, finds it empty, and only then
/// asks whether the job has finished — a job that emits its last records
/// and finishes between those two steps gets a done page without them
/// (about one job in 30 000 when the fetching thread is preempted there;
/// the same job submitted to the scheduler directly is always complete).
/// Retries are counted and reported (`core.gate.lost_tail_retries`), and
/// more than [`lost_tail_limit`] of them fail the run.
fn gate_job(
    gate: &HarborGate,
    session: SessionId,
    spec: &Spec,
    rec: &mut Recorder,
    root: u64,
    job_no: u64,
) -> (Status, bool) {
    match gate_attempt(gate, session, spec, rec, root, job_no) {
        Status::Wrong(_) => (gate_attempt(gate, session, spec, rec, root, job_no), true),
        status => (status, false),
    }
}

/// Retried wrong answers a pass tolerates: two, or one job in a thousand.
pub fn lost_tail_limit(attempted: u64) -> u64 {
    (attempted / 1000).max(2)
}

/// What the writer connection measured over one pass.
#[derive(Debug, Default, Clone)]
pub struct WriterStats {
    pub commits: u64,
    /// `commit()` return minus the commit's due time.
    pub commit_ms: Vec<f64>,
    /// The `commit()` call alone.
    pub call_ms: Vec<f64>,
    /// How late the writer started each transaction.
    pub late_ms: Vec<f64>,
    /// Record bytes handed to `write`.
    pub user_bytes: u64,
    pub fsyncs: u64,
    pub failed: u64,
    /// Why the first few failed commits failed.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

/// Span `job` numbers: `(pass << 32) + n` for jobs, this base + the
/// transaction number for commits, so no two spans share a number by
/// accident.
const TXN_SPAN_BASE: u64 = 1 << 48;

/// Commit `TXN_ROWS`-row transactions at the plan's fixed rate until
/// `stop`; `next_txn` continues across passes so claim ids stay unique.
fn run_writer(
    fixture: &Fixture,
    workload: &Workload,
    next_txn: &AtomicU64,
    stop: &AtomicBool,
    clock: Option<&TraceClock>,
) -> WriterStats {
    let mgr = fixture.mgr.as_ref().expect("a writer needs the write path");
    let plan = workload.writer.expect("a writer needs a plan");
    let gen = claims_generator();
    let period = Duration::from_secs_f64(1.0 / plan.commits_per_s);
    let mut stats = WriterStats::default();
    let mut rec = Recorder::new(clock);
    let fsyncs_before = mgr.wal().fsyncs();
    let start = Instant::now();
    let mut n = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = period * n;
        n += 1;
        if let Some(pause) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(pause);
        }
        let started = start.elapsed();
        let txn = next_txn.fetch_add(1, Ordering::Relaxed);
        let txn_no = TXN_SPAN_BASE + txn;
        let root = rec.open("txn", 0, txn_no);
        let session = rec.span("txn.write", root, txn_no, || {
            let mut session = mgr.begin();
            for claim in txn_claims(workload, &gen, txn) {
                let record = claim.to_record();
                stats.user_bytes += record.len() as u64;
                session.write(CLAIMS, Value::Int(claim.claim_id), record);
            }
            session
        });
        let call = Instant::now();
        let outcome = rec.span("txn.commit", root, txn_no, || session.commit());
        rec.close(root);
        stats.commits += 1;
        if let Err(why) = outcome {
            stats.failed += 1;
            stats
                .errors
                .push(format!("commit of transaction {txn}: {why}"));
        }
        stats.call_ms.push(call.elapsed().as_secs_f64() * 1e3);
        stats
            .commit_ms
            .push((start.elapsed() - due).as_secs_f64() * 1e3);
        stats.late_ms.push((started - due).as_secs_f64() * 1e3);
    }
    stats.fsyncs = mgr.wal().fsyncs() - fsyncs_before;
    stats.spans = rec.spans;
    stats
}

/// Run `body` with the workload's writer (if it has one) committing
/// beside it, and return both results.
fn beside_writer<R>(
    fixture: &Fixture,
    workload: &Workload,
    next_txn: &AtomicU64,
    clock: Option<&TraceClock>,
    body: impl FnOnce() -> R,
) -> (R, Option<WriterStats>) {
    if workload.writer.is_none() {
        return (body(), None);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| run_writer(fixture, workload, next_txn, &stop, clock));
        let out = body();
        stop.store(true, Ordering::Relaxed);
        (out, Some(writer.join().expect("writer thread panicked")))
    })
}

/// Hands closed-loop connections their next job: whole seeded cycles
/// until the deadline has passed.
struct Feeder<'a> {
    workload: &'a Workload,
    deadline: Instant,
    state: Mutex<FeederState>,
}

struct FeederState {
    cycle: u64,
    order: Vec<usize>,
    pos: usize,
    issued: u64,
    /// `(when the cycle's first job was issued, jobs in the cycle)`.
    cycles: Vec<(Instant, usize)>,
}

impl<'a> Feeder<'a> {
    fn new(workload: &'a Workload, first_cycle: u64, deadline: Instant) -> Feeder<'a> {
        Feeder {
            workload,
            deadline,
            state: Mutex::new(FeederState {
                cycle: first_cycle,
                order: workload.cycle(first_cycle),
                pos: 0,
                issued: 0,
                cycles: Vec::new(),
            }),
        }
    }

    /// `(job number, def index)`, or `None` once the run's seconds are
    /// spent *and* the cycle in progress has been issued completely — so
    /// every run executes whole cycles and its counters repeat exactly.
    fn next(&self) -> Option<(u64, usize)> {
        let mut st = self.state.lock().expect("feeder lock");
        if st.pos == st.order.len() {
            if Instant::now() >= self.deadline {
                return None;
            }
            st.cycle += 1;
            st.order = self.workload.cycle(st.cycle);
            st.pos = 0;
        }
        if st.pos == 0 {
            let jobs = st.order.len();
            st.cycles.push((Instant::now(), jobs));
        }
        let idx = st.order[st.pos];
        st.pos += 1;
        st.issued += 1;
        Some((st.issued, idx))
    }
}

impl Feeder<'_> {
    /// Jobs per second of every cycle issued: its jobs over the time from
    /// its first issue to the next cycle's (or to `end` for the last).
    fn cycle_rates(&self, end: Instant) -> Vec<f64> {
        let st = self.state.lock().expect("feeder lock");
        let ends = st.cycles.iter().skip(1).map(|c| c.0).chain([end]);
        st.cycles
            .iter()
            .zip(ends)
            .map(|(&(start, jobs), end)| jobs as f64 / (end - start).as_secs_f64())
            .collect()
    }
}

/// One attempted job of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Issue order within the pass, from 1.
    pub no: u64,
    /// Due → done page (or failure).
    pub latency_ms: f64,
    pub verified: bool,
}

/// Everything one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Every attempted job, in issue order.
    pub samples: Vec<Sample>,
    pub shed: u64,
    /// Jobs whose first answer was wrong and whose retry verified.
    pub lost_tails: u64,
    /// First job due → last job done.
    pub wall: Duration,
    /// Closed loops: jobs per second of each whole cycle.
    pub cycle_rates: Vec<f64>,
    /// Open loop: how late the generator started each job.
    pub late_ms: Vec<f64>,
    pub delta: MetricsSnapshot,
    pub cpu: Duration,
    pub spans: Vec<Span>,
    /// Largest summed stage-queue depth sampled at a job's start.
    pub queue_depth_max: u64,
    /// `SchedulerStats` deltas over the pass.
    pub catchup_passes: u64,
    pub catchup_coalesced: u64,
    pub rejected_jobs: u64,
    pub writer: Option<WriterStats>,
    /// What went wrong with the first few failed jobs.
    pub errors: Vec<String>,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn verified(&self) -> u64 {
        self.samples.iter().filter(|s| s.verified).count() as u64
    }

    /// Latencies of the verified jobs, in issue order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.verified)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Verified completions per second. On a closed loop, the median over
    /// the pass's cycles (each the same jobs in another order), so a
    /// stall of a second or two — this box is shared — costs one cycle's
    /// sample instead of a twentieth of the whole run; on the open loop,
    /// completions over wall.
    pub fn goodput(&self) -> f64 {
        if self.cycle_rates.is_empty() || self.verified() < self.attempted() {
            self.verified() as f64 / self.wall.as_secs_f64()
        } else {
            crate::stats::median(&self.cycle_rates)
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted() - self.verified() + self.writer.as_ref().map_or(0, |w| w.failed)
    }

    /// Fold a second untraced pass into this one: samples and tallies
    /// add up; counters and spans stay this pass's.
    pub fn absorb(&mut self, other: Pass) {
        self.samples.extend(other.samples);
        self.shed += other.shed;
        self.lost_tails += other.lost_tails;
        self.wall += other.wall;
        self.errors.extend(other.errors);
        if let (Some(mine), Some(theirs)) = (&mut self.writer, other.writer) {
            mine.commits += theirs.commits;
            mine.failed += theirs.failed;
            mine.errors.extend(theirs.errors);
        }
    }
}

/// Per-connection tallies, merged into a [`Pass`] when the pass ends.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    shed: u64,
    lost_tails: u64,
    late_ms: Vec<f64>,
    spans: Vec<Span>,
    queue_depth_max: u64,
    errors: Vec<String>,
}

/// `(job number, def index, due time since pass start)`; no due time on
/// a closed loop.
type Issue = (u64, usize, Option<Duration>);

/// Which pass this is: keeps warm-up, measurement and the traced run's
/// passes on different seeded cycles and schedules.
#[derive(Debug, Clone, Copy)]
pub struct PassId(pub u64);

/// Drive one pass of `window` seconds through the gate. With a `clock`
/// every gate call is recorded as a span.
pub fn run_pass(
    fixture: &Fixture,
    specs: &[Spec],
    workload: &Workload,
    next_txn: &AtomicU64,
    pass: PassId,
    window: Duration,
    clock: Option<&TraceClock>,
) -> Pass {
    let gate = &fixture.gate;
    let sched_before = gate.scheduler().stats();
    let before = fixture.cluster.metrics().snapshot();
    let cpu_before = process_cpu();
    let start = Instant::now();

    let connection = |conn: usize, next: &(dyn Fn() -> Option<Issue> + Sync)| {
        let mut tally = Tally::default();
        let mut rec = Recorder::new(clock);
        let session = gate
            .open_session(&format!("conn-{conn}"))
            .expect("the gate has no session cap configured");
        while let Some((no, idx, due)) = next() {
            let job_no = (pass.0 << 32) + no;
            if let Some(pause) = due.and_then(|d| d.checked_sub(start.elapsed())) {
                std::thread::sleep(pause);
            }
            let started = start.elapsed();
            if let Some(due) = due {
                tally.late_ms.push((started - due).as_secs_f64() * 1e3);
            }
            // A closed-loop job is due the moment its caller is free.
            let due = due.unwrap_or(started);
            if clock.is_some() {
                let depth: u64 = gate.scheduler().stats().queue_depths.iter().sum();
                tally.queue_depth_max = tally.queue_depth_max.max(depth);
            }
            let root = rec.open("job", 0, job_no);
            let (status, retried) = gate_job(gate, session, &specs[idx], &mut rec, root, job_no);
            rec.close(root);
            tally.samples.push(Sample {
                no,
                latency_ms: (start.elapsed() - due).as_secs_f64() * 1e3,
                verified: status == Status::Verified,
            });
            match status {
                Status::Verified => tally.lost_tails += u64::from(retried),
                Status::Shed => tally.shed += 1,
                Status::Wrong(why) | Status::Failed(why) => tally.errors.push(why),
            }
        }
        gate.close_session(session).expect("session is open");
        tally.spans = rec.spans;
        tally
    };
    let connection = &connection;
    let run_connections = |connections: usize, next: &(dyn Fn() -> Option<Issue> + Sync)| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| scope.spawn(move || connection(c, next)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect::<Vec<Tally>>()
        })
    };

    let ((tallies, cycle_rates, wall), writer) =
        beside_writer(fixture, workload, next_txn, clock, || {
            match workload.arrivals {
                Arrivals::Closed { connections } => {
                    let feeder = Feeder::new(workload, pass.0 << 32, start + window);
                    let tallies = run_connections(connections, &|| {
                        feeder.next().map(|(no, idx)| (no, idx, None))
                    });
                    (tallies, feeder.cycle_rates(Instant::now()), start.elapsed())
                }
                Arrivals::Open { connections, .. } => {
                    let schedule = workload.open_schedule(pass.0, window);
                    let cursor = AtomicUsize::new(0);
                    let tallies = run_connections(connections, &|| {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        schedule
                            .get(i)
                            .map(|&(due, idx)| (i as u64 + 1, idx, Some(due)))
                    });
                    (tallies, Vec::new(), start.elapsed())
                }
            }
        });

    let sched_after = gate.scheduler().stats();
    let mut out = Pass {
        wall,
        cycle_rates,
        cpu: process_cpu() - cpu_before,
        delta: fixture.cluster.metrics().snapshot().since(&before),
        catchup_passes: sched_after.builds_started - sched_before.builds_started,
        catchup_coalesced: sched_after.builds_coalesced - sched_before.builds_coalesced,
        rejected_jobs: sched_after.rejected_jobs - sched_before.rejected_jobs,
        ..Pass::default()
    };
    for t in tallies {
        out.samples.extend(t.samples);
        out.shed += t.shed;
        out.lost_tails += t.lost_tails;
        out.late_ms.extend(t.late_ms);
        out.spans.extend(t.spans);
        out.queue_depth_max = out.queue_depth_max.max(t.queue_depth_max);
        out.errors.extend(t.errors);
    }
    out.samples.sort_by_key(|s| s.no);
    if let Some(w) = &writer {
        out.spans.extend(w.spans.iter().cloned());
        out.errors.extend(w.errors.iter().cloned());
    }
    out.writer = writer;
    out
}

/// The paired probe of the traced run: one caller issues a whole seeded
/// cycle through the gate, then the same cycle straight to the scheduler,
/// round after round. Both sweeps meet each job one full cycle after its
/// last execution, so caches treat them alike, and the difference of
/// their medians is the front door's own cost.
#[derive(Default)]
pub struct Paired {
    pub gate_ms: Vec<f64>,
    pub direct_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    /// Executor-reported wall, per direct job.
    pub exec_wall_ms: Vec<f64>,
    /// Storage counters of the direct jobs alone (exact per job).
    pub metrics: Vec<MetricsSnapshot>,
    pub profiles: Vec<ExecProfile>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    pub writer: Option<WriterStats>,
}

pub fn run_paired(
    fixture: &Fixture,
    specs: &[Spec],
    workload: &Workload,
    next_txn: &AtomicU64,
    pass: PassId,
    window: Duration,
    clock: &TraceClock,
) -> Paired {
    let gate = &fixture.gate;
    let mut out = Paired::default();
    let mut rec = Recorder::new(Some(clock));
    let (_, writer) = beside_writer(fixture, workload, next_txn, Some(clock), || {
        let session = gate.open_session("paired").expect("no session cap");
        let start = Instant::now();
        let mut job_no = pass.0 << 32;
        for round in 0.. {
            let round_start = start.elapsed();
            let order = workload.cycle((pass.0 << 32) + round);
            for &idx in &order {
                job_no += 1;
                let t = Instant::now();
                let root = rec.open("job", 0, job_no);
                let (status, _) = gate_job(gate, session, &specs[idx], &mut rec, root, job_no);
                rec.close(root);
                out.gate_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Status::Wrong(why) | Status::Failed(why) = status {
                    out.failed += 1;
                    out.errors.push(why);
                }
            }
            for &idx in &order {
                job_no += 1;
                let spec = &specs[idx];
                let t = Instant::now();
                let root = rec.open("job.direct", 0, job_no);
                let handle = rec.span("scheduler.submit", root, job_no, || {
                    gate.scheduler().submit(&spec.job)
                });
                out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                let result =
                    handle.and_then(|h| rec.span("scheduler.wait", root, job_no, || h.wait()));
                rec.close(root);
                out.direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match result {
                    Ok(r) if count_ok(&spec.check, r.count) => {
                        out.exec_wall_ms.push(r.wall.as_secs_f64() * 1e3);
                        out.metrics.push(r.metrics);
                        out.profiles.push(r.profile);
                    }
                    other => {
                        out.failed += 1;
                        out.errors.push(format!(
                            "{}: direct: {:?}",
                            spec.job.name(),
                            other.map(|r| r.count)
                        ));
                    }
                }
            }
            out.attempted += 2 * order.len() as u64;
            // Stop once another round would end further from the window
            // than stopping here does.
            let round_len = start.elapsed() - round_start;
            if start.elapsed() + round_len / 2 >= window {
                break;
            }
        }
        gate.close_session(session).expect("session is open");
    });
    out.spans = rec.spans;
    if let Some(w) = &writer {
        out.spans.extend(w.spans.iter().cloned());
        out.errors.extend(w.errors.iter().cloned());
    }
    out.writer = writer;
    out
}
