//! Failure injection for the executors: functions that error or emit
//! unexpectedly must produce clean job failures (never hangs, never
//! panics), and repeated runs of healthy jobs must be stable.

use rede_common::{RedeError, Result, Value};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_core::job::{Job, SeedInput};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::*;
use rede_core::scheduler::HarborScheduler;
use rede_core::traits::{DerefInput, Dereferencer, Filter, Referencer, StageCtx};
use rede_storage::{FileSpec, IndexSpec, IoModel, Partitioning, Pointer, Record, SimCluster};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture() -> SimCluster {
    fixture_with(IoModel::zero())
}

fn fixture_with(io: IoModel) -> SimCluster {
    let cluster = SimCluster::builder().nodes(2).io_model(io).build().unwrap();
    let file = cluster
        .create_file(FileSpec::new("base", Partitioning::hash(4)))
        .unwrap();
    for i in 0..500i64 {
        file.insert(Value::Int(i), Record::from_text(&format!("{i}|{}", i % 10)))
            .unwrap();
    }
    IndexBuilder::new(
        cluster.clone(),
        IndexSpec::global("base.grp", "base", 4),
        Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int)),
    )
    .build()
    .unwrap();
    cluster
}

/// Fails on every Nth invocation.
struct FlakyDeref {
    inner: LookupDereferencer,
    calls: AtomicU64,
    fail_every: u64,
}

impl Dereferencer for FlakyDeref {
    fn dereference(
        &self,
        input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> Result<()> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.fail_every > 0 && n % self.fail_every == self.fail_every - 1 {
            return Err(RedeError::Exec("injected storage fault".into()));
        }
        self.inner.dereference(input, ctx, emit)
    }
}

fn job_with_fetch(fetch: Arc<dyn Dereferencer>) -> Job {
    Job::builder("flaky")
        .seed(SeedInput::Range {
            file: "base.grp".into(),
            lo: Value::Int(0),
            hi: Value::Int(9),
        })
        .dereference("d0", Arc::new(BtreeRangeDereferencer::new("base.grp")))
        .reference("r1", Arc::new(IndexEntryReferencer::new("base")))
        .dereference("d1", fetch)
        .build()
        .unwrap()
}

#[test]
fn injected_faults_fail_cleanly_under_smpe() {
    let cluster = fixture();
    for fail_every in [1u64, 7, 100] {
        let fetch = Arc::new(FlakyDeref {
            inner: LookupDereferencer::new("base"),
            calls: AtomicU64::new(0),
            fail_every,
        });
        let runner = JobRunner::new(cluster.clone(), ExecutorConfig::smpe(16));
        let err = runner.run(&job_with_fetch(fetch)).unwrap_err();
        assert_eq!(err.kind(), "exec", "fail_every={fail_every}: {err}");
        assert!(err.to_string().contains("injected storage fault"));
    }
}

#[test]
fn injected_faults_fail_cleanly_under_partitioned() {
    let cluster = fixture();
    let fetch = Arc::new(FlakyDeref {
        inner: LookupDereferencer::new("base"),
        calls: AtomicU64::new(0),
        fail_every: 13,
    });
    let runner = JobRunner::new(cluster, ExecutorConfig::partitioned());
    assert!(runner.run(&job_with_fetch(fetch)).is_err());
}

/// A referencer that panicking-adjacent misbehaves: emits pointers into a
/// file that does not exist.
struct WildReferencer;

impl Referencer for WildReferencer {
    fn reference(
        &self,
        _record: &Record,
        _ctx: &StageCtx,
        emit: &mut dyn FnMut(Pointer),
    ) -> Result<()> {
        emit(Pointer::logical(
            "no_such_file",
            Value::Int(1),
            Value::Int(1),
        ));
        Ok(())
    }
}

#[test]
fn dangling_emissions_surface_as_errors() {
    let cluster = fixture();
    let job = Job::builder("wild")
        .seed(SeedInput::Range {
            file: "base.grp".into(),
            lo: Value::Int(0),
            hi: Value::Int(0),
        })
        .dereference("d0", Arc::new(BtreeRangeDereferencer::new("base.grp")))
        .reference("r1", Arc::new(WildReferencer))
        .dereference("d1", Arc::new(LookupDereferencer::new("no_such_file")))
        .build()
        .unwrap();
    let runner = JobRunner::new(cluster, ExecutorConfig::smpe(8));
    let err = runner.run(&job).unwrap_err();
    assert_eq!(err.kind(), "exec");
}

/// Filters that error must fail the job, not silently drop records.
struct PoisonFilter;

impl Filter for PoisonFilter {
    fn matches(&self, _record: &Record) -> Result<bool> {
        Err(RedeError::Interpret("poison".into()))
    }
}

#[test]
fn filter_errors_fail_the_job_in_both_modes() {
    let cluster = fixture();
    let job = Job::builder("poisoned")
        .seed(SeedInput::Range {
            file: "base.grp".into(),
            lo: Value::Int(0),
            hi: Value::Int(9),
        })
        .dereference_filtered(
            "d0",
            Arc::new(BtreeRangeDereferencer::new("base.grp")),
            Arc::new(PoisonFilter),
        )
        .reference("r1", Arc::new(IndexEntryReferencer::new("base")))
        .dereference("d1", Arc::new(LookupDereferencer::new("base")))
        .build()
        .unwrap();
    for config in [ExecutorConfig::smpe(8), ExecutorConfig::partitioned()] {
        let runner = JobRunner::new(cluster.clone(), config);
        assert!(runner.run(&job).is_err());
    }
}

#[test]
fn repeated_runs_are_stable() {
    let cluster = fixture();
    let job = job_with_fetch(Arc::new(LookupDereferencer::new("base")));
    let runner = JobRunner::new(cluster, ExecutorConfig::smpe(32));
    let mut counts = Vec::new();
    let mut accesses = Vec::new();
    for _ in 0..20 {
        let r = runner.run(&job).unwrap();
        counts.push(r.count);
        accesses.push(r.metrics.record_accesses());
    }
    assert!(counts.iter().all(|&c| c == 500), "{counts:?}");
    assert!(
        accesses.iter().all(|&a| a == accesses[0]),
        "access totals must not vary across runs: {accesses:?}"
    );
}

/// Misbehaves on every `every`-th record it is handed — panicking, or
/// failing transiently — and is an `IndexEntryReferencer` otherwise.
struct FaultyReferencer {
    inner: IndexEntryReferencer,
    calls: AtomicU64,
    every: u64,
    panics: bool,
}

impl FaultyReferencer {
    fn job(every: u64, panics: bool) -> Job {
        Job::builder("faulty-referencer")
            .seed(SeedInput::Range {
                file: "base.grp".into(),
                lo: Value::Int(0),
                hi: Value::Int(9),
            })
            .dereference("d0", Arc::new(BtreeRangeDereferencer::new("base.grp")))
            .reference(
                "r1",
                Arc::new(FaultyReferencer {
                    inner: IndexEntryReferencer::new("base"),
                    calls: AtomicU64::new(0),
                    every,
                    panics,
                }),
            )
            .dereference("d1", Arc::new(LookupDereferencer::new("base")))
            .build()
            .unwrap()
    }
}

impl Referencer for FaultyReferencer {
    fn reference(
        &self,
        record: &Record,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Pointer),
    ) -> Result<()> {
        if self.calls.fetch_add(1, Ordering::Relaxed) % self.every == self.every - 1 {
            if self.panics {
                panic!("referencer blew up");
            }
            return Err(RedeError::Transient("referencer hiccup".into()));
        }
        self.inner.reference(record, ctx, emit)
    }
}

/// Latency-free, a dispatch routes its outputs right away on the worker
/// that ran it; with device time owed, whichever worker pops the flight's
/// continuation routes them when it lands. The inline referencer is fused
/// into both.
fn both_routing_threads() -> [IoModel; 2] {
    [IoModel::zero(), IoModel::hdd_like(0.05)]
}

/// A referencer that panics while fused into its producer's dispatch is a
/// job error like any stage panic: counted, never a hang, and every
/// in-flight token comes back (the job finishes and leaves nothing queued).
#[test]
fn a_panicking_fused_referencer_fails_the_job_and_is_counted() {
    for io in both_routing_threads() {
        let sched = HarborScheduler::with_defaults(fixture_with(io));
        let handle = sched.submit(&FaultyReferencer::job(7, true)).unwrap();
        let err = handle.wait().unwrap_err();
        assert_eq!(err.kind(), "exec", "{err}");
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(sched.stats().pool_panics >= 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = sched.stats();
            if stats.active_jobs == 0 && stats.queue_depths.iter().all(|&d| d == 0) {
                break;
            }
            assert!(Instant::now() < deadline, "failed job left work: {stats:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The thread that caught the panic still serves ordinary work.
        let healthy = job_with_fetch(Arc::new(LookupDereferencer::new("base")));
        assert_eq!(sched.submit(&healthy).unwrap().wait().unwrap().count, 500);
    }
}

/// A transient failure in a fused referencer goes through the same retry
/// loop a queued one gets: only the failed records re-run, nothing is
/// emitted twice, and the answer is complete.
#[test]
fn a_transient_failing_fused_referencer_recovers_the_full_answer() {
    for io in both_routing_threads() {
        let runner = JobRunner::new(fixture_with(io), ExecutorConfig::smpe(8));
        let result = runner.run(&FaultyReferencer::job(5, false)).unwrap();
        assert_eq!(result.count, 500);
        assert!(
            result.metrics.retries > 0,
            "the referencer must have failed"
        );
        let r1 = &result.profile.stages[1];
        assert_eq!((r1.tasks, r1.emits), (500, 500), "no double emission");
        assert_eq!(result.profile.inline_runs, 500);
    }
}
