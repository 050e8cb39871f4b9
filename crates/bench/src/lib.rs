//! Shared experiment harness: fixtures and runners used by the `fig7` /
//! `fig9` binaries and the Criterion benches.
//!
//! Every experiment in the paper's evaluation maps to one function here:
//!
//! * `fig7` — TPC-H Q5' across selectivities on the three systems
//!   (Impala-like baseline, ReDe w/o SMPE, ReDe w/ SMPE), wall-clock with
//!   injected I/O latency plus the deterministic cost model.
//! * `fig9` — claims queries Q1–Q3 record-access comparison (warehouse
//!   vs. ReDe), normalized to the warehouse like the paper's figure.

use rede_baseline::engine::{Engine, EngineConfig};
use rede_baseline::warehouse::Warehouse;
use rede_baseline::ShuffleLocality;
use rede_claims::gen::{ClaimsGenerator, ClaimsProfile};
use rede_claims::queries::{
    rede_job as claims_job, run_lake_scan, run_rede as run_claims_rede, run_warehouse, QuerySpec,
};
use rede_common::rng::Xoshiro256;
use rede_common::{ExecProfile, MetricsSnapshot, RedeError, Result};
use rede_core::exec::{ExecutorConfig, JobRunner};
use rede_core::gate::{GateConfig, HarborGate, QueryOptions};
use rede_core::job::Job;
use rede_core::scheduler::{HarborScheduler, SchedulerConfig, SubmitOptions};
use rede_storage::{CostModel, FaultPlan, IoModel, SimCluster};
use rede_tpch::{load_tpch, LoadOptions, Q5Params, Q6Params, TpchGenerator};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Simulated nodes.
    pub nodes: usize,
    /// Partitions per file (≥ nodes × scan cores for full scan parallelism).
    pub partitions: usize,
    /// TPC-H scale factor.
    pub scale_factor: f64,
    /// Latency model scale (1.0 = the documented µs-range HDD-like model).
    pub io_scale: f64,
    /// SMPE pool threads (paper default: 1000).
    pub smpe_threads: usize,
    /// Baseline scan cores per node (paper testbed: 16).
    pub cores_per_node: usize,
    /// Generator seed.
    pub seed: u64,
    /// Total record-cache bytes across the cluster (`None` = no cache,
    /// the paper's configuration).
    pub record_cache: Option<usize>,
    /// Shared buffer-pool byte budget covering every paged structure
    /// (heaps + indexes) *and* the record cache (`None` = unbounded, the
    /// everything-resident configuration).
    pub memory_budget: Option<usize>,
    /// Deterministic fault plan for chaos runs (`None` or an inert plan =
    /// the regular fault-free cluster, with zero recovery-path overhead).
    pub faults: Option<FaultPlan>,
    /// Baseline scan shuffle-locality model (default: the original
    /// implicit, uncharged shuffle).
    pub shuffle: ShuffleLocality,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            nodes: 4,
            partitions: 32,
            scale_factor: 0.01,
            io_scale: 1.0,
            smpe_threads: 512,
            cores_per_node: 8,
            seed: 42,
            record_cache: None,
            memory_budget: None,
            faults: None,
            shuffle: ShuffleLocality::default(),
        }
    }
}

/// A loaded Fig. 7 fixture: one cluster shared by all three systems.
pub struct Fig7Fixture {
    /// The cluster with data + structures loaded.
    pub cluster: SimCluster,
    /// Config used to build it.
    pub config: Fig7Config,
    /// Lineitem row count (for reporting).
    pub lineitem_rows: usize,
    /// Orders row count.
    pub orders_rows: usize,
}

impl Fig7Fixture {
    /// Generate, load, and index the dataset under the latency model.
    pub fn build(config: Fig7Config) -> Result<Fig7Fixture> {
        let mut builder = SimCluster::builder()
            .nodes(config.nodes)
            .io_model(IoModel::hdd_like(config.io_scale));
        if let Some(capacity) = config.record_cache {
            builder = builder.record_cache(capacity);
        }
        if let Some(budget) = config.memory_budget {
            builder = builder.memory_budget(budget);
        }
        if let Some(plan) = config.faults.clone() {
            builder = builder.faults(plan);
        }
        let cluster = builder.build()?;
        let loaded = load_tpch(
            &cluster,
            TpchGenerator::new(config.scale_factor, config.seed),
            &LoadOptions {
                partitions: Some(config.partitions),
                date_indexes: true,
                fk_indexes: true,
            },
        )?;
        Ok(Fig7Fixture {
            cluster,
            config,
            lineitem_rows: loaded.lineitem_rows,
            orders_rows: loaded.orders_rows,
        })
    }

    fn smpe_runner(&self) -> JobRunner {
        JobRunner::new(
            self.cluster.clone(),
            ExecutorConfig::smpe(self.config.smpe_threads),
        )
    }

    fn partitioned_runner(&self) -> JobRunner {
        JobRunner::new(self.cluster.clone(), ExecutorConfig::partitioned())
    }

    fn engine(&self) -> Engine {
        Engine::new(
            self.cluster.clone(),
            EngineConfig {
                cores_per_node: self.config.cores_per_node,
                join_fanout: 32,
                shuffle: self.config.shuffle,
            },
        )
    }

    /// Run one selectivity point on all three systems.
    pub fn run_point(&self, selectivity: f64) -> Result<Fig7Point> {
        let params = Q5Params::with_selectivity(selectivity);
        let io = self.cluster.io_model().clone();

        // Impala-like: full scans + grace hash joins.
        let plan = rede_tpch::q5_prime_plan(&params);
        let impala = self.engine().execute(&plan)?;
        let impala_model = CostModel {
            nodes: self.config.nodes,
            point_concurrency_per_node: self.config.cores_per_node,
            scan_streams_per_node: self.config.cores_per_node,
        }
        .model(&io, &impala.metrics);

        // ReDe w/o SMPE: structures + partitioned parallelism only.
        let job = rede_tpch::q5_prime_job(&params)?;
        let wo = self.partitioned_runner().run(&job)?;
        let wo_model = CostModel {
            nodes: self.config.nodes,
            point_concurrency_per_node: 1,
            scan_streams_per_node: 1,
        }
        .model(&io, &wo.metrics);

        // ReDe w/ SMPE.
        let smpe = self.smpe_runner().run(&job)?;
        let smpe_model = CostModel {
            nodes: self.config.nodes,
            point_concurrency_per_node: self.config.smpe_threads / self.config.nodes.max(1),
            scan_streams_per_node: 1,
        }
        .model(&io, &smpe.metrics);

        // All three systems must agree on the answer.
        if impala.rows.len() as u64 != wo.count || wo.count != smpe.count {
            return Err(rede_common::RedeError::Exec(format!(
                "result mismatch at selectivity {selectivity}: impala={}, w/o={}, w/={}",
                impala.rows.len(),
                wo.count,
                smpe.count
            )));
        }

        Ok(Fig7Point {
            selectivity,
            output_rows: smpe.count,
            impala_wall: impala.wall,
            impala_modeled: Duration::from_secs_f64(impala_model.total_secs()),
            rede_wo_smpe_wall: wo.wall,
            rede_wo_smpe_modeled: Duration::from_secs_f64(wo_model.total_secs()),
            rede_smpe_wall: smpe.wall,
            rede_smpe_modeled: Duration::from_secs_f64(smpe_model.total_secs()),
            impala_accesses: impala.metrics.record_accesses(),
            rede_accesses: smpe.metrics.record_accesses(),
            rede_local_reads: smpe.profile.local_point_reads(),
            rede_remote_reads: smpe.profile.remote_point_reads(),
            rede_metrics: smpe.metrics,
            rede_profile: smpe.profile,
        })
    }
}

/// One row of the Fig. 7 sweep.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    pub selectivity: f64,
    pub output_rows: u64,
    pub impala_wall: Duration,
    pub impala_modeled: Duration,
    pub rede_wo_smpe_wall: Duration,
    pub rede_wo_smpe_modeled: Duration,
    pub rede_smpe_wall: Duration,
    pub rede_smpe_modeled: Duration,
    pub impala_accesses: u64,
    pub rede_accesses: u64,
    /// SMPE heap point reads served by the issuing node (owner routing
    /// makes this the overwhelming majority).
    pub rede_local_reads: u64,
    /// SMPE heap point reads that crossed nodes.
    pub rede_remote_reads: u64,
    /// The SMPE run's own counters and its per-stage / per-node profile
    /// (what `--profile` prints, in this order).
    pub rede_metrics: MetricsSnapshot,
    pub rede_profile: ExecProfile,
}

impl Fig7Point {
    /// Fraction of SMPE point reads that were node-local (1.0 when the
    /// run did no point reads).
    pub fn rede_locality(&self) -> f64 {
        let total = self.rede_local_reads + self.rede_remote_reads;
        if total == 0 {
            1.0
        } else {
            self.rede_local_reads as f64 / total as f64
        }
    }
}

/// The paper's Fig. 7 x-axis, roughly: six decades of selectivity.
pub fn fig7_selectivities() -> Vec<f64> {
    vec![1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1]
}

/// Configuration of the Fig. 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Simulated nodes.
    pub nodes: usize,
    /// Number of synthetic claims.
    pub claims: usize,
    /// Warehouse probe parallelism.
    pub warehouse_parallelism: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Fig9Config {
            nodes: 4,
            claims: 20_000,
            warehouse_parallelism: 16,
            seed: 42,
        }
    }
}

/// One bar pair of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Query name.
    pub query: &'static str,
    /// Warehouse record accesses (the normalization basis).
    pub warehouse_accesses: u64,
    /// ReDe record accesses.
    pub rede_accesses: u64,
    /// Plain data-lake full-scan record accesses (the system the paper
    /// measured but omitted from the figure, footnote 3).
    pub lake_scan_accesses: u64,
    /// Shared answer (sanity: both systems agreed).
    pub total_expense: i64,
    /// Number of qualifying claims.
    pub qualifying_claims: u64,
    /// The ReDe run's own counters and its per-stage / per-node profile
    /// (what `--profile` prints, in this order).
    pub rede_metrics: MetricsSnapshot,
    pub rede_profile: ExecProfile,
}

impl Fig9Row {
    /// ReDe accesses normalized to the warehouse (the figure's y-axis).
    pub fn normalized_rede(&self) -> f64 {
        self.rede_accesses as f64 / self.warehouse_accesses.max(1) as f64
    }
}

/// Build the claims fixture and run Q1–Q3 on both systems.
///
/// Fig. 9 counts record accesses, so the fixture runs with zero injected
/// latency (counters are latency-independent).
pub fn run_fig9(config: &Fig9Config) -> Result<Vec<Fig9Row>> {
    let cluster = SimCluster::builder()
        .nodes(config.nodes)
        .io_model(IoModel::zero())
        .build()?;
    let generator = ClaimsGenerator::new(
        ClaimsProfile {
            claims: config.claims,
            ..Default::default()
        },
        config.seed,
    );
    rede_claims::lake::load_lake(&cluster, &generator)?;
    rede_claims::normalize::load_warehouse(&cluster, &generator)?;

    let runner = JobRunner::new(cluster.clone(), ExecutorConfig::smpe(64).collecting());
    let warehouse = Warehouse::new(cluster.clone(), config.warehouse_parallelism);

    let mut rows = Vec::new();
    for spec in QuerySpec::all() {
        let wh = run_warehouse(&warehouse, &spec)?;
        let rede = run_claims_rede(&runner, &spec)?;
        let scan = run_lake_scan(&cluster, &spec)?;
        if wh.total_expense != rede.total_expense || scan.total_expense != rede.total_expense {
            return Err(rede_common::RedeError::Exec(format!(
                "{}: answers diverge (wh {} vs rede {} vs scan {})",
                spec.name, wh.total_expense, rede.total_expense, scan.total_expense
            )));
        }
        rows.push(Fig9Row {
            query: spec.name,
            warehouse_accesses: wh.metrics.record_accesses(),
            rede_accesses: rede.metrics.record_accesses(),
            lake_scan_accesses: scan.metrics.record_accesses(),
            total_expense: rede.total_expense,
            qualifying_claims: rede.qualifying_claims,
            rede_metrics: rede.metrics,
            rede_profile: rede.profile,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Open-loop overload harness: seeded Poisson arrivals from simulated
// clients through the HarborGate front door.
// ---------------------------------------------------------------------------

/// The canonical chaos plan shared by the chaos CI lanes and the
/// simulation tests: seeded transient faults on both access classes, one
/// brown-out window, one node-down window (placement derived from the
/// seed so different seeds stress different nodes).
pub fn chaos_plan(seed: u64, nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::transient(seed, 0.05).with_probe_fault_rate(0.05);
    if nodes > 1 {
        let down = (seed as usize) % nodes;
        plan = plan
            .with_brownout((down + 1) % nodes, 1_000..10_000, 4)
            .with_node_down(down, 4_000..20_000);
    }
    plan
}

/// Options for one open-loop overload sweep.
#[derive(Debug, Clone)]
pub struct OpenLoopOptions {
    /// Simulated clients. Each holds one gate session for the whole
    /// point; arrivals land on a seeded-random client, so one client can
    /// have several queries in flight (bounded by the per-session cursor
    /// cap — another front-door shed source, deliberately).
    pub clients: usize,
    /// Tenants; client `i` belongs to tenant `i % tenants`.
    pub tenants: usize,
    /// Offered-load points, as multiples of the calibrated capacity
    /// estimate. Must include points both below and above 1.0 to span
    /// saturation.
    pub rate_multipliers: Vec<f64>,
    /// Arrival window per point (the last completion may land later).
    pub window: Duration,
    /// Zipf skew of the query mix over [Q5', Q6, claims Q1, Q2, Q3]:
    /// kind `k` (0-based popularity rank) gets weight `1/(k+1)^skew`.
    pub zipf_skew: f64,
    /// Seed for arrivals, client choice, and query mix.
    pub seed: u64,
    /// Selectivity of the Q5' jobs.
    pub q5_selectivity: f64,
    /// Cursor page size clients fetch with.
    pub page_size: usize,
    /// Per-tenant scheduler admission bound (`max_tenant_queue_depth`):
    /// the front door sheds arrivals beyond it with `Overloaded`.
    pub queue_depth: usize,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        OpenLoopOptions {
            clients: 1024,
            tenants: 4,
            rate_multipliers: vec![0.4, 1.0, 3.0, 9.0],
            window: Duration::from_millis(1500),
            zipf_skew: 1.1,
            seed: 42,
            q5_selectivity: 3e-2,
            page_size: 256,
            queue_depth: 8,
        }
    }
}

/// A Fig. 7 TPC-H fixture with the claims lake loaded beside it on the
/// same cluster, so the open-loop query mix spans both workloads.
pub struct OpenLoopFixture {
    /// The underlying TPC-H fixture (cluster, config, row counts).
    pub fig7: Fig7Fixture,
    /// Synthetic claims loaded into the lake.
    pub claims: usize,
}

impl OpenLoopFixture {
    /// Build the TPC-H fixture, then load `claims` synthetic claims into
    /// the same cluster's lake (separate files; nothing collides).
    pub fn build(config: Fig7Config, claims: usize) -> Result<OpenLoopFixture> {
        let fig7 = Fig7Fixture::build(config)?;
        let generator = ClaimsGenerator::new(
            ClaimsProfile {
                claims,
                ..Default::default()
            },
            fig7.config.seed,
        );
        rede_claims::lake::load_lake(&fig7.cluster, &generator)?;
        Ok(OpenLoopFixture { fig7, claims })
    }
}

/// One measured offered-load point of the open-loop sweep.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Offered load as a multiple of the capacity estimate.
    pub multiplier: f64,
    /// Targeted arrival rate (jobs/sec).
    pub offered_rate: f64,
    /// Arrivals generated inside the window.
    pub arrivals: usize,
    /// Queries that paged to a verified done page (including stragglers
    /// finishing after the window while the point drained).
    pub completed: usize,
    /// Completions that landed *inside* the arrival window — the
    /// open-loop goodput numerator. Excluding the post-window drain keeps
    /// the rate comparable across points: at high multipliers the drain
    /// tail runs with ever fewer jobs in flight, which is a finite-
    /// horizon artifact, not a property of the saturated system.
    pub completed_in_window: usize,
    /// The arrival window this point was driven for.
    pub window: Duration,
    /// Arrivals shed at the front door with `Overloaded`.
    pub shed: usize,
    /// First arrival → last worker done (window + drain).
    pub wall: Duration,
    /// Latency percentiles of completed queries, measured from each
    /// arrival's *scheduled* time (open-loop discipline: harness lag
    /// counts as latency, not as reduced load).
    pub p50: Duration,
    pub p99: Duration,
    /// Completed queries per tenant — the fairness signal.
    pub per_tenant_completed: Vec<usize>,
    /// Injected faults survived during this point (0 without a plan).
    /// Under a plan each access *site* faults at most once globally, and
    /// the reference + calibration runs visit most sites first — so the
    /// run-level counters on [`OpenLoopReport`] are where a chaos run
    /// shows its plan fired; per-point deltas only catch sites first
    /// touched during this point.
    pub faults_injected: u64,
    /// Stage-invocation retries taken to survive them.
    pub retries: u64,
    /// Reads replica-served around down nodes.
    pub rerouted_reads: u64,
}

impl OpenLoopPoint {
    /// Completed queries per second over the arrival window (completions
    /// landing in the drain tail are excluded — see `completed_in_window`).
    pub fn goodput(&self) -> f64 {
        self.completed_in_window as f64 / self.window.as_secs_f64().max(1e-9)
    }

    /// Fraction of arrivals shed at the front door.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / (self.arrivals as f64).max(1.0)
    }

    /// Max/min completed-queries ratio across tenants. 1.0 is perfectly
    /// fair; a starved tenant drives it up.
    pub fn fairness_ratio(&self) -> f64 {
        let max = *self.per_tenant_completed.iter().max().unwrap_or(&1) as f64;
        let min = *self.per_tenant_completed.iter().min().unwrap_or(&1) as f64;
        max / min.max(1.0)
    }
}

/// A full open-loop sweep: the calibration estimate plus one point per
/// rate multiplier.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Jobs/sec sustained by the calibration burst (the `1.0` multiplier).
    pub capacity_estimate: f64,
    pub points: Vec<OpenLoopPoint>,
    /// Faults injected across the whole run — reference runs and
    /// calibration included, since those consume most one-shot fault
    /// sites (each site faults at most once globally).
    pub faults_injected: u64,
    /// Retries taken to survive them, run-wide.
    pub retries: u64,
    /// Replica-served reads around down nodes, run-wide.
    pub rerouted_reads: u64,
}

/// Nearest-rank percentile of an ascending latency list.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The zipfian query mix: jobs in popularity order with their reference
/// row counts (from one-shot collected runs) and zipf weights.
struct QueryMix {
    jobs: Vec<(&'static str, Job, u64)>,
    weights: Vec<f64>,
}

fn build_mix(fixture: &OpenLoopFixture, options: &OpenLoopOptions) -> Result<QueryMix> {
    let mut jobs: Vec<(&'static str, Job)> = vec![
        (
            "q5'",
            rede_tpch::q5_prime_job(&Q5Params::with_selectivity(options.q5_selectivity))?,
        ),
        ("q6", rede_tpch::q6_job(&Q6Params::standard())?),
    ];
    for spec in QuerySpec::all() {
        jobs.push((spec.name, claims_job(&spec)?));
    }
    // One-shot reference counts; every cursor-paged result is checked
    // against these, so the sweep doubles as a correctness assertion.
    let runner = JobRunner::new(
        fixture.fig7.cluster.clone(),
        ExecutorConfig::smpe(fixture.fig7.config.smpe_threads).collecting(),
    );
    let jobs: Vec<(&'static str, Job, u64)> = jobs
        .into_iter()
        .map(|(name, job)| {
            let count = runner.run(&job)?.count;
            Ok((name, job, count))
        })
        .collect::<Result<_>>()?;
    let weights: Vec<f64> = (0..jobs.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(options.zipf_skew))
        .collect();
    Ok(QueryMix { jobs, weights })
}

/// Calibrate capacity with a closed burst: submit `2 × tenants ×
/// queue_depth` jobs (mix-proportional) concurrently on an *unbounded*
/// scheduler and measure the completion rate. The open-loop rates are
/// multiples of this estimate.
fn calibrate(fixture: &OpenLoopFixture, options: &OpenLoopOptions, mix: &QueryMix) -> Result<f64> {
    let scheduler = HarborScheduler::new(
        fixture.fig7.cluster.clone(),
        SchedulerConfig {
            pool_threads: fixture.fig7.config.smpe_threads,
            ..SchedulerConfig::default()
        },
    );
    let burst = 2 * options.tenants * options.queue_depth;
    let mut rng = Xoshiro256::new(options.seed).derive(u64::MAX);
    let start = Instant::now();
    let handles: Vec<_> = (0..burst)
        .map(|i| {
            let kind = rng.choose_weighted(&mix.weights);
            scheduler.submit_with(
                &mix.jobs[kind].1,
                SubmitOptions::new().tenant(format!("cal-{}", i % options.tenants)),
            )
        })
        .collect::<Result<_>>()?;
    for handle in handles {
        handle.wait()?;
    }
    Ok(burst as f64 / start.elapsed().as_secs_f64().max(1e-9))
}

/// One pre-generated arrival of the Poisson schedule.
struct Arrival {
    at: Duration,
    client: usize,
    kind: usize,
}

/// Run one offered-load point: seeded Poisson arrivals at `rate` jobs/sec
/// for the window, each arrival a command on a seeded-random client's
/// session — open cursor (or get shed with `Overloaded`), page to done,
/// verify the row count against the one-shot reference. Latency runs from
/// the scheduled arrival time. After the point, the gate is dropped and
/// the harness asserts zero leaked IOPS permits and snapshots.
fn run_point(
    fixture: &OpenLoopFixture,
    options: &OpenLoopOptions,
    mix: &QueryMix,
    multiplier: f64,
    rate: f64,
) -> Result<OpenLoopPoint> {
    let cluster = &fixture.fig7.cluster;
    let permits_at_rest = cluster.available_iops_permits();
    let metrics_before = cluster.metrics().snapshot();

    let gate = Arc::new(HarborGate::with_config(
        HarborScheduler::new(
            cluster.clone(),
            SchedulerConfig {
                pool_threads: fixture.fig7.config.smpe_threads,
                max_tenant_queue_depth: Some(options.queue_depth),
                ..SchedulerConfig::default()
            },
        ),
        GateConfig::default(),
    ));
    let sessions: Vec<_> = (0..options.clients)
        .map(|i| gate.open_session(&format!("tenant-{}", i % options.tenants)))
        .collect::<Result<_>>()?;

    // Pre-generate the whole schedule so the dispatch loop is pure sleeps.
    let mut rng = Xoshiro256::new(options.seed).derive(multiplier.to_bits());
    let mut schedule: Vec<Arrival> = Vec::new();
    let mut at = Duration::ZERO;
    loop {
        let step = -(1.0 - rng.gen_f64()).ln() / rate;
        at += Duration::from_secs_f64(step);
        if at >= options.window {
            break;
        }
        schedule.push(Arrival {
            at,
            client: rng.gen_range(options.clients as u64) as usize,
            kind: rng.choose_weighted(&mix.weights),
        });
    }

    let mut shed = 0usize;
    // (tenant, latency, completion instant relative to point start)
    let outcomes: Arc<Mutex<Vec<(usize, Duration, Duration)>>> = Arc::new(Mutex::new(Vec::new()));
    let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let mut workers = Vec::new();
    let arrivals = schedule.len();
    for arrival in schedule {
        if let Some(pause) = arrival.at.checked_sub(start.elapsed()) {
            std::thread::sleep(pause);
        }
        // Admission runs on the dispatcher thread: opening a cursor is
        // synchronous and non-blocking (submit + return), and shedding is
        // instantaneous — so an overloaded run costs one worker thread
        // per *admitted* query, not per arrival.
        let session = sessions[arrival.client];
        let job = &mix.jobs[arrival.kind].1;
        let name = mix.jobs[arrival.kind].0;
        let cursor = match gate.open_cursor_with(session, job, QueryOptions::default()) {
            Ok(cursor) => cursor,
            Err(RedeError::Overloaded(_)) => {
                shed += 1;
                continue;
            }
            Err(err) => {
                return Err(RedeError::Exec(format!(
                    "open-loop point failed: {name}: open: {err}"
                )))
            }
        };
        let gate = gate.clone();
        let expected = mix.jobs[arrival.kind].2;
        let tenant = arrival.client % options.tenants;
        let page_size = options.page_size;
        let sched_at = arrival.at;
        let outcomes = outcomes.clone();
        let errors = errors.clone();
        workers.push(std::thread::spawn(move || {
            let mut rows = 0u64;
            loop {
                match gate.fetch(cursor, page_size) {
                    Ok(page) => {
                        rows += page.records.len() as u64;
                        if page.done {
                            break;
                        }
                    }
                    Err(err) => {
                        errors.lock().unwrap().push(format!("{name}: fetch: {err}"));
                        return;
                    }
                }
            }
            if rows != expected {
                errors
                    .lock()
                    .unwrap()
                    .push(format!("{name}: {rows} rows, one-shot run said {expected}"));
                return;
            }
            let done_at = start.elapsed();
            outcomes
                .lock()
                .unwrap()
                .push((tenant, done_at.saturating_sub(sched_at), done_at));
        }));
    }
    for worker in workers {
        worker.join().expect("open-loop worker panicked");
    }
    let wall = start.elapsed();

    if let Some(err) = errors.lock().unwrap().first() {
        return Err(RedeError::Exec(format!("open-loop point failed: {err}")));
    }

    let mut per_tenant_completed = vec![0usize; options.tenants];
    let mut latencies: Vec<Duration> = Vec::new();
    let mut completed_in_window = 0usize;
    for (tenant, latency, done_at) in outcomes.lock().unwrap().iter() {
        per_tenant_completed[*tenant] += 1;
        latencies.push(*latency);
        if *done_at <= options.window {
            completed_in_window += 1;
        }
    }
    latencies.sort();

    // Leak check: dropping the gate closes every session and cancels any
    // straggling cursor; everything the point held must come back.
    drop(gate);
    let permits_now = cluster.available_iops_permits();
    if permits_now != permits_at_rest {
        return Err(RedeError::Exec(format!(
            "IOPS permits leaked: at rest {permits_at_rest:?}, after point {permits_now:?}"
        )));
    }
    if cluster.metrics().snapshots_active() != 0 {
        return Err(RedeError::Exec(format!(
            "{} snapshots still pinned after the point",
            cluster.metrics().snapshots_active()
        )));
    }
    let recovery = cluster.metrics().snapshot().since(&metrics_before);

    Ok(OpenLoopPoint {
        multiplier,
        offered_rate: rate,
        arrivals,
        completed: latencies.len(),
        completed_in_window,
        window: options.window,
        shed,
        wall,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        per_tenant_completed,
        faults_injected: recovery.faults_injected,
        retries: recovery.retries,
        rerouted_reads: recovery.rerouted_reads,
    })
}

/// Run the full open-loop sweep: calibrate, then one point per rate
/// multiplier (ascending), each on a fresh gate over the shared fixture.
pub fn run_openloop(
    fixture: &OpenLoopFixture,
    options: &OpenLoopOptions,
) -> Result<OpenLoopReport> {
    // Snapshot before the reference runs: under a fault plan each access
    // site faults at most once globally, and the references visit most of
    // them — baselining here makes the run-level recovery counters show
    // the plan fired even though later points mostly re-read survivors.
    let metrics_before = fixture.fig7.cluster.metrics().snapshot();
    let mix = build_mix(fixture, options)?;
    let capacity = calibrate(fixture, options, &mix)?;
    let mut multipliers = options.rate_multipliers.clone();
    multipliers.sort_by(|a, b| a.partial_cmp(b).expect("finite multipliers"));
    let mut points = Vec::with_capacity(multipliers.len());
    for multiplier in multipliers {
        points.push(run_point(
            fixture,
            options,
            &mix,
            multiplier,
            multiplier * capacity,
        )?);
    }
    let recovery = fixture
        .fig7
        .cluster
        .metrics()
        .snapshot()
        .since(&metrics_before);
    Ok(OpenLoopReport {
        capacity_estimate: capacity,
        points,
        faults_injected: recovery.faults_injected,
        retries: recovery.retries,
        rerouted_reads: recovery.rerouted_reads,
    })
}

// ---------------------------------------------------------------------------
// BENCH_smpe.json baseline: one committed file at the workspace root with
// one top-level key per bench. Each bench rewrites only its own section so
// regenerating one ablation never drops another's committed baseline.
// ---------------------------------------------------------------------------

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_smpe.json")
}

/// Split a top-level JSON object into raw `(key, value-text)` pairs.
///
/// A tiny scanner instead of a JSON dependency: it only needs to find the
/// top-level keys and their balanced bodies, tracking string literals so
/// braces inside workload descriptions don't confuse the depth count.
/// Anything that is not a JSON object yields an empty list.
fn split_sections(text: &str) -> Vec<(String, String)> {
    let b = text.as_bytes();
    let n = b.len();
    let mut i = 0;
    while i < n && b[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= n || b[i] != b'{' {
        return Vec::new();
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        while i < n && (b[i].is_ascii_whitespace() || b[i] == b',') {
            i += 1;
        }
        if i >= n || b[i] == b'}' {
            break;
        }
        if b[i] != b'"' {
            return Vec::new();
        }
        i += 1;
        let key_start = i;
        while i < n && b[i] != b'"' {
            if b[i] == b'\\' {
                i += 1;
            }
            i += 1;
        }
        if i >= n {
            return Vec::new();
        }
        let key = text[key_start..i].to_string();
        i += 1;
        while i < n && (b[i].is_ascii_whitespace() || b[i] == b':') {
            i += 1;
        }
        let value_start = i;
        let mut depth = 0usize;
        let mut in_string = false;
        while i < n {
            let c = b[i];
            if in_string {
                if c == b'\\' {
                    i += 1;
                } else if c == b'"' {
                    in_string = false;
                }
            } else {
                match c {
                    b'"' => in_string = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' if depth == 0 => break, // enclosing object's close
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        out.push((key, text[value_start..i].trim_end().to_string()));
    }
    out
}

/// Read-merge-write one bench's section into `BENCH_smpe.json`,
/// preserving every other bench's committed baseline. `body` is the
/// section's rendered JSON value (an object, indented two spaces deeper
/// than top level). Legacy flat files (a top-level `"bench"` key from the
/// pre-section format) are discarded and rebuilt.
pub fn write_baseline_section(bench: &str, body: &str) {
    let path = baseline_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let mut sections = split_sections(&existing);
    if sections.iter().any(|(k, _)| k == "bench") {
        sections.clear();
    }
    match sections.iter_mut().find(|(k, _)| k == bench) {
        Some(entry) => entry.1 = body.trim_end().to_string(),
        None => sections.push((bench.to_string(), body.trim_end().to_string())),
    }
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let rendered: Vec<String> = sections
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", rendered.join(",\n"));
    std::fs::write(&path, json).expect("write BENCH_smpe.json");
    eprintln!("[bench] wrote section \"{bench}\" of {}", path.display());
}

/// Format a duration in adaptive units for report tables.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_point_runs_and_systems_agree() {
        let fixture = Fig7Fixture::build(Fig7Config {
            nodes: 2,
            partitions: 8,
            scale_factor: 0.001,
            io_scale: 0.0, // counts only; keep the test fast
            smpe_threads: 32,
            cores_per_node: 4,
            seed: 1,
            ..Fig7Config::default()
        })
        .unwrap();
        let point = fixture.run_point(0.01).unwrap();
        assert!(point.output_rows > 0);
        assert!(
            point.impala_accesses > point.rede_accesses * 5,
            "scans dwarf index accesses at 1%"
        );
        // Default owner routing keeps SMPE heap reads node-local.
        assert!(point.rede_local_reads > 0);
        assert_eq!(point.rede_remote_reads, 0);
        assert_eq!(point.rede_locality(), 1.0);
    }

    #[test]
    fn fig9_rows_are_normalized_below_one() {
        let rows = run_fig9(&Fig9Config {
            claims: 2_000,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.qualifying_claims > 0, "{} selected nothing", row.query);
            assert!(
                row.normalized_rede() < 0.5,
                "{}: normalized {} not ≪ 1",
                row.query,
                row.normalized_rede()
            );
        }
    }

    #[test]
    fn baseline_sections_split_and_preserve_nested_braces() {
        let text = concat!(
            "{\n",
            "  \"a\": {\n",
            "    \"workload\": \"K in {1,4} ⋈ 20µs\",\n",
            "    \"configs\": [ {\"x\": 1}, {\"y\": [2, 3]} ]\n",
            "  },\n",
            "  \"b\": { \"n\": 7 }\n",
            "}\n"
        );
        let sections = split_sections(text);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, "a");
        assert!(sections[0].1.contains("K in {1,4}"));
        assert!(sections[0].1.ends_with('}'));
        assert_eq!(sections[1].0, "b");
        assert_eq!(sections[1].1, "{ \"n\": 7 }");
        // Not an object (or the legacy flat file parses to its own keys).
        assert!(split_sections("[1, 2]").is_empty());
        let legacy = "{ \"bench\": \"ablation_batching\", \"configs\": [] }";
        assert!(split_sections(legacy).iter().any(|(k, _)| k == "bench"));
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }
}
