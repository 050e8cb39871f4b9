//! Open-loop overload sweep: seeded Poisson arrivals from simulated
//! clients hitting the HarborGate front door with a zipfian TPC-H Q5'/Q6
//! + claims query mix, at several multiples of the calibrated capacity.
//!
//! Unlike a closed loop — where clients wait for each answer before
//! asking again, so the system quietly rate-limits its own load — the
//! arrival process here never slows down: above saturation the gate must
//! *shed* (`Overloaded` at the front door) while the admitted work keeps
//! completing. The sweep reports p50/p99 latency (measured from
//! each arrival's scheduled time), goodput, shed rate, and per-tenant
//! fairness at every offered-load point, then rewrites the `openloop`
//! section of `BENCH_smpe.json`.
//!
//! Every paged result is checked against a one-shot collected reference
//! run, and every point asserts zero leaked IOPS permits and snapshots
//! after its gate drops — a passing sweep is also a correctness result.
//!
//! The process exits non-zero if any point starves a tenant past the
//! fairness bound, if the saturation point's p99/p50 ratio exceeds its
//! bound, or if the sweep fails to show overload shedding with goodput
//! holding at ≥ 90% of the saturation point. CI reads both bounds from
//! the *committed* `BENCH_smpe.json` section before running the smoke.
//!
//! Environment overrides (all optional):
//!
//! ```text
//! OPENLOOP_CLIENTS=1024      simulated clients (sessions)
//! OPENLOOP_TENANTS=4         tenants (client i → tenant i%T)
//! OPENLOOP_RATES=0.4,1,3,9   offered load, × calibrated capacity
//! OPENLOOP_WINDOW_MS=1500    arrival window per point
//! OPENLOOP_ZIPF=1.1          query-mix zipf skew
//! OPENLOOP_SEED=42           arrival/mix/generator seed
//! OPENLOOP_SF=0.005          TPC-H scale factor
//! OPENLOOP_CLAIMS=4000       synthetic claims loaded beside TPC-H
//! OPENLOOP_NODES=4           simulated nodes
//! OPENLOOP_PARTITIONS=16     partitions per file
//! OPENLOOP_IO_SCALE=0.05     latency model scale
//! OPENLOOP_THREADS=256       scheduler pool threads
//! OPENLOOP_DEPTH=8           per-tenant admission bound
//! OPENLOOP_PAGE=256          cursor page size
//! OPENLOOP_FAIRNESS_MAX=4.0  max tolerated per-tenant max/min ratio
//! OPENLOOP_P99_P50_MAX=60.0  max tolerated p99/p50 at saturation
//! OPENLOOP_GOODPUT_MIN=0.9   overload goodput floor, as a fraction of
//!                            the saturation point's goodput
//! OPENLOOP_WRITE_BASELINE=1  0 = don't rewrite BENCH_smpe.json
//! ```
//!
//! Chaos mode: `--faults seed=N` (flag) or `OPENLOOP_FAULT_SEED=N` (env)
//! runs the same sweep on a cluster with the canonical deterministic
//! fault plan and reports the recovery counters; results are still
//! checked against the references.

use rede_bench::{
    chaos_plan, fmt_duration, run_openloop, write_baseline_section, Fig7Config, OpenLoopFixture,
    OpenLoopOptions, OpenLoopPoint, OpenLoopReport,
};
use std::time::Duration;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn rate_multipliers() -> Vec<f64> {
    std::env::var("OPENLOOP_RATES")
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&m: &f64| m > 0.0)
                .collect()
        })
        .ok()
        .filter(|v: &Vec<f64>| v.len() >= 2)
        .unwrap_or_else(|| OpenLoopOptions::default().rate_multipliers)
}

/// `--faults seed=N` from argv, falling back to `OPENLOOP_FAULT_SEED`.
fn fault_seed() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        let spec = args.get(pos + 1).unwrap_or_else(|| {
            eprintln!("--faults requires an argument: seed=N");
            std::process::exit(2);
        });
        let seed = spec
            .strip_prefix("seed=")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("bad --faults argument '{spec}' (expected seed=N)");
                std::process::exit(2);
            });
        return Some(seed);
    }
    std::env::var("OPENLOOP_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn render_section(
    options: &OpenLoopOptions,
    report: &OpenLoopReport,
    fairness_max: f64,
    p99_p50_max: f64,
    goodput_min: f64,
) -> String {
    let rows: Vec<String> = report
        .points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "      {{ \"offered_multiplier\": {:.2}, \"offered_jobs_per_sec\": {:.2}, ",
                    "\"arrivals\": {}, \"completed\": {}, \"completed_in_window\": {}, ",
                    "\"shed\": {}, \"shed_rate\": {:.4}, ",
                    "\"goodput_jobs_per_sec\": {:.2}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, ",
                    "\"fairness_ratio\": {:.2}, \"per_tenant_completed\": {:?}, ",
                    "\"faults_injected\": {}, \"retries\": {}, \"rerouted_reads\": {} }}"
                ),
                p.multiplier,
                p.offered_rate,
                p.arrivals,
                p.completed,
                p.completed_in_window,
                p.shed,
                p.shed_rate(),
                p.goodput(),
                p.p50.as_secs_f64() * 1e3,
                p.p99.as_secs_f64() * 1e3,
                p.fairness_ratio(),
                p.per_tenant_completed,
                p.faults_injected,
                p.retries,
                p.rerouted_reads,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"workload\": \"open-loop Poisson arrivals, zipf({:.2}) mix over ",
            "[q5', q6, claims q1-q3], {} clients / {} tenants, admission depth {}\",\n",
            "    \"seed\": {},\n",
            "    \"capacity_estimate_jobs_per_sec\": {:.2},\n",
            "    \"recovery\": {{ \"faults_injected\": {}, \"retries\": {}, ",
            "\"rerouted_reads\": {} }},\n",
            "    \"ci_gates\": {{ \"fairness_max\": {:.1}, \"p99_over_p50_max\": {:.1}, ",
            "\"goodput_min_frac\": {:.2} }},\n",
            "    \"points\": [\n{}\n    ]\n",
            "  }}"
        ),
        options.zipf_skew,
        options.clients,
        options.tenants,
        options.queue_depth,
        options.seed,
        report.capacity_estimate,
        report.faults_injected,
        report.retries,
        report.rerouted_reads,
        fairness_max,
        p99_p50_max,
        goodput_min,
        rows.join(",\n"),
    )
}

fn main() {
    let fault_seed = fault_seed();
    let nodes = env_or("OPENLOOP_NODES", 4);
    let config = Fig7Config {
        nodes,
        partitions: env_or("OPENLOOP_PARTITIONS", 16),
        scale_factor: env_or("OPENLOOP_SF", 0.005),
        io_scale: env_or("OPENLOOP_IO_SCALE", 0.05),
        smpe_threads: env_or("OPENLOOP_THREADS", 256),
        seed: env_or("OPENLOOP_SEED", 42),
        faults: fault_seed.map(|seed| chaos_plan(seed, nodes)),
        ..Fig7Config::default()
    };
    let options = OpenLoopOptions {
        clients: env_or("OPENLOOP_CLIENTS", 1024),
        tenants: env_or("OPENLOOP_TENANTS", 4),
        rate_multipliers: rate_multipliers(),
        window: Duration::from_millis(env_or("OPENLOOP_WINDOW_MS", 1500)),
        zipf_skew: env_or("OPENLOOP_ZIPF", 1.1),
        seed: env_or("OPENLOOP_SEED", 42),
        page_size: env_or("OPENLOOP_PAGE", 256),
        queue_depth: env_or("OPENLOOP_DEPTH", 8),
        ..OpenLoopOptions::default()
    };
    let fairness_max: f64 = env_or("OPENLOOP_FAIRNESS_MAX", 4.0);
    let p99_p50_max: f64 = env_or("OPENLOOP_P99_P50_MAX", 60.0);
    // Fraction of the saturation point's goodput every overloaded point
    // must hold. 0.9 for the committed full-scale baseline; CI smoke runs
    // on small shared runners relax it, since at tiny windows the
    // in-window edge effects and CPU contention dominate the signal.
    let goodput_min: f64 = env_or("OPENLOOP_GOODPUT_MIN", 0.9);

    eprintln!(
        "loading TPC-H sf={} + {} claims on {} nodes ({} partitions, io_scale {}) …",
        config.scale_factor,
        env_or("OPENLOOP_CLAIMS", 4000usize),
        config.nodes,
        config.partitions,
        config.io_scale
    );
    if let Some(seed) = fault_seed {
        eprintln!("chaos mode: fault seed {seed} (transient 5% + brown-out + node-down)");
    }
    let fixture = OpenLoopFixture::build(config, env_or("OPENLOOP_CLAIMS", 4000)).expect("fixture");
    eprintln!(
        "loaded: {} lineitem rows, {} orders rows, {} claims",
        fixture.fig7.lineitem_rows, fixture.fig7.orders_rows, fixture.claims
    );

    let report = run_openloop(&fixture, &options).expect("open-loop sweep");
    eprintln!(
        "capacity estimate: {:.1} jobs/s (closed calibration burst)",
        report.capacity_estimate
    );
    println!(
        "{:>6} {:>9} {:>9} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9}  per-tenant",
        "x cap", "offered/s", "arrivals", "done", "shed", "shed%", "goodput/s", "p50", "p99"
    );
    for p in &report.points {
        println!(
            "{:>6.2} {:>9.1} {:>9} {:>6} {:>6} {:>7.1}% {:>9.1} {:>9} {:>9}  {:?} (ratio {:.2})",
            p.multiplier,
            p.offered_rate,
            p.arrivals,
            p.completed,
            p.shed,
            p.shed_rate() * 100.0,
            p.goodput(),
            fmt_duration(p.p50),
            fmt_duration(p.p99),
            p.per_tenant_completed,
            p.fairness_ratio(),
        );
        if fault_seed.is_some() && p.faults_injected + p.retries + p.rerouted_reads > 0 {
            println!(
                "{:>6} recovery: {} faults injected, {} retries, {} rerouted reads",
                "", p.faults_injected, p.retries, p.rerouted_reads,
            );
        }
    }
    if fault_seed.is_some() {
        println!(
            "run-wide recovery (references + calibration + sweep): {} faults injected, {} retries, {} rerouted reads",
            report.faults_injected, report.retries, report.rerouted_reads,
        );
    }

    let mut failed = false;
    // A chaos run whose plan never fired proves nothing: each access site
    // faults at most once globally, so the run-level counters (baselined
    // before the reference runs) must show injected faults survived.
    if fault_seed.is_some() && report.faults_injected == 0 {
        eprintln!("CHAOS PLAN INERT: --faults was requested but no fault ever fired");
        failed = true;
    }
    // Fairness gate: no tenant may starve at any offered load (judged
    // only where the sample is meaningful).
    for p in &report.points {
        if p.completed >= 4 * p.per_tenant_completed.len() && p.fairness_ratio() > fairness_max {
            eprintln!(
                "FAIRNESS VIOLATION at {:.2}x: max/min completed ratio {:.2} > bound {:.2} ({:?})",
                p.multiplier,
                p.fairness_ratio(),
                fairness_max,
                p.per_tenant_completed
            );
            failed = true;
        }
    }
    // Saturation analysis: the knee is the highest offered load the
    // system absorbs nearly fully (shed ≤ 5%). Every point above it must
    // shed at the front door — yet goodput must hold at ≥ 90% of the
    // knee's: overload may be *refused*, never allowed to collapse the
    // work that was admitted.
    let sat = report
        .points
        .iter()
        .rfind(|p| p.shed_rate() <= 0.05)
        .unwrap_or(&report.points[0]);
    let p50 = sat.p50.as_secs_f64().max(1e-9);
    let tail_ratio = sat.p99.as_secs_f64() / p50;
    if tail_ratio > p99_p50_max {
        eprintln!(
            "TAIL VIOLATION at saturation ({:.2}x): p99/p50 {:.1} > bound {:.1}",
            sat.multiplier, tail_ratio, p99_p50_max
        );
        failed = true;
    }
    let overloaded: Vec<&OpenLoopPoint> = report
        .points
        .iter()
        .filter(|p| p.multiplier > sat.multiplier)
        .collect();
    if overloaded.is_empty() {
        eprintln!(
            "SWEEP TOO NARROW: no offered-load point above the saturation knee ({:.2}x)",
            sat.multiplier
        );
        failed = true;
    }
    for p in overloaded {
        if p.shed == 0 {
            eprintln!(
                "NO SHEDDING at {:.2}x: overload must be refused at the front door",
                p.multiplier
            );
            failed = true;
        }
        if p.goodput() < goodput_min * sat.goodput() {
            eprintln!(
                "GOODPUT COLLAPSE at {:.2}x: {:.1} jobs/s < {:.0}% of saturation ({:.1})",
                p.multiplier,
                p.goodput(),
                goodput_min * 100.0,
                sat.goodput()
            );
            failed = true;
        }
    }

    if env_or("OPENLOOP_WRITE_BASELINE", 1u8) == 1 {
        write_baseline_section(
            "openloop",
            &render_section(&options, &report, fairness_max, p99_p50_max, goodput_min),
        );
    }
    if failed {
        std::process::exit(1);
    }
}
