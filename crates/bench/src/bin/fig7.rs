//! Regenerate Fig. 7: "Performance comparison between a data lake system
//! and a LakeHarbor system (ReDe)" — TPC-H Q5' execution time vs.
//! selectivity for the Impala-like baseline, ReDe w/o SMPE, and ReDe w/
//! SMPE.
//!
//! Environment knobs (all optional):
//!   FIG7_SF        scale factor            (default 0.01)
//!   FIG7_NODES     simulated nodes         (default 4)
//!   FIG7_THREADS   SMPE pool threads       (default 512)
//!   FIG7_IO_SCALE  latency model scale     (default 1.0)
//!   FIG7_CACHE     total record-cache bytes    (default: no cache)
//!   FIG7_MEMORY    shared buffer-pool byte budget over all paged
//!                  structures + the record cache (default: unbounded)
//!
//! Flags:
//!   --profile      after each selectivity row, print the SMPE run's
//!                  counters, then its execution profile (per-stage and
//!                  per-node tables)
//!
//! Output: one row per selectivity with wall-clock (threads really sleep
//! through the injected latencies, so overlap is physical) and the
//! deterministic cost-model time in parentheses.

use rede_bench::{fig7_selectivities, fmt_duration, Fig7Config, Fig7Fixture};

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let profile = std::env::args().any(|a| a == "--profile");
    let config = Fig7Config {
        nodes: env_usize("FIG7_NODES", 4),
        partitions: env_usize("FIG7_NODES", 4) * 8,
        scale_factor: env_f64("FIG7_SF", 0.01),
        io_scale: env_f64("FIG7_IO_SCALE", 1.0),
        smpe_threads: env_usize("FIG7_THREADS", 512),
        cores_per_node: 8,
        seed: 42,
        record_cache: std::env::var("FIG7_CACHE")
            .ok()
            .and_then(|v| v.parse().ok()),
        memory_budget: std::env::var("FIG7_MEMORY")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..Fig7Config::default()
    };
    eprintln!(
        "[fig7] loading TPC-H SF={} on {} nodes …",
        config.scale_factor, config.nodes
    );
    let t0 = std::time::Instant::now();
    let fixture = Fig7Fixture::build(config.clone()).expect("load TPC-H");
    eprintln!(
        "[fig7] loaded {} orders / {} lineitems (+5 indexes) in {}",
        fixture.orders_rows,
        fixture.lineitem_rows,
        fmt_duration(t0.elapsed())
    );

    println!("# Fig. 7 — TPC-H Q5' execution time vs. selectivity");
    println!(
        "# nodes={} sf={} smpe_threads={} io_scale={} (wall-clock, cost-model in parens)",
        config.nodes, config.scale_factor, config.smpe_threads, config.io_scale
    );
    println!(
        "# baseline shuffle locality: {:?} (see `ablation_routing` for the charged\n\
         # Remote/Local shuffle models); ReDe point reads use owner-coalesced batching",
        config.shuffle
    );
    println!(
        "{:>12} {:>8} {:>22} {:>22} {:>22} {:>10} {:>9}",
        "selectivity", "rows", "impala", "rede-w/o-smpe", "rede-w/-smpe", "speedup", "locality"
    );
    for sel in fig7_selectivities() {
        let p = fixture.run_point(sel).expect("run point");
        let speedup = p.impala_wall.as_secs_f64() / p.rede_smpe_wall.as_secs_f64().max(1e-9);
        println!(
            "{:>12} {:>8} {:>11} ({:>8}) {:>11} ({:>8}) {:>11} ({:>8}) {:>9.1}x {:>8.1}%",
            format!("{sel:.0e}"),
            p.output_rows,
            fmt_duration(p.impala_wall),
            fmt_duration(p.impala_modeled),
            fmt_duration(p.rede_wo_smpe_wall),
            fmt_duration(p.rede_wo_smpe_modeled),
            fmt_duration(p.rede_smpe_wall),
            fmt_duration(p.rede_smpe_modeled),
            speedup,
            p.rede_locality() * 100.0
        );
        if profile {
            print!("{}\n{}", p.rede_metrics, p.rede_profile);
        }
    }
    println!("# paper shape: ReDe w/ SMPE >> Impala at low/mid selectivity (>10x),");
    println!("# ReDe w/o SMPE only marginally better at very low selectivity,");
    println!("# Impala wins at high selectivity (no optimizer fallback in ReDe).");
    let pool = fixture.cluster.buffer_stats();
    if config.memory_budget.is_some() {
        println!(
            "# memory budget {} B: {} resident / {} spilled bytes, {} faults, {} evictions",
            pool.budget_total, pool.resident_bytes, pool.disk_bytes, pool.faults, pool.evictions
        );
        // Every sweep touches far more structure than a constrained budget
        // holds: a budgeted run that never faulted means the paging path
        // silently fell out of the loop.
        assert!(
            pool.faults > 0,
            "FIG7_MEMORY set but the run never faulted a page"
        );
        assert!(
            pool.budget_used <= pool.budget_total,
            "resident bytes {} exceed the configured budget {}",
            pool.budget_used,
            pool.budget_total
        );
    }
}
