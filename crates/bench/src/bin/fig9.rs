//! Regenerate Fig. 9: "Differences in the number of record accesses
//! between a data warehouse system that employs fine-grained massively
//! parallel execution and a LakeHarbor system (ReDe). The numbers are
//! normalized based on the number of the data warehouse system."
//!
//! Environment knobs (all optional):
//!   FIG9_CLAIMS  number of synthetic claims  (default 20000)
//!   FIG9_NODES   simulated nodes             (default 4)
//!   FIG9_SEED    generator seed              (default 42)
//!
//! Flags:
//!   --profile    after each query row, print the ReDe run's counters,
//!                then its execution profile (per-stage and per-node
//!                tables)

use rede_bench::{run_fig9, Fig9Config};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let profile = std::env::args().any(|a| a == "--profile");
    let config = Fig9Config {
        nodes: env_usize("FIG9_NODES", 4),
        claims: env_usize("FIG9_CLAIMS", 20_000),
        warehouse_parallelism: 16,
        seed: env_usize("FIG9_SEED", 42) as u64,
    };
    eprintln!(
        "[fig9] generating {} claims on {} nodes …",
        config.claims, config.nodes
    );
    let rows = run_fig9(&config).expect("run fig9");

    println!("# Fig. 9 — record accesses, normalized to the warehouse system");
    println!(
        "# claims={} nodes={} seed={}",
        config.claims, config.nodes, config.seed
    );
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "qry", "wh acc.", "rede acc.", "scan acc.", "wh", "rede", "scan", "matches", "expense sum"
    );
    for row in &rows {
        println!(
            "{:>4} {:>12} {:>12} {:>12} {:>9.3} {:>9.3} {:>9.3} {:>9} {:>12}",
            row.query,
            row.warehouse_accesses,
            row.rede_accesses,
            row.lake_scan_accesses,
            1.0,
            row.normalized_rede(),
            row.lake_scan_accesses as f64 / row.warehouse_accesses.max(1) as f64,
            row.qualifying_claims,
            row.total_expense
        );
        if profile {
            print!("{}\n{}", row.rede_metrics, row.rede_profile);
        }
    }
    println!("# (the paper omitted the plain-lake scan from Fig. 9 — footnote 3: \"a lot");
    println!("#  slower than the others\"; reproduced here for completeness)");
    println!("# paper shape: ReDe accesses a small fraction of the warehouse's records");
    println!("# because schema-on-read over raw nested claims avoids normalization joins.");
}
