//! Summarizes figure JSON records (written by the `fig*` binaries with
//! `--json`) into the quantities EXPERIMENTS.md reports: each series'
//! largest in-memory configuration, its peak memory at the first common
//! in-memory point, and spill/OOM boundaries.
//!
//! Usage: `cargo run --release -p mimir-bench --bin summarize -- results/*.json`

use mimir_bench::report::degradation;
use mimir_bench::{Figure, Status};

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: summarize <figure.json>...");
        std::process::exit(2);
    }
    for path in paths {
        let data = match std::fs::read_to_string(&path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("skipping {path}: {e}");
                continue;
            }
        };
        let fig = match mimir_obs::Json::parse(&data)
            .map_err(|e| e.to_string())
            .and_then(|v| Figure::from_json(&v))
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("skipping {path}: not a figure record ({e})");
                continue;
            }
        };
        summarize(&fig);
    }
}

fn summarize(fig: &Figure) {
    println!("\n=== {} — {} ===", fig.id, fig.title);
    println!(
        "{:<22}{:>16}{:>14}{:>16}{:>14}",
        "series", "max in-memory", "spills from", "OOM from", "peak@first"
    );
    for s in &fig.series {
        let mut max_in_mem = "-".to_string();
        let mut first_spill = "-".to_string();
        let mut first_oom = "-".to_string();
        for p in &s.points {
            match p.outcome.status {
                Status::InMemory => max_in_mem = p.x.clone(),
                Status::Spilled if first_spill == "-" => first_spill = p.x.clone(),
                Status::Oom if first_oom == "-" => first_oom = p.x.clone(),
                _ => {}
            }
        }
        let peak_first = s
            .points
            .first()
            .filter(|p| p.outcome.status != Status::Oom)
            .map(|p| {
                format!(
                    "{:.2} MiB",
                    p.outcome.peak_node_bytes as f64 / (1 << 20) as f64
                )
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<22}{:>16}{:>14}{:>16}{:>14}",
            s.label, max_in_mem, first_spill, first_oom, peak_first
        );
    }

    // Degradation factor for single-series figures (Figure 1 style).
    if let Some((in_mem, spilled)) = degradation(fig) {
        println!(
            "degradation: {:.0}x ({in_mem:.3}s -> {spilled:.1}s)",
            spilled / in_mem
        );
    }
}
