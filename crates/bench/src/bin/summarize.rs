//! Summarizes figure JSON records (written by the `fig*` binaries with
//! `--json`) into the quantities EXPERIMENTS.md reports: each series'
//! largest in-memory configuration, its peak memory at the first common
//! in-memory point, and spill/OOM boundaries.
//!
//! Each file's provenance (the commit, binary and arguments that wrote
//! it) is printed above its table, and a file whose last commit is older
//! than the last change to the engine's crates is flagged. The flag is
//! information, not a failure: the exit status does not depend on it.
//!
//! Usage: `cargo run --release -p mimir-bench --bin summarize -- results/*.json`

use mimir_bench::report::degradation;
use mimir_bench::{Figure, Status};
use mimir_obs::Json;

/// The crates whose code a figure measures.
const ENGINE: [&str; 5] = [
    "crates/core",
    "crates/mem",
    "crates/mpi",
    "crates/apps",
    "crates/mrmpi",
];

/// `git <args>`'s trimmed output, or `None` outside a checkout.
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The last commit that changed the engine: its short hash and time.
fn last_engine_change() -> Option<(String, i64)> {
    let mut args = vec!["log", "-1", "--format=%h %ct", "--"];
    args.extend(ENGINE);
    let line = git(&args)?;
    let (hash, time) = line.split_once(' ')?;
    Some((hash.to_string(), time.parse().ok()?))
}

/// When `path` was last committed; `None` if it has uncommitted changes
/// (newer than any commit) or is not in a checkout.
fn last_commit_time(path: &str) -> Option<i64> {
    if !git(&["status", "--porcelain", "--", path])?.is_empty() {
        return None;
    }
    git(&["log", "-1", "--format=%ct", "--", path])?
        .parse()
        .ok()
}

/// One line naming where a record came from.
fn describe_provenance(record: &Json) -> String {
    let Some(p) = record.get("provenance") else {
        return "provenance: none (written before records carried one)".into();
    };
    let field = |key: &str| p.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
    let args: Vec<&str> = p
        .get("args")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    let dirty = match p.get("dirty").and_then(Json::as_bool) {
        Some(true) => " with uncommitted engine changes",
        _ => "",
    };
    format!(
        "provenance: commit {}{dirty}, `{} {}`, {}, nproc {}",
        field("commit"),
        field("binary"),
        args.join(" "),
        field("mode"),
        p.get("nproc").and_then(Json::as_u64).unwrap_or(0),
    )
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: summarize <figure.json>...");
        std::process::exit(2);
    }
    let engine = last_engine_change();
    for path in paths {
        let data = match std::fs::read_to_string(&path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("skipping {path}: {e}");
                continue;
            }
        };
        let (record, fig) = match Json::parse(&data)
            .map_err(|e| e.to_string())
            .and_then(|v| Figure::from_json(&v).map(|f| (v, f)))
        {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("skipping {path}: not a figure record ({e})");
                continue;
            }
        };
        summarize(&fig);
        println!("{path}: {}", describe_provenance(&record));
        if let (Some((hash, engine_time)), Some(file_time)) = (&engine, last_commit_time(&path)) {
            if file_time < *engine_time {
                println!("{path}: older than the last engine change ({hash})");
            }
        }
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
