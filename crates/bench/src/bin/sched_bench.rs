//! **Job-service mixed-workload bench** — aggregate throughput of the
//! multi-tenant scheduler versus serial execution of the same job mix.
//!
//! The workload is the service's design target: N small WordCounts plus
//! one large BFS, each starting with a paced read of its input from the
//! simulated parallel file system (the I/O model really sleeps the
//! modeled duration, so "waiting on the PFS" occupies wall-clock without
//! occupying a core — exactly the gap concurrency exists to fill). The
//! *serial* baseline runs the identical specs through the identical
//! scheduler with `max_running = 1`; the *concurrent* run allows 3 jobs
//! in flight, so one job's I/O stall overlaps another's map/shuffle
//! compute.
//!
//! Writes `BENCH_sched.json`; `--quick` shrinks the mix for the CI
//! smoke gate. The acceptance bar is ≥1.3× aggregate throughput
//! (serial wall-clock / concurrent wall-clock of one run each) with
//! zero budget violations, every job done and identical outputs in both
//! runs; a `REGRESSION` marker (nonzero exit) fires otherwise.

use std::time::Instant;

use mimir_apps::bfs::{bfs_mimir, BfsOptions};
use mimir_apps::wordcount::{wordcount_mimir, WcOptions};
use mimir_bench::harness::{Args, Report};
use mimir_datagen::{Graph500, UniformWords};
use mimir_io::{IoModel, IoModelConfig};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::Json;
use mimir_sched::{JobOutcome, JobService, JobSpec, JobYield, SchedConfig};

const RANKS: usize = 4;
const BUDGET: usize = 24 << 20;

#[derive(Clone, Copy)]
struct Mix {
    n_wordcounts: u64,
    wc_bytes_per_rank: usize,
    /// Simulated PFS input read per WordCount, bytes (paced).
    wc_read_bytes: usize,
    bfs_scale: u32,
    bfs_read_bytes: usize,
}

struct RunResult {
    wall_s: f64,
    /// Concatenated per-job digests — must be identical across runs.
    digest: Vec<u8>,
    peak_bytes: usize,
    used_after: usize,
    all_done: bool,
}

fn build_specs(mix: Mix) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for j in 0..mix.n_wordcounts {
        specs.push(
            JobSpec::new(format!("wc{j}"), 1 << 20, move |ctx| {
                // Paced ingest: the job waits on the simulated PFS.
                ctx.io().charge_read(mix.wc_read_bytes);
                let text = UniformWords::new(j + 1).generate(
                    ctx.rank(),
                    ctx.size(),
                    mix.wc_bytes_per_rank,
                );
                let (mut counts, _m) = wordcount_mimir(ctx, &text, &WcOptions::all())?;
                counts.sort();
                let mut data = Vec::new();
                for (word, n) in &counts {
                    data.extend_from_slice(word);
                    data.extend_from_slice(&n.to_le_bytes());
                }
                let kvs = counts.len() as u64;
                Ok(JobYield {
                    data,
                    kvs_out: kvs,
                    spill_bytes: 0,
                })
            })
            .priority(1),
        );
    }
    specs.push(
        JobSpec::new("bfs", 4 << 20, move |ctx| {
            ctx.io().charge_read(mix.bfs_read_bytes);
            let graph = Graph500::new(mix.bfs_scale, 42);
            let edges = graph.edges(ctx.rank(), ctx.size());
            let (result, _m) = bfs_mimir(ctx, &edges, 1, &BfsOptions::all())?;
            let mut data = result.visited_global.to_le_bytes().to_vec();
            data.extend_from_slice(&u64::from(result.depth).to_le_bytes());
            Ok(JobYield::from_data(data))
        })
        .priority(2),
    );
    specs
}

/// Runs the whole mix through the service with the given concurrency
/// and folds the per-rank results.
fn run_mix(mix: Mix, max_running: usize) -> RunResult {
    let per_rank = run_world(RANKS, move |comm| {
        let pool = MemPool::new(format!("node{}", comm.rank()), 64 * 1024, BUDGET).unwrap();
        let io = IoModel::new(IoModelConfig::lustre_scaled()).unwrap();
        io.set_paced(true);
        let cfg = SchedConfig {
            queue_cap: 16,
            max_running,
            max_retries: 3,
        };
        let mut svc = JobService::new(comm, pool, io, cfg);
        let t0 = Instant::now();
        let ids: Vec<u64> = build_specs(mix)
            .into_iter()
            .map(|s| svc.submit(s))
            .collect();
        svc.run_until_idle();
        let wall_s = t0.elapsed().as_secs_f64();
        let all_done = ids
            .iter()
            .all(|&id| svc.outcome(id) == Some(JobOutcome::Done));
        let mut digest = Vec::new();
        for &id in &ids {
            if let Some(y) = svc.take_output(id) {
                digest.extend_from_slice(&y.data);
            }
        }
        RunResult {
            wall_s,
            digest,
            peak_bytes: svc.pool().peak(),
            used_after: svc.pool().used(),
            all_done,
        }
    });
    // Wall-clock is the slowest rank; digests concatenate rank-ordered.
    per_rank
        .into_iter()
        .reduce(|a, b| RunResult {
            wall_s: a.wall_s.max(b.wall_s),
            digest: [a.digest, b.digest].concat(),
            peak_bytes: a.peak_bytes.max(b.peak_bytes),
            used_after: a.used_after.max(b.used_after),
            all_done: a.all_done && b.all_done,
        })
        .expect("at least one rank")
}

fn main() {
    let args = Args::parse();
    let mix = if args.quick {
        Mix {
            n_wordcounts: 4,
            wc_bytes_per_rank: 8 * 1024,
            wc_read_bytes: 2 << 20,
            bfs_scale: 9,
            bfs_read_bytes: 4 << 20,
        }
    } else {
        Mix {
            n_wordcounts: 8,
            wc_bytes_per_rank: 48 * 1024,
            wc_read_bytes: 8 << 20,
            bfs_scale: 12,
            bfs_read_bytes: 24 << 20,
        }
    };

    println!(
        "mixed workload: {} wordcounts + 1 BFS (scale {}) on {RANKS} ranks, {} MiB/node budget",
        mix.n_wordcounts,
        mix.bfs_scale,
        BUDGET >> 20
    );

    let serial = run_mix(mix, 1);
    let concurrent = run_mix(mix, 3);

    let speedup = serial.wall_s / concurrent.wall_s;
    let mut report = Report::new("sched_mixed_workload", &args);
    println!(
        "{:<12}{:>10}{:>12}{:>14}{:>10}",
        "mode", "wall(s)", "peak(MiB)", "jobs done", "speedup"
    );
    for (mode, r, s) in [
        ("serial", &serial, 1.0),
        ("concurrent", &concurrent, speedup),
    ] {
        println!(
            "{:<12}{:>10.3}{:>12.2}{:>14}{:>9.2}x",
            mode,
            r.wall_s,
            r.peak_bytes as f64 / (1 << 20) as f64,
            if r.all_done { "all" } else { "NOT ALL" },
            s,
        );
        report.cell(vec![
            ("mode", Json::Str(mode.into())),
            ("wall_s", Json::Num(r.wall_s)),
            ("peak_bytes", Json::Num(r.peak_bytes as f64)),
            ("used_after", Json::Num(r.used_after as f64)),
            ("all_done", Json::Bool(r.all_done)),
        ]);
    }

    report.field("ranks", Json::Num(RANKS as f64));
    report.field("node_budget_bytes", Json::Num(BUDGET as f64));
    report.field("n_wordcounts", Json::Num(mix.n_wordcounts as f64));
    report.field("bfs_scale", Json::Num(f64::from(mix.bfs_scale)));
    report.gate(
        "aggregate speedup, concurrent vs serial",
        speedup,
        1.3,
        speedup >= 1.3,
        None,
    );
    report.check("outputs match", serial.digest == concurrent.digest);
    report.check(
        "budget kept and credited back",
        [&serial, &concurrent]
            .iter()
            .all(|r| r.peak_bytes <= BUDGET && r.used_after == 0),
    );
    report.check("every job done", serial.all_done && concurrent.all_done);
    report.finish(&args, "BENCH_sched.json");
}
