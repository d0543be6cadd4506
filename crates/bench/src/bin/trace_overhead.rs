//! **Trace-overhead ablation** — cost of the observability stack on the
//! shuffle hot path, measured on a heavy 8-rank shuffle cell. Five
//! configurations:
//!
//! - `off`: no recorder installed — every `emit`/`flow_*` call is a
//!   thread-local `None` check and nothing else;
//! - `skeleton`: recorder installed, flow stamping disabled — phase,
//!   step, and round spans land in the ring but messages go untraced;
//! - `full-flow`: flow stamping on — every message additionally carries
//!   a flow id and the receive loop records `FlowSend`/`FlowRecv`
//!   pairs, i.e. everything the critical-path engine needs;
//! - `live-off` / `live-on`: a paired re-measure with the recorder off
//!   and the **live telemetry plane** disarmed vs armed (100 ms publish
//!   interval) — the cost of streaming per-rank counter snapshots to
//!   disk while the shuffle runs, including the sliced blocking
//!   receives the plane uses to stay live during waits. The pair runs
//!   a 64× larger cell so the timed region spans several publish
//!   intervals and the comparison measures steady state, not arm cost.
//!
//! Best-of-repeats throughput per configuration; trace overhead is
//! reported against `off`. `telemetry_overhead` comes from the live
//! pair run as interleaved A/B repeats compared best-against-best —
//! scheduler noise only ever slows a run, so the best run per side is
//! the clean-machine sample and background drift cancels out of the
//! ratio instead of masquerading as plane cost. Writes
//! `BENCH_trace_overhead.json`; `--quick` runs a
//! smaller cell as a CI smoke test. Prints a `REGRESSION` marker and
//! exits nonzero if full-flow tracing costs ≥5% — or the live plane
//! ≥2% — of untraced throughput: the budgets under which "leave tracing
//! on in production" and "watch every run live" stay easy
//! recommendations.

use std::time::{Duration, Instant};

use mimir_bench::{fmt_size, HarnessArgs};
use mimir_core::{Emitter, KvContainer, KvMeta, Shuffler};
use mimir_datagen::rank_rng;
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::live::{set_force_config, LiveConfig};
use mimir_obs::{Json, Recorder};

const KV_BYTES: u64 = 16; // fixed(8,8)

/// The publish interval the <2% budget is stated against.
const LIVE_INTERVAL: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    Skeleton,
    FullFlow,
}

/// One measured configuration: recorder mode × live-plane state.
/// `kvs_mult` scales the workload: the live pair runs a much longer
/// cell so the timed region spans several publish intervals and the
/// plane's fixed arm/disarm cost amortizes out of the steady-state
/// comparison (the pair is compared within itself, so the different
/// workload size cannot bias it).
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    tracing: Tracing,
    live: bool,
    kvs_mult: usize,
}

const CELLS: [Cell; 5] = [
    Cell {
        name: "off",
        tracing: Tracing::Off,
        live: false,
        kvs_mult: 1,
    },
    Cell {
        name: "skeleton",
        tracing: Tracing::Skeleton,
        live: false,
        kvs_mult: 1,
    },
    Cell {
        name: "full-flow",
        tracing: Tracing::FullFlow,
        live: false,
        kvs_mult: 1,
    },
    Cell {
        name: "live-off",
        tracing: Tracing::Off,
        live: false,
        kvs_mult: 64,
    },
    Cell {
        name: "live-on",
        tracing: Tracing::Off,
        live: true,
        kvs_mult: 64,
    },
];

struct Measure {
    mb_per_s: f64,
    events: u64,
    events_dropped: u64,
}

/// Ring capacity sized so the full-flow run never overflows — loss would
/// make the event count (and thus the comparison) configuration-biased.
const RING_CAP: usize = 1 << 20;

fn run_cell(ranks: usize, comm_buf: usize, kvs_per_rank: usize, cell: Cell) -> Measure {
    let live_dir = cell.live.then(|| {
        let dir = std::env::temp_dir().join(format!("mimir-bench-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = LiveConfig::new(&dir);
        cfg.interval = LIVE_INTERVAL;
        set_force_config(Some(cfg));
        dir
    });
    let tracing = cell.tracing;
    let kvs_per_rank = kvs_per_rank * cell.kvs_mult;
    let epoch = Instant::now();
    let out = run_world(ranks, move |comm| {
        if tracing != Tracing::Off {
            let mut rec = Recorder::with_epoch(comm.rank(), RING_CAP, epoch);
            rec.set_flow_enabled(tracing == Tracing::FullFlow);
            mimir_obs::install(rec);
        }
        let pool = MemPool::unlimited("bench", 1 << 20);
        let meta = KvMeta::fixed(8, 8);
        let sink = KvContainer::new(&pool, meta);
        let mut sh = Shuffler::new(comm, &pool, meta, comm_buf, sink).unwrap();
        let mut rng = rank_rng(0x7ACE, sh.rank());
        let t0 = Instant::now();
        for _ in 0..kvs_per_rank {
            let key = rng.next_u64().to_le_bytes();
            sh.emit(&key, &[0u8; 8]).unwrap();
        }
        let _ = sh.finish().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        let (events, dropped) = match mimir_obs::take() {
            Some(rec) => (rec.len() as u64, rec.dropped()),
            None => (0, 0),
        };
        (elapsed, events, dropped)
    });
    if let Some(dir) = live_dir {
        set_force_config(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let slowest = out.iter().map(|(t, _, _)| *t).fold(0.0, f64::max);
    let total_bytes = (ranks * kvs_per_rank) as u64 * KV_BYTES;
    Measure {
        mb_per_s: total_bytes as f64 / (1 << 20) as f64 / slowest,
        events: out.iter().map(|(_, e, _)| e).sum(),
        events_dropped: out.iter().map(|(_, _, d)| d).sum(),
    }
}

fn best_of(
    ranks: usize,
    comm_buf: usize,
    kvs_per_rank: usize,
    cell: Cell,
    repeats: usize,
) -> Measure {
    (0..repeats)
        .map(|_| run_cell(ranks, comm_buf, kvs_per_rank, cell))
        .max_by(|a, b| a.mb_per_s.total_cmp(&b.mb_per_s))
        .unwrap()
}

/// Measures the live-off/live-on pair as interleaved A/B repeats and
/// returns (best live-off, best live-on, overhead estimate).
///
/// A sequential best-of-each comparison is hostage to machine drift:
/// on a shared (or single-CPU) box the background load changes between
/// the off block and the on block, and a 2% gate drowns in 10% swings.
/// Interleaving the runs spreads both configurations across the same
/// conditions, and the overhead estimate compares best against best:
/// scheduler noise only ever *slows* a run, so with enough repeats the
/// best run of each side converges on that side's clean-machine
/// throughput and their ratio isolates the plane's true cost.
fn measure_live_pair(
    ranks: usize,
    comm_buf: usize,
    kvs_per_rank: usize,
    pairs: usize,
) -> (Measure, Measure, f64) {
    let (off_cell, on_cell) = (CELLS[3], CELLS[4]);
    // Discarded warmup: the first world of a process pays one-time costs
    // (thread spawn paths, allocator growth) that would land on the
    // first pair's off side and read as plane overhead.
    let _ = run_cell(ranks, comm_buf, kvs_per_rank, off_cell);
    let mut offs = Vec::with_capacity(pairs);
    let mut ons = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        offs.push(run_cell(ranks, comm_buf, kvs_per_rank, off_cell));
        ons.push(run_cell(ranks, comm_buf, kvs_per_rank, on_cell));
    }
    let best = |v: Vec<Measure>| {
        v.into_iter()
            .max_by(|a, b| a.mb_per_s.total_cmp(&b.mb_per_s))
            .unwrap()
    };
    let (best_off, best_on) = (best(offs), best(ons));
    let overhead = (best_off.mb_per_s / best_on.mb_per_s - 1.0).max(0.0);
    (best_off, best_on, overhead)
}

fn main() {
    let args = HarnessArgs::parse();
    // Heavy-8 preset: the cell where the exchange engine (and therefore
    // per-message tracing) is busiest. --quick shrinks it for CI.
    let (ranks, comm_buf, repeats) = if args.quick {
        (2usize, 64 << 10, 3)
    } else {
        (8usize, 256 << 10, 5)
    };
    let kvs_per_rank = 8 * comm_buf / KV_BYTES as usize;

    println!(
        "{:<6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "ranks", "buf", "config", "MB/s", "overhead", "events", "dropped"
    );
    let trace_measures: Vec<Measure> = CELLS[..3]
        .iter()
        .map(|&c| best_of(ranks, comm_buf, kvs_per_rank, c, repeats))
        .collect();
    // The paired comparison: same recorder state (off), plane disarmed
    // vs armed — isolates the telemetry plane's cost from trace cost.
    let (live_off_m, live_on_m, telemetry_overhead) =
        measure_live_pair(ranks, comm_buf, kvs_per_rank, repeats + 4);
    let off = trace_measures[0].mb_per_s;

    let mut measures = trace_measures;
    measures.push(live_off_m);
    measures.push(live_on_m);
    let mut rows = Vec::new();
    let mut full_flow_overhead = 0.0;
    for (cell, m) in CELLS.iter().zip(&measures) {
        // Overhead of this configuration vs its baseline, as a fraction
        // (0.03 = 3% of baseline throughput lost). The live pair is
        // compared within itself (median of adjacent-run ratios) — it
        // runs a larger workload, so `off` is not its baseline.
        let overhead = match cell.name {
            "live-off" => 0.0,
            "live-on" => telemetry_overhead,
            _ => (off / m.mb_per_s - 1.0).max(0.0),
        };
        if cell.name == "full-flow" {
            full_flow_overhead = overhead;
        }
        println!(
            "{:<6}{:>8}{:>12}{:>12.1}{:>11.1}%{:>12}{:>10}",
            ranks,
            fmt_size(comm_buf),
            cell.name,
            m.mb_per_s,
            overhead * 100.0,
            m.events,
            m.events_dropped
        );
        rows.push(Json::obj(vec![
            ("tracing", Json::Str(cell.name.into())),
            (
                "kvs_per_rank",
                Json::Num((kvs_per_rank * cell.kvs_mult) as f64),
            ),
            ("mb_per_s", Json::Num(m.mb_per_s)),
            ("overhead", Json::Num(overhead)),
            ("events", Json::Num(m.events as f64)),
            ("events_dropped", Json::Num(m.events_dropped as f64)),
        ]));
    }

    let dropped: u64 = measures.iter().map(|m| m.events_dropped).sum();
    let trace_regression = full_flow_overhead >= 0.05;
    let live_regression = telemetry_overhead >= 0.02;
    let doc = Json::obj(vec![
        ("bench", Json::Str("trace_overhead".into())),
        ("quick", Json::Bool(args.quick)),
        ("ranks", Json::Num(ranks as f64)),
        ("comm_buf", Json::Num(comm_buf as f64)),
        ("kvs_per_rank", Json::Num(kvs_per_rank as f64)),
        ("kv_meta", Json::Str("fixed(8,8)".into())),
        ("full_flow_overhead", Json::Num(full_flow_overhead)),
        (
            "live_interval_ms",
            Json::Num(LIVE_INTERVAL.as_millis() as f64),
        ),
        ("telemetry_overhead", Json::Num(telemetry_overhead)),
        (
            "regression",
            Json::Bool(trace_regression || live_regression),
        ),
        ("cells", Json::Arr(rows)),
    ]);
    let path = args
        .json
        .unwrap_or_else(|| "BENCH_trace_overhead.json".into());
    std::fs::write(&path, doc.to_pretty()).expect("writing bench JSON");
    println!("wrote {path}");
    println!(
        "full-flow tracing overhead vs untraced: {:.1}%",
        full_flow_overhead * 100.0
    );
    println!(
        "live telemetry plane overhead ({}ms interval): {:.1}%",
        LIVE_INTERVAL.as_millis(),
        telemetry_overhead * 100.0
    );
    if dropped > 0 {
        println!(
            "note: {dropped} events dropped — the ring overflowed, raise \
             RING_CAP for a fair comparison"
        );
    }
    if trace_regression {
        println!("REGRESSION: full-flow tracing costs >=5% of untraced throughput");
    }
    if live_regression {
        println!("REGRESSION: live telemetry plane costs >=2% of untraced throughput");
    }
    if trace_regression || live_regression {
        std::process::exit(1);
    }
}
