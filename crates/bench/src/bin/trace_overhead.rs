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
//! The three trace configurations run as interleaved repeats, and so
//! does the live pair; each configuration reports its best-of-repeats
//! throughput, and overheads compare best against best — scheduler
//! noise only ever slows a run, so the best run per side is the
//! clean-machine sample and background drift cancels out of the ratio
//! instead of masquerading as tracing or plane cost. Trace overhead is
//! against `off`; `telemetry_overhead` is live-on against live-off.
//! Writes `BENCH_trace_overhead.json`; `--quick` runs a smaller cell as
//! a CI smoke test. Prints a `REGRESSION` marker and exits nonzero if
//! full-flow tracing costs ≥5% — or the live plane ≥2% — of untraced
//! throughput: the budgets under which "leave tracing on in production"
//! and "watch every run live" stay easy recommendations.

use std::time::{Duration, Instant};

use mimir_bench::fmt_size;
use mimir_bench::harness::{fastest, interleaved, Args, Report, Summary};
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

/// Overhead of `cell` against `baseline` as a fraction of baseline
/// throughput (0.03 = 3% lost): per interleaved repeat pair (unclamped,
/// so its spread shows the noise) and best against best (clamped at 0,
/// the gated statistic).
fn overhead(baseline: &[Measure], cell: &[Measure]) -> (Vec<f64>, f64) {
    let paired = baseline
        .iter()
        .zip(cell)
        .map(|(b, c)| b.mb_per_s / c.mb_per_s - 1.0)
        .collect();
    let best = |ms: &[Measure]| ms.iter().map(|m| m.mb_per_s).fold(0.0, f64::max);
    (paired, (best(baseline) / best(cell) - 1.0).max(0.0))
}

fn main() {
    let args = Args::parse();
    // Heavy-8 preset: the cell where the exchange engine (and therefore
    // per-message tracing) is busiest. --quick shrinks it for CI.
    let (ranks, comm_buf, repeats) = if args.quick {
        (2usize, 64 << 10, 3)
    } else {
        (8usize, 256 << 10, 5)
    };
    let kvs_per_rank = 8 * comm_buf / KV_BYTES as usize;
    let run = |cell| run_cell(ranks, comm_buf, kvs_per_rank, cell);

    let mut runs = interleaved(repeats, 3, |i| run(CELLS[i]));
    // The live pair: same recorder state (off), plane disarmed vs armed
    // — isolates the telemetry plane's cost from trace cost. A
    // sequential best-of-each comparison is hostage to machine drift: on
    // a shared (or single-CPU) box the background load changes between
    // the off block and the on block, and a 2% gate drowns in 10% swings.
    // Interleaving spreads both sides across the same conditions. The
    // first world of a process pays one-time costs (thread spawn paths,
    // allocator growth) that would land on the first pair's off side and
    // read as plane overhead, so a warmup run is discarded.
    let _ = run(CELLS[3]);
    runs.extend(interleaved(repeats + 4, 2, |i| run(CELLS[3 + i])));

    println!(
        "{:<6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "ranks", "buf", "config", "MB/s", "median", "overhead", "events", "dropped"
    );
    let (full_flow, full_flow_overhead) = overhead(&runs[0], &runs[2]);
    let (telemetry, telemetry_overhead) = overhead(&runs[3], &runs[4]);
    let mut report = Report::new("trace_overhead", &args);
    let mut dropped = 0;
    for (cell, repeats) in CELLS.iter().zip(&runs) {
        // The live pair is compared within itself, best against best —
        // it runs a larger workload, so `off` is not its baseline.
        let overhead = match cell.name {
            "live-off" => 0.0,
            "live-on" => telemetry_overhead,
            _ => overhead(&runs[0], repeats).1,
        };
        let (fastest, rate) = fastest(repeats, |m| m.mb_per_s);
        dropped += fastest.events_dropped;
        println!(
            "{:<6}{:>8}{:>12}{:>12.1}{:>12.1}{:>11.1}%{:>12}{:>10}",
            ranks,
            fmt_size(comm_buf),
            cell.name,
            rate.max,
            rate.median,
            overhead * 100.0,
            fastest.events,
            fastest.events_dropped
        );
        let mut fields = vec![
            ("tracing", Json::Str(cell.name.into())),
            (
                "kvs_per_rank",
                Json::Num((kvs_per_rank * cell.kvs_mult) as f64),
            ),
            ("mb_per_s", Json::Num(rate.max)),
        ];
        fields.extend(rate.json_fields());
        fields.extend([
            ("overhead", Json::Num(overhead)),
            ("events", Json::Num(fastest.events as f64)),
            ("events_dropped", Json::Num(fastest.events_dropped as f64)),
        ]);
        report.cell(fields);
    }
    if dropped > 0 {
        println!(
            "note: {dropped} events dropped — the ring overflowed, raise \
             RING_CAP for a fair comparison"
        );
    }

    report.field("ranks", Json::Num(ranks as f64));
    report.field("comm_buf", Json::Num(comm_buf as f64));
    report.field("kv_meta", Json::Str("fixed(8,8)".into()));
    report.field(
        "live_interval_ms",
        Json::Num(LIVE_INTERVAL.as_millis() as f64),
    );
    report.gate(
        "full-flow tracing overhead vs untraced",
        full_flow_overhead,
        0.05,
        full_flow_overhead < 0.05,
        Some(Summary::of(&full_flow)),
    );
    report.gate(
        "live telemetry plane overhead vs live-off",
        telemetry_overhead,
        0.02,
        telemetry_overhead < 0.02,
        Some(Summary::of(&telemetry)),
    );
    report.finish(&args, "BENCH_trace_overhead.json");
}
