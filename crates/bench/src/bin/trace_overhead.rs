//! **Trace-overhead ablation** — cost of the observability stack on the
//! shuffle hot path, measured on a heavy 8-rank shuffle cell. Three
//! configurations:
//!
//! - `off`: no recorder installed — every `emit`/`flow_*` call is a
//!   thread-local `None` check and nothing else;
//! - `skeleton`: recorder installed, flow stamping disabled — phase,
//!   step, and round spans land in the ring but messages go untraced;
//! - `full-flow`: flow stamping on — every message additionally carries
//!   a flow id and the receive loop records `FlowSend`/`FlowRecv`
//!   pairs, i.e. everything the critical-path engine needs.
//!
//! The three configurations run as interleaved repeats, the order
//! reversed every other round. A configuration's overhead is the median,
//! over rounds, of `off`'s throughput over its own in the same round,
//! minus one: a slow spell lifts both sides of a pair alike, the
//! alternating order cancels a first-runner effect, and the median
//! ignores the odd pair a descheduled rank ruins. Writes
//! `BENCH_trace_overhead.json`; `--quick` runs a smaller cell as a CI
//! smoke test. Prints a `REGRESSION` marker and exits nonzero if
//! full-flow tracing costs ≥5% of untraced throughput: the budget under
//! which "leave tracing on in production" stays an easy recommendation.

use std::time::Instant;

use mimir_bench::fmt_size;
use mimir_bench::harness::{fastest, Args, Report, Summary};
use mimir_core::{Emitter, KvContainer, KvMeta, Shuffler};
use mimir_datagen::rank_rng;
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::{Json, Recorder};

const KV_BYTES: u64 = 16; // fixed(8,8)

/// Rounds of the three cells. Odd, so the paired median is one pair.
const REPEATS_QUICK: usize = 51;
const REPEATS_FULL: usize = 11;

#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    Skeleton,
    FullFlow,
}

/// The measured configurations, in report order.
const CELLS: [(&str, Tracing); 3] = [
    ("off", Tracing::Off),
    ("skeleton", Tracing::Skeleton),
    ("full-flow", Tracing::FullFlow),
];

struct Measure {
    mb_per_s: f64,
    events: u64,
    events_dropped: u64,
}

/// Ring capacity sized so the full-flow run never overflows — loss would
/// make the event count (and thus the comparison) configuration-biased.
const RING_CAP: usize = 1 << 20;

fn run_cell(ranks: usize, comm_buf: usize, kvs_per_rank: usize, tracing: Tracing) -> Measure {
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
    let slowest = out.iter().map(|(t, _, _)| *t).fold(0.0, f64::max);
    let total_bytes = (ranks * kvs_per_rank) as u64 * KV_BYTES;
    Measure {
        mb_per_s: total_bytes as f64 / (1 << 20) as f64 / slowest,
        events: out.iter().map(|(_, e, _)| e).sum(),
        events_dropped: out.iter().map(|(_, _, d)| d).sum(),
    }
}

/// Runs every cell `repeats` times, one of each per round, and returns
/// each cell's measures in run order. Odd rounds run the cells in
/// reverse, so neither side of a pair always runs first.
fn alternating(repeats: usize, mut run: impl FnMut(usize) -> Measure) -> Vec<Vec<Measure>> {
    let mut out: Vec<Vec<Measure>> = CELLS.iter().map(|_| Vec::new()).collect();
    for round in 0..repeats {
        for i in 0..CELLS.len() {
            let cell = if round % 2 == 0 {
                i
            } else {
                CELLS.len() - 1 - i
            };
            out[cell].push(run(cell));
        }
    }
    out
}

/// Overhead of `cell` against `baseline` as a fraction of baseline
/// throughput (0.03 = 3% lost), per round: the gate reads the median of
/// these pairs, and their spread shows the noise.
fn overhead(baseline: &[Measure], cell: &[Measure]) -> Summary {
    let paired: Vec<f64> = baseline
        .iter()
        .zip(cell)
        .map(|(b, c)| b.mb_per_s / c.mb_per_s - 1.0)
        .collect();
    Summary::of(&paired)
}

fn main() {
    let args = Args::parse();
    // Heavy-8 preset: the cell where the exchange engine (and therefore
    // per-message tracing) is busiest. --quick shrinks it for CI.
    let (ranks, comm_buf, repeats) = if args.quick {
        (2usize, 64 << 10, REPEATS_QUICK)
    } else {
        (8usize, 256 << 10, REPEATS_FULL)
    };
    let kvs_per_rank = 8 * comm_buf / KV_BYTES as usize;
    let runs = alternating(repeats, |i| {
        run_cell(ranks, comm_buf, kvs_per_rank, CELLS[i].1)
    });

    println!(
        "{:<6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "ranks", "buf", "config", "MB/s", "median", "overhead", "events", "dropped"
    );
    let full_flow = overhead(&runs[0], &runs[2]);
    let mut report = Report::new("trace_overhead", &args);
    let mut dropped = 0;
    for ((name, _), repeats) in CELLS.iter().zip(&runs) {
        let overhead = overhead(&runs[0], repeats).median;
        let (fastest, rate) = fastest(repeats, |m| m.mb_per_s);
        dropped += fastest.events_dropped;
        println!(
            "{:<6}{:>8}{:>12}{:>12.1}{:>12.1}{:>11.1}%{:>12}{:>10}",
            ranks,
            fmt_size(comm_buf),
            name,
            rate.max,
            rate.median,
            overhead * 100.0,
            fastest.events,
            fastest.events_dropped
        );
        let mut fields = vec![
            ("tracing", Json::Str((*name).into())),
            ("kvs_per_rank", Json::Num(kvs_per_rank as f64)),
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
    report.gate(
        "full-flow tracing overhead vs untraced",
        full_flow.median,
        0.05,
        full_flow.median < 0.05,
        Some(full_flow),
    );
    report.finish(&args, "BENCH_trace_overhead.json");
}
