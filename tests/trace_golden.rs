//! Golden-file test for the observability pipeline: a 4-rank WordCount
//! run with tracing enabled must export a chrome-trace document that
//! parses back as valid JSON with balanced, properly nested spans —
//! one span per phase per rank — plus exchange-round events, and the
//! MR-MPI spill regime must leave spill spans in the trace.

use std::collections::HashMap;
use std::time::Instant;

use mimir::prelude::*;
use mimir_apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir_datagen::UniformWords;
use mimir_obs::{chrome_trace_string, Json, RankReport, Recorder};

const RANKS: usize = 4;

fn text(rank: usize) -> Vec<u8> {
    UniformWords {
        vocab: 512,
        word_len: 8,
        seed: 7,
    }
    .generate(rank, RANKS, 64 << 10)
}

/// Runs a traced 4-rank Mimir WordCount and returns every rank's report
/// (with events), gathered onto rank 0 exactly like the bench wiring.
fn traced_wordcount_reports() -> Vec<RankReport> {
    let epoch = Instant::now();
    let out = run_world(RANKS, move |comm| {
        let rank = comm.rank();
        mimir_obs::install(Recorder::with_epoch(rank, 16 * 1024, epoch));
        let mut report = RankReport::new(rank);
        {
            let pool = MemPool::unlimited("trace", 16 * 1024);
            let mut ctx = MimirContext::new(
                comm,
                pool,
                IoModel::free(),
                MimirConfig {
                    // Small partitions force several exchange rounds.
                    comm_buf_size: 4 * 1024,
                    ..MimirConfig::default()
                },
            )
            .unwrap();
            let t = text(rank);
            let (_, m) = wordcount_mimir(&mut ctx, &t, &WcOptions::default()).unwrap();
            report.comm = ctx.comm().stats();
            report.mem = ctx.pool().stats().counters();
            m.job.fill_report(&mut report);
        }
        let rec = mimir_obs::take().expect("recorder installed above");
        report.events = rec.events().to_vec();
        report.events_dropped = rec.dropped();
        let gathered = comm.gather(0, report.to_json_string().into_bytes());
        gathered.map(|payloads| {
            payloads
                .iter()
                .map(|b| RankReport::from_json_string(std::str::from_utf8(b).unwrap()).unwrap())
                .collect::<Vec<_>>()
        })
    });
    out.into_iter().flatten().next().expect("rank 0 gathered")
}

#[test]
fn four_rank_wordcount_chrome_trace_is_valid_and_nested() {
    let reports = traced_wordcount_reports();
    assert_eq!(reports.len(), RANKS);
    for r in &reports {
        assert_eq!(r.events_dropped, 0, "ring large enough for this run");
        assert!(!r.events.is_empty(), "rank {} recorded events", r.rank);
    }

    let trace_text = chrome_trace_string(&reports);
    let doc = Json::parse(&trace_text).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Split span events by rank (tid), preserving order; the recorder
    // emits in timestamp order per rank.
    let mut by_rank: HashMap<u64, Vec<&Json>> = HashMap::new();
    for e in events {
        if matches!(e.get("ph").and_then(Json::as_str), Some("B") | Some("E")) {
            let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
            by_rank.entry(tid).or_default().push(e);
        }
    }
    assert_eq!(by_rank.len(), RANKS, "every rank has span events");

    for (rank, spans) in &by_rank {
        // B/E events must balance and nest like a call stack: every E
        // closes the innermost open B of the same name.
        let mut stack: Vec<&str> = Vec::new();
        let mut phase_spans: HashMap<&str, usize> = HashMap::new();
        let mut rounds = 0usize;
        let mut last_ts = f64::NEG_INFINITY;
        for e in spans {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last_ts, "rank {rank}: timestamps monotonic");
            last_ts = ts;
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => {
                    stack.push(name);
                    match name {
                        "map" | "aggregate" | "convert" | "reduce" => {
                            *phase_spans.entry(name).or_default() += 1;
                        }
                        "exchange-round" => rounds += 1,
                        _ => {}
                    }
                }
                "E" => {
                    let open = stack
                        .pop()
                        .unwrap_or_else(|| panic!("rank {rank}: E \"{name}\" with no open span"));
                    assert_eq!(open, name, "rank {rank}: spans close innermost-first");
                }
                _ => unreachable!(),
            }
        }
        assert!(stack.is_empty(), "rank {rank}: all spans closed");
        // One span per phase per rank (map/aggregate/convert/reduce).
        for phase in ["map", "aggregate", "convert", "reduce"] {
            assert_eq!(
                phase_spans.get(phase).copied(),
                Some(1),
                "rank {rank}: exactly one {phase} span"
            );
        }
        assert!(rounds >= 1, "rank {rank}: exchange-round spans present");
    }
}

#[test]
fn spilling_mrmpi_run_traces_spill_events() {
    let epoch = Instant::now();
    let spill_counts = run_world(2, move |comm| {
        let rank = comm.rank();
        mimir_obs::install(Recorder::with_epoch(rank, 16 * 1024, epoch));
        let pool = MemPool::unlimited("trace", 4 * 1024);
        let store = SpillStore::new_temp("trace-golden", IoModel::free()).unwrap();
        // Tiny pages on a non-tiny input force the out-of-core path.
        let cfg = MrMpiConfig {
            page_size: 2 * 1024,
            ooc: OocMode::WhenNeeded,
        };
        let t = text(rank);
        let (_, m) = wordcount_mrmpi(comm, pool, store, cfg, &t, false).unwrap();
        assert!(m.spilled, "fixture must reach the spill regime");
        let rec = mimir_obs::take().unwrap();
        let begins = rec
            .events()
            .iter()
            .filter(|e| e.kind == mimir_obs::EventKind::SpillBegin)
            .count();
        let ends = rec
            .events()
            .iter()
            .filter(|e| e.kind == mimir_obs::EventKind::SpillEnd)
            .count();
        (begins, ends)
    });
    for (rank, (begins, ends)) in spill_counts.iter().enumerate() {
        assert!(*begins > 0, "rank {rank}: spill begin events recorded");
        assert!(*ends > 0, "rank {rank}: spill end events recorded");
    }
}
