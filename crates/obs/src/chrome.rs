//! Chrome trace_event exporter.
//!
//! Produces the JSON object format consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `about://tracing`: a `traceEvents`
//! array of `ph:"B"`/`ph:"E"` duration events, `ph:"C"` counters, and
//! `ph:"i"` instants. Each rank becomes one `tid` under a single `pid`,
//! so a multi-rank run renders as stacked per-rank timelines — the view
//! behind the paper's phase-interleaving discussion (Figures 4–6).

use std::collections::HashSet;

use crate::event::{unpack_rank_bytes, Event, EventKind};
use crate::json::Json;
use crate::report::RankReport;

/// Process id used for all ranks (one logical job = one process row).
const PID: f64 = 1.0;

/// Converts one rank's events into trace_event records. `flows` is the
/// set of flow ids seen on *both* ends across the whole report set:
/// arrows are only drawn for complete pairs, so a ring-dropped half can
/// never leave a dangling `ph:"s"` in the export.
fn rank_events(rank: u64, events: &[Event], flows: &HashSet<u64>, out: &mut Vec<Json>) {
    let tid = Json::Num(rank as f64);
    for e in events {
        // trace_event timestamps are microseconds; keep sub-µs precision
        // as a fraction.
        let ts = Json::Num(e.t_ns as f64 / 1000.0);
        match e.kind {
            EventKind::PhaseBegin | EventKind::RoundBegin | EventKind::StepBegin => {
                out.push(Json::obj(vec![
                    ("name", Json::Str(e.label().to_string())),
                    ("ph", Json::Str("B".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    ("args", Json::obj(vec![("a", Json::Num(e.a as f64))])),
                ]));
            }
            EventKind::PhaseEnd | EventKind::RoundEnd | EventKind::StepEnd => {
                out.push(Json::obj(vec![
                    ("name", Json::Str(e.label().to_string())),
                    ("ph", Json::Str("E".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("a", Json::Num(e.a as f64)),
                            ("b", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::MemSample => {
                out.push(Json::obj(vec![
                    ("name", Json::Str(format!("pool-bytes r{rank}"))),
                    ("ph", Json::Str("C".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("used", Json::Num(e.a as f64)),
                            ("peak", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::SpillBegin => {
                out.push(Json::obj(vec![
                    ("name", Json::Str("spill".into())),
                    ("ph", Json::Str("B".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    ("args", Json::obj(vec![("file", Json::Num(e.a as f64))])),
                ]));
            }
            EventKind::SpillEnd => {
                out.push(Json::obj(vec![
                    ("name", Json::Str("spill".into())),
                    ("ph", Json::Str("E".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("file", Json::Num(e.a as f64)),
                            ("bytes", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::GroupRehash => {
                out.push(Json::obj(vec![
                    ("name", Json::Str("group-rehash".into())),
                    ("ph", Json::Str("i".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("capacity", Json::Num(e.a as f64)),
                            ("groups", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::CombinerFlush => {
                out.push(Json::obj(vec![
                    ("name", Json::Str("combiner-flush".into())),
                    ("ph", Json::Str("i".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("entries", Json::Num(e.a as f64)),
                            ("table_bytes", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::RoundWait => {
                out.push(Json::obj(vec![
                    ("name", Json::Str(format!("round-wait r{rank}"))),
                    ("ph", Json::Str("C".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("sync_wait_ns", Json::Num(e.a as f64)),
                            ("data_wait_ns", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::RoundSkew => {
                out.push(Json::obj(vec![
                    ("name", Json::Str(format!("round-skew r{rank}"))),
                    ("ph", Json::Str("C".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("imbalance_permille", Json::Num(e.a as f64)),
                            ("gini_permille", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
            EventKind::FlowSend | EventKind::FlowRecv => {
                if !flows.contains(&e.a) {
                    continue;
                }
                let (peer, bytes) = unpack_rank_bytes(e.b);
                let (ph, peer_key) = if e.kind == EventKind::FlowSend {
                    ("s", "dst")
                } else {
                    ("f", "src")
                };
                let mut rec = vec![
                    ("name", Json::Str("msg".into())),
                    ("cat", Json::Str("flow".into())),
                    ("ph", Json::Str(ph.into())),
                    // String ids: numeric ids above 2^53 would lose
                    // precision through the JSON float path.
                    ("id", Json::Str(format!("0x{:x}", e.a))),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                ];
                if e.kind == EventKind::FlowRecv {
                    // Bind to the enclosing slice, not the next one: the
                    // arrow should land where the receive matched.
                    rec.push(("bp", Json::Str("e".into())));
                }
                rec.push((
                    "args",
                    Json::obj(vec![
                        (peer_key, Json::Num(peer as f64)),
                        ("bytes", Json::Num(bytes as f64)),
                    ]),
                ));
                out.push(Json::obj(rec));
            }
            EventKind::ShuffleElided => {
                out.push(Json::obj(vec![
                    ("name", Json::Str("shuffle-elided".into())),
                    ("ph", Json::Str("i".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", ts),
                    ("pid", Json::Num(PID)),
                    ("tid", tid.clone()),
                    (
                        "args",
                        Json::obj(vec![
                            ("kvs", Json::Num(e.a as f64)),
                            ("bytes", Json::Num(e.b as f64)),
                        ]),
                    ),
                ]));
            }
        }
    }
}

/// Builds the chrome-trace document for a set of per-rank reports.
///
/// Ranks appear as thread rows named `rank N`; span, counter, and
/// instant events come from each report's retained trace events.
pub fn chrome_trace(reports: &[RankReport]) -> Json {
    // Prescan for complete flow pairs: an id qualifies only when its
    // send and receive halves both survived their rings.
    let mut sent = HashSet::new();
    let mut recvd = HashSet::new();
    for r in reports {
        for e in &r.events {
            match e.kind {
                EventKind::FlowSend => {
                    sent.insert(e.a);
                }
                EventKind::FlowRecv => {
                    recvd.insert(e.a);
                }
                _ => {}
            }
        }
    }
    let flows: HashSet<u64> = sent.intersection(&recvd).copied().collect();
    let mut events = Vec::new();
    for r in reports {
        // Thread-name metadata gives Perfetto readable row labels.
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(PID)),
            ("tid", Json::Num(r.rank as f64)),
            (
                "args",
                Json::obj(vec![("name", Json::Str(format!("rank {}", r.rank)))]),
            ),
        ]));
        rank_events(r.rank, &r.events, &flows, &mut events);
    }
    let dropped: u64 = reports.iter().map(|r| r.events_dropped).sum();
    let mut doc = vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ];
    if dropped > 0 {
        // The timeline silently starts mid-run when the ring wrapped;
        // stamp the loss where a human opening the trace will see it.
        doc.push((
            "metadata",
            Json::obj(vec![
                ("events_dropped", Json::Num(dropped as f64)),
                (
                    "warning",
                    Json::Str(format!(
                        "{dropped} events were overwritten by the trace ring; \
                         the timeline is truncated at the front. Raise \
                         MIMIR_TRACE_CAP (events per rank) to keep the full run."
                    )),
                ),
            ]),
        ));
    }
    Json::obj(doc)
}

/// Serializes [`chrome_trace`] to a writable JSON string.
pub fn chrome_trace_string(reports: &[RankReport]) -> String {
    chrome_trace(reports).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, Step};
    use crate::report::RankReport;

    fn report_with_events(rank: u64, events: Vec<Event>) -> RankReport {
        RankReport {
            rank,
            ranks: 1,
            events,
            ..RankReport::default()
        }
    }

    #[test]
    fn spans_counters_and_instants_export() {
        let evs = vec![
            Event {
                t_ns: 1_000,
                kind: EventKind::PhaseBegin,
                a: Phase::Map as u64,
                b: 0,
            },
            Event {
                t_ns: 2_000,
                kind: EventKind::MemSample,
                a: 4096,
                b: 8192,
            },
            Event {
                t_ns: 2_500,
                kind: EventKind::CombinerFlush,
                a: 10,
                b: 640,
            },
            Event {
                t_ns: 3_000,
                kind: EventKind::StepBegin,
                a: Step::Alltoallv as u64,
                b: 0,
            },
            Event {
                t_ns: 4_000,
                kind: EventKind::StepEnd,
                a: Step::Alltoallv as u64,
                b: 123,
            },
            Event {
                t_ns: 5_000,
                kind: EventKind::PhaseEnd,
                a: Phase::Map as u64,
                b: 0,
            },
        ];
        let doc = chrome_trace(&[report_with_events(2, evs)]);
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        let trace = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 6 events.
        assert_eq!(trace.len(), 7);
        assert_eq!(trace[0].get("ph").unwrap().as_str(), Some("M"));
        let map_begin = &trace[1];
        assert_eq!(map_begin.get("name").unwrap().as_str(), Some("map"));
        assert_eq!(map_begin.get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(map_begin.get("tid").unwrap().as_u64(), Some(2));
        assert!((map_begin.get("ts").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-9);
        let counter = &trace[2];
        assert_eq!(counter.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            counter.get("args").unwrap().get("used").unwrap().as_u64(),
            Some(4096)
        );
        let instant = &trace[3];
        assert_eq!(instant.get("ph").unwrap().as_str(), Some("i"));
        let step_end = &trace[5];
        assert_eq!(step_end.get("name").unwrap().as_str(), Some("alltoallv"));
        assert_eq!(
            step_end.get("args").unwrap().get("b").unwrap().as_u64(),
            Some(123)
        );
    }

    #[test]
    fn dropped_events_stamp_trace_metadata() {
        let mut lossy = report_with_events(0, Vec::new());
        lossy.events_dropped = 42;
        let doc = chrome_trace(&[lossy]);
        let meta = doc.get("metadata").expect("metadata stamped on loss");
        assert_eq!(meta.get("events_dropped").unwrap().as_u64(), Some(42));
        assert!(meta
            .get("warning")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("MIMIR_TRACE_CAP"));
        let clean = chrome_trace(&[report_with_events(0, Vec::new())]);
        assert!(clean.get("metadata").is_none(), "no loss, no warning");
    }

    #[test]
    fn wait_and_skew_render_as_counter_lanes() {
        let evs = vec![
            Event {
                t_ns: 1_000,
                kind: EventKind::RoundWait,
                a: 5_000,
                b: 7_000,
            },
            Event {
                t_ns: 2_000,
                kind: EventKind::RoundSkew,
                a: 2_400,
                b: 310,
            },
        ];
        let doc = chrome_trace(&[report_with_events(1, evs)]);
        let trace = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0]
                .get("args")
                .unwrap()
                .get("sync_wait_ns")
                .unwrap()
                .as_u64(),
            Some(5_000)
        );
        assert_eq!(
            counters[1]
                .get("args")
                .unwrap()
                .get("imbalance_permille")
                .unwrap()
                .as_u64(),
            Some(2_400)
        );
        for c in &counters {
            assert_eq!(c.get("tid").and_then(Json::as_u64), Some(1), "rank lane");
        }
    }

    #[test]
    fn flow_arrows_export_only_complete_pairs() {
        // Flow ids from rank 0: the rank component of `(rank << 48) | seq`
        // is zero, leaving just the sequence.
        let flow_ok = 1u64;
        let flow_lost = 2u64; // receive half dropped
        let sender = report_with_events(
            0,
            vec![
                Event {
                    t_ns: 1_000,
                    kind: EventKind::FlowSend,
                    a: flow_ok,
                    b: (1 << 48) | 64,
                },
                Event {
                    t_ns: 2_000,
                    kind: EventKind::FlowSend,
                    a: flow_lost,
                    b: (1 << 48) | 64,
                },
            ],
        );
        let receiver = report_with_events(
            1,
            vec![Event {
                t_ns: 1_500,
                kind: EventKind::FlowRecv,
                a: flow_ok,
                b: 64, // src rank 0 packed in the high bits (= 0)
            }],
        );
        let doc = chrome_trace(&[sender, receiver]);
        let trace = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let starts: Vec<_> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .collect();
        let finishes: Vec<_> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .collect();
        assert_eq!(starts.len(), 1, "the unmatched send draws no arrow");
        assert_eq!(finishes.len(), 1);
        assert_eq!(
            starts[0].get("id").unwrap().as_str(),
            finishes[0].get("id").unwrap().as_str(),
            "the pair binds by id"
        );
        assert_eq!(starts[0].get("tid").and_then(Json::as_u64), Some(0));
        assert_eq!(finishes[0].get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(finishes[0].get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(
            starts[0]
                .get("args")
                .unwrap()
                .get("dst")
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn begin_end_pairs_balance_per_rank() {
        let evs = vec![
            Event {
                t_ns: 0,
                kind: EventKind::PhaseBegin,
                a: Phase::Job as u64,
                b: 0,
            },
            Event {
                t_ns: 1,
                kind: EventKind::RoundBegin,
                a: 0,
                b: 0,
            },
            Event {
                t_ns: 2,
                kind: EventKind::RoundEnd,
                a: 0,
                b: 1,
            },
            Event {
                t_ns: 3,
                kind: EventKind::PhaseEnd,
                a: Phase::Job as u64,
                b: 0,
            },
        ];
        let doc = chrome_trace(&[
            report_with_events(0, evs.clone()),
            report_with_events(1, evs),
        ]);
        let trace = doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec();
        for rank in 0..2u64 {
            let (mut begins, mut ends) = (0, 0);
            for ev in trace
                .iter()
                .filter(|e| e.get("tid").and_then(Json::as_u64) == Some(rank))
            {
                match ev.get("ph").and_then(Json::as_str) {
                    Some("B") => begins += 1,
                    Some("E") => ends += 1,
                    _ => {}
                }
            }
            assert_eq!(begins, 2);
            assert_eq!(begins, ends, "balanced B/E pairs for rank {rank}");
        }
    }

    /// The cache's one instant, the elided shuffle of a chained job.
    #[test]
    fn elision_and_cache_instants_render_on_the_rank_lane() {
        let evs = vec![Event {
            t_ns: 1_000,
            kind: EventKind::ShuffleElided,
            a: 40,
            b: 640,
        }];
        let doc = chrome_trace(&[report_with_events(1, evs)]);
        let trace = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let e = trace
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("shuffle-elided"))
            .expect("a shuffle-elided instant");
        // A thread-scoped instant: it pins to the rank's lane instead of
        // spanning the whole process track.
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(e.get("tid").and_then(Json::as_u64), Some(1));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("kvs").and_then(Json::as_u64), Some(40));
        assert_eq!(args.get("bytes").and_then(Json::as_u64), Some(640));
    }
}
