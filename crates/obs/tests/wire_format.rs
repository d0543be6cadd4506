//! Pins the serialized report format: key order, number formatting and
//! which keys a reader may find missing.
//!
//! The golden files under `tests/golden/` were written by the
//! hand-listed serializer the counter tables replaced; reports recorded
//! by those builds must keep loading, and tools scripting over `.jsonl`
//! and `.trace.json` files must see the same bytes. Regenerate a golden
//! file only for a deliberate format change.

use mimir_obs::{
    chrome_trace_string, jsonl_string, CacheCounters, CacheNameRecord, CommCounters, Event,
    EventKind, GroupCounters, JobCounters, Json, MemCounters, Phase, PhasePeaks, PhaseTimes,
    RankReport, ShuffleCounters,
};

/// A report with every counter non-zero and distinct (so a swapped or
/// dropped field changes the output), two cache names and a few events.
fn report(rank: u64) -> RankReport {
    let k = rank + 1;
    RankReport {
        rank,
        ranks: 1,
        comm: CommCounters {
            sends: 101 * k,
            recvs: 102 * k,
            bytes_sent: 103 * k,
            bytes_recvd: 104 * k,
            collectives: 105 * k,
            bytes_copied: 106 * k,
            send_allocs: 107 * k,
            wire_bytes_sent: 108 * k,
            wire_bytes_recvd: 109 * k,
            wire_frames_sent: 110 * k,
            wire_frames_recvd: 111 * k,
            wire_recv_allocs: 112 * k,
            handshake_ns: 113 * k,
            wait_ns: 401 * k,
            work_ns: 402 * k,
        },
        mem: MemCounters {
            pages_allocated: 201 * k,
            pages_recycled: 202 * k,
            bytes_in_use: 203 * k,
            peak_bytes: 204 * k,
            budget_bytes: 205 * k,
            oom_events: 206 * k,
        },
        shuffle: ShuffleCounters {
            kvs_emitted: 301 * k,
            kv_bytes_emitted: 302 * k,
            kvs_received: 303 * k,
            rounds: 304 * k,
            bytes_received: 306 * k,
            max_round_recv_bytes: 307 * k,
            max_dest_bytes: 308 * k,
            imbalance_permille: 309 * k,
            gini_permille: 310 * k,
            sync_wait_ns: 403 * k,
            data_wait_ns: 404 * k,
        },
        group: GroupCounters {
            inserts: 501 * k,
            probes: 502 * k,
            max_probe: 503 * k,
            rehashes: 504 * k,
            interned_bytes: 505 * k,
            groups: 506 * k,
            capacity: 507 * k,
            probe_hist: [511, 512, 513, 514, 515, 516, 517, 518].map(|v| v * k),
        },
        times: PhaseTimes {
            map_s: 1.5 * k as f64,
            aggregate_s: 0.25 * k as f64,
            convert_s: 0.125 * k as f64,
            reduce_s: 0.0625 * k as f64,
        },
        peaks: PhasePeaks {
            map_bytes: 801 * k,
            convert_bytes: 802 * k,
            reduce_bytes: 803 * k,
        },
        job: JobCounters {
            unique_keys: 901 * k,
            kvs_out: 902 * k,
            node_peak_bytes: 903 * k,
            barrier_wait_ns: 405 * k,
        },
        cache: CacheCounters {
            hits: 1001 * k,
            misses: 1002 * k,
            elisions: 1003 * k,
            cached_bytes: 1006 * k,
        },
        cache_names: vec![
            CacheNameRecord {
                name: "edges".into(),
                bytes: 4096 * k,
                elisions: 3 * k,
            },
            CacheNameRecord {
                name: "frontier".into(),
                bytes: 512 * k,
                elisions: k,
            },
        ],
        events: vec![
            Event {
                t_ns: 1_000,
                kind: EventKind::PhaseBegin,
                a: 0,
                b: 0,
            },
            Event {
                t_ns: 2_000 + rank,
                kind: EventKind::MemSample,
                a: 4096,
                b: 8192 * k,
            },
            Event {
                t_ns: 3_000,
                kind: EventKind::RoundWait,
                a: 700 * k,
                b: 300,
            },
            Event {
                t_ns: 9_000 * k,
                kind: EventKind::PhaseEnd,
                a: 0,
                b: 0,
            },
        ],
        events_dropped: 5 * k,
    }
}

fn reports() -> Vec<RankReport> {
    vec![report(0), report(1)]
}

/// Asserts `got == expected` line by line, so a mismatch names the first
/// differing line instead of dumping two multi-kilobyte strings.
fn assert_text(what: &str, got: &str, expected: &str) {
    for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "{what}: line {} differs", i + 1);
    }
    assert_eq!(got, expected, "{what}: line count or trailing newline");
}

#[test]
fn report_json_matches_the_pinned_bytes() {
    let [r0, r1] = [report(0), report(1)];
    let got = format!("{}\n{}\n", r0.to_json_string(), r1.to_json_string());
    assert_text("to_json_string", &got, include_str!("golden/reports.json"));
    let mut merged = r0.clone();
    merged.merge(&r1);
    assert_text(
        "merged to_json_string",
        &format!("{}\n", merged.to_json_string()),
        include_str!("golden/merged.json"),
    );
}

#[test]
fn jsonl_matches_the_pinned_bytes() {
    assert_text(
        "jsonl_string",
        &jsonl_string(&reports()),
        include_str!("golden/reports.jsonl"),
    );
}

#[test]
fn chrome_trace_matches_the_pinned_bytes() {
    assert_text(
        "chrome_trace_string",
        &format!("{}\n", chrome_trace_string(&reports())),
        include_str!("golden/reports.trace.json"),
    );
}

#[test]
fn pinned_bytes_parse_back_to_the_fixture() {
    let text = include_str!("golden/reports.json");
    let back: Vec<RankReport> = text
        .lines()
        .map(|l| RankReport::from_json_string(l).unwrap())
        .collect();
    assert_eq!(back, reports());
}

/// Reports written before the adaptive shuffle was retired carry an
/// `adapt` section, reports written before the live telemetry plane was
/// retired carry a `live` section, reports written before the job
/// service was retired carry a `jobs` section, and every one of them
/// carries the `waits` section whose five counters now live in `comm`,
/// `shuffle` and `job`. Each retired section is ignored on load, so the
/// five moved counters read as zero from those files, and everything
/// else reads back unchanged. All four also carry `cache.evictions` and
/// `cache.reloads`, retired with the cache eviction; a section's unknown
/// keys are ignored too.
#[test]
fn reports_with_a_retired_adapt_section_still_parse() {
    let mut want = reports();
    for r in &mut want {
        (r.comm.wait_ns, r.comm.work_ns) = (0, 0);
        (r.shuffle.sync_wait_ns, r.shuffle.data_wait_ns) = (0, 0);
        r.job.barrier_wait_ns = 0;
    }
    for (text, section, open) in [
        (include_str!("golden/reports_with_adapt.json"), "adapt", "{"),
        (include_str!("golden/reports_with_live.json"), "live", "{"),
        (include_str!("golden/reports_with_jobs.json"), "jobs", "[{"),
        (include_str!("golden/reports_with_waits.json"), "waits", "{"),
    ] {
        assert!(
            text.contains(&format!("\"{section}\":{open}")),
            "fixture must carry the `{section}` section"
        );
        assert!(
            text.contains("\"evictions\":") && text.contains("\"reloads\":"),
            "fixture must carry the retired cache counters"
        );
        let back: Vec<RankReport> = text
            .lines()
            .map(|l| RankReport::from_json_string(l).unwrap())
            .collect();
        assert_eq!(back, want, "with a retired `{section}` section");
    }
}

/// Compact `events` columns carry kind codes. Codes 11–14 and 17 (the
/// retired job service's lifecycle and heartbeat kinds), 20, and 22–23
/// (the retired cache eviction's evict and reload) belonged to retired
/// kinds: the kinds after them keep their numbers, and a row that still
/// carries one is skipped on load. Phase spans carry a phase code in
/// `a`; code 5 (a retired MR-MPI phase) decodes to no phase.
#[test]
fn event_codes_after_the_retired_one_are_pinned() {
    for (code, kind) in [
        (15, EventKind::RoundWait),
        (16, EventKind::RoundSkew),
        (18, EventKind::FlowSend),
        (19, EventKind::FlowRecv),
        (21, EventKind::ShuffleElided),
    ] {
        assert_eq!(kind.code(), code, "{kind:?}");
        let mut r = report(0);
        r.events = vec![Event {
            t_ns: 5,
            kind,
            a: 1,
            b: 2,
        }];
        let line = r.to_json_string();
        assert!(
            line.contains(&format!("\"events\":[[5,{code},1,2]]")),
            "{kind:?} serialized as {line}"
        );
        assert_eq!(RankReport::from_json_string(&line).unwrap(), r);
    }
    for code in [11, 12, 13, 14, 17, 20, 22, 23] {
        let retired = report(0).to_json_string().replace(
            "\"events\":[[1000,0,0,0]",
            &format!("\"events\":[[1000,{code},0,0]"),
        );
        assert!(
            retired.contains(&format!("[1000,{code},0,0]")),
            "replacement must hit"
        );
        let mut want = report(0);
        want.events.remove(0);
        assert_eq!(
            RankReport::from_json_string(&retired).unwrap(),
            want,
            "a row with retired code {code} is skipped"
        );
    }
    for (code, phase) in [
        (0, Some(Phase::Map)),
        (1, Some(Phase::Aggregate)),
        (2, Some(Phase::Convert)),
        (3, Some(Phase::Reduce)),
        (4, Some(Phase::Compress)),
        (5, None),
        (6, Some(Phase::Job)),
    ] {
        assert_eq!(Phase::from_code(code), phase, "phase code {code}");
    }
}

/// Every key of a serialized report — top-level keys, and `section.key`
/// for each key inside an object-valued section — with whether a report
/// missing only that key still parses (`true`) or is rejected (`false`).
/// The verdicts were recorded from the hand-listed parser: the fields of
/// the first release are required, later ones parse leniently as zero.
const MISSING_KEY_PARSES: &[(&str, bool)] = &[
    ("rank", false),
    ("ranks", false),
    ("comm", false),
    ("comm.sends", false),
    ("comm.recvs", false),
    ("comm.bytes_sent", false),
    ("comm.bytes_recvd", false),
    ("comm.collectives", false),
    ("comm.bytes_copied", true),
    ("comm.send_allocs", true),
    ("comm.wire_bytes_sent", true),
    ("comm.wire_bytes_recvd", true),
    ("comm.wire_frames_sent", true),
    ("comm.wire_frames_recvd", true),
    ("comm.wire_recv_allocs", true),
    ("comm.handshake_ns", true),
    ("comm.wait_ns", true),
    ("comm.work_ns", true),
    ("mem", false),
    ("mem.pages_allocated", false),
    ("mem.pages_recycled", false),
    ("mem.bytes_in_use", false),
    ("mem.peak_bytes", false),
    ("mem.budget_bytes", true),
    ("mem.oom_events", true),
    ("shuffle", false),
    ("shuffle.kvs_emitted", false),
    ("shuffle.kv_bytes_emitted", false),
    ("shuffle.kvs_received", false),
    ("shuffle.rounds", false),
    ("shuffle.bytes_received", true),
    ("shuffle.max_round_recv_bytes", true),
    ("shuffle.max_dest_bytes", true),
    ("shuffle.imbalance_permille", true),
    ("shuffle.gini_permille", true),
    ("shuffle.sync_wait_ns", true),
    ("shuffle.data_wait_ns", true),
    ("group", true),
    ("group.inserts", true),
    ("group.probes", true),
    ("group.max_probe", true),
    ("group.rehashes", true),
    ("group.interned_bytes", true),
    ("group.groups", true),
    ("group.capacity", true),
    ("group.probe_hist", true),
    ("times", false),
    ("times.map_s", false),
    ("times.aggregate_s", false),
    ("times.convert_s", false),
    ("times.reduce_s", false),
    ("peaks", false),
    ("peaks.map_bytes", false),
    ("peaks.convert_bytes", false),
    ("peaks.reduce_bytes", false),
    ("job", false),
    ("job.unique_keys", false),
    ("job.kvs_out", false),
    ("job.node_peak_bytes", false),
    ("job.barrier_wait_ns", true),
    ("cache", true),
    ("cache.hits", true),
    ("cache.misses", true),
    ("cache.elisions", true),
    ("cache.cached_bytes", true),
    ("cache_names", true),
    ("events", true),
    ("events_dropped", false),
];

/// The `section.key` paths of `v`, in serialization order.
fn key_paths(v: &Json) -> Vec<String> {
    let Json::Obj(top) = v else {
        panic!("a report serializes to an object")
    };
    let mut out = Vec::new();
    for (key, val) in top {
        out.push(key.clone());
        if let Json::Obj(fields) = val {
            out.extend(fields.iter().map(|(f, _)| format!("{key}.{f}")));
        }
    }
    out
}

/// `v` with the key at `path` (`key` or `section.key`) removed.
fn without(v: &Json, path: &str) -> Json {
    let mut out = v.clone();
    let Json::Obj(top) = &mut out else {
        unreachable!()
    };
    match path.split_once('.') {
        None => top.retain(|(k, _)| k != path),
        Some((section, key)) => {
            let (_, Json::Obj(fields)) = top.iter_mut().find(|(k, _)| k == section).unwrap() else {
                unreachable!()
            };
            fields.retain(|(k, _)| k != key);
        }
    }
    out
}

#[test]
fn each_missing_key_is_required_or_lenient_as_pinned() {
    let full = Json::parse(&report(1).to_json_string()).unwrap();
    let pinned: Vec<&str> = MISSING_KEY_PARSES.iter().map(|(k, _)| *k).collect();
    assert_eq!(key_paths(&full), pinned, "the key set itself changed");
    for &(path, parses) in MISSING_KEY_PARSES {
        let cut = without(&full, path);
        assert_ne!(cut, full, "{path} was not removed");
        assert_eq!(
            RankReport::from_json(&cut).is_ok(),
            parses,
            "a report missing `{path}` should {}",
            if parses { "parse" } else { "be rejected" }
        );
    }
}
