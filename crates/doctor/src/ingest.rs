//! The reader for the doctor's input, the JSON-lines export
//! (`<label>.jsonl`): each `report` line deserializes back into a full
//! [`RankReport`], so every rule runs at full strength. The chrome trace
//! written beside it (`<label>.trace.json`) is a timeline without
//! counters, and is refused with a message naming the `.jsonl`.

use mimir_obs::{Event, EventKind, Json, RankReport};

/// Parses a JSON-lines export into per-rank reports.
///
/// Tolerates `header` records, blank lines, and trailing newlines.
/// `event` lines are reattached to their rank's report (the exporter
/// strips the event dump from the `report` line and streams it as
/// individual lines), so timeline-based analyses — the critical path
/// above all — run at full strength on a re-ingested export. Events of
/// an unknown kind or without a matching report are skipped, not fatal,
/// so a future exporter revision stays readable.
///
/// # Errors
/// Malformed JSON, a chrome trace, a `report` line that does not
/// deserialize, or an input containing no report lines at all.
pub fn ingest_jsonl(text: &str) -> Result<Vec<RankReport>, String> {
    let docs = Json::parse_lines(text).map_err(|e| e.to_string())?;
    if docs.iter().any(|d| d.get("traceEvents").is_some()) {
        return Err("a chrome trace is a timeline without counters: pass the \
                    `.jsonl` export written beside it"
            .into());
    }
    let mut reports = Vec::new();
    let mut header_dropped = 0u64;
    let mut events: Vec<(u64, Event)> = Vec::new();
    for d in &docs {
        match d.get("record").and_then(Json::as_str) {
            Some("report") => {
                reports.push(RankReport::from_json(d).map_err(|e| e.to_string())?);
            }
            Some("header") => {
                header_dropped = d.get("events_dropped").and_then(Json::as_u64).unwrap_or(0);
            }
            Some("event") => {
                let field = |k: &str| d.get(k).and_then(Json::as_u64);
                let kind = d
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(EventKind::from_name);
                if let (Some(rank), Some(t_ns), Some(kind)) = (field("rank"), field("t_ns"), kind) {
                    events.push((
                        rank,
                        Event {
                            t_ns,
                            kind,
                            a: field("a").unwrap_or(0),
                            b: field("b").unwrap_or(0),
                        },
                    ));
                }
            }
            _ => {}
        }
    }
    if reports.is_empty() {
        return Err("no `report` records found — is this a mimir .jsonl export?".into());
    }
    // Reattach the streamed event lines. Report lines carry an empty
    // `events` array by construction, but appending (rather than
    // replacing) also tolerates a hand-merged file.
    for (rank, e) in events {
        if let Some(r) = reports.iter_mut().find(|r| r.rank == rank) {
            r.events.push(e);
        }
    }
    // Belt and braces: if the header reports loss the report lines don't
    // carry (an older exporter), pin it on rank 0 so the dropped-events
    // rule still sees it.
    if header_dropped > 0 && reports.iter().all(|r| r.events_dropped == 0) {
        reports[0].events_dropped = header_dropped;
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimir_obs::{chrome_trace, jsonl_string, Event, EventKind};

    fn sample_world() -> Vec<RankReport> {
        (0..3usize)
            .map(|r| {
                let mut rep = RankReport::new(r);
                rep.ranks = 3;
                rep.shuffle.kvs_emitted = 100 + r as u64;
                rep.shuffle.sync_wait_ns = 5_000 * (r as u64 + 1);
                rep
            })
            .collect()
    }

    #[test]
    fn jsonl_roundtrips_through_ingest() {
        let reports = sample_world();
        let text = jsonl_string(&reports);
        let back = ingest_jsonl(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in reports.iter().zip(&back) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.shuffle.kvs_emitted, b.shuffle.kvs_emitted);
            assert_eq!(a.shuffle.sync_wait_ns, b.shuffle.sync_wait_ns);
        }
        // Trailing newlines and blank lines are tolerated.
        let padded = format!("{text}\n\n\n");
        assert_eq!(ingest_jsonl(&padded).unwrap().len(), 3);
    }

    #[test]
    fn event_lines_reattach_to_their_rank() {
        let mut reports = sample_world();
        let flow = (1u64 << 48) | 1;
        reports[1].events.push(Event {
            t_ns: 7,
            kind: EventKind::RoundBegin,
            a: 3,
            b: 0,
        });
        reports[1].events.push(Event {
            t_ns: 9,
            kind: EventKind::FlowSend,
            a: flow,
            b: 8,
        });
        let text = jsonl_string(&reports);
        let back = ingest_jsonl(&text).unwrap();
        assert!(back[0].events.is_empty());
        assert_eq!(back[2].events, Vec::new());
        assert_eq!(
            back[1].events, reports[1].events,
            "streamed event lines reattach losslessly"
        );
    }

    #[test]
    fn jsonl_with_loss_keeps_the_header_and_counts() {
        let mut reports = sample_world();
        reports[1].events_dropped = 9;
        let text = jsonl_string(&reports);
        let back = ingest_jsonl(&text).unwrap();
        assert_eq!(back.iter().map(|r| r.events_dropped).sum::<u64>(), 9);
    }

    #[test]
    fn non_reports_are_rejected_with_a_readable_error() {
        assert!(ingest_jsonl("{\"record\":\"event\"}\n")
            .unwrap_err()
            .contains("report"));
        assert!(ingest_jsonl("not json").is_err());
        let chrome = chrome_trace(&sample_world()).to_string();
        assert!(ingest_jsonl(&chrome).unwrap_err().contains(".jsonl"));
    }
}
