//! Post-mortem triage of flight-recorder corpses after a crash.
//!
//! With `MIMIR_FLIGHT_DIR` set, every rank that panics, aborts or loses
//! a peer writes `rank<r>.crash.jsonl` there (`mimir_obs::live`): a
//! `crash` line, then the rank's report and trace ring in the standard
//! JSON-lines format. [`diagnose_postmortem`] ingests such a directory,
//! infers never-dumped (killed) ranks from the survivors' disconnect
//! messages, and folds everything into one [`Diagnosis`].

use std::path::{Path, PathBuf};

use mimir_obs::{Json, RankReport};

use crate::{diagnose, Diagnosis, Finding, Severity};

/// One flight-recorder corpse: the crash header plus the dumped report.
#[derive(Debug)]
struct Corpse {
    rank: u64,
    world: u64,
    cause: String,
    message: String,
    report: Option<RankReport>,
}

/// Post-mortem triage of a flight-recorder directory: parses every
/// `rank*.crash.jsonl` dump, runs the full rule set over the dumped
/// reports, names never-dumped (killed) ranks from the survivors'
/// disconnect messages, and summarizes the crash causes.
///
/// # Errors
/// An unreadable directory, or a directory containing no crash dumps.
pub fn diagnose_postmortem(dir: &Path) -> Result<Diagnosis, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("rank") && n.ends_with(".crash.jsonl"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!(
            "{}: no rank*.crash.jsonl flight-recorder dumps found",
            dir.display()
        ));
    }
    let mut corpses: Vec<Corpse> = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        // A rank killed outright (SIGKILL, bare exit) leaves its
        // pre-opened SIGTERM dump file *empty* — the handler never ran.
        // An empty or headerless file is "no dump", not a parse error.
        if text.trim().is_empty() {
            continue;
        }
        let docs = Json::parse_lines(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(crash) = docs
            .iter()
            .find(|d| d.get("record").and_then(Json::as_str) == Some("crash"))
        else {
            continue;
        };
        let num = |k: &str| crash.get(k).and_then(Json::as_u64).unwrap_or(0);
        let s = |k: &str| {
            crash
                .get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        // The report + event lines are the standard export format; a
        // SIGTERM dump pre-formats an empty report, so tolerate both.
        let report = crate::ingest::ingest_jsonl(&text)
            .ok()
            .and_then(|mut v| (!v.is_empty()).then(|| v.remove(0)));
        corpses.push(Corpse {
            rank: num("rank"),
            world: num("world"),
            cause: s("cause"),
            message: s("message"),
            report,
        });
    }
    if corpses.is_empty() {
        return Err(format!(
            "{}: every dump file is empty — no rank got far enough to record",
            dir.display()
        ));
    }
    // A rank that never dumped was killed outright (SIGKILL leaves no
    // corpse); survivors' disconnect messages name the peer they lost.
    let world = corpses.iter().map(|c| c.world).max().unwrap_or(0) as usize;
    let dumped: Vec<u64> = corpses.iter().map(|c| c.rank).collect();
    let mut findings = Vec::new();
    let mut silent: Vec<u64> = (0..world as u64).filter(|r| !dumped.contains(r)).collect();
    if !silent.is_empty() {
        // Rank the silent candidates by how often the survivors'
        // messages mention them, so the title leads with the likely
        // root cause.
        let mentions = |rank: u64| {
            corpses
                .iter()
                .filter(|c| mentions_rank(&c.message, rank))
                .count()
        };
        silent.sort_by_key(|&r| std::cmp::Reverse(mentions(r)));
        let named = silent[0];
        let observers = mentions(named);
        silent.sort_unstable();
        findings.push(Finding {
            severity: Severity::Critical,
            code: "transport",
            title: format!(
                "rank {named} died without a flight-recorder dump; \
                 {observers} surviving rank(s) observed the disconnect"
            ),
            phase: "",
            ranks: silent.clone(),
            evidence: vec![
                ("world".into(), Json::Num(world as f64)),
                ("dumps_found".into(), Json::Num(dumped.len() as f64)),
                ("disconnect_observers".into(), Json::Num(observers as f64)),
            ],
            hint: "a rank killed by SIGKILL (or the OOM killer) cannot dump; \
                   its peers' crash causes and messages identify it — check \
                   scheduler/OS logs for why it died",
        });
    }
    // Summarize what the corpses say happened, worst cause first.
    for c in &corpses {
        let severity = match c.cause.as_str() {
            "disconnect" => Severity::Warn, // cascade, not root cause
            _ => Severity::Critical,
        };
        findings.push(Finding {
            severity,
            code: "flight-recorder",
            title: format!("rank {} dumped on {}: {}", c.rank, c.cause, c.message),
            phase: "",
            ranks: vec![c.rank],
            evidence: vec![("events_retained".into(), {
                let n = c.report.as_ref().map_or(0, |r| r.events.len());
                Json::Num(n as f64)
            })],
            hint: "the dump is a full trace export: re-run mimir-doctor on the \
                   individual rank*.crash.jsonl file for counters and timeline",
        });
    }
    // The dumped reports still hold full counters: run the ordinary
    // rules over whatever half-finished state the ranks died with.
    let reports: Vec<RankReport> = corpses.iter().filter_map(|c| c.report.clone()).collect();
    let mut diagnosis = diagnose(&reports);
    diagnosis.findings.extend(findings);
    diagnosis.findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.title.cmp(&b.title))
    });
    Ok(diagnosis)
}

/// Whether `message` mentions `rank` as a standalone "rank N" token
/// (so "rank 1" does not match "rank 12").
fn mentions_rank(message: &str, rank: u64) -> bool {
    let needle = format!("rank {rank}");
    let mut start = 0;
    while let Some(i) = message[start..].find(&needle) {
        let end = start + i + needle.len();
        let boundary = message[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_ascii_digit());
        if boundary {
            return true;
        }
        start = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postmortem_names_the_never_dumped_rank() {
        let dir = std::env::temp_dir().join(format!("doctor-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for rank in [0u64, 1, 3] {
            let mut r = RankReport::new(rank as usize);
            r.ranks = 4;
            let crash = Json::obj(vec![
                ("record", Json::Str("crash".into())),
                ("rank", Json::Num(rank as f64)),
                ("world", Json::Num(4.0)),
                ("cause", Json::Str("disconnect".into())),
                (
                    "message",
                    Json::Str(format!("rank {rank}: lost connection to rank 2 mid-recv")),
                ),
            ]);
            let body = format!("{crash}\n{}", mimir_obs::jsonl_string(&[r]));
            std::fs::write(dir.join(format!("rank{rank}.crash.jsonl")), body).unwrap();
        }
        let d = diagnose_postmortem(&dir).unwrap();
        let dead = d
            .findings
            .iter()
            .find(|f| f.code == "transport" && f.severity == Severity::Critical)
            .unwrap_or_else(|| panic!("no dead-rank finding: {}", d.to_text()));
        assert!(
            dead.title.contains("rank 2"),
            "names the dead rank: {}",
            dead.title
        );
        assert_eq!(dead.ranks, vec![2]);
        assert!(
            d.findings
                .iter()
                .filter(|f| f.code == "flight-recorder")
                .count()
                == 3,
            "one summary per corpse: {}",
            d.to_text()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mentions_rank_respects_token_boundaries() {
        assert!(mentions_rank("lost rank 1 mid-recv", 1));
        assert!(!mentions_rank("lost rank 12 mid-recv", 1));
        assert!(mentions_rank("rank 12", 12));
        assert!(!mentions_rank("no ranks here", 3));
    }
}
