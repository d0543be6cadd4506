//! `mimir-doctor`: post-mortem diagnosis over Mimir trace exports.
//!
//! The observability stack answers "what happened" (chrome timelines,
//! JSONL counters); this crate answers "what went *wrong*, and what does
//! the paper say to do about it". [`diagnose`] runs a fixed rule set
//! over a run's gathered [`RankReport`]s and produces a [`Diagnosis`]:
//! a ranked list of [`Finding`]s, each with a severity, the ranks
//! involved, numeric evidence, and a hint grounded in the Mimir paper's
//! design sections.
//!
//! Rules:
//!
//! | code | looks at | fires on |
//! |---|---|---|
//! | `critical-path` | flow-edge happens-before DAG | always reports the measured path; warns when one rank holds an outsized share |
//! | `straggler` | per-rank sync+barrier waits | peers waiting ≥50% longer than the critical rank — only when no path could be measured |
//! | `partition-skew` | per-destination byte histograms, cross-rank receive totals | imbalance ≥2× the fair share |
//! | `memory-headroom` | pool peak vs budget, OOM events | margin <10% or any budget violation |
//! | `spill-amplification` | spilled vs emitted shuffle bytes | spill exceeding the data itself |
//! | `dropped-events` | trace ring overwrites | any loss; >5% is critical |
//! | `deadlock-suspect` | wait fraction vs wall time | ≥95% wall spent blocked with nothing received |
//! | `cache-efficiency` | cross-job cache counters, evict/reload event stream | low hit rate while cached bytes crowd the pool, eviction thrash; reports elisions and per-name residency (info) |
//! | `transport` | per-backend wire counters (frames, bytes, handshake) | handshake stalls, tiny-message chatter; silent on the in-process backend |
//!
//! A companion mode lives in [`postmortem`]: [`diagnose_postmortem`]
//! ingests the flight-recorder dumps a crashed run leaves behind and
//! names the rank that died without dumping.
//!
//! The `mimir-doctor` binary wraps this over `.jsonl` / `.trace.json`
//! files; see `src/main.rs` or `README.md`.

#![warn(missing_docs)]

pub mod critical_path;
pub mod ingest;
pub mod postmortem;
pub mod rules;

pub use critical_path::{critical_path, CriticalPath, Segment, SegmentKind};
pub use ingest::{ingest_chrome, ingest_jsonl, ingest_path_text};
pub use postmortem::diagnose_postmortem;

use mimir_obs::{Json, RankReport};

/// How bad a finding is. Ordered: `Info < Warn < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, no action needed.
    Info,
    /// Degrades performance or trustworthiness; act when convenient.
    Warn,
    /// Wrong results, lost work, or a violated budget; act now.
    Critical,
}

impl Severity {
    /// Lower-case name, as printed and as accepted by `--fail-on`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parses a `--fail-on` argument.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// Formats a nanosecond quantity for human output: the largest of
/// ns/µs/ms/s that keeps the value ≥ 1, printed to 3 significant digits.
/// JSON output keeps raw nanoseconds; only [`Diagnosis::to_text`] and
/// the critical-path text rendering humanize.
pub fn fmt_duration_ns(ns: f64) -> String {
    let ns = ns.max(0.0);
    let (v, unit) = if ns >= 1e9 {
        (ns / 1e9, "s")
    } else if ns >= 1e6 {
        (ns / 1e6, "ms")
    } else if ns >= 1e3 {
        (ns / 1e3, "µs")
    } else {
        (ns, "ns")
    };
    let prec = if v >= 100.0 {
        0
    } else if v >= 10.0 {
        1
    } else {
        2
    };
    format!("{v:.prec$} {unit}")
}

/// Formats a byte quantity for human output: the largest of
/// B/KiB/MiB/GiB/TiB that keeps the value ≥ 1, printed to 3 significant
/// digits (whole bytes stay exact). JSON output keeps raw bytes; only
/// [`Diagnosis::to_text`] humanizes.
pub fn fmt_bytes(bytes: f64) -> String {
    let bytes = bytes.max(0.0);
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        return format!("{} B", bytes as u64);
    }
    let prec = if v >= 100.0 {
        0
    } else if v >= 10.0 {
        1
    } else {
        2
    };
    format!("{v:.prec$} {}", UNITS[unit])
}

/// Whether an evidence key names a byte quantity (`max_dest_bytes`,
/// `bytes_recvd`, `wire_bytes_sent`, …): any `_`-separated component
/// equal to `bytes`.
fn is_bytes_key(k: &str) -> bool {
    k.split('_').any(|part| part == "bytes")
}

/// One diagnosed problem: what, where, how bad, and what to do.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable rule code (e.g. `partition-skew`).
    pub code: &'static str,
    /// One-line human statement of the problem.
    pub title: String,
    /// Pipeline phase the problem lives in, when attributable
    /// (e.g. `map/aggregate (shuffle)`), else empty.
    pub phase: &'static str,
    /// Ranks implicated (hotspot, critical rank, …); empty when global.
    pub ranks: Vec<u64>,
    /// Numeric evidence backing the title, as `(name, value)` pairs.
    pub evidence: Vec<(String, Json)>,
    /// Remedy, grounded in the paper where one applies.
    pub hint: &'static str,
}

impl Finding {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("severity", Json::Str(self.severity.as_str().into())),
            ("code", Json::Str(self.code.into())),
            ("title", Json::Str(self.title.clone())),
            ("phase", Json::Str(self.phase.into())),
            (
                "ranks",
                Json::Arr(self.ranks.iter().map(|&r| Json::Num(r as f64)).collect()),
            ),
            (
                "evidence",
                Json::Obj(
                    self.evidence
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            ("hint", Json::Str(self.hint.into())),
        ])
    }
}

/// The full diagnosis of one run: findings sorted most severe first.
#[derive(Debug, Clone, Default)]
pub struct Diagnosis {
    /// All findings, sorted by descending severity then rule code.
    pub findings: Vec<Finding>,
}

impl Diagnosis {
    /// The most severe finding's severity, or `None` for a clean run.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Structured rendering, for scripting and the CI artifact.
    pub fn to_json(&self) -> Json {
        let count = |s: Severity| self.findings.iter().filter(|f| f.severity == s).count() as f64;
        Json::obj(vec![
            (
                "worst",
                match self.worst_severity() {
                    Some(s) => Json::Str(s.as_str().into()),
                    None => Json::Null,
                },
            ),
            (
                "counts",
                Json::obj(vec![
                    ("critical", Json::Num(count(Severity::Critical))),
                    ("warn", Json::Num(count(Severity::Warn))),
                    ("info", Json::Num(count(Severity::Info))),
                ]),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }

    /// Human rendering: one block per finding, worst first.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str("mimir-doctor: no findings — the run looks healthy\n");
            return out;
        }
        let count = |s: Severity| self.findings.iter().filter(|f| f.severity == s).count();
        out.push_str(&format!(
            "mimir-doctor: {} finding(s) — {} critical, {} warn, {} info\n",
            self.findings.len(),
            count(Severity::Critical),
            count(Severity::Warn),
            count(Severity::Info),
        ));
        for f in &self.findings {
            out.push('\n');
            out.push_str(&format!(
                "[{}] {}: {}\n",
                f.severity.as_str().to_uppercase(),
                f.code,
                f.title
            ));
            if !f.phase.is_empty() {
                out.push_str(&format!("  phase: {}\n", f.phase));
            }
            if !f.ranks.is_empty() {
                let ranks: Vec<String> = f.ranks.iter().map(|r| r.to_string()).collect();
                out.push_str(&format!("  ranks: {}\n", ranks.join(", ")));
            }
            for (k, v) in &f.evidence {
                // Durations are stored as raw nanoseconds and sizes as
                // raw bytes (stable for scripting); the human rendering
                // converts both.
                match v {
                    Json::Num(ns) if k.ends_with("_ns") => {
                        out.push_str(&format!("  {k}: {}\n", fmt_duration_ns(*ns)));
                    }
                    Json::Num(b) if is_bytes_key(k) => {
                        out.push_str(&format!("  {k}: {}\n", fmt_bytes(*b)));
                    }
                    _ => out.push_str(&format!("  {k}: {v}\n")),
                }
            }
            out.push_str(&format!("  hint: {}\n", f.hint));
        }
        out
    }
}

/// Runs every rule over the gathered per-rank reports of one run.
///
/// Sorting is deterministic: descending severity, then rule code, then
/// title — so goldens and CI diffs are stable.
pub fn diagnose(reports: &[RankReport]) -> Diagnosis {
    let mut findings = Vec::new();
    // A measured critical path supersedes the straggler heuristic: the
    // heuristic infers the gating rank from aggregate wait counters, the
    // path walks the actual happens-before edges.
    match critical_path::critical_path(reports) {
        Some(path) => rules::critical_path_rule(&path, reports, &mut findings),
        None => rules::straggler(reports, &mut findings),
    }
    rules::partition_skew(reports, &mut findings);
    rules::memory_headroom(reports, &mut findings);
    rules::spill_amplification(reports, &mut findings);
    rules::dropped_events(reports, &mut findings);
    rules::deadlock_suspect(reports, &mut findings);
    rules::cache_efficiency(reports, &mut findings);
    rules::transport(reports, &mut findings);
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.title.cmp(&b.title))
    });
    Diagnosis { findings }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Critical);
        for s in [Severity::Info, Severity::Warn, Severity::Critical] {
            assert_eq!(Severity::parse(s.as_str()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn clean_reports_produce_no_findings() {
        let reports: Vec<RankReport> = (0..4).map(RankReport::new).collect();
        let d = diagnose(&reports);
        assert!(d.findings.is_empty(), "got: {}", d.to_text());
        assert_eq!(d.worst_severity(), None);
        assert!(d.to_text().contains("healthy"));
        assert_eq!(d.to_json().get("worst"), Some(&Json::Null));
    }

    #[test]
    fn durations_humanize_to_three_significant_digits() {
        assert_eq!(fmt_duration_ns(0.0), "0.00 ns");
        assert_eq!(fmt_duration_ns(412.0), "412 ns");
        assert_eq!(fmt_duration_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_duration_ns(12_345.0), "12.3 µs");
        assert_eq!(fmt_duration_ns(987_654.0), "988 µs");
        assert_eq!(fmt_duration_ns(50_000_000.0), "50.0 ms");
        assert_eq!(fmt_duration_ns(1_234_000_000.0), "1.23 s");
        assert_eq!(fmt_duration_ns(765_000_000_000.0), "765 s");
    }

    #[test]
    fn text_humanizes_ns_evidence_but_json_stays_raw() {
        let mut r = RankReport::new(0);
        r.ranks = 2;
        // Trip the deadlock rule: its evidence carries several *_ns keys.
        r.times.map_s = 0.2;
        r.waits.total_wait_ns = 198_000_000;
        let reports = vec![r, RankReport::new(1)];
        let d = diagnose(&reports);
        let text = d.to_text();
        assert!(
            text.contains("total_wait_ns: 198 ms"),
            "durations humanize in text:\n{text}"
        );
        assert!(!text.contains("198000000"), "no raw ns in text:\n{text}");
        let json = d.to_json().to_string();
        assert!(
            json.contains("198000000"),
            "JSON keeps raw nanoseconds:\n{json}"
        );
    }

    #[test]
    fn bytes_humanize_to_three_significant_digits() {
        assert_eq!(fmt_bytes(0.0), "0 B");
        assert_eq!(fmt_bytes(999.0), "999 B");
        assert_eq!(fmt_bytes(1024.0), "1.00 KiB");
        assert_eq!(fmt_bytes(1536.0), "1.50 KiB");
        assert_eq!(fmt_bytes(10.0 * 1024.0 * 1024.0), "10.0 MiB");
        assert_eq!(fmt_bytes(200.0 * 1024.0 * 1024.0 * 1024.0), "200 GiB");
        assert!(is_bytes_key("max_dest_bytes"));
        assert!(is_bytes_key("bytes_recvd"));
        assert!(is_bytes_key("wire_bytes_sent"));
        assert!(!is_bytes_key("imbalance_permille"));
        assert!(!is_bytes_key("total_wait_ns"));
    }

    #[test]
    fn text_humanizes_bytes_evidence_but_json_stays_raw() {
        let mut r = RankReport::new(0);
        r.ranks = 1;
        // Trip the headroom rule: its evidence carries *_bytes keys.
        r.mem.budget_bytes = 1 << 30;
        r.mem.peak_bytes = (1 << 30) - (1 << 20);
        let d = diagnose(&[r]);
        let text = d.to_text();
        assert!(
            text.contains("budget_bytes: 1.00 GiB"),
            "sizes humanize in text:\n{text}"
        );
        assert!(
            text.contains("peak_bytes: 1023 MiB"),
            "sizes humanize in text:\n{text}"
        );
        assert!(
            !text.contains("budget_bytes: 1073741824"),
            "no raw bytes in evidence lines:\n{text}"
        );
        let json = d.to_json().to_string();
        assert!(json.contains("1073741824"), "JSON keeps raw bytes:\n{json}");
    }

    #[test]
    fn diagnosis_renders_sorted_json_and_text() {
        let mut r = RankReport::new(0);
        r.ranks = 1;
        r.events_dropped = 5; // warn
        r.mem.budget_bytes = 1000;
        r.mem.peak_bytes = 900;
        r.mem.oom_events = 2; // critical
        let d = diagnose(&[r]);
        assert!(d.findings.len() >= 2);
        assert_eq!(d.findings[0].severity, Severity::Critical, "worst first");
        assert_eq!(d.worst_severity(), Some(Severity::Critical));
        let j = d.to_json();
        assert_eq!(j.get("worst").unwrap().as_str(), Some("critical"));
        let text = d.to_text();
        assert!(text.contains("[CRITICAL]"));
        assert!(text.contains("hint:"));
    }
}
