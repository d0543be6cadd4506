//! `mimir-doctor`: diagnose a Mimir trace export from the command line.
//!
//! ```text
//! mimir-doctor [--json] [--critical-path] [--fail-on info|warn|critical] <file|dir>...
//! ```
//!
//! Inputs are the `<label>.jsonl` files the trace stack writes (full
//! counters and event lines); the chrome timeline written beside each,
//! `<label>.trace.json`, carries no counters and is refused. Multiple
//! files are diagnosed as independent runs and the findings are
//! concatenated. A *directory* input is treated as a flight-recorder
//! dump dir (`rank*.crash.jsonl` corpses from a crashed run): the dumps
//! are triaged post-mortem, including naming any rank that died without
//! dumping.
//!
//! `--critical-path` additionally prints the measured critical path's
//! per-segment breakdown for each input that carries flow events (with
//! `--json`, a `critical_paths` object keyed by file joins the
//! diagnosis).
//!
//! Exit status: `0` clean (or nothing at/above `--fail-on`), `1` when a
//! finding reaches the `--fail-on` severity (default: `critical`), `2`
//! on usage or read errors.

use mimir_doctor::{
    critical_path, diagnose, diagnose_postmortem, ingest_jsonl, Diagnosis, Severity,
};
use mimir_obs::Json;

fn usage() -> ! {
    eprintln!(
        "usage: mimir-doctor [--json] [--critical-path] [--fail-on info|warn|critical] <file|dir>...\n\
         \n\
         Diagnoses Mimir trace exports (.jsonl; a directory is triaged\n\
         as a flight-recorder dump dir). Prints human text by default, a JSON\n\
         document with --json. --critical-path adds the measured\n\
         critical path's per-segment breakdown for inputs that carry\n\
         flow events. Exits 1 when any finding reaches the --fail-on\n\
         severity (default critical), 2 on bad input."
    );
    std::process::exit(2);
}

fn main() {
    let mut json = false;
    let mut want_path = false;
    let mut fail_on = Severity::Critical;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--critical-path" => want_path = true,
            "--fail-on" => {
                let Some(level) = args.next().as_deref().and_then(Severity::parse) else {
                    usage();
                };
                fail_on = level;
            }
            "-h" | "--help" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        usage();
    }

    let mut combined = Diagnosis::default();
    let mut breakdowns: Vec<(String, mimir_doctor::CriticalPath)> = Vec::new();
    for path in &paths {
        if std::fs::metadata(path).map(|m| m.is_dir()).unwrap_or(false) {
            match diagnose_postmortem(std::path::Path::new(path)) {
                Ok(d) => combined.findings.extend(d.findings),
                Err(e) => {
                    eprintln!("mimir-doctor: {e}");
                    std::process::exit(2);
                }
            }
            continue;
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mimir-doctor: {path}: {e}");
                std::process::exit(2);
            }
        };
        let reports = match ingest_jsonl(&text) {
            Ok(r) => r,
            Err(e) => {
                let beside = path
                    .strip_suffix(".trace.json")
                    .map(|stem| format!(" ({stem}.jsonl)"))
                    .unwrap_or_default();
                eprintln!("mimir-doctor: {path}: {e}{beside}");
                std::process::exit(2);
            }
        };
        combined.findings.extend(diagnose(&reports).findings);
        if want_path {
            if let Some(cp) = critical_path(&reports) {
                breakdowns.push((path.clone(), cp));
            }
        }
    }
    combined.findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.title.cmp(&b.title))
    });

    if json {
        let mut doc = combined.to_json();
        if want_path {
            let paths_obj = Json::Obj(
                breakdowns
                    .iter()
                    .map(|(p, cp)| (p.clone(), cp.to_json()))
                    .collect(),
            );
            if let Json::Obj(fields) = &mut doc {
                fields.push(("critical_paths".into(), paths_obj));
            }
        }
        println!("{}", doc.to_pretty());
    } else {
        print!("{}", combined.to_text());
        for (p, cp) in &breakdowns {
            println!("\n{p}:");
            print!("{}", cp.to_text());
        }
        if want_path && breakdowns.is_empty() {
            println!(
                "\nno critical path could be measured — the export carries no \
                 matched flow events (run with MIMIR_TRACE=1 and flow tracing on)"
            );
        }
    }
    let failed = combined.worst_severity().is_some_and(|w| w >= fail_on);
    std::process::exit(i32::from(failed));
}
