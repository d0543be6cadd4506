//! `compare A.json B.json`: the noise model applied to two result files.
//!
//! For every (end-to-end metric, workload) it prints both medians, both
//! inter-quartile ranges, the ratio with its base, and a verdict. A metric
//! may move by its bound (a share of the base median) before it counts;
//! when either side's own spread is wider than that, nothing can be said
//! and the verdict is `unresolved`, never `same`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, E2E};
use crate::stats::Summary;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. `bound` is a share of the base median:
/// how far the median may move, and how wide either side's inter-quartile
/// range may be, before the answer changes.
pub fn verdict(base: &Summary, new: &Summary, bound: f64, better: Better) -> Verdict {
    let allowed = bound * base.median.abs();
    if base.q3 - base.q1 > allowed || new.q3 - new.q1 > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Per (workload, metric): the value each run of the file reported; per
/// workload: operations attempted and failed, summed over its runs.
#[derive(Default)]
struct FileData {
    values: BTreeMap<(String, String), Vec<f64>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn load(path: &Path) -> Result<FileData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{}: no `runs` array", path.display()))?;
    let mut data = FileData::default();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no `workload`")?;
        let num = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = data.ops.entry(workload.to_string()).or_insert((0.0, 0.0));
        ops.0 += num("attempted");
        ops.1 += num("failed");
        let Some(Json::Obj(metrics)) = run.get("end_to_end") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                data.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(data)
}

/// Prints the comparison; `Ok(false)` when any pairing is `worse`.
///
/// Each file is a *set* of runs (`run --out FILE`, several times, other
/// seeds): the spread that decides `unresolved` is the spread between the
/// runs of a set. A file with one run per workload has no spread to show,
/// and its verdicts rest on the medians alone.
///
/// # Errors
/// Unreadable or malformed result files.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (base, new) = (load(a)?, load(b)?);
    println!("base A = {}\nnew  B = {}", a.display(), b.display());
    println!(
        "{:<16} {:<16} {:>14} {:>12} {:>14} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B/A", "bound"
    );
    let mut any_worse = false;
    for w in workloads::all() {
        for e in &E2E {
            let (m, bound) = (&e.metric, e.bound);
            let key = (w.name.to_string(), m.name.to_string());
            let summary = |d: &FileData| d.values.get(&key).and_then(|v| Summary::of(v));
            let (Some(sa), Some(sb)) = (summary(&base), summary(&new)) else {
                println!(
                    "{:<16} {:<16} missing from one of the files",
                    w.name, m.name
                );
                continue;
            };
            let v = verdict(&sa, &sb, bound, m.better);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>14.6} {:>12.6} {:>14.6} {:>12.6} {:>9.4} {:>6.1}%  {} (runs {} vs {})",
                w.name,
                m.name,
                sa.median,
                sa.q3 - sa.q1,
                sb.median,
                sb.q3 - sb.q1,
                sb.median / sa.median,
                bound * 100.0,
                v.name(),
                sa.n,
                sb.n,
            );
        }
        // Any increase in the share of failed operations is a regression.
        let share = |d: &FileData| {
            d.ops
                .get(w.name)
                .map(|(attempted, failed)| failed / attempted.max(1.0))
        };
        if let (Some(fa), Some(fb)) = (share(&base), share(&new)) {
            let v = if fb > fa {
                Verdict::Worse
            } else if fb < fa {
                Verdict::Better
            } else {
                Verdict::Same
            };
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>14.6} {:>12} {:>14.6} {:>12} {:>9} {:>7}  {}",
                w.name,
                "failure_share",
                fa,
                "-",
                fb,
                "-",
                "-",
                "any",
                v.name()
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(centre: f64, iqr: f64) -> Summary {
        Summary {
            n: 9,
            min: centre - iqr,
            q1: centre - iqr / 2.0,
            median: centre,
            q3: centre + iqr / 2.0,
            max: centre + iqr,
        }
    }

    #[test]
    fn within_the_bound_is_same() {
        let v = verdict(&around(1.0, 0.01), &around(1.04, 0.01), 0.05, Better::Lower);
        assert_eq!(v, Verdict::Same);
        let v = verdict(&around(1.0, 0.01), &around(0.96, 0.01), 0.05, Better::Lower);
        assert_eq!(v, Verdict::Same);
    }

    #[test]
    fn beyond_the_bound_is_worse_or_better_by_direction() {
        let (a, slow, fast) = (around(1.0, 0.01), around(1.06, 0.01), around(0.94, 0.01));
        assert_eq!(verdict(&a, &slow, 0.05, Better::Lower), Verdict::Worse);
        assert_eq!(verdict(&a, &fast, 0.05, Better::Lower), Verdict::Better);
        assert_eq!(verdict(&a, &slow, 0.05, Better::Higher), Verdict::Better);
        assert_eq!(verdict(&a, &fast, 0.05, Better::Higher), Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_on_either_side_is_unresolved() {
        let steady = around(1.0, 0.01);
        let noisy = around(1.2, 0.08);
        assert_eq!(
            verdict(&steady, &noisy, 0.05, Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &steady, 0.05, Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_single_run_has_no_spread_and_is_judged_on_its_value() {
        let one = |v: f64| Summary::of(&[v]).unwrap();
        assert_eq!(
            verdict(&one(1.0), &one(1.3), 0.25, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&one(1.0), &one(1.2), 0.25, Better::Lower),
            Verdict::Same
        );
    }
}
