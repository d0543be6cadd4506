//! Figure output: aligned terminal tables (one row per x-value, one
//! column pair per series — the closest text analogue of the paper's
//! plots) and machine-readable JSON records for EXPERIMENTS.md.

use std::io::Write;

use mimir_obs::Json;

use crate::harness::Args;
use crate::runner::{RunOutcome, Status};

/// One series of a figure (e.g. "Mimir", "MR-MPI (64M)").
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// One outcome per x-value, aligned with the figure's `xs`.
    pub points: Vec<DataPoint>,
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// X-axis value (dataset size, node count…).
    pub x: String,
    /// The outcome.
    pub outcome: RunOutcome,
}

/// A whole figure: goes to the terminal and to JSON.
#[derive(Debug, Clone)]
pub struct Figure {
    /// E.g. "fig08-wc-uniform".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// All series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Serializes the whole figure to JSON.
    pub fn to_json(&self) -> Json {
        let point = |p: &DataPoint| {
            Json::obj(vec![
                ("x", Json::Str(p.x.clone())),
                ("outcome", p.outcome.to_json()),
            ])
        };
        let series = |s: &Series| {
            Json::obj(vec![
                ("label", Json::Str(s.label.clone())),
                ("points", Json::Arr(s.points.iter().map(point).collect())),
            ])
        };
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("xlabel", Json::Str(self.xlabel.clone())),
            (
                "series",
                Json::Arr(self.series.iter().map(series).collect()),
            ),
        ])
    }

    /// Parses [`Self::to_json`]'s output.
    ///
    /// # Errors
    /// Missing or mistyped fields (as a message).
    pub fn from_json(v: &Json) -> Result<Figure, String> {
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("bad or missing `{key}`"))
        };
        let mut series = Vec::new();
        for s in v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or("bad or missing `series`")?
        {
            let label = s
                .get("label")
                .and_then(Json::as_str)
                .ok_or("bad series label")?
                .to_string();
            let mut points = Vec::new();
            for p in s
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("bad series points")?
            {
                points.push(DataPoint {
                    x: p.get("x")
                        .and_then(Json::as_str)
                        .ok_or("bad point x")?
                        .to_string(),
                    outcome: RunOutcome::from_json(p.get("outcome").ok_or("missing outcome")?)?,
                });
            }
            series.push(Series { label, points });
        }
        Ok(Figure {
            id: text("id")?,
            title: text("title")?,
            xlabel: text("xlabel")?,
            series,
        })
    }
}

/// Prints one figure as two aligned tables: execution time and peak
/// memory (the paper's dual-axis plots).
pub fn print_figure(fig: &Figure) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "\n=== {} — {} ===", fig.id, fig.title);

    let xs: Vec<&str> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.x.as_str()).collect())
        .unwrap_or_default();

    // Time in seconds, peak in MiB; `*` marks a spilled cell.
    for (header, peak) in [
        ("execution time (s)", false),
        ("peak node memory (MiB)", true),
    ] {
        let value = |o: &RunOutcome| match peak {
            false => format!("{:.3}", o.time_s),
            true => format!("{:.2}", o.peak_node_bytes as f64 / (1 << 20) as f64),
        };
        let _ = writeln!(out, "--- {header} ---");
        let _ = write!(out, "{:<12}", fig.xlabel);
        for s in &fig.series {
            let _ = write!(out, "{:>18}", s.label);
        }
        let _ = writeln!(out);
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:<12}");
            for s in &fig.series {
                let cell = s.points.get(i).map_or_else(
                    || "-".into(),
                    |p| match p.outcome.status {
                        Status::Oom => "OOM".into(),
                        Status::Spilled => format!("{}*", value(&p.outcome)),
                        Status::InMemory => value(&p.outcome),
                    },
                );
                let _ = write!(out, "{cell:>18}");
            }
            let _ = writeln!(out);
        }
    }
}

/// Prints every figure and, with `--json <path>`, writes each one's
/// record: a lone figure to `path`, several to `<path>.<id>.json`.
///
/// # Panics
/// Panics on I/O failure — harness output is the whole point of the run.
pub fn emit(args: &Args, figs: &[Figure]) {
    for fig in figs {
        print_figure(fig);
        if let Some(path) = &args.json {
            let path = match figs {
                [_] => path.clone(),
                _ => format!("{path}.{}.json", fig.id),
            };
            std::fs::write(&path, fig.to_json().to_pretty()).expect("writing figure JSON");
            println!("wrote {path}");
        }
    }
}

/// Figure 1's headline for a single-series figure: the slowest
/// in-memory point's time and the slowest spilled point's, when both
/// exist.
pub fn degradation(fig: &Figure) -> Option<(f64, f64)> {
    let [series] = fig.series.as_slice() else {
        return None;
    };
    let slowest = |status| {
        series
            .points
            .iter()
            .filter(|p| p.outcome.status == status)
            .map(|p| p.outcome.time_s)
            .fold(f64::NAN, f64::max)
    };
    let (in_mem, spilled) = (slowest(Status::InMemory), slowest(Status::Spilled));
    (in_mem.is_finite() && spilled.is_finite()).then_some((in_mem, spilled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(t: f64, status: Status) -> RunOutcome {
        RunOutcome {
            status,
            time_s: t,
            compute_s: t,
            modeled_io_s: 0.0,
            peak_node_bytes: 12 << 20,
            kv_bytes: 1,
            unique_keys: 3,
            exchange_rounds: 2,
        }
    }

    fn sample() -> Figure {
        Figure {
            id: "test".into(),
            title: "demo".into(),
            xlabel: "size".into(),
            series: vec![Series {
                label: "Mimir".into(),
                points: vec![
                    DataPoint {
                        x: "1M".into(),
                        outcome: outcome(0.5, Status::InMemory),
                    },
                    DataPoint {
                        x: "2M".into(),
                        outcome: outcome(f64::NAN, Status::Oom),
                    },
                ],
            }],
        }
    }

    #[test]
    fn figure_serializes_and_prints() {
        let fig = sample();
        print_figure(&fig);
        let json = fig.to_json().to_string();
        assert!(json.contains("\"Oom\""));
        assert!(json.contains("Mimir"));
    }

    #[test]
    fn figure_roundtrips_including_nan_cells() {
        let fig = sample();
        let back = Figure::from_json(&Json::parse(&fig.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back.id, fig.id);
        assert_eq!(back.series.len(), 1);
        let pts = &back.series[0].points;
        assert_eq!(pts[0].outcome.status, Status::InMemory);
        assert!((pts[0].outcome.time_s - 0.5).abs() < 1e-12);
        assert_eq!(pts[1].outcome.status, Status::Oom);
        assert!(pts[1].outcome.time_s.is_nan(), "null reads back as NaN");
        assert_eq!(pts[0].outcome.unique_keys, 3);
    }
}
