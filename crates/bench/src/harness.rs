//! What every bench binary shares: the command line, interleaved
//! repeats and their spread, named gates, and one JSON envelope.
//!
//! A gated bench measures its cells, records each acceptance check as a
//! [`Report::gate`] with the statistic, the bar and the verdict, and ends
//! with [`Report::finish`]: it writes
//! `{bench, quick, …, cells, gates, regression}` and, when a gate failed,
//! prints a `REGRESSION` line per failure and exits nonzero.

use mimir_obs::Json;

/// The harness command line: `--quick` (shrink the run), `--json <path>`
/// (where to write results), `--nodes <n>` (cap on simulated node counts
/// for the scaling figures).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Shrink sweeps and cells for smoke-testing.
    pub quick: bool,
    /// Where to write the JSON record.
    pub json: Option<String>,
    /// Cap on simulated node counts for scaling figures.
    pub max_nodes: Option<usize>,
}

impl Args {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    /// Panics on unknown arguments (these binaries are harnesses, not
    /// user tools).
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--json" => out.json = Some(it.next().expect("path after --json")),
                "--nodes" => {
                    out.max_nodes = Some(
                        it.next()
                            .expect("count after --nodes")
                            .parse()
                            .expect("number"),
                    );
                }
                other => panic!("unknown argument {other} (expected --quick/--json/--nodes)"),
            }
        }
        out
    }

    /// The node counts of `all` a scaling figure runs: up to `--nodes`,
    /// else 8 with `--quick` and 64 without.
    pub fn node_counts(&self, all: &[usize]) -> Vec<usize> {
        let max = self.max_nodes.unwrap_or(if self.quick { 8 } else { 64 });
        all.iter().copied().filter(|&n| n <= max).collect()
    }
}

/// Runs `variants` variants `repeats` times each, one of every variant
/// per round, and returns each variant's results in run order.
/// Interleaving spreads every variant across the same machine
/// conditions, so a slow spell lifts all of them alike instead of
/// masquerading as one variant's cost.
pub fn interleaved<T>(
    repeats: usize,
    variants: usize,
    mut run: impl FnMut(usize) -> T,
) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..variants).map(|_| Vec::with_capacity(repeats)).collect();
    for _ in 0..repeats {
        for (v, samples) in out.iter_mut().enumerate() {
            samples.push(run(v));
        }
    }
    out
}

/// The repeat with the highest `rate` — scheduler noise only ever
/// slows a run, so it is the clean-machine sample — and the summary of
/// every repeat's rate.
///
/// # Panics
/// On no repeats, or a NaN rate.
pub fn fastest<T>(repeats: &[T], rate: impl Fn(&T) -> f64) -> (&T, Summary) {
    let rates: Vec<f64> = repeats.iter().map(rate).collect();
    let summary = Summary::of(&rates);
    let i = rates.iter().position(|&r| r == summary.max);
    (&repeats[i.expect("the best rate is a sample")], summary)
}

/// The five-number summary of one variant's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median sample.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`, interpolating linearly between the closest
    /// ranks.
    ///
    /// # Panics
    /// On no samples, or a NaN sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs samples");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let quantile = |q: f64| {
            let pos = q * (s.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Summary {
            min: s[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// The summary's JSON fields.
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
            ("repeats", Json::Num(self.n as f64)),
        ]
    }
}

/// A bench's JSON record and gates; see the module docs.
#[derive(Debug)]
pub struct Report {
    /// `bench`, `quick` and the fields describing the run, in order.
    doc: Vec<(&'static str, Json)>,
    cells: Vec<Json>,
    gates: Vec<Json>,
    /// One line per gate, printed by [`Report::finish`].
    verdicts: Vec<String>,
    /// One `REGRESSION` line per failed gate.
    failed: Vec<String>,
}

impl Report {
    /// An empty record for `bench`, run as `args` say.
    pub fn new(bench: &'static str, args: &Args) -> Report {
        Report {
            doc: vec![
                ("bench", Json::Str(bench.into())),
                ("quick", Json::Bool(args.quick)),
            ],
            cells: Vec::new(),
            gates: Vec::new(),
            verdicts: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Adds a top-level field describing the run (rank count, sizes…).
    pub fn field(&mut self, key: &'static str, value: Json) {
        self.doc.push((key, value));
    }

    /// Adds one measured row.
    pub fn cell(&mut self, fields: Vec<(&'static str, Json)>) {
        self.cells.push(Json::obj(fields));
    }

    /// Records the gate `name`: the statistic `value`, the `bar` it is
    /// held to and whether it `pass`ed, with the spread of the samples
    /// the statistic comes from (none for a yes/no check).
    pub fn gate(&mut self, name: &str, value: f64, bar: f64, pass: bool, spread: Option<Summary>) {
        let verdict = if pass { "pass" } else { "FAIL" };
        let mut row = vec![
            ("name", Json::Str(name.into())),
            ("value", Json::Num(value)),
            ("bar", Json::Num(bar)),
            ("pass", Json::Bool(pass)),
        ];
        let mut note = String::new();
        if let Some(s) = spread {
            note = format!(
                " (median {:.3}, quartiles {:.3} to {:.3} of {})",
                s.median, s.q1, s.q3, s.n
            );
            row.extend(s.json_fields());
        }
        self.verdicts.push(format!(
            "gate {name}: {value:.3} against {bar:.3}: {verdict}{note}"
        ));
        self.gates.push(Json::obj(row));
        if !pass {
            self.failed.push(format!(
                "REGRESSION: {name} is {value:.3} against a bar of {bar:.3}"
            ));
        }
    }

    /// A yes/no gate (outputs match, budget kept): value 1 or 0, bar 1.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.gate(name, f64::from(u8::from(ok)), 1.0, ok, None);
    }

    /// Prints every gate's verdict and writes the record to `--json`,
    /// else `default_path`; then, if any gate failed, prints one
    /// `REGRESSION` line per failure and exits with status 1.
    ///
    /// # Panics
    /// On I/O failure: the record is the point of the run.
    pub fn finish(mut self, args: &Args, default_path: &str) {
        self.doc.extend([
            ("cells", Json::Arr(self.cells)),
            ("gates", Json::Arr(self.gates)),
            ("regression", Json::Bool(!self.failed.is_empty())),
        ]);
        for line in &self.verdicts {
            println!("{line}");
        }
        let path = args.json.as_deref().unwrap_or(default_path);
        std::fs::write(path, Json::obj(self.doc).to_pretty()).expect("writing bench JSON");
        println!("wrote {path}");
        for line in &self.failed {
            println!("{line}");
        }
        if !self.failed.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_interpolates_quartiles_and_fastest_picks_the_top_rate() {
        let odd = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (odd.min, odd.q1, odd.median, odd.q3, odd.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            (even.q1, even.median, even.q3, even.n),
            (1.75, 2.5, 3.25, 4)
        );
        let one = Summary::of(&[7.0]);
        assert_eq!((one.min, one.q1, one.median, one.q3), (7.0, 7.0, 7.0, 7.0));
        let (top, rates) = fastest(&[(0, 2.0), (1, 9.0), (2, 4.0)], |r| r.1);
        assert_eq!((top.0, rates.max, rates.median), (1, 9.0, 4.0));
    }

    #[test]
    fn interleaved_runs_one_of_each_variant_per_round() {
        let mut order = Vec::new();
        let out = interleaved(3, 2, |v| {
            order.push(v);
            v * 10 + order.len()
        });
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!(out, [vec![1, 3, 5], vec![12, 14, 16]]);
    }

    #[test]
    fn node_counts_cap_at_the_flag_or_the_mode_default() {
        let all = [2, 4, 8, 16, 32, 64, 128];
        let quick = Args {
            quick: true,
            ..Args::default()
        };
        assert_eq!(quick.node_counts(&all), [2, 4, 8]);
        assert_eq!(Args::default().node_counts(&all), [2, 4, 8, 16, 32, 64]);
        let capped = Args {
            max_nodes: Some(4),
            ..Args::default()
        };
        assert_eq!(capped.node_counts(&all), [2, 4]);
    }
}
