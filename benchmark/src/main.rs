//! `mimir-perf` — the repository's benchmark.
//!
//! ```text
//! mimir-perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! mimir-perf compare A.json B.json
//! ```
//!
//! `run` measures whole jobs with tracing off and checks every output
//! against the serial reference; `--trace` measures the layers instead,
//! from spans this driver records around its own calls into them.
//! `compare` applies the regression bounds to two result files. See
//! `README.md` for every metric, workload and bound.

mod compare;
mod e2e;
mod hygiene;
mod json;
mod metrics;
mod probes;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use e2e::{Budget, Measured};
use json::Json;
use metrics::{EndToEnd, Metric, E2E};
use stats::Summary;
use workloads::Workload;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage:
  mimir-perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  mimir-perf compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(run),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mimir-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// The staged replay of one workload, joined with the references and
/// probes of the machine (measured once per process).
fn trace_workload(
    wr: &mut WorkloadRun,
    w: &Workload,
    m: &probes::Machine,
    input: &Path,
    reference: &workloads::Reference,
    write_s: f64,
) -> Result<(), String> {
    // One replay stands against one typical repeat: the median, not the
    // fastest, of this run's three.
    let job_wall_s = stats::median(&wr.e2e[1].1);
    let last = wr.measured.samples[wr.measured.samples.len() - 1];
    let r =
        replay::run(w, input, reference, job_wall_s).map_err(|e| format!("staged replay: {e}"))?;
    let staged = r.metrics(write_s, &last, m);
    wr.notes = r.notes(&staged);
    let mut layers = m.metrics();
    layers.extend(staged);
    wr.layers = metrics::in_table_order(layers)?;
    r.write_chrome_trace(w.name)?;
    wr.trace_failures.extend(r.failures);
    Ok(())
}

/// Everything measured for one workload in one run.
struct WorkloadRun {
    name: &'static str,
    input: String,
    measured: Measured,
    /// `(metric, samples)` for each end-to-end metric.
    e2e: Vec<(&'static EndToEnd, Vec<f64>)>,
    /// Per-layer metrics of a traced run, in table order.
    layers: Vec<(&'static Metric, f64)>,
    /// Extra failures of the traced part (a replay digest mismatch).
    trace_attempted: u64,
    trace_failures: Vec<String>,
    /// Remarks on the trace's own quality (coverage, replay ratio).
    notes: Vec<String>,
}

impl WorkloadRun {
    fn attempted(&self) -> u64 {
        self.measured.attempted + self.trace_attempted
    }

    fn failed(&self) -> u64 {
        (self.measured.failures.len() + self.trace_failures.len()) as u64
    }
}

fn run(args: RunArgs) -> Result<bool, String> {
    hygiene::refuse_debug_build()?;
    let scrubbed = hygiene::scrub_env();
    let selected: Vec<Workload> = workloads::all()
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        return Err(format!(
            "no workload named `{}`; have {}",
            args.workload.unwrap_or_default(),
            names.join(", ")
        ));
    }
    // `--out` is relative to where the command was typed; resolve it
    // before the scratch directory changes the working directory.
    let out = match &args.out {
        Some(p) => Some(std::path::absolute(p).map_err(|e| e.to_string())?),
        None => None,
    };
    let scratch = hygiene::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let idle_poll = hygiene::IdlePoll::start();
    let env = hygiene::environment(Path::new(env!("CARGO_MANIFEST_DIR")), idle_poll.active);
    if !scrubbed.is_empty() {
        println!("# removed from the environment: {}", scrubbed.join(" "));
    }
    println!("# env {}", env.render());

    let budget = args.seconds.map_or(Budget::Repeats(9), Budget::Seconds);
    let mut runs: Vec<WorkloadRun> = Vec::new();
    // Reference numbers of the machine and the layers do not depend on
    // the workload: measure them once per traced run.
    let mut machine: Option<Result<probes::Machine, String>> = None;
    for (i, w) in selected.iter().enumerate() {
        let t = Instant::now();
        let (input, input_bytes) = w
            .input
            .write(args.seed, &scratch.inputs())
            .map_err(|e| format!("writing the input of {}: {e}", w.name))?;
        let write_s = t.elapsed().as_secs_f64();
        let reference =
            Arc::new(workloads::reference(&w.job, &input).map_err(|e| format!("reference: {e}"))?);
        println!("# {}: {}", w.name, w.why);
        println!(
            "# {}: {} ({} bytes) generated and referenced in {:.2} s",
            w.name,
            w.input.describe(),
            input_bytes,
            t.elapsed().as_secs_f64()
        );

        // A traced run spends its time on the layers: a short end-to-end
        // measurement gives the replay something to be compared with.
        let e2e_budget = if args.trace {
            Budget::Repeats(3)
        } else {
            budget
        };
        let measured = e2e::measure(w, &input, &reference, e2e_budget);
        if measured.hung {
            eprintln!("mimir-perf: {}: {}", w.name, measured.failures.join("; "));
            hygiene::kill_children();
            scratch.remove();
            std::process::exit(1);
        }
        let col = |f: fn(&e2e::Sample) -> f64| measured.samples.iter().map(f).collect::<Vec<_>>();
        let e2e = vec![
            (&E2E[0], col(|s| s.setup_s)),
            (&E2E[1], col(|s| s.job_s)),
            (&E2E[2], col(|s| s.peak_bytes)),
        ];
        let mut wr = WorkloadRun {
            name: w.name,
            input: w.input.describe(),
            measured,
            e2e,
            layers: Vec::new(),
            trace_attempted: 0,
            trace_failures: Vec::new(),
            notes: Vec::new(),
        };
        if args.trace && !wr.measured.samples.is_empty() {
            wr.trace_attempted = 1;
            let traced = match machine.get_or_insert_with(|| probes::measure(&scratch, args.seed)) {
                Ok(m) => trace_workload(&mut wr, w, m, &input, &reference, write_s),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = traced {
                wr.trace_failures.push(e);
            }
        }
        print_workload(&wr, input_bytes);
        runs.push(wr);
        // Two workloads may share an input; drop it only when the next
        // one does not want it, to keep the scratch directory small.
        if selected.get(i + 1).is_none_or(|next| next.input != w.input) {
            let _ = std::fs::remove_file(&input);
        }
    }

    let ok = runs
        .iter()
        .all(|r| r.failed() == 0 && !r.measured.samples.is_empty());
    if let Some(path) = out {
        append_result_file(&path, &env, &args, &runs)?;
        println!("# results appended to {}", path.display());
    }
    drop(idle_poll);
    drop(scratch);
    println!("{}", last_line(&args, &runs, ok).render());
    Ok(ok)
}

fn print_workload(r: &WorkloadRun, input_bytes: u64) {
    for (e2e, samples) in &r.e2e {
        let Some(s) = Summary::of(samples) else {
            continue;
        };
        let (metric, value) = (&e2e.metric, e2e.run_value(&s));
        println!(
            "{:<16} {:<22} {:>14.6} {:<5} repeats: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} spread {:.3} n {}",
            r.name, metric.name, value, metric.unit, s.min, s.q1, s.median, s.q3, s.max, s.spread(), s.n
        );
        if metric.name == "job_wall_s" {
            println!(
                "{:<16} {:<22} {:>14.3} MiB/s (input over job_wall_s, not gated)",
                r.name,
                "input_rate",
                input_bytes as f64 / (1024.0 * 1024.0) / value
            );
        }
    }
    println!(
        "{:<16} {:<22} {:>14.6} ratio ({} failed of {} attempted)",
        r.name,
        "failure_share",
        r.failed() as f64 / r.attempted().max(1) as f64,
        r.failed(),
        r.attempted()
    );
    for f in r.measured.failures.iter().chain(&r.trace_failures) {
        println!("{:<16} FAILED: {f}", r.name);
    }
    if r.measured.counts_varied {
        println!(
            "{:<16} note: the job's own counts differed between repeats",
            r.name
        );
    }
    for (metric, value) in &r.layers {
        println!(
            "{:<16} {:<32} {:>16.6} {}",
            r.name, metric.name, value, metric.unit
        );
    }
    for note in &r.notes {
        println!("{:<16} note: {note}", r.name);
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The one-line JSON object the builder's driver reads: end-to-end
/// metrics for `--trace 0`, per-layer metrics for `--trace 1`. With more
/// than one workload in the run, names are prefixed `workload.`.
fn last_line(args: &RunArgs, runs: &[WorkloadRun], ok: bool) -> Json {
    let prefix = |r: &WorkloadRun, name: &str| {
        if runs.len() == 1 {
            name.to_string()
        } else {
            format!("{}.{name}", r.name)
        }
    };
    let mut metrics = Vec::new();
    for r in runs {
        if args.trace {
            for (m, v) in &r.layers {
                metrics.push((prefix(r, m.name), metric_json(*v, m.unit)));
            }
        } else {
            for (e, samples) in &r.e2e {
                if let Some(s) = Summary::of(samples) {
                    let value = metric_json(e.run_value(&s), e.metric.unit);
                    metrics.push((prefix(r, e.metric.name), value));
                }
            }
        }
    }
    Json::obj(vec![
        ("correct", Json::Bool(ok)),
        (
            "attempted",
            Json::Num(runs.iter().map(WorkloadRun::attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(runs.iter().map(WorkloadRun::failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Appends this run's workloads to the result file (`{"runs": […]}`), so
/// a *set* of runs — what `compare` takes its spread from — builds up in
/// one file over several invocations.
fn append_result_file(
    path: &Path,
    env: &Json,
    args: &RunArgs,
    runs: &[WorkloadRun],
) -> Result<(), String> {
    let mut all: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or(format!("{}: no `runs` array", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    for r in runs {
        let e2e = r
            .e2e
            .iter()
            .filter_map(|(e, samples)| {
                let s = Summary::of(samples)?;
                Some((
                    e.metric.name,
                    Json::obj(vec![
                        ("value", Json::Num(e.run_value(&s))),
                        ("unit", Json::str(e.metric.unit)),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("min", Json::Num(s.min)),
                        ("max", Json::Num(s.max)),
                        ("n", Json::Num(s.n as f64)),
                        (
                            "samples",
                            Json::Arr(samples.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                    ]),
                ))
            })
            .collect();
        let layers = r
            .layers
            .iter()
            .map(|(m, v)| (m.name, metric_json(*v, m.unit)))
            .collect();
        all.push(Json::obj(vec![
            ("workload", Json::str(r.name)),
            ("seed", Json::str(args.seed.to_string())),
            ("input", Json::str(&r.input)),
            ("env", env.clone()),
            ("attempted", Json::Num(r.attempted() as f64)),
            ("failed", Json::Num(r.failed() as f64)),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
        ]));
    }
    let doc = Json::obj(vec![("runs", Json::Arr(all))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
