//! The benchmark runner: [`run`] executes one (platform, nodes, app,
//! system) configuration and returns the figure metrics for it.
//!
//! Every run honors `MIMIR_TRACE=1`: each rank records trace events
//! into a preallocated ring and the run exports a chrome-trace JSON plus
//! a JSON-lines report (see [`crate::trace`]).

use std::fmt;

use mimir_apps::bfs::{bfs_mimir, bfs_mrmpi, pick_root, BfsOptions};
use mimir_apps::octree::{octree_mimir, octree_mrmpi, OcOptions};
use mimir_apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir_apps::RunMetrics;
use mimir_core::{JobStats, MimirConfig, MimirContext, MimirError};
use mimir_datagen::{Graph500, Point, PointGen, UniformWords, WikipediaWords};
use mimir_io::{IoModel, SpillStore};
use mimir_mpi::{run_world_result, Comm, WorldError};
use mimir_obs::Json;
use mrmpi::{MrError, MrMpiConfig, OocMode};

use crate::trace::TraceSession;
use crate::Platform;

/// How a configuration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ran entirely in memory (the regime the paper's time plots show).
    InMemory,
    /// MR-MPI left memory and paid the parallel file system.
    Spilled,
    /// The node budget was exceeded (Mimir) or a page set was
    /// unaffordable (MR-MPI) — a missing point in the paper's figures.
    Oom,
}

impl Status {
    /// The JSON name (`"InMemory"` / `"Spilled"` / `"Oom"`).
    pub fn name(self) -> &'static str {
        match self {
            Status::InMemory => "InMemory",
            Status::Spilled => "Spilled",
            Status::Oom => "Oom",
        }
    }

    /// Parses [`Self::name`]'s output.
    pub fn from_name(s: &str) -> Option<Status> {
        match s {
            "InMemory" => Some(Status::InMemory),
            "Spilled" => Some(Status::Spilled),
            "Oom" => Some(Status::Oom),
            _ => None,
        }
    }
}

/// Metrics for one (framework, dataset size, options) cell of a figure.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Terminal status.
    pub status: Status,
    /// Reported execution time: measured compute + modeled I/O, seconds.
    /// NaN for OOM cells (serialized as `null`).
    pub time_s: f64,
    /// Measured compute seconds (max across ranks).
    pub compute_s: f64,
    /// Modeled parallel-file-system seconds (input + spills).
    pub modeled_io_s: f64,
    /// Worst per-node peak memory, bytes.
    pub peak_node_bytes: usize,
    /// Intermediate KV bytes emitted across all ranks.
    pub kv_bytes: u64,
    /// Unique keys across the cluster (summed from the merged
    /// [`JobStats`]).
    pub unique_keys: u64,
    /// Exchange rounds (max across ranks — rounds are collective).
    pub exchange_rounds: u64,
}

impl RunOutcome {
    fn oom() -> Self {
        Self {
            status: Status::Oom,
            time_s: f64::NAN,
            compute_s: f64::NAN,
            modeled_io_s: f64::NAN,
            peak_node_bytes: 0,
            kv_bytes: 0,
            unique_keys: 0,
            exchange_rounds: 0,
        }
    }

    fn from_metrics(
        metrics: &[RunMetrics],
        io: &IoModel,
        peak_node_bytes: usize,
        input_bytes: usize,
    ) -> Self {
        // Input arrives through the PFS too; charge it so in-memory runs
        // have a non-zero, size-proportional baseline like the paper's.
        io.charge_read(input_bytes);
        let compute_s = metrics
            .iter()
            .map(|m| m.wall.as_secs_f64())
            .fold(0.0, f64::max);
        let modeled_io_s = io.modeled_time().as_secs_f64();
        let spilled = metrics.iter().any(|m| m.spilled);
        // Cluster totals come from folding every rank's unified job
        // stats: traffic sums, times/peaks take the max. Rounds are
        // collective, so every rank counts the same run total.
        let mut cluster = JobStats::default();
        for m in metrics {
            cluster.merge(&m.job);
        }
        Self {
            status: if spilled {
                Status::Spilled
            } else {
                Status::InMemory
            },
            time_s: compute_s + modeled_io_s,
            compute_s,
            modeled_io_s,
            peak_node_bytes,
            kv_bytes: metrics.iter().map(|m| m.kv_bytes).sum(),
            unique_keys: cluster.unique_keys,
            exchange_rounds: metrics.iter().map(|m| m.exchange_rounds).max().unwrap_or(0),
        }
    }

    /// Serializes to a JSON object. Non-finite floats become `null`
    /// (JSON has no NaN), so OOM cells round-trip as missing values.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("status", Json::Str(self.status.name().into())),
            ("time_s", Json::Num(self.time_s)),
            ("compute_s", Json::Num(self.compute_s)),
            ("modeled_io_s", Json::Num(self.modeled_io_s)),
            ("peak_node_bytes", Json::Num(self.peak_node_bytes as f64)),
            ("kv_bytes", Json::Num(self.kv_bytes as f64)),
            ("unique_keys", Json::Num(self.unique_keys as f64)),
            ("exchange_rounds", Json::Num(self.exchange_rounds as f64)),
        ])
    }

    /// Parses [`Self::to_json`]'s output; `null` times read back as NaN.
    ///
    /// # Errors
    /// Missing or mistyped fields (as a message).
    pub fn from_json(v: &Json) -> Result<RunOutcome, String> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .and_then(Status::from_name)
            .ok_or("bad or missing `status`")?;
        let num = |key: &str| -> Result<f64, String> {
            match v.get(key) {
                Some(Json::Null) => Ok(f64::NAN),
                Some(n) => n.as_f64().ok_or(format!("field `{key}` is not a number")),
                None => Err(format!("missing field `{key}`")),
            }
        };
        Ok(RunOutcome {
            status,
            time_s: num("time_s")?,
            compute_s: num("compute_s")?,
            modeled_io_s: num("modeled_io_s")?,
            peak_node_bytes: num("peak_node_bytes")? as usize,
            kv_bytes: num("kv_bytes")? as u64,
            // Added after the first records were written; default to 0
            // when reading older files.
            unique_keys: num("unique_keys").unwrap_or(0.0) as u64,
            exchange_rounds: num("exchange_rounds").unwrap_or(0.0) as u64,
        })
    }
}

/// The WC input variants of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcDataset {
    /// Synthetic uniform words.
    Uniform,
    /// The Wikipedia stand-in: Zipf frequencies, heterogeneous lengths.
    Wikipedia,
}

impl WcDataset {
    fn generate(self, rank: usize, n_ranks: usize, total: usize) -> Vec<u8> {
        // Vocabulary sizes are scaled with everything else (÷1024-ish
        // from realistic corpus vocabularies), so the KV-compression
        // tables keep the same proportion to node memory as on the real
        // machines.
        match self {
            WcDataset::Uniform => UniformWords {
                vocab: 8 * 1024,
                word_len: 8,
                seed: SEED,
            }
            .generate(rank, n_ranks, total),
            WcDataset::Wikipedia => WikipediaWords {
                vocab: 20_000,
                zipf_s: 1.0,
                seed: SEED,
            }
            .generate(rank, n_ranks, total),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            WcDataset::Uniform => "uniform",
            WcDataset::Wikipedia => "wikipedia",
        }
    }
}

/// Seed of every generated input, so each configuration sees the same
/// data on both systems.
const SEED: u64 = 0xC0FFEE;

/// One benchmark workload at one size, totalled over the whole world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// WordCount over this many bytes of text.
    Wc(WcDataset, usize),
    /// Octree clustering of this many normal-distributed points.
    Oc(usize),
    /// BFS over a Graph500 graph with `2^scale` vertices.
    Bfs(u32),
}

impl App {
    /// The same workload with `ranks` times the size: the total for a
    /// weak-scaling point whose per-rank share is `self`. BFS scales its
    /// vertex count, rounded down to a power of two.
    pub fn times(self, ranks: usize) -> App {
        match self {
            App::Wc(dataset, bytes) => App::Wc(dataset, bytes * ranks),
            App::Oc(points) => App::Oc(points * ranks),
            App::Bfs(scale) => App::Bfs(((1usize << scale) * ranks).ilog2()),
        }
    }

    /// A size sweep's axis name and this size's value on it: `dataset`
    /// `16M`, `points` `2^18`, `vertices` `2^13`.
    pub fn size_axis(self) -> (&'static str, String) {
        match self {
            App::Wc(_, bytes) => ("dataset", crate::fmt_size(bytes)),
            App::Oc(points) => ("points", format!("2^{}", points.ilog2())),
            App::Bfs(scale) => ("vertices", format!("2^{scale}")),
        }
    }

    /// Names this run's trace files: `wc-mimir-uniform-1n-<bytes>`,
    /// `oc-mrmpi-2n-<points>`, `bfs-mimir-1n-s<scale>`.
    fn trace_label(self, system: System, n_nodes: usize) -> String {
        let sys = match system {
            System::Mimir(_) => "mimir",
            System::MrMpi { .. } => "mrmpi",
        };
        match self {
            App::Wc(dataset, bytes) => {
                format!("wc-{sys}-{}-{n_nodes}n-{bytes}", dataset.tag())
            }
            App::Oc(points) => format!("oc-{sys}-{n_nodes}n-{points}"),
            App::Bfs(scale) => format!("bfs-{sys}-{n_nodes}n-s{scale}"),
        }
    }

    /// Bytes the whole input occupies on the parallel file system.
    fn input_bytes(self) -> usize {
        match self {
            App::Wc(_, bytes) => bytes,
            App::Oc(points) => points * 12,
            App::Bfs(scale) => Graph500::new(scale, SEED).n_edges() as usize * 16,
        }
    }

    /// Generates this rank's share of the input (BFS also agrees on the
    /// root, a collective).
    fn input(self, comm: &mut Comm) -> Input {
        let (rank, ranks) = (comm.rank(), comm.size());
        match self {
            App::Wc(dataset, bytes) => Input::Text(dataset.generate(rank, ranks, bytes)),
            App::Oc(points) => Input::Points(PointGen::new(SEED).generate(rank, ranks, points)),
            App::Bfs(scale) => {
                let edges = Graph500::new(scale, SEED).edges(rank, ranks);
                let root = pick_root(comm, &edges);
                Input::Graph(edges, root)
            }
        }
    }
}

/// One rank's share of an [`App`]'s input.
enum Input {
    Text(Vec<u8>),
    Points(Vec<Point>),
    Graph(Vec<(u64, u64)>, u64),
}

/// Mimir's three optimizations (paper §III-C), applied to whichever app
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// KV-hint: declared key/value lengths instead of headers.
    pub hint: bool,
    /// Partial reduction instead of convert + reduce (not BFS).
    pub pr: bool,
    /// Map-side KV compression.
    pub cps: bool,
}

impl Opts {
    /// No optimization: the baseline.
    pub const BASE: Opts = Opts {
        hint: false,
        pr: false,
        cps: false,
    };

    /// These options plus the KV-hint.
    pub const fn hint(self) -> Opts {
        Opts { hint: true, ..self }
    }

    /// These options plus partial reduction.
    pub const fn pr(self) -> Opts {
        Opts { pr: true, ..self }
    }

    /// These options plus KV compression.
    pub const fn cps(self) -> Opts {
        Opts { cps: true, ..self }
    }
}

/// The framework a configuration runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Mimir with these optimizations.
    Mimir(Opts),
    /// MR-MPI with a page size, optionally with its KV compression.
    MrMpi {
        /// Page size of every page set.
        page: usize,
        /// Run MR-MPI's compress pass.
        cps: bool,
    },
}

impl System {
    /// MR-MPI with `page`-byte pages, compressing when `cps`.
    pub const fn mrmpi(page: usize, cps: bool) -> System {
        System::MrMpi { page, cps }
    }
}

/// Why a rank stopped early, typed so [`run`] can tell running out of
/// memory (a missing figure point) from a failure.
#[derive(Debug)]
enum Failure {
    Mimir(MimirError),
    MrMpi(MrError),
    Trace(String),
}

impl Failure {
    fn is_oom(&self) -> bool {
        match self {
            Failure::Mimir(e) => e.is_oom(),
            Failure::MrMpi(e) => e.is_oom(),
            Failure::Trace(_) => false,
        }
    }
}

impl From<MimirError> for Failure {
    fn from(e: MimirError) -> Self {
        Failure::Mimir(e)
    }
}

impl From<MrError> for Failure {
    fn from(e: MrError) -> Self {
        Failure::MrMpi(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Mimir(e) => write!(f, "mimir: {e}"),
            Failure::MrMpi(e) => write!(f, "mr-mpi: {e}"),
            Failure::Trace(e) => write!(f, "trace export: {e}"),
        }
    }
}

/// Runs `app` on `system` over `n_nodes` nodes of `p`.
///
/// A run that exceeds the node budget (Mimir) or cannot allocate its
/// page sets (MR-MPI) is a missing point of the figure and comes back as
/// [`Status::Oom`].
///
/// # Panics
/// On any other failure — a rank panic, a configuration error, a KV too
/// large for its buffer — with the failure's message: a harness that
/// recorded those as missing points would plot a bug as a result.
pub fn run(p: &Platform, n_nodes: usize, app: App, system: System) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let io = IoModel::new(p.io).expect("io model");
    let label = app.trace_label(system, n_nodes);
    let trace = TraceSession::from_env(label.clone());
    let res = run_world_result(p.ranks(n_nodes), |comm| -> Result<RunMetrics, Failure> {
        let input = app.input(comm);
        let pool = nodes.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        // MR-MPI's compress pass is its only option; it runs the apps
        // without hint or partial reduction.
        let o = match system {
            System::Mimir(o) => o,
            System::MrMpi { cps, .. } => Opts { cps, ..Opts::BASE },
        };
        let oc = OcOptions {
            hint: o.hint,
            partial_reduce: o.pr,
            compress: o.cps,
            ..OcOptions::default()
        };
        let bfs = BfsOptions {
            hint: o.hint,
            compress: o.cps,
        };
        let m = if let System::MrMpi { page, .. } = system {
            let store = SpillStore::new_temp("bench", io.clone()).map_err(MrError::Io)?;
            let cfg = MrMpiConfig {
                page_size: page,
                ooc: OocMode::WhenNeeded,
            };
            let pool = pool.clone();
            match &input {
                Input::Text(text) => wordcount_mrmpi(comm, pool, store, cfg, text, o.cps)?.1,
                Input::Points(pts) => octree_mrmpi(comm, pool, &store, cfg, pts, &oc)?.1,
                Input::Graph(edges, root) => {
                    bfs_mrmpi(comm, pool, &store, cfg, edges, *root, &bfs)?.1
                }
            }
        } else {
            let cfg = MimirConfig {
                comm_buf_size: p.page_size,
                ..MimirConfig::default()
            };
            let ctx = &mut MimirContext::new(comm, pool.clone(), io.clone(), cfg)?;
            match &input {
                Input::Text(text) => {
                    let wc = WcOptions {
                        hint: o.hint,
                        partial_reduce: o.pr,
                        compress: o.cps,
                    };
                    wordcount_mimir(ctx, text, &wc)?.1
                }
                Input::Points(pts) => octree_mimir(ctx, pts, &oc)?.1,
                Input::Graph(edges, root) => {
                    assert!(!o.pr, "BFS has no partial reduction");
                    bfs_mimir(ctx, edges, *root, &bfs)?.1
                }
            }
        };
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m).map_err(Failure::Trace)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), app.input_bytes()),
        Err(WorldError::Aborted(e)) if e.is_oom() => RunOutcome::oom(),
        Err(e) => panic!("{label}: {e}"),
    }
}
