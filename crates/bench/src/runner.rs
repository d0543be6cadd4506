//! Benchmark runners: one function per (benchmark, framework) pair,
//! returning the figure metrics for one configuration.
//!
//! Every runner honors `MIMIR_TRACE=1`: each rank records trace events
//! into a preallocated ring and the run exports a chrome-trace JSON plus
//! a JSON-lines report (see [`crate::trace`]).

use mimir_apps::bfs::{bfs_mimir, bfs_mrmpi, pick_root, BfsOptions};
use mimir_apps::octree::{octree_mimir, octree_mrmpi, OcOptions};
use mimir_apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir_apps::RunMetrics;
use mimir_core::{JobStats, MimirConfig, MimirContext};
use mimir_datagen::{Graph500, PointGen, UniformWords, WikipediaWords};
use mimir_io::{IoModel, SpillStore};
use mimir_mpi::{run_world, run_world_result};
use mimir_obs::Json;
use mrmpi::{MrMpiConfig, OocMode};

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
                seed: 0xC0FFEE,
            }
            .generate(rank, n_ranks, total),
            WcDataset::Wikipedia => WikipediaWords {
                vocab: 20_000,
                zipf_s: 1.0,
                seed: 0xC0FFEE,
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

/// WordCount on Mimir.
pub fn run_wc_mimir(
    p: &Platform,
    n_nodes: usize,
    dataset: WcDataset,
    total_bytes: usize,
    opts: WcOptions,
) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let nodes2 = nodes.clone();
    let io = IoModel::new(p.io).expect("io model");
    let io2 = io.clone();
    let ranks = p.ranks(n_nodes);
    let page = p.page_size;
    let trace = TraceSession::from_env(format!(
        "wc-mimir-{}-{n_nodes}n-{total_bytes}",
        dataset.tag()
    ));
    let res = run_world_result(ranks, move |comm| -> Result<RunMetrics, String> {
        let text = dataset.generate(comm.rank(), ranks, total_bytes);
        let pool = nodes2.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        let m = {
            let mut ctx = MimirContext::new(
                comm,
                pool.clone(),
                io2.clone(),
                MimirConfig {
                    comm_buf_size: page,
                    ..MimirConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            wordcount_mimir(&mut ctx, &text, &opts)
                .map(|(_, m)| m)
                .map_err(|e| e.to_string())?
        };
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), total_bytes),
        Err(_) => RunOutcome::oom(),
    }
}

/// WordCount on MR-MPI.
pub fn run_wc_mrmpi(
    p: &Platform,
    n_nodes: usize,
    dataset: WcDataset,
    total_bytes: usize,
    page_size: usize,
    compress: bool,
) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let nodes2 = nodes.clone();
    let io = IoModel::new(p.io).expect("io model");
    let io2 = io.clone();
    let ranks = p.ranks(n_nodes);
    let trace = TraceSession::from_env(format!(
        "wc-mrmpi-{}-{n_nodes}n-{total_bytes}",
        dataset.tag()
    ));
    let res = run_world_result(ranks, move |comm| -> Result<RunMetrics, String> {
        let text = dataset.generate(comm.rank(), ranks, total_bytes);
        let pool = nodes2.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        let store = SpillStore::new_temp("bench-wc", io2.clone()).map_err(|e| e.to_string())?;
        let cfg = MrMpiConfig {
            page_size,
            ooc: OocMode::WhenNeeded,
        };
        let m = wordcount_mrmpi(comm, pool.clone(), store, cfg, &text, compress)
            .map(|(_, m)| m)
            .map_err(|e| e.to_string())?;
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), total_bytes),
        Err(_) => RunOutcome::oom(),
    }
}

/// Octree clustering on Mimir over `total_points` normal-distributed
/// points.
pub fn run_oc_mimir(
    p: &Platform,
    n_nodes: usize,
    total_points: usize,
    opts: OcOptions,
) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let nodes2 = nodes.clone();
    let io = IoModel::new(p.io).expect("io model");
    let io2 = io.clone();
    let ranks = p.ranks(n_nodes);
    let page = p.page_size;
    let trace = TraceSession::from_env(format!("oc-mimir-{n_nodes}n-{total_points}"));
    let res = run_world_result(ranks, move |comm| -> Result<RunMetrics, String> {
        let pts = PointGen::new(0xC0FFEE).generate(comm.rank(), ranks, total_points);
        let pool = nodes2.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        let m = {
            let mut ctx = MimirContext::new(
                comm,
                pool.clone(),
                io2.clone(),
                MimirConfig {
                    comm_buf_size: page,
                    ..MimirConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            octree_mimir(&mut ctx, &pts, &opts)
                .map(|(_, m)| m)
                .map_err(|e| e.to_string())?
        };
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), total_points * 12),
        Err(_) => RunOutcome::oom(),
    }
}

/// Octree clustering on MR-MPI.
pub fn run_oc_mrmpi(
    p: &Platform,
    n_nodes: usize,
    total_points: usize,
    page_size: usize,
    compress: bool,
) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let nodes2 = nodes.clone();
    let io = IoModel::new(p.io).expect("io model");
    let io2 = io.clone();
    let ranks = p.ranks(n_nodes);
    let opts = OcOptions {
        compress,
        ..OcOptions::default()
    };
    let trace = TraceSession::from_env(format!("oc-mrmpi-{n_nodes}n-{total_points}"));
    let res = run_world_result(ranks, move |comm| -> Result<RunMetrics, String> {
        let pts = PointGen::new(0xC0FFEE).generate(comm.rank(), ranks, total_points);
        let pool = nodes2.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        let store = SpillStore::new_temp("bench-oc", io2.clone()).map_err(|e| e.to_string())?;
        let cfg = MrMpiConfig {
            page_size,
            ooc: OocMode::WhenNeeded,
        };
        let m = octree_mrmpi(comm, pool.clone(), &store, cfg, &pts, &opts)
            .map(|(_, m)| m)
            .map_err(|e| e.to_string())?;
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), total_points * 12),
        Err(_) => RunOutcome::oom(),
    }
}

/// BFS on Mimir over a Graph500 graph with `2^scale` vertices.
pub fn run_bfs_mimir(p: &Platform, n_nodes: usize, scale: u32, opts: BfsOptions) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let nodes2 = nodes.clone();
    let io = IoModel::new(p.io).expect("io model");
    let io2 = io.clone();
    let ranks = p.ranks(n_nodes);
    let page = p.page_size;
    let graph = Graph500::new(scale, 0xC0FFEE);
    let input_bytes = graph.n_edges() as usize * 16;
    let trace = TraceSession::from_env(format!("bfs-mimir-{n_nodes}n-s{scale}"));
    let res = run_world_result(ranks, move |comm| -> Result<RunMetrics, String> {
        let edges = graph.edges(comm.rank(), ranks);
        let root = pick_root(comm, &edges);
        let pool = nodes2.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        let m = {
            let mut ctx = MimirContext::new(
                comm,
                pool.clone(),
                io2.clone(),
                MimirConfig {
                    comm_buf_size: page,
                    ..MimirConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            bfs_mimir(&mut ctx, &edges, root, &opts)
                .map(|(_, m)| m)
                .map_err(|e| e.to_string())?
        };
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), input_bytes),
        Err(_) => RunOutcome::oom(),
    }
}

/// BFS on MR-MPI.
pub fn run_bfs_mrmpi(
    p: &Platform,
    n_nodes: usize,
    scale: u32,
    page_size: usize,
    compress: bool,
) -> RunOutcome {
    let nodes = p.node_map(n_nodes);
    let nodes2 = nodes.clone();
    let io = IoModel::new(p.io).expect("io model");
    let io2 = io.clone();
    let ranks = p.ranks(n_nodes);
    let graph = Graph500::new(scale, 0xC0FFEE);
    let input_bytes = graph.n_edges() as usize * 16;
    let opts = BfsOptions {
        hint: false,
        compress,
    };
    let trace = TraceSession::from_env(format!("bfs-mrmpi-{n_nodes}n-s{scale}"));
    let res = run_world_result(ranks, move |comm| -> Result<RunMetrics, String> {
        let edges = graph.edges(comm.rank(), ranks);
        let root = pick_root(comm, &edges);
        let pool = nodes2.pool_for_rank(comm.rank());
        if let Some(t) = &trace {
            t.install(comm.rank());
        }
        let store = SpillStore::new_temp("bench-bfs", io2.clone()).map_err(|e| e.to_string())?;
        let cfg = MrMpiConfig {
            page_size,
            ooc: OocMode::WhenNeeded,
        };
        let m = bfs_mrmpi(comm, pool.clone(), &store, cfg, &edges, root, &opts)
            .map(|(_, m)| m)
            .map_err(|e| e.to_string())?;
        if let Some(t) = &trace {
            t.finish(comm, &pool, &m)?;
        }
        Ok(m)
    });
    match res {
        Ok(ms) => RunOutcome::from_metrics(&ms, &io, nodes.max_node_peak(), input_bytes),
        Err(_) => RunOutcome::oom(),
    }
}

/// Helper for Figure 1: MR-MPI WordCount where we *want* the spill regime
/// (the out-of-core cliff), single node, uniform data. Uses the platform's
/// *large* page configuration — the paper's Figure 1 curve stays in memory
/// until ~4 GB, which is the 512 MB-page regime.
pub fn run_fig1_point(p: &Platform, total_bytes: usize) -> RunOutcome {
    run_wc_mrmpi(
        p,
        1,
        WcDataset::Uniform,
        total_bytes,
        p.mrmpi_page_large,
        false,
    )
}

/// Sanity helper used by the smoke bench: a quick world round-trip.
pub fn smoke_world(ranks: usize) -> u64 {
    run_world(ranks, |c| c.allreduce_u64(mimir_mpi::ReduceOp::Sum, 1))[0]
}
