//! End-to-end measurement: whole jobs, tracing off, one world at a time.
//!
//! A repeat is a fresh 2-rank world. Each rank builds its pool and
//! context, reads and parses its split of the input file, meets the
//! others at a start barrier (`setup` ends here), runs the application
//! function (`job` ends when it returns), and hands back a digest of its
//! output with a few counters. The parent takes the maximum over ranks of
//! each time, because a job is done when its slowest rank is.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mimir_apps::bfs::{bfs_mimir, BfsResult};
use mimir_apps::octree::octree_mimir;
use mimir_apps::validate::validate_bfs_tree;
use mimir_apps::wordcount::wordcount_mimir;
use mimir_apps::RunMetrics;
use mimir_core::{MimirConfig, MimirContext, TransportKind};
use mimir_io::IoModel;
use mimir_mem::{NodeMap, GIB};
use mimir_mpi::{run_world_result_on, Comm};

use crate::workloads::{load, Digest, Job, Loaded, Reference, Workload, N_RANKS};

/// A repeat that has not finished by now is hung.
pub const WATCHDOG: Duration = Duration::from_secs(60);

/// One budgeted pool per rank: a node of its own, 64 KiB pages, 1 GiB —
/// about three times the largest peak any workload reaches, so running
/// out of memory is a failure and never a tuning point.
pub fn node_map() -> Result<NodeMap, String> {
    NodeMap::new(N_RANKS, 1, 64 * 1024, GIB).map_err(|e| e.to_string())
}

/// The configuration users get by default, on the workload's transport.
pub fn config(transport: TransportKind) -> MimirConfig {
    MimirConfig {
        transport,
        ..MimirConfig::default()
    }
}

/// The counts a job reports about itself (from `RunMetrics`). They must
/// repeat exactly from run to run; the times need not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Intermediate KV bytes emitted, summed over ranks.
    pub kv_bytes: u64,
    /// Intermediate KVs emitted, summed over ranks.
    pub kvs_emitted: u64,
    /// Exchange rounds (collective, so the maximum over ranks).
    pub rounds: u64,
    /// Iterations: octree levels, BFS depth, 1 for WordCount.
    pub iterations: u64,
}

/// One successful repeat, already reduced over ranks.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub setup_s: f64,
    pub job_s: f64,
    pub peak_bytes: f64,
    pub counts: Counts,
    pub input_bytes: u64,
}

/// What one rank sends home: ten scalars, and for BFS the whole parent
/// map when the parent asked for it.
type RankWire = (Vec<u64>, Vec<u64>);

enum AppOut {
    Wc(Vec<(Vec<u8>, u64)>),
    Oc(mimir_apps::octree::OcResult),
    Bfs(BfsResult),
}

/// Calls the application function — the thing `job_wall_s` times.
pub fn run_app(
    ctx: &mut MimirContext<'_>,
    job: &Job,
    input: &Loaded,
) -> Result<(AppResult, RunMetrics), String> {
    let e = |e: mimir_core::MimirError| e.to_string();
    let (out, m) = match (job, input) {
        (Job::Wc(o), Loaded::Text(text)) => {
            let (counts, m) = wordcount_mimir(ctx, text, o).map_err(e)?;
            (AppOut::Wc(counts), m)
        }
        (Job::Oc(o), Loaded::Points(points)) => {
            let (r, m) = octree_mimir(ctx, points, o).map_err(e)?;
            (AppOut::Oc(r), m)
        }
        (Job::Bfs(o), Loaded::Edges { edges, root }) => {
            let (r, m) = bfs_mimir(ctx, edges, *root, o).map_err(e)?;
            (AppOut::Bfs(r), m)
        }
        _ => return Err("input kind does not match the job".into()),
    };
    Ok((AppResult(out), m))
}

/// An application's output, opaque until digested (outside the timing).
pub struct AppResult(AppOut);

impl AppResult {
    pub fn digest(&self) -> Digest {
        match &self.0 {
            AppOut::Wc(counts) => Digest::of_counts(counts.iter().map(|(k, n)| (&k[..], *n))),
            AppOut::Oc(r) => Digest::of_octree(r),
            AppOut::Bfs(r) => Digest::of_bfs(r),
        }
    }

    /// BFS: `[visited_global, depth, v0, p0, v1, p1 …]`; empty otherwise.
    fn tree_wire(&self) -> Vec<u64> {
        match &self.0 {
            AppOut::Bfs(r) => [r.visited_global, u64::from(r.depth)]
                .into_iter()
                .chain(r.parents.iter().flat_map(|(&v, &p)| [v, p]))
                .collect(),
            _ => Vec::new(),
        }
    }
}

fn tree_from_wire(words: &[u64]) -> BfsResult {
    BfsResult {
        visited_global: words[0],
        depth: words[1] as u32,
        parents: words[2..].chunks_exact(2).map(|c| (c[0], c[1])).collect(),
    }
}

fn rank_body(
    comm: &mut Comm,
    called: Instant,
    nodes: &NodeMap,
    w: (&Job, TransportKind),
    input: &Path,
    want_tree: bool,
) -> Result<RankWire, String> {
    let pool = nodes.pool_for_rank(comm.rank());
    let mut ctx = MimirContext::new(comm, pool.clone(), IoModel::free(), config(w.1))
        .map_err(|e| e.to_string())?;
    let loaded = load(&mut ctx, w.0, input)?;
    ctx.comm().barrier();
    let setup_ns = called.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let (out, m) = run_app(&mut ctx, w.0, &loaded)?;
    let job_ns = t0.elapsed().as_nanos() as u64;

    let d = out.digest();
    let scalars = vec![
        setup_ns,
        job_ns,
        pool.peak() as u64,
        d.sum,
        d.items,
        d.aux,
        m.kv_bytes,
        m.kvs_emitted,
        m.exchange_rounds,
        u64::from(m.iterations),
        loaded.bytes(),
    ];
    let tree = if want_tree {
        out.tree_wire()
    } else {
        Vec::new()
    };
    Ok((scalars, tree))
}

/// Runs one repeat and checks its output against the reference.
///
/// # Errors
/// A rendered failure: a rank error or panic, a wrong digest, or (with
/// `full_check`) a BFS tree that `validate_bfs_tree` rejects.
pub fn run_repeat(
    job: Job,
    transport: TransportKind,
    input: &Path,
    reference: &Reference,
    full_check: bool,
) -> Result<Sample, String> {
    let want_tree = full_check && reference.bfs.is_some();
    let called = Instant::now();
    let nodes = node_map()?;
    let per_rank = run_world_result_on(transport, N_RANKS, |comm| {
        rank_body(comm, called, &nodes, (&job, transport), input, want_tree)
    })
    .map_err(|e| e.to_string())?;

    let mut digest = Digest::default();
    let mut s = Sample {
        setup_s: 0.0,
        job_s: 0.0,
        peak_bytes: 0.0,
        counts: Counts::default(),
        input_bytes: 0,
    };
    for (v, _) in &per_rank {
        let [setup, job_ns, peak, sum, items, aux, kv_bytes, kvs, rounds, iters, input_bytes] =
            v[..]
        else {
            return Err(format!("rank returned {} scalars", v.len()));
        };
        s.setup_s = s.setup_s.max(setup as f64 / 1e9);
        s.job_s = s.job_s.max(job_ns as f64 / 1e9);
        s.peak_bytes = s.peak_bytes.max(peak as f64);
        digest.merge(&Digest { sum, items, aux });
        s.counts.kv_bytes += kv_bytes;
        s.counts.kvs_emitted += kvs;
        s.counts.rounds = s.counts.rounds.max(rounds);
        s.counts.iterations = s.counts.iterations.max(iters);
        s.input_bytes += input_bytes;
    }
    if digest != reference.job {
        return Err(format!(
            "output digest {digest:?} differs from the serial reference {:?}",
            reference.job
        ));
    }
    if let (true, Some(bfs)) = (want_tree, &reference.bfs) {
        let trees: Vec<BfsResult> = per_rank.iter().map(|(_, t)| tree_from_wire(t)).collect();
        let visited = trees[0].visited_global;
        let merged = std::panic::catch_unwind(AssertUnwindSafe(|| {
            validate_bfs_tree(trees, &bfs.edges, bfs.root, &bfs.dist)
        }))
        .map_err(|p| format!("BFS tree invalid: {}", mimir_mpi::panic_message(p.as_ref())))?;
        if merged.len() as u64 != visited {
            return Err(format!(
                "BFS reports {visited} visited but the tree has {}",
                merged.len()
            ));
        }
    }
    Ok(s)
}

/// How long to keep repeating.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many timed repeats.
    Repeats(usize),
    /// Timed repeats until this many seconds have gone by, and never
    /// fewer than [`MIN_REPEATS`].
    Seconds(f64),
}

pub const MIN_REPEATS: usize = 5;
const MAX_REPEATS: usize = 64;

/// The outcome of measuring one workload.
#[derive(Default)]
pub struct Measured {
    /// Repeats started, warm-up included.
    pub attempted: u64,
    /// Repeats that errored, panicked, hung, or produced a wrong output.
    pub failures: Vec<String>,
    /// Successful timed repeats (the warm-up is discarded).
    pub samples: Vec<Sample>,
    /// A repeat hit the watchdog: the process must clean up and exit.
    pub hung: bool,
    /// Counts differed between two repeats of this run.
    pub counts_varied: bool,
}

/// Runs `f` on a helper thread and gives up waiting after [`WATCHDOG`].
/// `None` means hung; the helper thread is then left behind and the
/// caller must end the process.
fn guarded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<Result<T, String>> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("repeat".into())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawning the repeat thread");
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            worker.join().expect("repeat thread already reported");
            Some(Ok(v))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => None,
        // The sender dropped without sending: the closure panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(worker
            .join()
            .err()
            .map_or("repeat thread vanished".into(), |p| {
                mimir_mpi::panic_message(p.as_ref())
            }))),
    }
}

/// One discarded warm-up (with the full output check), then timed repeats
/// until `budget` is spent.
pub fn measure(
    w: &Workload,
    input: &Path,
    reference: &std::sync::Arc<Reference>,
    budget: Budget,
) -> Measured {
    let mut m = Measured::default();
    let mut started = Instant::now();
    let mut first_counts: Option<Counts> = None;
    loop {
        let warm_up = m.attempted == 0;
        if m.attempted == 1 {
            // The budget covers the timed repeats, not the warm-up.
            started = Instant::now();
        }
        if !warm_up {
            let timed = m.attempted as usize - 1;
            let enough = match budget {
                Budget::Repeats(n) => timed >= n,
                Budget::Seconds(s) => timed >= MIN_REPEATS && started.elapsed().as_secs_f64() >= s,
            };
            if enough || timed >= MAX_REPEATS {
                return m;
            }
        }
        m.attempted += 1;
        let (job, transport) = (w.job, w.transport);
        let (path, reference): (PathBuf, _) = (input.to_path_buf(), reference.clone());
        let outcome = guarded(move || run_repeat(job, transport, &path, &reference, warm_up));
        match outcome {
            None => {
                m.failures
                    .push(format!("repeat exceeded the {WATCHDOG:?} watchdog"));
                m.hung = true;
                return m;
            }
            Some(Ok(Ok(sample))) => {
                let first = *first_counts.get_or_insert(sample.counts);
                m.counts_varied |= first != sample.counts;
                if !warm_up {
                    m.samples.push(sample);
                }
            }
            Some(Ok(Err(e)) | Err(e)) => m.failures.push(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{reference, Input};
    use mimir_apps::wordcount::WcOptions;

    /// A small corpus in a directory of this test's own.
    fn corpus(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mimir-perf-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (file, _) = Input::Uniform { bytes: 256 * 1024 }.write(7, &dir).unwrap();
        (dir, file)
    }

    #[test]
    fn the_gate_passes_a_right_output_and_fails_a_wrong_reference() {
        let (dir, file) = corpus("gate");
        let job = Job::Wc(WcOptions::default());
        let mut r = reference(&job, &file).unwrap();
        let s = run_repeat(job, TransportKind::Inproc, &file, &r, true).expect("correct run");
        assert!(s.job_s > 0.0 && s.setup_s > 0.0 && s.peak_bytes > 0.0);
        assert_eq!(s.counts.iterations, 1);
        assert!(s.counts.kvs_emitted > 0 && s.counts.rounds > 0);

        r.job.sum ^= 1; // one flipped bit of the reference digest
        let e = run_repeat(job, TransportKind::Inproc, &file, &r, false).unwrap_err();
        assert!(e.contains("differs from the serial reference"), "{e}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn digests_and_counts_cross_the_uds_fork_unchanged() {
        let (dir, file) = corpus("uds");
        let job = Job::Wc(WcOptions::all());
        let r = reference(&job, &file).unwrap();
        let a = run_repeat(job, TransportKind::Inproc, &file, &r, false).expect("inproc run");
        let b = run_repeat(job, TransportKind::Uds, &file, &r, false).expect("uds run");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.input_bytes, b.input_bytes);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_missing_input_is_a_failed_repeat_not_a_panic() {
        let job = Job::Wc(WcOptions::default());
        let r = Reference {
            job: Digest::default(),
            replay: Digest::default(),
            bfs: None,
        };
        let gone = Path::new("/nonexistent/mimir-perf-input");
        assert!(run_repeat(job, TransportKind::Inproc, gone, &r, false).is_err());
    }
}
