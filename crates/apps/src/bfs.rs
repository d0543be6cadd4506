//! Breadth-first search (BFS): the paper's iterative map-only benchmark
//! (one of the three Graph500 kernels).
//!
//! Two stages, as in the paper:
//!
//! 1. **Graph partitioning** — every undirected edge is emitted in both
//!    directions keyed by endpoint and shuffled to the endpoint's owner
//!    rank, which groups it on arrival (`map(..).group()`): the job's keyed
//!    KMVC is the local adjacency, each vertex's neighbours one chain of
//!    bare 8-byte ids. The paper notes BFS's *peak memory usage occurs in
//!    this phase* (the full edge list flows through the framework), which
//!    is why KV compression does not lower BFS's peak (Figures 11–13). It
//!    holds here up to the frontiers: the KMVC stays resident through the
//!    traversal, and a level adds only its input and output frontiers
//!    (`memory_behavior.rs` pins the bound).
//! 2. **Level-synchronous traversal** — each iteration maps over the
//!    local frontier, reads each vertex's neighbours from the KMVC
//!    (`KmvContainer::get`) and emits `(neighbor, parent)` KVs, the
//!    stored neighbour id as the key, shuffled to the neighbor's owner.
//!    The owner claims a vertex as the first proposal for it arrives — an
//!    arrival filter on the level's job — and drops every later proposal
//!    before it is stored, so the next frontier holds exactly one KV per
//!    newly reached vertex. This is "map-only": no convert/reduce.
//!
//! The traversal is chained through the cross-job KV cache: each level's
//! output is stashed under a frontier name with `output_cached` and the
//! next level consumes it in place with `chain(name, ..)` + `collect`,
//! so frontier KVs never round-trip through serialization or spill
//! between levels. Traversal re-keys every KV (`vertex → neighbor`), so
//! the chain declares `shuffle_elision(false)` and each level still runs
//! a real exchange — the cache saves the *materialization*, not the
//! shuffle itself.
//!
//! Vertex ownership is `partition_of(key)` — identical to the shuffle's
//! partitioner, so shuffled KVs land exactly on their owner, and the
//! root's owner claims the root directly.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use mimir_core::{fxhash64, partition_of, typed, Emitter, KvMeta, MimirContext};
use mimir_io::SpillStore;
use mimir_mem::MemPool;
use mimir_mpi::{Comm, ReduceOp};
use mrmpi::{MapReduce, MrMpiConfig};

use crate::RunMetrics;

/// BFS options (partial reduction does not apply to a map-only job).
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsOptions {
    /// KV-hint: fixed 8-byte vertex key and value.
    pub hint: bool,
    /// Map-side KV compression during traversal (first-parent wins):
    /// within a level, only the first proposal per neighbor leaves the
    /// emitting rank. MR-MPI runs it as a compress pass over the page
    /// set; Mimir's chained traversal dedupes at the emit site.
    pub compress: bool,
}

impl BfsOptions {
    /// Hint + compression.
    pub fn all() -> Self {
        Self {
            hint: true,
            compress: true,
        }
    }

    fn meta(&self) -> KvMeta {
        if self.hint {
            KvMeta::fixed(8, 8)
        } else {
            KvMeta::var()
        }
    }
}

/// The traversal output on one rank.
#[derive(Debug, Clone, Default)]
pub struct BfsResult {
    /// `vertex → parent` for the vertices this rank owns (the root maps
    /// to itself).
    pub parents: HashMap<u64, u64>,
    /// Vertices reached globally.
    pub visited_global: u64,
    /// Tree depth (BFS levels executed).
    pub depth: u32,
}

/// KVs the partition map hands the emitter in one
/// [`Emitter::emit_batch`] call (16 edges, both directions): the
/// shuffler's own batch size.
const MAP_BATCH: usize = 32;

/// Hashes a vertex id with the framework's `fxhash64`: the claim table
/// takes one lookup a proposal, millions a level, and std's SipHash
/// costs over twice as much a lookup on 8-byte keys.
#[derive(Default)]
struct VertexHasher(u64);

impl Hasher for VertexHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fxhash64(bytes);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = fxhash64(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `vertex → parent` while the traversal claims vertices.
type Claims = HashMap<u64, u64, BuildHasherDefault<VertexHasher>>;

/// Keeps the first-proposed parent — a valid choice for BFS trees, and
/// the compression callback for traversal KVs.
fn keep_first(_k: &[u8], a: &[u8], _b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(a);
}

/// Picks a root every rank agrees on: the globally smallest vertex id
/// that has at least one edge.
pub fn pick_root(comm: &mut Comm, edges: &[(u64, u64)]) -> u64 {
    let local_min = edges
        .iter()
        .flat_map(|&(u, v)| [u, v])
        .min()
        .unwrap_or(u64::MAX);
    comm.allreduce_u64(ReduceOp::Min, local_min)
}

/// BFS on Mimir over this rank's edge share.
///
/// # Errors
/// Out-of-memory or configuration errors.
pub fn bfs_mimir(
    ctx: &mut MimirContext<'_>,
    edges: &[(u64, u64)],
    root: u64,
    opts: &BfsOptions,
) -> mimir_core::Result<(BfsResult, RunMetrics)> {
    let t0 = Instant::now();
    let meta = opts.meta();
    let rank = ctx.rank();
    let mut metrics = RunMetrics::default();

    // --- Stage 1: graph partitioning, grouped on arrival. --------------
    // Each edge in both directions, handed to the emitter a batch at a
    // time so the shuffler routes a batch before it copies any of it.
    let mut part_map = |em: &mut dyn Emitter| -> mimir_core::Result<()> {
        for chunk in edges.chunks(MAP_BATCH / 2) {
            let mut ends = [[0u8; 8]; MAP_BATCH];
            for (pair, &(u, v)) in ends.chunks_exact_mut(2).zip(chunk) {
                (pair[0], pair[1]) = (typed::enc_u64(u), typed::enc_u64(v));
            }
            let mut batch: [(&[u8], &[u8]); MAP_BATCH] = [(&[], &[]); MAP_BATCH];
            for (kvs, pair) in batch.chunks_exact_mut(2).zip(ends.chunks_exact(2)) {
                let (u, v): (&[u8], &[u8]) = (&pair[0], &pair[1]);
                (kvs[0], kvs[1]) = ((u, v), (v, u));
            }
            em.emit_batch(&batch[..2 * chunk.len()])?;
        }
        Ok(())
    };
    let (adj, stats) = ctx.job().kv_meta(meta).map(&mut part_map).group()?;
    metrics.add_stage(&stats);

    // --- Stage 2: level-synchronous traversal (iterative map-only), ----
    // chained through the cross-job cache. The root's owner claims it
    // directly and the seed job plants it there as the first frontier.
    // Every level then expands the cached frontier in place and stashes
    // its successor under the same name (the checkout happens before the
    // stash, so the overwrite is safe).
    const FRONTIER: &str = "bfs.frontier";
    let mut parents = Claims::default();
    let root_key = typed::enc_u64(root);
    if partition_of(&root_key, ctx.size()) == rank {
        parents.insert(root, root);
    }
    let mut seed_map = |em: &mut dyn Emitter| -> mimir_core::Result<()> {
        if rank == 0 {
            em.emit(&root_key, &root_key)?;
        }
        Ok(())
    };
    let out = ctx
        .job()
        .kv_meta(meta)
        .output_cached(FRONTIER)
        .map(&mut seed_map)
        .collect()?;
    metrics.add_stage(&out.stats);

    let mut depth = 0u32;
    let compress = opts.compress;
    // Compression state: the neighbors this rank already proposed a
    // parent for in the current level (first-parent wins, so later
    // duplicate proposals carry no information and need not be shuffled).
    let mut proposed: std::collections::HashSet<u64> = std::collections::HashSet::new();
    loop {
        // Expand: propose every frontier vertex as the parent of each of
        // its neighbors.
        proposed.clear();
        let prop = &mut proposed;
        let mut expand = |k: &[u8], _v: &[u8], em: &mut dyn Emitter| -> mimir_core::Result<()> {
            for n in adj.get(k)?.into_iter().flatten() {
                if compress && !prop.insert(typed::dec_u64(n)) {
                    continue;
                }
                em.emit(n, k)?;
            }
            Ok(())
        };
        // Claim on arrival: the first proposal for an unvisited vertex
        // wins and joins the next frontier; every other is dropped before
        // it is stored.
        let mut claim = |k: &[u8], v: &[u8]| match parents.entry(typed::dec_u64(k)) {
            Entry::Vacant(e) => {
                e.insert(typed::dec_u64(v));
                true
            }
            Entry::Occupied(_) => false,
        };
        let out = ctx
            .job()
            .kv_meta(meta)
            .output_cached(FRONTIER)
            .chain(FRONTIER, &mut expand)
            // Traversal re-keys (vertex → neighbor): placement changes,
            // so every level needs a real exchange.
            .shuffle_elision(false)
            .arrival_filter(&mut claim)
            .collect()?;
        metrics.add_stage(&out.stats);

        // The job's output is exactly this rank's newly claimed vertices.
        if ctx.allreduce_sum(out.stats.kvs_out) == 0 {
            break;
        }
        depth += 1;
        metrics.iterations += 1;
    }
    ctx.cache_remove(FRONTIER);

    let visited_global = ctx.allreduce_sum(parents.len() as u64);
    metrics.wall = t0.elapsed();
    metrics.node_peak = ctx.pool().peak();
    Ok((
        BfsResult {
            parents: parents.into_iter().collect(),
            visited_global,
            depth,
        },
        metrics,
    ))
}

/// BFS on MR-MPI (fresh page sets per stage/iteration).
///
/// # Errors
/// Page overflow, OOM allocating page sets, or I/O failures.
pub fn bfs_mrmpi(
    comm: &mut Comm,
    pool: MemPool,
    store: &SpillStore,
    cfg: MrMpiConfig,
    edges: &[(u64, u64)],
    root: u64,
    opts: &BfsOptions,
) -> mrmpi::Result<(BfsResult, RunMetrics)> {
    let t0 = Instant::now();
    let rank = comm.rank();
    let mut metrics = RunMetrics::default();

    // MR-MPI has no hints; `opts.hint` is ignored (paper: hint is a Mimir
    // addition). Compression during partitioning would merge adjacency —
    // not applicable, as in the paper.
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    {
        let inner = SpillStore::new_temp("bfs-part", store.model().clone())?;
        let mut mr = MapReduce::new(comm, pool.clone(), inner, cfg);
        mr.map(|em| {
            for &(u, v) in edges {
                em.emit(&typed::enc_u64(u), &typed::enc_u64(v))?;
                em.emit(&typed::enc_u64(v), &typed::enc_u64(u))?;
            }
            Ok(())
        })?;
        mr.aggregate()?;
        mr.scan(|k, v| {
            adj.entry(typed::dec_u64(k))
                .or_default()
                .push(typed::dec_u64(v));
            Ok(())
        })?;
        let s = mr.stats();
        metrics.spilled |= s.spilled;
        metrics.add_stage(&crate::job_stats_from_mr(&s));
    }

    let mut parents: HashMap<u64, u64> = HashMap::new();
    let mut frontier: Vec<u64> = Vec::new();
    // MR-MPI's partitioner is FNV-based; ownership must match the rank
    // that aggregate sent the adjacency to. Probe it with the same hash
    // the library uses by checking which rank holds the root's adjacency:
    // simpler and robust — the owner is whoever has it in `adj`, and the
    // root's owner is agreed by an allreduce.
    let i_own_root = adj.contains_key(&root);
    let owners = comm.allgather_u64(u64::from(i_own_root));
    let owner = owners.iter().position(|&o| o == 1);
    if owner == Some(rank) || (owner.is_none() && rank == 0) {
        parents.insert(root, root);
        frontier.push(root);
    }

    let mut depth = 0u32;
    loop {
        // Claim as the scan reads the received proposals: the first for an
        // unvisited vertex wins and joins the next frontier.
        let mut next: Vec<u64> = Vec::new();
        {
            let inner = SpillStore::new_temp("bfs-trav", store.model().clone())?;
            let mut mr = MapReduce::new(comm, pool.clone(), inner, cfg);
            mr.map(|em| {
                for &v in &frontier {
                    if let Some(neighbors) = adj.get(&v) {
                        for &n in neighbors {
                            em.emit(&typed::enc_u64(n), &typed::enc_u64(v))?;
                        }
                    }
                }
                Ok(())
            })?;
            if opts.compress {
                mr.compress(keep_first)?;
            }
            mr.aggregate()?;
            mr.scan(|k, v| {
                let vertex = typed::dec_u64(k);
                if let Entry::Vacant(e) = parents.entry(vertex) {
                    e.insert(typed::dec_u64(v));
                    next.push(vertex);
                }
                Ok(())
            })?;
            let s = mr.stats();
            metrics.spilled |= s.spilled;
            metrics.add_stage(&crate::job_stats_from_mr(&s));
        }

        frontier = next;
        let frontier_global = comm.allreduce_u64(ReduceOp::Sum, frontier.len() as u64);
        if frontier_global == 0 {
            break;
        }
        depth += 1;
        metrics.iterations += 1;
    }

    let visited_global = comm.allreduce_u64(ReduceOp::Sum, parents.len() as u64);
    metrics.wall = t0.elapsed();
    metrics.node_peak = pool.peak();
    Ok((
        BfsResult {
            parents: parents.into_iter().collect(),
            visited_global,
            depth,
        },
        metrics,
    ))
}

/// Serial reference BFS: the reachable set and its distances from
/// `root`.
pub fn bfs_serial(all_edges: &[(u64, u64)], root: u64) -> HashMap<u64, u32> {
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(u, v) in all_edges {
        adj.entry(u).or_default().push(v);
        adj.entry(v).or_default().push(u);
    }
    let mut dist = HashMap::new();
    dist.insert(root, 0u32);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if let Some(ns) = adj.get(&v) {
            for &n in ns {
                dist.entry(n).or_insert_with(|| {
                    queue.push_back(n);
                    d + 1
                });
            }
        }
    }
    dist
}
