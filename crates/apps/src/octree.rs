//! Octree clustering (OC): the paper's iterative multi-stage benchmark.
//!
//! The MapReduce clustering algorithm of Estrada et al. for 3-D point
//! data: starting from the unit cube, each iteration deepens the octree
//! one level — every point inside a currently-dense octant maps to its
//! child octant id, the reduction counts points per child, and children
//! holding at least `density` of the total points stay dense. The
//! algorithm stops when no octant is dense (the previous level's dense
//! octants are the clusters) or at `max_depth`.
//!
//! The intermediate key is the octant path (one byte per level), so at
//! level ℓ the key has exactly ℓ bytes — a natural fit for the paper's
//! fixed-length KV-hint. The value is a fixed 8-byte count.
//!
//! Both frameworks run one level map, [`map_level`]: a coordinate is
//! quantised once a level to `q = ⌊c · 2^ℓ⌋` clamped to `[0, 2^ℓ − 1]`,
//! and digit i, bit `ℓ − 1 − i` of `(qx, qy, qz)` interleaved, is the one
//! [`octant_path`] bisects for. The active set is the previous level's
//! dense octants, [`pack`]ed 3 bits a digit and sorted; a `u64` holds
//! [`MAX_DEPTH`] digits. [`octree_serial`] keeps the bisection as oracle.

use std::collections::HashSet;
use std::time::Instant;

use mimir_core::{typed, Emitter, KvMeta, MimirContext, MimirError};
use mimir_io::SpillStore;
use mimir_mem::MemPool;
use mimir_mpi::Comm;
use mrmpi::{MapReduce, MrError, MrMpiConfig};

use crate::RunMetrics;

/// A point in the unit cube.
pub type Point = [f32; 3];

/// Octree clustering options.
#[derive(Debug, Clone, Copy)]
pub struct OcOptions {
    /// KV-hint: fixed-length octant-path key, fixed 8-byte value.
    pub hint: bool,
    /// Partial reduction instead of convert+reduce.
    pub partial_reduce: bool,
    /// Map-side KV compression.
    pub compress: bool,
    /// Density threshold as a fraction of total points (paper: 1 %).
    pub density: f64,
    /// Maximum refinement depth. Past [`MAX_DEPTH`] both frameworks refuse
    /// the run with a configuration error before any job starts.
    pub max_depth: usize,
}

impl Default for OcOptions {
    fn default() -> Self {
        Self {
            hint: false,
            partial_reduce: false,
            compress: false,
            density: 0.01,
            max_depth: 8,
        }
    }
}

/// The deepest level [`map_level`] supports: 21 3-bit digits fill a `u64`.
pub const MAX_DEPTH: usize = 21;

impl OcOptions {
    /// The full optimization stack.
    pub fn all() -> Self {
        Self {
            hint: true,
            partial_reduce: true,
            compress: true,
            ..Self::default()
        }
    }

    fn meta(&self, level: usize) -> KvMeta {
        if self.hint {
            KvMeta::fixed(level, 8)
        } else {
            KvMeta::var()
        }
    }

    fn check_depth(&self) -> Result<(), String> {
        match self.max_depth {
            0..=MAX_DEPTH => Ok(()),
            d => Err(format!("octree max_depth {d} exceeds {MAX_DEPTH}")),
        }
    }
}

/// The octant path of `p` down to `depth` levels: one digit (0..8) per
/// level, bit 0/1/2 selecting the x/y/z half.
pub fn octant_path(p: Point, depth: usize) -> Vec<u8> {
    let mut lo = [0f32; 3];
    let mut half = 0.5f32;
    let mut path = Vec::with_capacity(depth);
    for _ in 0..depth {
        let mut digit = 0u8;
        for axis in 0..3 {
            let mid = lo[axis] + half;
            if p[axis] >= mid {
                digit |= 1 << axis;
                lo[axis] = mid;
            }
        }
        path.push(digit);
        half *= 0.5;
    }
    path
}

/// Packs octant digits 3 bits each, the first digit most significant.
pub fn pack(digits: &[u8]) -> u64 {
    digits.iter().fold(0, |code, &d| code << 3 | u64::from(d))
}

/// One level's map: emits the `level`-digit octant path of every point
/// whose parent octant's [`pack`]ed code is in the sorted `active` set.
/// Allocation-free; `level` must be in `1..=MAX_DEPTH`.
///
/// # Errors
/// The first error `emit` returns.
pub fn map_level<E>(
    points: &[Point],
    level: usize,
    active: &[u64],
    mut emit: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let scale = (1u32 << level) as f32;
    let top = (1u32 << level) - 1;
    let mut key = [0u8; MAX_DEPTH];
    for p in points {
        // Scaling by a power of two is exact; `as` saturates negatives
        // and NaN to 0, and `min` clamps values at or past 1.
        let [x, y, z] = p.map(|c| ((c * scale) as u32).min(top));
        let mut code = 0u64;
        for (i, digit) in key[..level].iter_mut().enumerate() {
            let b = level - 1 - i;
            *digit = (x >> b & 1 | (y >> b & 1) << 1 | (z >> b & 1) << 2) as u8;
            code = code << 3 | u64::from(*digit);
        }
        if active.binary_search(&(code >> 3)).is_ok() {
            emit(&key[..level])?;
        }
    }
    Ok(())
}

/// Octant paths a level's map hands the emitter in one
/// [`Emitter::emit_batch`] call: the shuffler's own batch size.
const MAP_BATCH: usize = 32;

/// Emits the first `level` digits of each of `keys`, valued `one`, as
/// one batch.
fn emit_keys(
    em: &mut dyn Emitter,
    keys: &[[u8; MAX_DEPTH]],
    level: usize,
    one: &[u8],
) -> mimir_core::Result<()> {
    let mut batch: [(&[u8], &[u8]); MAP_BATCH] = [(&[], one); MAP_BATCH];
    for (slot, key) in batch.iter_mut().zip(keys) {
        slot.0 = &key[..level];
    }
    em.emit_batch(&batch[..keys.len()])
}

/// The result of a clustering run: the dense octant paths of the deepest
/// level that had any, with their point counts (on the rank that reduced
/// them), plus the level reached.
#[derive(Debug, Clone, Default)]
pub struct OcResult {
    /// Dense octant paths with counts, as reduced on this rank.
    pub local_dense: Vec<(Vec<u8>, u64)>,
    /// The deepest level that still had dense octants.
    pub final_level: usize,
}

fn sum_u64(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
}

/// The refinement both frameworks share. `level_job(rt, level, active)`
/// runs one level's job over the points whose parent octant is in the
/// packed `active` set and returns this rank's reduced `(octant, count)`
/// pairs; the dense ones, gathered from every rank, become the next set.
fn refine<R, E>(
    rt: &mut R,
    comm: fn(&mut R) -> &mut Comm,
    n_points: usize,
    opts: &OcOptions,
    mut level_job: impl FnMut(&mut R, usize, &[u64]) -> Result<Vec<(Vec<u8>, u64)>, E>,
) -> Result<OcResult, E> {
    let total_points = comm(rt).allreduce_u64(mimir_mpi::ReduceOp::Sum, n_points as u64);
    let threshold = (total_points as f64 * opts.density).ceil() as u64;
    let mut active = vec![pack(&[])]; // the root octant
    let mut result = OcResult::default();
    for level in 1..=opts.max_depth {
        let mut local_dense = level_job(rt, level, &active)?;
        local_dense.retain(|&(_, count)| count >= threshold);
        let keys = local_dense.iter().flat_map(|(k, _)| k.iter().copied());
        let gathered = comm(rt).allgather(keys.collect()).concat();
        active = gathered.chunks_exact(level).map(pack).collect();
        if active.is_empty() {
            break;
        }
        active.sort_unstable();
        active.dedup();
        result = OcResult {
            local_dense,
            final_level: level,
        };
    }
    Ok(result)
}

/// Octree clustering on Mimir over this rank's points.
///
/// # Errors
/// Out-of-memory or configuration errors.
pub fn octree_mimir(
    ctx: &mut MimirContext<'_>,
    points: &[Point],
    opts: &OcOptions,
) -> mimir_core::Result<(OcResult, RunMetrics)> {
    opts.check_depth().map_err(MimirError::Config)?;
    let t0 = Instant::now();
    let mut metrics = RunMetrics::default();
    let level_job = |ctx: &mut MimirContext<'_>, level, active: &[u64]| -> mimir_core::Result<_> {
        let meta = opts.meta(level);
        let one = typed::enc_u64(1);
        // The level's keys go to the emitter a batch at a time, so the
        // shuffler routes a batch before it copies any of it.
        let mut map = |em: &mut dyn Emitter| {
            let mut keys = [[0u8; MAX_DEPTH]; MAP_BATCH];
            let mut n = 0;
            map_level(points, level, active, |k| {
                keys[n][..level].copy_from_slice(k);
                n += 1;
                if n == MAP_BATCH {
                    n = 0;
                    return emit_keys(em, &keys, level, &one);
                }
                Ok(())
            })?;
            emit_keys(em, &keys[..n], level, &one)
        };
        let mut job = ctx.job().kv_meta(meta).out_meta(meta).map(&mut map);
        if opts.compress {
            job = job.combine(Box::new(sum_u64));
        }
        let out = if opts.partial_reduce {
            job.partial_reduce(Box::new(sum_u64))?
        } else {
            job.reduce(&mut |k, vals, em| {
                em.emit(k, &typed::enc_u64(vals.map(typed::dec_u64).sum()))
            })?
        };
        metrics.add_stage(&out.stats);
        metrics.iterations += 1;
        let mut reduced = Vec::new();
        out.output.drain(|k, v| {
            reduced.push((k.to_vec(), typed::dec_u64(v)));
            Ok(())
        })?;
        Ok(reduced)
    };
    let result = refine(ctx, MimirContext::comm, points.len(), opts, level_job)?;
    metrics.wall = t0.elapsed();
    metrics.node_peak = ctx.pool().peak();
    Ok((result, metrics))
}

/// Octree clustering on MR-MPI. A fresh `MapReduce` object (and page
/// sets) is created per iteration — the repeated allocate/free pattern
/// the paper describes for iterative MR-MPI jobs.
///
/// # Errors
/// Page overflow, OOM allocating page sets, or I/O failures.
pub fn octree_mrmpi(
    comm: &mut Comm,
    pool: MemPool,
    store: &SpillStore,
    cfg: MrMpiConfig,
    points: &[Point],
    opts: &OcOptions,
) -> mrmpi::Result<(OcResult, RunMetrics)> {
    opts.check_depth().map_err(MrError::Config)?;
    let t0 = Instant::now();
    let mut metrics = RunMetrics::default();
    let level_job = |comm: &mut Comm, level, active: &[u64]| -> mrmpi::Result<_> {
        let inner_store = SpillStore::new_temp("oc-iter", store.model().clone())?;
        let mut mr = MapReduce::new(comm, pool.clone(), inner_store, cfg);
        let one = typed::enc_u64(1);
        mr.map(|em| map_level(points, level, active, |k| em.emit(k, &one)))?;
        if opts.compress {
            mr.compress(sum_u64)?;
        }
        mr.aggregate()?;
        mr.convert()?;
        mr.reduce(|k, vals, em| em.emit(k, &typed::enc_u64(vals.map(typed::dec_u64).sum())))?;
        let mut reduced = Vec::new();
        mr.scan(|k, v| {
            reduced.push((k.to_vec(), typed::dec_u64(v)));
            Ok(())
        })?;
        let s = mr.stats();
        metrics.spilled |= s.spilled;
        metrics.add_stage(&crate::job_stats_from_mr(&s));
        metrics.iterations += 1;
        Ok(reduced)
    };
    let result = refine(comm, |c| c, points.len(), opts, level_job)?;
    metrics.wall = t0.elapsed();
    metrics.node_peak = pool.peak();
    Ok((result, metrics))
}

/// Serial reference: the dense octant set of the deepest level that has
/// one, over the whole dataset.
pub fn octree_serial(all_points: &[Point], density: f64, max_depth: usize) -> OcResult {
    let threshold = (all_points.len() as f64 * density).ceil() as u64;
    let mut active: HashSet<Vec<u8>> = HashSet::new();
    active.insert(Vec::new());
    let mut result = OcResult::default();
    for level in 1..=max_depth {
        let mut counts: std::collections::HashMap<Vec<u8>, u64> = std::collections::HashMap::new();
        for &p in all_points {
            let path = octant_path(p, level);
            if active.contains(&path[..level - 1]) {
                *counts.entry(path).or_insert(0) += 1;
            }
        }
        let dense: Vec<(Vec<u8>, u64)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= threshold)
            .collect();
        if dense.is_empty() {
            break;
        }
        active = dense.iter().map(|(k, _)| k.clone()).collect();
        result = OcResult {
            local_dense: dense,
            final_level: level,
        };
    }
    result
}
