//! WordCount (WC): the paper's single-pass benchmark.
//!
//! Counts occurrences of each unique word. The KV-hint configuration is
//! the paper's own example: "the key in the WordCount application is
//! usually a string with variable length, but the value is always a
//! 64-bit integer" — so the hint declares a NUL-terminated key and a
//! fixed 8-byte value.

use std::time::Instant;

use mimir_core::{typed, Emitter, KvMeta, MimirContext};
use mimir_io::{words, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::Comm;
use mrmpi::{MapReduce, MrMpiConfig};

use crate::RunMetrics;

/// Reduced `(word, count)` pairs on one rank, with the run's metrics.
pub type WcOutput = (Vec<(Vec<u8>, u64)>, RunMetrics);

/// Which optional optimizations a Mimir WordCount run enables
/// (paper Section IV's `hint` / `pr` / `cps`).
#[derive(Debug, Clone, Copy, Default)]
pub struct WcOptions {
    /// KV-hint: NUL-terminated key, fixed 8-byte value.
    pub hint: bool,
    /// Partial reduction instead of convert+reduce.
    pub partial_reduce: bool,
    /// Map-side KV compression.
    pub compress: bool,
}

impl WcOptions {
    /// The full optimization stack (`hint;pr;cps`).
    pub fn all() -> Self {
        Self {
            hint: true,
            partial_reduce: true,
            compress: true,
        }
    }

    fn meta(&self) -> KvMeta {
        if self.hint {
            KvMeta::cstr_key_u64_val()
        } else {
            KvMeta::var()
        }
    }
}

/// Words WordCount's map hands the emitter in one
/// [`Emitter::emit_batch`] call: the shuffler's own batch size.
const MAP_BATCH: usize = 32;

fn sum_u64(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
}

/// Runs WordCount on Mimir over this rank's text share. Returns the
/// locally reduced `(word, count)` pairs (each word on exactly one rank)
/// and run metrics.
///
/// # Errors
/// Out-of-memory (Mimir does not spill) or configuration errors.
pub fn wordcount_mimir(
    ctx: &mut MimirContext<'_>,
    text: &[u8],
    opts: &WcOptions,
) -> mimir_core::Result<WcOutput> {
    let t0 = Instant::now();
    let meta = opts.meta();
    let one = typed::enc_u64(1);
    // The tokenizer's words go to the emitter a batch at a time, so the
    // shuffler routes a batch before it copies any of it.
    let mut map = |em: &mut dyn Emitter| -> mimir_core::Result<()> {
        let mut batch: [(&[u8], &[u8]); MAP_BATCH] = [(&[], &one); MAP_BATCH];
        let mut n = 0;
        for w in words(text) {
            batch[n].0 = w;
            n += 1;
            if n == MAP_BATCH {
                em.emit_batch(&batch)?;
                n = 0;
            }
        }
        em.emit_batch(&batch[..n])
    };

    let mut job = ctx.job().kv_meta(meta).out_meta(meta).map(&mut map);
    if opts.compress {
        job = job.combine(Box::new(sum_u64));
    }
    let out = if opts.partial_reduce {
        job.partial_reduce(Box::new(sum_u64))?
    } else {
        job.reduce(&mut |k, vals, em| {
            let total: u64 = vals.map(typed::dec_u64).sum();
            em.emit(k, &typed::enc_u64(total))
        })?
    };

    let mut counts = Vec::with_capacity(out.output.len() as usize);
    out.output.drain(|k, v| {
        counts.push((k.to_vec(), typed::dec_u64(v)));
        Ok(())
    })?;
    let mut metrics = RunMetrics {
        wall: t0.elapsed(),
        node_peak: ctx.pool().peak(),
        iterations: 1,
        ..RunMetrics::default()
    };
    metrics.add_stage(&out.stats);
    Ok((counts, metrics))
}

/// Runs WordCount on MR-MPI over this rank's text share, with MR-MPI's
/// explicit phase calls (and optionally its KV compression).
///
/// # Errors
/// Page overflow (out-of-core disabled), OOM allocating page sets, or
/// I/O failures while spilling.
pub fn wordcount_mrmpi(
    comm: &mut Comm,
    pool: MemPool,
    store: SpillStore,
    cfg: MrMpiConfig,
    text: &[u8],
    compress: bool,
) -> mrmpi::Result<WcOutput> {
    let t0 = Instant::now();
    let mut mr = MapReduce::new(comm, pool.clone(), store, cfg);
    let one = typed::enc_u64(1);
    mr.map(|em| {
        for w in words(text) {
            em.emit(w, &one)?;
        }
        Ok(())
    })?;
    if compress {
        mr.compress(sum_u64)?;
    }
    mr.aggregate()?;
    mr.convert()?;
    mr.reduce(|k, vals, em| {
        let total: u64 = vals.map(typed::dec_u64).sum();
        em.emit(k, &typed::enc_u64(total))
    })?;

    let mut counts = Vec::new();
    mr.scan(|k, v| {
        counts.push((k.to_vec(), typed::dec_u64(v)));
        Ok(())
    })?;
    let stats = mr.stats();
    let mut metrics = RunMetrics {
        wall: t0.elapsed(),
        node_peak: pool.peak(),
        spilled: stats.spilled,
        iterations: 1,
        ..RunMetrics::default()
    };
    metrics.add_stage(&crate::job_stats_from_mr(&stats));
    Ok((counts, metrics))
}

/// Serial reference: exact word counts of a whole corpus. It splits
/// with the standard library rather than [`words`], so checks against it
/// test the block scanner too.
pub fn wordcount_serial(shares: &[&[u8]]) -> std::collections::HashMap<Vec<u8>, u64> {
    let mut counts = std::collections::HashMap::new();
    for share in shares {
        for w in share
            .split(u8::is_ascii_whitespace)
            .filter(|w| !w.is_empty())
        {
            *counts.entry(w.to_vec()).or_insert(0) += 1;
        }
    }
    counts
}
