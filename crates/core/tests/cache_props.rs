//! Cross-job cache properties: a chained (cached, shuffle-elided) run
//! must be byte-identical per rank to the cold path that round-trips the
//! same data through a real shuffle, and the chain must degrade
//! honestly: a mid-chain partitioner change forces a real shuffle.

use mimir_core::{typed, KvMeta, MimirConfig, MimirContext, Partitioner};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;

const RANKS: usize = 4;
const KEYS: u64 = 64;
const KVS_PER_RANK: u64 = 400;

fn ctx_world<R: Send>(f: impl Fn(&mut MimirContext<'_>) -> R + Send + Sync) -> Vec<R> {
    run_world(RANKS, move |comm| {
        let pool = MemPool::unlimited("node", 16 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        f(&mut ctx)
    })
}

/// Canonical per-rank image of a job output: sorted (key, value) byte
/// pairs, so container page layout never affects the comparison.
fn canonical(out: mimir_core::KvContainer) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut kvs = Vec::new();
    out.drain(|k, v| {
        kvs.push((k.to_vec(), v.to_vec()));
        Ok(())
    })
    .unwrap();
    kvs.sort();
    kvs
}

/// Fixed-width u64 keys and values: the layout most tests cache.
fn fixed() -> KvMeta {
    KvMeta::fixed(8, 8)
}

/// Key `k` in `meta`'s key encoding: its u64 bytes under a fixed-width
/// hint, a string otherwise (NUL-free, for a CStr hint).
fn key(meta: KvMeta, k: u64) -> Vec<u8> {
    if meta == fixed() {
        typed::enc_u64(k).to_vec()
    } else {
        format!("key{k}").into_bytes()
    }
}

/// Seeds the cache (or returns the raw output when `name` is `None`)
/// with a deterministic multi-key dataset in `meta`'s layout,
/// partitioned by `part`.
fn seed(
    ctx: &mut MimirContext<'_>,
    meta: KvMeta,
    part: &Partitioner,
    name: Option<&str>,
) -> mimir_core::KvContainer {
    let rank = ctx.rank() as u64;
    let mut job = ctx.job().kv_meta(meta).partitioner(part.clone());
    if let Some(n) = name {
        job = job.output_cached(n);
    }
    job.map(&mut |em| {
        for i in 0..KVS_PER_RANK {
            let k = (rank * KVS_PER_RANK + i) % KEYS;
            em.emit(&key(meta, k), &typed::enc_u64(i))?;
        }
        Ok(())
    })
    .collect()
    .unwrap()
    .output
}

/// One chain step: key-preserving re-emit with a value transform, then a
/// sum-reduce — the shape every iterative update job takes.
fn chain_step(
    ctx: &mut MimirContext<'_>,
    meta: KvMeta,
    part: &Partitioner,
    in_name: &str,
    elide: bool,
) -> mimir_core::KvContainer {
    ctx.job()
        .kv_meta(meta)
        .out_meta(meta)
        .partitioner(part.clone())
        .chain(in_name, &mut |k, v, em| {
            em.emit(k, &typed::enc_u64(typed::dec_u64(v) * 2 + 1))
        })
        .shuffle_elision(elide)
        .reduce(&mut |k, vals, em| {
            let s: u64 = vals.map(typed::dec_u64).sum();
            em.emit(k, &typed::enc_u64(s))
        })
        .unwrap()
        .output
}

/// The cold reference for [`chain_step`]: the same transform fed through
/// a full map → shuffle → reduce from materialized input.
fn cold_step(
    ctx: &mut MimirContext<'_>,
    part: &Partitioner,
    input: &[(Vec<u8>, Vec<u8>)],
) -> mimir_core::KvContainer {
    ctx.job()
        .kv_meta(fixed())
        .out_meta(fixed())
        .partitioner(part.clone())
        .map(&mut |em| {
            for (k, v) in input {
                em.emit(k, &typed::enc_u64(typed::dec_u64(v) * 2 + 1))?;
            }
            Ok(())
        })
        .reduce(&mut |k, vals, em| {
            let s: u64 = vals.map(typed::dec_u64).sum();
            em.emit(k, &typed::enc_u64(s))
        })
        .unwrap()
        .output
}

/// The headline property: the elided chain produces per-rank output
/// byte-identical to the cold path, and the shuffle really was elided
/// (one elision per rank, zero KVs through the exchange).
#[test]
fn elided_chain_matches_cold_path() {
    let results = ctx_world(move |ctx| {
        let part = Partitioner::hash();
        // Cold reference: materialize the seed, then run the transform
        // through a real shuffle.
        let cold_in = canonical(seed(ctx, fixed(), &part, None));
        let cold = canonical(cold_step(ctx, &part, &cold_in));
        // Chained: same seed cached, transform consumes it in place with
        // the shuffle elided.
        seed(ctx, fixed(), &part, Some("props"));
        let chained = canonical(chain_step(ctx, fixed(), &part, "props", true));
        let stats = ctx.cache_stats();
        ctx.cache_clear();
        (cold, chained, stats)
    });
    for (rank, (cold, chained, stats)) in results.into_iter().enumerate() {
        assert_eq!(chained, cold, "rank {rank} diverged");
        assert!(!cold.is_empty(), "rank {rank} held no keys");
        assert_eq!(stats.elisions, 1, "rank {rank}");
        assert_eq!(stats.hits, 1, "rank {rank} checkout counts as a hit");
    }
}

/// A mid-chain partitioner change invalidates the fingerprint: the chain
/// still runs (fed through a real shuffle to the new placement) but
/// elides nothing, and the output matches the cold path under the *new*
/// partitioner.
#[test]
fn partitioner_change_forces_a_real_shuffle() {
    let results = ctx_world(|ctx| {
        let hash = Partitioner::hash();
        let block = Partitioner::u64_block(KEYS);
        let cold_in = canonical(seed(ctx, fixed(), &hash, None));
        let cold = canonical(cold_step(ctx, &block, &cold_in));
        seed(ctx, fixed(), &hash, Some("reparted"));
        // Elision is requested, but the fingerprint mismatch must win.
        let chained = canonical(chain_step(ctx, fixed(), &block, "reparted", true));
        let stats = ctx.cache_stats();
        ctx.cache_clear();
        (cold, chained, stats)
    });
    for (rank, (cold, chained, stats)) in results.into_iter().enumerate() {
        assert_eq!(chained, cold, "rank {rank} diverged after re-partition");
        assert_eq!(stats.elisions, 0, "rank {rank} must not elide");
        assert_eq!(stats.hits, 1, "the cached input was still consumed");
    }
}
