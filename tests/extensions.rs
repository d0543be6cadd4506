//! End-to-end tests for the extension features beyond the paper's core:
//! custom partitioners, and keeping a job's output between stages in the
//! cross-job cache (insert, check out).

use mimir::prelude::*;
use mimir_core::{typed, Partitioner};

#[test]
fn block_partitioner_gives_contiguous_ownership() {
    let n_keys = 1000u64;
    let out = run_world(4, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let res = ctx
            .job()
            .kv_meta(KvMeta::fixed(8, 8))
            .partitioner(Partitioner::u64_block(n_keys))
            .map(&mut |em| {
                for v in 0..n_keys {
                    em.emit(&typed::enc_u64(v), &typed::enc_u64(v * 2))?;
                }
                Ok(())
            })
            .collect()
            .unwrap();
        let mut keys = Vec::new();
        res.output
            .drain(|k, _| {
                keys.push(typed::dec_u64(k));
                Ok(())
            })
            .unwrap();
        keys.sort_unstable();
        keys
    });
    // Each rank owns one contiguous block; together they cover 0..1000
    // exactly 4 times (4 emitting ranks).
    let mut all = Vec::new();
    for (rank, keys) in out.iter().enumerate() {
        if keys.is_empty() {
            continue;
        }
        let lo = keys[0];
        let hi = *keys.last().unwrap();
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(
            distinct.len() as u64,
            hi - lo + 1,
            "rank {rank} block is contiguous"
        );
        all.extend(distinct);
    }
    all.sort_unstable();
    assert_eq!(all, (0..n_keys).collect::<Vec<_>>());
    assert_eq!(
        out.iter().map(|k| k.len()).sum::<usize>() as u64,
        4 * n_keys
    );
}

#[test]
fn custom_partitioner_reduces_on_chosen_rank() {
    // Everything to rank 1, regardless of key.
    let out = run_world(3, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let res = ctx
            .job()
            .partitioner(Partitioner::custom("to-rank-1", |_k, _n| 1))
            .map(&mut |em| {
                for i in 0..100u64 {
                    em.emit(format!("k{}", i % 10).as_bytes(), &typed::enc_u64(1))?;
                }
                Ok(())
            })
            .partial_reduce(Box::new(|_k, a, b, out| {
                out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
            }))
            .unwrap();
        res.output.len()
    });
    assert_eq!(out, vec![0, 10, 0]);
}

#[test]
fn staged_output_survives_between_stages() {
    let counts = run_world(4, |comm| {
        let pool = MemPool::new("node", 64 * 1024, 32 << 20).unwrap();
        let mut ctx =
            MimirContext::new(comm, pool.clone(), IoModel::free(), MimirConfig::default()).unwrap();

        // Stage 1: per-key counts.
        let meta = KvMeta::cstr_key_u64_val();
        let stage1 = ctx
            .job()
            .kv_meta(meta)
            .out_meta(meta)
            .map(&mut |em| {
                for i in 0..2000u64 {
                    em.emit(format!("word{}", i % 50).as_bytes(), &typed::enc_u64(1))?;
                }
                Ok(())
            })
            .partial_reduce(Box::new(|_k, a, b, out| {
                out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
            }))
            .unwrap();

        // Park it: its pages stay charged to the pool while cached.
        let used_before_park = pool.used();
        let mut cache = KvCache::default();
        let placement = Partitioner::hash().fingerprint(ctx.size());
        cache.insert("counts", stage1.output, placement);
        assert_eq!(pool.used(), used_before_park);

        // ... an unrelated memory-hungry stage runs here ...
        let _scratch = pool.try_reserve(16 << 20).unwrap();

        // Stage 2: restore and post-process (histogram of counts).
        let mut restored = cache.checkout("counts", &pool).unwrap().kvc;
        let mut histogram: std::collections::BTreeMap<u64, u64> = Default::default();
        restored
            .drain_all(|_k, v| {
                *histogram.entry(typed::dec_u64(v)).or_default() += 1;
                Ok(())
            })
            .unwrap();
        histogram
    });
    // 50 words × 40 occurrences × 4 ranks = each word counted 160 total,
    // distributed across owners; every count bucket must be 160.
    let mut total_words = 0;
    for rank_hist in counts {
        for (count, n_words) in rank_hist {
            assert_eq!(count, 160);
            total_words += n_words;
        }
    }
    assert_eq!(total_words, 50);
}

#[test]
fn staging_keeps_hints() {
    run_world(1, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool.clone(), IoModel::free(), MimirConfig::default()).unwrap();
        let meta = KvMeta::fixed(8, 16);
        let out = ctx
            .job()
            .kv_meta(meta)
            .map(&mut |em| {
                for i in 0..64u64 {
                    em.emit(&typed::enc_u64(i), &typed::enc_u64_pair(i, i * i))?;
                }
                Ok(())
            })
            .collect()
            .unwrap();
        let mut cache = KvCache::default();
        cache.insert("pairs", out.output, Partitioner::hash().fingerprint(1));
        let restored = cache.checkout("pairs", &pool).unwrap().kvc;
        assert_eq!(restored.meta(), meta);
        let mut ok = 0;
        restored
            .drain(|k, v| {
                let i = typed::dec_u64(k);
                assert_eq!(typed::dec_u64_pair(v), (i, i * i));
                ok += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(ok, 64);
    });
}
