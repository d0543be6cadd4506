//! Job-API surface tests: run-shape combinations, stats, error
//! propagation, and context reuse across jobs.

use mimir_core::{
    typed, Emitter, KvMeta, LenHint, MimirConfig, MimirContext, MimirError, ValueIter,
};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;

fn ctx_world<R: Send>(
    ranks: usize,
    f: impl Fn(&mut MimirContext<'_>) -> R + Send + Sync,
) -> Vec<R> {
    run_world(ranks, move |comm| {
        let pool = MemPool::unlimited("node", 16 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        f(&mut ctx)
    })
}

#[test]
fn output_meta_can_differ_from_intermediate_meta() {
    let out = ctx_world(2, |ctx| {
        // Intermediate: var/var; output: fixed-key histogram.
        let res = ctx
            .job()
            .kv_meta(KvMeta::var())
            .out_meta(KvMeta::fixed(8, 8))
            .map_reduce(
                &mut |em| {
                    for i in 0..40u64 {
                        em.emit(format!("group-{}", i % 4).as_bytes(), &i.to_le_bytes())?;
                    }
                    Ok(())
                },
                &mut |k, vals: ValueIter<'_>, em| {
                    let n = vals.count() as u64;
                    // Re-key to a fixed 8-byte hash of the group name.
                    em.emit(&typed::enc_u64(mimir_core::fxhash64(k)), &typed::enc_u64(n))
                },
            )
            .unwrap();
        let mut total = 0u64;
        res.output
            .drain(|k, v| {
                assert_eq!(k.len(), 8);
                total += typed::dec_u64(v);
                Ok(())
            })
            .unwrap();
        total
    });
    assert_eq!(out.iter().sum::<u64>(), 2 * 40);
}

#[test]
fn reduce_may_emit_many_kvs_per_group() {
    let out = ctx_world(1, |ctx| {
        let res = ctx
            .job()
            .map_reduce(
                &mut |em| {
                    for i in 0..6u64 {
                        em.emit(b"k", &i.to_le_bytes())?;
                    }
                    Ok(())
                },
                &mut |_k, vals, em| {
                    // Echo every value back as its own KV.
                    for v in vals {
                        em.emit(b"echoed", v)?;
                    }
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(res.stats.unique_keys, 1);
        res.output.len()
    });
    assert_eq!(out[0], 6);
}

#[test]
fn map_error_propagates_without_hanging_single_rank() {
    let out = ctx_world(1, |ctx| {
        let res = ctx
            .job()
            .map_shuffle(&mut |_em| Err(MimirError::Config("synthetic map failure".into())));
        matches!(res, Err(MimirError::Config(_)))
    });
    assert!(out[0]);
}

#[test]
fn reduce_error_propagates_single_rank() {
    let out = ctx_world(1, |ctx| {
        let res = ctx
            .job()
            .map_reduce(&mut |em| em.emit(b"k", b"v"), &mut |_k, _vals, _em| {
                Err(MimirError::Config("synthetic reduce failure".into()))
            });
        matches!(res, Err(MimirError::Config(_)))
    });
    assert!(out[0]);
}

/// An elided chain hands its map's KVs to the grouping sink one at a
/// time, past the shuffle's emit-side checks: a value that breaks the
/// hint must still be refused there, and the failed job must give its
/// memory back.
#[test]
fn elided_chain_rejects_a_value_that_breaks_the_hint() {
    let out = ctx_world(1, |ctx| {
        ctx.job()
            .kv_meta(KvMeta::fixed(8, 8))
            .output_cached("in")
            .map_shuffle(&mut |em| {
                (0..50u64).try_for_each(|i| em.emit(&typed::enc_u64(i), &typed::enc_u64(i)))
            })
            .unwrap();
        let mut chain = |val_len: usize| {
            ctx.job()
                .kv_meta(KvMeta::fixed(8, 8))
                .input_cached("in")
                .chain_reduce(
                    &mut |k, _v, em| em.emit(k, &vec![7; val_len]),
                    &mut |k, _, em| em.emit(k, b""),
                )
                .map(drop)
        };
        chain(8).unwrap();
        let res = chain(7);
        let elisions = ctx.cache_stats().elisions;
        ctx.cache_remove("in");
        (res.err(), elisions, ctx.pool().used())
    });
    let (err, elisions, used) = &out[0];
    assert_eq!(*elisions, 1, "the well-formed chain was elided");
    assert!(matches!(err, Some(MimirError::HintViolation(_))), "{err:?}");
    assert_eq!(*used, 0);
}

#[test]
fn stats_are_populated() {
    let out = ctx_world(2, |ctx| {
        let res = ctx
            .job()
            .kv_meta(KvMeta::cstr_key_u64_val())
            .out_meta(KvMeta::cstr_key_u64_val())
            .map_reduce(
                &mut |em| {
                    for i in 0..100u64 {
                        em.emit(format!("w{}", i % 10).as_bytes(), &typed::enc_u64(1))?;
                    }
                    Ok(())
                },
                &mut |k, vals, em| {
                    let n: u64 = vals.map(typed::dec_u64).sum();
                    em.emit(k, &typed::enc_u64(n))
                },
            )
            .unwrap();
        res.stats
    });
    let s = &out[0];
    assert_eq!(s.shuffle.kvs_emitted, 100);
    assert!(s.shuffle.kv_bytes_emitted > 0);
    assert!(s.shuffle.rounds >= 1);
    assert!(s.node_peak_bytes > 0);
    let total_unique: u64 = out.iter().map(|s| s.unique_keys).sum();
    assert_eq!(total_unique, 10);
    let total_out: u64 = out.iter().map(|s| s.kvs_out).sum();
    assert_eq!(total_out, 10);
}

#[test]
fn empty_map_produces_empty_everything() {
    let out = ctx_world(3, |ctx| {
        let res = ctx
            .job()
            .map_reduce(&mut |_em| Ok(()), &mut |_k, _v, _em| {
                panic!("reduce must not be called")
            })
            .unwrap();
        (res.output.len(), res.stats.unique_keys)
    });
    assert!(out.iter().all(|&(n, u)| n == 0 && u == 0));
}

#[test]
fn context_runs_many_jobs_back_to_back() {
    let out = ctx_world(2, |ctx| {
        let mut totals = Vec::new();
        for round in 1..=5u64 {
            let res = ctx
                .job()
                .kv_meta(KvMeta::fixed(8, 8))
                .out_meta(KvMeta::fixed(8, 8))
                .map_partial_reduce(
                    &mut |em| {
                        for i in 0..round * 10 {
                            em.emit(&typed::enc_u64(i % 3), &typed::enc_u64(1))?;
                        }
                        Ok(())
                    },
                    Box::new(|_k, a, b, o| {
                        o.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
                    }),
                )
                .unwrap();
            let mut sum = 0;
            res.output
                .drain(|_k, v| {
                    sum += typed::dec_u64(v);
                    Ok(())
                })
                .unwrap();
            totals.push(sum);
        }
        totals
    });
    // Each round's totals across ranks: 2 ranks × round × 10 emissions.
    for round in 1..=5usize {
        let global: u64 = out.iter().map(|t| t[round - 1]).sum();
        assert_eq!(global, 2 * round as u64 * 10);
    }
}

#[test]
fn mixed_hint_combinations_roundtrip_through_jobs() {
    for (key, val) in [
        (LenHint::Var, LenHint::Var),
        (LenHint::Var, LenHint::Fixed(8)),
        (LenHint::CStr, LenHint::Var),
        (LenHint::CStr, LenHint::Fixed(8)),
        (LenHint::Fixed(4), LenHint::Fixed(8)),
        (LenHint::Fixed(4), LenHint::CStr),
    ] {
        let meta = KvMeta { key, val };
        let out = ctx_world(2, move |ctx| {
            let res = ctx
                .job()
                .kv_meta(meta)
                .out_meta(meta)
                .map_shuffle(&mut |em: &mut dyn Emitter| {
                    for i in 0..20u32 {
                        let k = match key {
                            LenHint::Fixed(4) => i.to_le_bytes().to_vec(),
                            _ => format!("key{i}").into_bytes(),
                        };
                        let v = match val {
                            LenHint::Fixed(8) => (i as u64).to_le_bytes().to_vec(),
                            _ => format!("val{i}").into_bytes(),
                        };
                        em.emit(&k, &v)?;
                    }
                    Ok(())
                })
                .unwrap();
            res.output.len()
        });
        assert_eq!(out.iter().sum::<u64>(), 2 * 20, "meta {meta:?}");
    }
}

#[test]
fn streaming_compression_bounds_memory_and_preserves_results() {
    use std::collections::HashMap;

    fn sum(_k: &[u8], a: &[u8], b: &[u8], o: &mut Vec<u8>) {
        o.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
    }

    // Unique-heavy workload: the compression table grows with keys, the
    // paper's worst case for cps. A flush budget must bound the peak.
    let run = |flush: Option<usize>| {
        run_world(2, move |comm| {
            let pool = MemPool::new("node", 16 * 1024, 64 << 20).unwrap();
            let mut ctx =
                MimirContext::new(comm, pool.clone(), IoModel::free(), MimirConfig::default())
                    .unwrap();
            let mut job = ctx
                .job()
                .kv_meta(KvMeta::cstr_key_u64_val())
                .out_meta(KvMeta::cstr_key_u64_val());
            if let Some(b) = flush {
                job = job.compress_flush_bytes(b);
            }
            let res = job
                .map_partial_reduce_compress(
                    &mut |em| {
                        for i in 0..20_000u64 {
                            em.emit(format!("unique-key-{i}").as_bytes(), &typed::enc_u64(1))?;
                        }
                        Ok(())
                    },
                    Box::new(sum),
                    Box::new(sum),
                )
                .unwrap();
            let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
            res.output
                .drain(|k, v| {
                    counts.insert(k.to_vec(), typed::dec_u64(v));
                    Ok(())
                })
                .unwrap();
            (counts, pool.peak())
        })
    };

    let delayed = run(None);
    let streaming = run(Some(64 * 1024));

    // Same results either way.
    let merge = |rs: &[(HashMap<Vec<u8>, u64>, usize)]| {
        let mut m: HashMap<Vec<u8>, u64> = HashMap::new();
        for (c, _) in rs {
            for (k, v) in c {
                assert!(m.insert(k.clone(), *v).is_none());
            }
        }
        m
    };
    let a = merge(&delayed);
    let b = merge(&streaming);
    assert_eq!(a, b);
    // Both ranks emit the same 20k keys → every key counted twice.
    assert_eq!(a.len(), 20_000);
    assert!(a.values().all(|&v| v == 2));

    // The streaming variant's peak is meaningfully lower: the delayed
    // table holds 20k unique keys, the streaming one at most ~64 KiB.
    let peak_delayed = delayed.iter().map(|(_, p)| *p).max().unwrap();
    let peak_streaming = streaming.iter().map(|(_, p)| *p).max().unwrap();
    assert!(
        (peak_streaming as f64) < 0.7 * peak_delayed as f64,
        "streaming {peak_streaming} vs delayed {peak_delayed}"
    );
}
