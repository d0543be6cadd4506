//! Job-API surface tests: feed × terminal pairings, stats, error
//! propagation, and context reuse across jobs.

use std::collections::{HashMap, HashSet};

use mimir_core::{
    typed, Emitter, FedJob, JobStats, KvMeta, LenHint, MimirConfig, MimirContext, MimirError,
    ReduceFn, ValueIter,
};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::{EventKind, Phase};

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
            .map(&mut |em| {
                for i in 0..40u64 {
                    em.emit(format!("group-{}", i % 4).as_bytes(), &i.to_le_bytes())?;
                }
                Ok(())
            })
            .reduce(&mut |k, vals: ValueIter<'_>, em| {
                let n = vals.count() as u64;
                // Re-key to a fixed 8-byte hash of the group name.
                em.emit(&typed::enc_u64(mimir_core::fxhash64(k)), &typed::enc_u64(n))
            })
            .unwrap();
        let kvs = drain_u64s(res.output);
        assert!(kvs.iter().all(|(k, _)| k.len() == 8));
        kvs.iter().map(|kv| kv.1).sum::<u64>()
    });
    assert_eq!(out.iter().sum::<u64>(), 2 * 40);
}

#[test]
fn reduce_may_emit_many_kvs_per_group() {
    let out = ctx_world(1, |ctx| {
        let res = ctx
            .job()
            .map(&mut |em| {
                for i in 0..6u64 {
                    em.emit(b"k", &i.to_le_bytes())?;
                }
                Ok(())
            })
            .reduce(&mut |_k, vals, em| {
                // Echo every value back as its own KV.
                for v in vals {
                    em.emit(b"echoed", v)?;
                }
                Ok(())
            })
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
            .map(&mut |_em| Err(MimirError::Config("synthetic map failure".into())))
            .collect();
        matches!(res, Err(MimirError::Config(_)))
    });
    assert!(out[0]);
}

#[test]
fn reduce_error_propagates_single_rank() {
    let out = ctx_world(1, |ctx| {
        let res = ctx
            .job()
            .map(&mut |em| em.emit(b"k", b"v"))
            .reduce(&mut |_k, _vals, _em| {
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
            .map(&mut |em| {
                (0..50u64).try_for_each(|i| em.emit(&typed::enc_u64(i), &typed::enc_u64(i)))
            })
            .collect()
            .unwrap();
        let mut chain = |val_len: usize| {
            ctx.job()
                .kv_meta(KvMeta::fixed(8, 8))
                .chain("in", &mut |k, _v, em| em.emit(k, &vec![7; val_len]))
                .reduce(&mut |k, _, em| em.emit(k, b""))
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
            .map(&mut |em| {
                for i in 0..100u64 {
                    em.emit(format!("w{}", i % 10).as_bytes(), &typed::enc_u64(1))?;
                }
                Ok(())
            })
            .reduce(&mut |k, vals, em| {
                let n: u64 = vals.map(typed::dec_u64).sum();
                em.emit(k, &typed::enc_u64(n))
            })
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
            .map(&mut |_em| Ok(()))
            .reduce(&mut |_k, _v, _em| panic!("reduce must not be called"))
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
                .map(&mut |em| {
                    for i in 0..round * 10 {
                        em.emit(&typed::enc_u64(i % 3), &typed::enc_u64(1))?;
                    }
                    Ok(())
                })
                .partial_reduce(Box::new(add_u64))
                .unwrap();
            totals.push(drain_u64s(res.output).iter().map(|kv| kv.1).sum::<u64>());
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
                .map(&mut |em: &mut dyn Emitter| {
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
                .collect()
                .unwrap();
            res.output.len()
        });
        assert_eq!(out.iter().sum::<u64>(), 2 * 20, "meta {meta:?}");
    }
}

#[test]
fn streaming_compression_bounds_memory_and_preserves_results() {
    // Unique-heavy workload: the compression table grows with keys, the
    // paper's worst case for cps. The table flushes past 1/256 of its
    // pool: 64 KiB of a 16 MiB pool binds, 4 MiB of a 1 GiB one holds
    // all 20k keys until the map's end, as the paper's delayed
    // aggregate does.
    let run = |budget: usize| {
        run_world(2, move |comm| {
            let pool = MemPool::new("node", 16 * 1024, budget).unwrap();
            let mut ctx =
                MimirContext::new(comm, pool.clone(), IoModel::free(), MimirConfig::default())
                    .unwrap();
            let res = ctx
                .job()
                .kv_meta(KvMeta::cstr_key_u64_val())
                .out_meta(KvMeta::cstr_key_u64_val())
                .map(&mut |em| {
                    for i in 0..20_000u64 {
                        em.emit(format!("unique-key-{i}").as_bytes(), &typed::enc_u64(1))?;
                    }
                    Ok(())
                })
                .combine(Box::new(add_u64))
                .partial_reduce(Box::new(add_u64))
                .unwrap();
            let counts: HashMap<Vec<u8>, u64> = drain_u64s(res.output).into_iter().collect();
            (counts, pool.peak())
        })
    };

    let delayed = run(1 << 30);
    let streaming = run(16 << 20);

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

    // The bounded table's peak is meaningfully lower: the delayed table
    // holds 20k unique keys, the bounded one about 64 KiB.
    let peak_delayed = delayed.iter().map(|(_, p)| *p).max().unwrap();
    let peak_streaming = streaming.iter().map(|(_, p)| *p).max().unwrap();
    assert!(
        (peak_streaming as f64) < 0.7 * peak_delayed as f64,
        "streaming {peak_streaming} vs delayed {peak_delayed}"
    );
}

/// What one compressing job reports: its output as a map, and every
/// `(entries, footprint)` its combiner flushed at.
type CompressRun = (HashMap<Vec<u8>, u64>, Vec<(u64, u64)>);

/// Runs a combining map feed on 2 ranks over a unique-heavy stream (5
/// hot keys among 12 000 that each rank emits once), each rank in its
/// own pool of `budget` bytes. Returns each rank's output and flushes,
/// after checking the pool is fully credited once the output is gone.
fn compress_unique_heavy(partial: bool, budget: usize) -> Vec<CompressRun> {
    run_world(2, move |comm| {
        let rank = comm.rank() as u64;
        let pool = MemPool::new("node", 16 * 1024, budget).unwrap();
        let mut ctx =
            MimirContext::new(comm, pool.clone(), IoModel::free(), MimirConfig::default()).unwrap();
        let mut map = |em: &mut dyn Emitter| {
            for i in 0..12_000u64 {
                // Keys of at most 15 bytes live in their index entry.
                em.emit(format!("u{}", i * 2 + rank).as_bytes(), &typed::enc_u64(i))?;
                em.emit(format!("hot{}", i % 5).as_bytes(), &typed::enc_u64(1))?;
            }
            Ok(())
        };
        let mut reduce = |k: &[u8], vals: ValueIter<'_>, em: &mut dyn Emitter| {
            em.emit(k, &typed::enc_u64(vals.map(typed::dec_u64).sum()))
        };
        mimir_obs::install(mimir_obs::Recorder::new(rank as usize, 1 << 16));
        let meta = KvMeta::cstr_key_u64_val();
        let job = ctx.job().kv_meta(meta).out_meta(meta).map(&mut map);
        let job = job.combine(Box::new(add_u64));
        let res = if partial {
            job.partial_reduce(Box::new(add_u64))
        } else {
            job.reduce(&mut reduce)
        }
        .unwrap();
        let recorder = mimir_obs::take().unwrap();
        assert_eq!(recorder.dropped(), 0);
        let flushes = recorder
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::CombinerFlush)
            .map(|e| (e.a, e.b))
            .collect();
        let kvs = drain_u64s(res.output);
        let out: HashMap<Vec<u8>, u64> = kvs.iter().cloned().collect();
        assert_eq!(out.len(), kvs.len(), "rank {rank}: a key output twice");
        assert_eq!(pool.used(), 0, "rank {rank}: pool credited");
        (out, flushes)
    })
}

/// The stream of [`compress_unique_heavy`], summed by a `HashMap`.
fn unique_heavy_oracle() -> HashMap<Vec<u8>, u64> {
    let mut want = HashMap::new();
    for rank in 0..2u64 {
        for i in 0..12_000u64 {
            *want
                .entry(format!("u{}", i * 2 + rank).into_bytes())
                .or_default() += i;
            *want
                .entry(format!("hot{}", i % 5).into_bytes())
                .or_default() += 1;
        }
    }
    want
}

/// The job's KV-compression table flushes once its footprint passes
/// 1/256 of its node's pool, so at a flush it holds at most that budget
/// plus what the last fold added: one slot-table doubling, an entry, a
/// span and a `u64`. Both folding terminals give the `HashMap` oracle's
/// output and hand every byte back.
#[test]
fn compression_table_stays_within_its_share_of_the_pool() {
    // The slots of `n` groups: 16 to start, doubled past 3/4 full.
    let slots = |n: u64| {
        let mut cap = 16;
        while n * 4 > cap * 3 {
            cap *= 2;
        }
        cap
    };
    let budget = 16 << 20;
    for partial in [false, true] {
        let ranks = compress_unique_heavy(partial, budget);
        let mut got = HashMap::new();
        for (rank, (out, flushes)) in ranks.into_iter().enumerate() {
            assert!(
                flushes.len() > 4,
                "partial={partial} rank {rank}: {flushes:?}"
            );
            for (entries, footprint) in flushes {
                let bound = budget as u64 / 256 + slots(entries) / 2 * 8 + 24 + 16;
                assert!(
                    footprint <= bound,
                    "partial={partial} rank {rank}: {footprint} B at {entries} groups, \
                     bound {bound} B"
                );
            }
            got.extend(out);
        }
        assert_eq!(got, unique_heavy_oracle(), "partial={partial}");
    }
}

/// A table that never reaches its budget flushes exactly once, at the
/// map's end: on a 1 GiB pool its 4 MiB share holds all 12 005 keys.
#[test]
fn compression_table_under_its_budget_flushes_once() {
    for partial in [false, true] {
        let ranks = compress_unique_heavy(partial, 1 << 30);
        let mut got = HashMap::new();
        for (rank, (out, flushes)) in ranks.into_iter().enumerate() {
            assert_eq!(
                flushes.iter().map(|f| f.0).collect::<Vec<_>>(),
                [12_005],
                "partial={partial} rank {rank}"
            );
            got.extend(out);
        }
        assert_eq!(got, unique_heavy_oracle(), "partial={partial}");
    }
}

/// A job's terminal, for the matrix below.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Terminal {
    Reduce,
    PartialReduce,
    Group,
    Collect,
}

/// One cell of feed × combiner × terminal.
#[derive(Clone, Copy, Debug)]
struct Pairing {
    chained: bool,
    combine: bool,
    terminal: Terminal,
}

impl Pairing {
    /// Every cell, the ones the types refuse included.
    fn all() -> impl Iterator<Item = Pairing> {
        use Terminal::*;
        (0..16).map(|i| Pairing {
            chained: i & 8 != 0,
            combine: i & 4 != 0,
            terminal: [Reduce, PartialReduce, Group, Collect][i % 4],
        })
    }

    /// Whether the builder's types admit the cell: a chained feed takes
    /// no combiner and has no `group`.
    fn compiles(self) -> bool {
        !self.chained || (!self.combine && self.terminal != Terminal::Group)
    }

    /// Whether an admitted cell runs: a combiner goes with the folding
    /// terminals only.
    fn runs(self) -> bool {
        !self.combine || matches!(self.terminal, Terminal::Reduce | Terminal::PartialReduce)
    }

    fn converts(self) -> bool {
        matches!(self.terminal, Terminal::Reduce | Terminal::Group)
    }
}

/// The matrix's word counts: rank `r` emits `40 + 15r` KVs over 13 keys.
fn matrix_input(rank: usize) -> impl Iterator<Item = (Vec<u8>, u64)> {
    (0..40 + 15 * rank as u64).map(|i| (format!("w{}", i % 13).into_bytes(), 1 + i % 3))
}

/// Caches this rank's [`matrix_input`] under `in`, for a chained feed.
fn cache_matrix_input(ctx: &mut MimirContext<'_>) {
    let rank = ctx.rank();
    let mut map = |em: &mut dyn Emitter| {
        matrix_input(rank).try_for_each(|(k, v)| em.emit(&k, &typed::enc_u64(v)))
    };
    ctx.job()
        .output_cached("in")
        .map(&mut map)
        .collect()
        .unwrap();
}

fn add_u64(_k: &[u8], a: &[u8], b: &[u8], o: &mut Vec<u8>) {
    o.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
}

/// One rank's output KVs, values decoded.
type Kvs = Vec<(Vec<u8>, u64)>;

/// A job's output KVs (a group's values summed) and stats.
type Ran = Result<(Kvs, JobStats), MimirError>;

/// What one rank saw of one matrix cell.
struct PairingRun {
    result: Ran,
    /// Whether the chained input `in` was cached after the job.
    input_cached: bool,
    elisions: u64,
    /// Pool occupancy once the output is dropped and the cache cleared.
    used_after: usize,
}

fn drain_u64s(output: mimir_core::KvContainer) -> Kvs {
    let mut kvs = Vec::new();
    output
        .drain(|k, v| {
            kvs.push((k.to_vec(), typed::dec_u64(v)));
            Ok(())
        })
        .unwrap();
    kvs
}

/// Runs a KVC terminal on either feed.
fn terminate<F>(job: FedJob<'_, '_, F>, terminal: Terminal, reduce: ReduceFn<'_>) -> Ran {
    match terminal {
        Terminal::Reduce => job.reduce(reduce),
        Terminal::PartialReduce => job.partial_reduce(Box::new(add_u64)),
        Terminal::Collect => job.collect(),
        Terminal::Group => unreachable!("group takes a map feed"),
    }
    .map(|out| (drain_u64s(out.output), out.stats))
}

/// Runs `pairing` on two ranks. A chained feed reads a cache entry `in`
/// that a collecting job seeds with [`matrix_input`]; its map re-emits
/// each KV, which keeps the placement, so `elide` decides the elision.
/// With `fail`, every map callback errors after its first KV. With
/// `filtered`, a chained feed gets an arrival filter that keeps every KV.
fn run_pairing(p: Pairing, elide: bool, fail: bool, filtered: bool) -> Vec<PairingRun> {
    ctx_world(2, move |ctx| {
        let rank = ctx.rank();
        let failure = || Err(MimirError::Config("synthetic map failure".into()));
        if p.chained {
            cache_matrix_input(ctx);
        }
        let mut map = |em: &mut dyn Emitter| {
            for (k, v) in matrix_input(rank) {
                em.emit(&k, &typed::enc_u64(v))?;
                if fail {
                    return failure();
                }
            }
            Ok(())
        };
        let mut chain_map = |k: &[u8], v: &[u8], em: &mut dyn Emitter| {
            em.emit(k, v)?;
            if fail {
                return failure();
            }
            Ok(())
        };
        let mut reduce = |k: &[u8], vals: ValueIter<'_>, em: &mut dyn Emitter| {
            em.emit(k, &typed::enc_u64(vals.map(typed::dec_u64).sum()))
        };
        let mut keep_all = |_: &[u8], _: &[u8]| true;
        let result = if p.chained {
            let mut job = ctx.job().chain("in", &mut chain_map).shuffle_elision(elide);
            if filtered {
                job = job.arrival_filter(&mut keep_all);
            }
            terminate(job, p.terminal, &mut reduce)
        } else {
            let mut job = ctx.job().map(&mut map);
            if p.combine {
                job = job.combine(Box::new(add_u64));
            }
            if p.terminal == Terminal::Group {
                job.group().map(|(kmvc, stats)| {
                    let mut kvs = Vec::new();
                    kmvc.for_each_group(|k, vals| {
                        kvs.push((k.to_vec(), vals.map(typed::dec_u64).sum()));
                        Ok(())
                    })
                    .unwrap();
                    (kvs, stats)
                })
            } else {
                terminate(job, p.terminal, &mut reduce)
            }
        };
        finish_run(ctx, result)
    })
}

/// Whether `name` is cached on this rank (a lookup: counts a hit or a
/// miss).
fn is_cached(ctx: &mut MimirContext<'_>, name: &str) -> bool {
    ctx.with_cached(name, |_| Ok(())).is_ok()
}

/// What the rank saw of a job that returned `result`, with the cache
/// cleared afterwards.
fn finish_run(ctx: &mut MimirContext<'_>, result: Ran) -> PairingRun {
    let input_cached = is_cached(ctx, "in");
    let elisions = ctx.cache_stats().elisions;
    ctx.cache_clear();
    PairingRun {
        result,
        input_cached,
        elisions,
        used_after: ctx.pool().used(),
    }
}

/// Each pairing the builder runs — chained ones elided and not — once as
/// is and once with a failing map: the output matches a `HashMap` model,
/// the pool drains, a chained input survives its job, an elision is
/// credited only on success, and the convert stats are set exactly by
/// the terminals that convert.
#[test]
fn run_shape_matrix_matches_the_model_and_gives_memory_back() {
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    for rank in 0..2 {
        for (k, v) in matrix_input(rank) {
            *model.entry(k).or_default() += v;
        }
    }
    let pairings: Vec<_> = Pairing::all()
        .filter(|p| p.compiles() && p.runs())
        .collect();
    assert_eq!(pairings.len(), 9);
    for p in pairings {
        let elide_cases: &[bool] = if p.chained { &[true, false] } else { &[true] };
        for &elide in elide_cases {
            for fail in [false, true] {
                let case = format!("{p:?} elide={elide} fail={fail}");
                let mut got: HashMap<Vec<u8>, u64> = HashMap::new();
                for run in run_pairing(p, elide, fail, false) {
                    assert_eq!(run.used_after, 0, "{case}: pages left in the pool");
                    assert_eq!(run.input_cached, p.chained, "{case}");
                    let elided = p.chained && elide && !fail;
                    assert_eq!(run.elisions, u64::from(elided), "{case}");
                    if fail {
                        let err = run.result.as_ref().err();
                        assert!(
                            matches!(err, Some(MimirError::Config(_))),
                            "{case}: {err:?}"
                        );
                        continue;
                    }
                    let (kvs, stats) = run.result.unwrap();
                    let groups = p.terminal != Terminal::Collect;
                    for (k, v) in &kvs {
                        let slot = got.entry(k.clone()).or_default();
                        assert!(!groups || *slot == 0, "{case}: key output twice");
                        *slot += v;
                    }
                    if p.terminal != Terminal::Group {
                        assert_eq!(stats.kvs_out, kvs.len() as u64, "{case}");
                    }
                    assert_eq!(stats.convert_time.is_zero(), !p.converts(), "{case}");
                    assert_eq!(stats.convert_peak_bytes == 0, !p.converts(), "{case}");
                    assert!(stats.map_peak_bytes <= stats.node_peak_bytes, "{case}");
                }
                if !fail {
                    assert_eq!(got, model, "{case}");
                }
            }
        }
    }
}

/// A combiner goes with `reduce` and `partial_reduce` only: `group` and
/// `collect` refuse it with a config error and give their memory back.
#[test]
fn combine_is_refused_by_group_and_collect() {
    for p in Pairing::all().filter(|p| p.compiles() && !p.runs()) {
        for run in run_pairing(p, true, false, false) {
            let err = run.result.as_ref().err();
            let case = format!("{p:?}: {err:?}");
            assert!(
                matches!(err, Some(MimirError::Config(m)) if m.contains("combine")),
                "{case}"
            );
            assert_eq!(run.used_after, 0, "{case}");
        }
    }
}

/// The events between this rank's Aggregate phase span's begin and end.
fn aggregate_span(events: &[mimir_obs::Event]) -> &[mimir_obs::Event] {
    let agg = |kind| {
        events
            .iter()
            .position(|e| e.kind == kind && e.a == Phase::Aggregate as u64)
            .unwrap()
    };
    &events[agg(EventKind::PhaseBegin)..agg(EventKind::PhaseEnd)]
}

/// The exchange's last rounds drain inside the Aggregate span on either
/// feed: a non-elided chain finishes its shuffle there, as a map feed
/// does, instead of inside the Map span.
#[test]
fn chained_exchange_finishes_in_the_aggregate_span() {
    for chained in [false, true] {
        let out = ctx_world(2, move |ctx| {
            let rank = ctx.rank();
            let mut map = |em: &mut dyn Emitter| {
                matrix_input(rank).try_for_each(|(k, v)| em.emit(&k, &typed::enc_u64(v)))
            };
            if chained {
                cache_matrix_input(ctx);
            }
            mimir_obs::install(mimir_obs::Recorder::new(rank, 4096));
            let job = ctx.job();
            if chained {
                job.chain("in", &mut |k, v, em| em.emit(k, v))
                    .shuffle_elision(false)
                    .collect()
                    .unwrap();
            } else {
                job.map(&mut map).collect().unwrap();
            }
            mimir_obs::take().unwrap().events()
        });
        for events in &out {
            let rounds = aggregate_span(events)
                .iter()
                .filter(|e| e.kind == EventKind::RoundEnd)
                .count();
            assert!(
                rounds >= 1,
                "chained={chained}: no exchange round in Aggregate"
            );
        }
    }
}

/// A chained feed whose input is not cached fails with a cache error,
/// gives its memory back, and leaves the cache as it was.
#[test]
fn chain_refuses_an_input_that_is_not_cached() {
    let out = ctx_world(1, |ctx| {
        let err = ctx
            .job()
            .output_cached("out")
            .chain("in", &mut |k, v, em| em.emit(k, v))
            .collect()
            .err();
        let used = ctx.pool().used();
        (err, used, is_cached(ctx, "out"))
    });
    let (err, used, cached) = &out[0];
    assert!(
        matches!(err, Some(MimirError::Cache(m)) if m.contains("`in` is not cached")),
        "{err:?}"
    );
    assert_eq!((*used, *cached), (0, false));
}

/// An arrival filter goes with `collect` only: every other terminal of
/// the chained feed refuses it with a config error, gives its memory
/// back, and leaves the chained input cached.
#[test]
fn arrival_filter_is_refused_by_every_other_shape() {
    let refusing = Pairing::all().filter(|p| p.chained && p.compiles());
    for p in refusing.filter(|p| p.terminal != Terminal::Collect) {
        for run in run_pairing(p, true, false, true) {
            let err = run.result.as_ref().err();
            let case = format!("{p:?}: {err:?}");
            assert!(
                matches!(err, Some(MimirError::Config(m)) if m.contains("arrival_filter")),
                "{case}"
            );
            assert_eq!(run.used_after, 0, "{case}");
            assert!(run.input_cached, "{case}");
        }
    }
}

/// A chained feed's `collect` with a first-come claim as its arrival
/// filter (keep the first KV of each key, drop the rest), elided and
/// shuffled, with and without a failing map. The chained map re-emits each cached
/// [`matrix_input`] KV; shuffled, it re-keys nothing but still crosses
/// the exchange. Checked against a `HashMap` oracle: the filter is
/// offered every KV exactly once, on its owner; the output is exactly
/// the KVs it kept, in the order it kept them; `kvs_out` counts only
/// those; and the pool is fully credited on success and after the
/// failing map.
#[test]
fn arrival_filter_keeps_exactly_what_it_accepts() {
    let mut model: HashMap<(Vec<u8>, u64), usize> = HashMap::new();
    for rank in 0..2 {
        for kv in matrix_input(rank) {
            *model.entry(kv).or_default() += 1;
        }
    }
    for elide in [true, false] {
        for fail in [false, true] {
            let case = format!("elide={elide} fail={fail}");
            let runs = ctx_world(2, move |ctx| {
                cache_matrix_input(ctx);
                let mut offered = Vec::new();
                let mut claimed = HashSet::new();
                let mut claim = |k: &[u8], v: &[u8]| {
                    let keep = claimed.insert(k.to_vec());
                    offered.push((k.to_vec(), typed::dec_u64(v), keep));
                    keep
                };
                let result = ctx
                    .job()
                    .chain("in", &mut |k, v, em| {
                        em.emit(k, v)?;
                        if fail {
                            return Err(MimirError::Config("synthetic map failure".into()));
                        }
                        Ok(())
                    })
                    .shuffle_elision(elide)
                    .arrival_filter(&mut claim)
                    .collect()
                    .map(|out| (drain_u64s(out.output), out.stats));
                // Every KV the filter was offered, in order, with its verdict.
                (offered, finish_run(ctx, result))
            });
            let mut seen: HashMap<(Vec<u8>, u64), usize> = HashMap::new();
            let mut owner: HashMap<Vec<u8>, usize> = HashMap::new();
            for (rank, (offered, run)) in runs.iter().enumerate() {
                assert_eq!(run.used_after, 0, "{case}: pages left in the pool");
                assert!(run.input_cached, "{case}: the input survives");
                for (k, v, _) in offered {
                    *seen.entry((k.clone(), *v)).or_default() += 1;
                    let first = *owner.entry(k.clone()).or_insert(rank);
                    assert_eq!(first, rank, "{case}: a key offered on two ranks");
                }
                if fail {
                    let err = run.result.as_ref().err();
                    assert!(
                        matches!(err, Some(MimirError::Config(_))),
                        "{case}: {err:?}"
                    );
                    continue;
                }
                let (kvs, stats) = run.result.as_ref().unwrap();
                let kept: Kvs = offered
                    .iter()
                    .filter(|(_, _, keep)| *keep)
                    .map(|(k, v, _)| (k.clone(), *v))
                    .collect();
                assert_eq!(*kvs, kept, "{case}: output differs from the kept KVs");
                assert_eq!(stats.kvs_out, kept.len() as u64, "{case}");
            }
            if !fail {
                assert_eq!(
                    seen, model,
                    "{case}: the filter was not offered every KV once"
                );
                assert_eq!(owner.len(), 13, "{case}");
                let kept: usize = runs
                    .iter()
                    .map(|(_, r)| r.result.as_ref().unwrap().0.len())
                    .sum();
                assert_eq!(kept, 13, "{case}: one KV kept per key");
            }
        }
    }
}

/// One rank's keyed KMVC from [`group`](mimir_core::FedJob::group):
/// each group's key and its values in arrival order, as `for_each_group`
/// visits them.
type Groups = Vec<(Vec<u8>, Vec<u64>)>;

/// `group` on two ranks of `kind`: rank `r` emits `300 + 50r` KVs over
/// 40 keys, each value `r << 32 | i`. Returns each rank's groups, its
/// `(unique_keys, kvs_out)` and its pool occupancy once the KMVC drops,
/// after checking on the rank that `get` answers every group it holds and
/// `None` for a key it does not.
fn map_group_on(kind: mimir_mpi::TransportKind) -> Vec<(Groups, (u64, u64), u64)> {
    mimir_mpi::run_world_on(kind, 2, |comm| {
        let pool = MemPool::unlimited("node", 16 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let rank = ctx.rank() as u64;
        let (kmvc, stats) = ctx
            .job()
            .kv_meta(KvMeta::fixed(8, 8))
            .map(&mut |em| {
                (0..300 + 50 * rank).try_for_each(|i| {
                    em.emit(&typed::enc_u64(i * 7 % 40), &typed::enc_u64(rank << 32 | i))
                })
            })
            .group()
            .unwrap();
        let mut groups = Groups::new();
        kmvc.for_each_group(|k, vals| {
            groups.push((k.to_vec(), vals.map(typed::dec_u64).collect()));
            Ok(())
        })
        .unwrap();
        for (k, vals) in &groups {
            let got: Vec<u64> = kmvc.get(k).unwrap().unwrap().map(typed::dec_u64).collect();
            assert_eq!(&got, vals, "get and for_each_group agree");
        }
        assert!(kmvc.get(&typed::enc_u64(40)).unwrap().is_none());
        drop(kmvc);
        let used = ctx.pool().used() as u64;
        (groups, (stats.unique_keys, stats.kvs_out), used)
    })
}

/// On both transports, the two ranks' keyed KMVCs together are a serial
/// grouping of every rank's KVs: each key on exactly one rank, holding
/// every value emitted for it, each source rank's values in the order it
/// emitted them. The stats count the groups and values, and the pool
/// drains once the KMVC drops.
#[test]
fn map_group_equals_a_serial_grouping_on_both_transports() {
    let mut serial: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
    for rank in 0..2u64 {
        for i in 0..300 + 50 * rank {
            serial
                .entry(typed::enc_u64(i * 7 % 40).to_vec())
                .or_default()
                .push(rank << 32 | i);
        }
    }
    for kind in [
        mimir_mpi::TransportKind::Inproc,
        mimir_mpi::TransportKind::Uds,
    ] {
        let mut got: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
        for (groups, (unique_keys, kvs_out), used) in map_group_on(kind) {
            assert_eq!(used, 0, "{kind:?}: pages left in the pool");
            assert_eq!(unique_keys, groups.len() as u64, "{kind:?}");
            let values: usize = groups.iter().map(|(_, v)| v.len()).sum();
            assert_eq!(kvs_out, values as u64, "{kind:?}");
            for (k, vals) in groups {
                for src in 0..2u64 {
                    let from: Vec<u64> = vals.iter().copied().filter(|v| v >> 32 == src).collect();
                    assert!(from.is_sorted(), "{kind:?}: source {src} out of order");
                }
                assert!(
                    got.insert(k, vals).is_none(),
                    "{kind:?}: a key on two ranks"
                );
            }
        }
        for vals in got.values_mut() {
            vals.sort_unstable();
        }
        assert_eq!(got, serial, "{kind:?}");
    }
}

/// `group` returns a KMVC, and the cache holds KVCs: with
/// `output_cached` it fails with a cache error before it runs, gives its
/// memory back and caches nothing.
#[test]
fn group_refuses_a_cached_output() {
    let out = ctx_world(1, |ctx| {
        let err = ctx
            .job()
            .output_cached("out")
            .map(&mut |em| em.emit(b"k", b"v"))
            .group()
            .err();
        let used = ctx.pool().used();
        (err, used, is_cached(ctx, "out"))
    });
    let (err, used, cached) = &out[0];
    assert!(
        matches!(err, Some(MimirError::Cache(m)) if m.contains("output_cached")),
        "{err:?}"
    );
    assert_eq!((*used, *cached), (0, false));
}
