//! Randomized delivery properties of the shuffle engine: for arbitrary
//! KV multisets under every hint encoding, every [`ShuffleMode`] must
//! deliver exactly the emitted multiset, partitioned by key hash — and
//! the bulk [`KvSink::accept_run`] path must be observationally identical
//! to per-KV [`KvSink::accept`]. Seeded PRNG, so failures replay.

use std::collections::HashMap;

use mimir_core::{
    encode_push, partition_of, AdaptPolicy, Emitter, KvContainer, KvDecoder, KvMeta, KvSink,
    LenHint, Partitioner, ShuffleMode, Shuffler,
};
use mimir_datagen::{rank_rng, RankRng};
use mimir_mem::MemPool;
use mimir_mpi::run_world;

/// The hint matrix: every encoding class the wire format supports.
fn metas() -> [KvMeta; 4] {
    [
        KvMeta::var(),
        KvMeta::cstr_key_u64_val(),
        KvMeta::fixed(8, 8),
        KvMeta {
            key: LenHint::Var,
            val: LenHint::CStr,
        },
    ]
}

/// One random key or value respecting `hint` (CStr sides must be
/// NUL-free; Fixed sides must be exactly the declared length).
fn gen_side(rng: &mut RankRng, hint: LenHint) -> Vec<u8> {
    match hint {
        LenHint::Var => (0..rng.gen_range(0..16))
            .map(|_| rng.gen_range(0..256) as u8)
            .collect(),
        LenHint::Fixed(n) => (0..n).map(|_| rng.gen_range(0..256) as u8).collect(),
        LenHint::CStr => (0..rng.gen_range(0..12))
            .map(|_| 1 + rng.gen_range(0..255) as u8)
            .collect(),
    }
}

/// The deterministic KV stream rank `rank` emits for `(seed, meta)`.
fn rank_kvs(seed: u64, rank: usize, meta: KvMeta, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = rank_rng(seed, rank);
    (0..n)
        .map(|_| (gen_side(&mut rng, meta.key), gen_side(&mut rng, meta.val)))
        .collect()
}

type Multiset = HashMap<(Vec<u8>, Vec<u8>), usize>;

fn multiset(kvs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) -> Multiset {
    let mut m = Multiset::new();
    for kv in kvs {
        *m.entry(kv).or_insert(0) += 1;
    }
    m
}

/// Shuffles `n_kvs` random KVs per rank and returns each rank's received
/// multiset.
fn shuffle(
    seed: u64,
    meta: KvMeta,
    mode: ShuffleMode,
    ranks: usize,
    n_kvs: usize,
) -> Vec<Multiset> {
    run_world(ranks, move |comm| {
        let pool = MemPool::unlimited("t", 4096);
        let sink = KvContainer::new(&pool, meta);
        let mut sh =
            Shuffler::with_options(comm, &pool, meta, 2048, sink, Partitioner::hash(), mode)
                .unwrap();
        let me = sh.rank();
        for (k, v) in rank_kvs(seed, me, meta, n_kvs) {
            sh.emit(&k, &v).unwrap();
        }
        let (kvc, stats) = sh.finish().unwrap();
        // The III-B bound held on every round of every mode.
        assert!(stats.max_round_recv_bytes <= 2048, "{mode:?}");
        let mut got = Vec::new();
        kvc.drain(|k, v| {
            got.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        multiset(got)
    })
}

#[test]
fn every_mode_delivers_the_emitted_multiset_under_every_hint() {
    let ranks = 4;
    let n_kvs = 400;
    for (case, meta) in metas().into_iter().enumerate() {
        let seed = 0xC0FFEE + case as u64;
        // Reference partition: the same streams, routed by key hash.
        let mut expected: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); ranks];
        for rank in 0..ranks {
            for (k, v) in rank_kvs(seed, rank, meta, n_kvs) {
                expected[partition_of(&k, ranks)].push((k, v));
            }
        }
        let expected: Vec<Multiset> = expected.into_iter().map(multiset).collect();

        for mode in [
            ShuffleMode::ZeroCopy,
            ShuffleMode::Overlapped,
            ShuffleMode::Adaptive,
        ] {
            let got = shuffle(seed, meta, mode, ranks, n_kvs);
            for (rank, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g, e, "{meta:?} {mode:?} rank {rank}");
            }
        }
    }
}

/// An [`AdaptPolicy`] tuned to act on every signal: single-round
/// hysteresis, no signal floor, hot tripping from the first round — so
/// mid-job mode flips, round-size steps, and the salted hot path all
/// fire inside a small test workload.
fn twitchy_policy() -> AdaptPolicy {
    AdaptPolicy {
        hysteresis_rounds: 1,
        cooldown_rounds: 0,
        min_signal_ns: 0,
        hot_min_rounds: 1,
        ..AdaptPolicy::default()
    }
}

/// Like [`shuffle`], but every key routes to rank 0 (a point-mass
/// partitioner) under an explicit policy; returns each rank's received
/// multiset plus its adaptive counters.
fn hot_shuffle(
    seed: u64,
    meta: KvMeta,
    mode: ShuffleMode,
    ranks: usize,
    n_kvs: usize,
    dup_heavy: bool,
) -> Vec<(Multiset, mimir_obs::AdaptCounters)> {
    run_world(ranks, move |comm| {
        let pool = MemPool::unlimited("t", 4096);
        let sink = KvContainer::new(&pool, meta);
        let mut sh = Shuffler::with_policy(
            comm,
            &pool,
            meta,
            2048,
            sink,
            Partitioner::custom("to-zero", |_, _| 0),
            mode,
            twitchy_policy(),
        )
        .unwrap();
        let me = sh.rank();
        for (k, v) in hot_kvs(seed, me, meta, n_kvs, dup_heavy) {
            sh.emit(&k, &v).unwrap();
        }
        let (kvc, stats) = sh.finish().unwrap();
        assert!(stats.max_round_recv_bytes <= 2048, "{mode:?}");
        let mut got = Vec::new();
        kvc.drain(|k, v| {
            got.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        (multiset(got), stats.adapt)
    })
}

/// The stream each rank emits at the hot destination: either a 13-KV
/// vocabulary cycled (duplicate-heavy — the count-collapse staging path
/// wins) or fully random KVs (near-unique — staging degenerates to
/// forwarding and must still deliver exactly).
fn hot_kvs(
    seed: u64,
    rank: usize,
    meta: KvMeta,
    n: usize,
    dup_heavy: bool,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    if dup_heavy {
        let vocab = rank_kvs(seed ^ 0x9E37, 99, meta, 13);
        (0..n).map(|i| vocab[i % vocab.len()].clone()).collect()
    } else {
        rank_kvs(seed, rank, meta, n)
    }
}

#[test]
fn adaptive_hot_path_delivers_the_zero_copy_multiset() {
    let ranks = 4;
    let n_kvs = 400;
    for (case, meta) in metas().into_iter().enumerate() {
        for dup_heavy in [true, false] {
            let seed = 0xD17E_u64.wrapping_add(case as u64);
            let reference = hot_shuffle(seed, meta, ShuffleMode::ZeroCopy, ranks, n_kvs, dup_heavy);
            let adaptive = hot_shuffle(seed, meta, ShuffleMode::Adaptive, ranks, n_kvs, dup_heavy);
            for rank in 0..ranks {
                assert_eq!(
                    adaptive[rank].0, reference[rank].0,
                    "{meta:?} dup={dup_heavy} rank {rank}: adaptive multiset diverged"
                );
            }
            let trips: u64 = adaptive.iter().map(|(_, a)| a.hot_trips).sum();
            assert!(
                trips >= 1,
                "{meta:?} dup={dup_heavy}: point-mass load never tripped the hot path"
            );
            if dup_heavy {
                let staged: u64 = adaptive.iter().map(|(_, a)| a.hot_staged_kvs).sum();
                assert!(staged > 0, "{meta:?}: no KVs were staged for collapse");
            }
        }
    }
}

#[test]
fn accept_run_is_equivalent_to_per_kv_accept() {
    for (case, meta) in metas().into_iter().enumerate() {
        let mut rng = rank_rng(0xBEEF, case);
        // Random runs of encoded KVs, like one round's per-source slices.
        // A small page size forces push_run to split runs across pages.
        let pool = MemPool::unlimited("t", 256);
        let mut bulk = KvContainer::new(&pool, meta);
        let mut per_kv = KvContainer::new(&pool, meta);
        let mut runs = 0;
        while runs < 30 {
            let mut run = Vec::new();
            for _ in 0..rng.gen_range(0..20) {
                let k = gen_side(&mut rng, meta.key);
                let v = gen_side(&mut rng, meta.val);
                encode_push(meta, &k, &v, &mut run);
            }
            let n_bulk = bulk.accept_run(meta, &run).unwrap();
            let mut n_ref = 0;
            for (k, v) in KvDecoder::new(meta, &run) {
                per_kv.accept(k, v).unwrap();
                n_ref += 1;
            }
            assert_eq!(n_bulk, n_ref, "{meta:?}: consumed-KV count");
            runs += 1;
        }
        assert_eq!(bulk.len(), per_kv.len(), "{meta:?}: KV count");
        assert_eq!(bulk.bytes(), per_kv.bytes(), "{meta:?}: byte count");
        let flat = |kvc: KvContainer| {
            let mut out = Vec::new();
            kvc.drain(|k, v| {
                out.push((k.to_vec(), v.to_vec()));
                Ok(())
            })
            .unwrap();
            out
        };
        // Order matters too: a run must land in sequence, not just as a
        // multiset.
        assert_eq!(flat(bulk), flat(per_kv), "{meta:?}: drained KVs");
    }
}
