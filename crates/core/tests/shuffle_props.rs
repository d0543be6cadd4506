//! Randomized delivery properties of the shuffle engine: for arbitrary
//! KV multisets under every hint encoding, the exchange must deliver
//! exactly the emitted multiset, routed by the partitioner — even when
//! the partitioner sends everything to one rank, and on both transport
//! backends — and the bulk [`KvSink::accept_run`] path must be
//! observationally identical to per-KV [`KvSink::accept`]. Seeded PRNG,
//! so failures replay.

use std::collections::HashMap;

use mimir_core::{
    encode_push, partition_of, Emitter, KvContainer, KvDecoder, KvMeta, KvSink, LenHint,
    MimirError, Partitioner, Shuffler,
};
use mimir_datagen::{rank_rng, RankRng};
use mimir_mem::MemPool;
use mimir_mpi::{run_world, run_world_on, TransportKind};

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

/// The comm buffer every world below runs with: 512 B partitions at
/// four ranks.
const COMM_BUF: usize = 2048;

/// Shuffles `kvs(rank)` from every rank through `partitioner` over the
/// `kind` transport and returns each rank's received multiset.
fn shuffle(
    kind: TransportKind,
    ranks: usize,
    meta: KvMeta,
    partitioner: Partitioner,
    kvs: impl Fn(usize) -> Vec<(Vec<u8>, Vec<u8>)> + Send + Sync,
) -> Vec<Multiset> {
    let received = run_world_on(kind, ranks, move |comm| {
        let pool = MemPool::unlimited("t", 4096);
        let sink = KvContainer::new(&pool, meta);
        let mut sh =
            Shuffler::with_partitioner(comm, &pool, meta, COMM_BUF, sink, partitioner.clone())
                .unwrap();
        for (k, v) in kvs(sh.rank()) {
            sh.emit(&k, &v).unwrap();
        }
        let (kvc, stats) = sh.finish().unwrap();
        // The Section III-B bound held on every round.
        assert!(stats.max_round_recv_bytes <= COMM_BUF as u64, "{meta:?}");
        let mut got = Vec::new();
        kvc.drain(|k, v| {
            got.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        got
    });
    received.into_iter().map(multiset).collect()
}

/// The routing model: every rank's stream, each KV sent to `route(key)`,
/// counted in a std `HashMap` per destination.
fn routed(
    ranks: usize,
    kvs: impl Fn(usize) -> Vec<(Vec<u8>, Vec<u8>)>,
    route: impl Fn(&[u8]) -> usize,
) -> Vec<Multiset> {
    let mut expected: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); ranks];
    for rank in 0..ranks {
        for (k, v) in kvs(rank) {
            expected[route(&k)].push((k, v));
        }
    }
    expected.into_iter().map(multiset).collect()
}

/// Forked ranks over Unix sockets see the same world as rank threads, so
/// every rank must receive exactly the routed multiset on both backends.
#[test]
fn shuffle_delivers_the_emitted_multiset_under_every_hint() {
    let ranks = 4;
    let n_kvs = 400;
    for kind in [TransportKind::Inproc, TransportKind::Uds] {
        for (case, meta) in metas().into_iter().enumerate() {
            let seed = 0xC0FFEE + case as u64;
            let kvs = move |rank| rank_kvs(seed, rank, meta, n_kvs);
            let expected = routed(ranks, kvs, |k| partition_of(k, ranks));
            let got = shuffle(kind, ranks, meta, Partitioner::hash(), kvs);
            for (rank, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g, e, "{kind:?} {meta:?} rank {rank}");
            }
        }
    }
}

/// The stream each rank emits at the hot destination: either a 13-KV
/// vocabulary cycled (duplicate-heavy) or fully random KVs (near-unique).
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

/// Maximum skew: a point-mass partitioner sends every KV of every rank
/// to rank 0, under every hint, for duplicate-heavy and unique streams.
/// Rank 0 receives exactly the world's multiset, the others nothing, and
/// no round lands more than one send buffer's worth (Section III-B).
#[test]
fn point_mass_shuffle_delivers_the_routed_multiset() {
    let ranks = 4;
    let n_kvs = 400;
    for (case, meta) in metas().into_iter().enumerate() {
        for dup_heavy in [true, false] {
            let seed = 0xD17E_u64.wrapping_add(case as u64);
            let kvs = move |rank| hot_kvs(seed, rank, meta, n_kvs, dup_heavy);
            let expected = routed(ranks, kvs, |_| 0);
            let to_zero = Partitioner::custom("to-zero", |_, _| 0);
            let got = shuffle(TransportKind::Inproc, ranks, meta, to_zero, kvs);
            for (rank, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g, e, "{meta:?} dup={dup_heavy} rank {rank}");
            }
        }
    }
}

/// The round trigger's boundary: a KV of exactly one partition's encoded
/// size fits (after a round empties the partition it shares with a
/// smaller KV); one byte more can never fit and is rejected.
#[test]
fn kv_of_exactly_part_cap_is_delivered_and_one_byte_more_is_rejected() {
    let ranks = 4;
    let part_cap = COMM_BUF / ranks;
    let meta = KvMeta::var();
    // `var` encoding: two u32 length headers, then key and value.
    let val_len = part_cap - 8 - 1;
    let got = run_world(ranks, move |comm| {
        let pool = MemPool::unlimited("t", 4096);
        let sink = KvContainer::new(&pool, meta);
        let to_zero = Partitioner::custom("to-zero", |_, _| 0);
        let mut sh =
            Shuffler::with_partitioner(comm, &pool, meta, COMM_BUF, sink, to_zero).unwrap();
        sh.emit(b"s", b"small").unwrap();
        sh.emit(b"k", &vec![7u8; val_len]).unwrap();
        let err = sh.emit(b"k", &vec![7u8; val_len + 1]).unwrap_err();
        assert!(
            matches!(err, MimirError::KvTooLarge { size, limit, .. }
                if size == part_cap + 1 && limit == part_cap),
            "{err:?}"
        );
        let (kvc, stats) = sh.finish().unwrap();
        assert!(stats.max_round_recv_bytes <= COMM_BUF as u64);
        assert_eq!(stats.kvs_emitted, 2, "the rejected KV was not counted");
        let mut lens = Vec::new();
        kvc.drain(|k, v| {
            lens.push((k.to_vec(), v.len()));
            Ok(())
        })
        .unwrap();
        lens.sort();
        lens
    });
    let mut want = Vec::new();
    for _ in 0..ranks {
        want.push((b"k".to_vec(), val_len));
        want.push((b"s".to_vec(), 5));
    }
    want.sort();
    assert_eq!(got[0], want, "rank 0 holds every rank's pair");
    assert!(got[1..].iter().all(Vec::is_empty));
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
