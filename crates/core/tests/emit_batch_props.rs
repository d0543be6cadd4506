//! [`Emitter::emit_batch`] on the [`Shuffler`] against a KV-at-a-time
//! [`Emitter::emit`] loop over the same stream: the same runs land in
//! every round (so the same bytes a round and the same round count), the
//! sink ends with the same KVs, and a KV that fails mid-batch fails with
//! the same error at the same place, the KVs before it emitted and the
//! ones after it not. Partitions are small enough that rounds run inside
//! batches. Seeded PRNG, so failures replay.

use mimir_core::{Emitter, KvMeta, KvSink, LenHint, MimirError, Shuffler};
use mimir_datagen::{rank_rng, RankRng};
use mimir_mem::MemPool;
use mimir_mpi::run_world;

/// Records every run a round hands it, in order.
#[derive(Default)]
struct Runs(Vec<Vec<u8>>);

impl KvSink for Runs {
    fn accept(&mut self, _key: &[u8], _val: &[u8]) -> mimir_core::Result<()> {
        unreachable!("the shuffler hands over whole runs")
    }

    fn accept_run(&mut self, _meta: KvMeta, run: &[u8]) -> mimir_core::Result<u64> {
        self.0.push(run.to_vec());
        Ok(0)
    }
}

/// One random side respecting `hint`.
fn gen_side(rng: &mut RankRng, hint: LenHint) -> Vec<u8> {
    match hint {
        LenHint::Var => (0..rng.gen_range(0..24))
            .map(|_| rng.gen_range(0..256) as u8)
            .collect(),
        LenHint::Fixed(n) => (0..n).map(|_| rng.gen_range(0..256) as u8).collect(),
        LenHint::CStr => (0..rng.gen_range(0..16))
            .map(|_| 1 + rng.gen_range(0..255) as u8)
            .collect(),
    }
}

/// What one rank saw: every run its sink got, the round count, the KVs
/// it emitted, and the error that stopped its map, if one did.
type Seen = (Vec<Vec<u8>>, u64, u64, Option<String>);

/// Each rank emits its stream — `bad_at` replaced by a KV that must fail
/// — through batches of `batch` KVs, or KV at a time when `batch` is
/// `None`, stopping at the first error.
fn shuffle(
    meta: KvMeta,
    seed: u64,
    part: usize,
    batch: Option<usize>,
    bad_at: Option<usize>,
) -> Vec<Seen> {
    run_world(2, move |comm| {
        let mut rng = rank_rng(seed, comm.rank());
        let mut kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(50..400))
            .map(|_| (gen_side(&mut rng, meta.key), gen_side(&mut rng, meta.val)))
            .collect();
        if let Some(at) = bad_at {
            let at = at % kvs.len();
            kvs[at] = match meta.key {
                // A key one byte short of its Fixed hint.
                LenHint::Fixed(n) => (vec![7; n - 1], kvs[at].1.clone()),
                // An interior NUL under the CStr hint.
                LenHint::CStr => (b"a\0b".to_vec(), kvs[at].1.clone()),
                // Larger than a partition.
                LenHint::Var => (vec![1; part + 1], kvs[at].1.clone()),
            };
        }
        let pairs: Vec<(&[u8], &[u8])> = kvs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let pool = MemPool::unlimited("t", 4096);
        let mut sh = Shuffler::new(comm, &pool, meta, 2 * part, Runs::default()).unwrap();
        let res = match batch {
            Some(b) => pairs.chunks(b).try_for_each(|c| sh.emit_batch(c)),
            None => pairs.iter().try_for_each(|&(k, v)| sh.emit(k, v)),
        };
        let err = res.err().map(|e: MimirError| e.to_string());
        let (runs, stats) = sh.finish().unwrap();
        (runs.0, stats.rounds, stats.kvs_emitted, err)
    })
}

#[test]
fn emit_batch_places_what_an_emit_loop_places() {
    let metas = [
        KvMeta::var(),
        KvMeta::cstr_key_u64_val(),
        KvMeta::fixed(8, 8),
    ];
    for (case, meta) in metas.into_iter().enumerate() {
        let mut rng = rank_rng(0xE417, case);
        for trial in 0..24 {
            let seed = rng.next_u64();
            // Partitions of 64–320 B: a few KVs each, so rounds run
            // inside batches.
            let part = 64 + 32 * rng.gen_range(0..9);
            let batch = 1 + rng.gen_range(0..32);
            let bad_at = (trial % 3 == 0).then(|| rng.gen_range(0..400));
            let each = shuffle(meta, seed, part, None, bad_at);
            let batched = shuffle(meta, seed, part, Some(batch), bad_at);
            for (rank, (want, got)) in each.iter().zip(&batched).enumerate() {
                let what = format!("{meta:?} batch {batch} part {part} rank {rank}");
                assert_eq!(got.1, want.1, "{what}: rounds");
                assert_eq!(got.0, want.0, "{what}: every round's runs");
                assert_eq!(got.2, want.2, "{what}: KVs emitted");
                assert_eq!(got.3, want.3, "{what}: the error");
                assert_eq!(got.3.is_some(), bad_at.is_some(), "{what}: failed");
            }
            if bad_at.is_none() {
                assert!(each[0].1 > 2, "{meta:?}: rounds ran mid-stream");
            }
        }
    }
}
