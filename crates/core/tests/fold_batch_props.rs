//! The batched fold against the fold a KV at a time, on both tables
//! built on it:
//!
//! * [`CombinerTable::emit_batch_into`], over random batch splits, against
//!   an [`CombinerTable::emit_into`] loop: the same KVs flushed in the
//!   same order with the same stored hashes (so the same flush points),
//!   the same pool peak and the same `kvs_in`, with a budget small
//!   enough that the table flushes inside batches;
//! * [`PartialReducer`]'s run walk ([`KvSink::accept_run`]) against a
//!   per-KV [`KvSink::accept`] loop: the same output, peak and `kvs_in`;
//! * a KV that fails its hint at position k of a batch: the error, the k
//!   KVs before it folded, the table drainable and the pool credited.
//!
//! Keys run 1–40 bytes, 15, 16 and 17 (either side of the longest key an
//! index entry holds inline) among them, under all three key hints.
//! Seeded PRNG, so failures replay.

use mimir_core::{
    encode_push, CombineFn, CombinerTable, Emitter, KvMeta, KvSink, LenHint, MimirError,
    PartialReducer,
};
use mimir_datagen::{rank_rng, RankRng};
use mimir_mem::MemPool;

/// A flushed KV: key, value and the hash the table stored for it.
type Flushed = (Vec<u8>, Vec<u8>, u64);

/// Records every KV a flush hands it.
#[derive(Default)]
struct Record(Vec<Flushed>);

impl Emitter for Record {
    fn emit(&mut self, _key: &[u8], _val: &[u8]) -> mimir_core::Result<()> {
        unreachable!("a flush hands over each KV's stored hash")
    }

    fn emit_hashed(&mut self, key: &[u8], val: &[u8], hash: u64) -> mimir_core::Result<()> {
        assert_eq!(hash, mimir_core::fxhash64(key), "stored hash");
        self.0.push((key.to_vec(), val.to_vec(), hash));
        Ok(())
    }
}

/// Key lengths drawn from, weighted towards the inline limit.
const KEY_LENS: [usize; 12] = [1, 4, 7, 8, 9, 15, 15, 16, 16, 17, 17, 40];

/// Every key hint, with a value hint to match the combine. A `Fixed` key
/// is at least 4 bytes, so a vocabulary of hundreds exists.
fn metas(rng: &mut RankRng) -> [KvMeta; 4] {
    let fixed = KEY_LENS[rng.gen_range(1..KEY_LENS.len())];
    [
        KvMeta::cstr_key_u64_val(),
        KvMeta {
            key: LenHint::Var,
            val: LenHint::Fixed(8),
        },
        KvMeta::fixed(fixed, 8),
        KvMeta::var(),
    ]
}

/// A vocabulary of distinct keys that satisfy `hint`.
fn vocab(rng: &mut RankRng, hint: LenHint, n: usize) -> Vec<Vec<u8>> {
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < n {
        let len = match hint {
            LenHint::Fixed(len) => len,
            _ => KEY_LENS[rng.gen_range(0..KEY_LENS.len())],
        };
        let key: Vec<u8> = (0..len)
            .map(|_| match hint {
                LenHint::CStr => 1 + rng.gen_range(0..255) as u8,
                _ => rng.gen_range(0..256) as u8,
            })
            .collect();
        keys.insert(key);
    }
    keys.into_iter().collect()
}

/// A skewed stream over `keys`: a few hot keys and a long tail. Values
/// are `u64`s, or 0–11 bytes when the value hint is `Var`.
fn stream(rng: &mut RankRng, meta: KvMeta, keys: &[Vec<u8>], n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|_| {
            let hot = rng.gen_range(0..4) != 0;
            let key = keys[rng.gen_range(0..if hot { 8 } else { keys.len() })].clone();
            let val = match meta.val {
                LenHint::Var => (0..rng.gen_range(0..12)).map(|i| i as u8).collect(),
                _ => (1 + rng.gen_range(0..5) as u64).to_le_bytes().to_vec(),
            };
            (key, val)
        })
        .collect()
}

/// `u64` sums, or for `Var` values a merge whose length moves both ways:
/// the incoming value when its first byte is odd, else the two
/// concatenated and cut at 20 bytes. Deterministic, which is all the
/// comparison needs.
fn combine<'f>(meta: KvMeta) -> CombineFn<'f> {
    if meta.val == LenHint::Var {
        return Box::new(|_k, a, b, out| {
            if b.first().is_some_and(|x| x % 2 == 1) {
                out.extend_from_slice(b);
            } else {
                out.extend_from_slice(a);
                out.extend_from_slice(b);
                out.truncate(20);
            }
        });
    }
    Box::new(|_k, a, b, out| {
        let s =
            u64::from_le_bytes(a.try_into().unwrap()) + u64::from_le_bytes(b.try_into().unwrap());
        out.extend_from_slice(&s.to_le_bytes());
    })
}

/// A 1 MiB pool of 256 B pages: the combiner flushes past 4 KiB, a few
/// dozen groups.
fn small_pool() -> MemPool {
    MemPool::new("t", 256, 1 << 20).unwrap()
}

/// The stream through a combiner, KV at a time (`splits` empty) or in
/// batches of the given sizes, then the final flush: everything flushed,
/// the pool peak and `kvs_in`.
fn combine_stream(
    meta: KvMeta,
    kvs: &[(Vec<u8>, Vec<u8>)],
    splits: &[usize],
) -> (Vec<Flushed>, usize, u64) {
    let pool = small_pool();
    let mut table = CombinerTable::new(&pool, meta, combine(meta)).unwrap();
    let mut out = Record::default();
    if splits.is_empty() {
        for (k, v) in kvs {
            table.emit_into(k, v, &mut out).unwrap();
        }
    } else {
        let refs: Vec<(&[u8], &[u8])> = kvs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let mut rest = &refs[..];
        for &n in splits.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, after) = rest.split_at(n.min(rest.len()));
            table.emit_batch_into(batch, &mut out).unwrap();
            rest = after;
        }
    }
    let kvs_in = table.kvs_in();
    table.flush_into(&mut out).unwrap();
    drop(table);
    assert_eq!(pool.used(), 0, "{meta:?}: the table credited the pool");
    (out.0, pool.peak(), kvs_in)
}

#[test]
fn batched_combiner_flushes_what_a_per_kv_loop_flushes() {
    let mut rng = rank_rng(0xF01D, 0);
    for trial in 0..12 {
        for meta in metas(&mut rng) {
            let n = 150 + rng.gen_range(0..200);
            let keys = vocab(&mut rng, meta.key, n);
            let kvs = stream(&mut rng, meta, &keys, 3000);
            let splits: Vec<usize> = (0..7).map(|_| rng.gen_range(0..80)).chain([1]).collect();
            let what = format!("trial {trial} {meta:?} splits {splits:?}");
            let (want, want_peak, want_in) = combine_stream(meta, &kvs, &[]);
            let (got, got_peak, got_in) = combine_stream(meta, &kvs, &splits);
            let distinct: std::collections::HashSet<&[u8]> =
                kvs.iter().map(|(k, _)| &k[..]).collect();
            assert!(
                want.len() > distinct.len() + 50,
                "{what}: the budget forces flushes ({} KVs flushed of {} keys)",
                want.len(),
                distinct.len()
            );
            assert_eq!(got, want, "{what}: flushed KVs");
            assert_eq!(got_peak, want_peak, "{what}: pool peak");
            assert_eq!((got_in, want_in), (3000, 3000), "{what}: kvs_in");
        }
    }
}

/// Whole-KV runs of `kvs` under `meta`, each cut after a random count.
fn runs(rng: &mut RankRng, meta: KvMeta, kvs: &[(Vec<u8>, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut runs = Vec::new();
    let mut rest = kvs;
    while !rest.is_empty() {
        let (run, after) = rest.split_at(rng.gen_range(1..100).min(rest.len()));
        let mut bytes = Vec::new();
        for (k, v) in run {
            encode_push(meta, k, v, &mut bytes);
        }
        runs.push(bytes);
        rest = after;
    }
    runs
}

/// Drains a partial reducer's output: its KVs in order.
fn output(pr: PartialReducer<'_>, pool: &MemPool, meta: KvMeta) -> Vec<(Vec<u8>, Vec<u8>)> {
    let out = pr.into_output(pool, meta).unwrap();
    let mut kvs = Vec::new();
    out.drain(|k, v| {
        kvs.push((k.to_vec(), v.to_vec()));
        Ok(())
    })
    .unwrap();
    kvs
}

#[test]
fn partial_run_walk_folds_what_per_kv_accepts_fold() {
    let mut rng = rank_rng(0xF01D, 1);
    for trial in 0..12 {
        for meta in metas(&mut rng) {
            let n = 50 + rng.gen_range(0..400);
            let keys = vocab(&mut rng, meta.key, n);
            let kvs = stream(&mut rng, meta, &keys, 2000);
            let runs = runs(&mut rng, meta, &kvs);
            let what = format!("trial {trial} {meta:?}");

            let pool = small_pool();
            let mut each = PartialReducer::new(&pool, meta, combine(meta)).unwrap();
            for (k, v) in &kvs {
                each.accept(k, v).unwrap();
            }
            let each_in = each.kvs_in();
            let want = output(each, &pool, meta);
            let want_peak = pool.peak();

            let pool = small_pool();
            let mut walked = PartialReducer::new(&pool, meta, combine(meta)).unwrap();
            let n: u64 = runs
                .iter()
                .map(|run| walked.accept_run(meta, run).unwrap())
                .sum();
            assert_eq!((n, walked.kvs_in(), each_in), (2000, 2000, 2000), "{what}");
            assert_eq!(output(walked, &pool, meta), want, "{what}: output");
            assert_eq!(pool.peak(), want_peak, "{what}: pool peak");
            assert_eq!(pool.used(), 0, "{what}: credited");
        }
    }
}

/// The total of `u64` values.
fn sum<'a>(vals: impl Iterator<Item = &'a [u8]>) -> u64 {
    vals.map(|v| u64::from_le_bytes(v.try_into().unwrap()))
        .sum()
}

#[test]
fn a_kv_that_fails_its_hint_mid_batch_stops_the_fold_there() {
    let mut rng = rank_rng(0xF01D, 2);
    let metas = [
        KvMeta::cstr_key_u64_val(),
        KvMeta::fixed(16, 8),
        KvMeta {
            key: LenHint::Var,
            val: LenHint::Fixed(8),
        },
    ];
    for trial in 0..60 {
        let meta = metas[trial % 3];
        let keys = vocab(&mut rng, meta.key, 40);
        let mut kvs = stream(&mut rng, meta, &keys, 70);
        let k = rng.gen_range(0..kvs.len());
        // A NUL inside a CStr key, a 15-byte key under Fixed(16), or a
        // 7-byte value under Fixed(8) when keys are unhinted; the first
        // two are refused only when the key opens a group, which it does,
        // never having been interned.
        match meta.key {
            LenHint::CStr => {
                let at = rng.gen_range(0..kvs[k].0.len() + 1);
                kvs[k].0.insert(at, 0)
            }
            LenHint::Fixed(_) => kvs[k].0.truncate(15),
            LenHint::Var => kvs[k].1.truncate(7),
        }
        let refs: Vec<(&[u8], &[u8])> = kvs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let what = format!("trial {trial} {meta:?} bad at {k}");

        // The combiner, with a budget that may flush inside the batch.
        let pool = small_pool();
        let mut table = CombinerTable::new(&pool, meta, combine(meta)).unwrap();
        let mut out = Record::default();
        let err = table.emit_batch_into(&refs, &mut out).unwrap_err();
        assert!(matches!(err, MimirError::HintViolation(_)), "{what}: {err}");
        assert_eq!(table.kvs_in(), k as u64, "{what}: the KVs before it folded");
        table.flush_into(&mut out).unwrap();
        let want = sum(refs[..k].iter().map(|(_, v)| *v));
        let flushed = sum(out.0.iter().map(|(_, v, _)| &v[..]));
        assert_eq!(flushed, want, "{what}: every folded KV flushed, no other");
        drop(table);
        assert_eq!(pool.used(), 0, "{what}: combiner credited");

        // The partial reducer's checked path takes one KV at a time.
        let pool = small_pool();
        let mut pr = PartialReducer::new(&pool, meta, combine(meta)).unwrap();
        let err = refs
            .iter()
            .try_for_each(|(k, v)| pr.accept(k, v))
            .unwrap_err();
        assert!(matches!(err, MimirError::HintViolation(_)), "{what}: {err}");
        assert_eq!(pr.kvs_in(), k as u64, "{what}: partial");
        let drained = output(pr, &pool, meta);
        assert_eq!(sum(drained.iter().map(|(_, v)| &v[..])), want, "{what}");
        assert_eq!(pool.used(), 0, "{what}: partial credited");
    }
}
