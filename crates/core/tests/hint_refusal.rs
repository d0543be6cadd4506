//! The CStr hint's NUL refusal on every sink that checks it: a key with
//! an interior NUL is refused with `HintViolation` before anything
//! changes — no group interned, no KV stored, no pool byte taken —
//! whatever the key's length and wherever the NUL sits, including on
//! either side of the 8- and 16-byte word edges the check reads by, and
//! whether the key would live inline in its index entry (≤ 15 bytes) or
//! in the key arena.

use mimir_core::{
    CombineFn, CombinerTable, Emitter, GroupedKvs, KvContainer, KvMeta, KvSink, MimirError,
    PartialReducer,
};
use mimir_mem::MemPool;

fn sum<'f>() -> CombineFn<'f> {
    Box::new(|_k, a, b, out| {
        let s =
            u64::from_le_bytes(a.try_into().unwrap()) + u64::from_le_bytes(b.try_into().unwrap());
        out.extend_from_slice(&s.to_le_bytes());
    })
}

struct Refuse;
impl Emitter for Refuse {
    fn emit(&mut self, _k: &[u8], _v: &[u8]) -> mimir_core::Result<()> {
        panic!("nothing may be flushed");
    }
}

/// Clean keys of lengths 1–24: each NUL key below is one of these with
/// one byte replaced, so it shares a prefix (and often a hash tail word)
/// with a key already in the sink.
fn clean_key(len: usize) -> Vec<u8> {
    (0..len).map(|i| b'a' + (i % 26) as u8).collect()
}

/// Every key of length 1–24 with a NUL at one position.
fn nul_keys() -> impl Iterator<Item = Vec<u8>> {
    (1..=24).flat_map(|len| {
        (0..len).map(move |at| {
            let mut key = clean_key(len);
            key[at] = 0;
            key
        })
    })
}

/// Feeds every clean key, then every NUL key, to `accept`; checks each
/// NUL key is a `HintViolation` that leaves the pool untouched, and
/// returns how many NUL keys were refused.
fn refuse_all(pool: &MemPool, mut accept: impl FnMut(&[u8]) -> mimir_core::Result<()>) -> usize {
    for len in 1..=24 {
        accept(&clean_key(len)).unwrap();
    }
    let mut refused = 0;
    for key in nul_keys() {
        let used = pool.used();
        match accept(&key) {
            Err(MimirError::HintViolation(_)) => refused += 1,
            other => panic!("key {key:?}: {other:?}"),
        }
        assert_eq!(pool.used(), used, "key {key:?} took pool bytes");
    }
    refused
}

const NUL_KEYS: usize = 24 * 25 / 2;

#[test]
fn combiner_table_refuses_nul_keys() {
    let pool = MemPool::new("t", 4096, 1 << 30).unwrap();
    let mut table = CombinerTable::new(&pool, KvMeta::cstr_key_u64_val(), sum()).unwrap();
    let refused = refuse_all(&pool, |k| {
        table.emit_into(k, &1u64.to_le_bytes(), &mut Refuse)
    });
    assert_eq!(refused, NUL_KEYS);
    assert_eq!((table.unique_keys(), table.kvs_in()), (24, 24));
    let stats = table.group_stats();
    assert_eq!((stats.inserts, stats.interned_bytes), (24, 24 * 25 / 2));
}

#[test]
fn partial_reducer_refuses_nul_keys() {
    let pool = MemPool::new("t", 4096, 1 << 30).unwrap();
    let mut pr = PartialReducer::new(&pool, KvMeta::cstr_key_u64_val(), sum()).unwrap();
    let refused = refuse_all(&pool, |k| pr.accept(k, &1u64.to_le_bytes()));
    assert_eq!(refused, NUL_KEYS);
    assert_eq!((pr.unique_keys(), pr.kvs_in()), (24, 24));
    assert_eq!(pr.group_stats().inserts, 24);
}

#[test]
fn kv_container_refuses_nul_keys() {
    let pool = MemPool::new("t", 4096, 1 << 30).unwrap();
    let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
    let refused = refuse_all(&pool, |k| kvc.push(k, &1u64.to_le_bytes()));
    assert_eq!(refused, NUL_KEYS);
    assert_eq!(kvc.len(), 24);
    let keys: Vec<Vec<u8>> = kvc.iter().map(|(k, _)| k.to_vec()).collect();
    assert_eq!(keys, (1..=24).map(clean_key).collect::<Vec<_>>());
}

#[test]
fn grouped_kvs_refuse_nul_keys() {
    let pool = MemPool::new("t", 4096, 1 << 30).unwrap();
    let mut sink = GroupedKvs::new(&pool, KvMeta::cstr_key_u64_val()).unwrap();
    let refused = refuse_all(&pool, |k| sink.accept(k, &1u64.to_le_bytes()));
    assert_eq!(refused, NUL_KEYS);
    let (kmvc, stats) = sink.into_kmv().unwrap();
    assert_eq!(
        (kmvc.n_groups(), kmvc.n_values(), stats.inserts),
        (24, 24, 24)
    );
}
