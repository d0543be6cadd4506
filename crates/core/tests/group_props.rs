//! Property tests for the grouping engine: [`GroupIndex`] must behave
//! exactly like a reference `HashMap<Vec<u8>, u32>` that assigns ids in
//! first-occurrence order, across adversarial key shapes — empty keys,
//! keys longer than a pool page, and pairs constructed to collide on the
//! full 64-bit hash. Convert and the fold table built on it
//! ([`CombinerTable`], [`PartialReducer`]) must in turn behave like a
//! std `HashMap` that remembers first-occurrence order.

use std::collections::HashMap;

use mimir_core::{
    convert, fxhash64, partition_of, CombineFn, CombinerTable, Emitter, GroupIndex, KvContainer,
    KvMeta, KvSink, LenHint, PartialReducer,
};
use mimir_mem::MemPool;

/// xorshift64* — deterministic stream per seed, no external PRNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random key whose length distribution covers the interesting cases:
/// empty, short, page-straddling, and (rarely) larger than a page.
fn random_key(rng: &mut Rng, page: usize) -> Vec<u8> {
    let len = match rng.below(100) {
        0..=4 => 0,                             // empty
        5..=69 => 1 + rng.below(16) as usize,   // short (common case)
        70..=94 => 1 + rng.below(200) as usize, // page-straddling
        _ => page + 1 + rng.below(64) as usize, // jumbo
    };
    // Draw from a small alphabet so duplicates actually occur.
    let tag = rng.below(50);
    (0..len)
        .map(|i| (tag as u8).wrapping_add(i as u8 % 7))
        .collect()
}

/// The reference model: first-occurrence id assignment via std's own
/// (SipHash) map, sharing nothing with the implementation under test.
#[derive(Default)]
struct Model {
    ids: HashMap<Vec<u8>, u32>,
}

impl Model {
    fn insert(&mut self, key: &[u8]) -> (u32, bool) {
        let next = self.ids.len() as u32;
        match self.ids.entry(key.to_vec()) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(next);
                (next, true)
            }
        }
    }
}

#[test]
fn index_matches_reference_model_on_random_streams() {
    for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        let page = 128;
        let pool = MemPool::unlimited("t", page);
        let mut rng = Rng(seed);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let mut model = Model::default();
        let mut keys_by_id: Vec<Vec<u8>> = Vec::new();

        for step in 0..20_000 {
            let key = random_key(&mut rng, page);
            let want = model.insert(&key);
            let got = ix.insert(&key).unwrap();
            assert_eq!(got, want, "seed {seed} step {step} key {key:?}");
            if want.1 {
                keys_by_id.push(key);
            }
            // Interleave read-only probes of a key seen (or not) so far.
            if step % 7 == 0 {
                let probe = random_key(&mut rng, page);
                assert_eq!(
                    ix.get(&probe),
                    model.ids.get(&probe).copied(),
                    "seed {seed} step {step} probe {probe:?}"
                );
            }
        }

        assert_eq!(ix.len(), model.ids.len(), "seed {seed}");
        for (id, key) in keys_by_id.iter().enumerate() {
            assert_eq!(ix.key(id as u32), &key[..], "seed {seed} id {id}");
            assert_eq!(ix.hash_of(id as u32), fxhash64(key));
        }
        let stats = ix.stats();
        assert_eq!(stats.groups, model.ids.len() as u64);
        assert_eq!(stats.probe_hist.iter().sum::<u64>(), stats.inserts);
    }
}

/// Builds `n` distinct 16-byte keys that all share one fxhash64 value.
///
/// fxhash64 folds 8-byte words as `h = (rot5(h) ^ w) * SEED` and then
/// applies a bijective finalizer, so two 2-word keys collide iff their
/// pre-finalizer states match:
///
/// ```text
/// (rot5(w1·S) ^ w2)·S == (rot5(w1'·S) ^ w2')·S
///   ⟺ w2' = rot5(w1·S) ^ rot5(w1'·S) ^ w2          (S is odd ⇒ ·S injective)
/// ```
///
/// Any choice of `w1'` therefore yields a colliding partner by solving
/// for `w2'`.
fn collision_family(n: usize) -> Vec<[u8; 16]> {
    const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    let (w1, w2) = (0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64);
    let base = w1.wrapping_mul(SEED).rotate_left(5);
    (0..n as u64)
        .map(|i| {
            let w1p = w1 ^ (i << 1);
            let w2p = base ^ w1p.wrapping_mul(SEED).rotate_left(5) ^ w2;
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&w1p.to_le_bytes());
            k[8..].copy_from_slice(&w2p.to_le_bytes());
            k
        })
        .collect()
}

#[test]
fn forced_full_hash_collisions_stay_distinct_groups() {
    let family = collision_family(64);
    let h0 = fxhash64(&family[0]);
    for k in &family {
        assert_eq!(fxhash64(k), h0, "family member must truly collide");
    }
    assert_eq!(
        family
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len(),
        family.len(),
        "members are distinct byte strings"
    );

    let pool = MemPool::unlimited("t", 4096);
    let mut ix = GroupIndex::new(&pool).unwrap();
    // Interleave colliding keys with ordinary ones so probes cross both.
    for (i, k) in family.iter().enumerate() {
        assert_eq!(ix.insert(k).unwrap(), (2 * i as u32, true));
        let filler = format!("filler-{i}");
        assert_eq!(
            ix.insert(filler.as_bytes()).unwrap(),
            (2 * i as u32 + 1, true)
        );
    }
    // Every member resolves to its own id — the tag matches for all of
    // them, so lookup must fall through to full key comparison.
    for (i, k) in family.iter().enumerate() {
        assert_eq!(ix.insert(k).unwrap(), (2 * i as u32, false), "member {i}");
        assert_eq!(ix.get(k), Some(2 * i as u32));
        assert_eq!(ix.key(2 * i as u32), &k[..]);
    }
    let stats = ix.stats();
    assert_eq!(stats.groups, 2 * family.len() as u64);
    assert!(
        stats.max_probe >= family.len() as u64 / 4,
        "a 64-way hash pileup must show up as long probes: {}",
        stats.max_probe
    );
}

/// The reference convert: groups in first-occurrence key order, each
/// with its values in arrival order, built on std's map alone.
fn group_model(kvs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut slot: HashMap<&[u8], usize> = HashMap::new();
    let mut groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
    for (k, v) in kvs {
        let i = *slot.entry(k.as_slice()).or_insert_with(|| {
            groups.push((k.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(v.clone());
    }
    groups
}

/// Convert must produce the model's KMV output — same groups, same
/// first-occurrence order, same per-group value sequences — for every
/// length-hint encoding.
#[test]
fn convert_modes_agree_across_hints() {
    let cases: Vec<(KvMeta, bool)> = vec![
        (KvMeta::var(), true),               // variable keys, empty allowed
        (KvMeta::fixed(8, 8), false),        // fixed-size keys
        (KvMeta::cstr_key_u64_val(), false), // NUL-terminated keys
    ];
    for (case, (meta, allow_empty)) in cases.into_iter().enumerate() {
        let pool = MemPool::unlimited("t", 256);
        let mut rng = Rng(0xC0FF_EE00 + case as u64);
        let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..5000u64)
            .map(|i| case_kv(allow_empty, &mut rng, i))
            .collect();
        let mut kvc = KvContainer::new(&pool, meta);
        for (k, v) in &kvs {
            kvc.push(k, v).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        let mut got: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
        kmvc.for_each_group(|k, vals| {
            got.push((k.to_vec(), vals.map(<[u8]>::to_vec).collect()));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, group_model(&kvs), "hint case {case}");
        assert!(!got.is_empty());
    }
}

/// Convert sees only keys the shuffle already routed to this rank, i.e.
/// keys whose hashes all fall in one `1/p`-wide band of the 64-bit hash
/// space (`partition_of` is a multiply-shift on the high bits). The slot
/// table must decorrelate its start slot from that band, or every key
/// piles into the same `1/p` slice of the table and probing degenerates
/// to a linear scan. This pins the remix: partition-filtered streams
/// probe like uniform ones.
#[test]
fn partition_filtered_keys_probe_like_uniform_keys() {
    const RANKS: usize = 8;
    let fill = |filter: bool| {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let mut inserted = 0u64;
        let mut i = 0u64;
        while inserted < 4000 {
            let key = format!("word{i:08}");
            i += 1;
            if filter && partition_of(key.as_bytes(), RANKS) != 3 {
                continue; // the shuffle sent this key elsewhere
            }
            ix.insert(key.as_bytes()).unwrap();
            inserted += 1;
        }
        ix.stats()
    };
    let uniform = fill(false);
    let band = fill(true);
    assert_eq!(band.groups, 4000);
    // Pre-remix, the band stream probed ~140× worse than the uniform one
    // (avg ~300 vs ~2); with the remix they are within noise of each
    // other. 2× headroom keeps the assertion robust while still failing
    // catastrophically on any re-correlation.
    assert!(
        band.avg_probe() < 2.0 * uniform.avg_probe().max(1.0),
        "partition-band keys must probe like uniform ones: band avg {} vs uniform avg {}",
        band.avg_probe(),
        uniform.avg_probe()
    );
    assert!(
        band.max_probe < 128,
        "no catastrophic pileup: max {}",
        band.max_probe
    );
}

/// One random KV: 8-byte keys from a small vocabulary (valid under every
/// hint in the table above), occasionally empty where the hint allows.
fn case_kv(allow_empty: bool, rng: &mut Rng, i: u64) -> (Vec<u8>, Vec<u8>) {
    let kind = rng.below(if allow_empty { 12 } else { 10 });
    let key: Vec<u8> = match kind {
        10 | 11 => Vec::new(),
        _ => format!("key{:05}", rng.below(40)).into_bytes(),
    };
    let val = (i % 251).to_le_bytes().to_vec();
    (key, val)
}

// ---------------------------------------------------------------------
// Fold table ≡ HashMap oracle
// ---------------------------------------------------------------------

/// The four ways a combine function can treat the accumulator's length.
#[derive(Debug, Clone, Copy)]
enum Merge {
    /// `u64` sum: the length never changes.
    Sum,
    /// Concatenation: every merge grows it.
    Concat,
    /// Truncate to empty: the first merge shrinks it to nothing.
    Truncate,
    /// Keep the first value: the incoming one is ignored.
    KeepFirst,
}

impl Merge {
    fn apply(self, acc: &[u8], incoming: &[u8], out: &mut Vec<u8>) {
        match self {
            Merge::Sum => {
                let s = u64::from_le_bytes(acc.try_into().unwrap())
                    .wrapping_add(u64::from_le_bytes(incoming.try_into().unwrap()));
                out.extend_from_slice(&s.to_le_bytes());
            }
            Merge::Concat => {
                out.extend_from_slice(acc);
                out.extend_from_slice(incoming);
            }
            Merge::Truncate => {}
            Merge::KeepFirst => out.extend_from_slice(acc),
        }
    }

    fn combine_fn(self) -> CombineFn<'static> {
        Box::new(move |_k, a, b, out| self.apply(a, b, out))
    }
}

/// The reference fold table: std's map for the values plus the order in
/// which keys first appeared.
#[derive(Default)]
struct FoldModel {
    vals: HashMap<Vec<u8>, Vec<u8>>,
    order: Vec<Vec<u8>>,
}

impl FoldModel {
    fn fold(&mut self, merge: Merge, key: &[u8], val: &[u8]) {
        match self.vals.get_mut(key) {
            Some(acc) => {
                let mut out = Vec::new();
                merge.apply(acc, val, &mut out);
                *acc = out;
            }
            None => {
                self.vals.insert(key.to_vec(), val.to_vec());
                self.order.push(key.to_vec());
            }
        }
    }

    /// Empties the model, returning its KVs in first-occurrence order.
    fn drain(&mut self) -> Kvs {
        let vals = std::mem::take(&mut self.vals);
        std::mem::take(&mut self.order)
            .into_iter()
            .map(|k| {
                let v = vals[&k].clone();
                (k, v)
            })
            .collect()
    }
}

type Kvs = Vec<(Vec<u8>, Vec<u8>)>;

/// Collects what a table flushes, checking the hash hand-off on the way.
#[derive(Default)]
struct Flushed(std::rc::Rc<std::cell::RefCell<Kvs>>);

impl Emitter for Flushed {
    fn emit(&mut self, _k: &[u8], _v: &[u8]) -> mimir_core::Result<()> {
        panic!("the arena table flushes through emit_hashed");
    }
    fn emit_hashed(&mut self, k: &[u8], v: &[u8], h: u64) -> mimir_core::Result<()> {
        assert_eq!(h, fxhash64(k), "stored hash of {k:?}");
        self.0.borrow_mut().push((k.to_vec(), v.to_vec()));
        Ok(())
    }
}

const FOLD_PAGE: usize = 64;
/// Key lengths around every storage boundary: empty, inline (up to 15),
/// arena page (16 up to a page) and jumbo (beyond a page).
const FOLD_KEY_LENS: [usize; 8] = [0, 1, 14, 15, 16, 17, FOLD_PAGE, FOLD_PAGE + 1];

/// Key, value and combine-function shapes to cross: every hint with the
/// key lengths it admits, and for each the merges its values admit.
fn fold_cases() -> Vec<(KvMeta, Vec<usize>, Merge)> {
    let mut cases = Vec::new();
    for merge in [Merge::Sum, Merge::KeepFirst] {
        cases.push((KvMeta::cstr_key_u64_val(), FOLD_KEY_LENS.to_vec(), merge));
        for len in FOLD_KEY_LENS {
            cases.push((KvMeta::fixed(len, 8), vec![len], merge));
        }
    }
    for merge in [Merge::Concat, Merge::Truncate, Merge::KeepFirst] {
        cases.push((KvMeta::var(), FOLD_KEY_LENS.to_vec(), merge));
    }
    cases
}

/// A seeded stream of KVs valid under `meta`: few distinct keys per
/// length, so most KVs merge; no NUL bytes, so `CStr` keys are legal.
fn fold_stream(rng: &mut Rng, meta: KvMeta, lens: &[usize], n: usize) -> Kvs {
    (0..n)
        .map(|_| {
            let len = lens[rng.below(lens.len() as u64) as usize];
            let tag = 1 + rng.below(12) as u8;
            let key = (0..len).map(|i| tag + (i % 5) as u8).collect();
            let val = match meta.val {
                LenHint::Fixed(n) => rng.next().to_le_bytes()[..n].to_vec(),
                _ => vec![b'v'; rng.below(20) as usize],
            };
            (key, val)
        })
        .collect()
}

/// `CombinerTable` — alone, and through `emit_into` in a pool whose
/// 1/256 share (512 B) forces flush cycles mid-stream — flushes exactly
/// what the model holds, in first-occurrence order, with each key's
/// stored hash.
#[test]
fn combiner_table_matches_hashmap_oracle() {
    for (case, (meta, lens, merge)) in fold_cases().into_iter().enumerate() {
        for bounded in [false, true] {
            let ctx = format!("case {case} {meta:?} {merge:?} bounded {bounded}");
            let pool =
                MemPool::new("t", FOLD_PAGE, if bounded { 128 << 10 } else { 1 << 20 }).unwrap();
            let mut rng = Rng(0xF01D_0000 + case as u64);
            let stream = fold_stream(&mut rng, meta, &lens, 3000);
            let mut model = FoldModel::default();
            let got = Flushed::default();
            let flushed = got.0.clone();
            let mut table = CombinerTable::new(&pool, meta, merge.combine_fn()).unwrap();

            if bounded {
                let mut out = got;
                let mut cycles = 0;
                for (k, v) in &stream {
                    table.emit_into(k, v, &mut out).unwrap();
                    model.fold(merge, k, v);
                    // Anything flushed is the whole table, as the model
                    // has it; both start the next cycle empty.
                    let mut f = flushed.borrow_mut();
                    if !f.is_empty() {
                        assert_eq!(*f, model.drain(), "{ctx} cycle {cycles}");
                        f.clear();
                        cycles += 1;
                    }
                }
                table.flush_into(&mut out).unwrap();
                assert_eq!(*flushed.borrow(), model.drain(), "{ctx} final flush");
                assert_eq!(table.group_stats().inserts, 3000, "{ctx}");
                // A dozen groups of any key length pass 512 B; only
                // the lone empty key stays under.
                if lens != [0] {
                    assert!(cycles > 0, "{ctx}: the budget must force flushes");
                }
            } else {
                for (k, v) in &stream {
                    table.emit(k, v).unwrap();
                    model.fold(merge, k, v);
                }
                assert_eq!(table.unique_keys(), model.order.len(), "{ctx}");
                assert_eq!(table.kvs_in(), 3000, "{ctx}");
                let mut out = got;
                table.flush_into(&mut out).unwrap();
                assert_eq!(*flushed.borrow(), model.drain(), "{ctx}");
            }
            assert_eq!(pool.used(), 0, "{ctx}: flush releases every byte");
        }
    }
}

/// `PartialReducer` — the same fold table fed through `KvSink::accept` —
/// finalises into a container holding exactly the model's KVs, in
/// first-occurrence order.
#[test]
fn partial_reducer_matches_hashmap_oracle() {
    for (case, (meta, lens, merge)) in fold_cases().into_iter().enumerate() {
        let ctx = format!("case {case} {meta:?} {merge:?}");
        let pool = MemPool::new("t", FOLD_PAGE, 1 << 20).unwrap();
        let mut rng = Rng(0x9A87_0000 + case as u64);
        let mut model = FoldModel::default();
        let mut pr = PartialReducer::new(&pool, meta, merge.combine_fn()).unwrap();
        for (k, v) in fold_stream(&mut rng, meta, &lens, 3000) {
            pr.accept(&k, &v).unwrap();
            model.fold(merge, &k, &v);
        }
        assert_eq!(pr.unique_keys(), model.order.len(), "{ctx}");
        // Truncated accumulators are empty: only a `Var` value can say so.
        let out_meta = KvMeta {
            key: meta.key,
            val: LenHint::Var,
        };
        // The output container wants pages a jumbo key fits in.
        let out_pool = MemPool::unlimited("out", 4096);
        let out = pr.into_output(&out_pool, out_meta).unwrap();
        let mut got = Vec::new();
        out.drain(|k, v| {
            got.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, model.drain(), "{ctx}");
        assert_eq!(pool.used(), 0, "{ctx}: into_output releases the table");
    }
}
