//! Property tests for grouping on arrival: for every [`LenHint`] pair and
//! every corpus shape, the two receive-to-KMVC paths —
//!
//! * `GroupedKvs` (group each run as it arrives),
//! * `KvContainer` + `convert` —
//!
//! must produce exactly the `for_each_group` sequence of a std `HashMap`
//! model that shares no code with the library and seal a KMVC that holds
//! one copy of the values; and the on-arrival path must give every byte
//! back to the pool on drop (also after an out-of-memory failure at any
//! point) and never peak above collecting a KVC first.

use std::collections::HashMap;

use mimir_core::{
    convert, encode_push, GroupedKvs, KmvContainer, KvContainer, KvMeta, KvSink, LenHint,
};
use mimir_mem::MemPool;

/// Small pages so every corpus spans many of them.
const PAGE: usize = 256;

type Kvs = Vec<(Vec<u8>, Vec<u8>)>;

/// What a sink is handed: encoded runs from the shuffle (kept beside the
/// KVs they encode, for the model), and single KVs from an elided
/// chain's local emitter.
enum Op {
    Run(Vec<u8>, Kvs),
    One(Vec<u8>, Vec<u8>),
}

/// The reference: groups in first-occurrence key order, values in
/// arrival order — built on std's map alone.
fn model(ops: &[Op]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut slot: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
    let mut push = |k: &[u8], v: &[u8]| {
        let i = *slot.entry(k.to_vec()).or_insert_with(|| {
            groups.push((k.to_vec(), Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(v.to_vec());
    };
    for op in ops {
        match op {
            Op::Run(_, kvs) => kvs.iter().for_each(|(k, v)| push(k, v)),
            Op::One(k, v) => push(k, v),
        }
    }
    groups
}

/// xorshift64* — deterministic stream per seed, no external PRNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const HINTS: [LenHint; 3] = [LenHint::Var, LenHint::Fixed(6), LenHint::CStr];

/// Key number `id` under `hint`.
fn key_of(hint: LenHint, id: u64) -> Vec<u8> {
    match hint {
        // Var keys may hold any bytes, including NULs.
        LenHint::Var => format!("k\0{id}").into_bytes(),
        LenHint::Fixed(n) => format!("{id:0n$}").into_bytes(),
        LenHint::CStr => format!("key{id}").into_bytes(),
    }
}

/// Bytes `side` takes encoded under `hint`.
fn encoded(hint: LenHint, side: &[u8]) -> usize {
    side.len()
        + match hint {
            LenHint::Var => 4,
            LenHint::Fixed(_) => 0,
            LenHint::CStr => 1,
        }
}

/// A value under `hint`, of varying length where the hint allows.
fn val_of(hint: LenHint, x: u64) -> Vec<u8> {
    match hint {
        LenHint::Var => x.to_le_bytes()[..(x % 9) as usize].to_vec(),
        LenHint::Fixed(n) => x.to_le_bytes().iter().cycle().take(n).copied().collect(),
        LenHint::CStr => format!("v{}", x % 1000).into_bytes(),
    }
}

/// Packs `(key, value)` pairs into runs of roughly `run_bytes`.
fn runs(meta: KvMeta, kvs: &[(Vec<u8>, Vec<u8>)], run_bytes: usize) -> Vec<Op> {
    let mut out = Vec::new();
    let (mut run, mut src) = (Vec::new(), Vec::new());
    for (k, v) in kvs {
        encode_push(meta, k, v, &mut run);
        src.push((k.clone(), v.clone()));
        if run.len() >= run_bytes {
            out.push(Op::Run(std::mem::take(&mut run), std::mem::take(&mut src)));
        }
    }
    if !run.is_empty() {
        out.push(Op::Run(run, src));
    }
    out
}

/// The width corpora: a value's width cycles through its pattern by the
/// value's index within its group — one width (WordCount's shape), runs
/// of widths, alternating widths, and empty values.
const WIDTHS: [(&str, [usize; 6]); 4] = [
    ("one-width", [8; 6]),
    ("width-runs", [8, 8, 8, 3, 3, 8]),
    ("alternating-widths", [8, 3, 8, 3, 8, 3]),
    ("zero-width", [0; 6]),
];

/// The corpus shapes, as `(name, ops)`; under a value hint that leaves
/// lengths free, also the width corpora over five keys.
fn corpora(meta: KvMeta) -> Vec<(&'static str, Vec<Op>)> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut kv = |id: u64| (key_of(meta.key, id), val_of(meta.val, rng.next()));

    let dup_heavy: Vec<_> = (0..2000u64).map(|i| kv(i * 31 % 7)).collect();
    let all_unique: Vec<_> = (0..600u64).map(&mut kv).collect();
    // One key whose values total far more than a page, among cold keys.
    let jumbo: Vec<_> = (0..900u64)
        .map(|i| kv(if i % 10 == 9 { 1 + i % 4 } else { 0 }))
        .collect();
    // Single KVs between ordinary runs, on keys the runs carry and on
    // one they never do.
    let mut singles = runs(meta, &dup_heavy[..300], 96);
    for at in [1usize, 3, 5, 6] {
        let (k, v) = kv(at as u64 % 3);
        singles.insert(at, Op::One(k, v));
    }
    for _ in 0..70 {
        let (k, v) = kv(99);
        singles.push(Op::One(k, v));
    }

    // Runs of hundreds of KVs, so the on-arrival pass takes many whole
    // batches and a short one per run; every 13th KV opens a fresh group,
    // landing at shifting places inside a batch.
    let long: Vec<_> = (0..3000u64)
        .map(|i| kv(if i % 13 == 5 { 1000 + i } else { i * 7 % 20 }))
        .collect();

    let mut out = vec![
        ("long-runs", runs(meta, &long, 4096)),
        ("duplicate-heavy", runs(meta, &dup_heavy, 120)),
        ("all-unique", runs(meta, &all_unique, 64)),
        ("one-jumbo-group", runs(meta, &jumbo, 200)),
        ("single-accepts", singles),
    ];
    if !matches!(meta.val, LenHint::Fixed(_)) {
        for (name, widths) in WIDTHS {
            let kvs: Vec<_> = (0..1500u64)
                .map(|i| {
                    (
                        key_of(meta.key, i % 5),
                        vec![b'a' + i as u8 % 26; widths[i as usize / 5 % 6]],
                    )
                })
                .collect();
            out.push((name, runs(meta, &kvs, 120)));
        }
    }
    out
}

/// Feeds `ops` into an on-arrival sink; the first error stops the feed.
fn feed_sink(sink: &mut GroupedKvs, meta: KvMeta, ops: &[Op]) -> mimir_core::Result<()> {
    for op in ops {
        match op {
            Op::Run(run, _) => {
                sink.accept_run(meta, run)?;
            }
            Op::One(k, v) => sink.accept(k, v)?,
        }
    }
    Ok(())
}

/// Materialise the KVC, then `convert` it.
fn kvc_then_convert(pool: &MemPool, meta: KvMeta, ops: &[Op]) -> KmvContainer {
    let mut kvc = KvContainer::new(pool, meta);
    for op in ops {
        match op {
            Op::Run(run, _) => {
                kvc.push_run(run).unwrap();
            }
            Op::One(k, v) => kvc.push(k, v).unwrap(),
        }
    }
    convert(kvc, pool).unwrap()
}

fn on_arrival(pool: &MemPool, meta: KvMeta, ops: &[Op]) -> KmvContainer {
    let mut sink = GroupedKvs::new(pool, meta).unwrap();
    feed_sink(&mut sink, meta, ops).unwrap();
    sink.into_kmv().unwrap().0
}

/// The exact `for_each_group` sequence: keys in visit order, each with
/// its values in visit order.
fn groups(kmvc: &KmvContainer) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut out = Vec::new();
    kmvc.for_each_group(|k, vals| {
        out.push((k.to_vec(), vals.map(<[u8]>::to_vec).collect()));
        Ok(())
    })
    .unwrap();
    out
}

fn for_every_cell(mut f: impl FnMut(KvMeta, &str, &[Op])) {
    for key in HINTS {
        for val in HINTS {
            let meta = KvMeta { key, val };
            for (name, ops) in corpora(meta) {
                f(meta, name, &ops);
            }
        }
    }
}

#[test]
fn on_arrival_and_convert_match_model() {
    for_every_cell(|meta, name, ops| {
        let pool = MemPool::unlimited("t", PAGE);
        let arrival = on_arrival(&pool, meta, ops);
        let converted = kvc_then_convert(&pool, meta, ops);

        let want = model(ops);
        assert!(!want.is_empty());
        assert_eq!(groups(&arrival), want, "{meta:?} {name}: arrival");
        assert_eq!(groups(&converted), want, "{meta:?} {name}: convert");
        assert_eq!(
            (arrival.n_groups(), arrival.n_values(), arrival.bytes()),
            (
                converted.n_groups(),
                converted.n_values(),
                converted.bytes()
            ),
            "{meta:?} {name}"
        );
        if name == "one-jumbo-group" {
            // A chunk is at most a page, so a group whose values fill
            // several pages is a chain of at least that many chunks. A
            // value takes at least its bare bytes.
            let hot: usize = want[0].1.iter().map(Vec::len).sum();
            assert!(hot > 8 * PAGE, "{meta:?}: hot group of {hot} B");
            assert!(arrival.pages_held() > hot / PAGE, "{meta:?}");
        }
        drop((arrival, converted));
        assert_eq!(pool.used(), 0, "{meta:?} {name}: everything credited");
    });
}

/// What a sealed group may hold beyond its payload: its index entry and
/// chain head (24 + 16 B), its tail chunk's unused room (under a page
/// less one 8-byte chunk header), and the headers and short ends of the
/// chunks its chain grew through — at most sixteen headers' worth here,
/// after the length words that bare values do not store.
const PER_GROUP: usize = 24 + 16 + (PAGE - 8) + 16 * 8;

#[test]
fn sealed_kmvc_holds_one_copy_of_the_values() {
    for_every_cell(|meta, name, ops| {
        for path in ["arrival", "convert"] {
            let pool = MemPool::unlimited("t", PAGE);
            let kmvc = match path {
                "arrival" => on_arrival(&pool, meta, ops),
                _ => kvc_then_convert(&pool, meta, ops),
            };
            // `bytes` is what one contiguous copy of the groups takes,
            // and values of one width are stored without their encoding.
            let bare = match name {
                "one-width" => encoded(meta.val, &[]) * kmvc.n_values() as usize,
                _ => 0,
            };
            let bound = kmvc.bytes() as usize - bare + PER_GROUP * kmvc.n_groups() + PAGE;
            assert!(
                pool.used() <= bound,
                "{meta:?} {name} {path}: {} B held, bound {bound} B",
                pool.used()
            );
        }
    });
}

#[test]
fn on_arrival_never_peaks_above_two_pass() {
    for_every_cell(|meta, name, ops| {
        let old = MemPool::unlimited("old", PAGE);
        drop(kvc_then_convert(&old, meta, ops));
        let new = MemPool::unlimited("new", PAGE);
        drop(on_arrival(&new, meta, ops));
        assert!(
            new.peak() <= old.peak(),
            "{meta:?} {name}: on-arrival peak {} > KVC + convert peak {}",
            new.peak(),
            old.peak()
        );
        assert_eq!((old.used(), new.used()), (0, 0));
    });
}

#[test]
fn pool_is_credited_after_oom_at_every_accept() {
    for_every_cell(|meta, name, ops| {
        // Dry run: the pool level after each accept, and the peak of the
        // whole path. A budget equal to one of those levels makes the
        // next allocation — in a later accept, or in `into_kmv` — fail.
        let dry = MemPool::unlimited("dry", PAGE);
        let mut levels = Vec::new();
        let mut sink = GroupedKvs::new(&dry, meta).unwrap();
        for op in ops {
            feed_sink(&mut sink, meta, std::slice::from_ref(op)).unwrap();
            levels.push(dry.used());
        }
        drop(sink.into_kmv().unwrap());
        let peak = dry.peak();
        levels.push((levels.last().unwrap() + peak) / 2);

        let mut failed = 0;
        for &budget in &levels {
            let pool = MemPool::new("tight", PAGE, budget.max(PAGE)).unwrap();
            let res = GroupedKvs::new(&pool, meta).and_then(|mut sink| {
                feed_sink(&mut sink, meta, ops)?;
                sink.into_kmv().map(drop)
            });
            if let Err(e) = res {
                assert!(e.is_oom(), "{meta:?} {name} budget {budget}: {e}");
                failed += 1;
            }
            assert_eq!(pool.used(), 0, "{meta:?} {name} budget {budget}");
        }
        assert!(
            failed > 0,
            "{meta:?} {name}: no budget below {peak} B failed"
        );
    });
}

/// One group of more values than a chunk header counts, after a width
/// change: uniform chunks, a variable one, then uniform chunks of width
/// 0 each up to the count limit, read back exactly.
#[test]
fn a_group_past_a_chunks_value_count_reads_back() {
    for val in [LenHint::Var, LenHint::CStr] {
        let meta = KvMeta {
            key: LenHint::Var,
            val,
        };
        let zeros = std::iter::repeat_n(0, 70_000);
        let kvs: Vec<_> = [8, 8, 8, 3, 0, 8]
            .into_iter()
            .chain(zeros)
            .map(|w| (b"k".to_vec(), vec![b'a'; w]))
            .collect();
        let ops = runs(meta, &kvs, 4096);
        let pool = MemPool::unlimited("t", PAGE);
        assert_eq!(
            groups(&on_arrival(&pool, meta, &ops)),
            model(&ops),
            "{meta:?}"
        );
    }
}
