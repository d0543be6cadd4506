//! Property tests for grouping on arrival: for every [`LenHint`] pair and
//! every corpus shape, the three receive-to-KMVC paths must produce the
//! exact same `for_each_group` byte sequence —
//!
//! * `GroupedKvs` under `Arena` (group each run as it arrives),
//! * `KvContainer` + the two-pass `convert_with(Arena)`,
//! * the `Legacy` `HashMap` oracle —
//!
//! and the on-arrival path must give every byte back to the pool on drop
//! (also after an out-of-memory failure at any point) and never peak
//! above the two-pass path.

use mimir_core::{
    convert_with, encode_push, GroupedKvs, GroupingMode, KmvContainer, KvContainer, KvMeta, KvSink,
    LenHint,
};
use mimir_mem::MemPool;

/// Small pages so every corpus spans many of them.
const PAGE: usize = 256;

/// What the shuffle hands a sink: encoded runs, and `(kv, count)` frames
/// from the hot-key path.
enum Op {
    Run(Vec<u8>),
    Repeat(Vec<u8>, Vec<u8>, u64),
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

/// Key number `id` under `hint`. Keys encode to at least 4 bytes, so a
/// `(group id, value)` record is never larger than the KV it replaces.
fn key_of(hint: LenHint, id: u64) -> Vec<u8> {
    match hint {
        // Var keys may hold any bytes, including NULs.
        LenHint::Var => format!("k\0{id}").into_bytes(),
        LenHint::Fixed(n) => format!("{id:0n$}").into_bytes(),
        LenHint::CStr => format!("key{id}").into_bytes(),
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
    let mut run = Vec::new();
    for (k, v) in kvs {
        encode_push(meta, k, v, &mut run);
        if run.len() >= run_bytes {
            out.push(Op::Run(std::mem::take(&mut run)));
        }
    }
    if !run.is_empty() {
        out.push(Op::Run(run));
    }
    out
}

/// The four corpus shapes of the issue, as `(name, ops)`.
fn corpora(meta: KvMeta) -> Vec<(&'static str, Vec<Op>)> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut kv = |id: u64| (key_of(meta.key, id), val_of(meta.val, rng.next()));

    let dup_heavy: Vec<_> = (0..2000u64).map(|i| kv(i * 31 % 7)).collect();
    let all_unique: Vec<_> = (0..600u64).map(&mut kv).collect();
    // One key whose values total far more than a page, among cold keys.
    let jumbo: Vec<_> = (0..900u64)
        .map(|i| kv(if i % 10 == 9 { 1 + i % 4 } else { 0 }))
        .collect();
    // Hot-key frames between ordinary runs: counts that stay inside a
    // page, span several, and the degenerate zero.
    let mut frames = runs(meta, &dup_heavy[..300], 96);
    for (at, n) in [(1usize, 300u64), (3, 1), (5, 0), (6, 37)] {
        let (k, v) = kv(at as u64 % 3);
        frames.insert(at, Op::Repeat(k, v, n));
    }
    let (k, v) = kv(99); // a key no run carries
    frames.push(Op::Repeat(k, v, 70));

    vec![
        ("duplicate-heavy", runs(meta, &dup_heavy, 120)),
        ("all-unique", runs(meta, &all_unique, 64)),
        ("one-jumbo-group", runs(meta, &jumbo, 200)),
        ("accept-repeat-frames", frames),
    ]
}

/// Feeds `ops` into an on-arrival sink; the first error stops the feed.
fn feed_sink(sink: &mut GroupedKvs, meta: KvMeta, ops: &[Op]) -> mimir_core::Result<()> {
    for op in ops {
        match op {
            Op::Run(run) => {
                sink.accept_run(meta, run)?;
            }
            Op::Repeat(k, v, n) => sink.accept_repeat(k, v, *n)?,
        }
    }
    Ok(())
}

/// The two-pass path: materialise the KVC, then `convert_with`.
fn two_pass(pool: &MemPool, meta: KvMeta, ops: &[Op], mode: GroupingMode) -> KmvContainer {
    let mut kvc = KvContainer::new(pool, meta);
    for op in ops {
        match op {
            Op::Run(run) => {
                kvc.push_run(run).unwrap();
            }
            Op::Repeat(k, v, n) => kvc.push_repeat(k, v, *n).unwrap(),
        }
    }
    convert_with(kvc, pool, mode).unwrap().0
}

fn through_sink(mut sink: GroupedKvs, meta: KvMeta, ops: &[Op]) -> KmvContainer {
    feed_sink(&mut sink, meta, ops).unwrap();
    sink.into_kmv().unwrap().0
}

fn on_arrival(pool: &MemPool, meta: KvMeta, ops: &[Op], mode: GroupingMode) -> KmvContainer {
    through_sink(GroupedKvs::with_mode(pool, meta, mode).unwrap(), meta, ops)
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
fn on_arrival_equals_two_pass_equals_legacy() {
    for_every_cell(|meta, name, ops| {
        let pool = MemPool::unlimited("t", PAGE);
        let arrival = on_arrival(&pool, meta, ops, GroupingMode::Arena);
        let arena = two_pass(&pool, meta, ops, GroupingMode::Arena);
        let legacy = two_pass(&pool, meta, ops, GroupingMode::Legacy);
        let legacy_sink = on_arrival(&pool, meta, ops, GroupingMode::Legacy);
        let collecting = GroupedKvs::two_pass(&pool, meta, GroupingMode::Arena);
        let collecting = through_sink(collecting, meta, ops);

        let want = groups(&legacy);
        assert!(!want.is_empty());
        assert_eq!(groups(&arrival), want, "{meta:?} {name}: arrival vs legacy");
        assert_eq!(groups(&arena), want, "{meta:?} {name}: two-pass vs legacy");
        assert_eq!(groups(&legacy_sink), want, "{meta:?} {name}: legacy sink");
        assert_eq!(groups(&collecting), want, "{meta:?} {name}: two-pass sink");
        assert_eq!(
            (arrival.n_groups(), arrival.n_values(), arrival.bytes()),
            (arena.n_groups(), arena.n_values(), arena.bytes()),
            "{meta:?} {name}"
        );
        if name == "one-jumbo-group" {
            assert!(
                arrival.jumbos_held() >= 1,
                "{meta:?}: a group outgrew a page"
            );
        }
        drop((arrival, arena, legacy, legacy_sink, collecting));
        assert_eq!(pool.used(), 0, "{meta:?} {name}: everything credited");
    });
}

#[test]
fn on_arrival_never_peaks_above_two_pass() {
    for_every_cell(|meta, name, ops| {
        let old = MemPool::unlimited("old", PAGE);
        drop(two_pass(&old, meta, ops, GroupingMode::Arena));
        let new = MemPool::unlimited("new", PAGE);
        drop(on_arrival(&new, meta, ops, GroupingMode::Arena));
        assert!(
            new.peak() <= old.peak(),
            "{meta:?} {name}: on-arrival peak {} > two-pass peak {}",
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
