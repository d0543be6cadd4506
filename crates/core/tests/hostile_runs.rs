//! Hostile runs: an encoded run that crossed a transport may arrive
//! truncated or garbled. Every sink's run path — [`GroupedKvs`],
//! [`KvContainer::push_run`], [`PartialReducer`]'s walk into its fold and the
//! default [`KvSink::accept_run`] (which the arrival filter's sink keeps)
//! — must answer a run it cannot walk with [`MimirError::MalformedRun`],
//! never a panic, the KVs before the damage taken, and the pool must be
//! fully credited once the sink drops.
//! Seeded PRNG, so failures replay.

use mimir_core::{
    encode_push, CombineFn, GroupedKvs, KvContainer, KvMeta, KvSink, LenHint, MimirError,
    PartialReducer,
};
use mimir_datagen::{rank_rng, RankRng};
use mimir_mem::MemPool;

/// Every encoding class of the wire format, `Var` and `CStr` on either
/// side.
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

/// One random side respecting `hint`.
fn gen_side(rng: &mut RankRng, hint: LenHint) -> Vec<u8> {
    match hint {
        LenHint::Var => (0..rng.gen_range(0..20))
            .map(|_| rng.gen_range(0..256) as u8)
            .collect(),
        LenHint::Fixed(n) => (0..n).map(|_| rng.gen_range(0..256) as u8).collect(),
        LenHint::CStr => (0..rng.gen_range(0..12))
            .map(|_| 1 + rng.gen_range(0..255) as u8)
            .collect(),
    }
}

/// A clean run of 1–40 KVs and where each KV starts and its value side
/// begins: `(run, [(kv_start, val_start)])`.
fn clean_run(rng: &mut RankRng, meta: KvMeta) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut run = Vec::new();
    let mut at = Vec::new();
    for _ in 0..rng.gen_range(1..41) {
        let (k, v) = (gen_side(rng, meta.key), gen_side(rng, meta.val));
        let start = run.len();
        encode_push(meta, &k, &v, &mut run);
        let val_len = v.len() + overhead(meta.val);
        at.push((start, run.len() - val_len));
    }
    (run, at)
}

fn overhead(hint: LenHint) -> usize {
    match hint {
        LenHint::Var => 4,
        LenHint::Fixed(_) => 0,
        LenHint::CStr => 1,
    }
}

/// A run no walk can finish: cut inside its last KV, a `Var` length
/// prefix raised past the run's end, or the last KV's `CStr` terminator
/// overwritten. Each is caught at the damaged KV, whatever bytes it and
/// the KVs before it hold.
fn broken_run(rng: &mut RankRng, meta: KvMeta) -> Vec<u8> {
    let (mut run, at) = clean_run(rng, meta);
    let &(last, last_val) = at.last().expect("at least one KV");
    let prefixes: Vec<usize> = at
        .iter()
        .flat_map(|&(k, v)| [(meta.key, k), (meta.val, v)])
        .filter(|&(hint, _)| hint == LenHint::Var)
        .map(|(_, off)| off)
        .collect();
    match rng.gen_range(0..3) {
        1 if !prefixes.is_empty() => {
            // At least 8 MiB, past any run here.
            let off = prefixes[rng.gen_range(0..prefixes.len())];
            run[off + 2] |= 0x80;
            run[off + 3] |= 1 << rng.gen_range(0..8);
        }
        2 if meta.val == LenHint::CStr => *run.last_mut().expect("a NUL") = b'x',
        2 if meta.key == LenHint::CStr => run[last_val - 1] = b'x',
        // Every KV here is at least 2 B, so a cut strictly inside the
        // last one exists.
        _ => run.truncate(last + rng.gen_range(1..run.len() - last)),
    }
    run
}

/// A run with a few random bytes rewritten anywhere: it may still walk,
/// so only the absence of a panic is required of it.
fn garbled_run(rng: &mut RankRng, meta: KvMeta) -> Vec<u8> {
    let (mut run, _) = clean_run(rng, meta);
    for _ in 0..rng.gen_range(1..4) {
        let i = rng.gen_range(0..run.len());
        run[i] ^= 1 << rng.gen_range(0..8);
    }
    if rng.gen_range(0..2) == 0 {
        run.truncate(rng.gen_range(0..run.len() + 1));
    }
    run
}

fn keep_first(_k: &[u8], a: &[u8], _b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(a);
}

/// Feeds each sink a clean run, then `bad`, checks the verdict, and
/// checks the pool is back to zero once the sink drops.
fn check_sinks(meta: KvMeta, clean: &[u8], bad: &[u8], must_fail: bool) {
    let pool = MemPool::new("t", 256, 1 << 24).unwrap();
    let verdict = |sink: &mut dyn KvSink| {
        sink.accept_run(meta, clean).expect("a clean run walks");
        let res = sink.accept_run(meta, bad);
        if must_fail {
            let err = res.expect_err("a broken run is refused");
            assert!(
                matches!(err, MimirError::MalformedRun { .. }),
                "{meta:?}: {err}"
            );
        }
    };
    {
        let mut grouped = GroupedKvs::new(&pool, meta).unwrap();
        verdict(&mut grouped);
    }
    assert_eq!(pool.used(), 0, "{meta:?}: GroupedKvs credited the pool");
    {
        let mut kvc = KvContainer::new(&pool, meta);
        verdict(&mut kvc);
    }
    assert_eq!(pool.used(), 0, "{meta:?}: KvContainer credited the pool");
    {
        let combine: CombineFn = Box::new(keep_first);
        let mut partial = PartialReducer::new(&pool, meta, combine).unwrap();
        verdict(&mut partial);
    }
    assert_eq!(pool.used(), 0, "{meta:?}: PartialReducer credited the pool");
}

#[test]
fn broken_runs_are_refused_by_every_sink() {
    for (case, meta) in metas().into_iter().enumerate() {
        let mut rng = rank_rng(0x0BAD_5EED, case);
        for _ in 0..300 {
            let (clean, _) = clean_run(&mut rng, meta);
            let bad = broken_run(&mut rng, meta);
            check_sinks(meta, &clean, &bad, true);
        }
    }
}

#[test]
fn garbled_runs_never_panic_a_sink() {
    for (case, meta) in metas().into_iter().enumerate() {
        let mut rng = rank_rng(0x06A4_B1ED, case);
        for _ in 0..300 {
            let (clean, _) = clean_run(&mut rng, meta);
            let bad = garbled_run(&mut rng, meta);
            check_sinks(meta, &clean, &bad, false);
        }
    }
}

#[test]
fn the_error_names_the_damaged_kv() {
    let meta = KvMeta::var();
    let mut run = Vec::new();
    encode_push(meta, b"key", b"value", &mut run);
    let whole = run.len();
    encode_push(meta, b"key", b"value", &mut run);
    run.truncate(run.len() - 1);
    let pool = MemPool::unlimited("t", 4096);
    let mut sink = GroupedKvs::new(&pool, meta).unwrap();
    match sink.accept_run(meta, &run) {
        Err(MimirError::MalformedRun { offset, run_len }) => {
            assert_eq!((offset, run_len), (whole, run.len()));
        }
        other => panic!("expected MalformedRun, got {other:?}"),
    }
    let (kmvc, _) = sink.into_kmv().unwrap();
    assert_eq!(kmvc.n_values(), 1, "the whole KV before it was grouped");
    assert_eq!(
        mimir_core::decode_one(meta, &run[whole..])
            .err()
            .map(|e| e.to_string()),
        Some(format!(
            "malformed KV run: no whole KV at byte 0 of a {} B run",
            run.len() - whole
        ))
    );
}

#[test]
fn a_run_cut_inside_its_fold_folds_the_whole_kvs_before_the_cut() {
    // The partial reducer walks a run straight into its fold; a cut at
    // any KV of a run of 33-99 folds exactly the KVs before it, as a
    // per-KV fold would.
    for (case, meta) in metas().into_iter().enumerate() {
        let mut rng = rank_rng(0x0005_746E, case);
        for _ in 0..100 {
            let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(33..100))
                .map(|_| (gen_side(&mut rng, meta.key), gen_side(&mut rng, meta.val)))
                .collect();
            let (mut run, mut starts) = (Vec::new(), Vec::new());
            for (k, v) in &kvs {
                starts.push(run.len());
                encode_push(meta, k, v, &mut run);
            }
            let cut = rng.gen_range(0..kvs.len());
            let end = if cut + 1 < kvs.len() {
                starts[cut + 1]
            } else {
                run.len()
            };
            // Every KV here is at least 2 B, so a cut strictly inside
            // KV `cut` exists.
            run.truncate(starts[cut] + rng.gen_range(1..end - starts[cut]));

            let pool = MemPool::new("t", 256, 1 << 24).unwrap();
            let drained = |pr: PartialReducer<'_>| {
                let mut kvs = Vec::new();
                let out = pr.into_output(&pool, meta).unwrap();
                out.drain(|k, v| {
                    kvs.push((k.to_vec(), v.to_vec()));
                    Ok(())
                })
                .unwrap();
                kvs
            };
            let mut walked = PartialReducer::new(&pool, meta, Box::new(keep_first)).unwrap();
            let err = walked.accept_run(meta, &run).unwrap_err();
            assert!(
                matches!(err, MimirError::MalformedRun { offset, .. } if offset == starts[cut])
            );
            assert_eq!(
                walked.kvs_in(),
                cut as u64,
                "{meta:?}: the KVs before the cut"
            );
            let mut each = PartialReducer::new(&pool, meta, Box::new(keep_first)).unwrap();
            for (k, v) in &kvs[..cut] {
                each.accept(k, v).unwrap();
            }
            assert_eq!(drained(walked), drained(each), "{meta:?}: cut at KV {cut}");
            assert_eq!(pool.used(), 0, "{meta:?}: the pool is credited");
        }
    }
}
