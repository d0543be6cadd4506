//! **Grouping bench** — throughput and peak memory of the
//! receive-to-KMVC paths and the fold table, isolating grouping from
//! shuffle and reduce costs.
//!
//! The convert cells feed the same 32 KiB encoded runs (one exchange
//! round's worth from one source) through two paths, timing from the
//! first run to the finished KMVC. Both end in the same back half — each
//! value appended once to its group's chunk chain, then a seal that
//! copies nothing — and differ in when the grouping happens:
//!
//! * `arena` — `KvContainer::push_run` then the one-pass
//!   [`convert_with`]: a cold walk over the whole KVC after the last run,
//!   freeing its pages as they are grouped.
//! * `arrival` — what `reduce` jobs run: [`GroupedKvs`] groups each
//!   run while it is cache-resident, so no KVC ever exists.
//!
//! Cells cover the shapes that stress different parts of the engine:
//! Zipf-skewed wordcount (the paper's WC workload — probe-hit dominated),
//! uniform unique-heavy fixed keys (insert dominated), duplicate-heavy
//! fixed keys (pure probe hits), and the combiner fold path — the last
//! on two Zipf streams, the 50 Ki vocabulary of the convert cell and the
//! 20 000-word one the whole-job benchmark's `wc_zipf_opt` folds.
//!
//! Then ns-a-KV rows, each read against a floor timed in the same
//! process rather than across runs: `fold` (the combiner on the
//! `wc_zipf_opt` stream as a job's map drives it — 32-word batches
//! through `&mut dyn Emitter` — beside a bare `GroupIndex::insert` and
//! an in-place add by group id), `emit` (the shuffler's batched emit
//! at p = 2 on `wc_uniform`'s words, exchange rounds taken out, beside a
//! hand loop doing the same hashing and copies) and `arrival` (the
//! on-arrival pass on the receive streams of `wc_uniform`,
//! `bfs_graph500`'s partition stage and `oc_points`; the wc row beside a
//! bare append of each value to its group). They carry no gate.
//!
//! Writes `BENCH_convert.json`; `--quick` runs shrunken cells as a CI
//! smoke test. Two gates per convert cell, and a `REGRESSION` marker
//! (nonzero exit) when either fails: `arrival` may not lose to `arena`
//! on peak (exact), nor on best-of-repeats throughput beyond the noise
//! band ([`ARRIVAL_NOISE_FLOOR`]). The fold rows report rate and spread
//! only.

use std::time::Instant;

use mimir_apps::octree::map_level;
use mimir_bench::harness::{fastest, interleaved, Args, Report, Summary};
use mimir_core::{
    convert_with, encode_push, fxhash64, partition_of, partition_of_hashed, CombineFn,
    CombinerTable, Emitter, GroupIndex, GroupedKvs, KvContainer, KvMeta, KvSink, Shuffler,
};
use mimir_datagen::{rank_rng, Graph500, PointGen, UniformWords, WikipediaWords};
use mimir_mem::MemPool;
use mimir_obs::{EventKind, GroupCounters, Json, Recorder};

const PAGE: usize = 1 << 20;
/// Vocabulary of the whole-job benchmark's `wc_zipf_opt` input.
const ZIPF_OPT_VOCAB: usize = 20_000;

/// The KV streams under test. Each builds the same stream for both
/// paths (same seed), so the comparison is exact.
#[derive(Clone, Copy)]
enum Workload {
    /// Zipf(1.0) words of 4–16 bytes, CStr keys, u64 counts — the paper's
    /// wordcount shape. A 50 Ki vocabulary is the acceptance cell; 20 000
    /// words is the stream `wc_zipf_opt` folds.
    SkewedWords { corpus_bytes: usize, vocab: usize },
    /// Nearly-unique 8-byte keys: every KV inserts a fresh group.
    UniformUnique { kvs: usize },
    /// 8-byte keys from a tiny vocabulary: every KV after warm-up is a
    /// probe hit.
    DupHeavy { kvs: usize, vocab: u64 },
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SkewedWords {
                vocab: ZIPF_OPT_VOCAB,
                ..
            } => "zipf-20k-words",
            Workload::SkewedWords { .. } => "skewed-words",
            Workload::UniformUnique { .. } => "uniform-unique",
            Workload::DupHeavy { .. } => "dup-heavy",
        }
    }

    fn meta(self) -> KvMeta {
        match self {
            Workload::SkewedWords { .. } => KvMeta::cstr_key_u64_val(),
            _ => KvMeta::fixed(8, 8),
        }
    }

    /// Materializes the KV stream once; repeats re-push it into fresh
    /// containers so generation cost stays out of the timed region.
    fn keys(self) -> Vec<Vec<u8>> {
        match self {
            Workload::SkewedWords {
                corpus_bytes,
                vocab,
            } => {
                let words = WikipediaWords {
                    vocab,
                    ..WikipediaWords::new(0xC04F)
                };
                words
                    .generate(0, 1, corpus_bytes)
                    .split(|&b| b == b' ' || b == b'\n')
                    .filter(|w| !w.is_empty())
                    .map(<[u8]>::to_vec)
                    .collect()
            }
            Workload::UniformUnique { kvs } => {
                let mut rng = rank_rng(0x0F1CE, 0);
                (0..kvs)
                    .map(|_| rng.next_u64().to_le_bytes().to_vec())
                    .collect()
            }
            Workload::DupHeavy { kvs, vocab } => {
                let mut rng = rank_rng(0xD0B5, 0);
                (0..kvs)
                    .map(|_| (rng.next_u64() % vocab).to_le_bytes().to_vec())
                    .collect()
            }
        }
    }
}

/// One repeat of one path.
struct Measure {
    mkvs_per_s: f64,
    /// Pool high-water mark of the timed region (0 for the fold cells,
    /// which share one pool across repeats).
    peak_bytes: usize,
    stats: GroupCounters,
    kvs: usize,
}

/// One exchange round's receive from one source at the default 64 KiB
/// comm buffer on two ranks.
const RUN_BYTES: usize = 32 << 10;

/// Encodes a KV stream of `u64` values into whole-KV runs of at most
/// [`RUN_BYTES`], as the shuffle hands them to its sink.
fn encode_runs<'a>(kvs: impl Iterator<Item = (&'a [u8], u64)>, meta: KvMeta) -> Vec<Vec<u8>> {
    let mut runs = vec![Vec::with_capacity(RUN_BYTES)];
    for (k, v) in kvs {
        let v = v.to_le_bytes();
        if runs.last().expect("never empty").len() + mimir_core::encoded_len(meta, k, &v)
            > RUN_BYTES
        {
            runs.push(Vec::with_capacity(RUN_BYTES));
        }
        encode_push(meta, k, &v, runs.last_mut().expect("never empty"));
    }
    runs
}

/// `arrival` loses a cell when its best repeat is below this fraction of
/// `arena`'s. On fully fixed-size KVs the two paths do the same hashing
/// and appends, and `push_run`'s boundary walk — what grouping on arrival
/// removes — is free, so they tie: back-to-back runs of this bench put
/// the ratio at 0.87–1.10 there (1.25–1.40 on the variable-length
/// wordcount cell). The floor sits below that band; the first cut of the
/// sink (a container `push` per KV) measured 0.74 and would have tripped
/// it.
const ARRIVAL_NOISE_FLOOR: f64 = 0.8;

/// Every repeat of the `arena` and `arrival` paths (see the module
/// docs) over the same runs, interleaved within every repeat so a slow
/// spell of the machine lifts both alike.
fn run_convert(runs: &[Vec<u8>], kvs: usize, meta: KvMeta, repeats: usize) -> Vec<Vec<Measure>> {
    interleaved(repeats, 2, |path| {
        let pool = MemPool::unlimited("bench", PAGE);
        let t0 = Instant::now();
        let (kmvc, stats) = if path == 1 {
            let mut sink = GroupedKvs::new(&pool, meta).unwrap();
            for run in runs {
                sink.accept_run(meta, run).unwrap();
            }
            sink.into_kmv().unwrap()
        } else {
            let mut kvc = KvContainer::new(&pool, meta);
            for run in runs {
                kvc.push_run(run).unwrap();
            }
            convert_with(kvc, &pool).unwrap()
        };
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(kmvc.n_values(), kvs as u64);
        drop(kmvc);
        Measure {
            mkvs_per_s: kvs as f64 / 1e6 / elapsed,
            peak_bytes: pool.peak(),
            stats,
            kvs,
        }
    })
}

/// Every repeat's combiner throughput: the bounded pipeline a job's map
/// runs — KVs fold into the table ([`CombinerTable::emit_into`]), which
/// flushes into a partitioning sink whenever it outgrows its share of
/// the pool. The sink partitions the way the shuffler does, reusing the
/// stored hash ([`mimir_core::partition_of_hashed`] via `emit_hashed`).
fn run_fold(keys: &[Vec<u8>], meta: KvMeta, repeats: usize) -> Vec<Measure> {
    /// Stands in for the shuffler's partition step (16 destinations).
    struct PartitionSink(u64);
    impl Emitter for PartitionSink {
        fn emit(&mut self, k: &[u8], _v: &[u8]) -> mimir_core::Result<()> {
            self.0 += mimir_core::partition_of(k, 16) as u64;
            Ok(())
        }
        fn emit_hashed(&mut self, _k: &[u8], _v: &[u8], h: u64) -> mimir_core::Result<()> {
            self.0 += mimir_core::partition_of_hashed(h, 16) as u64;
            Ok(())
        }
    }
    // The table flushes past 1/256 of its pool, here 1 MiB: index entry,
    // slots, span and `u64` take ≈ 50 B a key, so a fill cycle ends near
    // 20 Ki unique keys and both streams go through several.
    let pool = MemPool::new("bench", PAGE, 256 << 20).unwrap();
    let mut repeats = interleaved(repeats, 1, |_| {
        let sum: CombineFn = Box::new(|_k, a, b, out| {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                + u64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        });
        let mut table = CombinerTable::new(&pool, meta, sum).unwrap();
        let mut sink = PartitionSink(0);
        let t0 = Instant::now();
        for k in keys {
            table.emit_into(k, &1u64.to_le_bytes(), &mut sink).unwrap();
        }
        table.flush_into(&mut sink).unwrap();
        let stats = table.group_stats();
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink.0);
        Measure {
            mkvs_per_s: keys.len() as f64 / 1e6 / elapsed,
            peak_bytes: 0,
            stats,
            kvs: keys.len(),
        }
    });
    repeats.pop().expect("one variant")
}

/// ns a word of the fold on `words`, job-shaped, every repeat, beside
/// its floor interleaved with it in the same process: `[fold, floor]`.
///
/// * `fold` — 32-word batches through `&mut dyn Emitter` into the
///   combining emitter a job's map writes to
///   ([`CombinerTable::flushing_into`]) with `u64` sums,
///   flushing past its budget into a sink that drops the KVs, then the
///   final flush.
/// * `floor` — each word through a bare [`GroupIndex::insert`] and an
///   in-place add to a `u64` by group id: the probe and merge the fold
///   cannot avoid, with no batch, budget, hint check or callback.
fn run_fold_ns(words: &[Vec<u8>], meta: KvMeta, repeats: usize) -> Vec<Vec<f64>> {
    struct Discard;
    impl Emitter for Discard {
        fn emit(&mut self, _k: &[u8], _v: &[u8]) -> mimir_core::Result<()> {
            Ok(())
        }
    }
    let one = 1u64.to_le_bytes();
    let n = words.len() as f64;
    let pool = MemPool::new("bench", PAGE, 256 << 20).unwrap();
    interleaved(repeats, 2, |variant| {
        let t0 = Instant::now();
        if variant == 0 {
            let sum: CombineFn = Box::new(|_k, a, b, out| {
                let s = u64::from_le_bytes(a.try_into().unwrap())
                    + u64::from_le_bytes(b.try_into().unwrap());
                out.extend_from_slice(&s.to_le_bytes());
            });
            let mut table = CombinerTable::new(&pool, meta, sum).unwrap();
            let mut batch: [(&[u8], &[u8]); EMIT_BATCH] = [(&[], &one); EMIT_BATCH];
            let mut discard = Discard;
            let mut map = table.flushing_into(&mut discard);
            let em: &mut dyn Emitter = &mut map;
            for chunk in words.chunks(EMIT_BATCH) {
                for (slot, w) in batch.iter_mut().zip(chunk) {
                    slot.0 = w;
                }
                em.emit_batch(&batch[..chunk.len()]).unwrap();
            }
            table.flush_into(&mut Discard).unwrap();
        } else {
            let mut ix = GroupIndex::new(&pool).unwrap();
            let mut counts: Vec<u64> = Vec::new();
            for w in words {
                match ix.insert(w).unwrap() {
                    (_, true) => counts.push(1),
                    (id, false) => counts[id as usize] += 1,
                }
            }
            std::hint::black_box(&counts);
        }
        t0.elapsed().as_secs_f64() * 1e9 / n
    })
}

/// The receive-side streams of the whole-job benchmark's grouping
/// workloads, each as rank 0 of two receives it: var-encoded keys, a
/// `u64` value each, in whole-KV runs of at most [`RUN_BYTES`].
#[derive(Clone, Copy)]
enum Arrival {
    /// `wc_uniform`: 8-byte words from an 8 192-word vocabulary, so 4 096
    /// groups a rank, every value 1.
    Wc { text_bytes: usize },
    /// `bfs_graph500`'s partition stage: every Graph500 edge in both
    /// directions, keyed by endpoint (87 k groups a rank at scale 18).
    Bfs { scale: u32 },
    /// `oc_points` at level 2: two-digit octant paths of normal points, a
    /// few of them hot.
    Oc { points: usize },
}

impl Arrival {
    fn name(self) -> &'static str {
        match self {
            Arrival::Wc { .. } => "wc-4096-groups",
            Arrival::Bfs { .. } => "bfs-partition",
            Arrival::Oc { .. } => "oc-hot-keys",
        }
    }

    /// The stream's KVs as rank 0 of two receives them.
    fn kvs(self) -> Vec<(Vec<u8>, u64)> {
        let mine = |k: &[u8]| partition_of(k, 2) == 0;
        match self {
            Arrival::Wc { text_bytes } => {
                let text = wc_text(text_bytes);
                mimir_io::words(&text)
                    .filter(|w| mine(w))
                    .map(|w| (w.to_vec(), 1))
                    .collect()
            }
            Arrival::Bfs { scale } => {
                let g = Graph500::new(scale, 0x6500);
                (0..2)
                    .flat_map(|r| g.edges(r, 2))
                    .flat_map(|(u, v)| [(u, v), (v, u)])
                    .filter(|(u, _)| mine(&u.to_le_bytes()))
                    .map(|(u, v)| (u.to_le_bytes().to_vec(), v))
                    .collect()
            }
            Arrival::Oc { points } => {
                let pts = PointGen::new(0x0C7).generate(0, 1, points);
                let mut kvs = Vec::new();
                map_level(&pts, 2, &(0..8).collect::<Vec<u64>>(), |k| {
                    if mine(k) {
                        kvs.push((k.to_vec(), 1));
                    }
                    Ok::<_, ()>(())
                })
                .expect("infallible");
                kvs
            }
        }
    }
}

/// One rank's share of `wc_uniform`'s text, generated the same way.
fn wc_text(bytes: usize) -> Vec<u8> {
    UniformWords {
        vocab: 8192,
        word_len: 8,
        seed: 0x0C0DE,
    }
    .generate(0, 1, bytes)
}

/// ns a KV of the on-arrival pass over `stream` (received runs to the
/// sealed KMVC), every repeat; with the wc stream, also the floor it is
/// read against, interleaved with it: each value appended bare to its
/// group's preallocated `Vec<u64>`, group ids known in advance.
fn run_arrival(stream: Arrival, repeats: usize) -> (Vec<f64>, Option<Vec<f64>>) {
    let meta = KvMeta::var();
    let kvs = stream.kvs();
    let runs = encode_runs(kvs.iter().map(|(k, v)| (&k[..], *v)), meta);
    let n = kvs.len() as f64;
    let floor = matches!(stream, Arrival::Wc { .. });
    // The floor's input: each KV's group id (first-occurrence order) and
    // value, and a tail a group sized to hold its values.
    let mut ids = std::collections::HashMap::new();
    let appends: Vec<(u32, u64)> = if floor {
        kvs.iter()
            .map(|(k, v)| {
                let next = ids.len() as u32;
                (*ids.entry(k.as_slice()).or_insert(next), *v)
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut sizes = vec![0usize; ids.len()];
    appends.iter().for_each(|&(g, _)| sizes[g as usize] += 1);
    let mut samples = interleaved(repeats, 1 + usize::from(floor), |variant| {
        if variant == 1 {
            let mut tails: Vec<Vec<u64>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
            let t0 = Instant::now();
            for &(g, v) in &appends {
                tails[g as usize].push(v);
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9 / n;
            std::hint::black_box(&tails);
            return ns;
        }
        let pool = MemPool::unlimited("bench", PAGE);
        let t0 = Instant::now();
        let mut sink = GroupedKvs::new(&pool, meta).unwrap();
        for run in &runs {
            sink.accept_run(meta, run).unwrap();
        }
        let (kmvc, _) = sink.into_kmv().unwrap();
        let ns = t0.elapsed().as_secs_f64() * 1e9 / n;
        assert_eq!(kmvc.n_values(), kvs.len() as u64);
        ns
    });
    let floor = floor.then(|| samples.pop().expect("the floor variant"));
    (samples.pop().expect("the pass"), floor)
}

/// The comm buffer of the whole-job benchmark's jobs (`MimirConfig`'s
/// default).
const COMM_BUF: usize = 64 << 10;

/// WordCount's batch: the words it hands the shuffler in one
/// [`Emitter::emit_batch`] call.
const EMIT_BATCH: usize = 32;

/// Send-side cost a KV at p = 2 on `wc_uniform`'s key shape, every
/// repeat, each variant's ns a KV net of a null loop over the same
/// batches timed in the same process: `[emit, floor]`.
///
/// * `emit` — both ranks of a two-rank world emit their words through
///   the [`Shuffler`] in 32-KV batches into a sink that drops the runs;
///   the exchange rounds (spans read off a trace recorder) are taken out,
///   so what is left is routing, checks and copies.
/// * `floor` — the same words through a hand loop in the same process:
///   hash, partition, fill check and both var-encoded copies into two
///   32 KiB partitions, a full one restarted in place.
fn run_emit(text_bytes: usize, repeats: usize) -> Vec<Vec<f64>> {
    let text = wc_text(text_bytes);
    let words: Vec<&[u8]> = mimir_io::words(&text).collect();
    let one = 1u64.to_le_bytes();
    let n = words.len() as f64;
    let per_rank = mimir_mpi::run_world(2, |comm| {
        let mut batch: [(&[u8], &[u8]); EMIT_BATCH] = [(&[], &one); EMIT_BATCH];
        let mut samples = interleaved(repeats, 3, |variant| {
            let t0 = Instant::now();
            let mut rounds_ns = 0;
            match variant {
                0 => {
                    mimir_obs::install(Recorder::new(comm.rank(), 1 << 16));
                    let pool = MemPool::unlimited("bench", PAGE);
                    let meta = KvMeta::var();
                    let mut sh = Shuffler::new(comm, &pool, meta, COMM_BUF, NullSink).unwrap();
                    for chunk in words.chunks(EMIT_BATCH) {
                        for (slot, w) in batch.iter_mut().zip(chunk) {
                            slot.0 = w;
                        }
                        sh.emit_batch(&batch[..chunk.len()]).unwrap();
                    }
                    sh.finish().unwrap();
                    let events = mimir_obs::take().expect("installed").events();
                    let mut open = 0;
                    for e in events {
                        match e.kind {
                            EventKind::RoundBegin => open = e.t_ns,
                            EventKind::RoundEnd => rounds_ns += e.t_ns - open,
                            _ => {}
                        }
                    }
                }
                1 => {
                    let mut send = vec![0u8; COMM_BUF];
                    let (cap, mut fill) = (COMM_BUF / 2, [0usize; 2]);
                    for chunk in words.chunks(EMIT_BATCH) {
                        for w in chunk {
                            let d = partition_of_hashed(fxhash64(w), 2);
                            let len = 8 + w.len() + one.len();
                            if fill[d] + len > cap {
                                fill[d] = 0;
                            }
                            let out = &mut send[d * cap + fill[d]..][..len];
                            out[..4].copy_from_slice(&(w.len() as u32).to_le_bytes());
                            out[4..4 + w.len()].copy_from_slice(w);
                            out[4 + w.len()..8 + w.len()].copy_from_slice(&8u32.to_le_bytes());
                            out[8 + w.len()..].copy_from_slice(&one);
                            fill[d] += len;
                        }
                    }
                    std::hint::black_box(&send);
                }
                _ => {
                    for chunk in words.chunks(EMIT_BATCH) {
                        for (slot, w) in batch.iter_mut().zip(chunk) {
                            slot.0 = w;
                        }
                        std::hint::black_box(&batch[..chunk.len()]);
                    }
                }
            }
            (t0.elapsed().as_nanos() as f64 - rounds_ns as f64) / n
        });
        let null = samples.pop().expect("the null variant");
        samples
            .into_iter()
            .map(|v| {
                v.iter()
                    .zip(&null)
                    .map(|(t, z)| t - z)
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>()
    });
    per_rank.into_iter().next().expect("rank 0")
}

/// A sink that drops what it is handed: the emit row times the send side
/// alone.
struct NullSink;

impl KvSink for NullSink {
    fn accept(&mut self, _key: &[u8], _val: &[u8]) -> mimir_core::Result<()> {
        Ok(())
    }

    fn accept_run(&mut self, _meta: KvMeta, _run: &[u8]) -> mimir_core::Result<u64> {
        Ok(0)
    }
}

/// Prints and returns one ns-a-KV row: the best repeat (lowest) and the
/// spread, with its floor's best when it has one.
fn ns_row(
    phase: &str,
    cell: &str,
    samples: &[f64],
    floor: Option<&[f64]>,
) -> Vec<(&'static str, Json)> {
    let s = Summary::of(samples);
    let floor = floor.map(Summary::of);
    println!(
        "{:<10}{:>16}{:>10}{:>10.1} ns/KV (median {:.1}){}",
        phase,
        cell,
        "",
        s.min,
        s.median,
        floor.map_or(String::new(), |f| format!(
            ", floor {:.1} (median {:.1}), {:.2}x the floor",
            f.min,
            f.median,
            s.min / f.min
        )),
    );
    let mut fields = vec![
        ("phase", Json::Str(phase.into())),
        ("cell", Json::Str(cell.into())),
        ("ns_per_kv", Json::Num(s.min)),
    ];
    fields.extend(s.json_fields());
    if let Some(f) = floor {
        fields.push(("floor_ns_per_kv", Json::Num(f.min)));
        fields.push(("floor_median", Json::Num(f.median)));
        fields.push(("of_floor", Json::Num(s.min / f.min)));
    }
    fields
}

/// Prints and returns one measured path's row. Only the convert rows
/// carry `vs_arena` and a peak: the fold rows share one pool across
/// repeats.
fn row(
    phase: &str,
    cell: Workload,
    mode: &str,
    repeats: &[Measure],
    vs_arena: Option<f64>,
) -> Vec<(&'static str, Json)> {
    let (m, rate) = fastest(repeats, |m| m.mkvs_per_s);
    println!(
        "{:<10}{:>16}{:>10}{:>12.2}{:>10.2}{:>10}{:>10.1}{:>10}{:>10}{:>12.3}",
        phase,
        cell.name(),
        mode,
        rate.max,
        rate.median,
        vs_arena.map_or("-".into(), |r| format!("{r:.2}x")),
        m.peak_bytes as f64 / 1e6,
        m.stats.groups,
        m.stats.rehashes,
        m.stats.avg_probe(),
    );
    let mut fields = vec![
        ("phase", Json::Str(phase.into())),
        ("cell", Json::Str(cell.name().into())),
        ("mode", Json::Str(mode.into())),
        ("kvs", Json::Num(m.kvs as f64)),
        ("mkvs_per_s", Json::Num(rate.max)),
    ];
    fields.extend(rate.json_fields());
    if let Some(r) = vs_arena {
        fields.push(("speedup_vs_arena", Json::Num(r)));
        fields.push(("peak_bytes", Json::Num(m.peak_bytes as f64)));
    }
    fields.extend([
        ("groups", Json::Num(m.stats.groups as f64)),
        ("rehashes", Json::Num(m.stats.rehashes as f64)),
        ("avg_probe", Json::Num(m.stats.avg_probe())),
        ("max_probe", Json::Num(m.stats.max_probe as f64)),
        (
            "interned_kb",
            Json::Num(m.stats.interned_bytes as f64 / 1024.0),
        ),
        ("load_factor", Json::Num(m.stats.load_factor())),
    ]);
    fields
}

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 20 } else { 1 };
    let repeats = if args.quick { 5 } else { 7 };
    let convert_cells = [
        Workload::SkewedWords {
            corpus_bytes: (12 << 20) / scale,
            vocab: 50_000,
        },
        Workload::UniformUnique {
            kvs: 1_000_000 / scale,
        },
        Workload::DupHeavy {
            kvs: 1_000_000 / scale,
            vocab: 512,
        },
    ];

    println!(
        "{:<10}{:>16}{:>10}{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "phase",
        "cell",
        "mode",
        "MKV/s",
        "median",
        "vs_arena",
        "peak_MB",
        "groups",
        "rehashes",
        "avg_probe"
    );
    let mut report = Report::new("convert_grouping", &args);
    for cell in convert_cells {
        let keys = cell.keys();
        let runs = encode_runs(keys.iter().map(|k| (&k[..], 1)), cell.meta());
        let paths = run_convert(&runs, keys.len(), cell.meta(), repeats);
        let ((arena, arena_rate), (arrival, arrival_rate)) = (
            fastest(&paths[0], |m| m.mkvs_per_s),
            fastest(&paths[1], |m| m.mkvs_per_s),
        );
        let vs_arena = arrival_rate.max / arena_rate.max;
        report.cell(row("convert", cell, "arena", &paths[0], Some(1.0)));
        report.cell(row("convert", cell, "arrival", &paths[1], Some(vs_arena)));
        // Arrival's peak is exact and may not be higher; its best rate
        // may not fall out of the noise band below arena's best. The rate
        // gate's spread is that of the per-repeat arrival/arena ratios.
        let paired: Vec<f64> = paths[1]
            .iter()
            .zip(&paths[0])
            .map(|(arrival, arena)| arrival.mkvs_per_s / arena.mkvs_per_s)
            .collect();
        report.gate(
            &format!("{} arrival/arena rate", cell.name()),
            vs_arena,
            ARRIVAL_NOISE_FLOOR,
            vs_arena >= ARRIVAL_NOISE_FLOOR,
            Some(Summary::of(&paired)),
        );
        report.gate(
            &format!("{} arrival peak bytes vs arena", cell.name()),
            arrival.peak_bytes as f64,
            arena.peak_bytes as f64,
            arrival.peak_bytes <= arena.peak_bytes,
            None,
        );
    }

    // The fold path (combiner / partial reduction) on the skewed streams,
    // then the `wc_zipf_opt` stream's ns a word against its floor.
    for vocab in [50_000, ZIPF_OPT_VOCAB] {
        let fold_cell = Workload::SkewedWords {
            corpus_bytes: (12 << 20) / scale,
            vocab,
        };
        let words = fold_cell.keys();
        let fold = run_fold(&words, fold_cell.meta(), repeats);
        report.cell(row("fold", fold_cell, "arena", &fold, None));
        if vocab == ZIPF_OPT_VOCAB {
            let ns = run_fold_ns(&words, fold_cell.meta(), repeats);
            report.cell(ns_row("fold", "zipf-20k-b32", &ns[0], Some(&ns[1])));
        }
    }

    // Where a KV's time goes at either end of the shuffle, in ns a KV:
    // the send side against its hand loop, and the on-arrival pass on the
    // streams of the benchmark's three grouping workloads.
    let emit = run_emit((16 << 20) / scale, repeats);
    report.cell(ns_row("emit", "wc-p2", &emit[0], Some(&emit[1])));
    for stream in [
        Arrival::Wc {
            text_bytes: (32 << 20) / scale,
        },
        Arrival::Bfs {
            scale: if args.quick { 14 } else { 18 },
        },
        Arrival::Oc {
            points: 2_000_000 / scale,
        },
    ] {
        let (pass, floor) = run_arrival(stream, repeats);
        report.cell(ns_row("arrival", stream.name(), &pass, floor.as_deref()));
    }
    report.finish(&args, "BENCH_convert.json");
}
