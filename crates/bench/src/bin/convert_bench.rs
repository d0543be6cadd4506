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
//! * `arrival` — what `map_reduce` jobs run: [`GroupedKvs`] groups each
//!   run while it is cache-resident, so no KVC ever exists.
//!
//! Cells cover the shapes that stress different parts of the engine:
//! Zipf-skewed wordcount (the paper's WC workload — probe-hit dominated),
//! uniform unique-heavy fixed keys (insert dominated), duplicate-heavy
//! fixed keys (pure probe hits), and the combiner fold path — the last
//! on two Zipf streams, the 50 Ki vocabulary of the convert cell and the
//! 20 000-word one the whole-job benchmark's `wc_zipf_opt` folds.
//!
//! Writes `BENCH_convert.json`; `--quick` runs shrunken cells as a CI
//! smoke test. A `REGRESSION` marker (nonzero exit) fires if `arrival`
//! loses to `arena` in any convert cell: a higher peak (exact), or
//! throughput below the noise band ([`ARRIVAL_NOISE_FLOOR`]). The fold
//! rows report rate and spread only.

use std::time::Instant;

use mimir_bench::HarnessArgs;
use mimir_core::{
    convert_with, encode_push, CombineFn, CombinerTable, Emitter, GroupedKvs, KvContainer, KvMeta,
    KvSink, StreamingCombiner,
};
use mimir_datagen::{rank_rng, WikipediaWords};
use mimir_mem::MemPool;
use mimir_obs::{GroupCounters, Json};

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

struct Measure {
    mkvs_per_s: f64,
    /// Pool high-water mark of the timed region (0 for the fold cells,
    /// which share one pool across repeats).
    peak_bytes: usize,
    stats: GroupCounters,
    kvs: usize,
    /// The rate of every repeat so far, this one included.
    rates: Vec<f64>,
}

impl Measure {
    /// Keeps the faster of `best` and `m` (best-of-repeats), and every
    /// repeat's rate with it.
    fn keep_best(best: &mut Option<Measure>, mut m: Measure) {
        let mut rates = best
            .as_mut()
            .map_or(Vec::new(), |b| std::mem::take(&mut b.rates));
        rates.push(m.mkvs_per_s);
        match best {
            Some(b) if b.mkvs_per_s >= m.mkvs_per_s => b.rates = rates,
            _ => {
                m.rates = rates;
                *best = Some(m);
            }
        }
    }

    /// The slowest repeat's rate.
    fn slowest(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// One exchange round's receive from one source at the default 64 KiB
/// comm buffer on two ranks.
const RUN_BYTES: usize = 32 << 10;

/// Encodes the KV stream (value 1 per key) into whole-KV runs of at most
/// [`RUN_BYTES`], as the shuffle hands them to its sink.
fn encode_runs(keys: &[Vec<u8>], meta: KvMeta) -> Vec<Vec<u8>> {
    let mut runs = vec![Vec::with_capacity(RUN_BYTES)];
    for k in keys {
        let kv_len = mimir_core::encoded_len(meta, k, &1u64.to_le_bytes());
        if runs.last().expect("never empty").len() + kv_len > RUN_BYTES {
            runs.push(Vec::with_capacity(RUN_BYTES));
        }
        encode_push(
            meta,
            k,
            &1u64.to_le_bytes(),
            runs.last_mut().expect("never empty"),
        );
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

/// Best-of-repeats throughput of the `arena` and `arrival` paths (see
/// the module docs) over the same runs, interleaved within every repeat
/// so a slow spell of the machine lifts both alike.
fn run_convert(runs: &[Vec<u8>], kvs: usize, meta: KvMeta, repeats: usize) -> [Measure; 2] {
    let mut best: [Option<Measure>; 2] = [None, None];
    for _ in 0..repeats {
        for (slot, arrival) in best.iter_mut().zip([false, true]) {
            let pool = MemPool::unlimited("bench", PAGE);
            let t0 = Instant::now();
            let (kmvc, stats) = if arrival {
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
            Measure::keep_best(
                slot,
                Measure {
                    mkvs_per_s: kvs as f64 / 1e6 / elapsed,
                    peak_bytes: pool.peak(),
                    stats,
                    kvs,
                    rates: Vec::new(),
                },
            );
        }
    }
    best.map(|m| m.expect("repeats >= 1"))
}

/// Best-of-repeats streaming-combiner throughput: the real bounded
/// pipeline — KVs fold into the table, the table flushes into a
/// partitioning sink whenever it exceeds `compress_flush_bytes`-style
/// budget. The sink partitions the way the shuffler does, reusing the
/// stored hash ([`mimir_core::partition_of_hashed`] via `emit_hashed`).
fn run_fold(keys: &[Vec<u8>], meta: KvMeta, repeats: usize) -> Measure {
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
    // The table counts exactly what its accumulators hold — a span and a
    // `u64`, 16 B a key — so this is a flush every 16 Ki unique keys: both
    // streams go through several fill cycles.
    const FLUSH_BYTES: usize = 256 << 10;
    let pool = MemPool::unlimited("bench", PAGE);
    let mut best = None;
    for _ in 0..repeats {
        let sum: CombineFn = Box::new(|_k, a, b, out| {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                + u64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        });
        let table = CombinerTable::new(&pool, meta, sum).unwrap();
        let mut sink = PartitionSink(0);
        let mut sc = StreamingCombiner::new(table, &mut sink, FLUSH_BYTES);
        let t0 = Instant::now();
        for k in keys {
            sc.emit(k, &1u64.to_le_bytes()).unwrap();
        }
        let (_flushes, stats) = sc.finish().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink.0);
        Measure::keep_best(
            &mut best,
            Measure {
                mkvs_per_s: keys.len() as f64 / 1e6 / elapsed,
                peak_bytes: 0,
                stats,
                kvs: keys.len(),
                rates: Vec::new(),
            },
        );
    }
    best.expect("repeats >= 1")
}

fn main() {
    let args = HarnessArgs::parse();
    let scale = if args.quick { 20 } else { 1 };
    let repeats = if args.quick { 5 } else { 7 };
    let convert_cells = [
        Workload::SkewedWords {
            corpus_bytes: 12 << 20,
            vocab: 50_000,
        },
        Workload::UniformUnique { kvs: 1_000_000 },
        Workload::DupHeavy {
            kvs: 1_000_000,
            vocab: 512,
        },
    ];

    println!(
        "{:<10}{:>16}{:>10}{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "phase",
        "cell",
        "mode",
        "MKV/s",
        "vs_arena",
        "spread",
        "peak_MB",
        "groups",
        "rehashes",
        "avg_probe"
    );

    let mut rows = Vec::new();
    let mut regression = false;
    // One row per measured path. Only the convert rows carry `vs_arena`
    // and a peak: the fold rows share one pool across repeats.
    let mut report =
        |phase: &str, cell: Workload, mode: &str, m: &Measure, vs_arena: Option<f64>| {
            let spread = 1.0 - m.slowest() / m.mkvs_per_s;
            println!(
                "{:<10}{:>16}{:>10}{:>12.2}{:>10}{:>10.3}{:>10.1}{:>10}{:>10}{:>12.3}",
                phase,
                cell.name(),
                mode,
                m.mkvs_per_s,
                vs_arena.map_or("-".into(), |r| format!("{r:.2}x")),
                spread,
                m.peak_bytes as f64 / 1e6,
                m.stats.groups,
                m.stats.rehashes,
                m.stats.avg_probe(),
            );
            let mut row = vec![
                ("phase", Json::Str(phase.into())),
                ("cell", Json::Str(cell.name().into())),
                ("mode", Json::Str(mode.into())),
                ("kvs", Json::Num(m.kvs as f64)),
                ("mkvs_per_s", Json::Num(m.mkvs_per_s)),
                ("repeats", Json::Num(m.rates.len() as f64)),
                ("mkvs_per_s_slowest", Json::Num(m.slowest())),
                // How far below the best the slowest repeat fell.
                ("spread", Json::Num(spread)),
            ];
            if let Some(r) = vs_arena {
                row.push(("speedup_vs_arena", Json::Num(r)));
                row.push(("peak_bytes", Json::Num(m.peak_bytes as f64)));
            }
            row.extend([
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
            rows.push(Json::obj(row));
        };

    for cell in convert_cells {
        let scaled = match cell {
            Workload::SkewedWords {
                corpus_bytes,
                vocab,
            } => Workload::SkewedWords {
                corpus_bytes: corpus_bytes / scale,
                vocab,
            },
            Workload::UniformUnique { kvs } => Workload::UniformUnique { kvs: kvs / scale },
            Workload::DupHeavy { kvs, vocab } => Workload::DupHeavy {
                kvs: kvs / scale,
                vocab,
            },
        };
        let keys = scaled.keys();
        let runs = encode_runs(&keys, scaled.meta());
        let [arena, arrival] = run_convert(&runs, keys.len(), scaled.meta(), repeats);
        // Arrival's peak is exact and may not be higher; its speed may not
        // fall out of the noise band below arena's.
        let vs_arena = arrival.mkvs_per_s / arena.mkvs_per_s;
        if vs_arena < ARRIVAL_NOISE_FLOOR || arrival.peak_bytes > arena.peak_bytes {
            regression = true;
        }
        report("convert", scaled, "arena", &arena, Some(1.0));
        report("convert", scaled, "arrival", &arrival, Some(vs_arena));
    }

    // The fold path (combiner / partial reduction) on the skewed streams.
    for vocab in [50_000, ZIPF_OPT_VOCAB] {
        let fold_cell = Workload::SkewedWords {
            corpus_bytes: (12 << 20) / scale,
            vocab,
        };
        let keys = fold_cell.keys();
        let fold = run_fold(&keys, fold_cell.meta(), repeats);
        report("fold", fold_cell, "arena", &fold, None);
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("convert_grouping".into())),
        ("quick", Json::Bool(args.quick)),
        ("regression", Json::Bool(regression)),
        ("cells", Json::Arr(rows)),
    ]);
    let path = args.json.unwrap_or_else(|| "BENCH_convert.json".into());
    std::fs::write(&path, doc.to_pretty()).expect("writing bench JSON");
    println!("wrote {path}");
    if regression {
        println!("REGRESSION: arrival lost to arena (speed or peak)");
        std::process::exit(1);
    }
}
