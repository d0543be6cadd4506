//! **Iterative-chaining bench** — per-iteration speedup of the cross-job
//! KV cache with shuffle elision over the cold path an uncached
//! iterative driver pays.
//!
//! The workload is a PageRank-shaped power iteration over a block-local
//! graph: every vertex scatters to `DEG` neighbors inside its own block
//! partition, so a block partitioner keeps every emitted key on its
//! emitting rank and the chained jobs elide their shuffles honestly
//! (the elided path's per-emit ownership check would fail otherwise).
//! Values are u64 and the combine is a wrapping add, so results are
//! bit-identical regardless of arrival order — the cached and cold
//! paths must agree byte-for-byte.
//!
//! Each repeat runs the same iterations twice in one world, the order of
//! the two runs alternating between repeats:
//!
//! * **cold** — each iteration round-trips the dataset through a spill
//!   file on the paced Lustre-mini I/O model (the serialize/reload an
//!   uncached driver pays between jobs), then feeds a full
//!   map → shuffle → partial-reduce.
//! * **cached** — the dataset lives in the cross-job cache
//!   (`output_cached` → `chain`), each iteration is one chained
//!   `partial_reduce` with the shuffle elided.
//!
//! Writes `BENCH_iter.json`; `--quick` shrinks the dataset for the CI
//! smoke gate. The acceptance bar: ≥1.5× per-iteration speedup from
//! iteration 2 onward, read as the median over repeats of the paired
//! cold/cached ratio of each iteration, byte-identical final outputs,
//! zero pool-budget violations, a fully-credited pool after
//! `cache_clear`, and an in-process `mimir-doctor` diagnosis that
//! reports the elisions and raises no Critical on one of the first
//! three repeats. A `REGRESSION` marker (nonzero exit) fires otherwise.

use std::time::Instant;

use mimir_apps::RunMetrics;
use mimir_bench::harness::{Args, Report, Summary};
use mimir_bench::trace::build_report;
use mimir_core::{typed, KvMeta, MimirConfig, MimirContext, Partitioner};
use mimir_doctor::Severity;
use mimir_io::{IoModel, IoModelConfig, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::{CommCounters, Counter, Json, RankReport};

const RANKS: usize = 4;
const BUDGET: usize = 64 << 20;
/// Neighbors each vertex scatters to (all inside its own block).
const DEG: u64 = 4;
/// Per-iteration bar, iteration 2 onward.
const SPEEDUP_BAR: f64 = 1.5;

#[derive(Clone, Copy)]
struct Shape {
    vertices_per_rank: u64,
    iters: usize,
    /// Runs of both paths, the order alternating. Even, so each path
    /// runs first equally often.
    repeats: usize,
}

/// Deterministic initial value for vertex `x`.
fn seed_value(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_A5A5
}

/// One vertex's scatter: `DEG` in-block neighbors plus itself, with an
/// order-independent (wrapping-add) combine downstream.
fn scatter(
    x: u64,
    v: u64,
    npr: u64,
    mut emit: impl FnMut(u64, u64) -> mimir_core::Result<()>,
) -> mimir_core::Result<()> {
    let block_start = (x / npr) * npr;
    emit(x, v.rotate_left(1))?;
    for j in 1..=DEG {
        let neighbor = block_start + ((x - block_start + j) % npr);
        emit(neighbor, v.rotate_left(j as u32) ^ j)?;
    }
    Ok(())
}

fn combine(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    let s = typed::dec_u64(a).wrapping_add(typed::dec_u64(b));
    out.extend_from_slice(&typed::enc_u64(s));
}

/// One run of both paths, folded over the ranks: per-iteration seconds
/// of the slowest rank, outputs byte-identical on every rank, the
/// largest pool peak and use after `cache_clear`, every rank's report.
struct Attempt {
    cold: Vec<f64>,
    cached: Vec<f64>,
    outputs_match: bool,
    peak: usize,
    used: usize,
    reports: Vec<RankReport>,
}

/// One [`Attempt`], the cold baseline first when `cold_first`.
fn run_shape(shape: Shape, cold_first: bool) -> Attempt {
    let epoch = Instant::now();
    let ranks = run_world(RANKS, move |comm| {
        let rank = comm.rank() as u64;
        let npr = shape.vertices_per_rank;
        let n = RANKS as u64 * npr;
        let pool = MemPool::new(format!("node{rank}"), 64 * 1024, BUDGET).unwrap();
        let io = IoModel::new(IoModelConfig::lustre_scaled()).unwrap();
        io.set_paced(true);
        let mut ctx =
            MimirContext::new(comm, pool.clone(), io.clone(), MimirConfig::default()).unwrap();
        let meta = KvMeta::fixed(8, 8);
        let part = Partitioner::u64_block(n);
        let mut metrics = RunMetrics::default();

        // ---- Cold baseline: spill round trip + real shuffle per
        // iteration. Timing only — the doctor diagnoses the cached run.
        let cold = |ctx: &mut MimirContext<'_>| {
            let store = SpillStore::new_temp("iter-cold", io.clone()).unwrap();
            let mut data: Vec<(u64, u64)> = (rank * npr..(rank + 1) * npr)
                .map(|x| (x, seed_value(x)))
                .collect();
            let mut cold_s = Vec::with_capacity(shape.iters);
            for it in 0..shape.iters {
                let t0 = Instant::now();
                // The uncached driver's round trip: serialize the previous
                // output to the PFS-paced spill store, read it back.
                let mut file = store.create(&format!("it{it}")).unwrap();
                let mut buf = Vec::with_capacity(data.len() * 16);
                for &(k, v) in &data {
                    buf.extend_from_slice(&typed::enc_u64(k));
                    buf.extend_from_slice(&typed::enc_u64(v));
                }
                file.write_chunk(&buf).unwrap();
                file.finish().unwrap();
                let mut reloaded = Vec::with_capacity(data.len());
                let mut reader = file.read_chunks().unwrap();
                while let Some(chunk) = reader.next_chunk().unwrap() {
                    for rec in chunk.chunks_exact(16) {
                        reloaded.push((typed::dec_u64(&rec[..8]), typed::dec_u64(&rec[8..])));
                    }
                }
                // Full map → shuffle → partial-reduce.
                let out = ctx
                    .job()
                    .kv_meta(meta)
                    .out_meta(meta)
                    .partitioner(part.clone())
                    .map(&mut |em| {
                        for &(x, v) in &reloaded {
                            scatter(x, v, npr, |k, val| {
                                em.emit(&typed::enc_u64(k), &typed::enc_u64(val))
                            })?;
                        }
                        Ok(())
                    })
                    .partial_reduce(Box::new(combine))
                    .unwrap();
                let mut next = Vec::with_capacity(data.len());
                out.output
                    .drain(|k, v| {
                        next.push((typed::dec_u64(k), typed::dec_u64(v)));
                        Ok(())
                    })
                    .unwrap();
                data = next;
                cold_s.push(t0.elapsed().as_secs_f64());
            }
            data.sort_unstable();
            (cold_s, data)
        };
        let cold_run = cold_first.then(|| cold(&mut ctx));

        // Align the ranks before the measured phase, then snapshot the
        // comm counters: thread-spawn and allocator-warmup skew would
        // otherwise show up as tens of milliseconds of one-sided wait.
        ctx.comm().barrier();
        let base = ctx.comm().stats();
        // The pool's peak and OOM count restart here too: the doctor's
        // memory rules judge this phase, not a cold phase run before it.
        let cold_peak = pool.peak();
        pool.reset_peak();
        let cold_ooms = pool.oom_events();
        // Record span + flow events for the cached phase so the doctor
        // measures the critical path from happens-before edges instead
        // of guessing a straggler from aggregate wait counters — the
        // guess misfires on OS scheduling noise in a threaded world.
        mimir_obs::install(mimir_obs::Recorder::with_epoch(
            rank as usize,
            16 * 1024,
            epoch,
        ));

        // ---- Cached path: the dataset lives in the cache; every
        // iteration is one chained, shuffle-elided job. The seed emits
        // round-robin (rank r emits keys ≡ r mod p), so its shuffle
        // spreads evenly over all destinations while every key still
        // lands on its block owner. The counters snapshot above and the
        // report below cover this phase alone, so the doctor never sees
        // the cold baseline's paced-I/O drift.
        let seed = ctx
            .job()
            .kv_meta(meta)
            .partitioner(part.clone())
            .output_cached("pr")
            .map(&mut |em| {
                let mut x = rank;
                while x < n {
                    em.emit(&typed::enc_u64(x), &typed::enc_u64(seed_value(x)))?;
                    x += RANKS as u64;
                }
                Ok(())
            })
            .collect()
            .unwrap();
        metrics.add_stage(&seed.stats);
        let mut cached_s = Vec::with_capacity(shape.iters);
        for _ in 0..shape.iters {
            let t0 = Instant::now();
            let out = ctx
                .job()
                .kv_meta(meta)
                .out_meta(meta)
                .partitioner(part.clone())
                .output_cached("pr")
                .chain("pr", &mut |k, v, em| {
                    scatter(typed::dec_u64(k), typed::dec_u64(v), npr, |key, val| {
                        em.emit(&typed::enc_u64(key), &typed::enc_u64(val))
                    })
                })
                .partial_reduce(Box::new(combine))
                .unwrap();
            metrics.add_stage(&out.stats);
            cached_s.push(t0.elapsed().as_secs_f64());
        }
        let cached_final = ctx
            .with_cached("pr", |kvc| {
                let mut kvs: Vec<(u64, u64)> = kvc
                    .iter()
                    .map(|(k, v)| (typed::dec_u64(k), typed::dec_u64(v)))
                    .collect();
                kvs.sort_unstable();
                Ok(kvs)
            })
            .unwrap();

        // Doctor input: this rank's report with the cache section live
        // (stats read before the clear, so cached_bytes is honest).
        let mut report = build_report(ctx.comm(), &pool, &metrics);
        // Rebase onto the pre-phase snapshot: the doctor must judge the
        // cached run alone, not world startup.
        let mut now = Vec::new();
        ctx.comm().stats().words(&mut now);
        let mut then = Vec::new();
        base.words(&mut then);
        let mut diff = now.iter().zip(&then).map(|(n, t)| n.saturating_sub(*t));
        report.comm = CommCounters::from_words(&mut diff).expect("same counter layout");
        report.mem.oom_events -= cold_ooms;
        report.cache = ctx.cache_stats();
        report.cache_names = ctx.cache_snapshots();
        ctx.cache_clear();
        let used_after_clear = pool.used();

        let (cold_s, cold_final) = cold_run.unwrap_or_else(|| cold(&mut ctx));
        let outputs_match = cached_final == cold_final;

        // `used` is the worse of post-clear and end-of-run: the cache
        // must credit everything back, and the cold phase must too.
        let used = used_after_clear.max(pool.used());
        let peak = cold_peak.max(pool.peak());

        let payload = report.to_json_string().into_bytes();
        let reports = ctx.comm().gather(0, payload).map(|gathered| {
            gathered
                .iter()
                .map(|b| RankReport::from_json_string(std::str::from_utf8(b).unwrap()).unwrap())
                .collect::<Vec<_>>()
        });
        (cold_s, cached_s, outputs_match, peak, used, reports)
    });
    let mut out = Attempt {
        cold: vec![0.0; shape.iters],
        cached: vec![0.0; shape.iters],
        outputs_match: true,
        peak: 0,
        used: 0,
        reports: Vec::new(),
    };
    for (cold_s, cached_s, outputs_match, peak, used, reports) in ranks {
        for (i, (cold, cached)) in cold_s.into_iter().zip(cached_s).enumerate() {
            out.cold[i] = out.cold[i].max(cold);
            out.cached[i] = out.cached[i].max(cached);
        }
        out.outputs_match &= outputs_match;
        out.peak = out.peak.max(peak);
        out.used = out.used.max(used);
        out.reports.extend(reports.into_iter().flatten());
    }
    out
}

fn main() {
    let args = Args::parse();
    let shape = if args.quick {
        Shape {
            vertices_per_rank: 32 * 1024,
            iters: 5,
            repeats: 8,
        }
    } else {
        Shape {
            vertices_per_rank: 64 * 1024,
            iters: 7,
            repeats: 6,
        }
    };
    println!(
        "iterative chaining: {} vertices/rank x {} iterations on {RANKS} ranks, degree {DEG}, \
         {} repeats",
        shape.vertices_per_rank, shape.iters, shape.repeats
    );

    let mut report = Report::new("iterative_chaining", &args);
    // A slow spell lifts both sides of a pair alike, and the alternating
    // order keeps either path from always running first. The gate reads
    // the median of the paired ratios from iteration 2 on (iteration 1
    // pays first touch): unlike a minimum, it survives one ruined pair.
    let mut steady = Vec::with_capacity(shape.repeats * shape.iters);
    let (mut outputs_match, mut peak, mut used) = (true, 0, 0);
    let criticals = |d: &mimir_doctor::Diagnosis| {
        d.findings
            .iter()
            .filter(|f| f.severity == Severity::Critical)
            .count()
    };
    let mut doctor: Option<(mimir_doctor::Diagnosis, Vec<RankReport>)> = None;
    for repeat in 0..shape.repeats {
        let cold_first = repeat % 2 == 1;
        let run = run_shape(shape, cold_first);
        let pairs = run.cold.iter().zip(&run.cached);
        let speedups: Vec<f64> = pairs.clone().map(|(c, k)| c / k.max(1e-9)).collect();
        let first = if cold_first { "cold" } else { "cached" };
        println!("repeat {} ({first} first): {speedups:.2?}", repeat + 1);
        steady.extend(&speedups[1..]);
        for (i, ((&cold, &cached), &s)) in pairs.zip(&speedups).enumerate() {
            report.cell(vec![
                ("repeat", Json::Num((repeat + 1) as f64)),
                ("cold_first", Json::Bool(cold_first)),
                ("iteration", Json::Num((i + 1) as f64)),
                ("cold_s", Json::Num(cold)),
                ("cached_s", Json::Num(cached)),
                ("speedup", Json::Num(s)),
            ]);
        }
        outputs_match &= run.outputs_match;
        peak = peak.max(run.peak);
        used = used.max(run.used);
        // A doctor Critical must reproduce to count: a 4-thread world on
        // a shared machine can have one rank descheduled for tens of
        // milliseconds, which the imbalance rules rightly flag, but a
        // structural straggler flags on every repeat. The gate fails when
        // each of the first three repeats raises one, and reads the first
        // clean repeat otherwise.
        if repeat < 3 && doctor.as_ref().is_none_or(|(d, _)| criticals(d) > 0) {
            let diagnosis = mimir_doctor::diagnose(&run.reports);
            let n = criticals(&diagnosis);
            println!("doctor, repeat {}: {n} critical", repeat + 1);
            doctor = Some((diagnosis, run.reports));
        }
    }
    let (diagnosis, reports) = doctor.expect("at least one repeat");
    let speedup = Summary::of(&steady);

    // In-process doctor gate over the diagnosed repeat's reports.
    let criticals = criticals(&diagnosis);
    let elisions: u64 = reports.iter().map(|r| r.cache.elisions).sum();
    let cache_reported = diagnosis
        .findings
        .iter()
        .any(|f| f.code == "cache-efficiency");
    println!(
        "doctor: {} finding(s), {criticals} critical, {elisions} elisions reported",
        diagnosis.findings.len()
    );
    print!("{}", diagnosis.to_text());

    report.field("ranks", Json::Num(RANKS as f64));
    report.field(
        "vertices_per_rank",
        Json::Num(shape.vertices_per_rank as f64),
    );
    report.field("iterations", Json::Num(shape.iters as f64));
    report.field("repeats", Json::Num(shape.repeats as f64));
    report.field("degree", Json::Num(DEG as f64));
    report.field("node_budget_bytes", Json::Num(BUDGET as f64));
    report.field("peak_bytes", Json::Num(peak as f64));
    report.field("used_after_clear", Json::Num(used as f64));
    report.gate(
        "per-iteration speedup, iteration 2 on (median of paired ratios)",
        speedup.median,
        SPEEDUP_BAR,
        speedup.median >= SPEEDUP_BAR,
        Some(speedup),
    );
    report.check("outputs match", outputs_match);
    report.check("budget kept and credited back", peak <= BUDGET && used == 0);
    report.gate(
        "doctor criticals",
        criticals as f64,
        0.0,
        criticals == 0,
        None,
    );
    report.check("doctor reports the cache", cache_reported);
    let expected_elisions = RANKS as u64 * shape.iters as u64;
    report.gate(
        "shuffles elided",
        elisions as f64,
        expected_elisions as f64,
        elisions == expected_elisions,
        None,
    );
    report.finish(&args, "BENCH_iter.json");
}
