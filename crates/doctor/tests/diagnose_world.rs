//! Acceptance: the doctor flags a genuinely skewed run with the right
//! phase and hotspot, and stays silent on the uniform control — the
//! same job, same data, different partitioner.

use std::time::{Duration, Instant};

use mimir_core::{JobStats, MimirConfig, MimirContext, Partitioner};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::{jsonl_string, RankReport, Recorder};

const RANKS: usize = 4;
const KEYS_PER_RANK: usize = 400;

/// Runs a map-shuffle over synthetic keys and assembles the per-rank
/// reports the way `mimir-bench`'s trace session does.
fn run_shuffle(partitioner: Partitioner) -> Vec<RankReport> {
    run_world(RANKS, move |comm| {
        let rank = comm.rank();
        let pool = MemPool::unlimited(format!("n{rank}"), 64 * 1024);
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");
        let out = ctx
            .job()
            .partitioner(partitioner.clone())
            .map(&mut |em| {
                for i in 0..KEYS_PER_RANK {
                    let key = format!("key-{:05}", i * RANKS + rank);
                    em.emit(key.as_bytes(), b"1")?;
                }
                Ok(())
            })
            .collect()
            .expect("collect");
        report(&mut ctx, &out.stats)
    })
}

/// One rank's report from its (merged) job stats, the communicator's
/// counters and the pool's, built the way `mimir-bench`'s trace session
/// builds it.
fn report(ctx: &mut MimirContext, s: &JobStats) -> RankReport {
    let mut r = RankReport::new(ctx.comm().rank());
    r.comm = ctx.comm().stats();
    r.mem = ctx.pool().stats().counters();
    s.fill_report(&mut r);
    r
}

/// Deterministic per-key work, identical on every rank. Without it the
/// map is pure emit and each exchange round is so short that the vote
/// collective's fixed message order (a few µs of delivery skew) shows up
/// as a genuine — but uninteresting — path asymmetry.
fn churn(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..200 {
        x = x.wrapping_mul(0x0100_0000_01b3).rotate_left(13) ^ 0x9e37_79b9_7f4a_7c15;
    }
    x
}

/// Runs a flow-traced map-shuffle with shared-epoch recorders (the only
/// way cross-rank timestamps are comparable) and an optional injected
/// delay, and round-trips the gathered reports through the `.jsonl`
/// export so the critical path runs on exactly what `mimir-doctor`
/// would read from disk.
fn run_traced_shuffle(
    ranks: usize,
    keys_per_rank: usize,
    throttle: bool,
    delay: Option<(usize, Duration)>,
) -> Vec<RankReport> {
    let epoch = Instant::now();
    let reports = run_world(ranks, move |comm| {
        let rank = comm.rank();
        mimir_obs::install(Recorder::with_epoch(rank, 256 * 1024, epoch));
        let pool = MemPool::unlimited(format!("n{rank}"), 64 * 1024);
        let config = MimirConfig {
            comm_buf_size: 1024,
            ..MimirConfig::default()
        };
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), config).expect("context");
        let out = ctx
            .job()
            .map(&mut |em| {
                for i in 0..keys_per_rank {
                    if let Some((victim, dur)) = delay {
                        if rank == victim && i == keys_per_rank / 2 {
                            std::thread::sleep(dur);
                        }
                    }
                    // Sleeps overlap across ranks even when the rank
                    // threads time-slice one CPU, so a throttled map
                    // progresses in wall-clock lockstep — the only way a
                    // "symmetric" load is actually symmetric regardless
                    // of core count.
                    if throttle && i % 8 == 0 {
                        std::thread::sleep(Duration::from_micros(40));
                    }
                    let key = format!("key-{:05}", i * ranks + rank);
                    em.emit(key.as_bytes(), &churn(i as u64).to_le_bytes())?;
                }
                Ok(())
            })
            .collect()
            .expect("collect");
        let rec = mimir_obs::take().expect("recorder installed");
        let mut r = report(&mut ctx, &out.stats);
        r.events = rec.events();
        r.events_dropped = rec.dropped();
        r
    });
    // Through the on-disk format and back: event lines must reattach.
    mimir_doctor::ingest_jsonl(&jsonl_string(&reports)).expect("re-ingest")
}

#[test]
fn critical_path_attributes_an_injected_delay_to_its_rank() {
    const VICTIM: usize = 2;
    const DELAY: Duration = Duration::from_millis(120);
    let reports = run_traced_shuffle(RANKS, 400, false, Some((VICTIM, DELAY)));
    let path =
        mimir_doctor::critical_path(&reports).expect("flow-traced run must yield a measured path");
    assert_eq!(
        path.dominant_rank,
        VICTIM as u64,
        "the path must run through the delayed rank: {}",
        path.to_text()
    );
    assert_eq!(
        path.dominant_phase,
        "map",
        "the sleep was injected mid-map: {}",
        path.to_text()
    );
    let victim_ns = path
        .rank_path_ns
        .iter()
        .find(|&&(r, _)| r == VICTIM as u64)
        .map(|&(_, ns)| ns)
        .unwrap();
    assert!(
        victim_ns as f64 >= 0.9 * DELAY.as_nanos() as f64,
        "only {victim_ns} ns of the {} ns injected delay landed on \
         rank {VICTIM}'s path share:\n{}",
        DELAY.as_nanos(),
        path.to_text()
    );

    // The diagnosis reports it as a measured finding.
    let d = mimir_doctor::diagnose(&reports);
    let f = d
        .findings
        .iter()
        .find(|f| f.code == "critical-path")
        .unwrap_or_else(|| panic!("no critical-path finding in:\n{}", d.to_text()));
    assert_eq!(f.ranks, vec![VICTIM as u64]);
    assert_eq!(
        f.severity,
        mimir_doctor::Severity::Critical,
        "120 ms of a short run is critical: {}",
        f.title
    );
}

#[test]
fn symmetric_run_spreads_the_critical_path() {
    // Throttled so the load is symmetric in wall time even on a single
    // CPU (see `run_traced_shuffle`), and long enough that per-round
    // gating rotates with scheduler noise instead of being decided by a
    // handful of rounds.
    const P: usize = RANKS;
    let reports = run_traced_shuffle(P, 12_000, true, None);
    let path = mimir_doctor::critical_path(&reports).expect("measured path");
    let total: u64 = path.rank_path_ns.iter().map(|&(_, ns)| ns).sum();
    let cap = 1000 / P as u64 + mimir_doctor::rules::PATH_SHARE_SLACK_PERMILLE;
    for &(rank, ns) in &path.rank_path_ns {
        let share = (ns * 1000).checked_div(total).unwrap_or(0);
        assert!(
            share <= cap,
            "rank {rank} holds {share}‰ of a symmetric run's path \
             (cap {cap}‰):\n{}",
            path.to_text()
        );
    }
    let d = mimir_doctor::diagnose(&reports);
    let f = d
        .findings
        .iter()
        .find(|f| f.code == "critical-path")
        .expect("path finding present");
    assert_eq!(
        f.severity,
        mimir_doctor::Severity::Info,
        "a balanced path is informational: {}",
        f.title
    );
}

#[test]
fn skewed_run_yields_a_skew_finding_naming_the_shuffle_phase() {
    let reports = run_shuffle(Partitioner::custom("to-zero", |_key, _n| 0));
    let d = mimir_doctor::diagnose(&reports);
    let skew = d
        .findings
        .iter()
        .find(|f| f.code == "partition-skew")
        .unwrap_or_else(|| panic!("no skew finding in:\n{}", d.to_text()));
    assert_eq!(skew.phase, "map/aggregate (shuffle)");
    assert_eq!(skew.ranks, vec![0], "rank 0 is the hotspot");
    assert_eq!(
        skew.severity,
        mimir_doctor::Severity::Critical,
        "a point mass is 4x the fair share"
    );
    assert!(skew.hint.contains("III-C2"), "paper-grounded hint");
}

#[test]
fn uniform_run_yields_no_skew_finding() {
    let reports = run_shuffle(Partitioner::hash());
    let d = mimir_doctor::diagnose(&reports);
    assert!(
        d.findings.iter().all(|f| f.code != "partition-skew"),
        "hash partitioning flagged as skew:\n{}",
        d.to_text()
    );
}

/// A balanced multi-MB job, then a near-empty one on 16 ranks (an octree's
/// or BFS's late level), merged per rank as the apps merge jobs. The late
/// job's hottest destination is many times its fair share but less than
/// one partition buffer over it, so the run draws no critical skew.
#[test]
fn a_near_empty_job_after_a_balanced_one_draws_no_critical_skew() {
    const WIDE: usize = 16;
    let reports = run_world(WIDE, |comm| {
        let rank = comm.rank();
        let pool = MemPool::unlimited(format!("n{rank}"), 64 * 1024);
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");
        let mut stats = JobStats::default();
        for kvs in [16_384, 3] {
            let out = ctx
                .job()
                .map(&mut |em| {
                    (0..kvs).try_for_each(|i| em.emit(format!("k{rank}-{i}").as_bytes(), &[1; 8]))
                })
                .collect()
                .expect("collect");
            stats.merge(&out.stats);
        }
        assert!(stats.shuffle.kv_bytes_emitted > 256 * 1024);
        report(&mut ctx, &stats)
    });
    let d = mimir_doctor::diagnose(&reports);
    assert!(
        d.findings
            .iter()
            .all(|f| f.code != "partition-skew" || f.severity != mimir_doctor::Severity::Critical),
        "a near-empty job read as a hotspot:\n{}",
        d.to_text()
    );
}
