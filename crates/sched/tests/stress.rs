//! Scheduler stress: 16 mixed-priority jobs plus a cached-chain tenant
//! pair on 4 ranks under a tight memory budget, wrapped in a watchdog.
//! The service must retire every job deterministically, never violate
//! the node budget (the pool's hard cap plus the admission reservations
//! plus the cross-job cache's retained pages), and end with the pool
//! fully credited.

use std::time::{Duration, Instant};

use mimir_apps::wordcount::{wordcount_mimir, WcOptions};
use mimir_core::{lock_cache, typed, KvMeta};
use mimir_datagen::UniformWords;
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::{run_world_on, Comm, TransportKind};
use mimir_obs::{CacheCounters, CacheNameRecord, RankReport, Recorder};
use mimir_sched::{JobOutcome, JobService, JobSpec, JobYield, SchedConfig};

const RANKS: usize = 4;
/// Tight: a handful of concurrent WordCounts saturate it, forcing the
/// admission queue to actually queue.
const BUDGET: usize = 6 << 20;
const JOBS: usize = 16;
const WATCHDOG: Duration = Duration::from_secs(120);
/// KVs each rank's chain producer emits (16 B apiece): the cached
/// dataset holds ~512 KiB per rank against the budget while the
/// WordCount tenants churn through admission.
const CHAIN_KVS_PER_RANK: u64 = 32 * 1024;
/// The cached dataset's name, shared by the producer/consumer pair.
const CHAIN_NAME: &str = "chain.data";

fn word_total(data: &[u8]) -> u64 {
    // Each encoded record is `word \0 count(8B le)`; sum the counts.
    let mut total = 0;
    let mut i = 0;
    while i < data.len() {
        let nul = i + data[i..].iter().position(|&b| b == 0).unwrap();
        total += u64::from_le_bytes(data[nul + 1..nul + 9].try_into().unwrap());
        i = nul + 9;
    }
    total
}

/// When `MIMIR_TRACE` is set, assembles this rank's report (comm, pool,
/// job records, trace events), gathers every report onto rank 0, and
/// writes `<MIMIR_TRACE_DIR|traces>/sched_stress.jsonl` plus the chrome
/// trace — the input `mimir-doctor` consumes in CI.
fn export_trace(
    comm: &mut Comm,
    pool: &MemPool,
    records: Vec<mimir_obs::JobRecord>,
    cache: (CacheCounters, Vec<CacheNameRecord>),
) {
    let mut r = RankReport::new(comm.rank());
    r.ranks = comm.size() as u64;
    let cs = comm.stats();
    r.comm = cs.counters();
    r.waits = cs.wait_counters();
    r.mem = pool.stats().counters();
    r.jobs = records;
    (r.cache, r.cache_names) = cache;
    if let Some(rec) = mimir_obs::take() {
        r.events = rec.events();
        r.events_dropped = rec.dropped();
    }
    let payload = r.to_json_string().into_bytes();
    if let Some(gathered) = comm.gather(0, payload) {
        let reports: Vec<RankReport> = gathered
            .iter()
            .map(|b| RankReport::from_json_string(std::str::from_utf8(b).unwrap()).unwrap())
            .collect();
        let dir = std::path::PathBuf::from(
            std::env::var("MIMIR_TRACE_DIR").unwrap_or_else(|_| "traces".into()),
        );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("sched_stress.jsonl"),
            mimir_obs::jsonl_string(&reports),
        )
        .unwrap();
        std::fs::write(
            dir.join("sched_stress.trace.json"),
            mimir_obs::chrome_trace(&reports).to_string(),
        )
        .unwrap();
        eprintln!(
            "trace: wrote {}/sched_stress.{{jsonl,trace.json}}",
            dir.display()
        );
    }
}

type RankResult = (
    Vec<Option<JobOutcome>>,
    u64,
    usize,
    usize,
    (Option<JobOutcome>, Option<JobOutcome>),
    u64,
);

fn stress_world() -> Vec<RankResult> {
    let epoch = Instant::now();
    run_world_on(TransportKind::from_env(), RANKS, move |comm| {
        if mimir_obs::env_enabled() {
            mimir_obs::install(Recorder::with_epoch(
                comm.rank(),
                mimir_obs::env_capacity(),
                epoch,
            ));
        }
        let pool = MemPool::new(format!("node{}", comm.rank()), 64 * 1024, BUDGET).unwrap();
        let cfg = SchedConfig {
            queue_cap: 8,
            max_running: 3,
            max_retries: 3,
        };
        let mut svc = JobService::new(comm, pool.clone(), IoModel::free(), cfg);

        let ids: Vec<u64> = (0..JOBS as u64)
            .map(|j| {
                let bytes_per_rank = 4 * 1024 + (j as usize % 4) * 4 * 1024;
                let spec = JobSpec::new(format!("wc{j}"), 256 * 1024, move |ctx| {
                    let text =
                        UniformWords::new(j + 1).generate(ctx.rank(), ctx.size(), bytes_per_rank);
                    let (mut counts, _m) = wordcount_mimir(ctx, &text, &WcOptions::default())?;
                    counts.sort();
                    let mut data = Vec::new();
                    for (word, n) in &counts {
                        data.extend_from_slice(word);
                        data.push(0);
                        data.extend_from_slice(&n.to_le_bytes());
                    }
                    let kvs = counts.len() as u64;
                    Ok(JobYield {
                        data,
                        kvs_out: kvs,
                        spill_bytes: 0,
                    })
                })
                .priority(j % 3); // mixed priorities
                svc.submit(spec)
            })
            .collect();

        // Cached-chain tenant pair: the producer stashes a partitioned
        // dataset in the service's cross-job cache (its pages stay
        // charged against the shared budget, visible to admission); the
        // consumer waits for the name to appear, chains over it with the
        // shuffle elided, and releases it so the pool credits to zero.
        let producer = JobSpec::new("chain.produce", 256 * 1024, move |ctx| {
            let rank = ctx.rank() as u64;
            let out = ctx
                .job()
                .kv_meta(KvMeta::fixed(8, 8))
                .output_cached(CHAIN_NAME)
                .map_shuffle(&mut |em| {
                    for i in 0..CHAIN_KVS_PER_RANK {
                        em.emit(
                            &typed::enc_u64(rank * CHAIN_KVS_PER_RANK + i),
                            &typed::enc_u64(1),
                        )?;
                    }
                    Ok(())
                })?;
            Ok(JobYield {
                data: Vec::new(),
                kvs_out: out.stats.kvs_out,
                spill_bytes: 0,
            })
        })
        .priority(10);
        let consumer = JobSpec::new("chain.consume", 256 * 1024, move |ctx| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !ctx.cache_contains(CHAIN_NAME) {
                if Instant::now() > deadline {
                    return Err(mimir_core::MimirError::Cache(
                        "chain.consume: the producer never cached its output".into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut sum = 0u64;
            ctx.job()
                .kv_meta(KvMeta::fixed(8, 8))
                .input_cached(CHAIN_NAME)
                .chain_shuffle(&mut |k, v, em| {
                    sum += typed::dec_u64(v);
                    em.emit(k, v)
                })?;
            ctx.cache_remove(CHAIN_NAME);
            Ok(JobYield {
                data: Vec::new(),
                kvs_out: sum,
                spill_bytes: 0,
            })
        })
        .priority(9);
        let pid = svc.submit(producer);
        let cid = svc.submit(consumer);

        svc.run_until_idle();

        let outcomes: Vec<_> = ids.iter().map(|&id| svc.outcome(id)).collect();
        let chain_outcomes = (svc.outcome(pid), svc.outcome(cid));
        let chain_kvs = svc.take_output(cid).map(|y| y.kvs_out).unwrap_or(0);
        // Deterministic content check: the total word count across all
        // ranks of every job equals the generated word count.
        let mut words_counted = 0;
        for &id in &ids {
            if let Some(y) = svc.take_output(id) {
                words_counted += word_total(&y.data);
            }
        }
        let records = svc.job_records();
        let (peak, used) = (svc.pool().peak(), svc.pool().used());
        let cache = {
            let shared = svc.cache();
            let guard = lock_cache(&shared);
            (guard.stats(), guard.entry_snapshots())
        };
        drop(svc);
        if mimir_obs::env_enabled() {
            export_trace(comm, &pool, records, cache);
        }
        (
            outcomes,
            words_counted,
            peak,
            used,
            chain_outcomes,
            chain_kvs,
        )
    })
}

#[test]
fn sixteen_mixed_priority_jobs_on_a_tight_budget() {
    // Watchdog: the whole SPMD run must finish well inside the bound —
    // a deadlocked vote or a lost wakeup would otherwise hang CI.
    let start = Instant::now();
    let runner = std::thread::spawn(stress_world);
    while !runner.is_finished() {
        assert!(
            start.elapsed() < WATCHDOG,
            "watchdog: scheduler stress did not finish within {WATCHDOG:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let outs = runner.join().unwrap();

    let mut per_rank_words = Vec::new();
    let mut chain_total = 0u64;
    for (outcomes, words, peak, used, chain_outcomes, chain_kvs) in outs {
        assert_eq!(outcomes.len(), JOBS);
        for (j, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                *outcome,
                Some(JobOutcome::Done),
                "job {j} should finish despite the tight budget"
            );
        }
        assert_eq!(
            chain_outcomes,
            (Some(JobOutcome::Done), Some(JobOutcome::Done)),
            "the cached-chain tenants should finish"
        );
        assert!(
            peak <= BUDGET,
            "budget violation: peak {peak} B over the {BUDGET} B node budget"
        );
        assert_eq!(
            used, 0,
            "all reservations, pages, and cached datasets credited back"
        );
        per_rank_words.push(words);
        chain_total += chain_kvs;
    }
    // Each rank's consumer summed its own cached partition; the global
    // sum must equal every KV the producers emitted, exactly once.
    assert_eq!(
        chain_total,
        RANKS as u64 * CHAIN_KVS_PER_RANK,
        "the chained consumer lost or duplicated cached KVs"
    );
    // Every rank holds a deterministic slice of each job's output, and
    // the world-wide totals must match the generated corpora exactly:
    // the sum over ranks is the same regardless of scheduling order.
    let total: u64 = per_rank_words.iter().sum();
    assert!(total > 0, "the jobs counted nothing");
    let rerun_total: u64 = {
        let outs = {
            let runner = std::thread::spawn(stress_world);
            runner.join().unwrap()
        };
        outs.iter().map(|(_, words, _, _, _, _)| words).sum()
    };
    assert_eq!(
        total, rerun_total,
        "scheduling nondeterminism changed job outputs"
    );
}
