//! Communicator isolation: two WordCounts running *concurrently* on two
//! [`Comm::dup`]s of the same world, one thread each per rank, must
//! deliver exactly what each delivers running *alone*. If the duplicated
//! message namespaces leaked into each other (a misrouted send, a
//! cross-matched collective), the interleaved shuffles would corrupt
//! both outputs.
//!
//! The transport comes from `MIMIR_TRANSPORT`: `uds` re-proves the
//! property with ranks as forked processes whose duplicates multiplex
//! the same Unix-domain sockets.

use mimir::apps::wordcount::{wordcount_mimir, WcOptions};
use mimir::prelude::*;

const RANKS: usize = 4;
const BUDGET: usize = 32 << 20;
const BYTES_PER_RANK: usize = 24 * 1024;

/// One job's result on one rank: its encoded output and its exchange
/// round count.
type JobResult = (Vec<u8>, u64);

/// Serializes a rank's WordCount output deterministically: sorted
/// `word \0 count` records.
fn encode_counts(mut counts: Vec<(Vec<u8>, u64)>) -> Vec<u8> {
    counts.sort();
    let mut out = Vec::new();
    for (word, n) in counts {
        out.extend_from_slice(&word);
        out.push(0);
        out.extend_from_slice(&n.to_le_bytes());
    }
    out
}

/// WordCount over `seed`'s uniform text on `comm`, drawing on `pool`.
fn wordcount(comm: &mut Comm, pool: MemPool, cfg: MimirConfig, seed: u64) -> JobResult {
    let mut ctx = MimirContext::new(comm, pool, IoModel::free(), cfg).unwrap();
    let text = UniformWords::new(seed).generate(ctx.rank(), ctx.size(), BYTES_PER_RANK);
    let (counts, metrics) = wordcount_mimir(&mut ctx, &text, &WcOptions::default()).unwrap();
    (encode_counts(counts), metrics.exchange_rounds)
}

fn node_pool(rank: usize) -> MemPool {
    MemPool::new(format!("node{rank}"), 64 * 1024, BUDGET).unwrap()
}

/// Each rank's result of WordCount over `seed` alone in a world.
fn solo(cfg: MimirConfig, seed: u64) -> Vec<JobResult> {
    run_world_on(TransportKind::from_env(), RANKS, move |comm| {
        wordcount(comm, node_pool(comm.rank()), cfg, seed)
    })
}

/// Each rank's results of WordCounts over seeds 1 and 2, run at once on
/// two duplicates of the world communicator, each on its own thread and
/// both drawing on the rank's one node pool.
fn concurrent(cfg: MimirConfig) -> Vec<(JobResult, JobResult)> {
    run_world_on(TransportKind::from_env(), RANKS, move |comm| {
        let pool = node_pool(comm.rank());
        let (mut comm_a, mut comm_b) = (comm.dup(), comm.dup());
        let (pool_a, pool_b) = (pool.clone(), pool.clone());
        std::thread::scope(|s| {
            let a = s.spawn(move || wordcount(&mut comm_a, pool_a, cfg, 1));
            let b = s.spawn(move || wordcount(&mut comm_b, pool_b, cfg, 2));
            (a.join().unwrap(), b.join().unwrap())
        })
    })
}

/// With the same world size, each rank's output must be *byte
/// identical* to its solo run — the hash partitioning sees the same
/// communicator size, so every word lands on the same rank. Returns the
/// fewest exchange rounds any concurrent job took on any rank.
fn check_byte_identical(cfg: MimirConfig) -> u64 {
    let (solo_a, solo_b) = (solo(cfg, 1), solo(cfg, 2));
    let mut min_rounds = u64::MAX;
    for (rank, (a, b)) in concurrent(cfg).into_iter().enumerate() {
        assert_eq!(a.0, solo_a[rank].0, "rank {rank} job A output diverged");
        assert_eq!(b.0, solo_b[rank].0, "rank {rank} job B output diverged");
        min_rounds = min_rounds.min(a.1).min(b.1);
    }
    min_rounds
}

#[test]
fn dup_jobs_match_solo_at_the_default_buffer() {
    check_byte_identical(MimirConfig::default());
}

/// The same property with 512 B exchange partitions: each job runs many
/// exchange rounds, so the two jobs' collectives interleave far more
/// often.
#[test]
fn dup_jobs_match_solo_over_many_interleaved_rounds() {
    let rounds = check_byte_identical(MimirConfig {
        comm_buf_size: 2 * 1024,
        ..MimirConfig::default()
    });
    assert!(rounds >= 8, "only {rounds} rounds: too few to interleave");
}
