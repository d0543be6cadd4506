//! Communicator-isolation property: two jobs running *concurrently* on
//! their own duplicated communicators must deliver exactly what each
//! would deliver running *alone*. If the duplicated channel matrices
//! leaked into each other (a misrouted send, a cross-matched
//! collective), the interleaved shuffles would corrupt both outputs.
//!
//! The whole suite is parameterized over the transport backend:
//! `MIMIR_TRANSPORT=uds` re-proves every property with ranks as forked
//! processes exchanging frames over Unix-domain sockets, with zero
//! changes above the `Comm` API.

use mimir_apps::wordcount::{wordcount_mimir, WcOptions};
use mimir_core::{MimirConfig, MimirContext};
use mimir_datagen::UniformWords;
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::{run_world_on, TransportKind};
use mimir_sched::{JobOutcome, JobService, JobSpec, JobYield, SchedConfig};

const RANKS: usize = 4;
const BUDGET: usize = 32 << 20;
const BYTES_PER_RANK: usize = 24 * 1024;

fn make_pool(rank: usize) -> MemPool {
    MemPool::new(format!("node{rank}"), 64 * 1024, BUDGET).unwrap()
}

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

fn wc_body(seed: u64, ctx: &mut MimirContext<'_>) -> mimir_core::Result<JobYield> {
    let text = UniformWords::new(seed).generate(ctx.rank(), ctx.size(), BYTES_PER_RANK);
    let (counts, _metrics) = wordcount_mimir(ctx, &text, &WcOptions::default())?;
    let kvs = counts.len() as u64;
    Ok(JobYield {
        data: encode_counts(counts),
        kvs_out: kvs,
        spill_bytes: 0,
    })
}

/// Runs WordCount for `seed` alone in a world and returns each rank's
/// encoded output.
fn solo_outputs(cfg: MimirConfig, seed: u64) -> Vec<Vec<u8>> {
    run_world_on(TransportKind::from_env(), RANKS, move |comm| {
        let pool = make_pool(comm.rank());
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), cfg).unwrap();
        wc_body(seed, &mut ctx).unwrap().data
    })
}

/// Runs both WordCounts concurrently under the job service and returns
/// each rank's encoded outputs `(job_a, job_b)`.
fn concurrent_outputs(cfg: MimirConfig) -> Vec<(Vec<u8>, Vec<u8>)> {
    run_world_on(TransportKind::from_env(), RANKS, move |comm| {
        let pool = make_pool(comm.rank());
        let mut svc = JobService::new(comm, pool, IoModel::free(), SchedConfig::default());
        let a = svc.submit(JobSpec::new("wc-a", 1 << 20, move |ctx| wc_body(1, ctx)).config(cfg));
        let b = svc.submit(JobSpec::new("wc-b", 1 << 20, move |ctx| wc_body(2, ctx)).config(cfg));
        svc.run_until_idle();
        assert_eq!(svc.outcome(a), Some(JobOutcome::Done));
        assert_eq!(svc.outcome(b), Some(JobOutcome::Done));
        (
            svc.take_output(a).unwrap().data,
            svc.take_output(b).unwrap().data,
        )
    })
}

/// With the same world size, each rank's output must be *byte
/// identical* to its solo run — the hash partitioning sees the same
/// communicator size, so every word lands on the same rank.
fn check_byte_identical(cfg: MimirConfig) {
    let solo_a = solo_outputs(cfg, 1);
    let solo_b = solo_outputs(cfg, 2);
    let both = concurrent_outputs(cfg);
    for (rank, (conc_a, conc_b)) in both.into_iter().enumerate() {
        assert_eq!(conc_a, solo_a[rank], "rank {rank} job A output diverged");
        assert_eq!(conc_b, solo_b[rank], "rank {rank} job B output diverged");
    }
}

#[test]
fn concurrent_outputs_are_byte_identical_to_solo_per_rank() {
    check_byte_identical(MimirConfig::default());
}

/// The same property with 2 KiB exchange partitions: each job runs many
/// more exchange rounds, so the two jobs' collectives interleave far more
/// often.
#[test]
fn concurrent_jobs_match_solo_zerocopy_arena() {
    check_byte_identical(MimirConfig {
        comm_buf_size: 8 * 1024,
        ..MimirConfig::default()
    });
}
