//! Fault injection + recovery: an iterative job is killed mid-run, the
//! world is restarted against the same checkpoint directory, and the
//! final result must match a fault-free execution while provably
//! skipping the already-checkpointed iterations.

use std::collections::HashMap;

use mimir::prelude::*;
use mimir_core::{run_iterative_with_recovery, typed, CheckpointStore};

const RANKS: usize = 4;
const TOTAL_ITERS: u32 = 12;
const CKPT_INTERVAL: u32 = 3;

/// One incarnation of the iterative job. `fault_at` kills rank 1 at the
/// given iteration (before it completes). Returns per-rank (final-state,
/// iterations-executed) on success.
#[allow(clippy::type_complexity)]
fn incarnation(
    ckpt_dir: std::path::PathBuf,
    fault_at: Option<u32>,
) -> std::thread::Result<Vec<(HashMap<u64, u64>, u32)>> {
    std::panic::catch_unwind(move || {
        run_world(RANKS, move |comm| {
            let rank = comm.rank();
            let pool = MemPool::unlimited("node", 64 * 1024);
            let io = IoModel::free();
            let ckpt = CheckpointStore::open(&ckpt_dir, rank, io.clone()).unwrap();
            let mut ctx = MimirContext::new(comm, pool, io, MimirConfig::default()).unwrap();

            let (state, executed) = run_iterative_with_recovery(
                &mut ctx,
                &ckpt,
                CKPT_INTERVAL,
                HashMap::<u64, u64>::new,
                |s| {
                    // Encode as flat (k, v) pairs, sorted for determinism.
                    let mut pairs: Vec<_> = s.iter().map(|(&k, &v)| (k, v)).collect();
                    pairs.sort_unstable();
                    let mut out = Vec::with_capacity(pairs.len() * 16);
                    for (k, v) in pairs {
                        out.extend_from_slice(&typed::enc_u64_pair(k, v));
                    }
                    out
                },
                |bytes| bytes.chunks_exact(16).map(typed::dec_u64_pair).collect(),
                move |ctx, state, iteration| {
                    if fault_at == Some(iteration) && ctx.rank() == 1 {
                        panic!("injected fault at iteration {iteration}");
                    }
                    // One MapReduce round per iteration: every rank emits
                    // (iteration-dependent key, 1); owners fold into state.
                    let res = ctx
                        .job()
                        .kv_meta(KvMeta::fixed(8, 8))
                        .out_meta(KvMeta::fixed(8, 8))
                        .map(&mut |em| {
                            for i in 0..50u64 {
                                let key = u64::from(iteration) * 7 + i % 13;
                                em.emit(&typed::enc_u64(key), &typed::enc_u64(1))?;
                            }
                            Ok(())
                        })
                        .partial_reduce(Box::new(|_k, a, b, o| {
                            o.extend_from_slice(&typed::enc_u64(
                                typed::dec_u64(a) + typed::dec_u64(b),
                            ));
                        }))
                        .unwrap();
                    res.output.drain(|k, v| {
                        *state.entry(typed::dec_u64(k)).or_insert(0) += typed::dec_u64(v);
                        Ok(())
                    })?;
                    Ok(iteration + 1 >= TOTAL_ITERS)
                },
            )
            .unwrap();
            (state, executed)
        })
    })
}

fn merged(results: &[(HashMap<u64, u64>, u32)]) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    for (local, _) in results {
        for (&k, &v) in local {
            assert!(out.insert(k, v).is_none(), "key owned by two ranks");
        }
    }
    out
}

#[test]
fn crash_recovery_resumes_from_checkpoint_and_matches_fault_free() {
    let base = std::env::temp_dir().join(format!("mimir-ft-{}", std::process::id()));

    // Reference: fault-free run in its own checkpoint dir.
    let clean = incarnation(base.join("clean"), None).expect("clean run");
    let reference = merged(&clean);
    assert_eq!(clean[0].1, TOTAL_ITERS, "clean run executes everything");

    // Faulty run: rank 1 dies at iteration 7 (checkpoints exist for
    // iterations 2 and 5).
    let dir = base.join("faulty");
    let crash = incarnation(dir.clone(), Some(7));
    assert!(crash.is_err(), "the injected fault must abort the world");

    // Restart against the same checkpoint directory.
    let recovered = incarnation(dir, None).expect("recovery run");
    let result = merged(&recovered);
    assert_eq!(result, reference, "recovered result matches fault-free");

    // Recovery resumed after iteration 5: it executed 12 - 6 = 6
    // iterations instead of 12.
    let executed = recovered[0].1;
    assert_eq!(
        executed,
        TOTAL_ITERS - 6,
        "recovery must skip checkpointed work"
    );

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn recovery_with_no_checkpoints_starts_fresh() {
    let base = std::env::temp_dir().join(format!("mimir-ft-fresh-{}", std::process::id()));
    let run = incarnation(base.join("fresh"), None).expect("run");
    assert_eq!(run[0].1, TOTAL_ITERS);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn ranks_with_mismatched_checkpoints_roll_back_together() {
    // Rank 0 has a newer checkpoint than the others: the world must
    // restart from the *oldest* (coordinated rollback).
    let base = std::env::temp_dir().join(format!("mimir-ft-skew-{}", std::process::id()));
    let dir = base.join("skew");
    std::fs::create_dir_all(&dir).unwrap();

    // Seed a skewed checkpoint landscape by hand: all ranks have iter 2,
    // rank 0 additionally has iter 5.
    let io = IoModel::free();
    let empty_state: Vec<u8> = Vec::new();
    for rank in 0..RANKS {
        let store = CheckpointStore::open(&dir, rank, io.clone()).unwrap();
        store.save(2, &empty_state).unwrap();
        if rank == 0 {
            store.save(5, &empty_state).unwrap();
        }
    }

    let recovered = incarnation(dir, None).expect("recovery run");
    // Restart point is after iteration 2 → 12 - 3 = 9 iterations run.
    assert_eq!(recovered[0].1, TOTAL_ITERS - 3);
    std::fs::remove_dir_all(&base).ok();
}
