//! Checkpoint/restart demo: an iterative MapReduce job that survives a
//! crash. The first incarnation is killed partway through by an injected
//! fault; the second resumes from the newest coordinated checkpoint and
//! finishes, producing the same result a fault-free run would.
//!
//! This demonstrates the `core::recovery` extension (the fault tolerance
//! the paper cites from its companion FT-MRMPI work).
//!
//! Run with: `cargo run --release -p mimir --example checkpointed_iteration`

use std::collections::HashMap;

use mimir::prelude::*;
use mimir_core::{run_iterative_with_recovery, typed, CheckpointStore};

const RANKS: usize = 4;
const ITERS: u32 = 10;
const CKPT_EVERY: u32 = 2;

fn run_once(ckpt_dir: std::path::PathBuf, fault_at: Option<u32>) -> std::thread::Result<u64> {
    std::panic::catch_unwind(move || {
        let totals = run_world(RANKS, move |comm| {
            let rank = comm.rank();
            let pool = MemPool::unlimited("node", 64 * 1024);
            let io = IoModel::free();
            let ckpt = CheckpointStore::open(&ckpt_dir, rank, io.clone()).expect("ckpt store");
            let mut ctx =
                MimirContext::new(comm, pool, io, MimirConfig::default()).expect("context");

            let (state, executed) = run_iterative_with_recovery(
                &mut ctx,
                &ckpt,
                CKPT_EVERY,
                HashMap::<u64, u64>::new,
                |s| {
                    let mut pairs: Vec<_> = s.iter().map(|(&k, &v)| (k, v)).collect();
                    pairs.sort_unstable();
                    pairs
                        .into_iter()
                        .flat_map(|(k, v)| typed::enc_u64_pair(k, v))
                        .collect()
                },
                |b| b.chunks_exact(16).map(typed::dec_u64_pair).collect(),
                move |ctx, state, iter| {
                    if fault_at == Some(iter) && ctx.rank() == 2 {
                        println!("  !! injected fault on rank 2 at iteration {iter}");
                        panic!("injected fault");
                    }
                    let res = ctx
                        .job()
                        .kv_meta(KvMeta::fixed(8, 8))
                        .out_meta(KvMeta::fixed(8, 8))
                        .map(&mut |em| {
                            for i in 0..1000u64 {
                                em.emit(
                                    &typed::enc_u64(i % 97),
                                    &typed::enc_u64(u64::from(iter) + 1),
                                )?;
                            }
                            Ok(())
                        })
                        .partial_reduce(Box::new(|_k, a, b, o| {
                            o.extend_from_slice(&typed::enc_u64(
                                typed::dec_u64(a) + typed::dec_u64(b),
                            ));
                        }))
                        .expect("iteration job");
                    res.output.drain(|k, v| {
                        *state.entry(typed::dec_u64(k)).or_insert(0) += typed::dec_u64(v);
                        Ok(())
                    })?;
                    Ok(iter + 1 >= ITERS)
                },
            )
            .expect("recovery driver");
            if rank == 0 {
                println!("  rank 0 executed {executed} iterations this incarnation");
            }
            state.values().sum::<u64>()
        });
        totals.iter().sum()
    })
}

fn main() {
    let dir = std::env::temp_dir().join(format!("mimir-ckpt-demo-{}", std::process::id()));

    println!("incarnation 1: fault injected at iteration 7 (checkpoints every {CKPT_EVERY})");
    let crashed = run_once(dir.clone(), Some(7));
    assert!(crashed.is_err(), "the fault should abort the world");
    println!("  world aborted, checkpoints survive on the PFS\n");

    println!("incarnation 2: restart against the same checkpoint directory");
    let total = run_once(dir.clone(), None).expect("recovery succeeds");

    // Reference: what a never-crashed run computes.
    let fresh_dir =
        std::env::temp_dir().join(format!("mimir-ckpt-demo-ref-{}", std::process::id()));
    let reference = run_once(fresh_dir.clone(), None).expect("reference run");

    println!("\nrecovered total  = {total}");
    println!("reference total  = {reference}");
    assert_eq!(total, reference, "recovery must be exact");
    println!("recovery is bit-exact ✓");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}
