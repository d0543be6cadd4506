//! Multi-stage pipeline — the paper's third input source: "KVs from
//! previous MapReduce operations for multistage jobs or iterative
//! MapReduce jobs, and sources other than MapReduce jobs (e.g., in situ
//! analytics workflows)".
//!
//! A simulation loop produces per-step particle energies *in situ* (no
//! file round trip). Stage 1 bins them into a histogram per step; stage 2
//! consumes stage 1's output KVs directly to find, per energy bin, the
//! step where the bin peaked — without the data ever touching storage.
//!
//! Run with: `cargo run --release -p mimir --example in_situ_pipeline`

use mimir::prelude::*;
use mimir_core::typed;

const RANKS: usize = 4;
const STEPS: u64 = 8;
const PARTICLES_PER_RANK: usize = 50_000;

fn sum_u64(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
}

fn main() {
    let nodes = NodeMap::new(RANKS, RANKS, 64 * 1024, 64 << 20).expect("node map");
    let nodes2 = nodes.clone();

    let per_rank = run_world(RANKS, move |comm| {
        let rank = comm.rank();
        let pool = nodes2.pool_for_rank(rank);
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");
        let meta = KvMeta::fixed(16, 8); // key: (step, bin) — val: u64

        // --- Stage 1: in-situ histogram of simulated energies. --------
        // Key = (step, energy bin); value = particle count. The "source
        // other than a MapReduce job" is the simulation loop itself.
        let stage1 = ctx
            .job()
            .kv_meta(meta)
            .out_meta(meta)
            .map(&mut |em| {
                let mut state = 0x9E37_79B9u64.wrapping_mul(rank as u64 + 1);
                for step in 0..STEPS {
                    for _ in 0..PARTICLES_PER_RANK {
                        // A cheap LCG stands in for the physics.
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        // Energies drift upward with the step so the
                        // per-bin peak step is non-trivial.
                        let energy = (state >> 33) % (40 + step * 3);
                        let bin = energy / 10;
                        em.emit(&typed::enc_u64_pair(step, bin), &typed::enc_u64(1))?;
                    }
                }
                Ok(())
            })
            .partial_reduce(Box::new(sum_u64))
            .expect("stage 1");

        // --- Stage 2: input = stage 1's output KVs, no storage hop. ----
        // Re-key from (step, bin) to bin; value = (count, step) packed;
        // reduce keeps the step with the maximal count.
        let out_meta = KvMeta::fixed(8, 16);
        let mut stage1_kvs = stage1.output;
        let stage2 = ctx
            .job()
            .kv_meta(out_meta)
            .out_meta(out_meta)
            .map(&mut |em| {
                // `drain` frees stage 1's container pages as the next
                // stage consumes them.
                stage1_kvs.drain_all(|k, v| {
                    let (step, bin) = typed::dec_u64_pair(k);
                    let count = typed::dec_u64(v);
                    em.emit(&typed::enc_u64(bin), &typed::enc_u64_pair(count, step))
                })
            })
            .reduce(&mut |k, vals, em| {
                let best = vals
                    .map(typed::dec_u64_pair)
                    .max()
                    .expect("non-empty group");
                em.emit(k, &typed::enc_u64_pair(best.0, best.1))
            })
            .expect("stage 2");

        let mut results: Vec<(u64, u64, u64)> = Vec::new();
        stage2
            .output
            .drain(|k, v| {
                let bin = typed::dec_u64(k);
                let (count, step) = typed::dec_u64_pair(v);
                results.push((bin, step, count));
                Ok(())
            })
            .expect("drain stage 2");
        results
    });

    let mut rows: Vec<(u64, u64, u64)> = per_rank.into_iter().flatten().collect();
    rows.sort();
    println!("energy-bin peaks across {STEPS} simulation steps:");
    println!("  bin   peak step   particles");
    for (bin, step, count) in rows {
        println!("  {bin:<6}{step:<12}{count}");
    }
    println!("peak node memory: {} KiB", nodes.max_node_peak() / 1024);
}
