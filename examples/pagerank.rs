//! PageRank over a Graph500 Kronecker graph — a fourth domain workload
//! beyond the paper's three benchmarks, showing four API features
//! together:
//!
//! * iterative jobs chained through the **cross-job KV cache**: the rank
//!   vector lives in the cache between iterations (`output_cached` /
//!   `chain`), never round-tripping through serialization or
//!   spill,
//! * a **keyed KMVC** as the graph: `group` groups each vertex's
//!   neighbours on arrival, and the scatter reads them with `get`,
//! * **shuffle elision**: the damping update preserves keys under the
//!   same partitioner, so its shuffle is elided outright — the map feeds
//!   grouping straight from the locally-resident partition, and
//! * a **custom partitioner** (paper Section III-A: "Users can provide
//!   alternative hash functions that suit their needs") — vertex ids are
//!   dense after scrambling, so a block partitioner gives each rank a
//!   contiguous range and keeps placement stable across the chain.
//!
//! Each iteration is two chained jobs: a *scatter* that re-keys rank
//! shares along edges (a real shuffle — `shuffle_elision(false)`), and a
//! key-preserving *update* whose shuffle is elided.
//!
//! Usage:
//! ```text
//! cargo run --release -p mimir --example pagerank -- \
//!     [--scale 12] [--ranks 4] [--iters 10]
//! ```

use mimir::prelude::*;
use mimir_core::{typed, Partitioner};

const DAMPING: f64 = 0.85;

fn main() {
    let mut scale = 12u32;
    let mut ranks = 4usize;
    let mut iters = 10usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = it.next().expect("value").parse().expect("number"),
            "--ranks" => ranks = it.next().expect("value").parse().expect("number"),
            "--iters" => iters = it.next().expect("value").parse().expect("number"),
            other => panic!("unknown argument {other}"),
        }
    }
    let graph = Graph500::new(scale, 7);
    let n = graph.n_vertices();
    println!(
        "PageRank: {} vertices, {} edges, {iters} iterations",
        n,
        graph.n_edges()
    );

    let nodes = NodeMap::new(ranks, ranks, 64 * 1024, 512 << 20).expect("node map");
    let nodes2 = nodes.clone();
    let t0 = std::time::Instant::now();
    let top = run_world(ranks, move |comm| {
        let p = comm.size();
        let rank = comm.rank();
        let edges = graph.edges(rank, p);
        let pool = nodes2.pool_for_rank(rank);
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");
        let meta = KvMeta::fixed(8, 8);
        let part = Partitioner::u64_block(n);
        let sum_f64 = |_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>| {
            let s = f64::from_le_bytes(a.try_into().unwrap())
                + f64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        };

        // Stage 1: partition the adjacency by vertex, grouped on arrival:
        // the keyed KMVC holds each vertex's neighbours as one chain.
        let (adj, _) = ctx
            .job()
            .kv_meta(meta)
            .partitioner(part.clone())
            .map(&mut |em| {
                for &(u, v) in &edges {
                    em.emit(&typed::enc_u64(u), &typed::enc_u64(v))?;
                    em.emit(&typed::enc_u64(v), &typed::enc_u64(u))?;
                }
                Ok(())
            })
            .group()
            .expect("partition stage");

        // Seed the cached rank vector: my contiguous vertex range
        // (courtesy of the block partitioner) at the uniform 1/n.
        let per = n.div_ceil(p as u64).max(1);
        let my_range = (rank as u64 * per).min(n)..(((rank as u64) + 1) * per).min(n);
        ctx.job()
            .kv_meta(meta)
            .partitioner(part.clone())
            .output_cached("pr")
            .map(&mut |em| {
                for v in my_range.clone() {
                    em.emit(&typed::enc_u64(v), &(1.0 / n as f64).to_le_bytes())?;
                }
                Ok(())
            })
            .collect()
            .expect("seed rank vector");

        // Power iterations: two chained jobs each. Scatter re-keys
        // (vertex → neighbor), so it runs a real shuffle; the damping
        // update preserves keys, so its shuffle is elided.
        for _ in 0..iters {
            ctx.job()
                .kv_meta(meta)
                .out_meta(meta)
                .partitioner(part.clone())
                .output_cached("pr.sums")
                .chain("pr", &mut |k, v, em| {
                    // Self-contribution of zero keeps every vertex in
                    // the sums, edges or not (and stays rank-local).
                    em.emit(k, &0.0f64.to_le_bytes())?;
                    if let Some(neighbors) = adj.get(k)? {
                        let r = f64::from_le_bytes(v.try_into().unwrap());
                        let share = r / neighbors.len() as f64;
                        for dst in neighbors {
                            em.emit(dst, &share.to_le_bytes())?;
                        }
                    }
                    Ok(())
                })
                .shuffle_elision(false)
                .partial_reduce(Box::new(sum_f64))
                .expect("scatter stage");

            ctx.job()
                .kv_meta(meta)
                .partitioner(part.clone())
                .output_cached("pr")
                .chain("pr.sums", &mut |k, v, em| {
                    let inc = f64::from_le_bytes(v.try_into().unwrap());
                    let r = (1.0 - DAMPING) / n as f64 + DAMPING * inc;
                    em.emit(k, &r.to_le_bytes())
                })
                .collect()
                .expect("damping update (elided)");
        }

        // Each rank reports its top vertex straight from the cached
        // partition, then releases the chain's memory.
        let best = ctx
            .with_cached("pr", |kvc| {
                let mut best = (0u64, f64::MIN);
                for (k, v) in kvc.iter() {
                    let r = f64::from_le_bytes(v.try_into().unwrap());
                    if r > best.1 {
                        best = (typed::dec_u64(k), r);
                    }
                }
                Ok(best)
            })
            .expect("read cached rank vector");
        let elisions = ctx.cache_stats().elisions;
        ctx.cache_clear();
        (best.0, best.1, elisions)
    });

    let mut tops = top;
    tops.sort_by(|a, b| b.1.total_cmp(&a.1));
    let elided: u64 = tops.iter().map(|&(_, _, e)| e).sum();
    println!(
        "top-ranked vertices after {:?} ({elided} shuffles elided):",
        t0.elapsed()
    );
    for (v, r, _) in tops.iter().take(5) {
        println!("  vertex {v:<10} rank {r:.6}");
    }
    println!("peak node memory: {} KiB", nodes.max_node_peak() / 1024);
}
