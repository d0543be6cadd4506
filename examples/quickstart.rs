//! Quickstart: WordCount on Mimir in ~50 lines.
//!
//! Run with: `cargo run --release -p mimir --example quickstart`

use mimir::prelude::*;

fn main() {
    const RANKS: usize = 4;

    // One simulated compute node: 4 ranks sharing 16 MiB, 64 KiB pages.
    let nodes = NodeMap::new(RANKS, RANKS, 64 * 1024, 16 << 20).expect("node map");

    // Every rank generates its share of a small uniform corpus.
    let corpus = UniformWords::new(1);

    let per_rank = run_world(RANKS, |comm| {
        let rank = comm.rank();
        let text = corpus.generate(rank, RANKS, 256 * 1024);
        let pool = nodes.pool_for_rank(rank);
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");

        // WordCount with the paper's hint (C-string key, u64 value) and
        // partial reduction.
        let meta = KvMeta::cstr_key_u64_val();
        let out = ctx
            .job()
            .kv_meta(meta)
            .out_meta(meta)
            .map(&mut |em| {
                for word in mimir::io::words(&text) {
                    em.emit(word, &1u64.to_le_bytes())?;
                }
                Ok(())
            })
            .partial_reduce(Box::new(|_k, a, b, out| {
                let sum = u64::from_le_bytes(a.try_into().unwrap())
                    + u64::from_le_bytes(b.try_into().unwrap());
                out.extend_from_slice(&sum.to_le_bytes());
            }))
            .expect("wordcount job");

        // Collect this rank's reduced counts.
        let mut counts: Vec<(String, u64)> = Vec::new();
        out.output
            .drain(|k, v| {
                counts.push((
                    String::from_utf8_lossy(k).into_owned(),
                    u64::from_le_bytes(v.try_into().unwrap()),
                ));
                Ok(())
            })
            .expect("drain output");
        (counts, out.stats)
    });

    let mut all: Vec<(String, u64)> = per_rank.iter().flat_map(|(c, _)| c.clone()).collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("distinct words: {}", all.len());
    println!("top 10:");
    for (word, count) in all.iter().take(10) {
        println!("  {word:<12} {count}");
    }
    println!("peak node memory: {} KiB", nodes.max_node_peak() / 1024);
    println!("exchange rounds (rank 0): {}", per_rank[0].1.shuffle.rounds);
}
