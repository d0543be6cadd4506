//! The same 4-rank WordCount on either transport backend — ranks as
//! threads over the in-process channel matrix, or as real forked
//! processes exchanging frames over Unix-domain sockets — selected by
//! `MIMIR_TRANSPORT` with zero changes to the program itself.
//!
//! ```text
//! cargo run --release -p mimir --example transport_wordcount
//! MIMIR_TRANSPORT=uds cargo run --release -p mimir --example transport_wordcount
//! ```
//!
//! Both invocations must print the identical per-rank output digests:
//! the partitioner sees the same world either way, so every word lands
//! on the same rank with the same count.

use mimir::prelude::*;
use mimir_mpi::{run_world_on, TransportKind};
use mimir_obs::CommCounters;

const RANKS: usize = 4;

fn main() {
    let kind = TransportKind::from_env();
    let corpus = UniformWords::new(7);

    // (rank digest of sorted word:count records, comm stats).
    let per_rank: Vec<(u64, CommCounters)> = run_world_on(kind, RANKS, move |comm| {
        let rank = comm.rank();
        let text = corpus.generate(rank, RANKS, 128 * 1024);
        // Each rank owns its pool: under UDS ranks are separate
        // processes, so there is no shared NodeMap to allocate from.
        let pool = MemPool::new(format!("node{rank}"), 64 * 1024, 32 << 20).expect("pool");
        let mut counts = {
            let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
                .expect("ctx");
            let (counts, _metrics) =
                mimir::apps::wordcount::wordcount_mimir(&mut ctx, &text, &Default::default())
                    .expect("wordcount");
            counts
        };
        counts.sort();
        // Order-independent digest of this rank's reduced output.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (word, n) in &counts {
            for &b in word.iter().chain(&n.to_le_bytes()) {
                digest = (digest ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        (digest, comm.stats())
    });

    println!("transport: {}", kind.name());
    let mut total = CommCounters::default();
    for (rank, (digest, stats)) in per_rank.iter().enumerate() {
        println!("rank {rank}: digest {digest:016x}");
        total.merge(stats);
    }
    println!(
        "comm: {} msgs, {} B payload; wire: {} frames, {} B, handshake {:.2} ms",
        total.sends,
        total.bytes_sent,
        total.wire_frames_sent,
        total.wire_bytes_sent,
        per_rank
            .iter()
            .map(|(_, s)| s.handshake_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
}
