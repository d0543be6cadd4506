//! Diagnose a skewed run with `mimir-doctor`.
//!
//! Runs the same WordCount shuffle twice — once over a heavy power-law
//! (Zipf) corpus and once over a uniform one — assembles the per-rank
//! reports the way a trace session does, and feeds both to the doctor.
//! The skewed run draws a partition-skew finding naming the shuffle
//! phase and the hotspot rank; the uniform control comes back healthy.
//! The example exits nonzero when either half of that does not hold.
//! The skewed run is additionally flow-traced (shared-epoch recorders,
//! flow ids on every message), so the doctor measures its critical path
//! from happens-before edges, and the per-segment breakdown is printed. The control stays untraced: its story is the byte-counter
//! contrast, and on a time-sliced machine a measured path would honestly
//! (but distractingly) name whichever rank the scheduler starved.
//!
//! No combiner on purpose: partial reduction would collapse the hot key
//! to one KV per rank and hide exactly the shuffle-volume imbalance the
//! paper's Figure 10 is about.
//!
//! Run with: `cargo run --release -p mimir --example diagnose`

use std::time::Instant;

use mimir::prelude::*;
use mimir_obs::{RankReport, Recorder};

const RANKS: usize = 4;
const CORPUS_BYTES: usize = 256 * 1024;

/// Maps a corpus, shuffles raw `(word, 1)` pairs, and returns per-rank
/// reports carrying every layer's counters plus the flow event timeline
/// the critical-path engine consumes.
fn run_wordcount(corpus: impl Fn(usize) -> Vec<u8> + Send + Sync, traced: bool) -> Vec<RankReport> {
    // One epoch for the whole world: cross-rank timestamps (and thus
    // flow edges) are only comparable against a shared clock.
    let epoch = Instant::now();
    run_world(RANKS, move |comm| {
        let rank = comm.rank();
        if traced {
            mimir_obs::install(Recorder::with_epoch(rank, 64 * 1024, epoch));
        }
        let text = corpus(rank);
        let pool = MemPool::unlimited(format!("n{rank}"), 64 * 1024);
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
            .expect("context");
        let meta = KvMeta::cstr_key_u64_val();
        let out = ctx
            .job()
            .kv_meta(meta)
            .map(&mut |em| {
                for word in mimir::io::words(&text) {
                    em.emit(word, &1u64.to_le_bytes())?;
                }
                Ok(())
            })
            .collect()
            .expect("wordcount shuffle");

        let mut r = RankReport::new(rank);
        r.comm = ctx.comm().stats();
        r.mem = ctx.pool().stats().counters();
        out.stats.fill_report(&mut r);
        if let Some(rec) = mimir_obs::take() {
            r.events = rec.events();
            r.events_dropped = rec.dropped();
        }
        r
    })
}

fn main() {
    // Zipf(2.0): the top word alone carries ~60% of all occurrences, so
    // whichever rank its hash lands on receives several times its fair
    // share of shuffle bytes.
    let zipf = WikipediaWords {
        vocab: 50_000,
        zipf_s: 2.0,
        seed: 42,
    };
    println!("=== skewed corpus (Zipf s=2.0) ===");
    let reports = run_wordcount(|rank| zipf.generate(rank, RANKS, CORPUS_BYTES), true);
    let received: Vec<u64> = reports.iter().map(|r| r.shuffle.bytes_received).collect();
    println!("bytes received per rank: {received:?}");
    let skewed = mimir_doctor::diagnose(&reports);
    println!("{}", skewed.to_text());
    if let Some(path) = mimir_doctor::critical_path(&reports) {
        println!("{}", path.to_text());
    }

    println!("\n=== uniform control ===");
    let uniform = UniformWords::new(42);
    let reports = run_wordcount(|rank| uniform.generate(rank, RANKS, CORPUS_BYTES), false);
    let received: Vec<u64> = reports.iter().map(|r| r.shuffle.bytes_received).collect();
    println!("bytes received per rank: {received:?}");
    let control = mimir_doctor::diagnose(&reports);
    println!("{}", control.to_text());

    let skew = |d: &mimir_doctor::Diagnosis| d.findings.iter().any(|f| f.code == "partition-skew");
    assert!(
        skew(&skewed) && !skew(&control),
        "expected a partition-skew finding on the Zipf run and none on the control"
    );
}
