//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Communication-buffer size** — smaller buffers mean more exchange
//!    rounds (interleaving memory-bound vs round overhead).
//! 2. **Mimir page size** — container granularity vs allocation churn.
//! 3. **Copy path and grouping** — Mimir's direct-into-send-buffer
//!    emission with grouping on arrival into per-key chunk chains, and
//!    with the partial-reduction fold, vs MR-MPI's staged copies (map
//!    page → temps → send buffer) and sort-based grouping, measured on
//!    the same in-memory workload.
//!
//! Plain harness (`cargo bench` passes its own flags, so this bench
//! takes none): the cases of each ablation run as interleaved repeats
//! after one warm-up round, and each reports its best and median ms.

use std::hint::black_box;
use std::time::Instant;

use mimir_apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir_bench::harness::{interleaved, Summary};
use mimir_core::{MimirConfig, MimirContext};
use mimir_datagen::UniformWords;
use mimir_io::{IoModel, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mrmpi::MrMpiConfig;

const RANKS: usize = 4;
const TEXT_BYTES: usize = 512 << 10;
const REPEATS: usize = 3;

/// Times the cases of one ablation: `run(i)` runs case `i`.
fn ablation<R>(name: &str, cases: &[&str], mut run: impl FnMut(usize) -> R) {
    for i in 0..cases.len() {
        black_box(run(i));
    }
    let ms = interleaved(REPEATS, cases.len(), |i| {
        let t0 = Instant::now();
        black_box(run(i));
        t0.elapsed().as_secs_f64() * 1e3
    });
    for (case, ms) in cases.iter().zip(ms) {
        let s = Summary::of(&ms);
        let label = format!("{name}/{case}");
        println!(
            "{label:<52}{:>10.3} ms best{:>10.3} ms median",
            s.min, s.median
        );
    }
}

fn text(rank: usize) -> Vec<u8> {
    UniformWords {
        vocab: 4096,
        word_len: 8,
        seed: 99,
    }
    .generate(rank, RANKS, TEXT_BYTES)
}

fn run_mimir_wc(comm_buf: usize, page: usize, opts: WcOptions) -> u64 {
    let out = run_world(RANKS, move |comm| {
        let t = text(comm.rank());
        let pool = MemPool::unlimited("ablate", page);
        let mut ctx = MimirContext::new(
            comm,
            pool,
            IoModel::free(),
            MimirConfig {
                comm_buf_size: comm_buf,
                ..MimirConfig::default()
            },
        )
        .unwrap();
        let (counts, m) = wordcount_mimir(&mut ctx, &t, &opts).unwrap();
        (counts.len() as u64, m.exchange_rounds)
    });
    out.iter().map(|(n, _)| n).sum()
}

fn run_mrmpi_wc() -> u64 {
    let out = run_world(RANKS, move |comm| {
        let t = text(comm.rank());
        let pool = MemPool::unlimited("ablate", 64 << 10);
        let store = SpillStore::new_temp("ablate", IoModel::free()).unwrap();
        let (counts, m) = wordcount_mrmpi(
            comm,
            pool,
            store,
            MrMpiConfig::with_page_size(1 << 20),
            &t,
            false,
        )
        .unwrap();
        assert!(!m.spilled);
        counts.len() as u64
    });
    out.iter().sum::<u64>()
}

fn ablate_comm_buffer() {
    let bufs = [8 << 10, 64 << 10, 256 << 10];
    ablation("comm_buffer", &["8K", "64K", "256K"], |i| {
        run_mimir_wc(bufs[i], 64 << 10, WcOptions::default())
    });
}

fn ablate_page_size() {
    let pages = [16 << 10, 64 << 10, 256 << 10];
    ablation("page_size", &["16K", "64K", "256K"], |i| {
        run_mimir_wc(64 << 10, pages[i], WcOptions::default())
    });
}

fn ablate_copy_path_and_grouping() {
    // Mimir emits straight into the partitioned send buffer and groups on
    // arrival into chunk chains (the baseline reduce path), or folds with
    // partial reduction (no KVC/KMVC materialization). MR-MPI stages
    // copies — map page → temp scan → send buffer → double receive buffer
    // → output page, kept in memory by a generous page size — and groups
    // by sorting.
    let pr = WcOptions {
        partial_reduce: true,
        ..WcOptions::default()
    };
    ablation(
        "copy_path_and_grouping",
        &[
            "mimir_direct_emit_on_arrival",
            "mimir_partial_reduce_fold",
            "mrmpi_staged_sort_merge",
        ],
        |i| match i {
            0 => run_mimir_wc(64 << 10, 64 << 10, WcOptions::default()),
            1 => run_mimir_wc(64 << 10, 64 << 10, pr),
            _ => run_mrmpi_wc(),
        },
    );
}

fn main() {
    ablate_comm_buffer();
    ablate_page_size();
    ablate_copy_path_and_grouping();
}
