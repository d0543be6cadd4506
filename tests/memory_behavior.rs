//! The paper's memory claims at test scale: Mimir's footprint follows the
//! data while MR-MPI's follows its static page sets; Mimir fails cleanly
//! at the budget where MR-MPI spills; each optional optimization lowers
//! the relevant cost.

use mimir::apps::bfs::{bfs_mimir, pick_root, BfsOptions};
use mimir::apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir::mem::MemError;
use mimir::prelude::*;

const RANKS: usize = 4;

/// A WC corpus whose vocabulary is far smaller than the corpus — the
/// natural-text regime of the paper's datasets, where grouping structures
/// stay small relative to the KV stream.
fn corpus(rank: usize, total_bytes: usize) -> Vec<u8> {
    UniformWords {
        vocab: 1000,
        word_len: 8,
        seed: 4,
    }
    .generate(rank, RANKS, total_bytes)
}

fn mimir_peak(total_bytes: usize, opts: WcOptions, budget: usize) -> Result<usize, bool> {
    let nodes = NodeMap::new(RANKS, RANKS, 16 * 1024, budget).unwrap();
    let nodes2 = nodes.clone();
    run_world_result(RANKS, move |comm| {
        let text = corpus(comm.rank(), total_bytes);
        let pool = nodes2.pool_for_rank(comm.rank());
        let mut ctx = MimirContext::new(
            comm,
            pool,
            IoModel::free(),
            MimirConfig {
                comm_buf_size: 16 * 1024,
                ..MimirConfig::default()
            },
        )
        .unwrap();
        wordcount_mimir(&mut ctx, &text, &opts)
            .map(|_| ())
            .map_err(|e| e.is_oom())
    })
    .map_err(|e| matches!(e, WorldError::Aborted(true)))?;
    Ok(nodes.max_node_peak())
}

fn mrmpi_peak(total_bytes: usize, page_size: usize, budget: usize) -> (usize, bool) {
    let nodes = NodeMap::new(RANKS, RANKS, 16 * 1024, budget).unwrap();
    let nodes2 = nodes.clone();
    let results = run_world(RANKS, move |comm| {
        let text = corpus(comm.rank(), total_bytes);
        let pool = nodes2.pool_for_rank(comm.rank());
        let store = SpillStore::new_temp("mem-wc", IoModel::free()).unwrap();
        let (_, m) = wordcount_mrmpi(
            comm,
            pool,
            store,
            MrMpiConfig::with_page_size(page_size),
            &text,
            false,
        )
        .unwrap();
        m.spilled
    });
    (nodes.max_node_peak(), results.into_iter().any(|s| s))
}

#[test]
fn mimir_footprint_tracks_data_mrmpi_footprint_is_static() {
    let budget = 256 << 20;
    let m_small = mimir_peak(64 * 1024, WcOptions::default(), budget).unwrap();
    let m_large = mimir_peak(512 * 1024, WcOptions::default(), budget).unwrap();
    assert!(
        m_large > m_small * 2,
        "Mimir peak should grow with data: {m_small} -> {m_large}"
    );

    let (r_small, s1) = mrmpi_peak(64 * 1024, 64 * 1024, budget);
    let (r_large, s2) = mrmpi_peak(512 * 1024, 64 * 1024, budget);
    assert_eq!(r_small, r_large, "MR-MPI page sets are static");
    assert!(!s1, "small dataset must fit MR-MPI's pages");
    assert!(s2, "large dataset must overflow MR-MPI's pages");
}

#[test]
fn mimir_beats_mrmpi_on_small_inputs() {
    // Figures 8/9: "Mimir always uses less memory than MR-MPI does …
    // at least 25% less".
    let budget = 256 << 20;
    let mimir = mimir_peak(128 * 1024, WcOptions::default(), budget).unwrap();
    let (mrmpi, _) = mrmpi_peak(128 * 1024, 64 * 1024, budget);
    assert!(
        (mimir as f64) < 0.75 * mrmpi as f64,
        "Mimir {mimir} vs MR-MPI {mrmpi}"
    );
}

#[test]
fn mimir_fails_cleanly_at_the_node_budget() {
    // A dataset whose intermediate KVs exceed the node budget: Mimir
    // reports OOM (it does not spill), per the paper's missing points.
    let tight_budget = 1024 * 1024; // comm buffers alone are 128 KiB
    let res = mimir_peak(1 << 20, WcOptions::default(), tight_budget);
    assert_eq!(res, Err(true), "expected a clean OOM");
    // The same dataset succeeds with the optimization stack (pr avoids
    // the KVC+KMVC peak).
    let res = mimir_peak(1 << 20, WcOptions::all(), tight_budget);
    assert!(res.is_ok(), "optimizations should fit the budget: {res:?}");
}

/// Mimir BFS's peak node bytes on a scale-10 Graph500 graph, and the KV
/// bytes its ranks shuffled.
fn bfs_peak(opts: BfsOptions) -> (usize, u64) {
    let graph = Graph500::new(10, 17);
    let nodes = NodeMap::new(RANKS, RANKS, 16 * 1024, 256 << 20).unwrap();
    let nodes2 = nodes.clone();
    let kv_bytes = run_world(RANKS, move |comm| {
        let edges = graph.edges(comm.rank(), comm.size());
        let root = pick_root(comm, &edges);
        let pool = nodes2.pool_for_rank(comm.rank());
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        bfs_mimir(&mut ctx, &edges, root, &opts).unwrap().1.kv_bytes
    });
    (nodes.max_node_peak(), kv_bytes.iter().sum())
}

#[test]
fn optimization_stack_lowers_peak_in_order() {
    // Figure 13's staircase. Both apps' KMVCs store a chunk's
    // same-length values bare with or without the hint, so WordCount's
    // and BFS's baselines each stay within a page per rank of the hinted
    // run. What the hint still does on BFS is shrink the wire: 16 B a KV
    // against 24 B. Partial reduction is WordCount's step.
    let (bfs_base, bfs_base_kv) = bfs_peak(BfsOptions::default());
    let (bfs_hint, bfs_hint_kv) = bfs_peak(BfsOptions {
        hint: true,
        compress: false,
    });
    let wc = |opts| mimir_peak(256 * 1024, opts, 256 << 20).unwrap();
    let base = wc(WcOptions::default());
    let hint = wc(WcOptions {
        hint: true,
        ..WcOptions::default()
    });
    let hint_pr = wc(WcOptions {
        hint: true,
        partial_reduce: true,
        ..WcOptions::default()
    });
    assert!(
        bfs_base <= bfs_hint + RANKS * 16 * 1024,
        "BFS hint {bfs_hint} vs base {bfs_base}"
    );
    assert!(
        3 * bfs_hint_kv <= 2 * bfs_base_kv,
        "BFS hinted KV bytes {bfs_hint_kv} vs base {bfs_base_kv}"
    );
    assert!(
        base <= hint + RANKS * 16 * 1024,
        "hint {hint} vs base {base}"
    );
    assert!(hint_pr < hint, "hint+pr {hint_pr} vs hint {hint}");
}

#[test]
fn spilling_charges_the_io_model_heavily() {
    // Figure 1's mechanism: once MR-MPI leaves memory, the modeled PFS
    // time dwarfs compute time.
    let io = IoModel::new(IoModelConfig::lustre_scaled()).unwrap();
    let io2 = io.clone();
    run_world(RANKS, move |comm| {
        let text = corpus(comm.rank(), 512 * 1024);
        let pool = MemPool::unlimited("node", 16 * 1024);
        let store = SpillStore::new_temp("spill-io", io2.clone()).unwrap();
        let (_, m) = wordcount_mrmpi(
            comm,
            pool,
            store,
            MrMpiConfig::with_page_size(16 * 1024),
            &text,
            false,
        )
        .unwrap();
        assert!(m.spilled);
    });
    let modeled = io.modeled_time();
    assert!(
        modeled > std::time::Duration::from_millis(200),
        "spills should cost dearly on the modeled PFS: {modeled:?}"
    );
}

#[test]
fn communication_buffers_bound_mimir_recv_memory() {
    // Paper Section III-B: the receive buffer never needs to be larger
    // than the send buffer, even under total key skew.
    let nodes = NodeMap::new(RANKS, RANKS, 16 * 1024, 64 << 20).unwrap();
    let nodes2 = nodes.clone();
    run_world(RANKS, move |comm| {
        let pool = nodes2.pool_for_rank(comm.rank());
        let mut ctx = MimirContext::new(
            comm,
            pool,
            IoModel::free(),
            MimirConfig {
                comm_buf_size: 8 * 1024,
                ..MimirConfig::default()
            },
        )
        .unwrap();
        // Every rank sends everything to ONE key's owner.
        let out = ctx
            .job()
            .kv_meta(KvMeta::cstr_key_u64_val())
            .map(&mut |em| {
                for i in 0..5000u64 {
                    em.emit(b"only-key", &i.to_le_bytes())?;
                }
                Ok(())
            })
            .collect()
            .unwrap();
        let n = out.output.len();
        // The owner holds all 4×5000 KVs; others none.
        assert!(n == 0 || n == 4 * 5000);
    });
}

/// BFS peaks in its partition stage, where the paper puts its peak
/// (Section IV), give or take its frontiers: the graph the partition
/// stage groups stays resident through the traversal, and each level
/// adds an input and an output frontier. A level claims a vertex as its
/// first proposal arrives and drops every later one, so a frontier holds
/// one KV per newly reached vertex, and the two together never exceed
/// this rank's claimed vertices. Each rank runs the partition stage alone
/// first, drops it and resets its pool peak, then runs the whole BFS,
/// whose peak may pass that stage's by those KVs in pages, twice, plus
/// one page.
#[test]
fn bfs_peaks_in_its_partition_stage() {
    const BFS_RANKS: usize = 2;
    const PAGE: usize = 16 * 1024;
    /// An unhinted `(vertex, parent)` KV: two length words, two ids.
    const KV: usize = 4 + 8 + 4 + 8;
    let graph = Graph500::new(13, 17);
    let nodes = NodeMap::new(BFS_RANKS, 1, PAGE, 256 << 20).unwrap();
    let peaks = run_world(BFS_RANKS, move |comm| {
        let edges = graph.edges(comm.rank(), comm.size());
        let root = pick_root(comm, &edges);
        let pool = nodes.pool_for_rank(comm.rank());
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let (graph, stats) = ctx
            .job()
            .map(&mut |em| {
                for &(u, v) in &edges {
                    em.emit(&typed::enc_u64(u), &typed::enc_u64(v))?;
                    em.emit(&typed::enc_u64(v), &typed::enc_u64(u))?;
                }
                Ok(())
            })
            .group()
            .unwrap();
        drop(graph);
        ctx.pool().reset_peak();
        let (res, metrics) = bfs_mimir(&mut ctx, &edges, root, &BfsOptions::default()).unwrap();
        (stats.node_peak_bytes, metrics.node_peak, res.parents.len())
    });
    for (rank, &(partition, bfs, claimed)) in peaks.iter().enumerate() {
        let slack = (2 * (claimed * KV).div_ceil(PAGE) + 1) * PAGE;
        assert!(
            bfs <= partition + slack,
            "rank {rank}: BFS peak {bfs} vs its partition stage's {partition} + {slack}"
        );
    }
}

/// Two ranks on one node share its budget whether they are threads or
/// forked processes: once rank 0 holds every page, rank 1's next page is
/// refused with the same out-of-memory error on both transports, and the
/// node's peak reads the same from outside the world.
#[test]
fn two_ranks_on_one_node_share_its_budget_on_both_transports() {
    const PAGE: usize = 4096;
    const PAGES: usize = 4;
    for kind in [TransportKind::Inproc, TransportKind::Uds] {
        let nodes = NodeMap::new(2, 2, PAGE, PAGES * PAGE).unwrap();
        let refusals = run_world_result_on(kind, 2, |comm| -> Result<_, String> {
            let pool = nodes.pool_for_rank(comm.rank());
            let held = match comm.rank() {
                0 => pool.alloc_pages(PAGES).map_err(|e| e.to_string())?,
                _ => Vec::new(),
            };
            comm.barrier();
            let refused = match (comm.rank(), pool.alloc_page()) {
                (0, _) => None,
                (_, Ok(_)) => Some((0, 0, 0)),
                (_, Err(e)) => match e {
                    MemError::OutOfMemory {
                        requested,
                        used,
                        budget,
                        ..
                    } => Some((requested, used, budget)),
                    other => return Err(other.to_string()),
                },
            };
            comm.barrier();
            drop(held);
            Ok(refused)
        })
        .unwrap();
        let full = PAGES * PAGE;
        assert_eq!(refusals, vec![None, Some((PAGE, full, full))], "{kind:?}");
        let pool = nodes.pool_for_rank(0);
        assert_eq!((pool.used(), pool.peak()), (0, full), "{kind:?}");
    }
}
