//! Mimir and MR-MPI must compute identical results on identical inputs —
//! the precondition for every comparison figure in the paper.

use mimir::apps::bfs::{bfs_mimir, bfs_mrmpi, bfs_serial, pick_root, BfsOptions};
use mimir::apps::octree::{octree_mimir, octree_mrmpi, OcOptions};
use mimir::apps::validate::{merge_counts, validate_bfs_tree};
use mimir::apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir::prelude::*;

const RANKS: usize = 5;

#[test]
fn wordcount_equivalence() {
    let text_of = |rank: usize| WikipediaWords::new(21).generate(rank, RANKS, 60_000);

    let mimir_counts = merge_counts(run_world(RANKS, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let text = text_of(ctx.rank());
        wordcount_mimir(&mut ctx, &text, &WcOptions::default())
            .unwrap()
            .0
    }));

    let mr_counts = merge_counts(run_world(RANKS, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let store = SpillStore::new_temp("eq-wc", IoModel::free()).unwrap();
        let text = text_of(comm.rank());
        wordcount_mrmpi(
            comm,
            pool,
            store,
            MrMpiConfig::with_page_size(128 * 1024),
            &text,
            false,
        )
        .unwrap()
        .0
    }));

    assert_eq!(mimir_counts, mr_counts);
    assert!(!mimir_counts.is_empty());
}

#[test]
fn wordcount_equivalence_when_mrmpi_spills() {
    // Force MR-MPI out of core with tiny pages; Mimir stays in memory.
    // Results must still match — spilling is a performance event, not a
    // correctness event.
    let text_of = |rank: usize| UniformWords::new(8).generate(rank, 3, 80_000);

    let mimir_counts = merge_counts(run_world(3, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let text = text_of(ctx.rank());
        wordcount_mimir(&mut ctx, &text, &WcOptions::default())
            .unwrap()
            .0
    }));

    let (mr_counts, spilled) = {
        let per_rank = run_world(3, move |comm| {
            let pool = MemPool::unlimited("node", 64 * 1024);
            let store = SpillStore::new_temp("eq-wc-spill", IoModel::free()).unwrap();
            let text = text_of(comm.rank());
            wordcount_mrmpi(
                comm,
                pool,
                store,
                MrMpiConfig::with_page_size(8 * 1024),
                &text,
                false,
            )
            .unwrap()
        });
        let spilled = per_rank.iter().any(|(_, m)| m.spilled);
        (
            merge_counts(per_rank.into_iter().map(|(c, _)| c).collect()),
            spilled,
        )
    };

    assert!(spilled, "fixture must actually spill");
    assert_eq!(mimir_counts, mr_counts);
}

#[test]
fn octree_equivalence() {
    let gen = PointGen::new(31);
    let n_points = 16_000;
    let opts = OcOptions::default();

    // Both frameworks run one level map, so the whole `OcResult` agrees:
    // the level reached on every rank and the dense octants with counts.
    let dense = |per_rank: Vec<mimir::apps::octree::OcResult>| {
        let levels: Vec<usize> = per_rank.iter().map(|r| r.final_level).collect();
        let octants = per_rank
            .into_iter()
            .flat_map(|r| r.local_dense)
            .collect::<std::collections::BTreeMap<Vec<u8>, u64>>();
        (levels, octants)
    };

    let mimir_dense = dense(run_world(RANKS, move |comm| {
        let pts = gen.generate(comm.rank(), RANKS, n_points);
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        octree_mimir(&mut ctx, &pts, &opts).unwrap().0
    }));

    let mr_dense = dense(run_world(RANKS, move |comm| {
        let pts = gen.generate(comm.rank(), RANKS, n_points);
        let pool = MemPool::unlimited("node", 64 * 1024);
        let store = SpillStore::new_temp("eq-oc", IoModel::free()).unwrap();
        octree_mrmpi(
            comm,
            pool,
            &store,
            MrMpiConfig::with_page_size(128 * 1024),
            &pts,
            &opts,
        )
        .unwrap()
        .0
    }));

    assert_eq!(mimir_dense, mr_dense, "levels, dense octants and counts");
    assert!(!mimir_dense.1.is_empty());
}

#[test]
fn bfs_equivalence() {
    let graph = Graph500::new(9, 13);
    let all_edges: Vec<(u64, u64)> = (0..RANKS).flat_map(|r| graph.edges(r, RANKS)).collect();

    let mimir_results = run_world(RANKS, move |comm| {
        let edges = graph.edges(comm.rank(), comm.size());
        let root = pick_root(comm, &edges);
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let (res, _) = bfs_mimir(&mut ctx, &edges, root, &BfsOptions::default()).unwrap();
        (root, res)
    });
    let mr_results = run_world(RANKS, move |comm| {
        let edges = graph.edges(comm.rank(), comm.size());
        let root = pick_root(comm, &edges);
        let pool = MemPool::unlimited("node", 64 * 1024);
        let store = SpillStore::new_temp("eq-bfs", IoModel::free()).unwrap();
        let (res, _) = bfs_mrmpi(
            comm,
            pool,
            &store,
            MrMpiConfig::with_page_size(128 * 1024),
            &edges,
            root,
            &BfsOptions::default(),
        )
        .unwrap();
        (root, res)
    });

    let root = mimir_results[0].0;
    assert_eq!(root, mr_results[0].0);
    let reference = bfs_serial(&all_edges, root);

    // Both trees are valid; both visit the same set.
    let a: Vec<_> = mimir_results.into_iter().map(|(_, r)| r).collect();
    let b: Vec<_> = mr_results.into_iter().map(|(_, r)| r).collect();
    assert_eq!(a[0].visited_global, b[0].visited_global);
    assert_eq!(
        a.iter().map(|r| r.depth).max(),
        b.iter().map(|r| r.depth).max()
    );
    validate_bfs_tree(a, &all_edges, root, &reference);
    validate_bfs_tree(b, &all_edges, root, &reference);
}
