//! End-to-end BFS on Graph500 Kronecker graphs: tree validity, depth
//! consistency with the serial reference, both optimization flags, both
//! transports.

use mimir::apps::bfs::{bfs_mimir, bfs_serial, pick_root, BfsOptions};
use mimir::apps::validate::validate_bfs_tree;
use mimir::prelude::*;

fn run_bfs(
    scale: u32,
    ranks: usize,
    opts: BfsOptions,
) -> (u64, Vec<mimir::apps::bfs::BfsResult>, Vec<(u64, u64)>) {
    run_bfs_on(TransportKind::Inproc, scale, ranks, opts)
}

/// [`run_bfs`] on `kind`'s ranks; each rank's result crosses back to
/// the test as `(root, parents, visited, depth)`.
fn run_bfs_on(
    kind: TransportKind,
    scale: u32,
    ranks: usize,
    opts: BfsOptions,
) -> (u64, Vec<mimir::apps::bfs::BfsResult>, Vec<(u64, u64)>) {
    let graph = Graph500::new(scale, 17);
    let all_edges: Vec<(u64, u64)> = (0..ranks).flat_map(|r| graph.edges(r, ranks)).collect();
    let nodes = NodeMap::new(ranks, 2.min(ranks), 64 * 1024, 256 << 20).unwrap();
    let results = run_world_on(kind, ranks, move |comm| {
        let edges = graph.edges(comm.rank(), comm.size());
        let root = pick_root(comm, &edges);
        let pool = nodes.pool_for_rank(comm.rank());
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let (res, _) = bfs_mimir(&mut ctx, &edges, root, &opts).unwrap();
        let parents: Vec<(u64, u64)> = res.parents.into_iter().collect();
        (root, parents, res.visited_global, res.depth)
    });
    let root = results[0].0;
    let per_rank = results
        .into_iter()
        .map(
            |(_, parents, visited_global, depth)| mimir::apps::bfs::BfsResult {
                parents: parents.into_iter().collect(),
                visited_global,
                depth,
            },
        )
        .collect();
    (root, per_rank, all_edges)
}

#[test]
fn tree_is_valid_and_depth_matches_reference() {
    for opts in [
        BfsOptions::default(),
        BfsOptions {
            hint: true,
            compress: false,
        },
        BfsOptions::all(),
    ] {
        let (root, per_rank, all_edges) = run_bfs(10, 4, opts);
        let reference = bfs_serial(&all_edges, root);
        let visited = per_rank[0].visited_global;
        assert_eq!(visited as usize, reference.len(), "{opts:?}");
        let max_depth_result = per_rank.iter().map(|r| r.depth).max().unwrap();
        let eccentricity = *reference.values().max().unwrap();
        assert_eq!(max_depth_result, eccentricity, "{opts:?}");
        validate_bfs_tree(per_rank, &all_edges, root, &reference);
    }
}

/// The traversal claims each vertex on arrival at its owner, so the
/// tree must come out valid on the socket transport too, where ranks
/// are processes and arrival order is the kernel's.
#[test]
fn tree_is_valid_over_sockets() {
    for opts in [BfsOptions::default(), BfsOptions::all()] {
        let (root, per_rank, all_edges) = run_bfs_on(TransportKind::Uds, 10, 2, opts);
        let reference = bfs_serial(&all_edges, root);
        assert_eq!(
            per_rank[0].visited_global as usize,
            reference.len(),
            "{opts:?}"
        );
        let depth = per_rank.iter().map(|r| r.depth).max().unwrap();
        assert_eq!(depth, *reference.values().max().unwrap(), "{opts:?}");
        validate_bfs_tree(per_rank, &all_edges, root, &reference);
    }
}

#[test]
fn works_on_many_ranks() {
    let (root, per_rank, all_edges) = run_bfs(9, 9, BfsOptions::all());
    let reference = bfs_serial(&all_edges, root);
    validate_bfs_tree(per_rank, &all_edges, root, &reference);
}

#[test]
fn single_rank_traversal() {
    let (root, per_rank, all_edges) = run_bfs(8, 1, BfsOptions::default());
    let reference = bfs_serial(&all_edges, root);
    assert_eq!(per_rank[0].parents.len(), reference.len());
    validate_bfs_tree(per_rank, &all_edges, root, &reference);
}

#[test]
fn disconnected_component_stays_unvisited() {
    // A path graph 0-1-2 plus an isolated edge 10-11: BFS from 0 must
    // not reach 10/11.
    let results = run_world(2, |comm| {
        let edges: Vec<(u64, u64)> = if comm.rank() == 0 {
            vec![(0, 1), (1, 2)]
        } else {
            vec![(10, 11)]
        };
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let (res, _) = bfs_mimir(&mut ctx, &edges, 0, &BfsOptions::default()).unwrap();
        res
    });
    let visited = results[0].visited_global;
    assert_eq!(visited, 3);
    let all: std::collections::HashMap<u64, u64> = results
        .into_iter()
        .flat_map(|r| r.parents.into_iter())
        .collect();
    assert!(!all.contains_key(&10));
    assert!(!all.contains_key(&11));
    assert_eq!(all[&0], 0);
}

#[test]
fn compress_reduces_traversal_kv_volume_on_dense_graphs() {
    // Dense graph: many duplicate (neighbor, parent) proposals per level,
    // which is exactly what traversal-side compression merges.
    let kv_bytes_of = |cps: bool| {
        let graph = Graph500::new(9, 3);
        let opts = BfsOptions {
            hint: true,
            compress: cps,
        };
        let runs = run_world(4, move |comm| {
            let edges = graph.edges(comm.rank(), comm.size());
            let root = pick_root(comm, &edges);
            let pool = MemPool::unlimited("node", 64 * 1024);
            let mut ctx =
                MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
            bfs_mimir(&mut ctx, &edges, root, &opts).unwrap().1
        });
        runs.iter().map(|m| m.kv_bytes).sum::<u64>()
    };
    let plain = kv_bytes_of(false);
    let compressed = kv_bytes_of(true);
    assert!(
        compressed < plain,
        "cps should shrink shuffled bytes: {compressed} vs {plain}"
    );
}
