//! Robustness tests beyond the happy path: spilled MR-MPI runs of the
//! iterative benchmarks stay correct, metrics compose, and degenerate
//! inputs are handled.

use mimir_apps::bfs::{bfs_mrmpi, bfs_serial, pick_root, BfsOptions};
use mimir_apps::octree::{octree_mimir, octree_mrmpi, octree_serial, OcOptions};
use mimir_apps::validate::validate_bfs_tree;
use mimir_apps::RunMetrics;
use mimir_core::{MimirConfig, MimirContext};
use mimir_datagen::{Graph500, PointGen};
use mimir_io::{IoModel, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mrmpi::MrMpiConfig;

#[test]
fn spilled_octree_matches_serial() {
    // 2 KiB MR-MPI pages force spills in every phase of every iteration.
    let gen = PointGen::new(8);
    let n_points = 6_000;
    let opts = OcOptions::default();
    let expected = octree_serial(
        &(0..3)
            .flat_map(|r| gen.generate(r, 3, n_points))
            .collect::<Vec<_>>(),
        opts.density,
        opts.max_depth,
    );
    let per_rank = run_world(3, move |comm| {
        let pts = gen.generate(comm.rank(), 3, n_points);
        let pool = MemPool::unlimited("node", 4096);
        let store = SpillStore::new_temp("oc-spill", IoModel::free()).unwrap();
        let (res, metrics) = octree_mrmpi(
            comm,
            pool,
            &store,
            MrMpiConfig::with_page_size(2 * 1024),
            &pts,
            &opts,
        )
        .unwrap();
        (res, metrics.spilled)
    });
    assert!(
        per_rank.iter().any(|(_, spilled)| *spilled),
        "fixture must spill"
    );
    let got: std::collections::BTreeSet<Vec<u8>> = per_rank
        .iter()
        .flat_map(|(r, _)| r.local_dense.iter().map(|(k, _)| k.clone()))
        .collect();
    let want: std::collections::BTreeSet<Vec<u8>> = expected
        .local_dense
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn spilled_bfs_tree_is_valid() {
    let scale = 8;
    let graph = Graph500::new(scale, 21);
    let all_edges: Vec<(u64, u64)> = (0..3).flat_map(|r| graph.edges(r, 3)).collect();
    let results = run_world(3, move |comm| {
        let edges = graph.edges(comm.rank(), comm.size());
        let root = pick_root(comm, &edges);
        let pool = MemPool::unlimited("node", 4096);
        let store = SpillStore::new_temp("bfs-spill", IoModel::free()).unwrap();
        let (res, metrics) = bfs_mrmpi(
            comm,
            pool,
            &store,
            MrMpiConfig::with_page_size(4 * 1024),
            &edges,
            root,
            &BfsOptions::default(),
        )
        .unwrap();
        (root, res, metrics.spilled)
    });
    assert!(results.iter().any(|(_, _, s)| *s), "fixture must spill");
    let root = results[0].0;
    let reference = bfs_serial(&all_edges, root);
    validate_bfs_tree(
        results.into_iter().map(|(_, r, _)| r).collect(),
        &all_edges,
        root,
        &reference,
    );
}

/// `add_stage` folds stages in sequence: rounds, times, waits and
/// traffic add up, peaks take the max, and the surface scalars follow
/// the folded shuffle.
#[test]
fn metrics_absorb_composes() {
    use mimir_core::JobStats;
    use mimir_obs::ShuffleCounters;
    use std::time::Duration;
    let stage = |ms, peak, bytes, kvs, rounds, max_round| JobStats {
        map_time: Duration::from_millis(ms),
        reduce_time: Duration::from_millis(1),
        shuffle: ShuffleCounters {
            kvs_emitted: kvs,
            kv_bytes_emitted: bytes,
            rounds,
            max_round_recv_bytes: max_round,
            sync_wait_ns: 10,
            ..ShuffleCounters::default()
        },
        node_peak_bytes: peak,
        map_peak_bytes: peak,
        barrier_wait_ns: 5,
        ..JobStats::default()
    };
    let mut m = RunMetrics::default();
    m.add_stage(&stage(10, 100, 5, 2, 1, 64));
    m.add_stage(&stage(7, 300, 10, 3, 2, 32));
    assert_eq!(m.job.map_time, Duration::from_millis(17), "times add up");
    assert_eq!(m.job.reduce_time, Duration::from_millis(2));
    assert_eq!(m.job.node_peak_bytes, 300, "peak is max, not sum");
    assert_eq!(m.job.map_peak_bytes, 300);
    assert_eq!(m.job.shuffle.max_round_recv_bytes, 64);
    assert_eq!(m.job.shuffle.sync_wait_ns, 20, "waits add up");
    assert_eq!(m.job.barrier_wait_ns, 10);
    assert_eq!(m.job.shuffle.rounds, 3, "rounds add up across stages");
    assert_eq!((m.kv_bytes, m.kvs_emitted, m.exchange_rounds), (15, 5, 3));
}

#[test]
fn empty_points_and_edges_are_fine() {
    run_world(2, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        // Octree with no points anywhere: no dense octants, level 0.
        let (res, m) =
            mimir_apps::octree::octree_mimir(&mut ctx, &[], &OcOptions::default()).unwrap();
        assert_eq!(res.final_level, 0);
        assert!(res.local_dense.is_empty());
        assert!(m.iterations <= 1);
        // BFS with no edges: only the root is visited.
        let (res, _) =
            mimir_apps::bfs::bfs_mimir(&mut ctx, &[], 0, &BfsOptions::default()).unwrap();
        assert_eq!(res.visited_global, 1);
    });
}

#[test]
fn pick_root_with_empty_local_edges() {
    let roots = run_world(3, |comm| {
        let edges: Vec<(u64, u64)> = if comm.rank() == 1 {
            vec![(42, 43)]
        } else {
            Vec::new()
        };
        pick_root(comm, &edges)
    });
    assert_eq!(roots, vec![42, 42, 42]);
}

/// A multi-level octree run reports its levels folded in sequence: the
/// report's round count is the run's, not its largest level's, and its
/// map time covers every level's map phase, read back from the level's
/// recorded Map-to-Aggregate span.
#[test]
fn octree_report_folds_its_levels() {
    use mimir_obs::{EventKind, Phase, RankReport, Recorder};
    let out = run_world(2, |comm| {
        mimir_obs::install(Recorder::new(comm.rank(), 1 << 16));
        let points = PointGen {
            sigma: 0.1,
            seed: 7,
        }
        .generate(comm.rank(), 2, 5_000);
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let (_, m) = octree_mimir(&mut ctx, &points, &OcOptions::default()).unwrap();
        let rec = mimir_obs::take().unwrap();
        assert_eq!(rec.dropped(), 0, "the ring holds the whole run");
        let mut report = RankReport::new(ctx.rank());
        m.job.fill_report(&mut report);
        (m, report, rec.events().to_vec())
    });
    for (m, report, events) in out {
        assert!(m.iterations > 1, "a multi-level run");
        assert_eq!(report.shuffle.rounds, m.exchange_rounds);
        let mut levels_ns = Vec::new();
        let mut open = None;
        for e in &events {
            match (e.kind, Phase::from_code(e.a)) {
                (EventKind::PhaseBegin, Some(Phase::Map)) => open = Some(e.t_ns),
                (EventKind::PhaseEnd, Some(Phase::Aggregate)) => {
                    levels_ns.push(e.t_ns - open.take().expect("map span open"));
                }
                _ => {}
            }
        }
        assert_eq!(
            levels_ns.len() as u32,
            m.iterations,
            "one map phase a level"
        );
        let total_s = levels_ns.iter().sum::<u64>() as f64 / 1e9;
        assert!(
            report.times.map_s >= total_s,
            "map_s {} < the levels' {total_s} s ({levels_ns:?})",
            report.times.map_s
        );
    }
}
