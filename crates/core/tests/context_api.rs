//! Context-level API tests: collectives helpers, binary input splits,
//! and configuration validation at construction.

use mimir_core::{MimirConfig, MimirContext, MimirError};
use mimir_datagen::{parse_points, write_points, PointGen};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;

#[test]
fn collective_helpers() {
    let out = run_world(5, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let sum = ctx.allreduce_sum(ctx.rank() as u64 + 1);
        ctx.barrier();
        (ctx.rank(), ctx.size(), sum)
    });
    for (i, &(rank, size, sum)) in out.iter().enumerate() {
        assert_eq!(rank, i);
        assert_eq!(size, 5);
        assert_eq!(sum, 1 + 2 + 3 + 4 + 5);
    }
}

#[test]
fn invalid_config_is_rejected_at_construction() {
    run_world(8, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        // 64 B across 8 ranks → 8 B partitions, below the minimum.
        let res = MimirContext::new(
            comm,
            pool,
            IoModel::free(),
            MimirConfig {
                comm_buf_size: 64,
                ..MimirConfig::default()
            },
        );
        assert!(matches!(res, Err(MimirError::Config(_))));
    });
}

#[test]
fn binary_point_splits_cover_the_dataset() {
    let dir = std::env::temp_dir().join(format!("mimir-ctx-points-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("points.bin");
    let gen = PointGen::new(77);
    let total = 997; // deliberately not divisible by the rank count
    write_points(&path, &gen, total, 4).unwrap();

    let path2 = path.clone();
    let io = IoModel::new(mimir_io::IoModelConfig::lustre_scaled()).unwrap();
    let io2 = io.clone();
    let per_rank = run_world(3, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let ctx = MimirContext::new(comm, pool, io2.clone(), MimirConfig::default()).unwrap();
        let bytes = ctx.read_fixed_split(&path2, 12).unwrap();
        parse_points(&bytes)
    });
    let expected: Vec<[f32; 3]> = (0..4).flat_map(|r| gen.generate(r, 4, total)).collect();
    let got: Vec<[f32; 3]> = per_rank.into_iter().flatten().collect();
    assert_eq!(got.len(), total);
    assert_eq!(got, expected, "splits concatenate to the whole dataset");
    assert!(io.stats().bytes_read as usize >= total * 12);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_model_accessor_reports_the_shared_model() {
    let io = IoModel::free();
    let io2 = io.clone();
    run_world(2, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let ctx = MimirContext::new(comm, pool, io2.clone(), MimirConfig::default()).unwrap();
        ctx.io().charge_write(100);
    });
    assert_eq!(io.stats().bytes_written, 200);
}

#[test]
fn config_accessor_round_trips() {
    run_world(1, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let cfg = MimirConfig {
            comm_buf_size: 32 * 1024,
            ..MimirConfig::default()
        };
        let ctx = MimirContext::new(comm, pool.clone(), IoModel::free(), cfg).unwrap();
        assert_eq!(ctx.config().comm_buf_size, 32 * 1024);
        assert_eq!(ctx.pool().page_size(), pool.page_size());
    });
}
