//! End-to-end WordCount through the full stack: corpus materialized on
//! the simulated parallel file system, record-aligned splits read per
//! rank, counts validated against the serial reference, across node
//! layouts and buffer sizes.

use mimir::apps::validate::merge_counts;
use mimir::apps::wordcount::{wordcount_mimir, wordcount_serial, WcOptions};
use mimir::prelude::*;

fn corpus_file(total_bytes: usize) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mimir-wc-e2e-{}-{total_bytes}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.txt");
    let g = WikipediaWords::new(3);
    mimir::datagen::write_corpus(&path, 4, |r, n| g.generate(r, n, total_bytes)).unwrap();
    path
}

#[test]
fn file_based_wordcount_matches_serial_across_layouts() {
    let path = corpus_file(200_000);
    let content = std::fs::read(&path).unwrap();
    let expected = wordcount_serial(&[&content]);

    for (ranks, ranks_per_node) in [(1, 1), (4, 4), (6, 2), (8, 3)] {
        let nodes = NodeMap::new(ranks, ranks_per_node, 64 * 1024, 64 << 20).unwrap();
        let path2 = path.clone();
        let per_rank = run_world(ranks, move |comm| {
            let pool = nodes.pool_for_rank(comm.rank());
            let mut ctx =
                MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
            let text = ctx.read_text_split(&path2).unwrap();
            wordcount_mimir(&mut ctx, &text, &WcOptions::all())
                .unwrap()
                .0
        });
        let got = merge_counts(per_rank);
        assert_eq!(got, expected, "ranks={ranks} rpn={ranks_per_node}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Dozens of exchange rounds give the same counts as the serial
/// reference, on the backend `MIMIR_TRANSPORT` names.
#[test]
fn tiny_comm_buffers_force_many_rounds_same_answer() {
    let path = corpus_file(100_000);
    let content = std::fs::read(&path).unwrap();
    let expected = wordcount_serial(&[&content]);

    let path2 = path.clone();
    let per_rank = run_world_on(TransportKind::from_env(), 4, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        // 1 KiB comm buffer → 256 B partitions → dozens of rounds.
        let cfg = MimirConfig {
            comm_buf_size: 1024,
            ..MimirConfig::default()
        };
        let mut ctx = MimirContext::new(comm, pool, IoModel::free(), cfg).unwrap();
        let text = ctx.read_text_split(&path2).unwrap();
        let (counts, metrics) = wordcount_mimir(&mut ctx, &text, &WcOptions::default()).unwrap();
        (counts, metrics.exchange_rounds)
    });
    let rounds = per_rank[0].1;
    assert!(rounds > 10, "expected many rounds, got {rounds}");
    let got = merge_counts(per_rank.into_iter().map(|(c, _)| c).collect());
    assert_eq!(got, expected);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// The block word scanner against the serial reference's `split` on
/// both corpora (fixed-length uniform words and variable-length Zipf
/// words), on both transports, with every combination of partial
/// reduction and compression under the KV hint, and with no option.
#[test]
fn both_corpora_both_transports_every_option_match_serial() {
    let corpora: [(&str, Vec<Vec<u8>>); 2] = [
        (
            "uniform",
            (0..3)
                .map(|r| UniformWords::new(5).generate(r, 3, 60_000))
                .collect(),
        ),
        (
            "wikipedia",
            (0..3)
                .map(|r| WikipediaWords::new(5).generate(r, 3, 60_000))
                .collect(),
        ),
    ];
    let mut options = vec![WcOptions::default()];
    for (partial_reduce, compress) in [(false, false), (true, false), (false, true), (true, true)] {
        options.push(WcOptions {
            hint: true,
            partial_reduce,
            compress,
        });
    }
    for (name, shares) in &corpora {
        let expected = wordcount_serial(&shares.iter().map(Vec::as_slice).collect::<Vec<_>>());
        for kind in [TransportKind::Inproc, TransportKind::Uds] {
            for opts in &options {
                let per_rank = run_world_on(kind, 3, |comm| {
                    let pool = MemPool::unlimited("node", 64 * 1024);
                    let text = shares[comm.rank()].clone();
                    let mut ctx =
                        MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default())
                            .unwrap();
                    wordcount_mimir(&mut ctx, &text, opts).unwrap().0
                });
                assert_eq!(merge_counts(per_rank), expected, "{name} {kind:?} {opts:?}");
            }
        }
    }
}

#[test]
fn input_reads_are_charged_to_the_io_model() {
    let path = corpus_file(50_000);
    let io = IoModel::new(IoModelConfig::lustre_scaled()).unwrap();
    let io2 = io.clone();
    let path2 = path.clone();
    run_world(2, move |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let ctx = MimirContext::new(comm, pool, io2.clone(), MimirConfig::default()).unwrap();
        let _ = ctx.read_text_split(&path2).unwrap();
    });
    let stats = io.stats();
    assert!(stats.bytes_read >= 50_000, "read {} B", stats.bytes_read);
    assert!(io.modeled_time() > std::time::Duration::ZERO);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn empty_input_produces_empty_output() {
    let per_rank = run_world(3, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        wordcount_mimir(&mut ctx, b"", &WcOptions::default())
            .unwrap()
            .0
    });
    assert!(per_rank.iter().all(Vec::is_empty));
}

#[test]
fn single_word_corpus() {
    let per_rank = run_world(4, |comm| {
        let pool = MemPool::unlimited("node", 64 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
        let text = b"same same same\nsame\n".repeat(100);
        wordcount_mimir(&mut ctx, &text, &WcOptions::all())
            .unwrap()
            .0
    });
    let got = merge_counts(per_rank);
    assert_eq!(got.len(), 1);
    assert_eq!(got[&b"same".to_vec()], 4 * 400);
}
