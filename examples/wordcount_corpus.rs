//! File-based WordCount with selectable optimizations — the paper's WC
//! benchmark end to end: a corpus is materialized on the (simulated)
//! parallel file system, each rank reads its record-aligned split, and
//! the configured framework counts words. The merged counts are checked
//! against a serial count of the file; a wrong answer exits nonzero.
//! `MIMIR_TRANSPORT=uds` runs the ranks as forked processes over
//! Unix-domain sockets instead of threads.
//!
//! Usage:
//! ```text
//! cargo run --release -p mimir --example wordcount_corpus -- \
//!     [--size-kb 2048] [--ranks 8] [--dataset uniform|wikipedia] \
//!     [--framework mimir|mrmpi] [--hint] [--pr] [--cps]
//! ```

use std::path::PathBuf;

use mimir::apps::validate::merge_counts;
use mimir::apps::wordcount::{wordcount_mimir, wordcount_mrmpi, wordcount_serial, WcOptions};
use mimir::prelude::*;

struct Args {
    size_kb: usize,
    ranks: usize,
    dataset: String,
    framework: String,
    opts: WcOptions,
}

fn parse_args() -> Args {
    let mut args = Args {
        size_kb: 2048,
        ranks: 8,
        dataset: "wikipedia".into(),
        framework: "mimir".into(),
        opts: WcOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size-kb" => args.size_kb = it.next().expect("value").parse().expect("number"),
            "--ranks" => args.ranks = it.next().expect("value").parse().expect("number"),
            "--dataset" => args.dataset = it.next().expect("value"),
            "--framework" => args.framework = it.next().expect("value"),
            "--hint" => args.opts.hint = true,
            "--pr" => args.opts.partial_reduce = true,
            "--cps" => args.opts.compress = true,
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let total_bytes = args.size_kb * 1024;
    let ranks = args.ranks;

    // Materialize the corpus on "the parallel file system".
    let dir = std::env::temp_dir().join(format!("mimir-wc-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("corpus dir");
    let path: PathBuf = dir.join("corpus.txt");
    let written = match args.dataset.as_str() {
        "uniform" => {
            let g = UniformWords::new(11);
            mimir::datagen::write_corpus(&path, ranks, |r, n| g.generate(r, n, total_bytes))
        }
        "wikipedia" => {
            let g = WikipediaWords::new(11);
            mimir::datagen::write_corpus(&path, ranks, |r, n| g.generate(r, n, total_bytes))
        }
        other => panic!("unknown dataset {other}"),
    }
    .expect("write corpus");
    println!(
        "corpus: {} ({} KiB, {})",
        path.display(),
        written / 1024,
        args.dataset
    );

    // A Comet-mini-ish node: all ranks on one node, 128 MiB budget.
    let nodes = NodeMap::new(ranks, ranks, 64 * 1024, 128 << 20).expect("node map");
    let io = IoModel::new(IoModelConfig::lustre_scaled()).expect("io model");

    let framework = args.framework.clone();
    let opts = args.opts;
    let path2 = path.clone();
    // Each rank returns its counts and (wall ns, KV bytes, node peak,
    // spilled): plain values, so they cross a process boundary too.
    let per_rank = run_world_on(TransportKind::from_env(), ranks, move |comm| {
        let rank = comm.rank();
        let pool = nodes.pool_for_rank(rank);
        let (counts, m) = match framework.as_str() {
            "mimir" => {
                let mut ctx = MimirContext::new(comm, pool, io.clone(), MimirConfig::default())
                    .expect("context");
                let text = ctx.read_text_split(&path2).expect("input split");
                let (counts, metrics) = wordcount_mimir(&mut ctx, &text, &opts).expect("wordcount");
                (counts, metrics)
            }
            "mrmpi" => {
                let text = mimir::io::splitter::read_split(&path2, rank, ranks, b'\n', &io)
                    .expect("input split");
                let store = SpillStore::new_temp("wc-example", io.clone()).expect("spill");
                let (counts, metrics) = wordcount_mrmpi(
                    comm,
                    pool,
                    store,
                    MrMpiConfig::with_page_size(64 * 1024),
                    &text,
                    opts.compress,
                )
                .expect("wordcount");
                (counts, metrics)
            }
            other => panic!("unknown framework {other}"),
        };
        let wall_ns = m.wall.as_nanos() as u64;
        (counts, (wall_ns, m.kv_bytes, m.node_peak, m.spilled))
    });

    let metrics: Vec<_> = per_rank.iter().map(|(_, m)| *m).collect();
    let counts = merge_counts(per_rank.into_iter().map(|(c, _)| c).collect());
    let mut top: Vec<_> = counts.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));

    println!("distinct words: {}", counts.len());
    println!("top 5:");
    for (w, c) in top.iter().take(5) {
        println!("  {:<16} {c}", String::from_utf8_lossy(w));
    }
    let wall_ns = metrics.iter().map(|m| m.0).max().unwrap_or_default();
    let kv_bytes: u64 = metrics.iter().map(|m| m.1).sum();
    let peak = metrics.iter().map(|m| m.2).max().unwrap_or_default();
    println!(
        "[{}{}{}{}] wall {:?}, KV bytes {} KiB, peak node mem {} KiB{}",
        args.framework,
        if args.opts.hint { ";hint" } else { "" },
        if args.opts.partial_reduce { ";pr" } else { "" },
        if args.opts.compress { ";cps" } else { "" },
        std::time::Duration::from_nanos(wall_ns),
        kv_bytes / 1024,
        peak / 1024,
        if metrics.iter().any(|m| m.3) {
            " [SPILLED]"
        } else {
            ""
        }
    );

    // The answer, checked against a serial count of the whole file.
    let expected = wordcount_serial(&[&std::fs::read(&path).expect("read corpus")]);
    std::fs::remove_dir_all(&dir).ok();
    if counts != expected {
        eprintln!(
            "wrong answer: {} distinct words counted, the serial reference has {}",
            counts.len(),
            expected.len()
        );
        std::process::exit(1);
    }
    println!("counts equal the serial reference");
}
