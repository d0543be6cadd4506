//! **Figure 10** — "Weak scalability of MR-MPI and Mimir": WordCount on
//! both platforms, fixed data per node, node counts 2–64. The paper's
//! shape: Mimir scales flat to 64 nodes; MR-MPI (64 M) stops at 32 nodes
//! on the uniform dataset and cannot run the skewed Wikipedia dataset at
//! all (its hot keys overflow the static page of whichever rank owns
//! them), and even the large-page configuration dies by 16 nodes.
//!
//! Thread-count note (EXPERIMENTS.md): the host cannot run 64 × 24 rank
//! threads, so scaling figures run a *thinned* platform (4 ranks/node)
//! with the paper's per-rank data share — the ratios that decide who
//! spills are preserved exactly.

use mimir_bench::{emit, sweep, App, Args, Axis, Opts, Platform, System, WcDataset};

fn main() {
    let args = Args::parse();
    let nodes = args.node_counts(&[2, 4, 8, 16, 32, 64]);
    let mut figs = Vec::new();
    for (full, per_node_paper) in [
        (Platform::comet_mini(), 512 << 10), // paper: 512 MB/node on 24 ranks
        (Platform::mira_mini(), 256 << 10),  // paper: 256 MB/node on 16 ranks
    ] {
        let p = full.thin(4);
        let bytes_per_rank = per_node_paper / full.ranks_per_node;
        let series = [
            ("Mimir", System::Mimir(Opts::BASE)),
            ("MR-MPI (64K)", System::mrmpi(full.mrmpi_page_small, false)),
            (
                "MR-MPI (large)",
                System::mrmpi(full.mrmpi_page_large, false),
            ),
        ];
        for (suffix, dataset) in [
            ("uniform", WcDataset::Uniform),
            ("wikipedia", WcDataset::Wikipedia),
        ] {
            figs.push(sweep(
                &format!("fig10-{}-{suffix}", full.name),
                &format!(
                    "Weak scaling, WC ({suffix}), {} ({bytes_per_rank} B/rank)",
                    full.name
                ),
                &p,
                &Axis::nodes(&p, &nodes, App::Wc(dataset, bytes_per_rank)),
                &series,
            ));
        }
    }
    emit(&args, &figs);
}
