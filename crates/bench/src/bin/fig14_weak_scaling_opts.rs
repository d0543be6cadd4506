//! **Figure 14** — "Weak scalability of different optimizations on
//! Mira": Mimir's optimization stack under weak scaling, per-node dataset
//! fixed at the largest size the baseline can hold. Paper shapes: the
//! baseline runs out of memory after 2 nodes on WC/OC (load imbalance
//! concentrates intermediate data); +hint carries WC (Uniform) and BFS to
//! the full machine; the skewed WC (Wikipedia) and OC need partial
//! reduction and finally compression to keep scaling.
//!
//! Thread-count note (EXPERIMENTS.md): the paper scales to 1024 BG/Q
//! nodes (16 384 ranks); this harness thins the platform to 2 ranks/node
//! and scales node counts to 128 (256 rank threads) by default, keeping
//! the per-rank data share — and therefore the imbalance arithmetic —
//! identical.

use mimir_bench::sweep::{BFS_STACK, STACK};
use mimir_bench::{emit, sweep, App, Args, Axis, Platform, WcDataset};

fn main() {
    let args = Args::parse();
    let nodes = args.node_counts(&[2, 4, 8, 16, 32, 64, 128]);
    let full = Platform::mira_mini();
    let p = full.thin(2);
    // Paper per-node workloads are "the maximum dataset sizes that the
    // Mimir baseline implementation can process on each node" (2 GB,
    // 2^27 points, 2^22 vertices on 16 ranks). Scaled ÷1024 and expressed
    // per rank, then nudged to sit at the scaled baseline's actual
    // in-memory maximum so the same brink the paper starts from is
    // reproduced.
    let wc_bytes_per_rank = 160 << 10;
    let oc_points_per_rank = 1 << 14;
    // 2^12 vertices over 16 ranks: 2^8 a rank.
    let bfs_scale_per_rank = 12 - full.ranks_per_node.ilog2();
    let panels = [
        (
            "wc-uniform",
            "WC (uniform)",
            App::Wc(WcDataset::Uniform, wc_bytes_per_rank),
            &STACK[..],
        ),
        (
            "wc-wikipedia",
            "WC (wikipedia)",
            App::Wc(WcDataset::Wikipedia, wc_bytes_per_rank),
            &STACK,
        ),
        ("oc", "OC", App::Oc(oc_points_per_rank), &STACK),
        ("bfs", "BFS", App::Bfs(bfs_scale_per_rank), &BFS_STACK),
    ];
    let figs: Vec<_> = panels
        .into_iter()
        .map(|(id, app, share, series)| {
            sweep(
                &format!("fig14-{id}"),
                &format!("Weak scaling of optimizations, {app}, Mira"),
                &p,
                &Axis::nodes(&p, &nodes, share),
                series,
            )
        })
        .collect();
    emit(&args, &figs);
}
