//! Weak scaling of OC and BFS, Mimir vs MR-MPI — the study the paper
//! runs but does not plot: "Scalability studies of OC and BFS on Comet
//! and Mira (not shown in the paper) confirm the conclusions observed
//! for WC." This harness produces those figures so the claim is
//! checkable.
//!
//! Same thinning convention as fig10 (4 ranks/node, per-rank workload
//! share preserved).

use mimir_bench::{emit, sweep, App, Args, Axis, Opts, Platform, System};

fn main() {
    let args = Args::parse();
    let nodes = args.node_counts(&[2, 4, 8, 16, 32, 64]);
    let mut figs = Vec::new();
    for full in [Platform::comet_mini(), Platform::mira_mini()] {
        let p = full.thin(4);
        let series = [
            ("Mimir", System::Mimir(Opts::BASE)),
            ("MR-MPI (64K)", System::mrmpi(p.mrmpi_page_small, false)),
            ("MR-MPI (large)", System::mrmpi(p.mrmpi_page_large, false)),
        ];
        // Per-rank shares mirroring the fig10 WC choice: the largest
        // per-node workload the small-page MR-MPI can hold in memory on
        // balanced data (2^11 points, 2^7 vertices).
        for (app, share) in [("oc", App::Oc(1 << 11)), ("bfs", App::Bfs(7))] {
            figs.push(sweep(
                &format!("scaling-{app}-{}", full.name),
                &format!("Weak scaling, {}, {}", app.to_uppercase(), full.name),
                &p,
                &Axis::nodes(&p, &nodes, share),
                &series,
            ));
        }
    }
    emit(&args, &figs);
}
