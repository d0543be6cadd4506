//! **Figure 13** — "Performance of different optimizations on one Mira
//! node": Mimir's optimization staircase — baseline, +KV-hint,
//! +partial-reduction, +KV-compression — on the four benchmark datasets.
//! Paper shapes: each step lowers the peak for WC and OC (4× larger max
//! dataset with the full stack); BFS benefits from the hint only (no pr
//! for a map-only job; cps cannot move its partition-phase peak).

use mimir_apps::bfs::BfsOptions;
use mimir_apps::octree::OcOptions;
use mimir_apps::wordcount::WcOptions;
use mimir_bench::runner::WcDataset;
use mimir_bench::sweeps::{bfs_figure, oc_figure, wc_figure, BfsSeries, OcSeries, WcSeries};
use mimir_bench::{print_figure, write_json, HarnessArgs, Platform};

fn main() {
    let args = HarnessArgs::parse();
    let p = Platform::mira_mini();

    let wc = |hint, pr, cps| {
        WcSeries::Mimir(WcOptions {
            hint,
            partial_reduce: pr,
            compress: cps,
        })
    };
    let oc = |hint, pr, cps| {
        OcSeries::Mimir(OcOptions {
            hint,
            partial_reduce: pr,
            compress: cps,
            ..OcOptions::default()
        })
    };
    let wc_series: &[(&str, WcSeries)] = &[
        ("Mimir", wc(false, false, false)),
        ("Mimir (hint)", wc(true, false, false)),
        ("Mimir (hint;pr)", wc(true, true, false)),
        ("Mimir (hint;pr;cps)", wc(true, true, true)),
    ];
    let oc_series: &[(&str, OcSeries)] = &[
        ("Mimir", oc(false, false, false)),
        ("Mimir (hint)", oc(true, false, false)),
        ("Mimir (hint;pr)", oc(true, true, false)),
        ("Mimir (hint;pr;cps)", oc(true, true, true)),
    ];
    // "The BFS algorithm used by Mimir does not support the
    // partial-reduction optimization."
    let bfs_series: &[(&str, BfsSeries)] = &[
        ("Mimir", BfsSeries::Mimir(BfsOptions::default())),
        (
            "Mimir (hint)",
            BfsSeries::Mimir(BfsOptions {
                hint: true,
                compress: false,
            }),
        ),
        ("Mimir (hint;cps)", BfsSeries::Mimir(BfsOptions::all())),
    ];

    let wc_sizes: &[usize] = if args.quick {
        &[256 << 10, 1 << 20]
    } else {
        // Up to 4× past the baseline's last in-memory point (8M), so the
        // full stack's "4× larger datasets" is measured, not implied.
        &[
            256 << 10,
            512 << 10,
            1 << 20,
            2 << 20,
            4 << 20,
            8 << 20,
            16 << 20,
            32 << 20,
        ]
    };
    let oc_points: &[u32] = if args.quick {
        &[14, 16]
    } else {
        &[14, 15, 16, 17, 18, 19]
    };
    let bfs_scales: &[u32] = if args.quick {
        &[8, 10]
    } else {
        &[8, 9, 10, 11, 12, 13]
    };

    let figs = [
        wc_figure(
            "fig13a",
            "Optimization stack, WC (Uniform), Mira",
            &p,
            1,
            WcDataset::Uniform,
            wc_sizes,
            wc_series,
        ),
        wc_figure(
            "fig13b",
            "Optimization stack, WC (Wikipedia), Mira",
            &p,
            1,
            WcDataset::Wikipedia,
            wc_sizes,
            wc_series,
        ),
        oc_figure(
            "fig13c",
            "Optimization stack, OC, Mira",
            &p,
            1,
            oc_points,
            oc_series,
        ),
        bfs_figure(
            "fig13d",
            "Optimization stack, BFS, Mira",
            &p,
            1,
            bfs_scales,
            bfs_series,
        ),
    ];
    for fig in &figs {
        print_figure(fig);
    }
    if let Some(path) = &args.json {
        for fig in &figs {
            write_json(&format!("{path}.{}.json", fig.id), fig);
        }
    }
}
