//! **Figure 7** — "KV size of WordCount with Wikipedia dataset": total
//! intermediate KV bytes with and without the KV-hint, at three dataset
//! sizes. The paper measures a ~26 % saving (the 8-byte header becomes a
//! 1-byte NUL terminator next to a word of mean length ~10).
//!
//! Scaled sweep: 8 MB / 16 MB / 32 MB on comet-mini.

use mimir_bench::{emit, sweep, App, Args, Axis, Opts, Platform, System, WcDataset};

fn main() {
    let args = Args::parse();
    let p = Platform::comet_mini();
    let sizes: &[usize] = if args.quick {
        &[1 << 20, 2 << 20]
    } else {
        &[8 << 20, 16 << 20, 32 << 20]
    };
    // pr keeps the largest size in memory; it does not change the
    // emitted-KV-bytes metric this figure plots.
    let pr = |hint| {
        System::Mimir(Opts {
            hint,
            pr: true,
            cps: false,
        })
    };
    let fig = sweep(
        "fig07",
        "KV bytes of WC (Wikipedia) with/without KV-hint (paper Fig. 7)",
        &p,
        &Axis::sizes(sizes.iter().map(|&b| App::Wc(WcDataset::Wikipedia, b))),
        &[("without KV-hint", pr(false)), ("with KV-hint", pr(true))],
    );

    println!("\n=== fig07 — KV size (MiB) ===");
    println!(
        "{:<10}{:>20}{:>20}{:>12}",
        "dataset", "without hint", "with hint", "saving"
    );
    for (plain, hinted) in fig.series[0].points.iter().zip(&fig.series[1].points) {
        let (plain_kv, hinted_kv) = (plain.outcome.kv_bytes, hinted.outcome.kv_bytes);
        println!(
            "{:<10}{:>20.2}{:>20.2}{:>11.1}%",
            plain.x,
            plain_kv as f64 / (1 << 20) as f64,
            hinted_kv as f64 / (1 << 20) as f64,
            100.0 * (1.0 - hinted_kv as f64 / plain_kv as f64)
        );
    }
    println!("(paper reports ~26% saving at 8G/16G/32G)");
    emit(&args, &[fig]);
}
