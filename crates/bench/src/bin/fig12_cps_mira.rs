//! **Figure 12** — "Performance of KV compression on one Mira node": the
//! Figure 11 comparison on the BG/Q preset, where the paper reports Mimir
//! with compression "processing up to 16-fold larger datasets compared
//! with MR-MPI".

use mimir_bench::{emit, panels, Args, Opts, Platform, System};

fn main() {
    let args = Args::parse();
    let p = Platform::mira_mini();
    // Paper: max page for WC (128 M), default page for OC and BFS (the
    // 128 M page set is not even allocatable for those).
    let series = |page| {
        [
            ("Mimir", System::Mimir(Opts::BASE)),
            ("Mimir (cps)", System::Mimir(Opts::BASE.cps())),
            ("MR-MPI", System::mrmpi(page, false)),
            ("MR-MPI (cps)", System::mrmpi(page, true)),
        ]
    };
    let (wc_series, other) = (series(p.mrmpi_page_large), series(p.mrmpi_page_small));
    let sizes: (&[usize], &[u32], &[u32]) = if args.quick {
        (&[256 << 10, 1 << 20], &[14, 16], &[8, 10])
    } else {
        (
            &[256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20],
            &[14, 15, 16, 17, 18, 19],
            &[8, 9, 10, 11, 12, 13],
        )
    };
    let title = "KV compression, {app}, Mira";
    let figs = panels("fig12", title, &p, [&wc_series, &other, &other], sizes);
    emit(&args, &figs);
}
