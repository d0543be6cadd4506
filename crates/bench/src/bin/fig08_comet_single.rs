//! **Figure 8** — "Peak memory usage and execution times on one Comet
//! node": baseline Mimir vs MR-MPI (64 M and 512 M pages) across the four
//! benchmark datasets, sweeping dataset size.
//!
//! Paper shapes to reproduce: Mimir uses ≥25 % less memory in the common
//! regime, stays in memory for ~4× larger datasets than the best MR-MPI
//! configuration, and matches its in-memory execution times.

use mimir_bench::{emit, panels, Args, Opts, Platform, System};

fn main() {
    let args = Args::parse();
    let p = Platform::comet_mini();
    let series = [
        ("Mimir", System::Mimir(Opts::BASE)),
        ("MR-MPI (64K)", System::mrmpi(p.mrmpi_page_small, false)),
        ("MR-MPI (512K)", System::mrmpi(p.mrmpi_page_large, false)),
    ];
    let sizes: (&[usize], &[u32], &[u32]) = if args.quick {
        (&[256 << 10, 1 << 20, 4 << 20], &[14, 16, 18], &[9, 11, 13])
    } else {
        (
            &[
                256 << 10,
                512 << 10,
                1 << 20,
                2 << 20,
                4 << 20,
                8 << 20,
                16 << 20,
            ],
            &[14, 15, 16, 17, 18, 19, 20],
            &[9, 10, 11, 12, 13, 14, 15, 16],
        )
    };
    let title = "{app}, one Comet node";
    let figs = panels("fig08", title, &p, [&series; 3], sizes);
    emit(&args, &figs);
}
