//! **Figure 9** — "Peak memory usage and execution times on one Mira
//! node": as Figure 8, on the 16-rank / 16 MiB-node BG/Q preset with
//! MR-MPI pages of 64 K and 128 K. The paper's extra wrinkle: the 128 M
//! page configuration was not even runnable for OC and BFS because the
//! page sets exhaust the node — reproduced here as OOM cells.

use mimir_bench::{emit, panels, Args, Opts, Platform, System};

fn main() {
    let args = Args::parse();
    let p = Platform::mira_mini();
    let series = [
        ("Mimir", System::Mimir(Opts::BASE)),
        ("MR-MPI (64K)", System::mrmpi(p.mrmpi_page_small, false)),
        ("MR-MPI (128K)", System::mrmpi(p.mrmpi_page_large, false)),
    ];
    let sizes: (&[usize], &[u32], &[u32]) = if args.quick {
        (&[64 << 10, 256 << 10, 1 << 20], &[12, 14, 16], &[8, 10])
    } else {
        (
            &[64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20],
            &[12, 13, 14, 15, 16, 17],
            &[8, 9, 10, 11, 12],
        )
    };
    let title = "{app}, one Mira node";
    let figs = panels("fig09", title, &p, [&series; 3], sizes);
    emit(&args, &figs);
}
