//! **Figure 11** — "Performance of KV compression on one Comet node":
//! Mimir and MR-MPI each with and without their KV-compression paths, on
//! all four benchmark datasets. The paper's shapes: compression lowers
//! *Mimir's* peak (freed container pages are reclaimed) and extends its
//! maximum in-memory dataset; MR-MPI's footprint is unchanged (fixed page
//! sets) so compression only shrinks the shuffled bytes; BFS's peak is
//! unchanged for both (its peak lives in the partitioning phase).

use mimir_bench::{emit, panels, Args, Opts, Platform, System};

fn main() {
    let args = Args::parse();
    let p = Platform::comet_mini();
    // The paper uses MR-MPI's maximum page size here, "because the
    // increased page size allows MR-MPI to support larger datasets".
    let page = p.mrmpi_page_large;
    let series = [
        ("Mimir", System::Mimir(Opts::BASE)),
        ("Mimir (cps)", System::Mimir(Opts::BASE.cps())),
        ("MR-MPI", System::mrmpi(page, false)),
        ("MR-MPI (cps)", System::mrmpi(page, true)),
    ];
    let sizes: (&[usize], &[u32], &[u32]) = if args.quick {
        (&[512 << 10, 4 << 20], &[15, 18], &[10, 13])
    } else {
        (
            &[
                512 << 10,
                1 << 20,
                2 << 20,
                4 << 20,
                8 << 20,
                16 << 20,
                32 << 20,
                64 << 20,
            ],
            &[15, 16, 17, 18, 19, 20, 21, 22],
            &[10, 11, 12, 13, 14, 15, 16],
        )
    };
    let title = "KV compression, {app}, Comet";
    let figs = panels("fig11", title, &p, [&series; 3], sizes);
    emit(&args, &figs);
}
