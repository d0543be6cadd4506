//! **Figure 1** — "Single-node execution time of WordCount with MR-MPI on
//! Comet": the out-of-core cliff. Once the dataset's intermediate KVs no
//! longer fit MR-MPI's static pages, every page round-trips through the
//! shared parallel file system and execution time degrades by orders of
//! magnitude (the paper reports ~1000× from 4 GB to 64 GB).
//!
//! Scaled sweep: 1 MB–64 MB on comet-mini with MR-MPI's *large* pages —
//! the paper's curve stays in memory until ~4 GB, which is the 512 MB-page
//! regime.

use mimir_bench::report::degradation;
use mimir_bench::{emit, sweep, App, Args, Axis, Platform, System, WcDataset};

fn main() {
    let args = Args::parse();
    let p = Platform::comet_mini();
    let sizes: &[usize] = if args.quick {
        &[1 << 20, 2 << 20, 4 << 20, 8 << 20]
    } else {
        &[
            1 << 20,
            2 << 20,
            4 << 20,
            8 << 20,
            16 << 20,
            32 << 20,
            64 << 20,
        ]
    };
    let series = [(
        "MR-MPI (512K)",
        System::MrMpi {
            page: p.mrmpi_page_large,
            cps: false,
        },
    )];
    let fig = sweep(
        "fig01",
        "MR-MPI WordCount single-node cliff (paper Fig. 1)",
        &p,
        &Axis::sizes(sizes.iter().map(|&b| App::Wc(WcDataset::Uniform, b))),
        &series,
    );
    emit(&args, std::slice::from_ref(&fig));
    // The headline number: degradation between the largest in-memory
    // point and the largest spilled point.
    if let Some((in_mem, spilled)) = degradation(&fig) {
        println!(
            "\ndegradation: {:.0}x (in-memory {in_mem:.3}s -> spilled {spilled:.1}s; paper reports ~1000x)",
            spilled / in_mem
        );
    }
}
