//! **Figure 13** — "Performance of different optimizations on one Mira
//! node": Mimir's optimization staircase — baseline, +KV-hint,
//! +partial-reduction, +KV-compression — on the four benchmark datasets.
//! Paper shapes: each step lowers the peak for WC and OC (4× larger max
//! dataset with the full stack); BFS benefits from the hint only (no pr
//! for a map-only job; cps cannot move its partition-phase peak).

use mimir_bench::sweep::{BFS_STACK, STACK};
use mimir_bench::{emit, panels, Args, Platform};

fn main() {
    let args = Args::parse();
    let p = Platform::mira_mini();
    let sizes: (&[usize], &[u32], &[u32]) = if args.quick {
        (&[256 << 10, 1 << 20], &[14, 16], &[8, 10])
    } else {
        (
            // Up to 4× past the baseline's last in-memory point (8M), so
            // the full stack's "4× larger datasets" is measured, not
            // implied.
            &[
                256 << 10,
                512 << 10,
                1 << 20,
                2 << 20,
                4 << 20,
                8 << 20,
                16 << 20,
                32 << 20,
            ],
            &[14, 15, 16, 17, 18, 19],
            &[8, 9, 10, 11, 12, 13],
        )
    };
    let title = "Optimization stack, {app}, Mira";
    let figs = panels("fig13", title, &p, [&STACK, &STACK, &BFS_STACK], sizes);
    emit(&args, &figs);
}
