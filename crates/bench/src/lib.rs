//! # mimir-bench — figure-reproduction harnesses
//!
//! One binary per table/figure of the paper's evaluation (Section IV),
//! and the gated benches. Each figure binary is a table of platform,
//! series and x values: [`sweep()`] runs every series at every x value
//! through the one [`run`] and assembles the [`Figure`] the binary
//! prints and writes as JSON. The gated benches share [`harness`]. See
//! EXPERIMENTS.md for paper-vs-measured notes.
//!
//! All sizes follow the scaling convention in DESIGN.md: the paper's GB
//! become MB (÷1024), node memory and page sizes scale alike, so the
//! crossover points land at the same ratios.

pub mod harness;
pub mod platforms;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod trace;

pub use harness::Args;
pub use platforms::Platform;
pub use report::{emit, print_figure, DataPoint, Figure, Series};
pub use runner::{run, App, Opts, RunOutcome, Status, System, WcDataset};
pub use sweep::{panels, sweep, Axis, SeriesSpec};
pub use trace::TraceSession;

/// Formats a byte count the way the paper's axes do (256K, 1M, 16M…).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_size;

    #[test]
    fn sizes_format_like_paper_axes() {
        assert_eq!(fmt_size(512), "512");
        assert_eq!(fmt_size(64 << 10), "64K");
        assert_eq!(fmt_size(256 << 10), "256K");
        assert_eq!(fmt_size(1 << 20), "1M");
        assert_eq!(fmt_size(16 << 20), "16M");
        // Non-multiple of MiB falls back to KiB.
        assert_eq!(fmt_size((1 << 20) + (512 << 10)), "1536K");
    }
}
