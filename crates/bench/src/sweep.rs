//! The one sweep behind every figure: run each series at each x value
//! with [`run`] and assemble a [`Figure`]. A figure binary is its table
//! of platform, series and x values.

use crate::report::{DataPoint, Figure, Series};
use crate::runner::{run, App, Opts, System, WcDataset};
use crate::Platform;

/// One line of a figure: its legend label and the system it runs.
pub type SeriesSpec<'a> = (&'a str, System);

/// Mimir's optimization staircase on WC and OC (Figs 13 and 14).
pub const STACK: [SeriesSpec; 4] = [
    ("Mimir", System::Mimir(Opts::BASE)),
    ("Mimir (hint)", System::Mimir(Opts::BASE.hint())),
    ("Mimir (hint;pr)", System::Mimir(Opts::BASE.hint().pr())),
    (
        "Mimir (hint;pr;cps)",
        System::Mimir(Opts::BASE.hint().pr().cps()),
    ),
];

/// The staircase on BFS: "The BFS algorithm used by Mimir does not
/// support the partial-reduction optimization."
pub const BFS_STACK: [SeriesSpec; 3] = [
    ("Mimir", System::Mimir(Opts::BASE)),
    ("Mimir (hint)", System::Mimir(Opts::BASE.hint())),
    ("Mimir (hint;cps)", System::Mimir(Opts::BASE.hint().cps())),
];

/// A figure's x axis: its name, and per value the label, the node count
/// and the workload run there.
#[derive(Debug, Clone)]
pub struct Axis {
    name: &'static str,
    points: Vec<(String, usize, App)>,
}

impl Axis {
    /// One node, one app at growing sizes; the axis is named after the
    /// app's size unit.
    pub fn sizes(apps: impl IntoIterator<Item = App>) -> Axis {
        let mut name = "";
        let points = apps
            .into_iter()
            .map(|app| {
                let (axis, x) = app.size_axis();
                name = axis;
                (x, 1, app)
            })
            .collect();
        Axis { name, points }
    }

    /// Weak scaling: `share` per rank of `p` at each node count, so the
    /// per-rank ratios that decide who runs out of memory hold at every
    /// point.
    pub fn nodes(p: &Platform, counts: &[usize], share: App) -> Axis {
        Axis {
            name: "nodes",
            points: counts
                .iter()
                .map(|&n| (n.to_string(), n, share.times(p.ranks(n))))
                .collect(),
        }
    }
}

/// Runs every series of `series` at every point of `axis` on `p`.
pub fn sweep(id: &str, title: &str, p: &Platform, axis: &Axis, series: &[SeriesSpec]) -> Figure {
    let series = series
        .iter()
        .map(|&(label, system)| {
            let points = axis
                .points
                .iter()
                .map(|(x, nodes, app)| {
                    let outcome = run(p, *nodes, *app, system);
                    eprintln!("  {id} {label} {x}: {:?}", outcome.status);
                    DataPoint {
                        x: x.clone(),
                        outcome,
                    }
                })
                .collect();
            Series {
                label: label.into(),
                points,
            }
        })
        .collect();
    Figure {
        id: id.into(),
        title: title.into(),
        xlabel: axis.name.into(),
        series,
    }
}

/// Panels a–d of a single-node figure — WC (Uniform), WC (Wikipedia),
/// OC and BFS — titled by `title` with `{app}` replaced by the panel's
/// workload. `series` holds the WC, OC and BFS lines; `sizes` the WC
/// bytes, log2 OC points and BFS scales.
pub fn panels(
    id: &str,
    title: &str,
    p: &Platform,
    series: [&[SeriesSpec]; 3],
    (wc_bytes, oc_log2_points, bfs_scales): (&[usize], &[u32], &[u32]),
) -> Vec<Figure> {
    let wc = |dataset| Axis::sizes(wc_bytes.iter().map(|&b| App::Wc(dataset, b)));
    let oc = Axis::sizes(oc_log2_points.iter().map(|&lg| App::Oc(1 << lg)));
    let bfs = Axis::sizes(bfs_scales.iter().map(|&s| App::Bfs(s)));
    [
        ("a", "WC (Uniform)", series[0], wc(WcDataset::Uniform)),
        ("b", "WC (Wikipedia)", series[0], wc(WcDataset::Wikipedia)),
        ("c", "OC", series[1], oc),
        ("d", "BFS", series[2], bfs),
    ]
    .iter()
    .map(|(panel, app, series, axis)| {
        let title = title.replace("{app}", app);
        sweep(&format!("{id}{panel}"), &title, p, axis, series)
    })
    .collect()
}
