//! The metric tables: every name this benchmark prints, with its unit and
//! direction. `BENCHMARK.json` mirrors them; a unit test keeps both in
//! step. What each per-layer metric should move is in `README.md`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Which of a run's timed repeats stands for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerRun {
    Median,
    Fastest,
}

/// An end-to-end metric: what a user of the system sees, the one value a
/// run reports for it, and the share of the base median by which it may
/// worsen before that counts as a regression.
#[derive(Debug)]
pub struct EndToEnd {
    pub metric: Metric,
    pub per_run: PerRun,
    pub bound: f64,
}

/// End-to-end metrics, all measured with tracing off. `failure_share` is
/// the fourth; it is 0 on a healthy run, so it travels as the driver's
/// `failed`/`attempted` pair instead of as a metric that must never be 0.
///
/// `job_wall_s` reports the fastest repeat: the reference box is a shared
/// virtual machine whose host slows it for seconds at a time, and a slow
/// spell lifts every repeat it touches, so the median of a run's repeats
/// moved by 4–14 % from run to run while the fastest repeat — the job as
/// the program, not the host, makes it — moved by 4–7 %. `README.md`
/// ("Noise") derives the bounds; `BENCHMARK.json` states the same.
pub const E2E: [EndToEnd; 3] = [
    EndToEnd {
        metric: lower("setup_s", "s"),
        per_run: PerRun::Median,
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("job_wall_s", "s"),
        per_run: PerRun::Fastest,
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("peak_node_bytes", "B"),
        per_run: PerRun::Median,
        bound: 0.10,
    },
];

impl EndToEnd {
    /// The value a run reports, from the summary of its timed repeats.
    pub fn run_value(&self, repeats: &crate::stats::Summary) -> f64 {
        match self.per_run {
            PerRun::Median => repeats.median,
            PerRun::Fastest => repeats.min,
        }
    }
}

/// Per-layer metrics of a traced run, in print order.
pub const LAYERS: &[Metric] = &[
    // Machine references: what the same box does with no framework.
    higher("ref.memcpy_gb_s", "GB/s"),
    lower("ref.channel_pingpong_us", "us"),
    lower("ref.uds_pingpong_us", "us"),
    higher("ref.uds_stream_mb_s", "MB/s"),
    // mpi, per transport.
    lower("mpi.inproc.spawn_s", "s"),
    lower("mpi.inproc.pingpong_us", "us"),
    higher("mpi.inproc.stream_mb_s", "MB/s"),
    higher("mpi.inproc.alltoallv_mb_s", "MB/s"),
    lower("mpi.inproc.allreduce_us", "us"),
    lower("mpi.inproc.barrier_us", "us"),
    higher("mpi.inproc.pingpong_of_ref", "ratio"),
    higher("mpi.inproc.stream_of_memcpy", "ratio"),
    higher("mpi.inproc.alltoallv_of_memcpy", "ratio"),
    lower("mpi.uds.spawn_s", "s"),
    lower("mpi.uds.pingpong_us", "us"),
    higher("mpi.uds.stream_mb_s", "MB/s"),
    higher("mpi.uds.alltoallv_mb_s", "MB/s"),
    lower("mpi.uds.allreduce_us", "us"),
    lower("mpi.uds.barrier_us", "us"),
    higher("mpi.uds.pingpong_of_ref", "ratio"),
    higher("mpi.uds.stream_of_ref", "ratio"),
    higher("mpi.uds.alltoallv_of_ref", "ratio"),
    // mem and core primitives.
    lower("mem.page_cycle_ns", "ns"),
    lower("mem.reserve_ns", "ns"),
    lower("core.group.insert_unique_ns", "ns"),
    lower("core.group.insert_dup_ns", "ns"),
    higher("core.kvc.push_run_mb_s", "MB/s"),
    lower("core.cache.cycle_us", "us"),
    // The comparator, informational.
    lower("mrmpi.wc_wall_s", "s"),
    higher("mrmpi.speedup", "ratio"),
    // Staged replay of the workload's job shape.
    lower("datagen.write_s", "s"),
    lower("io.tokenize_s", "s"),
    higher("io.tokenize_mb_s", "MB/s"),
    lower("core.shuffle.emit_loop_s", "s"),
    lower("core.shuffle.finish_s", "s"),
    lower("core.shuffle.self_s", "s"),
    higher("core.shuffle.mb_s", "MB/s"),
    higher("core.shuffle.of_memcpy", "ratio"),
    lower("core.shuffle.rounds", "count"),
    lower("mpi.barrier_wait_s", "s"),
    lower("core.convert_s", "s"),
    lower("core.convert.mkv_s", "s"),
    lower("core.convert.unique_keys", "count"),
    lower("core.reduce_s", "s"),
    lower("core.combiner.emit_loop_s", "s"),
    higher("core.combiner.ratio", "ratio"),
    lower("core.partial.finalize_s", "s"),
    lower("apps.collect_s", "s"),
    lower("apps.job_s", "s"),
    lower("apps.kv_bytes", "B"),
    lower("apps.kvs_emitted", "count"),
    lower("apps.rounds", "count"),
    lower("apps.iterations", "count"),
    higher("trace.coverage", "ratio"),
    lower("trace.replay_ratio", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// Arranges measured values in [`LAYERS`] order.
///
/// # Errors
/// A metric of the table has no value, or a value has no metric: the
/// traced run must print exactly the table.
pub fn in_table_order(
    values: Vec<(&'static str, f64)>,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    for (name, _) in &values {
        if !LAYERS.iter().any(|m| m.name == *name) {
            return Err(format!(
                "`{name}` was measured but is not in the metric table"
            ));
        }
    }
    LAYERS
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| (m, *v))
                .ok_or(format!("per-layer metric `{}` was not measured", m.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, String)> {
        metrics
            .map(|m| {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract later changes are judged by; it
    /// must say what this program prints.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        assert_eq!(
            names(&doc, "end_to_end"),
            table(E2E.iter().map(|e| &e.metric))
        );
        assert_eq!(names(&doc, "per_layer"), table(LAYERS.iter()));

        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, E2E.iter().map(|e| e.bound).collect::<Vec<_>>());

        let ws = workloads::all();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, ws.iter().map(|w| w.name).collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in E2E.iter().map(|e| &e.metric).chain(LAYERS) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        assert!(LAYERS.len() <= 128);
    }

    #[test]
    fn table_order_rejects_missing_and_unknown_metrics() {
        let all: Vec<(&'static str, f64)> = LAYERS.iter().map(|m| (m.name, 1.0)).collect();
        assert_eq!(in_table_order(all.clone()).unwrap().len(), LAYERS.len());
        assert!(in_table_order(all[1..].to_vec()).is_err());
        let mut extra = all;
        extra.push(("not.a.metric", 0.0));
        assert!(in_table_order(extra).is_err());
    }
}
