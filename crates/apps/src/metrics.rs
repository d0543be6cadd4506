use std::time::Duration;

use mimir_core::JobStats;

/// Framework-neutral per-rank metrics collected by every benchmark run —
/// the quantities the paper's figures plot.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    /// Measured compute wall time on this rank (excludes modeled I/O,
    /// which the harness adds from the shared `IoModel`).
    pub wall: Duration,
    /// Peak bytes on this rank's node pool.
    pub node_peak: usize,
    /// Intermediate KV bytes emitted (paper Figure 7's metric).
    pub kv_bytes: u64,
    /// Intermediate KVs emitted.
    pub kvs_emitted: u64,
    /// Whether any data spilled to the I/O subsystem (MR-MPI only; Mimir
    /// fails instead of spilling).
    pub spilled: bool,
    /// Exchange rounds across all stages.
    pub exchange_rounds: u64,
    /// Iterations executed (octree levels, BFS depth; 1 for WordCount).
    pub iterations: u32,
    /// Unified per-job statistics, folded across the run's stages by
    /// [`Self::add_stage`]. MR-MPI runs report through the same shape via
    /// [`job_stats_from_mr`].
    pub job: JobStats,
}

impl RunMetrics {
    /// Folds one stage of this run into its metrics. Stages run one
    /// after another, so exchange rounds, phase times, waits, traffic,
    /// unique keys and output KVs add up, while the peaks (memory, and
    /// the per-round and skew high-water marks) take the max. The
    /// scalars [`Self::kv_bytes`], [`Self::kvs_emitted`] and
    /// [`Self::exchange_rounds`] are the folded shuffle's.
    pub fn add_stage(&mut self, stage: &JobStats) {
        let job = &mut self.job;
        let rounds = job.shuffle.rounds + stage.shuffle.rounds;
        job.shuffle.merge(&stage.shuffle);
        job.shuffle.rounds = rounds;
        job.group.merge(&stage.group);
        job.map_time += stage.map_time;
        job.convert_time += stage.convert_time;
        job.reduce_time += stage.reduce_time;
        job.unique_keys += stage.unique_keys;
        job.kvs_out += stage.kvs_out;
        job.barrier_wait_ns += stage.barrier_wait_ns;
        job.node_peak_bytes = job.node_peak_bytes.max(stage.node_peak_bytes);
        job.map_peak_bytes = job.map_peak_bytes.max(stage.map_peak_bytes);
        job.convert_peak_bytes = job.convert_peak_bytes.max(stage.convert_peak_bytes);
        job.reduce_peak_bytes = job.reduce_peak_bytes.max(stage.reduce_peak_bytes);
        self.kv_bytes = job.shuffle.kv_bytes_emitted;
        self.kvs_emitted = job.shuffle.kvs_emitted;
        self.exchange_rounds = job.shuffle.rounds;
    }
}

/// Maps the MR-MPI baseline's stats onto the unified [`JobStats`] shape
/// so both frameworks report through the same registry. MR-MPI's
/// explicit aggregate and compress phases are folded into map time,
/// where Mimir interleaves them; the mapped dataset is what its
/// aggregate shuffles.
pub fn job_stats_from_mr(s: &mrmpi::MrStats) -> JobStats {
    JobStats {
        map_time: s.map_time + s.aggregate_time + s.compress_time,
        convert_time: s.convert_time,
        reduce_time: s.reduce_time,
        shuffle: mimir_obs::ShuffleCounters {
            kvs_emitted: s.kvs_mapped,
            kv_bytes_emitted: s.kv_bytes_mapped,
            rounds: s.exchange_rounds,
            ..mimir_obs::ShuffleCounters::default()
        },
        unique_keys: s.unique_keys,
        kvs_out: s.kvs_reduced,
        node_peak_bytes: s.node_peak_bytes,
        ..JobStats::default()
    }
}
