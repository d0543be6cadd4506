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
    /// Unified per-job statistics, folded across the run's stages via
    /// [`JobStats::merge`], the cross-rank merge: traffic counters sum,
    /// while phase times, peaks and `shuffle.rounds` are per-stage
    /// maxima — read [`Self::exchange_rounds`] for the run's rounds.
    /// MR-MPI runs report through the same shape via
    /// [`job_stats_from_mr`].
    pub job: JobStats,
}

impl RunMetrics {
    /// Merges metrics from a later stage of the same run.
    pub fn absorb(&mut self, other: &RunMetrics) {
        self.wall += other.wall;
        self.node_peak = self.node_peak.max(other.node_peak);
        self.kv_bytes += other.kv_bytes;
        self.kvs_emitted += other.kvs_emitted;
        self.spilled |= other.spilled;
        self.exchange_rounds += other.exchange_rounds;
        self.iterations += other.iterations;
        self.job.merge(&other.job);
    }
}

/// Maps the MR-MPI baseline's stats onto the unified [`JobStats`] shape
/// so both frameworks report through the same registry. MR-MPI's
/// explicit aggregate and compress phases are folded into map time,
/// where Mimir interleaves them.
pub fn job_stats_from_mr(s: &mrmpi::MrStats) -> JobStats {
    JobStats {
        map_time: s.map_time + s.aggregate_time + s.compress_time,
        convert_time: s.convert_time,
        reduce_time: s.reduce_time,
        shuffle: mimir_obs::ShuffleCounters {
            kvs_emitted: s.kvs_mapped,
            rounds: s.exchange_rounds,
            ..mimir_obs::ShuffleCounters::default()
        },
        unique_keys: s.unique_keys,
        node_peak_bytes: s.node_peak_bytes,
        ..JobStats::default()
    }
}
