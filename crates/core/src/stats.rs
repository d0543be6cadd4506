use std::time::Duration;

use mimir_obs::{GroupCounters, JobCounters, PhasePeaks, PhaseTimes, RankReport, ShuffleCounters};

/// Per-rank metrics for one completed job — everything the paper's
/// figures plot.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobStats {
    /// Wall time of the interleaved map+aggregate phases. In the
    /// convert+reduce shapes this includes grouping on arrival: every
    /// received KV is hashed and interned, and its value appended to its
    /// group's chunk chain, in the shuffle drain (see
    /// [`crate::GroupedKvs`]).
    pub map_time: Duration,
    /// Wall time of the convert phase: sealing the chains into the KMVC,
    /// which copies no value. Zero under partial reduction and the
    /// map-only shapes.
    pub convert_time: Duration,
    /// Wall time of the reduce phase (or the fold finalization).
    pub reduce_time: Duration,
    /// Shuffle counters (emitted KVs/bytes, rounds, waits).
    pub shuffle: ShuffleCounters,
    /// Grouping-engine counters (the on-arrival group index, combiner,
    /// or partial-reduction fold table). The on-arrival index grows — and
    /// emits its rehash events — during the map phase.
    pub group: GroupCounters,
    /// Unique keys after grouping (KMV groups or fold-table entries).
    pub unique_keys: u64,
    /// Node-pool peak observed at job end, in bytes. This is the
    /// "peak memory usage" metric of Figures 8/9/11/12/13 (max across the
    /// ranks sharing the node).
    pub node_peak_bytes: usize,
    /// Node-pool peak observed within the map+aggregate phases (the
    /// on-arrival chunk chains and group index included).
    pub map_peak_bytes: usize,
    /// Node-pool peak observed within the convert phase: the grouped
    /// chains at seal. Zero under partial reduction and the map-only
    /// shapes, which have no convert.
    pub convert_peak_bytes: usize,
    /// Node-pool peak observed within the reduce phase (or the fold
    /// finalization).
    pub reduce_peak_bytes: usize,
    /// KVs produced into the job output.
    pub kvs_out: u64,
    /// Time this rank spent blocked in the explicit phase barriers (the
    /// map→reduce synchronization the paper retains, plus the reduce
    /// exit barrier). High values on most ranks point at one straggler;
    /// the rank with the *smallest* barrier wait is the critical rank.
    pub barrier_wait_ns: u64,
}

impl JobStats {
    /// Folds another rank's stats into this one for cluster totals.
    ///
    /// Phase times take the max: phases end at barriers, so the slowest
    /// rank defines the wall time. Traffic counters, unique keys, and
    /// output KVs sum (keys are partitioned across ranks). Peaks take
    /// the max — ranks on one node share the pool, so summing would
    /// count the same bytes once per rank.
    pub fn merge(&mut self, other: &JobStats) {
        self.map_time = self.map_time.max(other.map_time);
        self.convert_time = self.convert_time.max(other.convert_time);
        self.reduce_time = self.reduce_time.max(other.reduce_time);
        self.shuffle.merge(&other.shuffle);
        self.group.merge(&other.group);
        self.unique_keys += other.unique_keys;
        self.node_peak_bytes = self.node_peak_bytes.max(other.node_peak_bytes);
        self.map_peak_bytes = self.map_peak_bytes.max(other.map_peak_bytes);
        self.convert_peak_bytes = self.convert_peak_bytes.max(other.convert_peak_bytes);
        self.reduce_peak_bytes = self.reduce_peak_bytes.max(other.reduce_peak_bytes);
        self.kvs_out += other.kvs_out;
        self.barrier_wait_ns += other.barrier_wait_ns;
    }

    /// Writes the job's sections of `report`: shuffle and grouping
    /// counters, phase times and peaks, and the job counters. The
    /// transport's section ([`mimir_mpi::Comm::stats`]) and the pool's
    /// (`MemStats::counters`) come from their own layers.
    pub fn fill_report(&self, report: &mut RankReport) {
        report.shuffle = self.shuffle;
        report.group = self.group;
        report.times = PhaseTimes {
            map_s: self.map_time.as_secs_f64(),
            aggregate_s: 0.0,
            convert_s: self.convert_time.as_secs_f64(),
            reduce_s: self.reduce_time.as_secs_f64(),
        };
        report.peaks = PhasePeaks {
            map_bytes: self.map_peak_bytes as u64,
            convert_bytes: self.convert_peak_bytes as u64,
            reduce_bytes: self.reduce_peak_bytes as u64,
        };
        report.job = JobCounters {
            unique_keys: self.unique_keys,
            kvs_out: self.kvs_out,
            node_peak_bytes: self.node_peak_bytes as u64,
            barrier_wait_ns: self.barrier_wait_ns,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_traffic_and_maxes_times_and_peaks() {
        let mut a = JobStats {
            map_time: Duration::from_millis(10),
            reduce_time: Duration::from_millis(3),
            shuffle: ShuffleCounters {
                kvs_emitted: 100,
                kv_bytes_emitted: 1000,
                kvs_received: 90,
                rounds: 4,
                bytes_received: 1000,
                max_round_recv_bytes: 300,
                sync_wait_ns: 50,
                data_wait_ns: 20,
                max_dest_bytes: 400,
                imbalance_permille: 1200,
                gini_permille: 100,
            },
            unique_keys: 7,
            node_peak_bytes: 5000,
            map_peak_bytes: 4000,
            convert_peak_bytes: 4500,
            reduce_peak_bytes: 1000,
            kvs_out: 7,
            ..JobStats::default()
        };
        let b = JobStats {
            map_time: Duration::from_millis(8),
            reduce_time: Duration::from_millis(5),
            shuffle: ShuffleCounters {
                kvs_emitted: 50,
                kv_bytes_emitted: 500,
                kvs_received: 60,
                rounds: 4,
                bytes_received: 600,
                max_round_recv_bytes: 400,
                sync_wait_ns: 30,
                data_wait_ns: 25,
                max_dest_bytes: 350,
                imbalance_permille: 1900,
                gini_permille: 80,
            },
            unique_keys: 3,
            node_peak_bytes: 6000,
            map_peak_bytes: 6000,
            convert_peak_bytes: 100,
            reduce_peak_bytes: 2000,
            kvs_out: 3,
            ..JobStats::default()
        };
        a.merge(&b);
        assert_eq!(a.map_time, Duration::from_millis(10));
        assert_eq!(a.reduce_time, Duration::from_millis(5));
        assert_eq!(a.shuffle.kvs_emitted, 150);
        assert_eq!(a.shuffle.kvs_received, 150);
        assert_eq!(a.shuffle.rounds, 4, "rounds are collective: max, not sum");
        assert_eq!(a.shuffle.bytes_received, 1600);
        assert_eq!(
            a.shuffle.max_round_recv_bytes, 400,
            "per-round high-water: max"
        );
        assert_eq!(a.shuffle.sync_wait_ns, 80, "waits sum");
        assert_eq!(a.shuffle.data_wait_ns, 45);
        assert_eq!(a.shuffle.max_dest_bytes, 400, "skew high-water: max");
        assert_eq!(a.shuffle.imbalance_permille, 1900);
        assert_eq!(a.shuffle.gini_permille, 100);
        assert_eq!(a.unique_keys, 10);
        assert_eq!(a.node_peak_bytes, 6000);
        assert_eq!(a.map_peak_bytes, 6000);
        assert_eq!(a.convert_peak_bytes, 4500);
        assert_eq!(a.reduce_peak_bytes, 2000);
        assert_eq!(a.kvs_out, 10);
    }
}
