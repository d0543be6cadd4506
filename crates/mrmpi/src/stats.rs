use std::time::Duration;

/// Per-rank metrics across an MR-MPI job's phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrStats {
    /// Wall time in `map`.
    pub map_time: Duration,
    /// Wall time in `aggregate`.
    pub aggregate_time: Duration,
    /// Wall time in `convert`.
    pub convert_time: Duration,
    /// Wall time in `reduce`.
    pub reduce_time: Duration,
    /// Wall time in `compress`.
    pub compress_time: Duration,
    /// KVs emitted by map callbacks.
    pub kvs_mapped: u64,
    /// Encoded bytes of the KV datasets map callbacks built.
    pub kv_bytes_mapped: u64,
    /// KVs emitted by reduce callbacks.
    pub kvs_reduced: u64,
    /// Exchange rounds in aggregate.
    pub exchange_rounds: u64,
    /// Whether any dataset spilled to the I/O subsystem.
    pub spilled: bool,
    /// Pages written to the I/O subsystem.
    pub spill_pages: u64,
    /// Unique keys after the last convert.
    pub unique_keys: u64,
    /// Node-pool peak at job end.
    pub node_peak_bytes: usize,
}

impl MrStats {
    /// Folds another rank's stats into this one for cluster totals.
    /// Phase times take the max (phases end at barriers), traffic and
    /// spill counters sum, exchange rounds take the max (they are
    /// collective), and pool peaks take the max (ranks share the node
    /// pool).
    pub fn merge(&mut self, other: &MrStats) {
        self.map_time = self.map_time.max(other.map_time);
        self.aggregate_time = self.aggregate_time.max(other.aggregate_time);
        self.convert_time = self.convert_time.max(other.convert_time);
        self.reduce_time = self.reduce_time.max(other.reduce_time);
        self.compress_time = self.compress_time.max(other.compress_time);
        self.kvs_mapped += other.kvs_mapped;
        self.kv_bytes_mapped += other.kv_bytes_mapped;
        self.kvs_reduced += other.kvs_reduced;
        self.exchange_rounds = self.exchange_rounds.max(other.exchange_rounds);
        self.spilled |= other.spilled;
        self.spill_pages += other.spill_pages;
        self.unique_keys += other.unique_keys;
        self.node_peak_bytes = self.node_peak_bytes.max(other.node_peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_semantics() {
        let mut a = MrStats {
            map_time: Duration::from_millis(4),
            kvs_mapped: 10,
            exchange_rounds: 3,
            spill_pages: 2,
            unique_keys: 5,
            node_peak_bytes: 100,
            ..MrStats::default()
        };
        let b = MrStats {
            map_time: Duration::from_millis(6),
            kvs_mapped: 20,
            exchange_rounds: 3,
            spilled: true,
            spill_pages: 1,
            unique_keys: 4,
            node_peak_bytes: 300,
            ..MrStats::default()
        };
        a.merge(&b);
        assert_eq!(a.map_time, Duration::from_millis(6));
        assert_eq!(a.kvs_mapped, 30);
        assert_eq!(a.exchange_rounds, 3, "rounds are collective");
        assert!(a.spilled);
        assert_eq!(a.spill_pages, 3);
        assert_eq!(a.unique_keys, 9);
        assert_eq!(a.node_peak_bytes, 300);
    }
}
