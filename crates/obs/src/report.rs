//! The unified per-rank metrics report.
//!
//! The stack accumulates statistics in every layer — communication in
//! `mimir-mpi`, the node pool in `mimir-mem`, the shuffle, grouping
//! engine and cross-job cache in `mimir-core`. A [`RankReport`] gathers all of them (plus the rank's
//! trace events) into one serializable record. Rank 0 collects every
//! rank's report via the `gather` collective at job end and
//! [`RankReport::merge`]s them into cluster-wide totals.
//!
//! Each section is one [`counters!`](crate::counters!) declaration
//! below: the field list, with each field's merge and parse rule, is
//! written once and generates the struct, `merge` and the JSON section.
//! Every crate of the stack depends on this one, so a layer whose
//! counters have this shape — the grouping engine, the
//! cache — uses the section's struct directly; only layers whose own
//! stats differ in shape (pool sizes in `usize`, the shuffle's wait
//! split, the transport's wait/work pair) convert, each with one
//! function in the producing crate.

use crate::event::{Event, EventKind};
use crate::json::{Json, JsonError};

crate::counters! {
    /// Point-to-point and collective communication counters (from
    /// `mimir-mpi`'s `CommStats::counters`).
    pub struct CommCounters {
        /// Point-to-point sends issued.
        sends: u64 [sum, req],
        /// Point-to-point receives completed.
        recvs: u64 [sum, req],
        /// Payload bytes sent point-to-point.
        bytes_sent: u64 [sum, req],
        /// Payload bytes received point-to-point.
        bytes_recvd: u64 [sum, req],
        /// Collective operations participated in.
        collectives: u64 [sum, req],
        /// Payload bytes memcpy'd by the transport (pooled send buffers +
        /// caller-owned receive buffers).
        bytes_copied: u64 [sum, opt],
        /// Heap allocations taken on the send path (pool misses + pooled
        /// buffer growths); flat after warm-up on the zero-copy path.
        send_allocs: u64 [sum, opt],
        /// Bytes put on the wire including framing headers; zero on the
        /// in-process backend (no wire), per-frame overhead on sockets.
        wire_bytes_sent: u64 [sum, opt],
        /// Bytes taken off the wire including framing headers.
        wire_bytes_recvd: u64 [sum, opt],
        /// Frames sent (one per cross-process message on the socket
        /// backend).
        wire_frames_sent: u64 [sum, opt],
        /// Frames received.
        wire_frames_recvd: u64 [sum, opt],
        /// Receive-side buffer-pool misses in the socket readers.
        wire_recv_allocs: u64 [sum, opt],
        /// Nanoseconds spent in transport bootstrap (socket bind / connect
        /// / accept / hello), reported once per rank by its world
        /// communicator.
        handshake_ns: u64 [sum, opt],
    }
}

crate::counters! {
    /// Memory-pool counters (from `mimir-mem`'s `MemStats::counters`).
    /// Node pools are shared by the ranks of a node, so in-use bytes,
    /// peaks and the per-node budget merge by max; flows sum.
    pub struct MemCounters {
        /// Pages handed out.
        pages_allocated: u64 [sum, req],
        /// Pages returned to the free list.
        pages_recycled: u64 [sum, req],
        /// Bytes in use when the report was built.
        bytes_in_use: u64 [max, req],
        /// High-water mark over the whole run.
        peak_bytes: u64 [max, req],
        /// The pool's configured budget in bytes; 0 when the pool is
        /// unlimited (no budget to diagnose headroom against).
        budget_bytes: u64 [max, opt],
        /// Allocation attempts the pool rejected for lack of budget.
        oom_events: u64 [sum, opt],
    }
}

crate::counters! {
    /// Shuffle counters (from `mimir-core`'s `ShuffleStats::counters`).
    /// Rounds are collective — every rank steps through the same ones —
    /// so they merge by max, as do the per-round receive high-water mark
    /// and the skew metrics (the cluster is as skewed as its most skewed
    /// rank).
    pub struct ShuffleCounters {
        /// KVs pushed into the shuffle on this rank.
        kvs_emitted: u64 [sum, req],
        /// Encoded bytes pushed into the shuffle.
        kv_bytes_emitted: u64 [sum, req],
        /// KVs drained out of the shuffle on this rank.
        kvs_received: u64 [sum, req],
        /// Exchange rounds this rank participated in.
        rounds: u64 [max, req],
        /// KV payload bytes spilled to disk.
        spilled_bytes: u64 [sum, req],
        /// Encoded bytes landed in this rank's receive buffer.
        bytes_received: u64 [sum, opt],
        /// Largest single-round receive total — must stay ≤ the receive
        /// buffer capacity (the Section III-B bound).
        max_round_recv_bytes: u64 [max, opt],
        /// Cumulative bytes this rank sent to its hottest destination.
        max_dest_bytes: u64 [max, opt],
        /// Send-side partition imbalance over the whole shuffle: max/mean
        /// of cumulative per-destination bytes, in permille (1000 =
        /// perfectly balanced; 0 = nothing sent).
        imbalance_permille: u64 [max, opt],
        /// Gini coefficient of cumulative per-destination bytes, in
        /// permille (0 = uniform, →1000 = everything to one destination).
        gini_permille: u64 [max, opt],
    }
}

crate::counters! {
    /// The wait-state taxonomy: where one rank's wall-clock went while
    /// the transport was involved. Waits are *rank-nanoseconds blocked on
    /// peers*; work is the transport's own memcpy/encode time. On a
    /// merged report the values are cluster totals (sums), so the
    /// interesting diagnosis signal is the *spread* across the per-rank
    /// reports, which is why exporters keep per-rank lines.
    pub struct WaitCounters {
        /// Every nanosecond blocked at any transport blocking point (recv,
        /// and the internal receives of all collectives). Supersets the
        /// attributed categories below.
        total_wait_ns: u64 [sum, opt],
        /// Transport memcpy/encode nanoseconds (the time behind
        /// `comm.bytes_copied`). Flat under stragglers; grows with volume.
        total_work_ns: u64 [sum, opt],
        /// Blocked in shuffle done-votes — straggler-bound wait: some rank
        /// was still mapping/draining when this one entered the round.
        sync_wait_ns: u64 [sum, opt],
        /// Blocked completing shuffle partition receives — byte-bound
        /// wait: peers were still pushing payload.
        data_wait_ns: u64 [sum, opt],
        /// Blocked in the phase barriers at aggregate/reduce boundaries.
        barrier_wait_ns: u64 [sum, opt],
    }
}

crate::counters! {
    /// Wall-clock seconds spent in each phase on one rank. Phases end at
    /// barriers, so merged times take the max: "how long did the cluster
    /// spend in this phase".
    pub struct PhaseTimes {
        /// Map (+ interleaved aggregate for Mimir).
        map_s: f64 [max, req],
        /// MR-MPI's explicit aggregate.
        aggregate_s: f64 [max, req],
        /// Convert (KV → KMV grouping).
        convert_s: f64 [max, req],
        /// Reduce.
        reduce_s: f64 [max, req],
    }
}

crate::counters! {
    /// Per-phase memory high-water marks in bytes on one rank's node
    /// pool.
    pub struct PhasePeaks {
        /// Peak during map (+ aggregate for Mimir).
        map_bytes: u64 [max, req],
        /// Peak during convert.
        convert_bytes: u64 [max, req],
        /// Peak during reduce.
        reduce_bytes: u64 [max, req],
    }
}

impl PhasePeaks {
    /// The largest of the three phase peaks.
    pub fn max_bytes(&self) -> u64 {
        self.map_bytes
            .max(self.convert_bytes)
            .max(self.reduce_bytes)
    }
}

/// Number of probe-length histogram buckets (0, 1, 2, 3, 4–7, 8–15,
/// 16–31, 32+).
pub const PROBE_HIST_BUCKETS: usize = 8;

crate::counters! {
    /// Counters describing one `mimir-core` `GroupIndex` — the grouping
    /// engine behind grouping on arrival, convert, the combiner and
    /// partial reduction — or the merged tables of a job. Cumulative
    /// across `GroupIndex::clear`, so a streaming combiner's repeated
    /// flushes accumulate rather than reset.
    pub struct GroupCounters {
        /// Keys looked up or inserted (one per KV routed through the
        /// table).
        inserts: u64 [sum, opt],
        /// Total probe steps beyond the home slot across all inserts.
        probes: u64 [sum, opt],
        /// Longest single probe sequence observed.
        max_probe: u64 [max, opt],
        /// Slot-table rebuilds (growth events with at least one live
        /// entry).
        rehashes: u64 [sum, opt],
        /// Bytes of every unique key interned, wherever it is stored
        /// (inline in its entry, in an arena page, or in a jumbo buffer).
        interned_bytes: u64 [sum, opt],
        /// Unique keys (live groups at measurement time, summed over
        /// clears).
        groups: u64 [sum, opt],
        /// Slot-table capacity at measurement time.
        capacity: u64 [max, opt],
        /// Probe-length histogram: buckets 0, 1, 2, 3, 4–7, 8–15, 16–31,
        /// 32+ (see [`GroupCounters::probe_bucket`]).
        probe_hist: [u64; PROBE_HIST_BUCKETS] [sum, opt],
    }
}

impl GroupCounters {
    /// Mean probe steps per insert (0 when nothing was inserted).
    pub fn avg_probe(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.probes as f64 / self.inserts as f64
        }
    }

    /// Live groups over slot capacity (0 when the table never grew).
    pub fn load_factor(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.groups as f64 / self.capacity as f64
        }
    }

    /// The histogram bucket a probe length falls into.
    pub fn probe_bucket(probe: u64) -> usize {
        match probe {
            0..=3 => probe as usize,
            4..=7 => 4,
            8..=15 => 5,
            16..=31 => 6,
            _ => 7,
        }
    }
}

crate::counters! {
    /// Job-level counters (from `mimir-core`'s `JobStats`).
    pub struct JobCounters {
        /// Unique keys grouped on this rank.
        unique_keys: u64 [sum, req],
        /// KVs produced by the reduce callbacks on this rank.
        kvs_out: u64 [sum, req],
        /// Node-pool high-water mark at job end.
        node_peak_bytes: u64 [max, req],
    }
}

crate::counters! {
    /// `mimir-core`'s cross-job KV cache counters: what the rank's cache
    /// did across every job that used it. All zero when no job used
    /// `input_cached`/`output_cached`. Per-rank caches hold disjoint
    /// partitions, so even the resident bytes sum: to the cluster's
    /// total cached footprint, all of it charged to the node budgets.
    pub struct CacheCounters {
        /// Chained inputs found resident.
        hits: u64 [sum, opt],
        /// Lookups of names the cache did not hold (cold starts and
        /// errors).
        misses: u64 [sum, opt],
        /// Shuffles skipped because the input's fingerprint matched the
        /// job's.
        elisions: u64 [sum, opt],
        /// Resident containers spilled to disk under memory pressure.
        evictions: u64 [sum, opt],
        /// Evicted entries transparently reloaded from their spill files.
        reloads: u64 [sum, opt],
        /// Payload bytes currently resident (charged against the pool).
        cached_bytes: u64 [sum, opt],
    }
}

/// One named cross-job cache entry as a rank saw it at report time.
/// Merged reports combine records by name (each rank holds its own
/// partition, so bytes and elisions sum to dataset-wide totals).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheNameRecord {
    /// The user-chosen cache name.
    pub name: String,
    /// Resident payload bytes (0 while evicted or removed).
    pub bytes: u64,
    /// Cumulative elided shuffles against this name.
    pub elisions: u64,
}

impl CacheNameRecord {
    /// Folds another rank's record for the *same name* into this one.
    pub fn merge(&mut self, other: &CacheNameRecord) {
        self.bytes += other.bytes;
        self.elisions += other.elisions;
    }
}

/// Everything one rank knows about a finished job: counters from every
/// layer plus (optionally) the rank's trace events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankReport {
    /// The rank this report describes; after [`merge`](Self::merge),
    /// the number of ranks folded in is tracked by [`Self::ranks`].
    pub rank: u64,
    /// How many rank reports were merged into this one (1 for a fresh
    /// single-rank report).
    pub ranks: u64,
    /// Communication counters.
    pub comm: CommCounters,
    /// Memory-pool counters.
    pub mem: MemCounters,
    /// Shuffle counters.
    pub shuffle: ShuffleCounters,
    /// Wait-state attribution: where this rank's transport time went.
    pub waits: WaitCounters,
    /// Grouping-engine counters.
    pub group: GroupCounters,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
    /// Per-phase memory peaks.
    pub peaks: PhasePeaks,
    /// Job-level counters.
    pub job: JobCounters,
    /// Cross-job KV cache counters.
    pub cache: CacheCounters,
    /// Per-name cache entries. Merged reports combine records by name.
    pub cache_names: Vec<CacheNameRecord>,
    /// Trace events retained by the rank's recorder (empty when tracing
    /// was off, and dropped from merged reports).
    pub events: Vec<Event>,
    /// Events the recorder overwrote on ring overflow.
    pub events_dropped: u64,
}

impl RankReport {
    /// A fresh report for `rank` with all counters zero.
    pub fn new(rank: usize) -> Self {
        RankReport {
            rank: rank as u64,
            ranks: 1,
            ..RankReport::default()
        }
    }

    /// Folds `other` into `self`, producing cluster-wide aggregates: each
    /// counter by its declared merge rule. Per-rank trace events do not
    /// survive merging (a merged report describes the cluster, and traces
    /// stay per-rank in the exporters).
    pub fn merge(&mut self, other: &RankReport) {
        self.ranks += other.ranks;
        self.comm.merge(&other.comm);
        self.mem.merge(&other.mem);
        self.shuffle.merge(&other.shuffle);
        self.waits.merge(&other.waits);
        self.group.merge(&other.group);
        self.times.merge(&other.times);
        self.peaks.merge(&other.peaks);
        self.job.merge(&other.job);
        self.cache.merge(&other.cache);
        for theirs in &other.cache_names {
            if let Some(mine) = self.cache_names.iter_mut().find(|c| c.name == theirs.name) {
                mine.merge(theirs);
            } else {
                self.cache_names.push(theirs.clone());
            }
        }
        self.cache_names.sort_by(|a, b| a.name.cmp(&b.name));
        self.events.clear();
        self.events_dropped += other.events_dropped;
    }

    /// Serializes to a JSON object (see [`Self::from_json`] for the
    /// inverse).
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let cache_names = self.cache_names.iter().map(|c| {
            Json::obj(vec![
                ("name", Json::Str(c.name.clone())),
                ("bytes", num(c.bytes)),
                ("elisions", num(c.elisions)),
            ])
        });
        let events = self
            .events
            .iter()
            .map(|e| Json::Arr(vec![num(e.t_ns), num(e.kind.code()), num(e.a), num(e.b)]));
        Json::obj(vec![
            ("rank", num(self.rank)),
            ("ranks", num(self.ranks)),
            ("comm", self.comm.to_json()),
            ("mem", self.mem.to_json()),
            ("shuffle", self.shuffle.to_json()),
            ("waits", self.waits.to_json()),
            ("group", self.group.to_json()),
            ("times", self.times.to_json()),
            ("peaks", self.peaks.to_json()),
            ("job", self.job.to_json()),
            ("cache", self.cache.to_json()),
            ("cache_names", Json::Arr(cache_names.collect())),
            ("events", Json::Arr(events.collect())),
            ("events_dropped", num(self.events_dropped)),
        ])
    }

    /// Deserializes a report produced by [`Self::to_json`]. Counters
    /// follow their declared parse rules; the keyed cache-name records
    /// postdate the first release and parse leniently. A section this
    /// build no longer writes (a retired one, such as the job service's
    /// `jobs`) is ignored, and an event whose kind code this build does
    /// not know — a retired kind — is skipped, as the JSON-lines ingest
    /// skips unknown kind names.
    ///
    /// # Errors
    /// Missing or mistyped required fields, or a malformed event.
    pub fn from_json(v: &Json) -> Result<RankReport, JsonError> {
        let err = |msg: &str| JsonError {
            msg: msg.into(),
            at: 0,
        };
        let items = |key: &str| match v.get(key) {
            Some(Json::Arr(items)) => items.as_slice(),
            _ => &[],
        };
        let cache_names = items("cache_names")
            .iter()
            .map(|item| CacheNameRecord {
                name: item
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                bytes: item.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                elisions: item.get("elisions").and_then(Json::as_u64).unwrap_or(0),
            })
            .collect();
        let mut events = Vec::new();
        for item in items("events") {
            let cols = item.as_arr().ok_or_else(|| err("event is not an array"))?;
            if cols.len() != 4 {
                return Err(err("event needs 4 columns"));
            }
            let num = |i: usize| {
                cols[i]
                    .as_u64()
                    .ok_or_else(|| err("event column is not a number"))
            };
            let Some(kind) = EventKind::from_code(num(1)?) else {
                continue;
            };
            events.push(Event {
                t_ns: num(0)?,
                kind,
                a: num(2)?,
                b: num(3)?,
            });
        }
        let top = |key: &str| crate::counters::req::<u64>(v, "", key);
        Ok(RankReport {
            rank: top("rank")?,
            ranks: top("ranks")?,
            comm: CommCounters::from_json(v, "comm")?,
            mem: MemCounters::from_json(v, "mem")?,
            shuffle: ShuffleCounters::from_json(v, "shuffle")?,
            waits: WaitCounters::from_json(v, "waits")?,
            group: GroupCounters::from_json(v, "group")?,
            times: PhaseTimes::from_json(v, "times")?,
            peaks: PhasePeaks::from_json(v, "peaks")?,
            job: JobCounters::from_json(v, "job")?,
            cache: CacheCounters::from_json(v, "cache")?,
            cache_names,
            events,
            events_dropped: top("events_dropped")?,
        })
    }

    /// Serializes to a compact single-line JSON string (the gather
    /// payload and the JSON-lines record format).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a string produced by [`Self::to_json_string`].
    ///
    /// # Errors
    /// Malformed JSON or missing fields.
    pub fn from_json_string(s: &str) -> Result<RankReport, JsonError> {
        RankReport::from_json(&Json::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample(rank: u64) -> RankReport {
        RankReport {
            rank,
            ranks: 1,
            comm: CommCounters {
                sends: 10 + rank,
                recvs: 9,
                bytes_sent: 1000,
                bytes_recvd: 900,
                collectives: 4,
                bytes_copied: 1700,
                send_allocs: 3 + rank,
                wire_bytes_sent: 1200 + rank,
                wire_bytes_recvd: 1100,
                wire_frames_sent: 12,
                wire_frames_recvd: 11,
                wire_recv_allocs: 2,
                handshake_ns: 5000 + rank,
            },
            mem: MemCounters {
                pages_allocated: 8,
                pages_recycled: 8,
                bytes_in_use: 64 << 10,
                peak_bytes: 1 << 20,
                budget_bytes: 4 << 20,
                oom_events: rank,
            },
            shuffle: ShuffleCounters {
                kvs_emitted: 100 * (rank + 1),
                kv_bytes_emitted: 800,
                kvs_received: 100,
                rounds: 2 + rank,
                spilled_bytes: 256 + rank,
                bytes_received: 850,
                max_round_recv_bytes: 400 + rank,
                max_dest_bytes: 600 + rank,
                imbalance_permille: 1000 + 100 * rank,
                gini_permille: 50 * rank,
            },
            waits: WaitCounters {
                total_wait_ns: 90_000 + rank,
                total_work_ns: 8_000,
                sync_wait_ns: 60_000 * (rank + 1),
                data_wait_ns: 20_000,
                barrier_wait_ns: 10_000,
            },
            group: GroupCounters {
                inserts: 200 * (rank + 1),
                probes: 40,
                max_probe: 3 + rank,
                rehashes: 5,
                interned_bytes: 640,
                groups: 50,
                capacity: 128,
                probe_hist: [150, 30, 10, 5, 5, 2, 1, rank],
            },
            times: PhaseTimes {
                map_s: 0.5 + rank as f64,
                aggregate_s: 0.0625,
                convert_s: 0.25,
                reduce_s: 0.125,
            },
            peaks: PhasePeaks {
                map_bytes: 1 << 19,
                convert_bytes: 1 << 20,
                reduce_bytes: 1 << 18,
            },
            job: JobCounters {
                unique_keys: 50,
                kvs_out: 50,
                node_peak_bytes: 1 << 20,
            },
            cache: CacheCounters {
                hits: 6 + rank,
                misses: 1,
                elisions: 5 * (rank + 1),
                evictions: rank,
                reloads: rank,
                cached_bytes: 4096 * (rank + 1),
            },
            cache_names: vec![CacheNameRecord {
                name: "pr".into(),
                bytes: 4096 * (rank + 1),
                elisions: 5 * (rank + 1),
            }],
            events: vec![Event {
                t_ns: 42,
                kind: EventKind::MemSample,
                a: 1,
                b: 2,
            }],
            events_dropped: 2 + rank,
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample(3);
        let back = RankReport::from_json_string(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = sample(0);
        let b = sample(1);
        a.merge(&b);
        assert_eq!(a.ranks, 2);
        assert_eq!(a.comm.sends, 10 + 11);
        assert_eq!(a.shuffle.kvs_emitted, 100 + 200);
        assert_eq!(a.shuffle.rounds, 3, "rounds take the max, not the sum");
        assert_eq!(a.mem.peak_bytes, 1 << 20, "peaks take the max");
        assert_eq!(a.mem.oom_events, 1, "oom events sum");
        assert_eq!(
            a.waits.sync_wait_ns,
            60_000 + 120_000,
            "waits sum into cluster rank-nanoseconds"
        );
        assert_eq!(
            a.shuffle.imbalance_permille, 1100,
            "skew takes the most skewed rank"
        );
        assert_eq!(a.job.unique_keys, 100);
        assert!((a.times.map_s - 1.5).abs() < 1e-12, "times take the max");
        assert_eq!(a.cache.elisions, 5 + 10, "cache counters sum");
        assert_eq!(
            a.cache.cached_bytes,
            4096 + 8192,
            "per-rank partitions sum to the cluster footprint"
        );
        assert_eq!(a.cache_names.len(), 1, "same name folds");
        assert_eq!(a.cache_names[0].bytes, 4096 + 8192);
        assert!(a.events.is_empty(), "merged reports drop per-rank events");
    }

    #[test]
    fn merge_is_associative_on_counters() {
        let (r0, r1, r2) = (sample(0), sample(1), sample(2));
        let mut left = r0.clone();
        left.merge(&r1);
        left.merge(&r2);
        let mut pair = r1.clone();
        pair.merge(&r2);
        let mut right = r0.clone();
        right.merge(&pair);
        assert_eq!(left.comm, right.comm);
        assert_eq!(left.shuffle, right.shuffle);
        assert_eq!(left.waits, right.waits);
        assert_eq!(left.mem, right.mem);
        assert_eq!(left.peaks, right.peaks);
        assert_eq!(left.ranks, right.ranks);
    }

    #[test]
    fn reports_with_a_retired_jobs_section_still_parse() {
        let r = sample(0);
        // Simulate a report written while the job service existed by
        // inserting its `jobs` section.
        let s = r.to_json_string().replace(
            "\"events\":",
            "\"jobs\":[{\"id\":7,\"name\":\"wc\",\"outcome\":0}],\"events\":",
        );
        assert!(s.contains("\"jobs\""));
        let back = RankReport::from_json_string(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let v = Json::parse("{\"rank\": 0}").unwrap();
        assert!(RankReport::from_json(&v).is_err());
    }
}
