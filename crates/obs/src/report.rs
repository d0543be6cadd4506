//! The unified per-rank metrics report.
//!
//! The stack accumulates statistics in four places — communication
//! counters in `mimir-mpi`, pool counters in `mimir-mem`, shuffle/job
//! counters in `mimir-core`, and the MR-MPI baseline's own struct. A
//! [`RankReport`] gathers all of them (plus the rank's trace events)
//! into one serializable record. Rank 0 collects every rank's report via
//! the `gather` collective at job end and [`RankReport::merge`]s them
//! into cluster-wide totals.
//!
//! `mimir-obs` sits below those crates in the dependency graph, so the
//! report holds plain-old-data mirrors of their stats structs; each
//! crate converts into its mirror at report-build time.

use crate::event::Event;
use crate::json::{Json, JsonError};

/// Point-to-point and collective communication counters
/// (mirrors `mimir-mpi`'s `CommStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Point-to-point sends issued.
    pub sends: u64,
    /// Point-to-point receives completed.
    pub recvs: u64,
    /// Payload bytes sent point-to-point.
    pub bytes_sent: u64,
    /// Payload bytes received point-to-point.
    pub bytes_recvd: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Payload bytes memcpy'd by the transport (pooled send buffers +
    /// caller-owned receive buffers).
    pub bytes_copied: u64,
    /// Heap allocations taken on the send path (pool misses + pooled
    /// buffer growths); flat after warm-up on the zero-copy path.
    pub send_allocs: u64,
    /// Bytes put on the wire including framing headers; zero on the
    /// in-process backend (no wire), per-frame overhead on sockets.
    pub wire_bytes_sent: u64,
    /// Bytes taken off the wire including framing headers.
    pub wire_bytes_recvd: u64,
    /// Frames sent (one per cross-process message on the socket backend).
    pub wire_frames_sent: u64,
    /// Frames received.
    pub wire_frames_recvd: u64,
    /// Receive-side buffer-pool misses in the socket readers.
    pub wire_recv_allocs: u64,
    /// Nanoseconds spent in transport bootstrap (socket bind / connect /
    /// accept / hello), reported once per rank by its world communicator.
    pub handshake_ns: u64,
}

impl CommCounters {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &CommCounters) {
        self.sends += other.sends;
        self.recvs += other.recvs;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recvd += other.bytes_recvd;
        self.collectives += other.collectives;
        self.bytes_copied += other.bytes_copied;
        self.send_allocs += other.send_allocs;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.wire_bytes_recvd += other.wire_bytes_recvd;
        self.wire_frames_sent += other.wire_frames_sent;
        self.wire_frames_recvd += other.wire_frames_recvd;
        self.wire_recv_allocs += other.wire_recv_allocs;
        self.handshake_ns += other.handshake_ns;
    }
}

/// Memory-pool counters (mirrors `mimir-mem`'s `MemStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Pages handed out.
    pub pages_allocated: u64,
    /// Pages returned to the free list.
    pub pages_recycled: u64,
    /// Bytes in use when the report was built.
    pub bytes_in_use: u64,
    /// High-water mark over the whole run.
    pub peak_bytes: u64,
    /// The pool's configured budget in bytes; 0 when the pool is
    /// unlimited (no budget to diagnose headroom against).
    pub budget_bytes: u64,
    /// Allocation attempts the pool rejected for lack of budget.
    pub oom_events: u64,
}

impl MemCounters {
    /// Sums the flow counters; peaks and in-use take the max (node pools
    /// are shared, so summing them would double-count). The budget takes
    /// the max too — ranks of one run share a per-node budget.
    pub fn merge(&mut self, other: &MemCounters) {
        self.pages_allocated += other.pages_allocated;
        self.pages_recycled += other.pages_recycled;
        self.bytes_in_use = self.bytes_in_use.max(other.bytes_in_use);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.budget_bytes = self.budget_bytes.max(other.budget_bytes);
        self.oom_events += other.oom_events;
    }
}

/// Shuffle counters (mirrors `mimir-core`'s `ShuffleStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleCounters {
    /// KVs pushed into the shuffle on this rank.
    pub kvs_emitted: u64,
    /// Encoded bytes pushed into the shuffle.
    pub kv_bytes_emitted: u64,
    /// KVs drained out of the shuffle on this rank.
    pub kvs_received: u64,
    /// Exchange rounds this rank participated in.
    pub rounds: u64,
    /// KV payload bytes spilled to disk.
    pub spilled_bytes: u64,
    /// Encoded bytes landed in this rank's receive buffer.
    pub bytes_received: u64,
    /// Largest single-round receive total — must stay ≤ the receive
    /// buffer capacity (the Section III-B bound).
    pub max_round_recv_bytes: u64,
    /// Cumulative bytes this rank sent to its hottest destination.
    pub max_dest_bytes: u64,
    /// Send-side partition imbalance over the whole shuffle: max/mean of
    /// cumulative per-destination bytes, in permille (1000 = perfectly
    /// balanced; 0 = nothing sent).
    pub imbalance_permille: u64,
    /// Gini coefficient of cumulative per-destination bytes, in permille
    /// (0 = uniform, →1000 = everything to one destination).
    pub gini_permille: u64,
}

impl ShuffleCounters {
    /// Sums the traffic counters; rounds take the max (every rank steps
    /// through the same number of collective rounds), as do the
    /// per-round receive high-water mark and the skew metrics (the
    /// cluster is as skewed as its most skewed rank).
    pub fn merge(&mut self, other: &ShuffleCounters) {
        self.kvs_emitted += other.kvs_emitted;
        self.kv_bytes_emitted += other.kv_bytes_emitted;
        self.kvs_received += other.kvs_received;
        self.rounds = self.rounds.max(other.rounds);
        self.spilled_bytes += other.spilled_bytes;
        self.bytes_received += other.bytes_received;
        self.max_round_recv_bytes = self.max_round_recv_bytes.max(other.max_round_recv_bytes);
        self.max_dest_bytes = self.max_dest_bytes.max(other.max_dest_bytes);
        self.imbalance_permille = self.imbalance_permille.max(other.imbalance_permille);
        self.gini_permille = self.gini_permille.max(other.gini_permille);
    }
}

/// The wait-state taxonomy: where one rank's wall-clock went while the
/// transport was involved. Waits are *rank-nanoseconds blocked on peers*;
/// work is the transport's own memcpy/encode time. On a merged report the
/// values are cluster totals (sums), so the interesting diagnosis signal
/// is the *spread* across the per-rank reports, which is why exporters
/// keep per-rank lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitCounters {
    /// Every nanosecond blocked at any transport blocking point (recv,
    /// and the internal receives of all collectives). Supersets the
    /// attributed categories below.
    pub total_wait_ns: u64,
    /// Transport memcpy/encode nanoseconds (the time behind
    /// `comm.bytes_copied`). Flat under stragglers; grows with volume.
    pub total_work_ns: u64,
    /// Blocked in shuffle done-votes — straggler-bound wait: some rank
    /// was still mapping/draining when this one entered the round.
    pub sync_wait_ns: u64,
    /// Blocked completing shuffle partition receives — byte-bound wait:
    /// peers were still pushing payload.
    pub data_wait_ns: u64,
    /// Blocked in the phase barriers at aggregate/reduce boundaries.
    pub barrier_wait_ns: u64,
}

impl WaitCounters {
    /// Element-wise sum: merged waits are cluster rank-seconds blocked.
    pub fn merge(&mut self, other: &WaitCounters) {
        self.total_wait_ns += other.total_wait_ns;
        self.total_work_ns += other.total_work_ns;
        self.sync_wait_ns += other.sync_wait_ns;
        self.data_wait_ns += other.data_wait_ns;
        self.barrier_wait_ns += other.barrier_wait_ns;
    }
}

/// Wall-clock seconds spent in each phase on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Map (+ interleaved aggregate for Mimir).
    pub map_s: f64,
    /// MR-MPI's explicit aggregate.
    pub aggregate_s: f64,
    /// Convert (KV → KMV grouping).
    pub convert_s: f64,
    /// Reduce.
    pub reduce_s: f64,
}

impl PhaseTimes {
    /// Takes the per-phase max: merged times answer "how long did the
    /// cluster spend in this phase", and phases are barrier-aligned.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.map_s = self.map_s.max(other.map_s);
        self.aggregate_s = self.aggregate_s.max(other.aggregate_s);
        self.convert_s = self.convert_s.max(other.convert_s);
        self.reduce_s = self.reduce_s.max(other.reduce_s);
    }
}

/// Per-phase memory high-water marks in bytes on one rank's node pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhasePeaks {
    /// Peak during map (+ aggregate for Mimir).
    pub map_bytes: u64,
    /// Peak during convert.
    pub convert_bytes: u64,
    /// Peak during reduce.
    pub reduce_bytes: u64,
}

impl PhasePeaks {
    /// Element-wise max.
    pub fn merge(&mut self, other: &PhasePeaks) {
        self.map_bytes = self.map_bytes.max(other.map_bytes);
        self.convert_bytes = self.convert_bytes.max(other.convert_bytes);
        self.reduce_bytes = self.reduce_bytes.max(other.reduce_bytes);
    }

    /// The largest of the three phase peaks.
    pub fn max_bytes(&self) -> u64 {
        self.map_bytes
            .max(self.convert_bytes)
            .max(self.reduce_bytes)
    }
}

/// Grouping-engine counters (mirrors `mimir-core`'s `GroupStats`): the
/// arena-keyed group index behind convert, the combiner, and partial
/// reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCounters {
    /// Keys routed through the index (one per KV).
    pub inserts: u64,
    /// Probe steps beyond the home slot, summed over inserts.
    pub probes: u64,
    /// Longest single probe sequence.
    pub max_probe: u64,
    /// Slot-table rebuilds with live entries.
    pub rehashes: u64,
    /// Key bytes interned into the arena.
    pub interned_bytes: u64,
    /// Unique keys grouped.
    pub groups: u64,
    /// Slot-table capacity at measurement time.
    pub capacity: u64,
    /// Probe-length histogram: buckets 0, 1, 2, 3, 4–7, 8–15, 16–31,
    /// 32+.
    pub probe_hist: [u64; 8],
}

impl GroupCounters {
    /// Sums the traffic counters and the histogram; extremes
    /// (`max_probe`, `capacity`) take the max.
    pub fn merge(&mut self, other: &GroupCounters) {
        self.inserts += other.inserts;
        self.probes += other.probes;
        self.max_probe = self.max_probe.max(other.max_probe);
        self.rehashes += other.rehashes;
        self.interned_bytes += other.interned_bytes;
        self.groups += other.groups;
        self.capacity = self.capacity.max(other.capacity);
        for (a, b) in self.probe_hist.iter_mut().zip(other.probe_hist.iter()) {
            *a += *b;
        }
    }

    /// Mean probe steps per insert (0 when nothing was inserted).
    pub fn avg_probe(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.probes as f64 / self.inserts as f64
        }
    }
}

/// Adaptive-shuffle controller counters (mirrors `mimir-core`'s
/// `AdaptStats`): what the live tuner decided and what the hot-key
/// mitigation staged. All zero outside `ShuffleMode::Adaptive`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptCounters {
    /// Exchange-mode switches applied (ZeroCopy ↔ Overlapped posting).
    pub mode_switches: u64,
    /// Effective round-size grow steps applied.
    pub grow_steps: u64,
    /// Effective round-size shrink steps applied.
    pub shrink_steps: u64,
    /// Effective round-size fill target at job end, in permille of the
    /// partition capacity (1000 = full partitions).
    pub final_fill_permille: u64,
    /// 1 when the job finished with overlapped posting, 0 vote-first.
    pub final_overlap: u64,
    /// Round index of the last tuning change (the controller is
    /// converged from here on); 0 when no change was ever applied.
    pub converged_round: u64,
    /// Hot-destination trips: times a destination crossed the trip
    /// share and its traffic was diverted through the two-stage path.
    pub hot_trips: u64,
    /// KVs absorbed into the hot stage (count bumps included).
    pub hot_staged_kvs: u64,
    /// Encoded KV bytes those staged KVs would have sent directly.
    pub hot_staged_bytes: u64,
    /// Distinct KVs held by the hot stage (its interned population).
    pub hot_unique_kvs: u64,
    /// Encoded bytes that bypassed a full stage and shipped directly.
    pub hot_forward_bytes: u64,
    /// Exchange rounds spent in the salted spread phase of the flush.
    pub salted_rounds: u64,
    /// Exchange rounds spent in the owner-merge phase of the flush.
    pub merge_rounds: u64,
    /// Rounds where the jumbo floor overrode a shrunken fill target so
    /// the largest KV seen still fits the effective round.
    pub jumbo_floor_hits: u64,
}

impl AdaptCounters {
    /// Sums the decision/traffic counters; the convergence descriptors
    /// (`final_fill_permille`, `final_overlap`, `converged_round`) take
    /// the max — under identical tallies every rank lands on the same
    /// values, so max is the identity there and stays meaningful when a
    /// rank sat out.
    pub fn merge(&mut self, other: &AdaptCounters) {
        self.mode_switches += other.mode_switches;
        self.grow_steps += other.grow_steps;
        self.shrink_steps += other.shrink_steps;
        self.final_fill_permille = self.final_fill_permille.max(other.final_fill_permille);
        self.final_overlap = self.final_overlap.max(other.final_overlap);
        self.converged_round = self.converged_round.max(other.converged_round);
        self.hot_trips += other.hot_trips;
        self.hot_staged_kvs += other.hot_staged_kvs;
        self.hot_staged_bytes += other.hot_staged_bytes;
        self.hot_unique_kvs += other.hot_unique_kvs;
        self.hot_forward_bytes += other.hot_forward_bytes;
        self.salted_rounds += other.salted_rounds;
        self.merge_rounds += other.merge_rounds;
        self.jumbo_floor_hits += other.jumbo_floor_hits;
    }
}

/// Cross-job KV cache counters (mirrors `mimir-core`'s `CacheStats`).
/// All zero when no job used `input_cached`/`output_cached`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Chained inputs found resident.
    pub hits: u64,
    /// Lookups of names the cache did not hold.
    pub misses: u64,
    /// Shuffles skipped because the cached placement matched the job's.
    pub elisions: u64,
    /// Resident containers spilled under memory pressure.
    pub evictions: u64,
    /// Evicted entries transparently reloaded from spill.
    pub reloads: u64,
    /// Payload bytes resident when the report was built (charged against
    /// the pool budget).
    pub cached_bytes: u64,
}

impl CacheCounters {
    /// Element-wise sum: per-rank caches hold disjoint partitions, so
    /// summed bytes are the cluster's total cached footprint — and all of
    /// it charges the shared node budget.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.elisions += other.elisions;
        self.evictions += other.evictions;
        self.reloads += other.reloads;
        self.cached_bytes += other.cached_bytes;
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

/// Telemetry-plane counters: the live publisher's own bookkeeping
/// (`obs::live`). All zero when no live sink was armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveCounters {
    /// Live snapshots published by this rank.
    pub snapshots: u64,
    /// Bytes of live records appended to the rank's sidecar file.
    pub published_bytes: u64,
    /// Nanoseconds the publisher spent building and writing snapshots
    /// (the plane's own overhead, on the publisher thread).
    pub publish_ns: u64,
    /// Worst observed gap between consecutive snapshots, in
    /// milliseconds over the configured interval (0 = every snapshot
    /// landed on time).
    pub max_publish_lag_ms: u64,
    /// Flight-recorder dumps this rank wrote (crash corpses).
    pub flight_dumps: u64,
}

impl LiveCounters {
    /// Sums the traffic counters; the lag high-water mark takes the max.
    pub fn merge(&mut self, other: &LiveCounters) {
        self.snapshots += other.snapshots;
        self.published_bytes += other.published_bytes;
        self.publish_ns += other.publish_ns;
        self.max_publish_lag_ms = self.max_publish_lag_ms.max(other.max_publish_lag_ms);
        self.flight_dumps += other.flight_dumps;
    }
}

/// Job-level counters (mirrors parts of `mimir-core`'s `JobStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Unique keys grouped on this rank.
    pub unique_keys: u64,
    /// KVs produced by the reduce callbacks on this rank.
    pub kvs_out: u64,
    /// Node-pool high-water mark at job end.
    pub node_peak_bytes: u64,
}

impl JobCounters {
    /// Sums the counters; the node peak takes the max.
    pub fn merge(&mut self, other: &JobCounters) {
        self.unique_keys += other.unique_keys;
        self.kvs_out += other.kvs_out;
        self.node_peak_bytes = self.node_peak_bytes.max(other.node_peak_bytes);
    }
}

/// One scheduled job's lifecycle record (mirrors `mimir-sched`'s
/// per-job stats): how long it queued, how long it ran, what it
/// reserved, and what it produced. A rank reports one record per job it
/// participated in; merged reports combine records by job id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRecord {
    /// Scheduler-assigned job id.
    pub id: u64,
    /// Human-readable job name.
    pub name: String,
    /// Submission priority (higher runs first).
    pub priority: u64,
    /// Terminal outcome code (the scheduler's `JobOutcome` encoding:
    /// 0 done, then increasing severity).
    pub outcome: u64,
    /// Times the job was suspended and re-queued after an OOM.
    pub retries: u64,
    /// Seconds spent waiting in the admission queue.
    pub queued_s: f64,
    /// Seconds spent admitted and running.
    pub running_s: f64,
    /// Reserved memory footprint at final admission, in bytes.
    pub footprint_bytes: u64,
    /// KVs the job's reduce produced on this rank.
    pub kvs_out: u64,
    /// Bytes the job spilled to its scoped spill directory on this rank.
    pub spill_bytes: u64,
}

impl JobRecord {
    /// Folds another rank's record for the *same job* into this one:
    /// per-rank production sums, lifecycle times and extremes take the
    /// max (the lifecycle is collective, so ranks agree up to clock
    /// skew).
    pub fn merge(&mut self, other: &JobRecord) {
        self.priority = self.priority.max(other.priority);
        self.outcome = self.outcome.max(other.outcome);
        self.retries = self.retries.max(other.retries);
        self.queued_s = self.queued_s.max(other.queued_s);
        self.running_s = self.running_s.max(other.running_s);
        self.footprint_bytes = self.footprint_bytes.max(other.footprint_bytes);
        self.kvs_out += other.kvs_out;
        self.spill_bytes += other.spill_bytes;
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
    /// Adaptive-shuffle controller counters.
    pub adapt: AdaptCounters,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
    /// Per-phase memory peaks.
    pub peaks: PhasePeaks,
    /// Job-level counters.
    pub job: JobCounters,
    /// Cross-job KV cache counters.
    pub cache: CacheCounters,
    /// Telemetry-plane counters (the live publisher's bookkeeping).
    pub live: LiveCounters,
    /// Per-name cache entries. Merged reports combine records by name.
    pub cache_names: Vec<CacheNameRecord>,
    /// Per-scheduled-job lifecycle records (empty outside the job
    /// service). Merged reports combine records by job id.
    pub jobs: Vec<JobRecord>,
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

    /// Folds `other` into `self`, producing cluster-wide aggregates:
    /// counters sum, peaks and barrier-aligned times take the max.
    /// Per-rank trace events do not survive merging (a merged report
    /// describes the cluster, and traces stay per-rank in the exporters).
    pub fn merge(&mut self, other: &RankReport) {
        self.ranks += other.ranks;
        self.comm.merge(&other.comm);
        self.mem.merge(&other.mem);
        self.shuffle.merge(&other.shuffle);
        self.waits.merge(&other.waits);
        self.group.merge(&other.group);
        self.adapt.merge(&other.adapt);
        self.times.merge(&other.times);
        self.peaks.merge(&other.peaks);
        self.job.merge(&other.job);
        self.cache.merge(&other.cache);
        self.live.merge(&other.live);
        for theirs in &other.cache_names {
            if let Some(mine) = self.cache_names.iter_mut().find(|c| c.name == theirs.name) {
                mine.merge(theirs);
            } else {
                self.cache_names.push(theirs.clone());
            }
        }
        self.cache_names.sort_by(|a, b| a.name.cmp(&b.name));
        for theirs in &other.jobs {
            if let Some(mine) = self.jobs.iter_mut().find(|j| j.id == theirs.id) {
                mine.merge(theirs);
            } else {
                self.jobs.push(theirs.clone());
            }
        }
        self.jobs.sort_by_key(|j| j.id);
        self.events.clear();
        self.events_dropped += other.events_dropped;
    }

    /// The windowed difference `self − base`, where `base` is an
    /// *earlier snapshot of the same rank*: cumulative counters subtract
    /// (saturating, so a restarted counter degrades to "whole window"
    /// instead of wrapping), gauges and high-water marks take the later
    /// value, and phase times subtract clamped at zero. This is the
    /// online doctor's unit of analysis — rules run over the delta of a
    /// rolling live window rather than run-lifetime totals.
    pub fn delta_since(&self, base: &RankReport) -> RankReport {
        let d = u64::saturating_sub;
        let mut out = self.clone();
        out.events.clear();
        out.events_dropped = d(self.events_dropped, base.events_dropped);
        out.comm = CommCounters {
            sends: d(self.comm.sends, base.comm.sends),
            recvs: d(self.comm.recvs, base.comm.recvs),
            bytes_sent: d(self.comm.bytes_sent, base.comm.bytes_sent),
            bytes_recvd: d(self.comm.bytes_recvd, base.comm.bytes_recvd),
            collectives: d(self.comm.collectives, base.comm.collectives),
            bytes_copied: d(self.comm.bytes_copied, base.comm.bytes_copied),
            send_allocs: d(self.comm.send_allocs, base.comm.send_allocs),
            wire_bytes_sent: d(self.comm.wire_bytes_sent, base.comm.wire_bytes_sent),
            wire_bytes_recvd: d(self.comm.wire_bytes_recvd, base.comm.wire_bytes_recvd),
            wire_frames_sent: d(self.comm.wire_frames_sent, base.comm.wire_frames_sent),
            wire_frames_recvd: d(self.comm.wire_frames_recvd, base.comm.wire_frames_recvd),
            wire_recv_allocs: d(self.comm.wire_recv_allocs, base.comm.wire_recv_allocs),
            handshake_ns: d(self.comm.handshake_ns, base.comm.handshake_ns),
        };
        out.mem = MemCounters {
            pages_allocated: d(self.mem.pages_allocated, base.mem.pages_allocated),
            pages_recycled: d(self.mem.pages_recycled, base.mem.pages_recycled),
            // Gauges and limits: the window's latest view.
            bytes_in_use: self.mem.bytes_in_use,
            peak_bytes: self.mem.peak_bytes,
            budget_bytes: self.mem.budget_bytes,
            oom_events: d(self.mem.oom_events, base.mem.oom_events),
        };
        out.shuffle = ShuffleCounters {
            kvs_emitted: d(self.shuffle.kvs_emitted, base.shuffle.kvs_emitted),
            kv_bytes_emitted: d(self.shuffle.kv_bytes_emitted, base.shuffle.kv_bytes_emitted),
            kvs_received: d(self.shuffle.kvs_received, base.shuffle.kvs_received),
            rounds: d(self.shuffle.rounds, base.shuffle.rounds),
            spilled_bytes: d(self.shuffle.spilled_bytes, base.shuffle.spilled_bytes),
            bytes_received: d(self.shuffle.bytes_received, base.shuffle.bytes_received),
            max_round_recv_bytes: self.shuffle.max_round_recv_bytes,
            max_dest_bytes: self.shuffle.max_dest_bytes,
            imbalance_permille: self.shuffle.imbalance_permille,
            gini_permille: self.shuffle.gini_permille,
        };
        out.waits = WaitCounters {
            total_wait_ns: d(self.waits.total_wait_ns, base.waits.total_wait_ns),
            total_work_ns: d(self.waits.total_work_ns, base.waits.total_work_ns),
            sync_wait_ns: d(self.waits.sync_wait_ns, base.waits.sync_wait_ns),
            data_wait_ns: d(self.waits.data_wait_ns, base.waits.data_wait_ns),
            barrier_wait_ns: d(self.waits.barrier_wait_ns, base.waits.barrier_wait_ns),
        };
        out.times = PhaseTimes {
            map_s: (self.times.map_s - base.times.map_s).max(0.0),
            aggregate_s: (self.times.aggregate_s - base.times.aggregate_s).max(0.0),
            convert_s: (self.times.convert_s - base.times.convert_s).max(0.0),
            reduce_s: (self.times.reduce_s - base.times.reduce_s).max(0.0),
        };
        out.group = GroupCounters {
            inserts: d(self.group.inserts, base.group.inserts),
            probes: d(self.group.probes, base.group.probes),
            max_probe: self.group.max_probe,
            rehashes: d(self.group.rehashes, base.group.rehashes),
            interned_bytes: d(self.group.interned_bytes, base.group.interned_bytes),
            groups: d(self.group.groups, base.group.groups),
            capacity: self.group.capacity,
            probe_hist: {
                let mut h = [0u64; 8];
                for (i, slot) in h.iter_mut().enumerate() {
                    *slot = d(self.group.probe_hist[i], base.group.probe_hist[i]);
                }
                h
            },
        };
        out.cache = CacheCounters {
            hits: d(self.cache.hits, base.cache.hits),
            misses: d(self.cache.misses, base.cache.misses),
            elisions: d(self.cache.elisions, base.cache.elisions),
            evictions: d(self.cache.evictions, base.cache.evictions),
            reloads: d(self.cache.reloads, base.cache.reloads),
            cached_bytes: self.cache.cached_bytes,
        };
        out.job = JobCounters {
            unique_keys: d(self.job.unique_keys, base.job.unique_keys),
            kvs_out: d(self.job.kvs_out, base.job.kvs_out),
            node_peak_bytes: self.job.node_peak_bytes,
        };
        out.live = LiveCounters {
            snapshots: d(self.live.snapshots, base.live.snapshots),
            published_bytes: d(self.live.published_bytes, base.live.published_bytes),
            publish_ns: d(self.live.publish_ns, base.live.publish_ns),
            max_publish_lag_ms: self.live.max_publish_lag_ms,
            flight_dumps: d(self.live.flight_dumps, base.live.flight_dumps),
        };
        // adapt, peaks, cache_names, jobs keep the latest view: they are
        // descriptors rather than flow counters, and the watch UI wants
        // the current state of each.
        out
    }

    /// Serializes to a JSON object (see [`Self::from_json`] for the
    /// inverse).
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::Num(e.t_ns as f64),
                    Json::Num(e.kind.code() as f64),
                    Json::Num(e.a as f64),
                    Json::Num(e.b as f64),
                ])
            })
            .collect();
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("ranks", Json::Num(self.ranks as f64)),
            (
                "comm",
                Json::obj(vec![
                    ("sends", Json::Num(self.comm.sends as f64)),
                    ("recvs", Json::Num(self.comm.recvs as f64)),
                    ("bytes_sent", Json::Num(self.comm.bytes_sent as f64)),
                    ("bytes_recvd", Json::Num(self.comm.bytes_recvd as f64)),
                    ("collectives", Json::Num(self.comm.collectives as f64)),
                    ("bytes_copied", Json::Num(self.comm.bytes_copied as f64)),
                    ("send_allocs", Json::Num(self.comm.send_allocs as f64)),
                    (
                        "wire_bytes_sent",
                        Json::Num(self.comm.wire_bytes_sent as f64),
                    ),
                    (
                        "wire_bytes_recvd",
                        Json::Num(self.comm.wire_bytes_recvd as f64),
                    ),
                    (
                        "wire_frames_sent",
                        Json::Num(self.comm.wire_frames_sent as f64),
                    ),
                    (
                        "wire_frames_recvd",
                        Json::Num(self.comm.wire_frames_recvd as f64),
                    ),
                    (
                        "wire_recv_allocs",
                        Json::Num(self.comm.wire_recv_allocs as f64),
                    ),
                    ("handshake_ns", Json::Num(self.comm.handshake_ns as f64)),
                ]),
            ),
            (
                "mem",
                Json::obj(vec![
                    (
                        "pages_allocated",
                        Json::Num(self.mem.pages_allocated as f64),
                    ),
                    ("pages_recycled", Json::Num(self.mem.pages_recycled as f64)),
                    ("bytes_in_use", Json::Num(self.mem.bytes_in_use as f64)),
                    ("peak_bytes", Json::Num(self.mem.peak_bytes as f64)),
                    ("budget_bytes", Json::Num(self.mem.budget_bytes as f64)),
                    ("oom_events", Json::Num(self.mem.oom_events as f64)),
                ]),
            ),
            (
                "shuffle",
                Json::obj(vec![
                    ("kvs_emitted", Json::Num(self.shuffle.kvs_emitted as f64)),
                    (
                        "kv_bytes_emitted",
                        Json::Num(self.shuffle.kv_bytes_emitted as f64),
                    ),
                    ("kvs_received", Json::Num(self.shuffle.kvs_received as f64)),
                    ("rounds", Json::Num(self.shuffle.rounds as f64)),
                    (
                        "spilled_bytes",
                        Json::Num(self.shuffle.spilled_bytes as f64),
                    ),
                    (
                        "bytes_received",
                        Json::Num(self.shuffle.bytes_received as f64),
                    ),
                    (
                        "max_round_recv_bytes",
                        Json::Num(self.shuffle.max_round_recv_bytes as f64),
                    ),
                    (
                        "max_dest_bytes",
                        Json::Num(self.shuffle.max_dest_bytes as f64),
                    ),
                    (
                        "imbalance_permille",
                        Json::Num(self.shuffle.imbalance_permille as f64),
                    ),
                    (
                        "gini_permille",
                        Json::Num(self.shuffle.gini_permille as f64),
                    ),
                ]),
            ),
            (
                "waits",
                Json::obj(vec![
                    ("total_wait_ns", Json::Num(self.waits.total_wait_ns as f64)),
                    ("total_work_ns", Json::Num(self.waits.total_work_ns as f64)),
                    ("sync_wait_ns", Json::Num(self.waits.sync_wait_ns as f64)),
                    ("data_wait_ns", Json::Num(self.waits.data_wait_ns as f64)),
                    (
                        "barrier_wait_ns",
                        Json::Num(self.waits.barrier_wait_ns as f64),
                    ),
                ]),
            ),
            (
                "group",
                Json::obj(vec![
                    ("inserts", Json::Num(self.group.inserts as f64)),
                    ("probes", Json::Num(self.group.probes as f64)),
                    ("max_probe", Json::Num(self.group.max_probe as f64)),
                    ("rehashes", Json::Num(self.group.rehashes as f64)),
                    (
                        "interned_bytes",
                        Json::Num(self.group.interned_bytes as f64),
                    ),
                    ("groups", Json::Num(self.group.groups as f64)),
                    ("capacity", Json::Num(self.group.capacity as f64)),
                    (
                        "probe_hist",
                        Json::Arr(
                            self.group
                                .probe_hist
                                .iter()
                                .map(|&n| Json::Num(n as f64))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "adapt",
                Json::obj(vec![
                    ("mode_switches", Json::Num(self.adapt.mode_switches as f64)),
                    ("grow_steps", Json::Num(self.adapt.grow_steps as f64)),
                    ("shrink_steps", Json::Num(self.adapt.shrink_steps as f64)),
                    (
                        "final_fill_permille",
                        Json::Num(self.adapt.final_fill_permille as f64),
                    ),
                    ("final_overlap", Json::Num(self.adapt.final_overlap as f64)),
                    (
                        "converged_round",
                        Json::Num(self.adapt.converged_round as f64),
                    ),
                    ("hot_trips", Json::Num(self.adapt.hot_trips as f64)),
                    (
                        "hot_staged_kvs",
                        Json::Num(self.adapt.hot_staged_kvs as f64),
                    ),
                    (
                        "hot_staged_bytes",
                        Json::Num(self.adapt.hot_staged_bytes as f64),
                    ),
                    (
                        "hot_unique_kvs",
                        Json::Num(self.adapt.hot_unique_kvs as f64),
                    ),
                    (
                        "hot_forward_bytes",
                        Json::Num(self.adapt.hot_forward_bytes as f64),
                    ),
                    ("salted_rounds", Json::Num(self.adapt.salted_rounds as f64)),
                    ("merge_rounds", Json::Num(self.adapt.merge_rounds as f64)),
                    (
                        "jumbo_floor_hits",
                        Json::Num(self.adapt.jumbo_floor_hits as f64),
                    ),
                ]),
            ),
            (
                "times",
                Json::obj(vec![
                    ("map_s", Json::Num(self.times.map_s)),
                    ("aggregate_s", Json::Num(self.times.aggregate_s)),
                    ("convert_s", Json::Num(self.times.convert_s)),
                    ("reduce_s", Json::Num(self.times.reduce_s)),
                ]),
            ),
            (
                "peaks",
                Json::obj(vec![
                    ("map_bytes", Json::Num(self.peaks.map_bytes as f64)),
                    ("convert_bytes", Json::Num(self.peaks.convert_bytes as f64)),
                    ("reduce_bytes", Json::Num(self.peaks.reduce_bytes as f64)),
                ]),
            ),
            (
                "job",
                Json::obj(vec![
                    ("unique_keys", Json::Num(self.job.unique_keys as f64)),
                    ("kvs_out", Json::Num(self.job.kvs_out as f64)),
                    (
                        "node_peak_bytes",
                        Json::Num(self.job.node_peak_bytes as f64),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Num(self.cache.hits as f64)),
                    ("misses", Json::Num(self.cache.misses as f64)),
                    ("elisions", Json::Num(self.cache.elisions as f64)),
                    ("evictions", Json::Num(self.cache.evictions as f64)),
                    ("reloads", Json::Num(self.cache.reloads as f64)),
                    ("cached_bytes", Json::Num(self.cache.cached_bytes as f64)),
                ]),
            ),
            (
                "live",
                Json::obj(vec![
                    ("snapshots", Json::Num(self.live.snapshots as f64)),
                    (
                        "published_bytes",
                        Json::Num(self.live.published_bytes as f64),
                    ),
                    ("publish_ns", Json::Num(self.live.publish_ns as f64)),
                    (
                        "max_publish_lag_ms",
                        Json::Num(self.live.max_publish_lag_ms as f64),
                    ),
                    ("flight_dumps", Json::Num(self.live.flight_dumps as f64)),
                ]),
            ),
            (
                "cache_names",
                Json::Arr(
                    self.cache_names
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::Str(c.name.clone())),
                                ("bytes", Json::Num(c.bytes as f64)),
                                ("elisions", Json::Num(c.elisions as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            Json::obj(vec![
                                ("id", Json::Num(j.id as f64)),
                                ("name", Json::Str(j.name.clone())),
                                ("priority", Json::Num(j.priority as f64)),
                                ("outcome", Json::Num(j.outcome as f64)),
                                ("retries", Json::Num(j.retries as f64)),
                                ("queued_s", Json::Num(j.queued_s)),
                                ("running_s", Json::Num(j.running_s)),
                                ("footprint_bytes", Json::Num(j.footprint_bytes as f64)),
                                ("kvs_out", Json::Num(j.kvs_out as f64)),
                                ("spill_bytes", Json::Num(j.spill_bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("events", Json::Arr(events)),
            ("events_dropped", Json::Num(self.events_dropped as f64)),
        ])
    }

    /// Deserializes a report produced by [`Self::to_json`].
    ///
    /// # Errors
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<RankReport, JsonError> {
        fn field(v: &Json, path: &[&str]) -> Result<f64, JsonError> {
            let mut cur = v;
            for key in path {
                cur = cur.get(key).ok_or_else(|| JsonError {
                    msg: format!("missing field `{}`", path.join(".")),
                    at: 0,
                })?;
            }
            cur.as_f64().ok_or_else(|| JsonError {
                msg: format!("field `{}` is not a number", path.join(".")),
                at: 0,
            })
        }
        let u = |path: &[&str]| -> Result<u64, JsonError> { field(v, path).map(|n| n as u64) };
        // Counters added after the first release parse leniently so
        // reports recorded by older builds still load.
        let u_opt = |path: &[&str]| -> u64 { field(v, path).map_or(0, |n| n as u64) };
        // The cross-job cache postdates the first release: the whole
        // section parses leniently.
        let mut cache_names = Vec::new();
        if let Some(Json::Arr(items)) = v.get("cache_names") {
            for item in items {
                cache_names.push(CacheNameRecord {
                    name: item
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    bytes: item.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                    elisions: item.get("elisions").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        // The job service postdates the first release: absent in old
        // reports, so the whole section parses leniently.
        let mut jobs = Vec::new();
        if let Some(Json::Arr(items)) = v.get("jobs") {
            for item in items {
                let ju = |key: &str| -> u64 { item.get(key).and_then(Json::as_u64).unwrap_or(0) };
                let jf = |key: &str| -> f64 { item.get(key).and_then(Json::as_f64).unwrap_or(0.0) };
                jobs.push(JobRecord {
                    id: ju("id"),
                    name: item
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    priority: ju("priority"),
                    outcome: ju("outcome"),
                    retries: ju("retries"),
                    queued_s: jf("queued_s"),
                    running_s: jf("running_s"),
                    footprint_bytes: ju("footprint_bytes"),
                    kvs_out: ju("kvs_out"),
                    spill_bytes: ju("spill_bytes"),
                });
            }
        }
        let mut events = Vec::new();
        if let Some(Json::Arr(items)) = v.get("events") {
            for item in items {
                let cols = item.as_arr().ok_or_else(|| JsonError {
                    msg: "event is not an array".into(),
                    at: 0,
                })?;
                if cols.len() != 4 {
                    return Err(JsonError {
                        msg: "event needs 4 columns".into(),
                        at: 0,
                    });
                }
                let num = |i: usize| -> Result<u64, JsonError> {
                    cols[i].as_u64().ok_or_else(|| JsonError {
                        msg: "event column is not a number".into(),
                        at: 0,
                    })
                };
                let kind =
                    crate::event::EventKind::from_code(num(1)?).ok_or_else(|| JsonError {
                        msg: "unknown event kind".into(),
                        at: 0,
                    })?;
                events.push(Event {
                    t_ns: num(0)?,
                    kind,
                    a: num(2)?,
                    b: num(3)?,
                });
            }
        }
        Ok(RankReport {
            rank: u(&["rank"])?,
            ranks: u(&["ranks"])?,
            comm: CommCounters {
                sends: u(&["comm", "sends"])?,
                recvs: u(&["comm", "recvs"])?,
                bytes_sent: u(&["comm", "bytes_sent"])?,
                bytes_recvd: u(&["comm", "bytes_recvd"])?,
                collectives: u(&["comm", "collectives"])?,
                bytes_copied: u_opt(&["comm", "bytes_copied"]),
                send_allocs: u_opt(&["comm", "send_allocs"]),
                wire_bytes_sent: u_opt(&["comm", "wire_bytes_sent"]),
                wire_bytes_recvd: u_opt(&["comm", "wire_bytes_recvd"]),
                wire_frames_sent: u_opt(&["comm", "wire_frames_sent"]),
                wire_frames_recvd: u_opt(&["comm", "wire_frames_recvd"]),
                wire_recv_allocs: u_opt(&["comm", "wire_recv_allocs"]),
                handshake_ns: u_opt(&["comm", "handshake_ns"]),
            },
            mem: MemCounters {
                pages_allocated: u(&["mem", "pages_allocated"])?,
                pages_recycled: u(&["mem", "pages_recycled"])?,
                bytes_in_use: u(&["mem", "bytes_in_use"])?,
                peak_bytes: u(&["mem", "peak_bytes"])?,
                budget_bytes: u_opt(&["mem", "budget_bytes"]),
                oom_events: u_opt(&["mem", "oom_events"]),
            },
            shuffle: ShuffleCounters {
                kvs_emitted: u(&["shuffle", "kvs_emitted"])?,
                kv_bytes_emitted: u(&["shuffle", "kv_bytes_emitted"])?,
                kvs_received: u(&["shuffle", "kvs_received"])?,
                rounds: u(&["shuffle", "rounds"])?,
                spilled_bytes: u(&["shuffle", "spilled_bytes"])?,
                bytes_received: u_opt(&["shuffle", "bytes_received"]),
                max_round_recv_bytes: u_opt(&["shuffle", "max_round_recv_bytes"]),
                max_dest_bytes: u_opt(&["shuffle", "max_dest_bytes"]),
                imbalance_permille: u_opt(&["shuffle", "imbalance_permille"]),
                gini_permille: u_opt(&["shuffle", "gini_permille"]),
            },
            // The whole waits section postdates the first release.
            waits: WaitCounters {
                total_wait_ns: u_opt(&["waits", "total_wait_ns"]),
                total_work_ns: u_opt(&["waits", "total_work_ns"]),
                sync_wait_ns: u_opt(&["waits", "sync_wait_ns"]),
                data_wait_ns: u_opt(&["waits", "data_wait_ns"]),
                barrier_wait_ns: u_opt(&["waits", "barrier_wait_ns"]),
            },
            group: {
                // Added after the first release: the whole object may be
                // absent in old reports, so every field parses leniently.
                let mut probe_hist = [0u64; 8];
                if let Some(Json::Arr(items)) = v.get("group").and_then(|g| g.get("probe_hist")) {
                    for (slot, item) in probe_hist.iter_mut().zip(items.iter()) {
                        *slot = item.as_u64().unwrap_or(0);
                    }
                }
                GroupCounters {
                    inserts: u_opt(&["group", "inserts"]),
                    probes: u_opt(&["group", "probes"]),
                    max_probe: u_opt(&["group", "max_probe"]),
                    rehashes: u_opt(&["group", "rehashes"]),
                    interned_bytes: u_opt(&["group", "interned_bytes"]),
                    groups: u_opt(&["group", "groups"]),
                    capacity: u_opt(&["group", "capacity"]),
                    probe_hist,
                }
            },
            // The adaptive controller postdates the first release: the
            // whole section parses leniently like the group section.
            adapt: AdaptCounters {
                mode_switches: u_opt(&["adapt", "mode_switches"]),
                grow_steps: u_opt(&["adapt", "grow_steps"]),
                shrink_steps: u_opt(&["adapt", "shrink_steps"]),
                final_fill_permille: u_opt(&["adapt", "final_fill_permille"]),
                final_overlap: u_opt(&["adapt", "final_overlap"]),
                converged_round: u_opt(&["adapt", "converged_round"]),
                hot_trips: u_opt(&["adapt", "hot_trips"]),
                hot_staged_kvs: u_opt(&["adapt", "hot_staged_kvs"]),
                hot_staged_bytes: u_opt(&["adapt", "hot_staged_bytes"]),
                hot_unique_kvs: u_opt(&["adapt", "hot_unique_kvs"]),
                hot_forward_bytes: u_opt(&["adapt", "hot_forward_bytes"]),
                salted_rounds: u_opt(&["adapt", "salted_rounds"]),
                merge_rounds: u_opt(&["adapt", "merge_rounds"]),
                jumbo_floor_hits: u_opt(&["adapt", "jumbo_floor_hits"]),
            },
            times: PhaseTimes {
                map_s: field(v, &["times", "map_s"])?,
                aggregate_s: field(v, &["times", "aggregate_s"])?,
                convert_s: field(v, &["times", "convert_s"])?,
                reduce_s: field(v, &["times", "reduce_s"])?,
            },
            peaks: PhasePeaks {
                map_bytes: u(&["peaks", "map_bytes"])?,
                convert_bytes: u(&["peaks", "convert_bytes"])?,
                reduce_bytes: u(&["peaks", "reduce_bytes"])?,
            },
            job: JobCounters {
                unique_keys: u(&["job", "unique_keys"])?,
                kvs_out: u(&["job", "kvs_out"])?,
                node_peak_bytes: u(&["job", "node_peak_bytes"])?,
            },
            cache: CacheCounters {
                hits: u_opt(&["cache", "hits"]),
                misses: u_opt(&["cache", "misses"]),
                elisions: u_opt(&["cache", "elisions"]),
                evictions: u_opt(&["cache", "evictions"]),
                reloads: u_opt(&["cache", "reloads"]),
                cached_bytes: u_opt(&["cache", "cached_bytes"]),
            },
            // The telemetry plane postdates the first release: the whole
            // section parses leniently.
            live: LiveCounters {
                snapshots: u_opt(&["live", "snapshots"]),
                published_bytes: u_opt(&["live", "published_bytes"]),
                publish_ns: u_opt(&["live", "publish_ns"]),
                max_publish_lag_ms: u_opt(&["live", "max_publish_lag_ms"]),
                flight_dumps: u_opt(&["live", "flight_dumps"]),
            },
            cache_names,
            jobs,
            events,
            events_dropped: u(&["events_dropped"])?,
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
                bytes_in_use: 0,
                peak_bytes: 1 << 20,
                budget_bytes: 4 << 20,
                oom_events: rank,
            },
            shuffle: ShuffleCounters {
                kvs_emitted: 100 * (rank + 1),
                kv_bytes_emitted: 800,
                kvs_received: 100,
                rounds: 2 + rank,
                spilled_bytes: 0,
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
                probe_hist: [150, 30, 10, 5, 5, 0, 0, rank],
            },
            adapt: AdaptCounters {
                mode_switches: 1 + rank,
                grow_steps: 2,
                shrink_steps: rank,
                final_fill_permille: 750 + 50 * rank,
                final_overlap: rank % 2,
                converged_round: 6 + rank,
                hot_trips: rank,
                hot_staged_kvs: 300 * rank,
                hot_staged_bytes: 4800 * rank,
                hot_unique_kvs: 3 * rank,
                hot_forward_bytes: 16 * rank,
                salted_rounds: rank,
                merge_rounds: rank,
                jumbo_floor_hits: 0,
            },
            times: PhaseTimes {
                map_s: 0.5 + rank as f64,
                aggregate_s: 0.0,
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
            live: LiveCounters {
                snapshots: 12 + rank,
                published_bytes: 9000 * (rank + 1),
                publish_ns: 40_000 + rank,
                max_publish_lag_ms: 3 * rank,
                flight_dumps: rank % 2,
            },
            cache_names: vec![CacheNameRecord {
                name: "pr".into(),
                bytes: 4096 * (rank + 1),
                elisions: 5 * (rank + 1),
            }],
            jobs: vec![JobRecord {
                id: 7,
                name: "wc-small".into(),
                priority: 2,
                outcome: 0,
                retries: rank,
                queued_s: 0.01,
                running_s: 0.5 + rank as f64,
                footprint_bytes: 1 << 20,
                kvs_out: 25 * (rank + 1),
                spill_bytes: 128 * rank,
            }],
            events: vec![Event {
                t_ns: 42,
                kind: EventKind::MemSample,
                a: 1,
                b: 2,
            }],
            events_dropped: 0,
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
        assert_eq!(a.adapt.mode_switches, 1 + 2, "adapt decisions sum");
        assert_eq!(
            a.adapt.final_fill_permille, 800,
            "the converged fill target takes the max"
        );
        assert_eq!(a.adapt.hot_staged_kvs, 300, "hot staging sums");
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
        assert_eq!(left.adapt, right.adapt);
        assert_eq!(left.mem, right.mem);
        assert_eq!(left.peaks, right.peaks);
        assert_eq!(left.ranks, right.ranks);
    }

    #[test]
    fn merge_combines_job_records_by_id() {
        let mut a = sample(0);
        let mut b = sample(1);
        b.jobs.push(JobRecord {
            id: 9,
            name: "bfs-big".into(),
            outcome: 3,
            ..JobRecord::default()
        });
        a.merge(&b);
        assert_eq!(a.jobs.len(), 2, "same id folds, new id appends");
        let wc = a.jobs.iter().find(|j| j.id == 7).unwrap();
        assert_eq!(wc.kvs_out, 25 + 50, "per-rank production sums");
        assert_eq!(wc.retries, 1, "retries take the max");
        assert!((wc.running_s - 1.5).abs() < 1e-12, "times take the max");
        assert_eq!(a.jobs.iter().find(|j| j.id == 9).unwrap().outcome, 3);
    }

    #[test]
    fn old_reports_without_jobs_section_still_parse() {
        let mut r = sample(0);
        r.jobs.clear();
        let mut s = r.to_json_string();
        // Simulate a pre-job-service report by deleting the field.
        s = s.replace("\"jobs\":[],", "");
        let back = RankReport::from_json_string(&s).unwrap();
        assert!(back.jobs.is_empty());
        assert_eq!(back.comm, r.comm);
    }

    #[test]
    fn old_reports_without_live_section_still_parse() {
        let mut r = sample(0);
        r.live = LiveCounters::default();
        let mut s = r.to_json_string();
        // Simulate a pre-telemetry-plane report by deleting the field.
        let needle = "\"live\":{\"snapshots\":0,\"published_bytes\":0,\"publish_ns\":0,\
                      \"max_publish_lag_ms\":0,\"flight_dumps\":0},";
        assert!(s.contains("\"live\""), "fixture must carry the section");
        s = s.replace(needle, "");
        assert!(!s.contains("\"live\""), "deletion must hit");
        let back = RankReport::from_json_string(&s).unwrap();
        assert_eq!(back.live, LiveCounters::default());
        assert_eq!(back.comm, r.comm);
    }

    #[test]
    fn merge_folds_live_counters() {
        let mut a = sample(0);
        a.merge(&sample(1));
        assert_eq!(a.live.snapshots, 12 + 13, "snapshots sum");
        assert_eq!(a.live.max_publish_lag_ms, 3, "lag takes the max");
        assert_eq!(a.live.flight_dumps, 1, "dumps sum");
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let base = sample(0);
        let mut later = sample(0);
        later.comm.sends += 7;
        later.waits.total_wait_ns += 1_000_000;
        later.mem.bytes_in_use = 555;
        later.times.map_s += 0.25;
        later.shuffle.kvs_emitted += 40;
        let d = later.delta_since(&base);
        assert_eq!(d.comm.sends, 7, "cumulative counters subtract");
        assert_eq!(d.waits.total_wait_ns, 1_000_000);
        assert_eq!(d.shuffle.kvs_emitted, 40);
        assert_eq!(d.mem.bytes_in_use, 555, "gauges take the latest view");
        assert_eq!(d.mem.budget_bytes, later.mem.budget_bytes);
        assert!((d.times.map_s - 0.25).abs() < 1e-12, "times subtract");
        assert_eq!(d.comm.recvs, 0, "unchanged counters delta to zero");
        // A restarted (smaller) counter saturates instead of wrapping.
        let mut restarted = sample(0);
        restarted.comm.sends = 1;
        assert_eq!(restarted.delta_since(&base).comm.sends, 0);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let v = Json::parse("{\"rank\": 0}").unwrap();
        assert!(RankReport::from_json(&v).is_err());
    }
}
