//! Job driver: runs the paper's one workflow — map → aggregate →
//! convert → reduce — for every run shape. A shape is a *feed* (where the
//! map phase's KVs come from), a *sink* (what the aggregate lands them
//! in) and a *tail* (what turns the sink into the job's output):
//!
//! | method | feed | sink | tail | used by |
//! |---|---|---|---|---|
//! | [`MapReduceJob::map_reduce`] | map | [`GroupedKvs`] (grouped on arrival) | convert + reduce | WC/OC baseline |
//! | [`MapReduceJob::map_reduce_compress`] | map + combiner | [`GroupedKvs`] (grouped on arrival) | convert + reduce | WC/OC `cps` |
//! | [`MapReduceJob::map_partial_reduce`] | map | [`PartialReducer`] | fold finalise | WC/OC `pr` |
//! | [`MapReduceJob::map_partial_reduce_compress`] | map + combiner | [`PartialReducer`] | fold finalise | WC/OC `pr`+`cps` |
//! | [`MapReduceJob::map_group`] | map | [`GroupedKvs`] (grouped on arrival) | convert, keeping the index | BFS partition |
//! | [`MapReduceJob::map_shuffle`] | map | KVC | (none) | BFS seed, map-only jobs |
//! | [`MapReduceJob::chain_shuffle`] | cached input | KVC, behind the arrival filter if one is set | (none) | BFS levels |
//! | [`MapReduceJob::chain_reduce`] | cached input | [`GroupedKvs`] | convert + reduce | chained jobs |
//! | [`MapReduceJob::chain_partial_reduce`] | cached input | [`PartialReducer`] | fold finalise | PageRank |
//!
//! The map phase is one function for every shape: the feed drives the
//! map — through the KV compression table when a combiner is given,
//! which flushes into the shuffle whenever it outgrows its share of the
//! node's pool (see [`CombinerTable::emit_into`]) — into the shuffle,
//! whose last rounds drain in the Aggregate span. A
//! cached input (see [`crate::KvCache`]) whose placement fingerprint
//! matches the job's partitioner skips the exchange: the chained map
//! feeds the sink directly.
//!
//! One shape takes one more part: [`MapReduceJob::arrival_filter`] puts a
//! predicate in front of `chain_shuffle`'s KVC, so a KV lands in the
//! output only if the filter keeps it, whether it came through the
//! exchange or from an elided map. BFS claims its vertices there.
//! Unfiltered jobs still drain received runs into their sink in bulk.
//!
//! Per the paper, the global synchronization between map and reduce is
//! retained (a barrier after the shuffle completes); everything else is
//! implicit and interleaved.

use std::time::{Duration, Instant};

use mimir_mem::MemPool;
use mimir_mpi::Comm;
use mimir_obs::{EventKind, GroupCounters, Phase, SpanGuard};

use crate::cache::{lock_cache, CheckedOut, SharedKvCache};
use crate::combiner::{CombineFn, CombinerTable};
use crate::context::MimirContext;
use crate::grouped::GroupedKvs;
use crate::kmvc::{KmvContainer, ValueIter};
use crate::partial::PartialReducer;
use crate::partitioner::Partitioner;
use crate::shuffle::{Emitter, ShuffleStats, Shuffler};
use crate::sink::KvSink;
use crate::{CancelToken, JobStats, KvContainer, KvMeta, MimirError, Result};

/// A configured-but-not-yet-run MapReduce job.
pub struct MapReduceJob<'c, 'w> {
    ctx: &'c mut MimirContext<'w>,
    kv_meta: KvMeta,
    out_meta: KvMeta,
    partitioner: Partitioner,
    input_cached: Option<String>,
    output_cached: Option<String>,
    elide: bool,
    arrival_filter: Option<ArrivalFilterFn<'c>>,
}

/// A finished job: the output KVs this rank owns, plus metrics.
pub struct JobOutput {
    /// Output KVs (hash-partitioned across ranks by key for shuffled
    /// shapes; reduce output stays on the reducing rank).
    pub output: KvContainer,
    /// Per-rank metrics.
    pub stats: JobStats,
}

/// Emitter wrapper for reduce callbacks writing job output.
struct OutEmitter<'a>(&'a mut KvContainer);

impl Emitter for OutEmitter<'_> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.0.push(key, val)
    }
}

/// Map callback: drives this rank's share of the input, emitting
/// intermediate KVs.
pub type MapFn<'f> = &'f mut dyn FnMut(&mut dyn Emitter) -> Result<()>;

/// Chained map callback: invoked once per KV of the locally-resident
/// cached input partition (see [`MapReduceJob::input_cached`]), emitting
/// intermediate KVs for this job.
pub type ChainMapFn<'f> = &'f mut dyn FnMut(&[u8], &[u8], &mut dyn Emitter) -> Result<()>;

/// The elided-shuffle emitter: feeds the chained map's output straight
/// into the aggregate sink, skipping the exchange entirely. Every emitted
/// key is checked against the declared partitioner so a map that is *not*
/// partition-preserving fails loudly instead of silently misplacing data.
struct LocalEmitter<'a, S: KvSink> {
    sink: &'a mut S,
    partitioner: &'a Partitioner,
    rank: usize,
    n_ranks: usize,
    kvs: u64,
    bytes: u64,
}

impl<S: KvSink> Emitter for LocalEmitter<'_, S> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let owner = self.partitioner.of(key, self.n_ranks);
        if owner != self.rank {
            return Err(MimirError::Cache(format!(
                "elided shuffle on rank {}: map emitted a key owned by rank {owner}; \
                 the chained map is not partition-preserving — declare it with \
                 shuffle_elision(false)",
                self.rank
            )));
        }
        self.kvs += 1;
        self.bytes += (key.len() + val.len()) as u64;
        self.sink.accept(key, val)
    }
}

/// Arrival filter (see [`MapReduceJob::arrival_filter`]): called once per
/// KV on its owner rank before the KV lands in the output; `true` keeps
/// it.
pub type ArrivalFilterFn<'f> = &'f mut dyn FnMut(&[u8], &[u8]) -> bool;

/// The sink behind an arrival filter: a KVC that takes only the KVs the
/// filter keeps. Runs arrive through [`KvSink::accept_run`]'s per-KV
/// default, since the filter must see every KV.
struct Filtered<'f> {
    kvc: KvContainer,
    keep: ArrivalFilterFn<'f>,
}

impl KvSink for Filtered<'_> {
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        if (self.keep)(key, val) {
            self.kvc.push(key, val)?;
        }
        Ok(())
    }
}

/// Reduce callback: one key with all its values; emits output KVs.
pub type ReduceFn<'f> = &'f mut dyn FnMut(&[u8], ValueIter<'_>, &mut dyn Emitter) -> Result<()>;

impl<'c, 'w> MapReduceJob<'c, 'w> {
    pub(crate) fn new(ctx: &'c mut MimirContext<'w>) -> Self {
        Self {
            ctx,
            kv_meta: KvMeta::var(),
            out_meta: KvMeta::var(),
            partitioner: Partitioner::hash(),
            input_cached: None,
            output_cached: None,
            elide: true,
            arrival_filter: None,
        }
    }

    /// Sets the intermediate KV encoding (the KV-hint optimization).
    #[must_use]
    pub fn kv_meta(mut self, meta: KvMeta) -> Self {
        self.kv_meta = meta;
        self
    }

    /// Sets the output KV encoding (defaults to un-hinted).
    #[must_use]
    pub fn out_meta(mut self, meta: KvMeta) -> Self {
        self.out_meta = meta;
        self
    }

    /// Installs a user key partitioner (default: hash). Must be
    /// deterministic and identical on every rank.
    #[must_use]
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Chains this job onto the named cached container from a previous
    /// job on this context (see [`Self::output_cached`]): the `chain_*`
    /// run shapes feed the locally-resident partition straight into the
    /// chained map with zero serialize/spill round-trip. When the cached
    /// placement fingerprint matches this job's partitioner (and elision
    /// is not disabled via [`Self::shuffle_elision`]), the shuffle is
    /// elided entirely. Only valid with the `chain_*` shapes.
    #[must_use]
    pub fn input_cached(mut self, name: impl Into<String>) -> Self {
        self.input_cached = Some(name.into());
        self
    }

    /// Retains this job's output in the cross-job cache under `name`
    /// instead of returning it: the returned [`JobOutput`] carries an
    /// *empty* container (stats still describe the real output), and the
    /// KVs stay resident — charged against the pool — for a later job's
    /// [`Self::input_cached`] or [`MimirContext::with_cached`]. The entry
    /// is tagged with this job's partitioner fingerprint; an existing
    /// entry of the same name is replaced (the iterative update-in-place
    /// pattern).
    #[must_use]
    pub fn output_cached(mut self, name: impl Into<String>) -> Self {
        self.output_cached = Some(name.into());
        self
    }

    /// Controls shuffle elision for the `chain_*` shapes (default `true`).
    /// Elision requires a *partition-preserving* map: every emitted key
    /// must land on this rank under the job's partitioner (checked per
    /// emit; violations fail with [`MimirError::Cache`]). Key-changing
    /// maps — BFS traversal, PageRank scatter — must pass `false` to get
    /// a real exchange. Collective: every rank must choose the same value.
    #[must_use]
    pub fn shuffle_elision(mut self, on: bool) -> Self {
        self.elide = on;
        self
    }

    /// Filters [`Self::chain_shuffle`]'s output on arrival: `keep` runs
    /// once per KV on the rank that owns it — as each exchange round
    /// drains, or at the emit when the shuffle is elided — and only the
    /// KVs it returns `true` for land in the output (and count in
    /// [`JobStats::kvs_out`]). KVs reach it in arrival order, so "keep
    /// the first KV of each key" is a first-come claim. Only valid with
    /// `chain_shuffle`; every other shape fails with
    /// [`MimirError::Config`].
    #[must_use]
    pub fn arrival_filter(mut self, keep: ArrivalFilterFn<'c>) -> Self {
        self.arrival_filter = Some(keep);
        self
    }

    /// The baseline workflow: map → (implicit aggregate) → convert →
    /// reduce.
    ///
    /// # Errors
    /// Memory exhaustion, hint violations, oversized KVs, or errors from
    /// the callbacks.
    pub fn map_reduce(mut self, map: MapFn<'_>, reduce: ReduceFn<'_>) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let mapped = self.map_phase(Feed::Map(map, None), |pool| GroupedKvs::new(pool, meta))?;
        self.convert_reduce(mapped, reduce)
    }

    /// [`Self::map_reduce`] with map-side KV compression.
    pub fn map_reduce_compress(
        mut self,
        map: MapFn<'_>,
        compress: CombineFn<'_>,
        reduce: ReduceFn<'_>,
    ) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let feed = Feed::Map(map, Some(compress));
        let mapped = self.map_phase(feed, |pool| GroupedKvs::new(pool, meta))?;
        self.convert_reduce(mapped, reduce)
    }

    /// Partial reduction: map → (implicit aggregate) → fold. Replaces
    /// convert+reduce; requires `combine` to be commutative and
    /// associative.
    pub fn map_partial_reduce(
        mut self,
        map: MapFn<'_>,
        combine: CombineFn<'_>,
    ) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let feed = Feed::Map(map, None);
        let mapped = self.map_phase(feed, |pool| PartialReducer::new(pool, meta, combine))?;
        self.fold_finish(mapped)
    }

    /// [`Self::map_partial_reduce`] with map-side KV compression too.
    pub fn map_partial_reduce_compress(
        mut self,
        map: MapFn<'_>,
        compress: CombineFn<'_>,
        combine: CombineFn<'_>,
    ) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let feed = Feed::Map(map, Some(compress));
        let mapped = self.map_phase(feed, |pool| PartialReducer::new(pool, meta, combine))?;
        self.fold_finish(mapped)
    }

    /// Map, then group on arrival into a KMVC that is the job's output:
    /// emitted KVs go to their owner ranks, are grouped there as they
    /// arrive, and the sealed container keeps its index, so it answers
    /// [`KmvContainer::get`] besides [`KmvContainer::for_each_group`]. No
    /// reduce runs and no output KVC exists. The BFS partition shape:
    /// the returned container is the graph the traversal reads.
    ///
    /// # Errors
    /// [`MimirError::Cache`] with [`Self::input_cached`] or
    /// [`Self::output_cached`] (the cache holds KVCs), otherwise as
    /// [`Self::map_reduce`].
    pub fn map_group(mut self, map: MapFn<'_>) -> Result<(KmvContainer, JobStats)> {
        if let Some(name) = &self.output_cached {
            return Err(MimirError::Cache(format!(
                "output_cached({name:?}) caches a KVC; map_group returns a KMVC"
            )));
        }
        let meta = self.kv_meta;
        let feed = Feed::Map(map, None);
        let (grouped, mut stats) = self.map_phase(feed, |pool| GroupedKvs::new(pool, meta))?;
        let kmvc = self.convert(grouped, &mut stats, true)?;
        stats.kvs_out = kmvc.n_values();
        stats.node_peak_bytes = self.ctx.pool.peak();
        Ok((kmvc, stats))
    }

    /// Map-only with shuffle: emitted KVs are hash-partitioned to their
    /// owner ranks and returned ungrouped.
    pub fn map_shuffle(mut self, map: MapFn<'_>) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let feed = Feed::Map(map, None);
        let (kvc, stats) = self.map_phase(feed, |pool| Ok(KvContainer::new(pool, meta)))?;
        self.finish(kvc, stats)
    }

    /// Chained map-only: runs `map` once per KV of the cached input named
    /// by [`Self::input_cached`], partitioning its output by this job's
    /// partitioner. When the input's placement fingerprint matches and
    /// elision is enabled, the exchange is skipped entirely (a
    /// `shuffle_elided` trace event marks it); otherwise the output goes
    /// through a real shuffle. With an [`Self::arrival_filter`], only the
    /// KVs it keeps land in the output. The iterative BFS traversal shape.
    ///
    /// # Errors
    /// [`MimirError::Cache`] when no input name was declared, the name is
    /// not cached, or an elided map emits a key this rank does not own;
    /// otherwise as [`Self::map_shuffle`].
    pub fn chain_shuffle(mut self, map: ChainMapFn<'_>) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let feed = Feed::Chain(map);
        let (kvc, stats) = match self.arrival_filter.take() {
            None => self.map_phase(feed, |pool| Ok(KvContainer::new(pool, meta)))?,
            Some(keep) => {
                let (filtered, stats) = self.map_phase(feed, move |pool| {
                    let kvc = KvContainer::new(pool, meta);
                    Ok(Filtered { kvc, keep })
                })?;
                (filtered.kvc, stats)
            }
        };
        self.finish(kvc, stats)
    }

    /// Chained full workflow: per-KV map over the cached input, then
    /// convert + reduce — [`Self::map_reduce`] with the front half
    /// replaced by the cache (and the shuffle elided when the placement
    /// fingerprint matches).
    ///
    /// # Errors
    /// As [`Self::chain_shuffle`] and [`Self::map_reduce`].
    pub fn chain_reduce(mut self, map: ChainMapFn<'_>, reduce: ReduceFn<'_>) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let mapped = self.map_phase(Feed::Chain(map), |pool| GroupedKvs::new(pool, meta))?;
        self.convert_reduce(mapped, reduce)
    }

    /// Chained partial reduction: per-KV map over the cached input folding
    /// straight into the combine bucket — [`Self::map_partial_reduce`]
    /// with the front half replaced by the cache (and the shuffle elided
    /// when the placement fingerprint matches). The iterative PageRank
    /// shape.
    ///
    /// # Errors
    /// As [`Self::chain_shuffle`] and [`Self::map_partial_reduce`].
    pub fn chain_partial_reduce(
        mut self,
        map: ChainMapFn<'_>,
        combine: CombineFn<'_>,
    ) -> Result<JobOutput> {
        let meta = self.kv_meta;
        let feed = Feed::Chain(map);
        let mapped = self.map_phase(feed, |pool| PartialReducer::new(pool, meta, combine))?;
        self.fold_finish(mapped)
    }

    /// The map phase of every shape: drives `feed` into the sink that
    /// `new_sink` builds — through the shuffle, or straight in when a
    /// chained input's placement allows the elision — then drains the
    /// exchange and runs the map → reduce barrier in the Aggregate span.
    /// Returns the filled sink and the stats so far.
    fn map_phase<S: KvSink>(
        &mut self,
        feed: Feed<'_>,
        new_sink: impl FnOnce(&MemPool) -> Result<S>,
    ) -> Result<(S, JobStats)> {
        // `chain_shuffle` takes its filter before it gets here; any other
        // shape would silently ignore it.
        if self.arrival_filter.is_some() {
            return Err(MimirError::Config(
                "arrival_filter requires the chain_shuffle run shape".to_string(),
            ));
        }
        // A map feed drives its own input and would silently ignore a
        // cached one.
        let chain_input = match (&feed, &self.input_cached) {
            (Feed::Map(..), None) => None,
            (Feed::Map(..), Some(name)) => {
                return Err(MimirError::Cache(format!(
                    "input_cached({name:?}) requires a chain_* run shape"
                )))
            }
            (Feed::Chain(_), Some(name)) => Some(name.clone()),
            (Feed::Chain(_), None) => {
                return Err(MimirError::Cache(
                    "chain_* run shapes require input_cached(name)".to_string(),
                ))
            }
        };
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        let mut clock = PhaseClock::start(comm, cancel, pool, Phase::Map)?;
        let input = match &chain_input {
            Some(name) => Some(lock_cache(cache).checkout(name, pool)?),
            None => None,
        };
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let elide = self.elide && input.as_ref().is_some_and(|i| i.fingerprint == fingerprint);
        let input_kvc = input.as_ref().map(|i| &i.kvc);
        let meta = self.kv_meta;
        let fed = (|| -> Result<(S, ShuffleStats, GroupCounters)> {
            let mut sink = new_sink(pool)?;
            if elide {
                let mut local = LocalEmitter {
                    sink: &mut sink,
                    partitioner: &self.partitioner,
                    rank: comm.rank(),
                    n_ranks: comm.size(),
                    kvs: 0,
                    bytes: 0,
                };
                let group = feed.drive(input_kvc, pool, meta, &mut local)?;
                mimir_obs::emit(EventKind::ShuffleElided, local.kvs, local.bytes);
                clock.enter(Phase::Aggregate);
                return Ok((sink, ShuffleStats::default(), group));
            }
            let partitioner = self.partitioner.clone();
            let mut shuffler =
                Shuffler::with_partitioner(comm, pool, meta, cfg.comm_buf_size, sink, partitioner)?;
            let group = feed.drive(input_kvc, pool, meta, &mut shuffler)?;
            clock.enter(Phase::Aggregate);
            let (sink, shuffle) = shuffler.finish()?;
            Ok((sink, shuffle, group))
        })();
        if let (Some(name), Some(input)) = (chain_input, input) {
            finish_chain_input(cache, &name, input, elide && fed.is_ok());
        }
        let (sink, shuffle, group) = fed?;
        // The paper retains the global synchronization between the map
        // and reduce phases.
        let barrier_wait_ns = timed_barrier(comm);
        let (map_time, map_peak_bytes) = clock.stop(pool);
        let stats = JobStats {
            map_time,
            shuffle,
            group,
            map_peak_bytes,
            barrier_wait_ns,
            ..JobStats::default()
        };
        Ok((sink, stats))
    }

    /// The Convert span of the grouping shapes: seals the grouped chains
    /// into the KMVC, keeping the index's slot table if `keyed`.
    fn convert(
        &mut self,
        grouped: GroupedKvs,
        stats: &mut JobStats,
        keyed: bool,
    ) -> Result<KmvContainer> {
        let MimirContext {
            comm, pool, cancel, ..
        } = &mut *self.ctx;
        let clock = PhaseClock::start(comm, cancel, pool, Phase::Convert)?;
        let (kmvc, group) = grouped.seal(keyed)?;
        stats.group.merge(&group);
        stats.unique_keys = kmvc.n_groups() as u64;
        (stats.convert_time, stats.convert_peak_bytes) = clock.stop(pool);
        Ok(kmvc)
    }

    /// Convert + reduce: seals the grouped chains into the KMVC, then runs
    /// `reduce` over every group into the output.
    fn convert_reduce(
        mut self,
        (grouped, mut stats): (GroupedKvs, JobStats),
        reduce: ReduceFn<'_>,
    ) -> Result<JobOutput> {
        let kmvc = self.convert(grouped, &mut stats, false)?;
        let MimirContext {
            comm, pool, cancel, ..
        } = &mut *self.ctx;
        let clock = PhaseClock::start(comm, cancel, pool, Phase::Reduce)?;
        let mut out = KvContainer::new(pool, self.out_meta);
        let mut emitter = OutEmitter(&mut out);
        kmvc.for_each_group(|k, vals| reduce(k, vals, &mut emitter))?;
        drop(kmvc);
        stats.barrier_wait_ns += timed_barrier(comm);
        (stats.reduce_time, stats.reduce_peak_bytes) = clock.stop(pool);
        self.finish(out, stats)
    }

    /// The partial-reduction finalise: moves the fold table into the
    /// output in the Reduce span.
    fn fold_finish(
        self,
        (reducer, mut stats): (PartialReducer<'_>, JobStats),
    ) -> Result<JobOutput> {
        let MimirContext {
            comm, pool, cancel, ..
        } = &mut *self.ctx;
        let clock = PhaseClock::start(comm, cancel, pool, Phase::Reduce)?;
        stats.unique_keys = reducer.unique_keys() as u64;
        stats.group.merge(&reducer.group_stats());
        let out = reducer.into_output(pool, self.out_meta)?;
        stats.barrier_wait_ns += timed_barrier(comm);
        (stats.reduce_time, stats.reduce_peak_bytes) = clock.stop(pool);
        self.finish(out, stats)
    }

    /// The finish of every shape: applies [`Self::output_cached`] — the
    /// output moves into the cache under the job's placement fingerprint
    /// and the caller gets an empty container of the same encoding — and
    /// completes the stats.
    fn finish(self, out: KvContainer, mut stats: JobStats) -> Result<JobOutput> {
        let MimirContext {
            comm, pool, cache, ..
        } = &*self.ctx;
        stats.kvs_out = out.len();
        let output = match &self.output_cached {
            Some(name) => {
                let meta = out.meta();
                let fingerprint = self.partitioner.fingerprint(comm.size());
                lock_cache(cache).insert(name, out, fingerprint);
                KvContainer::new(pool, meta)
            }
            None => out,
        };
        stats.node_peak_bytes = pool.peak();
        Ok(JobOutput { output, stats })
    }
}

/// Where a job's map phase takes its KVs from.
enum Feed<'f> {
    /// The map callback, behind a KV-compression table when a combiner
    /// is given.
    Map(MapFn<'f>, Option<CombineFn<'f>>),
    /// The chained map, once per KV of the cached input.
    Chain(ChainMapFn<'f>),
}

/// A map's emitter through a compression table: each KV folds into the
/// table, which flushes into `out` whenever it outgrows its budget.
struct Combining<'a, 'f> {
    table: &'a mut CombinerTable<'f>,
    out: &'a mut dyn Emitter,
}

impl Emitter for Combining<'_, '_> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.table.emit_into(key, val, self.out)
    }
}

impl Feed<'_> {
    /// Runs the feed into `out`, flushing a compression table's
    /// remainder at the end. Returns the table's counters (none without
    /// one).
    fn drive(
        self,
        input: Option<&KvContainer>,
        pool: &MemPool,
        meta: KvMeta,
        out: &mut dyn Emitter,
    ) -> Result<GroupCounters> {
        match self {
            Feed::Map(map, None) => map(out)?,
            Feed::Map(map, Some(cf)) => {
                let mut table = CombinerTable::new(pool, meta, cf)?;
                map(&mut Combining {
                    table: &mut table,
                    out,
                })?;
                table.flush_into(out)?;
                return Ok(table.group_stats());
            }
            Feed::Chain(map) => {
                if let Some(input) = input {
                    for (k, v) in input.iter() {
                        map(k, v, out)?;
                    }
                }
            }
        }
        Ok(GroupCounters::default())
    }
}

/// One phase's clock, opened at a phase boundary and stopped into the
/// phase's wall time and pool peak.
struct PhaseClock {
    t0: Instant,
    span: Option<SpanGuard>,
}

impl PhaseClock {
    /// Opens `phase`. First the collective cancellation checkpoint: free
    /// when no [`CancelToken`] is installed; otherwise an `allreduce Max`
    /// vote of the local flag on the job's communicator, so all ranks
    /// abandon the job at the same boundary (see the `cancel` module
    /// docs). Then the timer and a fresh pool phase peak.
    fn start(
        comm: &mut Comm,
        cancel: &Option<CancelToken>,
        pool: &MemPool,
        phase: Phase,
    ) -> Result<Self> {
        if let Some(token) = cancel {
            let raised =
                comm.allreduce_u64(mimir_mpi::ReduceOp::Max, u64::from(token.is_cancelled()));
            if raised != 0 {
                return Err(MimirError::Cancelled);
            }
        }
        let t0 = Instant::now();
        pool.reset_phase_peak();
        let span = Some(mimir_obs::phase_span(phase));
        Ok(Self { t0, span })
    }

    /// Moves the trace span on to `phase`; the timer keeps running.
    fn enter(&mut self, phase: Phase) {
        self.span = None;
        self.span = Some(mimir_obs::phase_span(phase));
    }

    /// Closes the phase: its wall time and the pool's peak within it.
    fn stop(self, pool: &MemPool) -> (Duration, usize) {
        drop(self.span);
        (self.t0.elapsed(), pool.phase_peak())
    }
}

/// Returns a chained input to the cache — even when the map failed, so an
/// errored job does not lose the cached dataset — and credits an elision
/// on success.
fn finish_chain_input(cache: &SharedKvCache, name: &str, input: CheckedOut, elided: bool) {
    let mut c = lock_cache(cache);
    c.checkin(name, input);
    if elided {
        c.note_elision(name);
    }
}

/// Runs a barrier and returns the time this rank spent blocked in it, by
/// differencing the communicator's cumulative wait counter. Feeds
/// [`JobStats::barrier_wait_ns`]: the rank that waits *least* at a phase
/// barrier is the straggler everyone else waited for.
fn timed_barrier(comm: &mut Comm) -> u64 {
    let w0 = comm.wait_ns();
    comm.barrier();
    comm.wait_ns() - w0
}
