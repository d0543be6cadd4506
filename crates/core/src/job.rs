//! Job builder: runs the paper's one workflow — map → aggregate →
//! convert → reduce. A job is its settings ([`MimirContext::job`]), a
//! *feed* that says where the map phase's KVs come from, and a
//! *terminal* that picks the sink the aggregate lands them in and the
//! tail that turns that sink into the job's output:
//!
//! | terminal | sink | tail | [`map`](MapReduceJob::map) feed | [`chain`](MapReduceJob::chain) feed |
//! |---|---|---|---|---|
//! | [`reduce`](FedJob::reduce) | [`GroupedKvs`] (grouped on arrival) | convert + reduce | WC/OC baseline, `cps` | chained jobs |
//! | [`partial_reduce`](FedJob::partial_reduce) | [`PartialReducer`] | fold finalise | WC/OC `pr`, `pr`+`cps` | PageRank |
//! | [`group`](FedJob::group) | [`GroupedKvs`] (grouped on arrival) | convert, keeping the index | BFS partition | — |
//! | [`collect`](FedJob::collect) | KVC, behind the arrival filter if one is set | (none) | BFS seed, map-only jobs | BFS levels |
//!
//! The map phase is one function for every pairing: the feed drives the
//! map — through the KV compression table when the map feed has a
//! [`combine`](FedJob::combine)r, which flushes into the shuffle whenever
//! it outgrows its share of the node's pool (see
//! [`CombinerTable::emit_into`]) — into the shuffle, whose last rounds
//! drain in the Aggregate span. A chained feed reads a cached input (see
//! [`crate::KvCache`]); when its placement fingerprint matches the job's
//! partitioner, the exchange is skipped and the chained map feeds the
//! sink directly.
//!
//! The chained feed takes one more part: an
//! [`arrival_filter`](FedJob::arrival_filter) in front of `collect`'s
//! KVC, so a KV lands in the output only if the filter keeps it, whether
//! it came through the exchange or from an elided map. BFS claims its
//! vertices there. Unfiltered jobs still drain received runs into their
//! sink in bulk.
//!
//! Pairings the feed types allow but no job needs — `combine` with
//! `group` or `collect`, a filter with any terminal but `collect`,
//! `group` with `output_cached` — fail with a typed [`MimirError`]
//! before the job touches the pool or the cache.
//!
//! Per the paper, the global synchronization between map and reduce is
//! retained (a barrier after the shuffle completes); everything else is
//! implicit and interleaved.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use mimir_mem::MemPool;
use mimir_mpi::Comm;
use mimir_obs::{EventKind, GroupCounters, Phase, ShuffleCounters, SpanGuard};

use crate::combiner::{CombineFn, CombinerTable};
use crate::context::MimirContext;
use crate::grouped::GroupedKvs;
use crate::kmvc::{KmvContainer, ValueIter};
use crate::partial::PartialReducer;
use crate::partitioner::Partitioner;
use crate::shuffle::{Emitter, Shuffler};
use crate::sink::KvSink;
use crate::{JobStats, KvContainer, KvMeta, MimirError, Result};

/// A job's settings, before its feed is chosen.
pub struct MapReduceJob<'c, 'w> {
    ctx: &'c mut MimirContext<'w>,
    kv_meta: KvMeta,
    out_meta: KvMeta,
    partitioner: Partitioner,
    output_cached: Option<String>,
}

/// A job with its feed chosen, waiting for its terminal: `F` is
/// [`MapFeed`] or [`ChainFeed`]. A feed's type admits only its own
/// options: a combiner on a chained feed, elision or an arrival filter on
/// a map feed, and `group` on a chained feed each fail to compile.
///
/// ```compile_fail
/// # fn job(ctx: &mut mimir_core::MimirContext<'_>, add: mimir_core::CombineFn<'static>) {
/// ctx.job().chain("in", &mut |k, v, em| em.emit(k, v)).combine(add);
/// # }
/// ```
/// ```compile_fail
/// # fn job(ctx: &mut mimir_core::MimirContext<'_>) {
/// ctx.job().map(&mut |em| em.emit(b"k", b"v")).shuffle_elision(false);
/// # }
/// ```
/// ```compile_fail
/// # fn job(ctx: &mut mimir_core::MimirContext<'_>) {
/// ctx.job().map(&mut |em| em.emit(b"k", b"v")).arrival_filter(&mut |_, _| true);
/// # }
/// ```
/// ```compile_fail
/// # fn job(ctx: &mut mimir_core::MimirContext<'_>) {
/// ctx.job().chain("in", &mut |k, v, em| em.emit(k, v)).group();
/// # }
/// ```
#[must_use = "a job runs only when a terminal is called"]
pub struct FedJob<'c, 'w, F> {
    job: MapReduceJob<'c, 'w>,
    feed: Feed<'c>,
    kind: PhantomData<F>,
}

/// The feed type of [`MapReduceJob::map`], with [`FedJob::combine`].
pub enum MapFeed {}

/// The feed type of [`MapReduceJob::chain`]: a chained map over a cached
/// input, with [`shuffle_elision`](FedJob::shuffle_elision) and an
/// [`arrival_filter`](FedJob::arrival_filter).
pub enum ChainFeed {}

/// A finished job: the output KVs this rank owns, plus metrics.
pub struct JobOutput {
    /// Output KVs (hash-partitioned across ranks by key for shuffled
    /// jobs; reduce output stays on the reducing rank).
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
/// cached input partition (see [`MapReduceJob::chain`]), emitting
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

/// Arrival filter (see [`FedJob::arrival_filter`]): called once per KV on
/// its owner rank before the KV lands in the output; `true` keeps it.
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
            output_cached: None,
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

    /// Retains this job's output in the cross-job cache under `name`
    /// instead of returning it: the returned [`JobOutput`] carries an
    /// *empty* container (stats still describe the real output), and the
    /// KVs stay resident — charged against the pool — for a later job's
    /// [`Self::chain`] or [`MimirContext::with_cached`]. The entry is
    /// tagged with this job's partitioner fingerprint; an existing entry
    /// of the same name is replaced (the iterative update-in-place
    /// pattern).
    #[must_use]
    pub fn output_cached(mut self, name: impl Into<String>) -> Self {
        self.output_cached = Some(name.into());
        self
    }

    /// Feeds the job from `map`, which drives this rank's share of the
    /// input.
    pub fn map(self, map: MapFn<'c>) -> FedJob<'c, 'w, MapFeed> {
        self.feed(Source::Map(map))
    }

    /// Chains this job onto the cached container `input` from a previous
    /// job on this context (see [`Self::output_cached`]): `map` runs once
    /// per KV of the locally-resident partition, with zero
    /// serialize/spill round-trip, and its output is partitioned by this
    /// job's partitioner. When the cached placement fingerprint matches
    /// (and [`FedJob::shuffle_elision`] is not off), the exchange is
    /// skipped entirely and a `shuffle_elided` trace event marks it. The
    /// input is checked back in when the job ends, whether or not it
    /// succeeded; a name that is not cached fails the terminal with
    /// [`MimirError::Cache`].
    pub fn chain(self, input: impl Into<String>, map: ChainMapFn<'c>) -> FedJob<'c, 'w, ChainFeed> {
        self.feed(Source::Chain(input.into(), map))
    }

    fn feed<F>(self, source: Source<'c>) -> FedJob<'c, 'w, F> {
        let feed = Feed {
            source,
            combine: None,
            elide: true,
            keep: None,
        };
        FedJob {
            job: self,
            feed,
            kind: PhantomData,
        }
    }
}

impl<'c, 'w> FedJob<'c, 'w, MapFeed> {
    /// Folds the map's output through a KV-compression table (the `cps`
    /// optimization) before the shuffle. Only the `reduce` and
    /// `partial_reduce` terminals take one; `group` and `collect` fail
    /// with [`MimirError::Config`].
    pub fn combine(mut self, combine: CombineFn<'c>) -> Self {
        self.feed.combine = Some(combine);
        self
    }

    /// Groups on arrival into a KMVC that is the job's output: emitted
    /// KVs go to their owner ranks, are grouped there as they arrive, and
    /// the sealed container keeps its index, so it answers
    /// [`KmvContainer::get`] besides [`KmvContainer::for_each_group`]. No
    /// reduce runs and no output KVC exists. The BFS partition job: the
    /// returned container is the graph the traversal reads.
    ///
    /// # Errors
    /// [`MimirError::Cache`] with [`MapReduceJob::output_cached`] (the
    /// cache holds KVCs), otherwise as [`Self::reduce`].
    pub fn group(self) -> Result<(KmvContainer, JobStats)> {
        let (mut job, feed) = self.refuse_combine("group")?;
        if let Some(name) = &job.output_cached {
            let msg = format!("output_cached({name:?}) caches a KVC; group returns a KMVC");
            return Err(MimirError::Cache(msg));
        }
        let (grouped, mut stats) = job.map_phase(feed, GroupedKvs::new)?;
        let kmvc = job.convert(grouped, &mut stats, true)?;
        stats.kvs_out = kmvc.n_values();
        stats.node_peak_bytes = job.ctx.pool.peak();
        Ok((kmvc, stats))
    }
}

impl<'c, 'w> FedJob<'c, 'w, ChainFeed> {
    /// Controls shuffle elision (default `true`). Elision requires a
    /// *partition-preserving* map: every emitted key must land on this
    /// rank under the job's partitioner (checked per emit; violations
    /// fail with [`MimirError::Cache`]). Key-changing maps — BFS
    /// traversal, PageRank scatter — must pass `false` to get a real
    /// exchange. Collective: every rank must choose the same value.
    pub fn shuffle_elision(mut self, on: bool) -> Self {
        self.feed.elide = on;
        self
    }

    /// Filters [`Self::collect`]'s output on arrival: `keep` runs once
    /// per KV on the rank that owns it — as each exchange round drains,
    /// or at the emit when the shuffle is elided — and only the KVs it
    /// returns `true` for land in the output (and count in
    /// [`JobStats::kvs_out`]). KVs reach it in arrival order, so "keep
    /// the first KV of each key" is a first-come claim. Every other
    /// terminal fails with [`MimirError::Config`].
    pub fn arrival_filter(mut self, keep: ArrivalFilterFn<'c>) -> Self {
        self.feed.keep = Some(keep);
        self
    }
}

impl<'c, 'w, F> FedJob<'c, 'w, F> {
    /// The baseline workflow: map → (implicit aggregate) → convert →
    /// reduce.
    ///
    /// # Errors
    /// Memory exhaustion, hint violations, oversized KVs, errors from the
    /// callbacks, a chained input that is not cached, or a pairing the
    /// feed refuses ([`FedJob::combine`], [`FedJob::arrival_filter`]).
    pub fn reduce(self, reduce: ReduceFn<'_>) -> Result<JobOutput> {
        let (mut job, feed) = self.refuse_filter("reduce")?;
        let mapped = job.map_phase(feed, GroupedKvs::new)?;
        job.convert_reduce(mapped, reduce)
    }

    /// Partial reduction: map → (implicit aggregate) → fold. Replaces
    /// convert+reduce; requires `combine` to be commutative and
    /// associative.
    ///
    /// # Errors
    /// As [`Self::reduce`].
    pub fn partial_reduce(self, combine: CombineFn<'_>) -> Result<JobOutput> {
        let (mut job, feed) = self.refuse_filter("partial_reduce")?;
        let mapped = job.map_phase(feed, |pool, meta| PartialReducer::new(pool, meta, combine))?;
        job.fold_finish(mapped)
    }

    /// Map-only with shuffle: emitted KVs are partitioned to their owner
    /// ranks and returned ungrouped — behind the arrival filter, if a
    /// chained feed set one.
    ///
    /// # Errors
    /// As [`Self::reduce`].
    pub fn collect(self) -> Result<JobOutput> {
        let (mut job, mut feed) = self.refuse_combine("collect")?;
        let (kvc, stats) = match feed.keep.take() {
            None => job.map_phase(feed, |pool, meta| Ok(KvContainer::new(pool, meta)))?,
            Some(keep) => {
                let (filtered, stats) = job.map_phase(feed, |pool, meta| {
                    let kvc = KvContainer::new(pool, meta);
                    Ok(Filtered { kvc, keep })
                })?;
                (filtered.kvc, stats)
            }
        };
        job.finish(kvc, stats)
    }

    /// Refuses an arrival filter (only `collect` takes one).
    fn refuse_filter(self, terminal: &str) -> Result<(MapReduceJob<'c, 'w>, Feed<'c>)> {
        if self.feed.keep.is_some() {
            let msg = format!("arrival_filter requires the collect terminal, not {terminal}");
            return Err(MimirError::Config(msg));
        }
        Ok((self.job, self.feed))
    }

    /// Refuses a combiner (only `reduce` and `partial_reduce` take one).
    fn refuse_combine(self, terminal: &str) -> Result<(MapReduceJob<'c, 'w>, Feed<'c>)> {
        if self.feed.combine.is_some() {
            let msg = format!("combine requires reduce or partial_reduce, not {terminal}");
            return Err(MimirError::Config(msg));
        }
        Ok((self.job, self.feed))
    }
}

impl MapReduceJob<'_, '_> {
    /// The map phase of every pairing: drives `feed` into the sink that
    /// `new_sink` builds — through the shuffle, or straight in when a
    /// chained input's placement allows the elision — then drains the
    /// exchange and runs the map → reduce barrier in the Aggregate span.
    /// Returns the filled sink and the stats so far.
    fn map_phase<S: KvSink>(
        &mut self,
        feed: Feed<'_>,
        new_sink: impl FnOnce(&MemPool, KvMeta) -> Result<S>,
    ) -> Result<(S, JobStats)> {
        let MimirContext {
            comm,
            pool,
            cfg,
            cache,
            ..
        } = &mut *self.ctx;
        let mut clock = PhaseClock::start(pool, Phase::Map);
        let input = match &feed.source {
            Source::Chain(name, _) => Some((name.clone(), cache.checkout(name, pool)?)),
            Source::Map(_) => None,
        };
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let elide = feed.elide
            && input
                .as_ref()
                .is_some_and(|(_, i)| i.fingerprint == fingerprint);
        let input_kvc = input.as_ref().map(|(_, i)| &i.kvc);
        let meta = self.kv_meta;
        let fed = (|| -> Result<(S, ShuffleCounters, GroupCounters)> {
            let mut sink = new_sink(pool, meta)?;
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
                return Ok((sink, ShuffleCounters::default(), group));
            }
            let partitioner = self.partitioner.clone();
            let mut shuffler =
                Shuffler::with_partitioner(comm, pool, meta, cfg.comm_buf_size, sink, partitioner)?;
            let group = feed.drive(input_kvc, pool, meta, &mut shuffler)?;
            clock.enter(Phase::Aggregate);
            let (sink, shuffle) = shuffler.finish()?;
            Ok((sink, shuffle, group))
        })();
        // The input goes back even when the map failed, so an errored job
        // does not lose the cached dataset; only a success credits elision.
        if let Some((name, input)) = input {
            cache.checkin(&name, input);
            if elide && fed.is_ok() {
                cache.note_elision(&name);
            }
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

    /// The Convert span of the grouping terminals: seals the grouped
    /// chains into the KMVC, keeping the index's slot table if `keyed`.
    fn convert(
        &mut self,
        grouped: GroupedKvs,
        stats: &mut JobStats,
        keyed: bool,
    ) -> Result<KmvContainer> {
        let MimirContext { pool, .. } = &*self.ctx;
        let clock = PhaseClock::start(pool, Phase::Convert);
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
        let MimirContext { comm, pool, .. } = &mut *self.ctx;
        let clock = PhaseClock::start(pool, Phase::Reduce);
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
        let MimirContext { comm, pool, .. } = &mut *self.ctx;
        let clock = PhaseClock::start(pool, Phase::Reduce);
        stats.unique_keys = reducer.unique_keys() as u64;
        stats.group.merge(&reducer.group_stats());
        let out = reducer.into_output(pool, self.out_meta)?;
        stats.barrier_wait_ns += timed_barrier(comm);
        (stats.reduce_time, stats.reduce_peak_bytes) = clock.stop(pool);
        self.finish(out, stats)
    }

    /// The finish of every KVC terminal: applies [`Self::output_cached`]
    /// — the output moves into the cache under the job's placement
    /// fingerprint and the caller gets an empty container of the same
    /// encoding — and completes the stats.
    fn finish(self, out: KvContainer, mut stats: JobStats) -> Result<JobOutput> {
        let MimirContext {
            comm, pool, cache, ..
        } = &mut *self.ctx;
        stats.kvs_out = out.len();
        let output = match &self.output_cached {
            Some(name) => {
                let meta = out.meta();
                let fingerprint = self.partitioner.fingerprint(comm.size());
                cache.insert(name, out, fingerprint);
                KvContainer::new(pool, meta)
            }
            None => out,
        };
        stats.node_peak_bytes = pool.peak();
        Ok(JobOutput { output, stats })
    }
}

/// What a job's map phase reads, and the options its feed type allows.
struct Feed<'f> {
    source: Source<'f>,
    /// The map feed's KV-compression combiner.
    combine: Option<CombineFn<'f>>,
    /// The chained feed's shuffle elision switch.
    elide: bool,
    /// The chained feed's arrival filter; `collect` takes it out.
    keep: Option<ArrivalFilterFn<'f>>,
}

/// Where a job's map phase takes its KVs from.
enum Source<'f> {
    /// The map callback.
    Map(MapFn<'f>),
    /// The chained map, once per KV of the named cached input.
    Chain(String, ChainMapFn<'f>),
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
        match (self.source, self.combine) {
            (Source::Map(map), None) => map(out)?,
            (Source::Map(map), Some(cf)) => {
                let mut table = CombinerTable::new(pool, meta, cf)?;
                map(&mut Combining {
                    table: &mut table,
                    out,
                })?;
                table.flush_into(out)?;
                return Ok(table.group_stats());
            }
            (Source::Chain(_, map), _) => {
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
    /// Opens `phase`: the timer and a fresh pool phase peak.
    fn start(pool: &MemPool, phase: Phase) -> Self {
        let t0 = Instant::now();
        pool.reset_phase_peak();
        let span = Some(mimir_obs::phase_span(phase));
        Self { t0, span }
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

/// Runs a barrier and returns the time this rank spent blocked in it, by
/// differencing the communicator's cumulative wait counter. Feeds
/// [`JobStats::barrier_wait_ns`]: the rank that waits *least* at a phase
/// barrier is the straggler everyone else waited for.
fn timed_barrier(comm: &mut Comm) -> u64 {
    let w0 = comm.wait_ns();
    comm.barrier();
    comm.wait_ns() - w0
}
