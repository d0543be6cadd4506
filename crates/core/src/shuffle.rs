//! The interleaved map/aggregate engine (paper Section III-A, Figure 4).
//!
//! Each rank owns a *send buffer* divided into `p` equal partitions and a
//! *receive buffer* of the same total size. The map callback emits KVs
//! straight into the partition chosen by the key hash — there is no map
//! output buffer and no staging copy. When a partition fills, the map is
//! suspended and an **exchange round** runs; received KVs drain into the
//! job's [`KvSink`] and the map resumes. Because every sender contributes
//! at most one partition (`comm_buf/p` bytes) to each receiver, the
//! received data can never exceed the receive buffer, "even when the KV
//! partitioning is highly unbalanced" — the paper's Section III-B
//! guarantee, which is why the receive buffer needs only one send-buffer's
//! worth of space where MR-MPI needed two pages. The bound is enforced at
//! runtime: every round's received bytes land in the static receive
//! buffer, and overflowing it panics.
//!
//! ## Exchange round
//!
//! A round is three steps, in this order on every rank:
//!
//! 1. **vote** — `allreduce(LAnd)` of the ranks' done flags;
//! 2. **exchange** — each partition leaves straight from its send-buffer
//!    slice through pooled transport buffers
//!    ([`Comm::alltoallv_post`]), and the peers' partitions land in the
//!    static receive buffer ([`Comm::alltoallv_complete`]);
//! 3. **drain** — each source rank's run goes to the sink in one
//!    [`KvSink::accept_run`] call: for a [`crate::KvContainer`] that is a
//!    page-wise memcpy (wire format equals container format), for
//!    [`crate::GroupedKvs`] one grouping walk over the cache-hot run.
//!
//! A rank enters a round when a partition fills (`done = false`) or, once
//! its input is exhausted, repeatedly from [`Shuffler::finish`]
//! (`done = true`) until the vote reports everyone done. All ranks thus
//! execute identical collective sequences — the MPI matching rule — and
//! the final round still drains in-flight data, so the protocol is
//! deadlock-free and loses nothing. After a warm-up round the steady
//! state performs no heap allocation.
//!
//! ## Emitting a batch
//!
//! A map that holds several KVs at once hands them over through
//! [`Emitter::emit_batch`] (WordCount passes 32 words a call);
//! [`Emitter::emit`] is a batch of one. The shuffler routes up to 32 KVs —
//! hash and partition — before it copies any, and copies them in order
//! under a loop compiled for the job's hint pair, so a KV costs its hash,
//! a fill check and two fixed-width copies. A partition that cannot take
//! the next KV runs its exchange round right there, mid-batch, exactly
//! where a KV-at-a-time loop would: each round carries the same bytes and
//! the round count is the same. A KV that fails its hint or is larger
//! than a partition returns its error with the KVs before it placed and
//! the ones after it not. The byte counters (`kv_bytes_emitted`, the
//! per-destination histogram) are taken from the partition fills once a
//! round, not bumped per KV.

use std::ops::Range;

use mimir_mem::MemPool;
use mimir_mpi::{Comm, ReduceOp};
use mimir_obs::{EventKind, ShuffleCounters, Step};

use crate::buffer::TrackedBuf;
use crate::hash::{fxhash64, partition_of_hashed};
use crate::kv::{with_sides, Side};
use crate::partitioner::Partitioner;
use crate::sink::KvSink;
use crate::{KvMeta, MimirError, Result};

/// KVs [`Shuffler::emit_batch`] routes before it copies any of them.
const BATCH: usize = 32;

/// Destination for KVs produced by a map callback.
///
/// Implemented by [`Shuffler`] (direct emission into the send buffer), by
/// [`crate::CombinerTable`] (KV compression), and by the reduce phase's
/// output container wrapper.
pub trait Emitter {
    /// Emits one KV.
    ///
    /// # Errors
    /// Hint violations, oversized KVs, or memory exhaustion.
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()>;

    /// Emits one KV whose `fxhash64` is already known (`key_hash` must be
    /// `fxhash64(key)`). Emitters that route by key hash — the
    /// [`Shuffler`] under the default partitioner — override this to skip
    /// re-hashing; the default discards the hash and forwards to
    /// [`Self::emit`].
    ///
    /// # Errors
    /// As [`Self::emit`].
    fn emit_hashed(&mut self, key: &[u8], val: &[u8], key_hash: u64) -> Result<()> {
        let _ = key_hash;
        self.emit(key, val)
    }

    /// Emits `kvs` in order, with the effect of a loop over
    /// [`Self::emit`]: a map that holds several KVs at once (WordCount's
    /// tokenizer cuts a 64-byte block's words together) hands them over
    /// in one call. The [`Shuffler`] overrides this to route a whole
    /// batch before copying any of it; the default is that loop.
    ///
    /// # Errors
    /// As [`Self::emit`], for the first KV that fails; the KVs before it
    /// have been emitted and the ones after it have not.
    fn emit_batch(&mut self, kvs: &[(&[u8], &[u8])]) -> Result<()> {
        kvs.iter().try_for_each(|&(key, val)| self.emit(key, val))
    }
}

/// The counters [`Shuffler::finish`] returns: the report's `shuffle`
/// section itself.
pub type ShuffleStats = ShuffleCounters;

/// The partitioned-send-buffer shuffle engine.
pub struct Shuffler<'a, S: KvSink> {
    comm: &'a mut Comm,
    meta: KvMeta,
    send: TrackedBuf,
    /// The static receive buffer of paper Section III-B. Every round's
    /// received partitions are copied here; the partition arithmetic
    /// guarantees one send-buffer's worth of space always suffices.
    recv: TrackedBuf,
    part_cap: usize,
    part_len: Vec<usize>,
    /// Receive-buffer sub-range per source rank, reused across rounds.
    ranges: Vec<Range<usize>>,
    /// Cumulative bytes emitted towards each destination rank — the
    /// per-destination histogram behind the skew metrics.
    dest_bytes: Vec<u64>,
    /// Preallocated sort buffer for the Gini computation, so per-round
    /// skew accounting stays allocation-free in steady state.
    skew_scratch: Vec<u64>,
    partitioner: Partitioner,
    sink: S,
    stats: ShuffleCounters,
    /// Whether the once-only oversized-KV warning has fired.
    warned_jumbo: bool,
}

/// Imbalance ratio (max/mean) and Gini coefficient, both in permille, of
/// the distribution currently held in `values`. Sorts `values` in place
/// (callers pass a reused scratch buffer). Returns `None` for an empty or
/// all-zero distribution.
fn skew_permille(values: &mut [u64]) -> Option<(u64, u64)> {
    let n = values.len() as u64;
    let total: u64 = values.iter().sum();
    if n == 0 || total == 0 {
        return None;
    }
    let max = values.iter().copied().max().unwrap_or(0);
    let imbalance = (max as u128 * 1000 * n as u128 / total as u128) as u64;
    values.sort_unstable();
    // G = (2 Σ i·x₍ᵢ₎) / (n Σ x) − (n+1)/n, ascending order, i 1-based.
    let weighted: u128 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u128 + 1) * x as u128)
        .sum();
    let g = (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64;
    let gini = (g.clamp(0.0, 1.0) * 1000.0).round() as u64;
    Some((imbalance, gini))
}

impl<'a, S: KvSink> Shuffler<'a, S> {
    /// Creates a shuffler whose send and receive buffers (each
    /// `comm_buf_size` bytes) are charged to `pool`.
    ///
    /// # Errors
    /// Memory exhaustion allocating the two communication buffers, or a
    /// configuration leaving partitions absurdly small.
    pub fn new(
        comm: &'a mut Comm,
        pool: &MemPool,
        meta: KvMeta,
        comm_buf_size: usize,
        sink: S,
    ) -> Result<Self> {
        Self::with_partitioner(comm, pool, meta, comm_buf_size, sink, Partitioner::hash())
    }

    /// [`Self::new`] with a user partitioner (paper Section III-A:
    /// "Users can provide alternative hash functions").
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn with_partitioner(
        comm: &'a mut Comm,
        pool: &MemPool,
        meta: KvMeta,
        comm_buf_size: usize,
        sink: S,
        partitioner: Partitioner,
    ) -> Result<Self> {
        let p = comm.size();
        let part_cap = comm_buf_size / p;
        if part_cap < 16 {
            return Err(MimirError::Config(format!(
                "send buffer of {comm_buf_size} B leaves {part_cap} B partitions across {p} ranks"
            )));
        }
        Ok(Self {
            comm,
            meta,
            send: TrackedBuf::new(pool, part_cap * p)?,
            recv: TrackedBuf::new(pool, part_cap * p)?,
            part_cap,
            part_len: vec![0; p],
            ranges: Vec::with_capacity(p),
            dest_bytes: vec![0; p],
            skew_scratch: Vec::with_capacity(p),
            partitioner,
            sink,
            stats: ShuffleCounters::default(),
            warned_jumbo: false,
        })
    }

    /// Completes the shuffle: participates in exchange rounds until every
    /// rank is done, then returns the sink and the shuffle counters.
    ///
    /// # Errors
    /// Sink failures while draining the final rounds.
    pub fn finish(mut self) -> Result<(S, ShuffleCounters)> {
        while !self.exchange(true)? {}
        // Whole-shuffle skew over the cumulative per-destination
        // histogram (the per-round view goes out as RoundSkew events).
        self.stats.max_dest_bytes = self.dest_bytes.iter().copied().max().unwrap_or(0);
        if let Some((imbalance, gini)) = self.dest_skew() {
            self.stats.imbalance_permille = imbalance;
            self.stats.gini_permille = gini;
        }
        Ok((self.sink, self.stats))
    }

    /// [`skew_permille`] of the cumulative per-destination histogram,
    /// sorted in the reused scratch buffer so it allocates nothing. `None`
    /// when the hottest destination is under one partition buffer over
    /// fair: no round's h-relation changes, so that skew costs nothing
    /// (Sanders, arXiv 2002.07553) and must not read as a hotspot.
    fn dest_skew(&mut self) -> Option<(u64, u64)> {
        let fair = self.dest_bytes.iter().sum::<u64>() / self.dest_bytes.len() as u64;
        if self.stats.max_dest_bytes < fair + self.part_cap as u64 {
            return None;
        }
        self.skew_scratch.clear();
        self.skew_scratch.extend_from_slice(&self.dest_bytes);
        skew_permille(&mut self.skew_scratch)
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// One exchange round (see the module docs); returns whether every
    /// rank reported done.
    fn exchange(&mut self, my_done: bool) -> Result<bool> {
        let mut round = mimir_obs::span(
            EventKind::RoundBegin,
            EventKind::RoundEnd,
            self.stats.rounds,
            0,
        );
        // This round's send-side skew, while `part_len` still holds the
        // fill levels. Only computed when a recorder is listening — the
        // cumulative skew in `finish` covers the counters either way.
        if mimir_obs::active() {
            self.skew_scratch.clear();
            self.skew_scratch
                .extend(self.part_len.iter().map(|&l| l as u64));
            if let Some((imbalance, gini)) = skew_permille(&mut self.skew_scratch) {
                mimir_obs::emit(EventKind::RoundSkew, imbalance, gini);
            }
        }

        let (all_done, sync_wait) = {
            let _step = mimir_obs::step_span(Step::Sync);
            let w0 = self.comm.wait_ns();
            let all_done = self.comm.allreduce_u64(ReduceOp::LAnd, u64::from(my_done)) == 1;
            (all_done, self.comm.wait_ns() - w0)
        };

        // The round's partition fills are everything emitted since the
        // last round: the byte counters take them here, once a round.
        let sent: u64 = self.part_len.iter().map(|&l| l as u64).sum();
        self.stats.kv_bytes_emitted += sent;
        for (total, &l) in self.dest_bytes.iter_mut().zip(&self.part_len) {
            *total += l as u64;
        }
        let data_wait = {
            let mut step = mimir_obs::step_span(Step::Alltoallv);
            step.set_b(sent);
            let part_cap = self.part_cap;
            let send = self.send.as_slice();
            let part_len = &self.part_len;
            let pending = self.comm.alltoallv_post(
                (0..part_len.len()).map(|d| &send[d * part_cap..d * part_cap + part_len[d]]),
                self.recv.as_mut_slice(),
            );
            let w0 = self.comm.wait_ns();
            self.comm
                .alltoallv_complete(pending, self.recv.as_mut_slice(), &mut self.ranges);
            self.comm.wait_ns() - w0
        };
        self.part_len.fill(0);

        // The Section III-B bound, enforced: this round's receive total
        // fits the static receive buffer.
        let recv_bytes = self.ranges.last().map_or(0, |r| r.end) as u64;
        assert!(
            recv_bytes <= self.recv.as_slice().len() as u64,
            "round received {recv_bytes} B into a {} B receive buffer",
            self.recv.as_slice().len()
        );
        {
            let mut drain = mimir_obs::step_span(Step::Drain);
            let recv = self.recv.as_slice();
            for r in &self.ranges {
                self.stats.kvs_received += self.sink.accept_run(self.meta, &recv[r.clone()])?;
            }
            drain.set_b(recv_bytes);
        }

        mimir_obs::emit(EventKind::RoundWait, sync_wait, data_wait);
        self.stats.sync_wait_ns += sync_wait;
        self.stats.data_wait_ns += data_wait;
        self.stats.bytes_received += recv_bytes;
        self.stats.max_round_recv_bytes = self.stats.max_round_recv_bytes.max(recv_bytes);
        self.stats.rounds += 1;
        round.set_b(u64::from(all_done));
        Ok(all_done)
    }

    /// Routes `kvs` (at most [`BATCH`]) to their destination ranks, then
    /// places them in order.
    fn route_and_place(&mut self, kvs: &[(&[u8], &[u8])]) -> Result<()> {
        let mut dsts = [0usize; BATCH];
        let p = self.comm.size();
        if self.partitioner.is_hash() {
            for (d, (key, _)) in dsts.iter_mut().zip(kvs) {
                *d = partition_of_hashed(fxhash64(key), p);
            }
        } else {
            for (d, (key, _)) in dsts.iter_mut().zip(kvs) {
                *d = self.partitioner.of(key, p);
            }
        }
        self.place(kvs, &dsts[..kvs.len()])
    }

    /// Copies each encoded KV of `kvs` into its partition of `dsts`, in
    /// order, running an exchange round first whenever a partition
    /// cannot take the next KV — where a KV-at-a-time loop would, so
    /// every round carries the same bytes. The hints are resolved once
    /// for the batch.
    ///
    /// # Errors
    /// The first KV's hint violation or [`MimirError::KvTooLarge`], after
    /// the KVs before it have been placed; a round's failure.
    fn place(&mut self, kvs: &[(&[u8], &[u8])], dsts: &[usize]) -> Result<()> {
        let placed = with_sides!(self.meta, |k, v| {
            let mut placed = 0;
            for (&(key, val), &dst) in kvs.iter().zip(dsts) {
                if let Err(e) = self.place_one(k, v, dst, key, val) {
                    self.stats.kvs_emitted += placed;
                    return Err(e);
                }
                placed += 1;
            }
            placed
        });
        self.stats.kvs_emitted += placed;
        Ok(())
    }

    /// [`Self::place`] for one KV under the hint pair `(k, v)`.
    #[inline(always)]
    fn place_one<K: Side, V: Side>(
        &mut self,
        k: K,
        v: V,
        dst: usize,
        key: &[u8],
        val: &[u8],
    ) -> Result<()> {
        k.check(key, "key")?;
        v.check(val, "value")?;
        let klen = k.overhead() + key.len();
        let len = klen + v.overhead() + val.len();
        if len > self.part_cap {
            return Err(self.jumbo(len));
        }
        if self.part_len[dst] + len > self.part_cap {
            // Partition full: suspend the map, run an aggregate round.
            self.exchange(false)?;
        }
        let off = dst * self.part_cap + self.part_len[dst];
        let (ko, vo) = self.send.as_mut_slice()[off..off + len].split_at_mut(klen);
        k.put(key, ko);
        v.put(val, vo);
        self.part_len[dst] += len;
        Ok(())
    }

    /// The error for a KV of `len` encoded bytes that no partition can
    /// hold, warning once per shuffle.
    #[cold]
    fn jumbo(&mut self, len: usize) -> MimirError {
        if !self.warned_jumbo {
            self.warned_jumbo = true;
            eprintln!(
                "mimir: comm buffer too small for a single KV: {len} B against {} B \
                 partitions — raise comm_buf_size (further oversized KVs will error \
                 without this warning)",
                self.part_cap
            );
        }
        MimirError::KvTooLarge {
            size: len,
            limit: self.part_cap,
            what: "send-buffer partition",
        }
    }
}

impl<S: KvSink> Emitter for Shuffler<'_, S> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.emit_batch(&[(key, val)])
    }

    fn emit_hashed(&mut self, key: &[u8], val: &[u8], key_hash: u64) -> Result<()> {
        debug_assert_eq!(key_hash, fxhash64(key));
        let dst = if self.partitioner.is_hash() {
            partition_of_hashed(key_hash, self.comm.size())
        } else {
            self.partitioner.of(key, self.comm.size())
        };
        self.place(&[(key, val)], &[dst])
    }

    fn emit_batch(&mut self, kvs: &[(&[u8], &[u8])]) -> Result<()> {
        kvs.chunks(BATCH)
            .try_for_each(|batch| self.route_and_place(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::partition_of;
    use crate::KvContainer;
    use mimir_mem::MemPool;
    use mimir_mpi::run_world;
    use std::collections::HashMap;

    type WorldOutput = Vec<(HashMap<Vec<u8>, Vec<u64>>, ShuffleCounters)>;

    fn shuffle_world(n_ranks: usize, comm_buf: usize, kvs_per_rank: usize) -> WorldOutput {
        run_world(n_ranks, move |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::cstr_key_u64_val();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, comm_buf, sink).unwrap();
            let me = sh.rank() as u64;
            for i in 0..kvs_per_rank as u64 {
                let key = format!("key-{}", i % 13);
                sh.emit(key.as_bytes(), &(me * 10_000 + i).to_le_bytes())
                    .unwrap();
            }
            let (kvc, stats) = sh.finish().unwrap();
            let mut got: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
            kvc.drain(|k, v| {
                got.entry(k.to_vec())
                    .or_default()
                    .push(u64::from_le_bytes(v.try_into().unwrap()));
                Ok(())
            })
            .unwrap();
            (got, stats)
        })
    }

    #[test]
    fn all_kvs_arrive_exactly_once_partitioned_by_key() {
        let n = 4;
        let per_rank = 500;
        let results = shuffle_world(n, 4096, per_rank);
        let total: usize = results
            .iter()
            .map(|(m, _)| m.values().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(total, n * per_rank);

        // Every key lives on exactly the rank its hash selects.
        for (rank, (m, _)) in results.iter().enumerate() {
            for k in m.keys() {
                assert_eq!(
                    partition_of(k, n),
                    rank,
                    "key {:?}",
                    String::from_utf8_lossy(k)
                );
            }
        }
        // Each key's values came from all ranks.
        let mut all: HashMap<Vec<u8>, usize> = HashMap::new();
        for (m, _) in &results {
            for (k, vs) in m {
                *all.entry(k.clone()).or_default() += vs.len();
            }
        }
        assert_eq!(all.len(), 13);
    }

    #[test]
    fn delivers_the_routed_multiset_within_the_receive_bound() {
        let n = 3;
        let per_rank = 300u64;
        // Reference: the streams `shuffle_world` emits, routed by
        // `partition_of`.
        let mut expected: Vec<HashMap<Vec<u8>, Vec<u64>>> = vec![HashMap::new(); n];
        for me in 0..n as u64 {
            for i in 0..per_rank {
                let key = format!("key-{}", i % 13).into_bytes();
                expected[partition_of(&key, n)]
                    .entry(key)
                    .or_default()
                    .push(me * 10_000 + i);
            }
        }
        let results = shuffle_world(n, 1536, per_rank as usize);
        for (rank, ((mut got, stats), want)) in results.into_iter().zip(&expected).enumerate() {
            // The III-B bound held every round.
            assert!(stats.max_round_recv_bytes <= 1536, "rank {rank}");
            got.values_mut().for_each(|vs| vs.sort_unstable());
            assert_eq!(&got, want, "rank {rank}");
        }
    }

    #[test]
    fn small_buffer_forces_many_rounds_but_loses_nothing() {
        let n = 3;
        let per_rank = 400;
        let small = shuffle_world(n, 256 * n, per_rank); // tiny partitions
        let big = shuffle_world(n, 64 * 1024, per_rank);
        let count = |rs: &WorldOutput| -> usize {
            rs.iter()
                .map(|(m, _)| m.values().map(Vec::len).sum::<usize>())
                .sum()
        };
        assert_eq!(count(&small), count(&big));
        assert!(
            small[0].1.rounds > big[0].1.rounds,
            "small {} vs big {}",
            small[0].1.rounds,
            big[0].1.rounds
        );
        // Rounds are collective: every rank saw the same number.
        let r0 = small[0].1.rounds;
        assert!(small.iter().all(|(_, s)| s.rounds == r0));
    }

    #[test]
    fn kv_bytes_metric_reflects_hint() {
        let out = run_world(2, |comm| {
            let pool = MemPool::unlimited("t", 4096);
            for (meta, expected_per_kv) in [
                (KvMeta::var(), 8 + 4 + 8),
                (KvMeta::cstr_key_u64_val(), 4 + 1 + 8),
            ] {
                let sink = KvContainer::new(&pool, meta);
                let mut sh = Shuffler::new(comm, &pool, meta, 4096, sink).unwrap();
                for i in 0..10u64 {
                    sh.emit(b"word", &i.to_le_bytes()).unwrap();
                }
                let (_, stats) = sh.finish().unwrap();
                assert_eq!(stats.kv_bytes_emitted, 10 * expected_per_kv as u64);
            }
        });
        drop(out);
    }

    #[test]
    fn kv_bigger_than_partition_is_rejected() {
        run_world(4, |comm| {
            let pool = MemPool::unlimited("t", 65536);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            // partition cap = 256; this KV is ~300 B.
            let big = vec![1u8; 300];
            let err = sh.emit(b"k", &big).unwrap_err();
            assert!(matches!(err, MimirError::KvTooLarge { .. }));
            let _ = sh.finish().unwrap();
        });
    }

    #[test]
    fn comm_buffers_are_charged_and_released() {
        run_world(2, |comm| {
            let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let before = pool.used();
            let sh = Shuffler::new(comm, &pool, meta, 8192, sink).unwrap();
            assert_eq!(pool.used(), before + 2 * 8192, "send + recv buffers");
            let (kvc, _) = sh.finish().unwrap();
            drop(kvc);
            assert_eq!(pool.used(), 0);
        });
    }

    #[test]
    fn exchange_rounds_emit_trace_events() {
        let out = run_world(2, |comm| {
            mimir_obs::install(mimir_obs::Recorder::new(comm.rank(), 1024));
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 4096, sink).unwrap();
            for i in 0..50u32 {
                sh.emit(format!("k{i}").as_bytes(), b"v").unwrap();
            }
            let (_, stats) = sh.finish().unwrap();
            let r = mimir_obs::take().unwrap();
            (stats, r.events())
        });
        for (stats, evs) in out {
            let count = |k: EventKind| evs.iter().filter(|e| e.kind == k).count() as u64;
            assert_eq!(count(EventKind::RoundBegin), stats.rounds);
            assert_eq!(count(EventKind::RoundEnd), stats.rounds);
            // Three sub-steps (sync, alltoallv, drain) per round.
            assert_eq!(count(EventKind::StepBegin), 3 * stats.rounds);
            // One wait-attribution event per round; skew only for rounds
            // that actually carried bytes.
            assert_eq!(count(EventKind::RoundWait), stats.rounds);
            let skews = count(EventKind::RoundSkew);
            assert!((1..=stats.rounds).contains(&skews), "skew events: {skews}");
            let last_end = evs
                .iter()
                .rev()
                .find(|e| e.kind == EventKind::RoundEnd)
                .unwrap();
            assert_eq!(last_end.b, 1, "final round reports all-done");
        }
    }

    #[test]
    fn skew_permille_math() {
        assert_eq!(skew_permille(&mut []), None);
        assert_eq!(skew_permille(&mut [0, 0, 0]), None);
        let (imb, gini) = skew_permille(&mut [100, 100, 100, 100]).unwrap();
        assert_eq!(imb, 1000, "uniform: max equals mean");
        assert_eq!(gini, 0, "uniform: zero Gini");
        let (imb, gini) = skew_permille(&mut [400, 0, 0, 0]).unwrap();
        assert_eq!(imb, 4000, "one hot destination out of four");
        assert_eq!(gini, 750, "G = (n−1)/n for a point mass");
    }

    #[test]
    fn skewed_partitioner_is_visible_in_counters_and_uniform_is_not() {
        let n = 4;
        let shuffle_stats = |partitioner: Partitioner,
                             buf: usize,
                             kvs: u64|
         -> Vec<ShuffleCounters> {
            run_world(n, move |comm| {
                let pool = MemPool::unlimited("t", 4096);
                let meta = KvMeta::cstr_key_u64_val();
                let sink = KvContainer::new(&pool, meta);
                let mut sh =
                    Shuffler::with_partitioner(comm, &pool, meta, buf, sink, partitioner.clone())
                        .unwrap();
                for i in 0..kvs {
                    let key = format!("key-{i}");
                    sh.emit(key.as_bytes(), &i.to_le_bytes()).unwrap();
                }
                sh.finish().unwrap().1
            })
        };
        let hot = shuffle_stats(Partitioner::custom("to-zero", |_, _| 0), 4096, 400);
        for s in &hot {
            assert_eq!(
                s.imbalance_permille, 4000,
                "every byte went to rank 0: max = 4 × mean"
            );
            assert_eq!(s.gini_permille, 750);
            assert_eq!(s.max_dest_bytes, s.kv_bytes_emitted);
        }
        let uniform = shuffle_stats(Partitioner::hash(), 4096, 400);
        for s in &uniform {
            assert!(
                s.imbalance_permille < 1500,
                "hashed keys spread evenly, got {} permille",
                s.imbalance_permille
            );
            assert!(s.gini_permille < 250, "got {} permille", s.gini_permille);
        }
        // 256 B partitions under 4 000 hashed keys a rank: the hottest
        // destination clears fair by a partition, so the skew is computed.
        for s in &shuffle_stats(Partitioner::hash(), 1024, 4000) {
            assert!(s.max_dest_bytes >= s.kv_bytes_emitted / 4 + 256, "{s:?}");
            assert!((1001..1500).contains(&s.imbalance_permille), "{s:?}");
            assert!(s.gini_permille < 250, "{s:?}");
        }
    }

    #[test]
    fn delayed_rank_shows_up_in_peers_sync_wait() {
        use std::time::Duration;
        let delay = Duration::from_millis(50);
        let stats = run_world(3, move |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 4096, sink).unwrap();
            if sh.rank() == 2 {
                // Rank 2 is a slow mapper; its peers reach the shuffle's
                // final done-vote and block on it.
                std::thread::sleep(delay);
            }
            sh.emit(b"k", b"v").unwrap();
            sh.finish().unwrap().1
        });
        let floor = (delay.as_nanos() as u64 * 8) / 10;
        for (rank, s) in stats.iter().enumerate() {
            if rank == 2 {
                assert!(
                    s.sync_wait_ns < floor,
                    "the straggler itself should not wait: {} ns",
                    s.sync_wait_ns
                );
            } else {
                assert!(
                    s.sync_wait_ns >= floor,
                    "rank {rank} waited only {} ns on the straggler",
                    s.sync_wait_ns
                );
                assert!(
                    s.data_wait_ns < floor,
                    "the delay is sync-bound, not byte-bound: {} ns",
                    s.data_wait_ns
                );
            }
        }
    }

    #[test]
    fn oversized_kv_warns_once_and_keeps_erroring() {
        run_world(2, |comm| {
            let pool = MemPool::unlimited("t", 65536);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            let big = vec![1u8; 600];
            for _ in 0..3 {
                let err = sh.emit(b"k", &big).unwrap_err();
                assert!(matches!(err, MimirError::KvTooLarge { .. }));
            }
            assert!(sh.warned_jumbo, "warned exactly once, flag latched");
            let _ = sh.finish().unwrap();
        });
    }

    #[test]
    fn single_rank_shuffle_is_local() {
        run_world(1, |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            for i in 0..100u32 {
                sh.emit(format!("k{i}").as_bytes(), b"v").unwrap();
            }
            let (kvc, stats) = sh.finish().unwrap();
            assert_eq!(kvc.len(), 100);
            assert_eq!(stats.kvs_received, 100);
        });
    }
}
