//! Grouping on arrival: the aggregate sink of the convert+reduce run
//! shapes, and the grouping state [`crate::convert`] runs too.
//!
//! The 32 KiB run a shuffle round hands to [`KvSink::accept_run`] is the
//! one moment a received KV is cache-resident, so grouping happens there
//! instead of in a cold walk over a whole KVC after the map: each key is
//! dictionary-encoded to its group id on the shared [`GroupIndex`] and
//! the value is appended to that group's chunk chain — the one time it
//! is written. [`GroupedKvs::into_kmv`] then seals those chains into the
//! KMVC without copying a value; the KMVC is the one [`crate::convert`]
//! builds from the same KVs (first-occurrence key order, arrival value
//! order).
//!
//! With tens of thousands of groups, each KV's chain head and tail chunk
//! are cache misses in a structure far larger than cache. The pass
//! therefore takes a run 32 KVs at a time (`BATCH`), in stages whose
//! misses overlap: hash and intern every key, prefetching its group's
//! chain head as soon as the group id is known; then prefetch every
//! tail's header and write position; and only then append the values in
//! arrival order. Fresh keys are interned in arrival order, so group ids
//! — and the KMVC — are the ones a KV-at-a-time pass gives. Hashing a
//! whole batch before interning any of it, with the slots prefetched,
//! was measured too and dropped: it saved little on a vertex-keyed
//! stream and cost up to a third on a stream of eight hot groups. The
//! staging itself pays on the streams with many groups (a Graph500
//! partition stream groups in about half the time it takes KV at a
//! time) and costs nothing measurable on a stream of a few hot keys, so
//! every run takes it.
//!
//! The pass is compiled once for each hint pair (`with_sides!`): a
//! run's KVs are split off with one length read and one bounds check a
//! side, never a match on the hint. The walk checks that every KV lies
//! inside the run — a run may have crossed a process boundary — and
//! stops at the first that does not with
//! [`crate::MimirError::MalformedRun`], the KVs before it grouped.

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::group::GroupIndex;
use crate::kmvc::Chains;
use crate::kv::{validate, with_sides, RunKvs};
use crate::sink::KvSink;
use crate::{KmvContainer, KvMeta, Result};

/// KVs the on-arrival pass takes per stage: enough that one stage's
/// cache misses overlap, few enough that the lines it loaded are still
/// resident when the next stage reads them.
const BATCH: usize = 32;

/// KVs grouped as they arrive (see the module docs): the group index,
/// one chunk chain a group, sealed into the KMVC by [`Self::into_kmv`].
pub struct GroupedKvs {
    meta: KvMeta,
    index: GroupIndex,
    chains: Chains,
    /// [`KmvContainer::bytes`] so far.
    bytes: u64,
}

impl GroupedKvs {
    /// An empty sink for KVs encoded under `meta`, charging `pool`.
    ///
    /// # Errors
    /// Memory exhaustion registering the grouping state.
    pub fn new(pool: &MemPool, meta: KvMeta) -> Result<Self> {
        Ok(Self {
            meta,
            index: GroupIndex::new(pool)?,
            chains: Chains::new(pool, meta.val)?,
            bytes: 0,
        })
    }

    /// The on-arrival pass over `kvs`, [`BATCH`] at a time, staged as the
    /// module docs describe. Returns the number of KVs grouped, or the
    /// first error item of `kvs` once the KVs before it are grouped.
    /// [`KmvContainer::bytes`] counts each value encoded under the hint,
    /// however its chain stores it.
    #[inline]
    fn group<'a>(
        &mut self,
        mut kvs: impl Iterator<Item = Result<(&'a [u8], &'a [u8])>>,
    ) -> Result<u64> {
        let (mut vals, mut gids): ([&[u8]; BATCH], _) = ([&[]; BATCH], [0u32; BATCH]);
        let (key_overhead, val_overhead) = (self.meta.key.overhead(), self.meta.val.overhead());
        let mut n = 0;
        loop {
            let (mut len, mut bad) = (0, None);
            for kv in kvs.by_ref() {
                let (key, val) = match kv {
                    Ok(kv) => kv,
                    Err(e) => {
                        bad = Some(e);
                        break;
                    }
                };
                let (gid, fresh) = self.index.insert(key)?;
                self.chains.prefetch_head(gid);
                if fresh {
                    self.bytes += (key_overhead + key.len() + 4) as u64;
                }
                self.bytes += (val_overhead + val.len()) as u64;
                (vals[len], gids[len]) = (val, gid);
                len += 1;
                if len == BATCH {
                    break;
                }
            }
            let gids = &gids[..len];
            gids.iter().for_each(|&gid| self.chains.prefetch_tail(gid));
            for (&gid, &val) in gids.iter().zip(&vals) {
                self.chains.append(gid, val)?;
            }
            n += len as u64;
            if let Some(e) = bad {
                return Err(e);
            }
            if len < BATCH {
                return Ok(n);
            }
        }
    }

    /// Seals the grouped values into the KMVC, releasing the index's
    /// slot table. Returns the KMVC and the grouping engine's counters.
    ///
    /// # Errors
    /// Out-of-memory if the KMVC exceeds the node budget.
    pub fn into_kmv(self) -> Result<(KmvContainer, GroupCounters)> {
        self.seal(false)
    }

    /// [`Self::into_kmv`], keeping the slot table if `keyed` so the KMVC
    /// answers [`KmvContainer::get`].
    pub(crate) fn seal(self, keyed: bool) -> Result<(KmvContainer, GroupCounters)> {
        let stats = self.index.stats();
        let kmvc = KmvContainer::seal(self.meta, self.index, self.chains, self.bytes, keyed)?;
        Ok((kmvc, stats))
    }
}

impl KvSink for GroupedKvs {
    /// Single KVs come from an elided chain's local emitter, not from a
    /// validated run, so both sides are checked against the hints.
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        self.group(std::iter::once(Ok((key, val)))).map(drop)
    }

    /// The on-arrival pass over the cache-hot run, compiled for the
    /// run's hint pair. Hints were validated at the emit boundary; the
    /// walk checks only that every KV lies inside the run.
    ///
    /// # Errors
    /// [`crate::MimirError::MalformedRun`] once the walk reaches a KV the
    /// run ends inside, the KVs before it grouped; memory exhaustion.
    fn accept_run(&mut self, run_meta: KvMeta, run: &[u8]) -> Result<u64> {
        debug_assert_eq!(run_meta, self.meta, "run encoding must match the sink");
        with_sides!(run_meta, |k, v| self.group(RunKvs::new(k, v, run)))
    }
}
