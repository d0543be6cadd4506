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

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::group::GroupIndex;
use crate::hash::fxhash64;
use crate::kmvc::Chains;
use crate::kv::{validate, KvDecoder};
use crate::sink::KvSink;
use crate::{KmvContainer, KvMeta, Result};

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

    /// Interns `key` (its one hash) and appends `val` to its group's
    /// chain. [`KmvContainer::bytes`] counts `val` encoded under the hint,
    /// however the chain stores it.
    #[inline]
    pub(crate) fn observe(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let (gid, fresh) = self.index.insert_hashed(fxhash64(key), key)?;
        self.chains.append(gid, val)?;
        if fresh {
            self.bytes += (self.meta.key.overhead() + key.len() + 4) as u64;
        }
        self.bytes += (self.meta.val.overhead() + val.len()) as u64;
        Ok(())
    }

    /// Seals the grouped values into the KMVC. Returns the KMVC and the
    /// grouping engine's counters.
    ///
    /// # Errors
    /// Out-of-memory if the KMVC exceeds the node budget.
    pub fn into_kmv(self) -> Result<(KmvContainer, GroupCounters)> {
        let stats = self.index.stats();
        let kmvc = KmvContainer::seal(self.meta, self.index, self.chains, self.bytes)?;
        Ok((kmvc, stats))
    }
}

impl KvSink for GroupedKvs {
    /// Single KVs come from an elided chain's local emitter, not from a
    /// validated run, so both sides are checked against the hints.
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        self.observe(key, val)
    }

    /// The on-arrival pass: one walk over the cache-hot run. Runs were
    /// validated at the emit boundary, so they are trusted here.
    fn accept_run(&mut self, run_meta: KvMeta, run: &[u8]) -> Result<u64> {
        debug_assert_eq!(run_meta, self.meta, "run encoding must match the sink");
        let mut n = 0;
        for (k, v) in KvDecoder::new(run_meta, run) {
            self.observe(k, v)?;
            n += 1;
        }
        Ok(n)
    }
}
