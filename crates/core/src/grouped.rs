//! Grouping on arrival: the aggregate sink of the convert+reduce run
//! shapes.
//!
//! The 32 KiB run a shuffle round hands to [`KvSink::accept_run`] is the
//! one moment a received KV is cache-resident, so grouping happens there
//! instead of in a cold walk over a whole KVC after the map: each key is
//! dictionary-encoded to its group id by the shared [`Grouper`] and the
//! value is appended to that group's chunk chain — the one time it is
//! written. [`GroupedKvs::into_kmv`] then seals those chains into the
//! KMVC without copying a value; the KMVC is the one [`crate::convert`]
//! builds from the same KVs (first-occurrence key order, arrival value
//! order).

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::convert::{convert_with, Grouper};
use crate::kv::{validate, KvDecoder};
use crate::sink::KvSink;
use crate::{KmvContainer, KvContainer, KvMeta, Result};

/// Received KVs, grouped as they arrive (see the module docs) — or, as
/// [`Self::two_pass`], collected into the plain KVC that
/// [`crate::convert_with`] consumes.
pub struct GroupedKvs {
    pool: MemPool,
    meta: KvMeta,
    inner: Inner,
}

enum Inner {
    OnArrival(Box<Grouper>),
    Collect(KvContainer),
}

impl GroupedKvs {
    /// An empty on-arrival sink for KVs encoded under `meta`, charging
    /// `pool`.
    ///
    /// # Errors
    /// Memory exhaustion registering the grouping state.
    pub fn new(pool: &MemPool, meta: KvMeta) -> Result<Self> {
        Ok(Self {
            pool: pool.clone(),
            meta,
            inner: Inner::OnArrival(Box::new(Grouper::new(pool, meta)?)),
        })
    }

    /// A sink that only collects: received runs land in a KVC by memcpy
    /// and [`Self::into_kmv`] converts it in one pass. For jobs whose
    /// grouping state should not exist before the map ends (see
    /// [`crate::MapReduceJob::map_reduce_compress`]).
    pub fn two_pass(pool: &MemPool, meta: KvMeta) -> Self {
        Self {
            pool: pool.clone(),
            meta,
            inner: Inner::Collect(KvContainer::new(pool, meta)),
        }
    }

    /// Seals the grouped values into the KMVC (or converts the collected
    /// KVC). Returns the KMVC and the grouping engine's counters.
    ///
    /// # Errors
    /// Out-of-memory if the KMVC exceeds the node budget.
    pub fn into_kmv(self) -> Result<(KmvContainer, GroupCounters)> {
        match self.inner {
            Inner::OnArrival(grouper) => grouper.into_kmv(),
            Inner::Collect(kvc) => convert_with(kvc, &self.pool),
        }
    }
}

impl KvSink for GroupedKvs {
    /// Single KVs come from an elided chain's local emitter, not from a
    /// validated run, so both sides are checked against the hints.
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        match &mut self.inner {
            Inner::OnArrival(grouper) => grouper.observe(key, val),
            Inner::Collect(kvc) => kvc.push(key, val),
        }
    }

    /// The on-arrival pass: one walk over the cache-hot run. Runs were
    /// validated at the emit boundary, so they are trusted here.
    fn accept_run(&mut self, run_meta: KvMeta, run: &[u8]) -> Result<u64> {
        debug_assert_eq!(run_meta, self.meta, "run encoding must match the sink");
        let grouper = match &mut self.inner {
            Inner::OnArrival(grouper) => grouper,
            Inner::Collect(kvc) => return kvc.push_run(run),
        };
        let mut n = 0;
        for (k, v) in KvDecoder::new(run_meta, run) {
            grouper.observe(k, v)?;
            n += 1;
        }
        Ok(n)
    }
}
