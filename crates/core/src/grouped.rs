//! Grouping on arrival: the aggregate sink of the convert+reduce run
//! shapes.
//!
//! The 32 KiB run a shuffle round hands to [`KvSink::accept_run`] is the
//! one moment a received KV is cache-resident, so the paper's pass 1
//! ("the size of the KVs for each unique key is gathered in a hash
//! bucket") happens there instead of in a cold walk over the whole KVC
//! after the map: each key is dictionary-encoded to its group id by the
//! shared [`Grouper`] and only `(group id, value)` is stored. The store
//! is an ordinary [`KvContainer`] whose 4-byte fixed "key" is the
//! little-endian group id — paging and free-as-you-drain come with it —
//! so a duplicate key costs 4 bytes instead of its header and bytes
//! again, and [`GroupedKvs::into_kmv`] is just the
//! layout plus the value scatter: the KMVC is byte-identical to
//! [`crate::convert`]'s (first-occurrence key order, arrival value
//! order).

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::convert::{convert_with, Grouper};
use crate::kv::{encode_into, encoded_len, validate, KvDecoder};
use crate::sink::KvSink;
use crate::{KmvContainer, KvContainer, KvMeta, LenHint, Result};

/// Received KVs, grouped as they arrive (see the module docs) — or, as
/// [`Self::two_pass`], the plain KVC that [`crate::convert_with`]
/// consumes.
pub struct GroupedKvs {
    pool: MemPool,
    meta: KvMeta,
    /// The on-arrival engine; `None` for the two-pass sink.
    grouper: Option<Grouper>,
    /// `(group id, value)` per received KV in arrival order — or, without
    /// a grouper, the received KVs themselves.
    store: KvContainer,
}

impl GroupedKvs {
    /// An empty on-arrival sink for KVs encoded under `meta`, charging
    /// `pool`.
    ///
    /// # Errors
    /// Memory exhaustion registering the grouping state.
    pub fn new(pool: &MemPool, meta: KvMeta) -> Result<Self> {
        let gid_meta = KvMeta {
            key: LenHint::Fixed(4),
            val: meta.val,
        };
        Ok(Self {
            grouper: Some(Grouper::new(pool, meta)?),
            store: KvContainer::new(pool, gid_meta),
            ..Self::two_pass(pool, meta)
        })
    }

    /// A sink that only collects: received runs land in a KVC by memcpy
    /// and [`Self::into_kmv`] runs both convert passes. For jobs whose
    /// grouping state should not exist before the map ends (see
    /// [`crate::MapReduceJob::map_reduce_compress`]).
    pub fn two_pass(pool: &MemPool, meta: KvMeta) -> Self {
        Self {
            pool: pool.clone(),
            meta,
            grouper: None,
            store: KvContainer::new(pool, meta),
        }
    }

    /// Lays every group out at its exact size and scatters the stored
    /// values into place, freeing store pages as they are consumed.
    /// Returns the KMVC and the grouping engine's counters.
    ///
    /// # Errors
    /// Out-of-memory if the KMVC or a jumbo entry exceeds the node
    /// budget.
    pub fn into_kmv(self) -> Result<(KmvContainer, GroupCounters)> {
        let Self {
            pool,
            grouper,
            store,
            ..
        } = self;
        match grouper {
            Some(grouper) => grouper.into_kmv(&pool, |layout| {
                store.drain(|gid, v| {
                    let gid = u32::from_le_bytes(gid.try_into().expect("4-byte group id"));
                    layout.place(gid as usize, v);
                    Ok(())
                })
            }),
            None => convert_with(store, &pool),
        }
    }
}

impl KvSink for GroupedKvs {
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let Some(grouper) = &mut self.grouper else {
            return self.store.push(key, val);
        };
        validate(self.meta.key, key, "key")?;
        let gid = grouper.observe(key, val)?.to_le_bytes();
        self.store.push(&gid, val)
    }

    /// The on-arrival pass: one walk over the cache-hot run. Runs were
    /// validated at the emit boundary, so keys are trusted here.
    fn accept_run(&mut self, run_meta: KvMeta, run: &[u8]) -> Result<u64> {
        debug_assert_eq!(run_meta, self.meta, "run encoding must match the sink");
        let store = &mut self.store;
        let Some(grouper) = &mut self.grouper else {
            return store.push_run(run);
        };
        // Records are encoded straight into the store's tail page and
        // counted once per page, not once per KV.
        let smeta = store.meta();
        let mut tail: &mut [u8] = &mut [];
        let (mut off, mut pending, mut n) = (0, 0, 0);
        for (k, v) in KvDecoder::new(run_meta, run) {
            let gid = grouper.observe(k, v)?.to_le_bytes();
            let len = encoded_len(smeta, &gid, v);
            if len > tail.len() - off {
                store.commit(pending, off);
                (off, pending) = (0, 0);
                tail = store.tail(len)?;
            }
            off += encode_into(smeta, &gid, v, &mut tail[off..]);
            pending += 1;
            n += 1;
        }
        store.commit(pending, off);
        Ok(n)
    }
}
