//! Cross-job KV cache with partition-stable placement.
//!
//! Iterative workloads (BFS levels, PageRank sweeps) traditionally pay a
//! full serialize → spill → reload → re-shuffle round trip between every
//! pair of chained jobs. Following M3R's in-memory MapReduce design
//! (arXiv 1208.4168), the [`KvCache`] keeps a job's output
//! [`KvContainer`]s resident under user-chosen names, together with the
//! [`PartitionFingerprint`] they were placed by. A chained job consumes a
//! cached input with zero serialization, and — when it declares the same
//! fingerprint and a partition-preserving map — with the shuffle elided
//! entirely (see [`MapReduceJob::chain`](crate::MapReduceJob::chain)).
//!
//! Memory accounting is the pool's, not a private ledger: a resident
//! container's pages stay charged to the node [`mimir_mem::MemPool`]
//! like any running job's footprint, until the entry is removed or the
//! cache cleared.
//!
//! The cache is per rank (placement *is* the point: partition `r` of a
//! cached dataset lives on rank `r`), owned by the rank's
//! `MimirContext` and shared by every job run on it.

use std::collections::HashMap;

use mimir_mem::MemPool;
use mimir_obs::{CacheCounters, CacheNameRecord};

use crate::partitioner::PartitionFingerprint;
use crate::{KvContainer, MimirError, Result};

/// A cache entry: a container and the placement it was cached under.
/// A chained job checks it out for its duration and checks it back in
/// afterwards.
pub struct CheckedOut {
    /// The cached container.
    pub kvc: KvContainer,
    /// The placement identity recorded when the entry was cached.
    pub fingerprint: PartitionFingerprint,
}

/// The cross-job cache of one rank. See the module docs.
#[derive(Default)]
pub struct KvCache {
    entries: HashMap<String, CheckedOut>,
    /// Cumulative elisions per name; survives entry overwrites/removals.
    elisions_by_name: HashMap<String, u64>,
    stats: CacheCounters,
}

impl KvCache {
    /// Retains `kvc` under `name`, replacing (and freeing) any previous
    /// entry of that name. The container's pages remain charged to its
    /// pool.
    pub fn insert(&mut self, name: &str, kvc: KvContainer, fingerprint: PartitionFingerprint) {
        self.entries
            .insert(name.to_string(), CheckedOut { kvc, fingerprint });
        self.elisions_by_name.entry(name.to_string()).or_insert(0);
        self.refresh_cached_bytes();
    }

    /// Removes and returns the named entry, counting a hit; a missing
    /// name counts a miss and errors. The entry's pages stay charged to
    /// the pool they came from, so `_pool` is not read.
    ///
    /// # Errors
    /// [`MimirError::Cache`] when the name is not cached.
    pub fn checkout(&mut self, name: &str, _pool: &MemPool) -> Result<CheckedOut> {
        let Some(entry) = self.entries.remove(name) else {
            self.stats.misses += 1;
            return Err(MimirError::Cache(format!(
                "chained input `{name}` is not cached on this rank"
            )));
        };
        self.stats.hits += 1;
        self.refresh_cached_bytes();
        Ok(entry)
    }

    /// Returns a checked-out container to the cache (chained jobs call
    /// this after their map finished reading it).
    pub fn checkin(&mut self, name: &str, out: CheckedOut) {
        self.insert(name, out.kvc, out.fingerprint);
    }

    /// Records one elided shuffle against `name`.
    pub fn note_elision(&mut self, name: &str) {
        self.stats.elisions += 1;
        *self.elisions_by_name.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Runs `f` over the named container (counts a hit).
    ///
    /// # Errors
    /// [`MimirError::Cache`] for an unknown name; `f`'s error.
    pub fn with_entry<R>(
        &mut self,
        name: &str,
        pool: &MemPool,
        f: impl FnOnce(&KvContainer) -> Result<R>,
    ) -> Result<R> {
        let out = self.checkout(name, pool)?;
        let result = f(&out.kvc);
        self.checkin(name, out);
        result
    }

    /// Drops the named entry, freeing its pages.
    pub fn remove(&mut self, name: &str) {
        self.entries.remove(name);
        self.refresh_cached_bytes();
    }

    /// Drops every entry. Iterative drivers call this when a chain ends
    /// so a finished workload holds nothing against the shared budget.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.refresh_cached_bytes();
    }

    /// Number of cached names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache-wide counters.
    pub fn stats(&self) -> CacheCounters {
        self.stats
    }

    /// Per-name snapshots (resident bytes, cumulative elisions), sorted
    /// by name for stable output. Names survive overwrites, so iterative
    /// chains reusing one name accumulate their elision count; names
    /// whose entries were removed but that accumulated elisions still
    /// appear with zero bytes.
    pub fn entry_snapshots(&self) -> Vec<CacheNameRecord> {
        let mut names: Vec<&String> = self
            .entries
            .keys()
            .chain(self.elisions_by_name.keys())
            .collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                let bytes = self.entries.get(n).map_or(0, |e| e.kvc.bytes());
                let elisions = self.elisions_by_name.get(n).copied().unwrap_or(0);
                CacheNameRecord {
                    name: n.clone(),
                    bytes,
                    elisions,
                }
            })
            .collect()
    }

    fn refresh_cached_bytes(&mut self) {
        self.stats.cached_bytes = self.entries.values().map(|e| e.kvc.bytes()).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvMeta, Partitioner};

    fn filled(pool: &MemPool, n: u64) -> KvContainer {
        let mut kvc = KvContainer::new(pool, KvMeta::fixed(8, 8));
        for i in 0..n {
            kvc.push(&i.to_le_bytes(), &(i * 3).to_le_bytes()).unwrap();
        }
        kvc
    }

    fn collect(kvc: &KvContainer) -> Vec<(u64, u64)> {
        kvc.iter()
            .map(|(k, v)| {
                (
                    u64::from_le_bytes(k.try_into().unwrap()),
                    u64::from_le_bytes(v.try_into().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn insert_checkout_roundtrip_counts_hits() {
        let pool = MemPool::unlimited("t", 4096);
        let mut cache = KvCache::default();
        let fp = Partitioner::hash().fingerprint(4);
        cache.insert("a", filled(&pool, 100), fp);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().cached_bytes, 1600);

        let out = cache.checkout("a", &pool).unwrap();
        assert_eq!(out.fingerprint, fp);
        assert_eq!(collect(&out.kvc).len(), 100);
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.is_empty());
        cache.checkin("a", out);
        assert_eq!(cache.len(), 1);

        assert!(matches!(
            cache.checkout("missing", &pool),
            Err(MimirError::Cache(_))
        ));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn snapshots_track_elisions_across_overwrites() {
        let pool = MemPool::unlimited("t", 4096);
        let mut cache = KvCache::default();
        let fp = Partitioner::hash().fingerprint(1);
        cache.insert("x", filled(&pool, 5), fp);
        cache.note_elision("x");
        cache.insert("x", filled(&pool, 7), fp); // overwrite
        cache.note_elision("x");
        let snaps = cache.entry_snapshots();
        assert_eq!(snaps.len(), 1);
        let x = |bytes| CacheNameRecord {
            name: "x".into(),
            bytes,
            elisions: 2,
        };
        assert_eq!(snaps[0], x(7 * 16));
        assert_eq!(cache.stats().elisions, 2);
        cache.remove("x");
        assert_eq!(
            cache.entry_snapshots()[0],
            x(0),
            "elision history survives removal"
        );
    }

    #[test]
    fn clear_releases_everything() {
        let pool = MemPool::unlimited("t", 4096);
        let mut cache = KvCache::default();
        let fp = Partitioner::hash().fingerprint(1);
        cache.insert("a", filled(&pool, 50), fp);
        cache.insert("b", filled(&pool, 50), fp);
        assert!(pool.used() > 0);
        cache.clear();
        assert_eq!(pool.used(), 0);
        assert!(cache.is_empty());
    }
}
