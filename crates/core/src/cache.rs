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
//! like any running job's footprint. [`KvCache::evict`] serializes an
//! entry page-wise into a [`SpillStore`] and frees its pages; an evicted
//! entry transparently reloads on its next use.
//!
//! The cache is per rank (placement *is* the point: partition `r` of a
//! cached dataset lives on rank `r`), owned by the rank's
//! `MimirContext` and shared by every job run on it.

use std::collections::HashMap;

use mimir_io::{IoModel, SpillFile, SpillStore};
use mimir_mem::MemPool;
use mimir_obs::{CacheCounters, CacheNameRecord, EventKind};

use crate::hash::fxhash64;
use crate::partitioner::PartitionFingerprint;
use crate::{KvContainer, KvMeta, MimirError, Result};

struct CacheEntry {
    /// In-memory pages, absent while evicted.
    resident: Option<KvContainer>,
    /// Spill file holding the serialized pages while evicted.
    spilled: Option<SpillFile>,
    meta: KvMeta,
    fingerprint: PartitionFingerprint,
    /// Payload bytes (resident or spilled).
    bytes: u64,
}

/// A checked-out cache entry: the container leaves the cache for the
/// duration of a chained job and is checked back in afterwards.
pub struct CheckedOut {
    /// The resident container, reloaded from spill if necessary.
    pub kvc: KvContainer,
    /// The placement identity recorded when the entry was cached.
    pub fingerprint: PartitionFingerprint,
}

/// The cross-job cache of one rank. See the module docs.
#[derive(Default)]
pub struct KvCache {
    entries: HashMap<String, CacheEntry>,
    /// Cumulative elisions per name; survives entry overwrites/removals.
    elisions_by_name: HashMap<String, u64>,
    stats: CacheCounters,
    spill: Option<SpillStore>,
}

impl KvCache {
    /// Retains `kvc` under `name`, replacing (and freeing) any previous
    /// entry of that name. The container's pages remain charged to its
    /// pool.
    pub fn insert(&mut self, name: &str, kvc: KvContainer, fingerprint: PartitionFingerprint) {
        let entry = CacheEntry {
            bytes: kvc.bytes(),
            meta: kvc.meta(),
            resident: Some(kvc),
            spilled: None,
            fingerprint,
        };
        self.entries.insert(name.to_string(), entry);
        self.elisions_by_name.entry(name.to_string()).or_insert(0);
        self.refresh_cached_bytes();
    }

    /// Removes and returns the named entry, reloading it from spill if it
    /// was evicted. Counts a hit (resident) or a reload (spilled); a
    /// missing name counts a miss and errors.
    ///
    /// # Errors
    /// [`MimirError::Cache`] when the name was never cached; memory or
    /// I/O failures during a reload.
    pub fn checkout(&mut self, name: &str, pool: &MemPool) -> Result<CheckedOut> {
        let Some(mut entry) = self.entries.remove(name) else {
            self.stats.misses += 1;
            return Err(MimirError::Cache(format!(
                "chained input `{name}` is not cached on this rank"
            )));
        };
        let kvc = match entry.resident.take() {
            Some(kvc) => {
                self.stats.hits += 1;
                kvc
            }
            None => {
                let kvc = reload(&entry, name, pool)?;
                entry.spilled = None; // dropping the SpillFile deletes it
                self.stats.reloads += 1;
                kvc
            }
        };
        self.refresh_cached_bytes();
        Ok(CheckedOut {
            kvc,
            fingerprint: entry.fingerprint,
        })
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

    /// Whether `name` is cached (resident or spilled). Does not count
    /// toward hit/miss statistics.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Runs `f` over the named container, reloading it from spill first
    /// if it was evicted (counts a hit or a reload accordingly).
    ///
    /// # Errors
    /// [`MimirError::Cache`] for an unknown name; reload failures.
    pub fn with_resident<R>(
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

    /// Spills the named entry's pages to disk and frees them from the
    /// pool. Returns the payload bytes released, or `None` when the entry
    /// is unknown or already evicted.
    ///
    /// # Errors
    /// Spill-file I/O failures.
    pub fn evict(&mut self, name: &str, io: &IoModel) -> Result<Option<u64>> {
        let evictable = self.entries.get(name).is_some_and(|e| e.resident.is_some());
        if !evictable {
            return Ok(None);
        }
        if self.spill.is_none() {
            self.spill = Some(SpillStore::new_temp_scoped("cache", "kv", io.clone())?);
        }
        let store = self.spill.as_ref().expect("spill store just ensured");
        let entry = self.entries.get_mut(name).expect("presence checked");
        let kvc = entry.resident.take().expect("residency checked");
        let mut file = store.create(name)?;
        kvc.for_each_page(|page| Ok(file.write_chunk(page)?))?;
        file.finish()?;
        drop(kvc); // pages credit the pool here
        entry.bytes = file.bytes();
        entry.spilled = Some(file);
        let freed = entry.bytes;
        self.stats.evictions += 1;
        mimir_obs::emit(EventKind::CacheEvict, fxhash64(name.as_bytes()), freed);
        self.refresh_cached_bytes();
        Ok(Some(freed))
    }

    /// Payload bytes currently resident (and therefore evictable).
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .values()
            .filter_map(|e| e.resident.as_ref())
            .map(KvContainer::bytes)
            .sum()
    }

    /// Drops the named entry entirely (pages freed, spill file deleted).
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

    /// Number of cached names (resident or spilled).
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
                let bytes = self
                    .entries
                    .get(n)
                    .and_then(|e| e.resident.as_ref())
                    .map_or(0, KvContainer::bytes);
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
        self.stats.cached_bytes = self.resident_bytes();
    }
}

/// Rebuilds a container from an evicted entry's spill file. Chunks are
/// whole pages, and pages end at KV boundaries, so `push_run` re-pages
/// them without decoding individual KVs.
fn reload(entry: &CacheEntry, name: &str, pool: &MemPool) -> Result<KvContainer> {
    let file = entry
        .spilled
        .as_ref()
        .ok_or_else(|| MimirError::Cache(format!("entry `{name}` has neither pages nor spill")))?;
    let mut kvc = KvContainer::new(pool, entry.meta);
    let mut reader = file.read_chunks()?;
    while let Some(chunk) = reader.next_chunk()? {
        kvc.push_run(&chunk)?;
    }
    mimir_obs::emit(
        EventKind::CacheReload,
        fxhash64(name.as_bytes()),
        kvc.bytes(),
    );
    Ok(kvc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;

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
        assert!(cache.contains("a"));
        assert_eq!(cache.stats().cached_bytes, 1600);

        let out = cache.checkout("a", &pool).unwrap();
        assert_eq!(out.fingerprint, fp);
        assert_eq!(collect(&out.kvc).len(), 100);
        assert_eq!(cache.stats().hits, 1);
        assert!(!cache.contains("a"));
        cache.checkin("a", out);
        assert!(cache.contains("a"));

        assert!(matches!(
            cache.checkout("missing", &pool),
            Err(MimirError::Cache(_))
        ));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn evict_frees_pool_and_reload_restores_bytes() {
        let pool = MemPool::unlimited("t", 4096);
        let io = IoModel::free();
        let mut cache = KvCache::default();
        let fp = Partitioner::hash().fingerprint(1);
        let original = {
            let kvc = filled(&pool, 1000);
            let data = collect(&kvc);
            cache.insert("big", kvc, fp);
            data
        };
        let used_resident = pool.used();
        assert!(used_resident > 0);

        let freed = cache.evict("big", &io).unwrap().unwrap();
        assert_eq!(freed, 16_000);
        assert_eq!(pool.used(), 0, "eviction released every page");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().cached_bytes, 0);
        assert!(cache.contains("big"), "evicted, not forgotten");
        // Evicting an already-evicted entry is a no-op.
        assert_eq!(cache.evict("big", &io).unwrap(), None);

        let out = cache.checkout("big", &pool).unwrap();
        assert_eq!(collect(&out.kvc), original, "reload is lossless");
        assert_eq!(cache.stats().reloads, 1);
        cache.checkin("big", out);
        assert_eq!(pool.used(), used_resident);
    }

    #[test]
    fn eviction_and_reload_are_charged_to_the_io_model() {
        let io = IoModel::new(mimir_io::IoModelConfig {
            read_bw: 1024.0 * 1024.0,
            write_bw: 1024.0 * 1024.0,
            op_latency: std::time::Duration::ZERO,
        })
        .unwrap();
        let pool = MemPool::unlimited("t", 4096);
        let mut cache = KvCache::default();
        cache.insert("a", filled(&pool, 1000), Partitioner::hash().fingerprint(1));
        let spilled = cache.evict("a", &io).unwrap().unwrap();
        assert!(io.stats().bytes_written >= spilled);
        let _ = cache.checkout("a", &pool).unwrap();
        assert!(io.stats().bytes_read >= spilled);
        assert!(io.modeled_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn cstr_keyed_entry_evicts_and_reloads_roundtrip() {
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let io = IoModel::free();
        let mut cache = KvCache::default();
        let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
        for i in 0..500u64 {
            kvc.push(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let n = kvc.len();
        cache.insert("words", kvc, Partitioner::hash().fingerprint(1));
        assert!(cache.evict("words", &io).unwrap().is_some());
        assert_eq!(pool.used(), 0, "memory fully released while evicted");

        let out = cache.checkout("words", &pool).unwrap();
        assert_eq!(out.kvc.len(), n);
        let mut seen = 0u64;
        out.kvc
            .drain(|k, v| {
                let i = u64::from_le_bytes(v.try_into().unwrap());
                assert_eq!(k, format!("key-{i}").as_bytes());
                seen += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, n);
    }

    #[test]
    fn entry_survives_repeated_evict_and_reload() {
        let pool = MemPool::unlimited("t", 4096);
        let io = IoModel::free();
        let mut cache = KvCache::default();
        let kvc = filled(&pool, 300);
        let original = collect(&kvc);
        cache.insert("a", kvc, Partitioner::hash().fingerprint(1));
        for round in 1..=3 {
            assert!(cache.evict("a", &io).unwrap().is_some(), "round {round}");
            let out = cache.checkout("a", &pool).unwrap();
            assert_eq!(collect(&out.kvc), original, "round {round}");
            cache.checkin("a", out);
        }
        assert_eq!(cache.stats().reloads, 3);
    }

    #[test]
    fn empty_entry_evicts_and_reloads_cleanly() {
        let pool = MemPool::unlimited("t", 4096);
        let io = IoModel::free();
        let mut cache = KvCache::default();
        let empty = KvContainer::new(&pool, KvMeta::var());
        cache.insert("none", empty, Partitioner::hash().fingerprint(1));
        assert_eq!(cache.evict("none", &io).unwrap(), Some(0));
        let out = cache.checkout("none", &pool).unwrap();
        assert_eq!(out.kvc.len(), 0);
        assert_eq!(out.kvc.meta(), KvMeta::var());
        assert_eq!(pool.used(), 0);
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
