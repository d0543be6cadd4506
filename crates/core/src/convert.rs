//! KV→KMV conversion in one pass.
//!
//! The paper's convert is two-pass (Section III-A):
//!
//! > "In the first pass, the size of the KVs for each unique key is
//! > gathered in a hash bucket and used to calculate the position of each
//! > KMV in the KMVC. In the second pass, the KVs are converted into KMVs
//! > by inserting them into the corresponding position in the KMVC."
//!
//! The first pass exists only because a contiguous KMV needs its size
//! before it is placed. Here a KMV is a chain of chunks instead (see
//! [`KmvContainer`]), so [`GroupedKvs`] does both at once: each KV's
//! key is hashed exactly once and interned on the shared
//! [`crate::GroupIndex`], and its value is appended to that group's
//! chain — the only time a value is written. A chunk whose values share
//! one length stores them bare, without the hint's length word or NUL;
//! the first value of another length opens a chunk that encodes each
//! value under the hint. A job's shuffle runs it *on arrival*, while the
//! received run is still cache-resident; [`convert`] runs it over a KVC
//! that already exists, freeing the KVC's pages as they are consumed.
//! Sealing the KMVC copies nothing.
//!
//! Every structure the phase holds — the group index, the chain heads,
//! the chunk pages — is charged to the node pool, so the convert phase's
//! real footprint is what the peak-memory figures measure.

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::{GroupedKvs, KmvContainer, KvContainer, KvSink, Result};

/// Converts a KV container into a KMV container, grouping values by key.
///
/// Keys appear in the output in first-occurrence order and values in
/// container order, making reduce output deterministic for a given KVC
/// content.
///
/// # Errors
/// Out-of-memory if the grouping state and the KMVC exceed the node
/// budget.
pub fn convert(kvc: KvContainer, pool: &MemPool) -> Result<KmvContainer> {
    convert_with(kvc, pool).map(|(kmvc, _)| kmvc)
}

/// [`convert`], also returning the grouping engine's counters: one walk
/// that hands each KVC page to the on-arrival pass as a run, freeing the
/// page once its KVs are grouped.
///
/// # Errors
/// As [`convert`].
pub fn convert_with(kvc: KvContainer, pool: &MemPool) -> Result<(KmvContainer, GroupCounters)> {
    let meta = kvc.meta();
    let mut grouped = GroupedKvs::new(pool, meta)?;
    kvc.drain_runs(|run| grouped.accept_run(meta, run).map(drop))?;
    grouped.into_kmv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvMeta, MimirError};
    use mimir_mem::MemPool;
    use std::collections::HashMap as StdMap;

    fn groups_of(kmvc: &KmvContainer) -> StdMap<Vec<u8>, Vec<Vec<u8>>> {
        let mut out = StdMap::new();
        kmvc.for_each_group(|k, vals| {
            out.insert(k.to_vec(), vals.map(<[u8]>::to_vec).collect());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn groups_values_by_key_in_first_occurrence_order() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        for (k, v) in [
            ("apple", "1"),
            ("banana", "2"),
            ("apple", "3"),
            ("cherry", "4"),
            ("banana", "5"),
            ("apple", "6"),
        ] {
            kvc.push(k.as_bytes(), v.as_bytes()).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 3);
        assert_eq!(kmvc.n_values(), 6);

        let mut order = Vec::new();
        kmvc.for_each_group(|k, _| {
            order.push(k.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(
            order,
            vec![b"apple".to_vec(), b"banana".to_vec(), b"cherry".to_vec()]
        );

        let g = groups_of(&kmvc);
        assert_eq!(
            g[&b"apple"[..].to_vec()],
            vec![b"1".to_vec(), b"3".to_vec(), b"6".to_vec()]
        );
        assert_eq!(g[&b"cherry"[..].to_vec()], vec![b"4".to_vec()]);
    }

    #[test]
    fn convert_with_hints() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let meta = KvMeta::cstr_key_u64_val();
        let mut kvc = KvContainer::new(&pool, meta);
        for i in 0..50u64 {
            let key = format!("w{}", i % 5);
            kvc.push(key.as_bytes(), &i.to_le_bytes()).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 5);
        let g = groups_of(&kmvc);
        assert_eq!(g[&b"w0".to_vec()].len(), 10);
        let vals: Vec<u64> = g[&b"w3".to_vec()]
            .iter()
            .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![3, 8, 13, 18, 23, 28, 33, 38, 43, 48]);
    }

    #[test]
    fn arena_mode_reports_group_stats() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
        for i in 0..300u64 {
            kvc.push(format!("w{}", i % 40).as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let (_, stats) = convert_with(kvc, &pool).unwrap();
        assert_eq!(stats.groups, 40);
        assert_eq!(stats.inserts, 300, "every KV probes exactly once");
        assert_eq!(
            stats.interned_bytes,
            (0..40).map(|i| format!("w{i}").len() as u64).sum()
        );
        assert!(stats.capacity >= 64);
        assert_eq!(stats.probe_hist.iter().sum::<u64>(), 300);
    }

    #[test]
    fn empty_container_converts_to_empty() {
        let pool = MemPool::new("t", 128, 4096).unwrap();
        let kvc = KvContainer::new(&pool, KvMeta::var());
        let kmvc = convert(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 0);
        assert_eq!(kmvc.n_values(), 0);
    }

    #[test]
    fn kvc_pages_are_freed_as_they_are_grouped() {
        let page = 256;
        let pool = MemPool::new("t", page, 1024 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(8, 8));
        for i in 0..1000u64 {
            kvc.push(&(i % 7).to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let kvc_pages = kvc.pages_held();
        let before = pool.used();
        let kmvc = convert(kvc, &pool).unwrap();
        // The chains hold half of each KV (its value), so the KVC's pages
        // going as they are read keeps the peak near the KVC itself.
        assert!(kvc_pages > 10);
        assert!(
            pool.peak() <= before + 4 * page,
            "peak {} vs KVC {before}",
            pool.peak()
        );
        assert!(
            pool.used() < before,
            "KVC freed: {before} -> {}",
            pool.used()
        );
        assert_eq!(kmvc.n_values(), 1000);
    }

    #[test]
    fn convert_oom_is_reported() {
        // Budget fits the KVC but not KVC + grouping state + KMVC.
        let pool = MemPool::new("t", 256, 2048).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(8, 8));
        for i in 0..120u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let err = convert(kvc, &pool).unwrap_err();
        assert!(matches!(err, MimirError::Mem(_)), "{err}");
    }

    #[test]
    fn value_iter_is_exact_size() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        for i in 0..12u32 {
            kvc.push(b"k", &i.to_le_bytes()).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        kmvc.for_each_group(|_k, vals| {
            assert_eq!(vals.len(), 12);
            let mut vals = vals;
            vals.next();
            assert_eq!(vals.len(), 11);
            assert_eq!(vals.count(), 11);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn jumbo_entry_exceeding_budget_is_oom_not_panic() {
        // One group whose values alone outgrow a 2 KiB budget.
        let pool = MemPool::new("t", 128, 2 * 1024).unwrap();
        let mut grouper = GroupedKvs::new(&pool, KvMeta::fixed(4, 8)).unwrap();
        let err = (0..300u64)
            .try_for_each(|i| grouper.accept(b"hotk", &i.to_le_bytes()))
            .unwrap_err();
        assert!(matches!(err, MimirError::Mem(_)), "{err}");
        drop(grouper);
        assert_eq!(pool.used(), 0, "partial grouping fully unwinds");
    }

    #[test]
    fn value_too_large_for_a_chunk_is_rejected() {
        // A 64 B page holds an 8 B chunk header and one bare 56 B value,
        // or a 52 B value behind its length word in a variable chunk.
        let pool = MemPool::unlimited("t", 64);
        let mut grouper = GroupedKvs::new(&pool, KvMeta::var()).unwrap();
        grouper.accept(b"k", &[1; 56]).unwrap();
        let err = grouper.accept(b"k", &[1; 53]).unwrap_err();
        assert!(matches!(err, MimirError::KvTooLarge { .. }), "{err}");
        grouper.accept(b"k", &[1; 52]).unwrap();
    }

    #[test]
    fn side_arrays_are_charged_to_the_pool() {
        // 4000 unique keys: the index entries (24 B) and chain heads
        // (16 B) are 160 KB of side arrays beside 32 KB of values and
        // their 8 B chunk headers, and the sealed KMVC must be charged
        // for all of it — and for little more.
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(8, 8));
        for i in 0..4000u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        let held = 4000 * (24 + 16 + 8 + 8);
        assert!(
            (held..held + 4096).contains(&pool.used()),
            "sealed KMVC charges {} B",
            pool.used()
        );
        drop(kmvc);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn single_kv_single_group() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        kvc.push(b"only", b"value").unwrap();
        let kmvc = convert(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 1);
        assert_eq!(kmvc.n_values(), 1);
        assert_eq!(kmvc.pages_held(), 1);
    }
}
