//! Error taxonomy and statistics surface of the MR-MPI baseline.

use std::time::Duration;

use mimir_io::{IoModel, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mrmpi::{MapReduce, MrError, MrMpiConfig, MrStats};

fn store() -> SpillStore {
    SpillStore::new_temp("mr-errs", IoModel::free()).unwrap()
}

#[test]
fn phase_order_is_enforced() {
    run_world(1, |comm| {
        let pool = MemPool::unlimited("node", 4096);
        let mut mr = MapReduce::new(comm, pool, store(), MrMpiConfig::default());
        // No dataset yet: every phase refuses.
        assert!(matches!(mr.aggregate(), Err(MrError::Phase(_))));
        assert!(matches!(mr.convert(), Err(MrError::Phase(_))));
        assert!(matches!(
            mr.reduce(|_k, _v, _e| Ok(())),
            Err(MrError::Phase(_))
        ));
        assert!(matches!(
            mr.compress(|_k, _a, _b, _o| {}),
            Err(MrError::Phase(_))
        ));
        assert!(matches!(mr.scan(|_k, _v| Ok(())), Err(MrError::Phase(_))));
        // Reduce before convert is also a phase error.
        mr.map(|em| em.emit(b"k", b"v")).unwrap();
        assert!(matches!(
            mr.reduce(|_k, _v, _e| Ok(())),
            Err(MrError::Phase(_))
        ));
    });
}

#[test]
fn error_messages_name_the_problem() {
    let e = MrError::PageOverflow {
        what: "KV data",
        page_size: 65536,
    };
    assert!(e.to_string().contains("65536"));
    assert!(e.to_string().contains("out-of-core disabled"));

    let e = MrError::EntryTooLarge {
        size: 100_000,
        page_size: 65536,
    };
    assert!(e.to_string().contains("100000"));
}

#[test]
fn stats_accumulate_across_phases() {
    let stats: Vec<MrStats> = run_world(2, |comm| {
        let pool = MemPool::unlimited("node", 4096);
        let mut mr = MapReduce::new(comm, pool, store(), MrMpiConfig::with_page_size(8192));
        mr.map(|em| {
            for i in 0..200u64 {
                em.emit(format!("k{}", i % 9).as_bytes(), &i.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        mr.aggregate().unwrap();
        mr.convert().unwrap();
        mr.reduce(|k, vals, em| {
            let n = vals.count() as u64;
            em.emit(k, &n.to_le_bytes())
        })
        .unwrap();
        mr.stats()
    });
    for s in &stats {
        assert!(s.kvs_mapped >= 200, "{s:?}");
        assert!(s.exchange_rounds >= 1);
        assert!(s.node_peak_bytes >= 7 * 8192, "page sets on the books");
        assert!(s.aggregate_time > Duration::ZERO);
        assert!(!s.spilled);
    }
    let unique: u64 = stats.iter().map(|s| s.unique_keys).sum();
    assert_eq!(unique, 9);
}
