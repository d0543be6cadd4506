//! End-to-end tests of the MR-MPI phase machinery across ranks.

use std::collections::HashMap;

use mimir_io::{IoModel, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::{run_world, run_world_on, TransportKind};
use mrmpi::{MapReduce, MrMpiConfig, OocMode};

fn store() -> SpillStore {
    SpillStore::new_temp("mrmpi-test", IoModel::free()).unwrap()
}

fn sum_u64(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    let s = u64::from_le_bytes(a.try_into().unwrap()) + u64::from_le_bytes(b.try_into().unwrap());
    out.extend_from_slice(&s.to_le_bytes());
}

/// A tiny WordCount over a fixed corpus, checking exact totals.
fn wordcount(n_ranks: usize, cfg: MrMpiConfig, compress: bool) -> HashMap<String, u64> {
    let results = run_world(n_ranks, move |comm| {
        let pool = MemPool::unlimited("node", 4096);
        let mut mr = MapReduce::new(comm, pool, store(), cfg);
        let rank = {
            let words = ["apple", "pear", "plum", "apple", "fig"];
            mr.map(|em| {
                for _ in 0..100 {
                    for w in words {
                        em.emit(w.as_bytes(), &1u64.to_le_bytes())?;
                    }
                }
                Ok(())
            })
            .unwrap();
            0
        };
        let _ = rank;
        if compress {
            mr.compress(sum_u64).unwrap();
        }
        mr.aggregate().unwrap();
        mr.convert().unwrap();
        mr.reduce(|k, vals, em| {
            let total: u64 = vals
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .sum();
            em.emit(k, &total.to_le_bytes())
        })
        .unwrap();

        let mut local = HashMap::new();
        mr.scan(|k, v| {
            local.insert(
                String::from_utf8(k.to_vec()).unwrap(),
                u64::from_le_bytes(v.try_into().unwrap()),
            );
            Ok(())
        })
        .unwrap();
        local
    });
    let mut merged = HashMap::new();
    for local in results {
        for (k, v) in local {
            assert!(merged.insert(k, v).is_none(), "key reduced on two ranks");
        }
    }
    merged
}

#[test]
fn wordcount_across_ranks() {
    for n in [1, 2, 5] {
        let counts = wordcount(n, MrMpiConfig::with_page_size(4096), false);
        assert_eq!(counts.len(), 4, "n={n}");
        assert_eq!(counts["apple"], 200 * n as u64);
        assert_eq!(counts["fig"], 100 * n as u64);
    }
}

#[test]
fn compress_shrinks_shuffled_data_without_changing_results() {
    let plain = wordcount(3, MrMpiConfig::with_page_size(4096), false);
    let cps = wordcount(3, MrMpiConfig::with_page_size(4096), true);
    assert_eq!(plain, cps);
}

#[test]
fn tiny_pages_spill_but_stay_correct() {
    // 512-byte pages with 500 KVs per rank force spills in every phase.
    let counts = wordcount(2, MrMpiConfig::with_page_size(512), false);
    assert_eq!(counts["apple"], 400);
    assert_eq!(counts["plum"], 200);
}

#[test]
fn error_mode_reports_page_overflow() {
    run_world(1, |comm| {
        let pool = MemPool::unlimited("node", 4096);
        let cfg = MrMpiConfig {
            page_size: 256,
            ooc: OocMode::Error,
        };
        let mut mr = MapReduce::new(comm, pool, store(), cfg);
        let res = mr.map(|em| {
            for i in 0..100u64 {
                em.emit(&i.to_le_bytes(), &[7u8; 16])?;
            }
            Ok(())
        });
        assert!(matches!(res, Err(mrmpi::MrError::PageOverflow { .. })));
    });
}

#[test]
fn page_set_allocation_fails_on_small_node() {
    run_world(1, |comm| {
        // Aggregate needs 7 pages of 4 KiB = 28 KiB; the node has 16 KiB.
        let pool = MemPool::new("node", 1024, 16 * 1024).unwrap();
        let mut mr = MapReduce::new(comm, pool, store(), MrMpiConfig::with_page_size(4096));
        mr.map(|em| em.emit(b"k", b"v")).unwrap();
        let err = mr.aggregate().unwrap_err();
        assert!(err.is_oom(), "{err}");
    });
}

#[test]
fn peak_memory_is_flat_in_dataset_size() {
    // The paper's core criticism: MR-MPI's footprint is its page sets,
    // independent of how much data flows (until it spills).
    let peak_of = |kvs: u64| {
        run_world(1, move |comm| {
            let pool = MemPool::unlimited("node", 4096);
            let mut mr = MapReduce::new(
                comm,
                pool.clone(),
                store(),
                MrMpiConfig::with_page_size(32 * 1024),
            );
            mr.map(|em| {
                for i in 0..kvs {
                    em.emit(&(i % 50).to_le_bytes(), &i.to_le_bytes())?;
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
            pool.peak()
        })[0]
    };
    let small = peak_of(100);
    let large = peak_of(1000);
    assert_eq!(small, large, "static pages: {small} vs {large}");
}

#[test]
fn skewed_keys_partition_to_single_rank() {
    // All KVs share one key: after aggregate, exactly one rank owns them.
    let owners = run_world(4, |comm| {
        let pool = MemPool::unlimited("node", 4096);
        let mut mr = MapReduce::new(comm, pool, store(), MrMpiConfig::with_page_size(8192));
        mr.map(|em| {
            for i in 0..50u64 {
                em.emit(b"hotkey", &i.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        mr.aggregate().unwrap();
        mr.kv_count()
    });
    let non_zero: Vec<_> = owners.iter().filter(|&&c| c > 0).collect();
    assert_eq!(non_zero.len(), 1);
    assert_eq!(*non_zero[0], 200);
}

#[test]
fn always_mode_full_pipeline() {
    // OocMode::Always writes everything to the I/O subsystem at every
    // phase; results must be identical to in-memory mode, and the I/O
    // model must see substantial traffic.
    let io = IoModel::new(mimir_io::IoModelConfig {
        read_bw: 1e9,
        write_bw: 1e9,
        op_latency: std::time::Duration::ZERO,
    })
    .unwrap();
    let io2 = io.clone();
    let counts = run_world(2, move |comm| {
        let pool = MemPool::unlimited("node", 4096);
        let store = SpillStore::new_temp("always", io2.clone()).unwrap();
        let cfg = MrMpiConfig {
            page_size: 8 * 1024,
            ooc: OocMode::Always,
        };
        let mut mr = MapReduce::new(comm, pool, store, cfg);
        mr.map(|em| {
            for i in 0..500u64 {
                em.emit(format!("w{}", i % 7).as_bytes(), &1u64.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        assert!(mr.spilled(), "Always mode spills by definition");
        mr.aggregate().unwrap();
        mr.convert().unwrap();
        mr.reduce(|k, vals, em| {
            let n: u64 = vals
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .sum();
            em.emit(k, &n.to_le_bytes())
        })
        .unwrap();
        let mut local = HashMap::new();
        mr.scan(|k, v| {
            local.insert(k.to_vec(), u64::from_le_bytes(v.try_into().unwrap()));
            Ok(())
        })
        .unwrap();
        local
    });
    let merged: HashMap<Vec<u8>, u64> = counts.into_iter().flatten().collect();
    assert_eq!(merged.len(), 7);
    assert_eq!(merged.values().sum::<u64>(), 1000);
    assert!(io.stats().bytes_written > 10_000, "{:?}", io.stats());
}

/// `aggregate` moves each round's send partitions through the
/// transport's `alltoallv_into`: the forked-process socket backend must
/// land the same KVs on the same ranks as the in-process one. A small
/// page forces many exchange rounds, and `reduce` lists every value it
/// grouped, so a lost, duplicated or misrouted KV changes a rank's
/// multiset.
#[test]
fn aggregate_convert_reduce_match_across_transports() {
    let run = |kind| {
        run_world_on(kind, 3, |comm| {
            let rank = comm.rank() as u64;
            let pool = MemPool::unlimited("node", 4096);
            let mut mr = MapReduce::new(comm, pool, store(), MrMpiConfig::with_page_size(1024));
            mr.map(|em| {
                for i in 0..400u64 {
                    let v = rank * 1000 + i;
                    em.emit(format!("w{}", i % 37).as_bytes(), &v.to_le_bytes())?;
                }
                Ok(())
            })
            .unwrap();
            mr.aggregate().unwrap();
            mr.convert().unwrap();
            mr.reduce(|k, vals, em| {
                let mut vals: Vec<u64> = vals
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                    .collect();
                vals.sort_unstable();
                let packed: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                em.emit(k, &packed)
            })
            .unwrap();
            let rounds = mr.stats().exchange_rounds;
            let mut local: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            mr.scan(|k, v| {
                local.push((k.to_vec(), v.to_vec()));
                Ok(())
            })
            .unwrap();
            local.sort();
            (local, rounds)
        })
    };
    let inproc = run(TransportKind::Inproc);
    let uds = run(TransportKind::Uds);
    assert_eq!(uds, inproc, "per-rank output differs between transports");
    let groups: usize = inproc.iter().map(|(local, _)| local.len()).sum();
    assert_eq!(groups, 37, "every key reduced on exactly one rank");
    let values: usize = inproc
        .iter()
        .flat_map(|(local, _)| local.iter().map(|(_, v)| v.len() / 8))
        .sum();
    assert_eq!(values, 3 * 400, "every value grouped once");
    assert!(inproc[0].1 > 1, "a 1 KiB page needs several rounds");
}
