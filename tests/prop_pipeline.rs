//! Randomized tests over the full pipeline: for arbitrary KV multisets
//! and configurations, the frameworks must agree with a reference
//! grouping, and the optimizations must be semantics-preserving. Driven
//! by a seeded PRNG so failures replay deterministically.

use std::collections::HashMap;

use mimir::prelude::*;
use mimir_core::typed;
use mimir_datagen::rank_rng;

/// Reference: group-by-key and sum, single-threaded.
fn reference_sums(kvs: &[(Vec<u8>, u64)]) -> HashMap<Vec<u8>, u64> {
    let mut out: HashMap<Vec<u8>, u64> = HashMap::new();
    for (k, v) in kvs {
        let e = out.entry(k.clone()).or_insert(0);
        *e = e.wrapping_add(*v);
    }
    out
}

fn sum_combine(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&typed::enc_u64(
        typed::dec_u64(a).wrapping_add(typed::dec_u64(b)),
    ));
}

/// Random multiset: short byte keys (collision-heavy) with u64 values.
fn gen_kvs(seed: u64, case: usize) -> Vec<(Vec<u8>, u64)> {
    let mut rng = rank_rng(seed, case);
    (0..rng.gen_range(0..200))
        .map(|_| {
            let k: Vec<u8> = (0..rng.gen_range(0..12))
                .map(|_| rng.gen_range(0..256) as u8)
                .collect();
            (k, rng.next_u64())
        })
        .collect()
}

/// Runs a sum-by-key job over `kvs` split across `ranks`, with the given
/// optimization combination, and returns the merged output.
fn run_sum_job(
    kvs: Vec<(Vec<u8>, u64)>,
    ranks: usize,
    pr: bool,
    cps: bool,
    comm_buf: usize,
) -> HashMap<Vec<u8>, u64> {
    let shared = std::sync::Arc::new(kvs);
    let results = run_world(ranks, move |comm| {
        let rank = comm.rank();
        let pool = MemPool::unlimited("node", 16 * 1024);
        let mut ctx = MimirContext::new(
            comm,
            pool,
            IoModel::free(),
            MimirConfig {
                comm_buf_size: comm_buf,
                ..MimirConfig::default()
            },
        )
        .unwrap();
        let meta = KvMeta {
            key: mimir_core::LenHint::Var,
            val: mimir_core::LenHint::Fixed(8),
        };
        let my_kvs = shared.clone();
        let mut map = move |em: &mut dyn mimir_core::Emitter| {
            for (i, (k, v)) in my_kvs.iter().enumerate() {
                if i % ranks == rank {
                    em.emit(k, &typed::enc_u64(*v))?;
                }
            }
            Ok(())
        };
        let mut job = ctx.job().kv_meta(meta).out_meta(meta).map(&mut map);
        if cps {
            job = job.combine(Box::new(sum_combine));
        }
        let out = if pr {
            job.partial_reduce(Box::new(sum_combine))
        } else {
            job.reduce(&mut |k, vals, em| {
                let total = vals.map(typed::dec_u64).fold(0u64, u64::wrapping_add);
                em.emit(k, &typed::enc_u64(total))
            })
        }
        .unwrap();
        let mut local = Vec::new();
        out.output
            .drain(|k, v| {
                local.push((k.to_vec(), typed::dec_u64(v)));
                Ok(())
            })
            .unwrap();
        local
    });
    let mut merged = HashMap::new();
    for rank_out in results {
        for (k, v) in rank_out {
            assert!(merged.insert(k, v).is_none(), "key on two ranks");
        }
    }
    merged
}

#[test]
fn sum_by_key_matches_reference() {
    for case in 0..24usize {
        let kvs = gen_kvs(0x5100_0001, case);
        let ranks = 1 + case % 4;
        let expected = reference_sums(&kvs);
        let got = run_sum_job(kvs, ranks, false, false, 64 * 1024);
        assert_eq!(got, expected, "case {case}, ranks {ranks}");
    }
}

#[test]
fn optimizations_preserve_semantics() {
    for case in 0..24usize {
        let kvs = gen_kvs(0x5100_0002, case);
        let ranks = 1 + case % 3;
        let (pr, cps) = (case % 4 / 2 == 1, case % 2 == 1);
        let expected = reference_sums(&kvs);
        let got = run_sum_job(kvs, ranks, pr, cps, 64 * 1024);
        assert_eq!(got, expected, "case {case}, pr={pr}, cps={cps}");
    }
}

#[test]
fn tiny_comm_buffers_preserve_semantics() {
    for case in 0..24usize {
        let kvs = gen_kvs(0x5100_0003, case);
        let ranks = 1 + case % 3;
        let expected = reference_sums(&kvs);
        // 96-byte partitions force an exchange round every couple of KVs.
        let got = run_sum_job(kvs, ranks, false, false, 96 * ranks);
        assert_eq!(got, expected, "case {case}, ranks {ranks}");
    }
}

#[test]
fn splitter_partitions_every_record_once() {
    for case in 0..24usize {
        let mut rng = rank_rng(0x5100_0004, case);
        let records: Vec<Vec<u8>> = (0..rng.gen_range(0..50))
            .map(|_| {
                (0..rng.gen_range(0..20))
                    .map(|_| {
                        // Any byte except NUL and the record separator.
                        loop {
                            let b = 1 + rng.gen_range(0..255) as u8;
                            if b != b'\n' {
                                return b;
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let parts = 1 + rng.gen_range(0..7);
        let mut data = Vec::new();
        for r in &records {
            data.extend_from_slice(r);
            data.push(b'\n');
        }
        let ranges = mimir::io::splitter::split_records(&data, parts, b'\n');
        let mut collected: Vec<Vec<u8>> = Vec::new();
        for r in ranges {
            for line in data[r].split(|&b| b == b'\n') {
                if !line.is_empty() {
                    collected.push(line.to_vec());
                }
            }
        }
        let expected: Vec<Vec<u8>> = records.into_iter().filter(|r| !r.is_empty()).collect();
        assert_eq!(collected, expected, "case {case}, parts {parts}");
    }
}

#[test]
fn kv_codec_roundtrips_any_hint() {
    use mimir_core::{encode_push, KvDecoder, LenHint};
    for case in 0..24usize {
        let mut rng = rank_rng(0x5100_0005, case);
        // CStr keys: generated keys exclude NUL by construction.
        let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(0..40))
            .map(|_| {
                let k: Vec<u8> = (0..rng.gen_range(0..16))
                    .map(|_| 1 + rng.gen_range(0..255) as u8)
                    .collect();
                let v: Vec<u8> = (0..rng.gen_range(0..16))
                    .map(|_| rng.gen_range(0..256) as u8)
                    .collect();
                (k, v)
            })
            .collect();
        for meta in [
            KvMeta::var(),
            KvMeta {
                key: LenHint::CStr,
                val: mimir_core::LenHint::Var,
            },
        ] {
            let mut buf = Vec::new();
            for (k, v) in &kvs {
                encode_push(meta, k, v, &mut buf);
            }
            let decoded: Vec<(Vec<u8>, Vec<u8>)> = KvDecoder::new(meta, &buf)
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            assert_eq!(decoded, kvs, "case {case}");
        }
    }
}
