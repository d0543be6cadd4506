//! Micro-benchmarks over the framework's hot kernels: hashing, KV
//! codecs, container insert/drain, the one-pass convert, the combiner
//! fold, and the shuffle round-trip. Plain harness (`harness = false`):
//! each case is timed over a fixed iteration count and reported as
//! ns/iter, so `cargo bench` works without external crates.

use std::hint::black_box;
use std::time::Instant;

use mimir_core::{
    convert, fxhash64, CombinerTable, Emitter, KvContainer, KvMeta, MimirConfig, MimirContext,
};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;

const N_KVS: usize = 10_000;

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    // One warm-up pass, then the timed loop.
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = t0.elapsed().as_nanos() / u128::from(iters);
    println!("{name:<40}{per:>12} ns/iter");
}

fn keys() -> Vec<Vec<u8>> {
    (0..N_KVS)
        .map(|i| format!("key-{:06}", i % 997).into_bytes())
        .collect()
}

fn bench_hash() {
    for len in [4usize, 16, 64] {
        let data = vec![0xA5u8; len];
        bench(&format!("hash/fxhash64/{len}"), 1_000_000, || {
            fxhash64(black_box(&data))
        });
    }
}

fn bench_codec() {
    let ks = keys();
    let val = 7u64.to_le_bytes();
    for (name, meta) in [("var", KvMeta::var()), ("hint", KvMeta::cstr_key_u64_val())] {
        bench(&format!("codec/encode/{name}"), 200, || {
            let mut buf = Vec::with_capacity(N_KVS * 32);
            for k in &ks {
                mimir_core::encode_push(meta, k, &val, &mut buf);
            }
            buf.len()
        });
        let mut buf = Vec::new();
        for k in &ks {
            mimir_core::encode_push(meta, k, &val, &mut buf);
        }
        bench(&format!("codec/decode/{name}"), 200, || {
            let mut n = 0u64;
            for (k, _v) in mimir_core::KvDecoder::new(meta, &buf) {
                n += k.len() as u64;
            }
            n
        });
    }
}

fn bench_kvc() {
    let ks = keys();
    let val = 1u64.to_le_bytes();
    let pool = MemPool::unlimited("bench", 64 * 1024);
    bench("kvc/push_drain", 200, || {
        let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
        for k in &ks {
            kvc.push(k, &val).unwrap();
        }
        let mut n = 0u64;
        kvc.drain(|_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        n
    });
}

fn bench_convert() {
    let ks = keys();
    let val = 1u64.to_le_bytes();
    let pool = MemPool::unlimited("bench", 64 * 1024);
    bench("convert/one_pass_group", 100, || {
        let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
        for k in &ks {
            kvc.push(k, &val).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        kmvc.n_groups()
    });
}

fn bench_combiner() {
    let ks = keys();
    let val = 1u64.to_le_bytes();
    let pool = MemPool::unlimited("bench", 64 * 1024);
    bench("combiner/fold_sum", 100, || {
        let mut t = CombinerTable::new(
            &pool,
            KvMeta::cstr_key_u64_val(),
            Box::new(|_k, a, bb, out| {
                let s = u64::from_le_bytes(a.try_into().unwrap())
                    + u64::from_le_bytes(bb.try_into().unwrap());
                out.extend_from_slice(&s.to_le_bytes());
            }),
        )
        .unwrap();
        for k in &ks {
            t.emit(k, &val).unwrap();
        }
        t.unique_keys()
    });
}

fn bench_shuffle() {
    let ks = keys();
    let val = 1u64.to_le_bytes();
    for ranks in [1usize, 4] {
        bench(&format!("shuffle/map_shuffle/{ranks}"), 20, || {
            let ks = &ks;
            let out = run_world(ranks, move |comm| {
                let pool = MemPool::unlimited("bench", 64 * 1024);
                let mut ctx =
                    MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
                let job = ctx.job().kv_meta(KvMeta::cstr_key_u64_val());
                let out = job
                    .map_shuffle(&mut |em: &mut dyn Emitter| {
                        for k in ks {
                            em.emit(k, &val)?;
                        }
                        Ok(())
                    })
                    .unwrap();
                out.output.len()
            });
            out[0]
        });
    }
}

fn main() {
    bench_hash();
    bench_codec();
    bench_kvc();
    bench_convert();
    bench_combiner();
    bench_shuffle();
}
