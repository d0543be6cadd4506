//! Proof that the elided chain path stops allocating: with a counting
//! global allocator installed, a steady-state iteration over a cached
//! input — checkout, per-KV map over the resident partition, local
//! re-emit into the output container — performs no per-KV heap
//! allocations. The cached pages are pool-backed and the elided path
//! never touches serialization, send buffers, or the exchange. The same
//! holds with an arrival filter in front of the output container.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mimir_core::{typed, Emitter, KvMeta, MimirConfig, MimirContext};
use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::run_world;

/// Wraps the system allocator with a per-thread allocation counter.
/// Thread-local so rank threads in `run_world` count independently; the
/// `const` initializer keeps TLS access safe inside the allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const KVS: u64 = 2000;
const WARMUP: u64 = 512;

/// Runs one elided chain over `KVS` cached fixed(8,8) pairs, with the
/// map re-emitting each key with its value + 1, and returns the output
/// count and the allocations between the map's `WARMUP`th KV and its
/// last. With `filtered`, an arrival filter keeps the even keys.
fn steady_state_allocs(filtered: bool) -> (u64, u64) {
    let out = run_world(1, move |comm| {
        let pool = MemPool::unlimited("t", 256 * 1024);
        let mut ctx =
            MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();

        // Seed the cached input: KVS fixed(8,8) pairs.
        ctx.job()
            .kv_meta(KvMeta::fixed(8, 8))
            .output_cached("steady")
            .map(&mut |em| {
                for i in 0..KVS {
                    em.emit(&typed::enc_u64(i), &typed::enc_u64(i * 3))?;
                }
                Ok(())
            })
            .collect()
            .unwrap();

        // Chained elided iteration: key-preserving value transform. The
        // map snapshots the allocation counter after the warm-up KV and
        // measures through the final KV.
        let mut seen = 0u64;
        let mut at_warmup = 0u64;
        let mut at_last = 0u64;
        let mut even = |k: &[u8], _v: &[u8]| typed::dec_u64(k).is_multiple_of(2);
        let mut chain_map = |k: &[u8], v: &[u8], em: &mut dyn Emitter| {
            seen += 1;
            if seen == WARMUP {
                at_warmup = allocs();
            }
            em.emit(k, &typed::enc_u64(typed::dec_u64(v) + 1))?;
            if seen == KVS {
                at_last = allocs();
            }
            Ok(())
        };
        let mut job = ctx
            .job()
            .kv_meta(KvMeta::fixed(8, 8))
            .chain("steady", &mut chain_map);
        if filtered {
            job = job.arrival_filter(&mut even);
        }
        let out = job.collect().unwrap();

        assert_eq!(seen, KVS, "the chain visited every cached KV");
        let stats = ctx.cache_stats();
        assert_eq!(stats.elisions, 1, "the shuffle was elided");
        ctx.cache_clear();
        (out.stats.kvs_out, at_last - at_warmup)
    });
    out[0]
}

/// The strict proof: past KV `WARMUP` (output page acquired, lazy state
/// initialized), the elided chain's per-KV path — cached-page iteration,
/// the partition-honesty check, and the container append — allocates
/// nothing through the end of the input.
#[test]
fn steady_state_elided_iteration_is_allocation_free() {
    let (kvs_out, during) = steady_state_allocs(false);
    assert_eq!(kvs_out, KVS);
    assert_eq!(
        during,
        0,
        "elided steady state allocated {during} times over {} KVs",
        KVS - WARMUP
    );
}

/// The same with an arrival filter installed: the filter's call per KV
/// adds no allocation, and only the KVs it keeps are output.
#[test]
fn steady_state_filtered_iteration_is_allocation_free() {
    let (kvs_out, during) = steady_state_allocs(true);
    assert_eq!(kvs_out, KVS / 2);
    assert_eq!(
        during,
        0,
        "filtered steady state allocated {during} times over {} KVs",
        KVS - WARMUP
    );
}
