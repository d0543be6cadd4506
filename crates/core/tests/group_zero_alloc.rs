//! Proof that the grouping engine's hot path stops allocating: once a
//! [`GroupIndex`] (or a fold table built on it) has seen its working set,
//! further lookups of existing keys and in-place value merges perform
//! zero heap allocations — the property that lets skewed workloads (the
//! common MapReduce case) run the grouping loop at memory speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mimir_core::{encode_push, fxhash64, GroupIndex, GroupedKvs, PartialReducer};
use mimir_mem::MemPool;

/// Wraps the system allocator with a per-thread allocation counter (the
/// same harness as the shuffle zero-alloc proof).
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

/// Probing an existing key — hash, slot walk, tag compare, interned-key
/// compare — touches no allocator at all.
#[test]
fn existing_key_lookups_are_allocation_free() {
    let pool = MemPool::unlimited("t", 64 * 1024);
    let mut ix = GroupIndex::new(&pool).unwrap();
    let keys: Vec<Vec<u8>> = (0..1000u32)
        .map(|i| format!("word-{i:04}").into_bytes())
        .collect();
    for k in &keys {
        ix.insert(k).unwrap();
    }

    let before = allocs();
    for _ in 0..10 {
        for (want, k) in keys.iter().enumerate() {
            let (id, fresh) = ix.insert(k).unwrap();
            assert_eq!((id, fresh), (want as u32, false));
            assert_eq!(ix.get(k), Some(want as u32));
        }
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "10,000 existing-key probes allocated {during} times"
    );

    // Precomputed-hash probes share the same path.
    let hashes: Vec<u64> = keys.iter().map(|k| fxhash64(k)).collect();
    let before = allocs();
    for (k, h) in keys.iter().zip(&hashes) {
        ix.insert_hashed(*h, k).unwrap();
    }
    assert_eq!(allocs() - before, 0);
}

/// The fold's steady state — every KV folds into an existing group — is
/// allocation-free once the working set is resident, for keys held
/// inline in their index entry and for keys in the arena alike, on every
/// way into it: the partial reducer's single accepts and its run walk,
/// and the combiner's batches and batches of one. The loaded key lives
/// on the stack, the probe hits, the combine callback writes into a
/// reused scratch buffer, and a merged value of unchanged length
/// overwrites the accumulator where it lies.
#[test]
fn steady_state_fold_is_allocation_free() {
    use mimir_core::{CombinerTable, Emitter, KvSink};
    struct Discard;
    impl Emitter for Discard {
        fn emit(&mut self, _k: &[u8], _v: &[u8]) -> mimir_core::Result<()> {
            Ok(())
        }
    }
    let inline: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("k{i:02}").into_bytes())
        .collect();
    let arena: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("a-key-of-24-bytes-no-{i:03}").into_bytes())
        .collect();
    for keys in [inline, arena] {
        let pool = MemPool::unlimited("t", 64 * 1024);
        let meta = mimir_core::KvMeta::cstr_key_u64_val();
        let combine = || -> mimir_core::CombineFn {
            Box::new(|_k, a, b, out| {
                let s = u64::from_le_bytes(a.try_into().unwrap())
                    + u64::from_le_bytes(b.try_into().unwrap());
                out.extend_from_slice(&s.to_le_bytes());
            })
        };
        let one = 1u64.to_le_bytes();
        let batch: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &one[..])).collect();
        let mut run = Vec::new();
        for k in &keys {
            encode_push(meta, k, &one, &mut run);
        }
        let mut pr = PartialReducer::new(&pool, meta, combine()).unwrap();
        let mut table = CombinerTable::new(&pool, meta, combine()).unwrap();

        // Warm-up: materialize all 64 groups and their accumulators, and
        // let the slot tables reach their final capacity.
        for _ in 0..4 {
            for k in &keys {
                pr.accept(k, &one).unwrap();
            }
            table.emit_batch_into(&batch, &mut Discard).unwrap();
        }

        // Measured burst: 19,200 folds in each table, all into existing
        // groups.
        let before = allocs();
        for _ in 0..100 {
            for k in &keys {
                pr.accept(k, &one).unwrap();
                table.emit_into(k, &one, &mut Discard).unwrap();
            }
            assert_eq!(pr.accept_run(meta, &run).unwrap(), 64);
            pr.accept_run(meta, &run).unwrap();
            for half in batch.chunks(32) {
                table.emit_batch_into(half, &mut Discard).unwrap();
            }
            table.emit_batch_into(&batch, &mut Discard).unwrap();
        }
        let during = allocs() - before;
        assert_eq!(during, 0, "steady-state folds allocated {during} times");

        assert_eq!(pr.group_stats().inserts, 304 * 64);
        assert_eq!(table.group_stats().inserts, 304 * 64);
        assert_eq!((pr.unique_keys(), table.unique_keys()), (64, 64));
    }
}

/// Short keys live in their index entries: a table of 8-byte keys (the
/// graph workloads' vertex ids, WordCount's uniform words) never takes a
/// pool page, so its footprint is entries and slots and nothing
/// page-granular.
#[test]
fn short_keys_take_no_pool_page() {
    let pool = MemPool::new("t", 64 * 1024, 1 << 20).unwrap();
    let mut ix = GroupIndex::new(&pool).unwrap();
    for i in 0..1000u64 {
        ix.insert(&i.to_le_bytes()).unwrap();
    }
    assert_eq!(pool.stats().page_allocs, 0);
    assert!(
        pool.used() < 64 * 1024,
        "1,000 entries and 2,048 slots: {} B",
        pool.used()
    );
    assert_eq!(ix.stats().interned_bytes, 8000);
}

/// Grouping on arrival — the convert+reduce jobs' shuffle drain — does
/// no per-KV heap work: once the working set's groups exist, a received
/// run is taken in batches on the stack (2000 KVs: 62 whole batches of 32
/// and a short one), each batch's keys hashed and probed, its heads and
/// tails prefetched and its values appended to their groups' chunk
/// chains, and a chain that outgrows its
/// tail chunk carves the next one from the open pool page. Only a fresh
/// page allocates. A single accepted KV is a batch of one, and allocates
/// no more.
#[test]
fn grouping_a_received_run_is_allocation_free() {
    use mimir_core::{KvMeta, KvSink};
    // The pass is compiled once per hint pair; each copy is checked.
    for meta in [
        KvMeta::var(),
        KvMeta::cstr_key_u64_val(),
        KvMeta::fixed(4, 8),
    ] {
        let pool = MemPool::unlimited("t", 1 << 20);
        let mut run = Vec::new();
        for i in 0..2000u32 {
            encode_push(
                meta,
                format!("w{:03}", i % 500).as_bytes(),
                &[1; 8],
                &mut run,
            );
        }
        let mut sink = GroupedKvs::new(&pool, meta).unwrap();
        // Warm-up: all 500 groups, the slot table at its final capacity,
        // the first chunk page open.
        sink.accept_run(meta, &run).unwrap();
        let pages = pool.stats().page_allocs;
        let keys: Vec<Vec<u8>> = (0..500).map(|i| format!("w{i:03}").into_bytes()).collect();

        // 20,500 more values of one width, stored bare at 8 B each: every
        // chain grows three more chunks (of 64, 128 and 256 B), all
        // carved from that 1 MiB page.
        let before = allocs();
        for _ in 0..10 {
            assert_eq!(sink.accept_run(meta, &run).unwrap(), 2000);
        }
        for key in &keys {
            sink.accept(key, &[2; 8]).unwrap();
        }
        let during = allocs() - before;
        assert_eq!(
            during, 0,
            "{meta:?}: grouping 20,500 arrivals allocated {during} times"
        );
        assert_eq!(pool.stats().page_allocs, pages, "{meta:?}: no page opened");

        let (kmvc, stats) = sink.into_kmv().unwrap();
        assert_eq!((kmvc.n_groups(), kmvc.n_values()), (500, 22_500));
        assert_eq!(stats.inserts, 22_500);
    }
}

/// The WordCount job's map with KV compression: `words(text)` feeding
/// [`CombinerTable::emit_into`]. Once every word of the text has a group
/// and the table has reached its size, another pass over the text —
/// scanning, hashing, probing and merging each word — allocates nothing,
/// and nothing reaches the downstream emitter because the table never
/// outgrows its budget.
#[test]
fn wordcount_map_into_the_compression_table_is_allocation_free() {
    use mimir_core::{CombinerTable, Emitter, KvMeta};
    struct Refuse;
    impl Emitter for Refuse {
        fn emit(&mut self, _k: &[u8], _v: &[u8]) -> mimir_core::Result<()> {
            panic!("the table must not flush");
        }
    }
    // Words of 1–40 bytes (inline and arena keys), across 64-byte block
    // edges, with every separator.
    let mut text = Vec::new();
    for i in 0..3000usize {
        let len = 1 + i * 7 % 40;
        text.extend((0..len).map(|j| b'a' + ((i % 200 + j) % 26) as u8));
        text.push(b" \t\n\x0C\r"[i % 5]);
    }
    let pool = MemPool::new("t", 64 * 1024, 1 << 30).unwrap();
    let combine: mimir_core::CombineFn = Box::new(|_k, a, b, out| {
        let s =
            u64::from_le_bytes(a.try_into().unwrap()) + u64::from_le_bytes(b.try_into().unwrap());
        out.extend_from_slice(&s.to_le_bytes());
    });
    let mut table = CombinerTable::new(&pool, KvMeta::cstr_key_u64_val(), combine).unwrap();
    let one = 1u64.to_le_bytes();
    let map = |table: &mut CombinerTable| -> u64 {
        let mut n = 0;
        for w in mimir_io::words(&text) {
            table.emit_into(w, &one, &mut Refuse).unwrap();
            n += 1;
        }
        n
    };
    let n = map(&mut table);
    let keys = table.unique_keys();

    let before = allocs();
    assert_eq!(map(&mut table), n);
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "a warm map pass of {n} words allocated {during} times"
    );
    assert_eq!((table.unique_keys(), table.kvs_in()), (keys, 2 * n));
}
