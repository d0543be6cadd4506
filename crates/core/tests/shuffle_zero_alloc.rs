//! Proof that the zero-copy data path stops allocating: a counting
//! global allocator shows a steady-state exchange round performs no heap
//! allocation in the emit, send, or drain paths, and the transport's
//! `send_allocs` counter shows multi-rank exchanges reuse pooled buffers
//! instead of allocating per message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mimir_core::{Emitter, KvContainer, KvMeta, Shuffler};
use mimir_mem::MemPool;
use mimir_mpi::run_world;

/// Wraps the system allocator with a per-thread allocation counter.
/// Thread-local so rank threads in `run_world` count independently; the
/// `const` initializer keeps TLS access safe inside the allocator (no
/// lazy init, no destructor registration on first use).
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

/// The strict proof: after warm-up, an emit burst that crosses an
/// exchange round — partition fill, done-vote, alltoallv, drain into the
/// container — performs zero heap allocations.
///
/// Single-rank world: the in-process channel transport itself allocates
/// per message batch (std mpsc block allocation), which is outside the
/// data path under test; at `p = 1` every byte still traverses the full
/// emit → partition → post → complete → `accept_run` → page-memcpy
/// pipeline with the transport's unavoidable noise removed. Pages are
/// sized so the measured round's drain lands in the current page's tail
/// (page acquisition is amortized, not per-round).
#[test]
fn steady_state_round_is_allocation_free() {
    run_world(1, |comm| {
        let pool = MemPool::unlimited("t", 256 * 1024);
        let meta = KvMeta::fixed(8, 8);
        let sink = KvContainer::new(&pool, meta);
        let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();

        // Warm-up: several exchange rounds allocate the container's first
        // page, the reusable range vector, and any lazy TLS state.
        for i in 0..512u64 {
            sh.emit(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }

        // Measured burst: 16 B per KV, 64 KVs fill the 1024 B partition
        // and force one full exchange round mid-burst.
        let before = allocs();
        for i in 0..65u64 {
            sh.emit(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let during = allocs() - before;
        assert_eq!(during, 0, "steady-state round allocated {during} times");

        let (_, stats) = sh.finish().unwrap();
        assert!(stats.rounds >= 9, "burst crossed an exchange round");
        // Wait-state attribution is always on (no recorder installed
        // here) and ran inside those allocation-free rounds; at one
        // rank nothing blocks, so the counters exist but stay zero.
        assert_eq!(stats.sync_wait_ns, 0, "no peers, no waiting");
    });
}

/// The batched emit the WordCount map uses: after warm-up, 32-KV
/// batches that cross exchange rounds mid-batch — under each hint
/// pair's own compiled copy of the placing loop — allocate nothing.
#[test]
fn steady_state_batches_are_allocation_free() {
    for meta in [
        KvMeta::fixed(8, 8),
        KvMeta::var(),
        KvMeta::cstr_key_u64_val(),
    ] {
        run_world(1, |comm| {
            let pool = MemPool::unlimited("t", 256 * 1024);
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            // NUL-free, so they are valid CStr keys too.
            let keys: Vec<[u8; 8]> = (0..64u64)
                .map(|i| (0x0101_0101_0101_0101 + i).to_le_bytes())
                .collect();
            let one = 1u64.to_le_bytes();
            let mut batch: [(&[u8], &[u8]); 32] = [(&[], &one); 32];
            let mut burst = |sh: &mut Shuffler<'_, KvContainer>| {
                for half in keys.chunks(32) {
                    for (slot, k) in batch.iter_mut().zip(half) {
                        slot.0 = k;
                    }
                    sh.emit_batch(&batch).unwrap();
                }
            };
            for _ in 0..8 {
                burst(&mut sh);
            }
            let before = allocs();
            burst(&mut sh);
            burst(&mut sh);
            let during = allocs() - before;
            assert_eq!(
                during, 0,
                "{meta:?}: batched rounds allocated {during} times"
            );
            let (_, stats) = sh.finish().unwrap();
            assert!(stats.rounds >= 10, "{meta:?}: the bursts crossed rounds");
            assert_eq!(stats.kvs_emitted, 10 * 64);
        });
    }
}

/// The same strict proof with full-flow tracing live: a recorder with
/// flow stamping enabled is installed, so every send allocates a flow id
/// and every message records `FlowSend`/`FlowRecv` into the ring — and
/// the measured round must still perform zero heap allocations (the ring
/// is preallocated; a flow id is one counter bump).
#[test]
fn steady_state_round_is_allocation_free_with_flow_tracing() {
    run_world(1, |comm| {
        let pool = MemPool::unlimited("t", 256 * 1024);
        let meta = KvMeta::fixed(8, 8);
        let sink = KvContainer::new(&pool, meta);
        mimir_obs::install(mimir_obs::Recorder::new(comm.rank(), 64 * 1024));
        let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();

        for i in 0..512u64 {
            sh.emit(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }

        let before = allocs();
        for i in 0..65u64 {
            sh.emit(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let during = allocs() - before;
        assert_eq!(
            during, 0,
            "flow-traced steady-state round allocated {during} times"
        );

        let (_, stats) = sh.finish().unwrap();
        assert!(stats.rounds >= 9, "burst crossed an exchange round");
        let rec = mimir_obs::take().expect("recorder still installed");
        // The ring really recorded through the measured burst (round
        // spans land on the same record() path flow events use). At one
        // rank no transport message ships, so the cross-rank flow pair
        // itself is proven in the multi-rank test below.
        assert!(
            rec.events()
                .iter()
                .any(|e| e.kind == mimir_obs::EventKind::RoundBegin),
            "recorder was live during the allocation-free rounds"
        );
    });
}

/// The multi-rank proof, via the transport's own counter: once the
/// per-`Comm` buffer pools are warm, further exchange rounds take every
/// send buffer from the pool (`send_allocs` stays flat), even across a
/// brand-new `Shuffler` on the same communicator — with full-flow
/// tracing live the whole time, so stamping flow ids on every message
/// demonstrably costs no steady-state send-buffer allocations either.
#[test]
fn warm_buffer_pools_serve_all_sends() {
    let deltas = run_world(4, |comm| {
        mimir_obs::install(mimir_obs::Recorder::new(comm.rank(), 256 * 1024));
        let pool = MemPool::unlimited("t", 64 * 1024);
        let meta = KvMeta::fixed(8, 8);

        let shuffle_pass = |comm: &mut mimir_mpi::Comm| -> u64 {
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 2048, sink).unwrap();
            let me = sh.rank() as u64;
            for i in 0..2000u64 {
                sh.emit(&(me * 10_000 + i).to_le_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            let (_, stats) = sh.finish().unwrap();
            assert!(stats.rounds > 10, "heavy enough to need many rounds");
            stats.sync_wait_ns + stats.data_wait_ns
        };

        shuffle_pass(comm); // warm-up: pools fill with circulating buffers
        let warm = comm.stats().send_allocs;
        let waited = shuffle_pass(comm); // steady state: pooled buffers only
        let rec = mimir_obs::take().expect("recorder installed");
        let flows = rec
            .events()
            .iter()
            .filter(|e| e.kind == mimir_obs::EventKind::FlowSend)
            .count();
        (comm.stats().send_allocs - warm, waited, flows)
    });
    let mut world_wait = 0;
    for (rank, (d, waited, flows)) in deltas.into_iter().enumerate() {
        assert_eq!(d, 0, "rank {rank} allocated {d} send buffers when warm");
        assert!(flows > 0, "rank {rank} stamped no flows despite tracing");
        world_wait += waited;
    }
    // Wait attribution is always on and ran through the allocation-free
    // steady state: with 4 ranks voting every round, somebody waited.
    assert!(world_wait > 0, "wait counters never advanced");
}
