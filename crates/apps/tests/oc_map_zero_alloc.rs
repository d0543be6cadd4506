//! Proof that the octree level map does not allocate: with a counting
//! global allocator installed, `map_level` over 2^16 points into a null
//! emitter performs no heap allocation at any depth, with every point's
//! parent octant active so that every point quantises, probes and emits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;

use mimir_apps::octree::{map_level, octant_path, pack, MAX_DEPTH};
use mimir_datagen::PointGen;

/// Wraps the system allocator with a per-thread allocation counter, so
/// the test harness's other threads do not count.
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

#[test]
fn level_map_is_allocation_free_at_every_depth() {
    let points = PointGen::new(9).generate(0, 1, 1 << 16);
    for level in 1..=MAX_DEPTH {
        let mut active: Vec<u64> = points
            .iter()
            .map(|&p| pack(&octant_path(p, level - 1)))
            .collect();
        active.sort_unstable();
        active.dedup();

        let mut emitted = 0u64;
        let before = allocs();
        map_level(&points, level, &active, |_key| {
            emitted += 1;
            Ok::<_, Infallible>(())
        })
        .unwrap();
        let during = allocs() - before;

        assert_eq!(emitted, points.len() as u64, "level {level}");
        assert_eq!(during, 0, "level {level}: {during} allocations");
    }
}
