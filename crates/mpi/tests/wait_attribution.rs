//! Wait-state attribution proven by construction: when one rank is
//! artificially delayed before a synchronization point, every *other*
//! rank's `wait_ns` must absorb (at least) the injected delay, while
//! their `work_ns` — transport memcpy time — stays flat. This is the
//! property that lets the diagnosis layer tell a straggler-bound
//! shuffle from a byte-bound one.

use std::time::Duration;

use mimir_mpi::{run_world, ReduceOp};

const RANKS: usize = 4;
const DELAY: Duration = Duration::from_millis(60);

/// The delayed rank sleeps before the barrier; its peers enter the
/// barrier immediately and block until it arrives.
#[test]
fn barrier_wait_absorbs_an_injected_delay() {
    let stats = run_world(RANKS, |comm| {
        let before = comm.stats();
        if comm.rank() == 0 {
            std::thread::sleep(DELAY);
        }
        comm.barrier();
        let after = comm.stats();
        (
            after.wait_ns - before.wait_ns,
            after.work_ns - before.work_ns,
        )
    });

    // Tolerance: scheduling jitter can shave a little off the observed
    // wait; 80% of the injected delay is well clear of noise.
    let floor = (DELAY.as_nanos() as u64 * 8) / 10;
    for (rank, &(wait, work)) in stats.iter().enumerate() {
        if rank == 0 {
            // The sleeper itself never waits for anyone at the barrier
            // beyond message latency.
            assert!(
                wait < floor,
                "delayed rank blocked for {wait} ns — it should be the one being waited on"
            );
        } else {
            assert!(
                wait >= floor,
                "rank {rank} waited only {wait} ns for a {DELAY:?} delay"
            );
        }
        // A barrier moves zero payload bytes: work time must stay flat
        // on every rank regardless of the delay.
        assert!(
            work < DELAY.as_nanos() as u64 / 10,
            "rank {rank} charged {work} ns of memcpy work to an empty barrier"
        );
    }
}

/// Allreduce funnels through the same blocking loop; the delay shows up
/// in the peers' wait time there too, proving the single-funnel claim.
#[test]
fn allreduce_wait_absorbs_an_injected_delay() {
    let stats = run_world(RANKS, |comm| {
        let before = comm.wait_ns();
        if comm.rank() == 1 {
            std::thread::sleep(DELAY);
        }
        let sum = comm.allreduce_u64(ReduceOp::Sum, comm.rank() as u64);
        assert_eq!(sum, (RANKS * (RANKS - 1) / 2) as u64);
        assert_eq!(
            comm.wait_ns(),
            comm.stats().wait_ns,
            "one counter, two reads"
        );
        comm.wait_ns() - before
    });

    let floor = (DELAY.as_nanos() as u64 * 8) / 10;
    let waited = stats
        .iter()
        .enumerate()
        .filter(|&(rank, &w)| rank != 1 && w >= floor)
        .count();
    // Every non-delayed rank sits somewhere on the reduce/bcast tree
    // below the value that rank 1 contributes late, so all of them wait.
    assert_eq!(
        waited,
        RANKS - 1,
        "all non-delayed ranks should block on the allreduce: {stats:?}"
    );
}

/// Uncontended traffic must not fabricate wait time: a rank receiving a
/// message that is already queued observes (near-)zero blocking.
#[test]
fn pre_posted_messages_cost_no_wait() {
    let waits = run_world(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, b"payload");
            comm.barrier();
            0
        } else {
            // The barrier guarantees nothing about delivery order here —
            // the eager transport enqueued the message at send time, so
            // after the barrier it is certainly in our channel.
            comm.barrier();
            let before = comm.stats().wait_ns;
            let got = comm.recv(0, 7);
            assert_eq!(got, b"payload");
            comm.stats().wait_ns - before
        }
    });
    assert!(
        waits[1] < Duration::from_millis(10).as_nanos() as u64,
        "recv of an already-delivered message waited {} ns",
        waits[1]
    );
}
