//! Tests for the zero-copy transport path: `alltoallv_into`, the
//! post/complete split, and the pooled message buffers.

use std::ops::Range;

use mimir_datagen::rank_rng;
use mimir_mpi::{run_world, ReduceOp};

/// Deterministic partition content for (src, dst, round).
fn cell(seed: u64, src: usize, dst: usize, round: usize) -> Vec<u8> {
    let len = ((seed ^ ((src as u64) << 16) ^ ((dst as u64) << 8) ^ round as u64) % 73) as usize;
    vec![(src * 31 + dst * 7 + round) as u8; len]
}

/// `alltoallv_into` into a receive buffer sized exactly for the round
/// is a transpose: `ranges[src]` holds `cell(src, me)`.
#[test]
fn alltoallv_into_matches_the_allocating_variant() {
    for case in 0..16u64 {
        let mut rng = rank_rng(0x2E20_C0B1, case as usize);
        let n = rng.gen_range(1..6);
        let seed = rng.next_u64();
        let out = run_world(n, move |c| {
            let me = c.rank();
            let parts: Vec<Vec<u8>> = (0..n).map(|d| cell(seed, me, d, 0)).collect();
            let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let mut recv = vec![0u8; (0..n).map(|s| cell(seed, s, me, 0).len()).sum()];
            let ranges = c.alltoallv_into(&slices, &mut recv);
            (recv, ranges)
        });
        for (dst, (recv, ranges)) in out.iter().enumerate() {
            assert_eq!(ranges.len(), n);
            for (src, range) in ranges.iter().enumerate() {
                assert_eq!(
                    &recv[range.clone()],
                    &cell(seed, src, dst, 0),
                    "case {case} [{src}→{dst}]"
                );
            }
        }
    }
}

#[test]
fn post_complete_overlaps_with_an_allreduce() {
    // The overlap shape the shuffler uses: post sends, run the
    // done-allreduce, then complete the receives. Every rank keeps the
    // same collective order, so matching holds.
    let n = 4;
    let rounds = 5usize;
    let out = run_world(n, move |c| {
        let me = c.rank();
        let mut recv = vec![0u8; 4 * 73];
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let mut votes = Vec::new();
        for round in 0..rounds {
            let parts: Vec<Vec<u8>> = (0..n).map(|d| cell(7, me, d, round)).collect();
            let pending = c.alltoallv_post(parts.iter().map(Vec::as_slice), &mut recv);
            votes.push(c.allreduce_u64(ReduceOp::Sum, me as u64));
            c.alltoallv_complete(pending, &mut recv, &mut ranges);
            for (src, range) in ranges.iter().enumerate() {
                assert_eq!(&recv[range.clone()], &cell(7, src, me, round));
            }
        }
        votes
    });
    for votes in out {
        assert_eq!(votes, vec![6; rounds]);
    }
}

#[test]
fn steady_state_rounds_stop_allocating_send_buffers() {
    let n = 4;
    let out = run_world(n, move |c| {
        let me = c.rank();
        // Equal sizes: pooled buffers hit their high-water capacity in
        // round one, so the steady state is exact (uneven sizes may defer
        // one capacity growth past any fixed warm-up).
        let parts: Vec<Vec<u8>> = (0..n).map(|_| vec![me as u8; 64]).collect();
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let mut recv = vec![0u8; n * 128];
        // Warm-up: the pool fills with one buffer per peer and the pooled
        // buffers reach their high-water capacity.
        for _ in 0..3 {
            let _ = c.alltoallv_into(&slices, &mut recv);
        }
        let warm = c.stats().send_allocs;
        for _ in 0..20 {
            let _ = c.alltoallv_into(&slices, &mut recv);
        }
        (warm, c.stats().send_allocs)
    });
    for (rank, (warm, after)) in out.into_iter().enumerate() {
        assert_eq!(
            warm, after,
            "rank {rank}: send path allocated after warm-up ({warm} → {after})"
        );
    }
}

#[test]
fn bytes_copied_counts_both_directions() {
    // 2 ranks, each sends 10 B to the other and 5 B to itself.
    let out = run_world(2, |c| {
        let parts: Vec<Vec<u8>> = vec![
            vec![1u8; if c.rank() == 0 { 5 } else { 10 }],
            vec![2u8; if c.rank() == 0 { 10 } else { 5 }],
        ];
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let mut recv = [0u8; 32];
        let _ = c.alltoallv_into(&slices, &mut recv);
        c.stats()
    });
    // Each rank copies: own partition (5) + copy-in to pooled send buf
    // (10) + copy-out of the received remote partition (10).
    assert_eq!(out[0].bytes_copied, 25);
    assert_eq!(out[1].bytes_copied, 25);
}

#[test]
fn receive_overflow_panics_with_the_iii_b_bound() {
    let res = std::panic::catch_unwind(|| {
        run_world(2, |c| {
            let parts: Vec<Vec<u8>> = vec![vec![0u8; 8], vec![0u8; 8]];
            let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            // Receive buffer too small for own 8 B + remote 8 B.
            let mut recv = [0u8; 12];
            let _ = c.alltoallv_into(&slices, &mut recv);
        });
    });
    let payload = res.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("receive overflow"), "got: {msg}");
}

#[test]
fn allgather_handles_large_and_uneven_payloads() {
    // Non-power-of-two world, per-rank payload sizes spanning empty to
    // multi-KiB — exercises the Bruck framing.
    for n in [1usize, 2, 3, 5, 7] {
        let out = run_world(n, move |c| {
            let me = c.rank();
            c.allgather(vec![me as u8; me * 701])
        });
        for per_rank in &out {
            for (src, buf) in per_rank.iter().enumerate() {
                assert_eq!(buf, &vec![src as u8; src * 701], "n={n} src={src}");
            }
        }
    }
}

#[test]
fn allgather_sends_o_log_p_messages_per_rank() {
    // The point of the Bruck rewrite: 8 ranks take 3 message steps, not 7
    // payload clones. Count messages attributable to the allgather alone.
    let out = run_world(8, |c| {
        let before = c.stats().sends;
        let _ = c.allgather(vec![0u8; 1024]);
        c.stats().sends - before
    });
    for (rank, sent) in out.into_iter().enumerate() {
        assert_eq!(sent, 3, "rank {rank}: ⌈log₂ 8⌉ = 3 sends expected");
    }
}
