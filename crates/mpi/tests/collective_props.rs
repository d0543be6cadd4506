//! Randomized tests for the collective operations: results must match
//! single-threaded reference computations for arbitrary inputs, world
//! sizes, and operation sequences. Driven by a seeded PRNG so failures
//! replay deterministically.

use mimir_datagen::rank_rng;
use mimir_mpi::{run_world, ReduceOp};

#[test]
fn allreduce_matches_reference() {
    for case in 0..24u64 {
        let mut rng = rank_rng(0xA11_12ED, case as usize);
        let values: Vec<u64> = (0..1 + rng.gen_range(0..8))
            .map(|_| rng.next_u64())
            .collect();
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::LAnd][rng.gen_range(0..4)];
        let n = values.len();
        let expected = values[1..]
            .iter()
            .fold(values[0], |acc, &v| op.apply_for_test(acc, v));
        let vals = values.clone();
        let out = run_world(n, move |c| c.allreduce_u64(op, vals[c.rank()]));
        assert!(out.iter().all(|&v| v == expected), "case {case} ({op:?})");
    }
}

#[test]
fn alltoallv_is_a_matrix_transpose() {
    for case in 0..24u64 {
        let mut rng = rank_rng(0xA2A, case as usize);
        let n = rng.gen_range(1..6);
        let seed = rng.next_u64();
        // parts[src][dst] deterministic from (src, dst, seed).
        let cell = move |src: usize, dst: usize| -> Vec<u8> {
            let len = ((seed ^ (src as u64) << 8 ^ dst as u64) % 50) as usize;
            vec![(src * 16 + dst) as u8; len]
        };
        let out = run_world(n, move |c| {
            let me = c.rank();
            let parts: Vec<Vec<u8>> = (0..n).map(|d| cell(me, d)).collect();
            let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let mut recv = vec![0u8; 50 * n];
            let ranges = c.alltoallv_into(&slices, &mut recv);
            let got: Vec<Vec<u8>> = ranges.into_iter().map(|r| recv[r].to_vec()).collect();
            got
        });
        for (dst, received) in out.iter().enumerate() {
            assert_eq!(received.len(), n, "case {case}: one range per source");
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &cell(src, dst), "case {case} [{src}→{dst}]");
            }
        }
    }
}

#[test]
fn gather_roundtrip() {
    for case in 0..24u64 {
        let mut rng = rank_rng(0x6A7, case as usize);
        let n = rng.gen_range(1..6);
        let root = rng.gen_range(0..n);
        let len = rng.gen_range(0..64);
        let out = run_world(n, move |c| {
            // Root gathers every rank's payload, indexed by source.
            c.gather(root, vec![c.rank() as u8; len + c.rank()])
        });
        for (rank, got) in out.into_iter().enumerate() {
            if rank != root {
                assert!(got.is_none(), "case {case}: only the root gathers");
                continue;
            }
            let got = got.expect("root gathers");
            assert_eq!(got.len(), n, "case {case}");
            for (src, b) in got.iter().enumerate() {
                assert_eq!(b, &vec![src as u8; len + src], "case {case} [{src}]");
            }
        }
    }
}

#[test]
fn mixed_collective_sequences_stay_matched() {
    for case in 0..24u64 {
        let mut rng = rank_rng(0x005C_2147, case as usize);
        let n = rng.gen_range(2..5);
        let script: Vec<u8> = (0..1 + rng.gen_range(0..11))
            .map(|_| rng.gen_range(0..4) as u8)
            .collect();
        // Every rank runs the same random script of collectives; if
        // matching broke, this would deadlock or corrupt results.
        let s2 = script.clone();
        let out = run_world(n, move |c| {
            let mut acc = 0u64;
            for (i, step) in s2.iter().enumerate() {
                match step {
                    0 => acc ^= c.allreduce_u64(ReduceOp::Sum, c.rank() as u64 + i as u64),
                    1 => c.barrier(),
                    2 => {
                        let g = c.allgather_u64(acc);
                        acc ^= g.iter().sum::<u64>();
                    }
                    _ => {
                        let mut recv = vec![0u8; n];
                        let r = c.alltoallv_into(&vec![&[acc as u8][..]; n], &mut recv);
                        acc ^= r.iter().map(|r| u64::from(recv[r.start])).sum::<u64>();
                    }
                }
            }
            acc
        });
        // At minimum the world terminated and produced n results.
        assert_eq!(out.len(), n, "case {case}");
    }
}

/// Test-only re-exposure of the reduction semantics.
trait ApplyForTest {
    fn apply_for_test(self, a: u64, b: u64) -> u64;
}

impl ApplyForTest for ReduceOp {
    fn apply_for_test(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::LAnd => u64::from(a != 0 && b != 0),
        }
    }
}
