//! Collective operations over the rank world.
//!
//! All collectives follow MPI's matching rule: every rank must call the
//! same sequence of collectives. Internally they use reserved tags and the
//! binomial-tree communication patterns of MPICH's small-message paths,
//! giving `O(log p)` depth for reductions and broadcasts. `alltoallv` is
//! the direct (pairwise-send) algorithm, which is also what MPICH uses for
//! the message sizes Mimir's 64 MB communication buffers produce.
//! `allgather` uses the Bruck dissemination algorithm (`⌈log₂ p⌉` message
//! steps per rank instead of `p − 1` payload clones).

use std::ops::Range;
use std::time::Instant;

use crate::msg::tags;
use crate::{Comm, ReduceOp};

/// An in-flight `alltoallv` round posted with [`Comm::alltoallv_post`] and
/// finished with [`Comm::alltoallv_complete`].
///
/// Holding this token between the two calls is what lets a caller overlap
/// the exchange with other work (e.g. Mimir's done-allreduce): the sends
/// are already on the wire, only the receives remain.
#[derive(Debug, Clone, Copy)]
#[must_use = "an alltoallv_post must be finished with alltoallv_complete"]
pub struct PendingAlltoallv {
    /// Bytes of this rank's own partition, already copied to the start of
    /// the receive buffer at post time.
    self_len: usize,
}

impl Comm {
    /// Blocks until every rank has entered the barrier.
    pub fn barrier(&mut self) {
        self.count_collective();
        // An allreduce of nothing is a barrier: reduce+bcast a dummy
        // value over the binomial tree.
        self.reduce_bcast_u64(ReduceOp::Sum, 0, tags::BARRIER);
    }

    /// Reduces `value` across all ranks with `op`; every rank receives the
    /// result.
    pub fn allreduce_u64(&mut self, op: ReduceOp, value: u64) -> u64 {
        self.count_collective();
        self.reduce_bcast_u64(op, value, tags::REDUCE)
    }

    /// Gathers each rank's buffer at `root`, indexed by source rank.
    /// Returns `Some(buffers)` at the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        assert!(root < self.size(), "gather root {root} out of range");
        self.count_collective();
        if self.rank() == root {
            let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    out.push(data.clone());
                } else {
                    out.push(self.recv_internal(src, tags::GATHER));
                }
            }
            Some(out)
        } else {
            self.send_internal(root, tags::GATHER, data);
            None
        }
    }

    /// Every rank receives every rank's buffer, indexed by source rank.
    ///
    /// Bruck dissemination: `⌈log₂ p⌉` steps; at step `d` each rank ships
    /// its first `min(d, p − d)` known blocks (length-framed into one
    /// pooled message) to rank `(r − d) mod p` and learns as many from
    /// rank `(r + d) mod p`. The payload is copied once per edge it
    /// crosses instead of cloned `p − 1` times at the source.
    pub fn allgather(&mut self, data: Vec<u8>) -> Vec<Vec<u8>> {
        self.count_collective();
        let p = self.size();
        let me = self.rank();
        // blocks[i] holds the payload of rank (me + i) % p.
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(p);
        blocks.push(data);
        let mut d = 1;
        while d < p {
            let count = d.min(p - d);
            let mut msg = self.take_buf();
            for b in &blocks[..count] {
                msg.extend_from_slice(&(b.len() as u32).to_le_bytes());
                msg.extend_from_slice(b);
            }
            self.send_internal((me + p - d) % p, tags::ALLGATHER, msg);
            let got = self.recv_internal((me + d) % p, tags::ALLGATHER);
            let mut off = 0;
            for _ in 0..count {
                let len = u32::from_le_bytes(got[off..off + 4].try_into().expect("frame header"))
                    as usize;
                off += 4;
                blocks.push(got[off..off + len].to_vec());
                off += len;
            }
            debug_assert_eq!(off, got.len(), "allgather frame exactly consumed");
            self.recycle_buf(got);
            d <<= 1;
        }
        // Un-rotate: out[src] = blocks[(src - me) mod p].
        let mut out: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        for (i, b) in blocks.into_iter().enumerate() {
            out[(me + i) % p] = b;
        }
        out
    }

    /// Convenience allgather of one `u64` per rank.
    pub fn allgather_u64(&mut self, value: u64) -> Vec<u64> {
        self.allgather(value.to_le_bytes().to_vec())
            .into_iter()
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte allgather payload")))
            .collect()
    }

    /// Zero-copy `alltoallv`: sends each partition slice directly (via
    /// pooled transport buffers) and copies received data into the
    /// caller-owned `recv` buffer. Returns one `recv` sub-range per source
    /// rank (this rank's own partition lands at the front).
    ///
    /// `recv` must be large enough for the incoming total; under Mimir's
    /// partitioned-send-buffer protocol (Section III-B) every sender
    /// contributes at most one send-partition's worth, so a receive buffer
    /// of one send-buffer size always suffices — violations panic.
    ///
    /// # Panics
    /// Panics if `parts.len() != size()` or the received bytes overflow
    /// `recv`.
    pub fn alltoallv_into(&mut self, parts: &[&[u8]], recv: &mut [u8]) -> Vec<Range<usize>> {
        let mut ranges = Vec::with_capacity(parts.len());
        let pending = self.alltoallv_post(parts.iter().copied(), recv);
        self.alltoallv_complete(pending, recv, &mut ranges);
        ranges
    }

    /// Posts the send half of a zero-copy `alltoallv`: this rank's own
    /// partition is copied to the front of `recv` and every remote
    /// partition is shipped from its slice via a pooled buffer
    /// (nonblocking — the eager transport never waits on a send).
    ///
    /// The caller may do unrelated work (e.g. run another collective)
    /// before calling [`Self::alltoallv_complete`]; every rank must keep
    /// the same global call order for the matching rule to hold.
    ///
    /// # Panics
    /// Panics if `parts.len() != size()` or this rank's own partition does
    /// not fit in `recv`.
    pub fn alltoallv_post<'s>(
        &mut self,
        parts: impl ExactSizeIterator<Item = &'s [u8]>,
        recv: &mut [u8],
    ) -> PendingAlltoallv {
        assert_eq!(
            parts.len(),
            self.size(),
            "alltoallv needs exactly one buffer per rank"
        );
        self.count_collective();
        let me = self.rank();
        let mut self_len = 0;
        for (dst, part) in parts.enumerate() {
            if dst == me {
                assert!(
                    part.len() <= recv.len(),
                    "alltoallv own partition ({} B) overflows receive buffer ({} B)",
                    part.len(),
                    recv.len()
                );
                let copy_start = Instant::now();
                recv[..part.len()].copy_from_slice(part);
                self.stats.work_ns += copy_start.elapsed().as_nanos() as u64;
                self.stats.bytes_copied += part.len() as u64;
                self_len = part.len();
            } else {
                self.send_copy_pooled(dst, tags::ALLTOALLV, part);
            }
        }
        PendingAlltoallv { self_len }
    }

    /// Completes a zero-copy `alltoallv`: receives every remote partition
    /// into `recv` (after this rank's own bytes) and fills `ranges` with
    /// one `recv` sub-range per source rank. `ranges` is cleared first and
    /// reused, so a caller holding it across rounds allocates nothing.
    ///
    /// # Panics
    /// Panics if the received bytes overflow `recv` — i.e. a sender broke
    /// the Section III-B "at most one send-partition per receiver" bound.
    pub fn alltoallv_complete(
        &mut self,
        pending: PendingAlltoallv,
        recv: &mut [u8],
        ranges: &mut Vec<Range<usize>>,
    ) {
        ranges.clear();
        let me = self.rank();
        let mut off = pending.self_len;
        for src in 0..self.size() {
            if src == me {
                ranges.push(0..pending.self_len);
                continue;
            }
            let buf = self.recv_internal(src, tags::ALLTOALLV);
            let end = off + buf.len();
            assert!(
                end <= recv.len(),
                "alltoallv receive overflow: {} B from {} sources exceeds the \
                 {} B receive buffer (Section III-B bound violated)",
                end,
                src + 1,
                recv.len()
            );
            let copy_start = Instant::now();
            recv[off..end].copy_from_slice(&buf);
            self.stats.work_ns += copy_start.elapsed().as_nanos() as u64;
            self.stats.bytes_copied += buf.len() as u64;
            self.recycle_buf(buf);
            ranges.push(off..end);
            off = end;
        }
    }

    fn reduce_bcast_u64(&mut self, op: ReduceOp, value: u64, tag: u32) -> u64 {
        let reduced = self.binomial_reduce(op, value, tag);
        self.binomial_bcast_u64(reduced, tag)
    }

    /// Binomial-tree reduction to rank 0; only rank 0's return value is
    /// meaningful. Hops carry the value inline — no allocation.
    fn binomial_reduce(&mut self, op: ReduceOp, value: u64, tag: u32) -> u64 {
        let rank = self.rank();
        let size = self.size();
        let mut acc = value;
        let mut mask = 1usize;
        while mask < size {
            if rank & mask == 0 {
                let src = rank | mask;
                if src < size {
                    let other = self.recv_u64_internal(src, tag);
                    acc = op.apply(acc, other);
                }
            } else {
                let dst = rank & !mask;
                self.send_u64_internal(dst, tag, acc);
                break;
            }
            mask <<= 1;
        }
        acc
    }

    /// Binomial-tree broadcast of a `u64` from rank 0, carried inline.
    fn binomial_bcast_u64(&mut self, value: u64, tag: u32) -> u64 {
        let (rank, size) = (self.rank(), self.size());
        let mut mask = 1usize;
        let mut payload = value;
        while mask < size {
            if rank & mask != 0 {
                payload = self.recv_u64_internal(rank - mask, tag);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rank + mask < size {
                self.send_u64_internal(rank + mask, tag, payload);
            }
            mask >>= 1;
        }
        payload
    }
}
