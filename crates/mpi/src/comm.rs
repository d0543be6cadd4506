use std::collections::VecDeque;
use std::time::Instant;

use mimir_obs::CommCounters;

use crate::error::DisconnectPanic;
use crate::msg::{tags, Msg, Payload, Tag};
use crate::transport::Transport;

/// Maximum number of idle message buffers kept in the per-rank pool.
///
/// The exchange steady state needs one in-flight buffer per peer in each
/// direction; buffers flow sender → receiver → receiver's pool, so after a
/// warm-up round every rank's pool oscillates around `size - 1` entries.
/// The cap only matters for bursty user point-to-point traffic.
const BUF_POOL_CAP: usize = 64;

/// A rank's endpoint into the world: point-to-point messaging plus the
/// collective operations (barrier, allreduce, alltoallv, …).
///
/// A `Comm` is owned by exactly one rank thread (it is `Send` but not
/// `Sync`, like an `MPI_Comm` used correctly). Receives are matched by
/// `(source, tag)`; messages that arrive ahead of the matching receive are
/// parked in a per-source pending queue, preserving FIFO order per pair.
///
/// Message delivery is delegated to a [`Transport`] backend: rank threads
/// over channel matrices in one process, or forked rank processes over
/// Unix-domain sockets. Everything in this type — tag matching, wait-state
/// attribution, flow stamping, pooled buffers — is backend-independent.
///
/// A rank holds exactly one `Comm`, the world's: there is no
/// communicator duplication or splitting, so every message a rank sends
/// or receives goes through this one value.
pub struct Comm {
    rank: usize,
    size: usize,
    /// The message-delivery backend for this rank.
    transport: Box<dyn Transport>,
    /// Messages received from each source but not yet matched by tag.
    pending: Vec<VecDeque<Msg>>,
    /// Idle message buffers, recycled between rounds so the steady-state
    /// exchange path performs no heap allocation (`send_allocs` counts the
    /// misses).
    free_bufs: Vec<Vec<u8>>,
    pub(crate) stats: CommCounters,
}

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, transport: Box<dyn Transport>) -> Self {
        Self {
            rank,
            size,
            transport,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            free_bufs: Vec::new(),
            stats: CommCounters::default(),
        }
    }

    /// This rank's index in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Communication counters accumulated by this rank so far, including
    /// the backend's extras (handshake time, receive-pool misses).
    pub fn stats(&self) -> CommCounters {
        let mut stats = self.stats;
        stats.merge(&self.transport.extra_stats());
        stats
    }

    /// [`CommCounters::wait_ns`] so far, without merging the transport's
    /// extras (none of which are wait time): what a caller timing one
    /// blocking call differences.
    #[inline]
    pub fn wait_ns(&self) -> u64 {
        self.stats.wait_ns
    }

    /// Sends `data` to `dst` with `tag`, taking ownership of the buffer
    /// (no copy).
    ///
    /// Sends never block: the transport is unbounded, modeling an eager
    /// protocol (on the socket backend, bytes the kernel does not take
    /// at once wait in the peer's outbox and go out during this rank's
    /// later sends and receives). Flow control in the reproduction comes
    /// from Mimir's own fixed-size communication buffers, exactly as in
    /// the paper.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` is in the reserved
    /// collective range, or (with a disconnect payload) if `dst` has
    /// exited.
    pub fn send_vec(&mut self, dst: usize, tag: Tag, data: Vec<u8>) {
        assert!(
            tag <= tags::USER_MAX,
            "tag {tag:#x} is reserved for collectives"
        );
        self.send_internal(dst, tag, data);
    }

    /// Copying variant of [`Self::send_vec`]. The copy lands in a pooled
    /// buffer, so repeated sends reuse a stable set of allocations.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        assert!(
            tag <= tags::USER_MAX,
            "tag {tag:#x} is reserved for collectives"
        );
        self.send_copy_pooled(dst, tag, data);
    }

    /// Receives the next message from `src` carrying `tag`, blocking until
    /// one arrives.
    ///
    /// # Panics
    /// Panics if `src` is out of range or `tag` is reserved, or (with a
    /// disconnect payload) if `src` exited before sending a matching
    /// message.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        assert!(
            tag <= tags::USER_MAX,
            "tag {tag:#x} is reserved for collectives"
        );
        self.recv_internal(src, tag)
    }

    /// Takes an idle buffer from the pool (cleared, arbitrary capacity) or
    /// allocates a fresh one, counting the miss in `send_allocs`.
    pub(crate) fn take_buf(&mut self) -> Vec<u8> {
        match self.free_bufs.pop() {
            Some(buf) => buf,
            None => {
                self.stats.send_allocs += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool for reuse (dropped if the pool is
    /// full).
    pub(crate) fn recycle_buf(&mut self, mut buf: Vec<u8>) {
        if self.free_bufs.len() < BUF_POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.free_bufs.push(buf);
        }
    }

    /// Copies `data` into a pooled buffer and sends it. A growth of the
    /// pooled buffer's capacity counts as a `send_alloc` (steady state
    /// reaches a high-water capacity and stops).
    pub(crate) fn send_copy_pooled(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        let mut buf = self.take_buf();
        if buf.capacity() < data.len() {
            self.stats.send_allocs += 1;
        }
        let copy_start = Instant::now();
        buf.extend_from_slice(data);
        self.stats.work_ns += copy_start.elapsed().as_nanos() as u64;
        self.stats.bytes_copied += data.len() as u64;
        self.send_internal(dst, tag, buf);
    }

    pub(crate) fn send_internal(&mut self, dst: usize, tag: Tag, data: Vec<u8>) {
        self.send_msg(
            dst,
            Msg {
                tag,
                data: Payload::Heap(data),
                flow: 0,
            },
        );
    }

    /// Sends a single `u64` carried inline — no heap allocation.
    pub(crate) fn send_u64_internal(&mut self, dst: usize, tag: Tag, value: u64) {
        self.send_msg(
            dst,
            Msg {
                tag,
                data: Payload::Small(value),
                flow: 0,
            },
        );
    }

    fn send_msg(&mut self, dst: usize, mut msg: Msg) {
        assert!(
            dst < self.size,
            "send to rank {dst} in a world of {}",
            self.size
        );
        self.stats.sends += 1;
        self.stats.bytes_sent += msg.data.len() as u64;
        // Causal stamp: every message (user and collective-internal
        // alike) carries its sender's flow id.
        // With tracing off this is one thread-local probe returning the
        // sentinel 0, and flow_send is then a no-op.
        msg.flow = mimir_obs::next_flow_id();
        mimir_obs::flow_send(msg.flow, dst as u64, msg.data.len() as u64);
        if let Err(err) = self.transport.send(dst, msg, &mut self.stats) {
            // resume_unwind skips the panic hook: the cascade teardown is
            // expected noise; the root-cause rank's own panic already
            // printed.
            std::panic::resume_unwind(Box::new(DisconnectPanic(err)));
        }
    }

    pub(crate) fn recv_internal(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        self.recv_msg(src, tag).into_vec()
    }

    /// Receives a message sent with [`Self::send_u64_internal`].
    pub(crate) fn recv_u64_internal(&mut self, src: usize, tag: Tag) -> u64 {
        match self.recv_msg(src, tag) {
            Payload::Small(v) => v,
            Payload::Heap(bytes) => {
                u64::from_le_bytes(bytes.try_into().expect("8-byte u64 payload"))
            }
        }
    }

    fn recv_msg(&mut self, src: usize, tag: Tag) -> Payload {
        assert!(
            src < self.size,
            "recv from rank {src} in a world of {}",
            self.size
        );
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
            let msg = self.pending[src].remove(pos).expect("position just found");
            self.stats.recvs += 1;
            self.stats.bytes_recvd += msg.data.len() as u64;
            mimir_obs::flow_recv(msg.flow, msg.data.len() as u64);
            return msg.data;
        }
        // Everything below blocks on a peer: this loop is the single
        // funnel for every blocking point in the transport (recv and all
        // collective-internal receives), so timing it here gives complete
        // wait-state attribution with one clock read per matched message.
        let wait_start = Instant::now();
        let data = loop {
            match self.transport.recv(src, &mut self.stats) {
                Ok(msg) if msg.tag == tag => {
                    self.stats.recvs += 1;
                    self.stats.bytes_recvd += msg.data.len() as u64;
                    mimir_obs::flow_recv(msg.flow, msg.data.len() as u64);
                    break msg.data;
                }
                Ok(msg) => self.pending[src].push_back(msg),
                Err(err) => std::panic::resume_unwind(Box::new(DisconnectPanic(err))),
            }
        };
        self.stats.wait_ns += wait_start.elapsed().as_nanos() as u64;
        data
    }

    pub(crate) fn count_collective(&mut self) {
        self.stats.collectives += 1;
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}
