use std::collections::VecDeque;
use std::time::Instant;

use crate::error::DisconnectPanic;
use crate::msg::{tags, Msg, Payload, Tag};
use crate::transport::{Endpoint, Transport};
use crate::CommStats;

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
/// attribution, flow stamping, pooled buffers, the derivation handshake —
/// is backend-independent.
pub struct Comm {
    name: String,
    rank: usize,
    size: usize,
    /// Number of derived communicators ([`Comm::dup`] / [`Comm::split`])
    /// created from this one so far. All ranks execute the same derivation
    /// sequence (dup/split are collective), so the counter doubles as a
    /// cross-rank sequence number for the consistency handshake.
    derived: u64,
    /// The message-delivery backend for this communicator.
    transport: Box<dyn Transport>,
    /// Messages received from each source but not yet matched by tag.
    pending: Vec<VecDeque<Msg>>,
    /// Idle message buffers, recycled between rounds so the steady-state
    /// exchange path performs no heap allocation (`send_allocs` counts the
    /// misses). Each communicator owns its own free-list: concurrent jobs
    /// on dup'd communicators never contend for (or poison) each other's
    /// pooled buffers.
    free_bufs: Vec<Vec<u8>>,
    pub(crate) stats: CommStats,
}

impl Comm {
    pub(crate) fn new(
        name: String,
        rank: usize,
        size: usize,
        transport: Box<dyn Transport>,
    ) -> Self {
        Self {
            name,
            rank,
            size,
            derived: 0,
            transport,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            free_bufs: Vec::new(),
            stats: CommStats::default(),
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

    /// This communicator's name — `"world"` for the root communicator of
    /// [`crate::run_world`], with a `.dupN` / `.splitN.cC` / custom-label
    /// suffix appended per derivation. Spill directories and trace lanes
    /// use it to attribute resources to the communicator that owns them.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Communication counters accumulated by this rank so far, including
    /// the backend's process-level extras (handshake time, receive-pool
    /// misses) when this is a world communicator.
    pub fn stats(&self) -> CommStats {
        let mut stats = self.stats;
        stats.merge(&self.transport.extra_stats());
        stats
    }

    /// [`CommStats::wait_ns`] so far, without merging the transport's
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
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += msg.data.len() as u64;
        // Causal stamp: every message (user, collective-internal, and
        // derivation control plane alike) carries its sender's flow id.
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
            Payload::Endpoint(_) => unreachable!("endpoint payload on a value tag"),
        }
    }

    /// Ships a derivation endpoint to `dst` (communicator-derivation
    /// control plane only).
    fn send_endpoint_internal(&mut self, dst: usize, tag: Tag, ep: Endpoint) {
        self.send_msg(
            dst,
            Msg {
                tag,
                data: Payload::Endpoint(ep),
                flow: 0,
            },
        );
    }

    /// Receives an endpoint shipped with [`Self::send_endpoint_internal`].
    fn recv_endpoint_internal(&mut self, src: usize, tag: Tag) -> Endpoint {
        match self.recv_msg(src, tag) {
            Payload::Endpoint(ep) => ep,
            other => unreachable!("expected endpoint payload, got {} bytes", other.len()),
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
            self.stats.msgs_recvd += 1;
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
                    self.stats.msgs_recvd += 1;
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

/// Derivation-handshake opcode for [`Comm::dup`] (top byte of the token).
const DERIVE_DUP: u64 = 1;
/// Derivation-handshake opcode for [`Comm::split`].
const DERIVE_SPLIT: u64 = 2;
/// Low bits of the handshake token carrying the derivation sequence number.
const DERIVE_SEQ_MASK: u64 = 0x00FF_FFFF_FFFF_FFFF;

impl Comm {
    /// Duplicates this communicator (collective).
    ///
    /// Every rank receives a new communicator spanning the same group with
    /// the same rank numbering but a *private message namespace*: traffic
    /// on the duplicate can never match traffic on the parent or on any
    /// other duplicate, whatever tags either side uses. (On the in-process
    /// backend the namespace is a private channel matrix; on the socket
    /// backend it is a fresh communicator id multiplexed over the existing
    /// connections.) Two jobs, each on its own duplicate, can therefore
    /// interleave their `alltoallv` rounds on the same ranks (even from
    /// different threads — the duplicate is `Send` and fully independent).
    ///
    /// The duplicate starts with an empty pooled-buffer free-list, so
    /// concurrent owners never contend for recycled buffers.
    ///
    /// # Panics
    /// Panics if ranks disagree on the derivation sequence (one rank calls
    /// `dup` while another calls `split`, or their derivation counts have
    /// diverged) — the collective-consistency assert.
    pub fn dup(&mut self) -> Comm {
        let seq = self.begin_derivation(DERIVE_DUP);
        let name = format!("{}.dup{seq}", self.name);
        let members: Vec<usize> = (0..self.size).collect();
        self.derive_transport(name, seq, &members, self.rank, tags::DUP)
    }

    /// Partitions this communicator into disjoint sub-communicators
    /// (collective): ranks passing the same `Some(color)` form one group,
    /// ordered by `(key, parent rank)`; ranks passing `None` participate
    /// in the exchange but receive no communicator (MPI's
    /// `MPI_UNDEFINED`).
    ///
    /// # Panics
    /// Panics on a derivation-sequence mismatch, like [`Comm::dup`].
    pub fn split(&mut self, color: Option<u64>, key: u64) -> Option<Comm> {
        let seq = self.begin_derivation(DERIVE_SPLIT);
        // Membership exchange: every rank contributes (present, color, key)
        // so the group roster is known identically everywhere.
        let mut payload = [0u8; 17];
        payload[0] = u8::from(color.is_some());
        payload[1..9].copy_from_slice(&color.unwrap_or(0).to_le_bytes());
        payload[9..17].copy_from_slice(&key.to_le_bytes());
        let all = self.allgather(payload.to_vec());
        let my_color = color?;
        let mut members: Vec<(u64, usize)> = Vec::new();
        for (old_rank, buf) in all.iter().enumerate() {
            let present = buf[0] != 0;
            let c = u64::from_le_bytes(buf[1..9].try_into().expect("color bytes"));
            let k = u64::from_le_bytes(buf[9..17].try_into().expect("key bytes"));
            if present && c == my_color {
                members.push((k, old_rank));
            }
        }
        members.sort_unstable();
        let new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("caller belongs to its own color group");
        let name = format!("{}.split{seq}.c{my_color}", self.name);
        let members: Vec<usize> = members.into_iter().map(|(_, r)| r).collect();
        Some(self.derive_transport(name, seq, &members, new_rank, tags::SPLIT))
    }

    /// Collective entry gate for `dup`/`split`: allgathers a token packing
    /// (opcode, per-comm derivation sequence) and asserts every rank sent
    /// the same one. Catching the divergence here — rather than hanging in
    /// some later mismatched collective — is what makes concurrent-job
    /// bugs debuggable.
    fn begin_derivation(&mut self, opcode: u64) -> u64 {
        let seq = self.derived;
        self.derived += 1;
        let token = (opcode << 56) | (seq & DERIVE_SEQ_MASK);
        let tokens = self.allgather_u64(token);
        for (r, &t) in tokens.iter().enumerate() {
            assert!(
                t == token,
                "collective-consistency violation on \"{}\": rank {} entered \
                 derivation token {token:#x} but rank {r} entered {t:#x} \
                 (mixed dup/split calls or diverged derivation counts)",
                self.name,
                self.rank,
            );
        }
        seq
    }

    /// The single derivation code path behind `dup` and `split`, shared by
    /// every backend: the transport creates its receive side and one
    /// [`Endpoint`] per peer; this rank ships each endpoint to the rank
    /// that will use it over the parent's reserved `tag` (DUP or SPLIT, so
    /// user traffic can't interleave), then installs the endpoints it
    /// receives in turn. Sends are eager, so posting all sends before any
    /// receive cannot deadlock.
    ///
    /// `members[new_rank]` is the parent rank sitting at `new_rank` in the
    /// derived communicator; identical on every member by construction
    /// (dup: trivially; split: from the sorted membership exchange).
    fn derive_transport(
        &mut self,
        name: String,
        seq: u64,
        members: &[usize],
        my_new_rank: usize,
        tag: Tag,
    ) -> Comm {
        let (mut derivation, endpoints) = self.transport.begin_derive(seq, members, my_new_rank);
        for (new_rank, ep) in endpoints.into_iter().enumerate() {
            if let Some(ep) = ep {
                debug_assert_ne!(new_rank, my_new_rank);
                self.send_endpoint_internal(members[new_rank], tag, ep);
            }
        }
        for (new_rank, &old_rank) in members.iter().enumerate() {
            if new_rank != my_new_rank {
                let ep = self.recv_endpoint_internal(old_rank, tag);
                self.transport
                    .accept_endpoint(&mut derivation, new_rank, ep);
            }
        }
        let transport = self.transport.finish_derive(derivation);
        Comm::new(name, my_new_rank, members.len(), transport)
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}
