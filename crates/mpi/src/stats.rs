mimir_obs::counters! {
    /// Per-rank communication counters.
    ///
    /// The paper's KV-hint discussion (Section III-C3) notes that shrinking the
    /// KV encoding "also reduces the amount of data that needs to be
    /// communicated during the aggregate phase"; these counters let the bench
    /// harness report exactly that. `bytes_copied` and `send_allocs` expose the
    /// transport's copy and allocation behavior so the zero-copy shuffle path
    /// can be verified from counters alone.
    ///
    /// The `wire_*` and `handshake_ns` fields are per-backend: they stay zero
    /// on the in-process transport (messages move by ownership transfer, there
    /// is no wire) and count frames, framed bytes, and bootstrap time on the
    /// UDS socket backend. Comparing `wire_bytes_sent` against `bytes_sent`
    /// answers "how much framing overhead did crossing process boundaries
    /// add"; `wire_frames_sent / wire_bytes_sent` exposes tiny-message chatter.
    pub struct CommStats {
        /// Messages this rank sent (point-to-point and collective-internal).
        msgs_sent: u64 [sum],
        /// Payload bytes this rank sent.
        bytes_sent: u64 [sum],
        /// Messages this rank received.
        msgs_recvd: u64 [sum],
        /// Payload bytes this rank received.
        bytes_recvd: u64 [sum],
        /// Collective operations this rank participated in.
        collectives: u64 [sum],
        /// Payload bytes memcpy'd by the transport (into pooled send buffers
        /// and out into caller-owned receive buffers).
        bytes_copied: u64 [sum],
        /// Heap allocations taken on the send path: pool misses plus pooled
        /// buffer capacity growths. Stops increasing once the exchange reaches
        /// steady state.
        send_allocs: u64 [sum],
        /// Nanoseconds this rank spent *blocked* waiting for a peer: every
        /// blocking point in the transport (point-to-point `recv`, and the
        /// internal receives of barrier / allreduce / allgather / alltoallv /
        /// gather / bcast, which all funnel through the same matching loop)
        /// counts the time from entering the blocking wait to message arrival.
        /// Sends never block on the eager transport (send-buffer acquisition is
        /// a pool pop; misses are `send_allocs`), so wait time is entirely
        /// "blocked on peers". The BSP diagnosis question — byte-bound or
        /// straggler-bound? — is answered by comparing this against `work_ns`.
        wait_ns: u64 [sum],
        /// Nanoseconds the transport spent doing *work* on payload bytes:
        /// memcpy into pooled send buffers and out into caller-owned receive
        /// buffers (the time behind `bytes_copied`). Stays flat when a peer is
        /// slow; grows with traffic volume.
        work_ns: u64 [sum],
        /// Bytes this rank put on the wire, *including framing headers*.
        /// Zero on the in-process backend (no wire). Self-sends stay on a
        /// process-local loopback and are not counted.
        wire_bytes_sent: u64 [sum],
        /// Bytes this rank took off the wire, including framing headers.
        wire_bytes_recvd: u64 [sum],
        /// Frames this rank sent (one frame per message on the UDS backend).
        wire_frames_sent: u64 [sum],
        /// Frames this rank received.
        wire_frames_recvd: u64 [sum],
        /// Receive-side buffer-pool misses: frames whose payload needed a
        /// fresh heap allocation because the socket receive pool was empty.
        /// The wire-side analogue of `send_allocs`.
        wire_recv_allocs: u64 [sum],
        /// Nanoseconds this rank spent in transport bootstrap (socket bind /
        /// connect / accept / hello exchange). Reported once per rank by the
        /// world communicator; derived communicators reuse the connections
        /// and report zero.
        handshake_ns: u64 [sum],
    }
}

impl CommStats {
    /// The report's communication section. `wait_ns`/`work_ns` belong
    /// to the wait-state section instead, see
    /// [`CommStats::wait_counters`].
    pub fn counters(&self) -> mimir_obs::CommCounters {
        mimir_obs::CommCounters {
            sends: self.msgs_sent,
            recvs: self.msgs_recvd,
            bytes_sent: self.bytes_sent,
            bytes_recvd: self.bytes_recvd,
            collectives: self.collectives,
            bytes_copied: self.bytes_copied,
            send_allocs: self.send_allocs,
            wire_bytes_sent: self.wire_bytes_sent,
            wire_bytes_recvd: self.wire_bytes_recvd,
            wire_frames_sent: self.wire_frames_sent,
            wire_frames_recvd: self.wire_frames_recvd,
            wire_recv_allocs: self.wire_recv_allocs,
            handshake_ns: self.handshake_ns,
        }
    }

    /// The transport-attributed half of the report's wait-state section:
    /// total blocked and total copy/encode time. The shuffle-attributed
    /// categories (`sync`/`data`/`barrier`) live above this crate.
    pub fn wait_counters(&self) -> mimir_obs::WaitCounters {
        mimir_obs::WaitCounters {
            total_wait_ns: self.wait_ns,
            total_work_ns: self.work_ns,
            ..mimir_obs::WaitCounters::default()
        }
    }
}
