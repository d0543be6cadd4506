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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages this rank sent (point-to-point and collective-internal).
    pub msgs_sent: u64,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
    /// Messages this rank received.
    pub msgs_recvd: u64,
    /// Payload bytes this rank received.
    pub bytes_recvd: u64,
    /// Collective operations this rank participated in.
    pub collectives: u64,
    /// Payload bytes memcpy'd by the transport (into pooled send buffers
    /// and out into caller-owned receive buffers).
    pub bytes_copied: u64,
    /// Heap allocations taken on the send path: pool misses plus pooled
    /// buffer capacity growths. Stops increasing once the exchange reaches
    /// steady state.
    pub send_allocs: u64,
    /// Nanoseconds this rank spent *blocked* waiting for a peer: every
    /// blocking point in the transport (point-to-point `recv`, and the
    /// internal receives of barrier / allreduce / allgather / alltoallv /
    /// gather / bcast, which all funnel through the same matching loop)
    /// counts the time from entering the blocking wait to message arrival.
    /// Sends never block on the eager transport (send-buffer acquisition is
    /// a pool pop; misses are `send_allocs`), so wait time is entirely
    /// "blocked on peers". The BSP diagnosis question — byte-bound or
    /// straggler-bound? — is answered by comparing this against `work_ns`.
    pub wait_ns: u64,
    /// Nanoseconds the transport spent doing *work* on payload bytes:
    /// memcpy into pooled send buffers and out into caller-owned receive
    /// buffers (the time behind `bytes_copied`). Stays flat when a peer is
    /// slow; grows with traffic volume.
    pub work_ns: u64,
    /// Bytes this rank put on the wire, *including framing headers*.
    /// Zero on the in-process backend (no wire). Self-sends stay on a
    /// process-local loopback and are not counted.
    pub wire_bytes_sent: u64,
    /// Bytes this rank took off the wire, including framing headers.
    pub wire_bytes_recvd: u64,
    /// Frames this rank sent (one frame per message on the UDS backend).
    pub wire_frames_sent: u64,
    /// Frames this rank received.
    pub wire_frames_recvd: u64,
    /// Receive-side buffer-pool misses: frames whose payload needed a
    /// fresh heap allocation because the socket receive pool was empty.
    /// The wire-side analogue of `send_allocs`.
    pub wire_recv_allocs: u64,
    /// Nanoseconds this rank spent in transport bootstrap (socket bind /
    /// connect / accept / hello exchange). Reported once per rank by the
    /// world communicator; derived communicators reuse the connections
    /// and report zero.
    pub handshake_ns: u64,
}

impl CommStats {
    /// Number of counter fields (the fixed-width encoding used by the
    /// `Wire` impl and [`CommStats::as_array`]).
    pub const FIELDS: usize = 15;

    /// Element-wise sum, for aggregating across ranks.
    pub fn merge(&self, other: &CommStats) -> CommStats {
        let mut a = self.as_array();
        for (acc, v) in a.iter_mut().zip(other.as_array()) {
            *acc += v;
        }
        CommStats::from_array(a)
    }

    /// The counters in declaration order, for encoding and aggregation.
    pub fn as_array(&self) -> [u64; Self::FIELDS] {
        [
            self.msgs_sent,
            self.bytes_sent,
            self.msgs_recvd,
            self.bytes_recvd,
            self.collectives,
            self.bytes_copied,
            self.send_allocs,
            self.wait_ns,
            self.work_ns,
            self.wire_bytes_sent,
            self.wire_bytes_recvd,
            self.wire_frames_sent,
            self.wire_frames_recvd,
            self.wire_recv_allocs,
            self.handshake_ns,
        ]
    }

    /// Element-wise saturating difference `self − earlier`, for pushing
    /// incremental deltas (e.g. to the live telemetry plane) from a
    /// cumulative counter set.
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        let mut a = self.as_array();
        for (acc, v) in a.iter_mut().zip(earlier.as_array()) {
            *acc = acc.saturating_sub(v);
        }
        CommStats::from_array(a)
    }

    /// This rank's counters as the dependency-free `mimir-obs` mirror
    /// used by [`mimir_obs::RankReport`]. `wait_ns`/`work_ns` are not
    /// part of the mirror — they belong to the report's wait-state
    /// section, see [`CommStats::wait_counters`].
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

    /// Inverse of [`CommStats::as_array`].
    pub fn from_array(v: [u64; Self::FIELDS]) -> CommStats {
        CommStats {
            msgs_sent: v[0],
            bytes_sent: v[1],
            msgs_recvd: v[2],
            bytes_recvd: v[3],
            collectives: v[4],
            bytes_copied: v[5],
            send_allocs: v[6],
            wait_ns: v[7],
            work_ns: v[8],
            wire_bytes_sent: v[9],
            wire_bytes_recvd: v[10],
            wire_frames_sent: v[11],
            wire_frames_recvd: v[12],
            wire_recv_allocs: v[13],
            handshake_ns: v[14],
        }
    }
}
