//! The Unix-domain-socket backend: ranks are real forked processes on
//! one machine.
//!
//! ## World bootstrap
//!
//! The parent creates a rendezvous directory and forks `n` children.
//! Child `r` binds `rank{r}.sock` in that directory, connects to every
//! lower rank (bounded wait with one retry — a peer may be slow to
//! bind under load), accepts from every higher rank under a deadline,
//! and identifies itself with a 4-byte hello frame. A peer that dies
//! mid-handshake therefore surfaces as a bounded-time error, never a
//! hang. Results travel back to the parent through per-rank files in
//! the same directory ([`crate::Wire`]-encoded), panics through marker
//! files, so the parent can classify every child's fate after `waitpid`.
//!
//! ## Framing
//!
//! One frame per message, over one socket pair per process pair:
//!
//! ```text
//! [len: u32][kind: u8][tag: u32][flow: u64][payload: len bytes]
//! ```
//!
//! `kind` distinguishes heap payloads from inline `u64`s, which never
//! allocate on either side. Each received frame joins its sender's FIFO
//! inbox; tags are matched above the transport, in [`crate::Comm`]. The
//! `flow` stamp rides along, which is what keeps causal tracing exact
//! across process boundaries.
//!
//! ## The caller-driven progress engine
//!
//! A rank process has no helper threads: the rank thread, which owns the
//! process's one transport, does the socket I/O itself, so a message hop
//! costs one wake-up (the receiver's `poll`), not three, and the engine
//! takes no lock.
//!
//! * `send` frames the message and writes it to the non-blocking
//!   socket there and then. Whatever the kernel does not take is parked
//!   in a per-peer outbox, so sends stay eager and never block.
//! * `recv` drives progress until the sender's inbox has a frame: sleep
//!   in `poll(2)` over every peer socket, read whatever is readable
//!   through an incremental frame parser, append each frame to its
//!   sender's inbox, flush every outbox whose socket turned writable.
//! * Dropping the transport flushes the outboxes under a deadline, so a
//!   rank that exits cleanly has delivered everything it sent.
//!
//! The one semantic difference from a background writer: a send larger
//! than the kernel socket buffer completes the next time this process
//! sends to the same peer or blocks in a receive, or at teardown — not
//! while the rank computes.
//!
//! Heap payloads make exactly one user-space copy on each side of the
//! wire: rank memory → socket, socket → pooled buffer (bytes that
//! arrive in the same read as their header cross a 4 KiB staging window
//! first). Pool misses are counted in `wire_recv_allocs`; sent buffers
//! are recycled into the receive pool, closing the same buffer economy
//! the in-process backend gets from shipping `Vec`s by ownership.
//! Nothing read from a socket is trusted: see `parse_frame`.

use std::time::Duration;

/// Where a fault-injected rank exits, for chaos tests
/// ([`UdsWorldOptions::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The rank dies before binding its socket: peers see connect
    /// failures and accept timeouts.
    BeforeListen,
    /// The rank dies after binding but before serving: lower ranks'
    /// connects land in a backlog that is never drained and die with
    /// the socket; higher ranks time out accepting.
    AfterListen,
}

/// A deliberately killed rank, for chaos tests: rank `rank` calls
/// `exit` at [`FaultPoint`] `at` instead of participating.
#[derive(Debug, Clone, Copy)]
pub struct UdsFault {
    pub rank: usize,
    pub at: FaultPoint,
}

/// Tunables for a UDS world ([`crate::run_world_uds_with`]).
#[derive(Debug, Clone)]
pub struct UdsWorldOptions {
    /// Per-attempt handshake window: a connect retries within this long
    /// (then once more — one full retry window), and the accept side
    /// waits two windows, matching the connect side's total bound.
    pub connect_window: Duration,
    /// Parent-side watchdog: children still running after this long are
    /// killed and reported as timed out.
    pub world_timeout: Duration,
    /// Chaos hook: kill one rank at a chosen point.
    pub fault: Option<UdsFault>,
}

impl Default for UdsWorldOptions {
    fn default() -> Self {
        UdsWorldOptions {
            connect_window: Duration::from_secs(10),
            world_timeout: Duration::from_secs(120),
            fault: None,
        }
    }
}

/// How one rank of a UDS world ended, as classified by the parent from
/// the child's exit status plus its result/panic files.
#[derive(Debug)]
pub(crate) enum RankEnd {
    /// Clean completion; the rank's `Wire`-encoded result.
    Ok(Vec<u8>),
    /// The rank's closure reported a clean abort (`run_world_result_on`
    /// with `Err`); the encoded error.
    Abort(Vec<u8>),
    /// The rank panicked; `disconnect` marks a disconnect-cascade panic
    /// (including handshake timeouts), folded away behind root causes.
    Panicked { message: String, disconnect: bool },
    /// The process died without reporting: killed, fault-injected, or
    /// timed out.
    Died(String),
}

#[cfg(unix)]
pub(crate) use imp::run_world_uds;

#[cfg(unix)]
mod imp {
    use std::collections::VecDeque;
    use std::io::{ErrorKind, IoSlice, Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::panic::AssertUnwindSafe;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    use super::{FaultPoint, RankEnd, UdsWorldOptions};
    use crate::comm::Comm;
    use crate::error::{is_disconnect_panic, panic_message};
    use crate::msg::{Msg, Payload, Tag};
    use crate::transport::Transport;
    use crate::world::flight_dump;
    use crate::CommError;
    use mimir_obs::CommCounters;

    /// Frame header: `[len u32][kind u8][tag u32][flow u64]`.
    const HEADER: usize = 17;
    const KIND_HEAP: u8 = 0;
    const KIND_SMALL: u8 = 1;

    /// Cap on the process-wide pool of idle receive buffers.
    const PROC_POOL_CAP: usize = 256;

    /// Per-peer staging window for headers and inline frames: over a
    /// hundred vote-sized frames per read, and the bound on how much of
    /// a heap payload is copied twice.
    const STAGE: usize = 4096;

    /// Largest single read into a heap payload's buffer, which is also
    /// how far that buffer may grow ahead of the bytes that have arrived.
    const READ_CHUNK: usize = 256 * 1024;

    /// How long a dropped transport waits for parked sends to drain.
    const TEARDOWN_FLUSH: Duration = Duration::from_secs(10);

    /// Exit code of a fault-injected rank (distinguishable from a panic's
    /// 101 in `Died` messages).
    const FAULT_EXIT: i32 = 86;

    /// Minimal process-control and readiness FFI (libc symbols; no crate
    /// dependency). glibc's `fork` — not a raw syscall — so
    /// pthread_atfork handlers run and the child's allocator state is
    /// consistent even when the parent is mid-allocation on another
    /// thread (the `cargo test` harness is multi-threaded).
    mod sys {
        #[repr(C)]
        pub struct PollFd {
            fd: i32,
            events: i16,
            pub revents: i16,
        }

        impl PollFd {
            pub fn new(fd: i32, events: i16) -> PollFd {
                let revents = 0;
                PollFd {
                    fd,
                    events,
                    revents,
                }
            }
        }

        #[cfg(target_os = "linux")]
        pub type NFds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        pub type NFds = std::ffi::c_uint;

        extern "C" {
            pub fn fork() -> i32;
            pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
            pub fn kill(pid: i32, sig: i32) -> i32;
            pub fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
        }
        pub const WNOHANG: i32 = 1;
        pub const SIGKILL: i32 = 9;
        pub const POLLIN: i16 = 0x1;
        pub const POLLOUT: i16 = 0x4;
    }

    fn encode_header(hdr: &mut [u8; HEADER], len: u32, kind: u8, tag: Tag, flow: u64) {
        hdr[0..4].copy_from_slice(&len.to_le_bytes());
        hdr[4] = kind;
        hdr[5..9].copy_from_slice(&tag.to_le_bytes());
        hdr[9..17].copy_from_slice(&flow.to_le_bytes());
    }

    /// A decoded frame header.
    #[derive(Debug, Clone, Copy)]
    struct Head {
        len: usize,
        kind: u8,
        tag: Tag,
        flow: u64,
    }

    fn decode_header(hdr: &[u8; HEADER]) -> Head {
        Head {
            len: u32::from_le_bytes(hdr[0..4].try_into().expect("len bytes")) as usize,
            kind: hdr[4],
            tag: Tag::from_le_bytes(hdr[5..9].try_into().expect("tag bytes")),
            flow: u64::from_le_bytes(hdr[9..17].try_into().expect("flow bytes")),
        }
    }

    /// A stream that is over: EOF, an I/O error, or bytes that are not a
    /// frame. All three end the same way — the peer is marked dead.
    #[derive(Debug)]
    struct Closed;

    /// What the head of a byte stream holds.
    #[derive(Debug)]
    enum Parsed {
        /// A whole `KIND_SMALL` frame.
        Inline(Msg),
        /// The header of a `KIND_HEAP` frame; `len` payload bytes follow.
        Heap(Head),
    }

    /// The frame parser, a pure function of the bytes received so far:
    /// `Ok(None)` = need more, `Ok(Some((parsed, consumed)))`, `Err` =
    /// protocol corruption. Nothing here trusts the peer: an unknown
    /// kind or an inline frame whose `len` is not 8 is an error, and a
    /// heap frame's `len` is only reported, never allocated.
    fn parse_frame(bytes: &[u8]) -> Result<Option<(Parsed, usize)>, Closed> {
        let Some(hdr) = bytes.first_chunk::<HEADER>() else {
            return Ok(None);
        };
        let head = decode_header(hdr);
        match head.kind {
            KIND_HEAP => Ok(Some((Parsed::Heap(head), HEADER))),
            KIND_SMALL if head.len == 8 => {
                let Some(v) = bytes[HEADER..].first_chunk::<8>() else {
                    return Ok(None);
                };
                let data = Payload::Small(u64::from_le_bytes(*v));
                let (tag, flow) = (head.tag, head.flow);
                Ok(Some((Parsed::Inline(Msg { tag, data, flow }), HEADER + 8)))
            }
            _ => Err(Closed),
        }
    }

    /// Idle receive buffers, filled by the read path, returned by the
    /// write path after a send — the cross-process analogue of shipping
    /// `Vec` ownership on the in-process backend.
    #[derive(Default)]
    struct BufPool {
        idle: Vec<Vec<u8>>,
        /// Takes that found no buffer big enough (`wire_recv_allocs`).
        misses: u64,
    }

    impl BufPool {
        /// An empty buffer for a `len`-byte payload. A miss is counted,
        /// not pre-paid: the buffer grows as the bytes arrive.
        fn take(&mut self, len: usize) -> Vec<u8> {
            let buf = self.idle.pop().unwrap_or_default();
            if buf.capacity() < len {
                self.misses += 1;
            }
            buf
        }

        fn recycle(&mut self, mut buf: Vec<u8>) {
            if buf.capacity() > 0 && self.idle.len() < PROC_POOL_CAP {
                buf.clear();
                self.idle.push(buf);
            }
        }
    }

    /// One non-blocking read: `Ok(None)` = nothing there yet.
    fn read_some(src: &mut impl Read, buf: &mut [u8]) -> Result<Option<usize>, Closed> {
        loop {
            return match src.read(buf) {
                Ok(0) => Err(Closed),
                Ok(n) => Ok(Some(n)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => Err(Closed),
            };
        }
    }

    /// Incremental frame reader for one peer's byte stream. Headers and
    /// inline frames pass through a small staging window; a heap payload
    /// beyond what the window already holds is read straight into its
    /// pooled buffer. State survives between calls, so a frame may arrive
    /// in any number of pieces.
    struct FrameReader {
        /// Received and not yet parsed: `stage[lo..hi]`.
        stage: Box<[u8; STAGE]>,
        lo: usize,
        hi: usize,
        /// The heap frame whose payload is still arriving, and the
        /// bytes of it so far.
        heap: Option<(Head, Vec<u8>)>,
    }

    impl FrameReader {
        fn new() -> Self {
            FrameReader {
                stage: Box::new([0; STAGE]),
                lo: 0,
                hi: 0,
                heap: None,
            }
        }

        /// Reads `src` until it has no more to give right now, handing
        /// each completed frame to `sink`. `Err` = the stream is over
        /// (mid-frame or not).
        fn pump(
            &mut self,
            src: &mut impl Read,
            pool: &mut BufPool,
            sink: &mut impl FnMut(Msg),
        ) -> Result<(), Closed> {
            loop {
                let (got, asked) = match &mut self.heap {
                    Some((head, buf)) => {
                        // Grow with what arrives: at most one chunk is
                        // ever allocated ahead of the bytes actually read.
                        let old = buf.len();
                        let asked = (head.len - old).min(READ_CHUNK);
                        buf.resize(old + asked, 0);
                        let got = read_some(src, &mut buf[old..]);
                        buf.truncate(old + if let Ok(Some(n)) = got { n } else { 0 });
                        (got?, asked)
                    }
                    None => {
                        self.stage.copy_within(self.lo..self.hi, 0);
                        self.hi -= self.lo;
                        self.lo = 0;
                        let asked = STAGE - self.hi;
                        let got = read_some(src, &mut self.stage[self.hi..])?;
                        self.hi += got.unwrap_or(0);
                        (got, asked)
                    }
                };
                let Some(got) = got else { return Ok(()) };
                self.parse_staged(pool, sink)?;
                if got < asked {
                    // A short read drained the socket; poll reports the
                    // next bytes.
                    return Ok(());
                }
            }
        }

        /// Hands on the heap frame if it is complete, then every whole
        /// frame in the staging window; a heap header found there starts
        /// the next in-progress payload with whatever bytes follow it.
        fn parse_staged(
            &mut self,
            pool: &mut BufPool,
            sink: &mut impl FnMut(Msg),
        ) -> Result<(), Closed> {
            loop {
                if let Some((head, buf)) = self.heap.take_if(|(head, buf)| buf.len() == head.len) {
                    let data = Payload::Heap(buf);
                    let (tag, flow) = (head.tag, head.flow);
                    sink(Msg { tag, data, flow });
                }
                if self.heap.is_some() {
                    return Ok(());
                }
                let Some((parsed, used)) = parse_frame(&self.stage[self.lo..self.hi])? else {
                    return Ok(());
                };
                self.lo += used;
                match parsed {
                    Parsed::Inline(msg) => sink(msg),
                    Parsed::Heap(head) => {
                        let mut buf = pool.take(head.len);
                        let have = head.len.min(self.hi - self.lo);
                        buf.extend_from_slice(&self.stage[self.lo..self.lo + have]);
                        self.lo += have;
                        self.heap = Some((head, buf));
                    }
                }
            }
        }
    }

    /// One frame on its way out: encoded header (plus the 8 value bytes
    /// of an inline frame), the heap payload if any, and how much of the
    /// two the kernel has taken so far.
    struct OutFrame {
        head: [u8; HEADER + 8],
        head_len: usize,
        body: Vec<u8>,
        sent: usize,
    }

    impl OutFrame {
        fn new(msg: Msg) -> OutFrame {
            let (kind, inline, body) = match msg.data {
                Payload::Heap(buf) => (KIND_HEAP, None, buf),
                Payload::Small(v) => (KIND_SMALL, Some(v), Vec::new()),
            };
            assert!(body.len() <= u32::MAX as usize, "frame payload over 4 GiB");
            // An inline frame's 8 value bytes ride in `head`.
            let tail = if inline.is_some() { 8 } else { 0 };
            let mut head = [0u8; HEADER + 8];
            let hdr = head.first_chunk_mut().expect("header fits");
            let len = (tail + body.len()) as u32;
            encode_header(hdr, len, kind, msg.tag, msg.flow);
            head[HEADER..].copy_from_slice(&inline.unwrap_or(0).to_le_bytes());
            OutFrame {
                head,
                head_len: HEADER + tail,
                body,
                sent: 0,
            }
        }
    }

    /// Writes queued frames until the outbox is empty or the kernel
    /// stops taking bytes (both `Ok`); sent payload buffers go back to
    /// the pool. `Err` = the peer is gone.
    fn flush(
        outbox: &mut VecDeque<OutFrame>,
        dst: &mut impl Write,
        pool: &mut BufPool,
    ) -> Result<(), Closed> {
        while let Some(f) = outbox.front_mut() {
            while f.sent < f.head_len + f.body.len() {
                let res = if f.sent < f.head_len {
                    let head = &f.head[f.sent..f.head_len];
                    dst.write_vectored(&[IoSlice::new(head), IoSlice::new(&f.body)])
                } else {
                    dst.write(&f.body[f.sent - f.head_len..])
                };
                match res {
                    Ok(0) => return Err(Closed),
                    Ok(n) => f.sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Err(Closed), // EPIPE, ECONNRESET
                }
            }
            let done = outbox.pop_front().expect("front just borrowed");
            pool.recycle(done.body);
        }
        Ok(())
    }

    /// One peer process: its socket, the two halves of its stream, and
    /// what it sent that no receive has taken yet.
    struct Peer {
        sock: UnixStream,
        reader: FrameReader,
        /// Frames received from this peer and not yet handed to `recv`,
        /// in arrival order.
        inbox: VecDeque<Msg>,
        /// Frames the kernel has not taken yet. Sends stay eager: what a
        /// full socket buffer refuses waits here, never the caller.
        outbox: VecDeque<OutFrame>,
        /// The stream is over (EOF, `EPIPE`, `ECONNRESET`, a corrupt
        /// frame): sends fail fast and, once the frames already in the
        /// inbox are consumed, every receive is a disconnect.
        dead: bool,
    }

    /// `poll(2)` over `fds`; `None` waits forever. A failed call (EINTR)
    /// reads as "nothing ready": every caller loops.
    fn poll(fds: &mut [sys::PollFd], timeout: Option<Duration>) {
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // pollfd records and `nfds` is its length; poll writes only
        // their `revents` fields.
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NFds, ms) };
        if n < 0 {
            fds.iter_mut().for_each(|f| f.revents = 0);
        }
    }

    /// The socket transport of one rank process: its connection to every
    /// other rank. The rank thread owns it, so the progress engine runs
    /// on that thread and takes no lock.
    pub(crate) struct UdsTransport {
        my_rank: usize,
        /// Indexed by world rank; `None` at this process's own rank.
        peers: Vec<Option<Peer>>,
        /// Self-sends bypass the wire entirely.
        loopback: VecDeque<Msg>,
        pool: BufPool,
        /// The poll set, kept between calls for its allocation.
        fds: Vec<sys::PollFd>,
        handshake_ns: u64,
    }

    impl UdsTransport {
        fn disconnect(&self, peer: usize) -> CommError {
            CommError::RankDisconnected {
                observer: self.my_rank,
                peer,
            }
        }

        fn peer(&mut self, w: usize) -> &mut Peer {
            self.peers[w].as_mut().expect("a connection per other rank")
        }

        fn kill(&mut self, w: usize) {
            let p = self.peer(w);
            p.dead = true;
            p.outbox.clear();
        }

        /// Reads peer `w`'s socket dry into its inbox; a stream that is
        /// over kills the peer.
        fn pump(&mut self, w: usize) {
            let p = self.peers[w].as_mut().expect("a connection per other rank");
            let inbox = &mut p.inbox;
            let mut route = |msg| inbox.push_back(msg);
            if p.reader
                .pump(&mut &p.sock, &mut self.pool, &mut route)
                .is_err()
            {
                self.kill(w);
            }
        }

        /// Writes what peer `w`'s socket will take. A failed write means
        /// the peer has gone away: what it sent before going is read out
        /// first (sent messages stay deliverable, as on in-process
        /// channels), then it is dead.
        fn flush(&mut self, w: usize) {
            let p = self.peers[w].as_mut().expect("a connection per other rank");
            if flush(&mut p.outbox, &mut &p.sock, &mut self.pool).is_err() {
                self.pump(w);
                self.kill(w);
            }
        }

        /// One step of the caller-driven progress engine: sleep in
        /// `poll(2)` until a peer socket is readable (or writable, where
        /// an outbox is waiting), or `timeout` passes; read every
        /// readable socket into its inbox; flush every outbox that can
        /// move. The caller re-checks its own condition afterwards.
        fn progress(&mut self, timeout: Option<Duration>) {
            let mut fds = std::mem::take(&mut self.fds);
            fds.clear();
            fds.extend(self.peers.iter().map(|p| match p {
                Some(p) if !p.dead => {
                    let out = if p.outbox.is_empty() { 0 } else { sys::POLLOUT };
                    sys::PollFd::new(p.sock.as_raw_fd(), sys::POLLIN | out)
                }
                // poll ignores a negative fd: a dead peer's permanent
                // POLLHUP must not turn the sleep into a spin.
                _ => sys::PollFd::new(-1, 0),
            }));
            poll(&mut fds, timeout);
            for (w, fd) in fds.iter().enumerate() {
                if fd.revents & sys::POLLOUT != 0 {
                    self.flush(w);
                }
                // POLLIN, and POLLHUP / POLLERR too: the read finds out.
                if fd.revents & !sys::POLLOUT != 0 {
                    self.pump(w);
                }
            }
            self.fds = fds;
        }

        /// Runs the engine until every parked byte has gone to the
        /// kernel, so "exited cleanly" implies "every sent frame was
        /// delivered" — within `limit`, and without waiting on a peer
        /// that has died (killing it empties its outbox).
        fn flush_outboxes(&mut self, limit: Duration) {
            let deadline = Instant::now() + limit;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let parked = self.peers.iter().flatten().any(|p| !p.outbox.is_empty());
                if !parked || left.is_zero() {
                    return;
                }
                self.progress(Some(left));
            }
        }
    }

    impl Drop for UdsTransport {
        fn drop(&mut self) {
            // World teardown: on every exit path past the handshake, a
            // panic included, peers still receive what this rank sent.
            self.flush_outboxes(TEARDOWN_FLUSH);
        }
    }

    impl Transport for UdsTransport {
        fn send(
            &mut self,
            dst: usize,
            msg: Msg,
            stats: &mut CommCounters,
        ) -> Result<(), CommError> {
            if dst == self.my_rank {
                self.loopback.push_back(msg);
                return Ok(());
            }
            if self.peer(dst).dead {
                return Err(self.disconnect(dst));
            }
            stats.wire_frames_sent += 1;
            stats.wire_bytes_sent += (HEADER + msg.data.len()) as u64;
            self.peer(dst).outbox.push_back(OutFrame::new(msg));
            self.flush(dst);
            if self.peer(dst).dead {
                return Err(self.disconnect(dst));
            }
            Ok(())
        }

        /// The next frame from `src`, driving the progress engine until
        /// it is there or `src` is dead.
        fn recv(&mut self, src: usize, stats: &mut CommCounters) -> Result<Msg, CommError> {
            if src == self.my_rank {
                return Ok(self.loopback.pop_front().unwrap_or_else(|| {
                    panic!("rank {src} receives from itself with nothing sent: deadlock")
                }));
            }
            loop {
                let peer = self.peer(src);
                if let Some(msg) = peer.inbox.pop_front() {
                    stats.wire_frames_recvd += 1;
                    stats.wire_bytes_recvd += (HEADER + msg.data.len()) as u64;
                    return Ok(msg);
                }
                // Frames that arrived before the peer died were drained
                // above: exactly the in-process channel semantics.
                if peer.dead {
                    return Err(self.disconnect(src));
                }
                self.progress(None);
            }
        }

        fn extra_stats(&self) -> CommCounters {
            CommCounters {
                handshake_ns: self.handshake_ns,
                wire_recv_allocs: self.pool.misses,
                ..CommCounters::default()
            }
        }
    }

    fn sock_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank{rank}.sock"))
    }

    fn connect_with_retry(
        path: &Path,
        window: Duration,
        me: usize,
        peer: usize,
    ) -> Result<UnixStream, String> {
        let mut last_err = String::from("never attempted");
        // One bounded attempt window plus one full retry window: a slow
        // peer gets 2×window total before we declare it disconnected.
        for _attempt in 0..2 {
            let deadline = Instant::now() + window;
            loop {
                match UnixStream::connect(path) {
                    Ok(s) => return Ok(s),
                    Err(e) => {
                        last_err = e.to_string();
                        if Instant::now() >= deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        Err(format!(
            "rank {me}: handshake with rank {peer} failed after retry \
             ({:?} per attempt): {last_err}",
            window
        ))
    }

    /// Builds this rank's connection set and world transport. Errors are
    /// handshake failures (peer died or timed out) and must surface as
    /// bounded-time disconnects, never hangs.
    fn bootstrap(
        rank: usize,
        n: usize,
        dir: &Path,
        opts: &UdsWorldOptions,
    ) -> Result<UdsTransport, String> {
        let t0 = Instant::now();
        let listener = UnixListener::bind(sock_path(dir, rank))
            .map_err(|e| format!("rank {rank}: binding rendezvous socket: {e}"))?;
        if let Some(fault) = &opts.fault {
            if fault.rank == rank && fault.at == FaultPoint::AfterListen {
                std::process::exit(FAULT_EXIT);
            }
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("rank {rank}: nonblocking listener: {e}"))?;

        let mut streams: Vec<Option<UnixStream>> = (0..n).map(|_| None).collect();
        // Connect to every lower rank, announcing our rank in a hello
        // frame so the acceptor can index us.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut s = connect_with_retry(&sock_path(dir, peer), opts.connect_window, rank, peer)?;
            s.write_all(&(rank as u32).to_le_bytes())
                .map_err(|e| format!("rank {rank}: hello to rank {peer}: {e}"))?;
            *slot = Some(s);
        }
        // Accept from every higher rank under a deadline matching the
        // connect side's total bound (window + one retry window).
        let need = n - rank - 1;
        let deadline = Instant::now() + opts.connect_window * 2;
        let mut got = 0;
        while got < need {
            match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)
                        .map_err(|e| format!("rank {rank}: accepted socket: {e}"))?;
                    s.set_read_timeout(Some(opts.connect_window))
                        .map_err(|e| format!("rank {rank}: hello timeout: {e}"))?;
                    let mut hello = [0u8; 4];
                    (&s).read_exact(&mut hello)
                        .map_err(|e| format!("rank {rank}: reading hello: {e}"))?;
                    let peer = u32::from_le_bytes(hello) as usize;
                    if peer <= rank || peer >= n || streams[peer].is_some() {
                        return Err(format!("rank {rank}: bogus hello from rank {peer}"));
                    }
                    s.set_read_timeout(None)
                        .map_err(|e| format!("rank {rank}: clearing hello timeout: {e}"))?;
                    streams[peer] = Some(s);
                    got += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "rank {rank}: handshake timed out waiting for {} \
                             peer connection(s)",
                            need - got
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("rank {rank}: accepting peer: {e}")),
            }
        }

        world_transport(rank, streams, t0.elapsed().as_nanos() as u64)
            .map_err(|e| format!("rank {rank}: preparing sockets: {e}"))
    }

    /// Rank `rank`'s world transport over its established connections
    /// (`streams[w]` reaches world rank `w`): from here on every socket
    /// is non-blocking and owned by the progress engine.
    fn world_transport(
        rank: usize,
        streams: Vec<Option<UnixStream>>,
        handshake_ns: u64,
    ) -> std::io::Result<UdsTransport> {
        let mut peers = Vec::with_capacity(streams.len());
        for sock in streams {
            if let Some(sock) = &sock {
                sock.set_nonblocking(true)?;
            }
            peers.push(sock.map(|sock| Peer {
                sock,
                reader: FrameReader::new(),
                inbox: VecDeque::new(),
                outbox: VecDeque::new(),
                dead: false,
            }));
        }
        Ok(UdsTransport {
            my_rank: rank,
            peers,
            loopback: VecDeque::new(),
            pool: BufPool::default(),
            fds: Vec::new(),
            handshake_ns,
        })
    }

    /// Removes the rendezvous directory when the parent is done.
    struct DirGuard(PathBuf);
    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Worlds started by this process, for unique rendezvous paths.
    static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);

    fn rendezvous_dir() -> PathBuf {
        let mut base = std::env::temp_dir();
        // sun_path caps socket paths around 108 bytes; fall back to /tmp
        // when TMPDIR is somewhere deep.
        if base.as_os_str().len() > 64 {
            base = PathBuf::from("/tmp");
        }
        base.join(format!(
            "mimir-uds-{}-{}",
            std::process::id(),
            WORLD_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn write_file(dir: &Path, tmp_name: String, final_name: String, bytes: &[u8]) {
        let tmp = dir.join(tmp_name);
        let fin = dir.join(final_name);
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &fin);
        }
    }

    fn write_result(dir: &Path, rank: usize, abort: bool, bytes: &[u8]) {
        let mut out = Vec::with_capacity(bytes.len() + 1);
        out.push(u8::from(abort));
        out.extend_from_slice(bytes);
        write_file(
            dir,
            format!(".result{rank}.tmp"),
            format!("result{rank}.bin"),
            &out,
        );
    }

    fn write_panic(dir: &Path, rank: usize, disconnect: bool, message: &str) {
        let mut out = Vec::with_capacity(message.len() + 1);
        out.push(u8::from(disconnect));
        out.extend_from_slice(message.as_bytes());
        write_file(
            dir,
            format!(".panic{rank}.tmp"),
            format!("panic{rank}.txt"),
            &out,
        );
    }

    fn child_main<F>(rank: usize, n: usize, dir: &Path, opts: &UdsWorldOptions, body: &F) -> !
    where
        F: Fn(&mut Comm) -> (bool, Vec<u8>),
    {
        // Pre-open the SIGTERM flight-recorder dump (no-op unless
        // armed): a forked rank killed mid-run still leaves a corpse.
        mimir_obs::arm_sigterm(rank, n);
        // The communicator escapes the catch, so a dump reads its
        // counters and parked frames flush on every exit path that got
        // past the handshake: on a panic, peers still receive everything
        // sent before it, matching in-process channel semantics where
        // sent messages stay deliverable.
        let mut comm = None;
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(bool, Vec<u8>), String> {
                if let Some(fault) = &opts.fault {
                    if fault.rank == rank && fault.at == FaultPoint::BeforeListen {
                        std::process::exit(FAULT_EXIT);
                    }
                }
                let transport = bootstrap(rank, n, dir, opts)?;
                let comm = comm.insert(Comm::new(rank, n, Box::new(transport)));
                Ok(body(comm))
            }));
        // Dropping the communicator flushes its transport's outboxes.
        let stats = comm.take().map(|comm| comm.stats());
        let code = match outcome {
            Ok(Ok((abort, bytes))) => {
                write_result(dir, rank, abort, &bytes);
                if abort {
                    flight_dump(rank, n, stats, "abort", "rank returned an error");
                }
                0
            }
            Ok(Err(handshake)) => {
                // Handshake failures are disconnect-class: the peer died
                // or stalled; fold behind genuine root causes.
                write_panic(dir, rank, true, &handshake);
                flight_dump(rank, n, stats, "disconnect", &handshake);
                101
            }
            Err(payload) => {
                let disconnect = is_disconnect_panic(payload.as_ref());
                let message = panic_message(payload.as_ref());
                write_panic(dir, rank, disconnect, &message);
                flight_dump(
                    rank,
                    n,
                    stats,
                    if disconnect { "disconnect" } else { "panic" },
                    &message,
                );
                101
            }
        };
        mimir_obs::disarm_sigterm(rank);
        std::process::exit(code)
    }

    #[derive(Clone, Copy)]
    enum ChildStatus {
        Exited(i32),
        Signaled(i32),
        TimedOut,
        Lost,
    }

    fn classify(dir: &Path, rank: usize, status: ChildStatus) -> RankEnd {
        if let Ok(bytes) = std::fs::read(dir.join(format!("result{rank}.bin"))) {
            if !bytes.is_empty() {
                let payload = bytes[1..].to_vec();
                return if bytes[0] == 0 {
                    RankEnd::Ok(payload)
                } else {
                    RankEnd::Abort(payload)
                };
            }
        }
        if let Ok(bytes) = std::fs::read(dir.join(format!("panic{rank}.txt"))) {
            if !bytes.is_empty() {
                return RankEnd::Panicked {
                    disconnect: bytes[0] != 0,
                    message: String::from_utf8_lossy(&bytes[1..]).into_owned(),
                };
            }
        }
        RankEnd::Died(match status {
            ChildStatus::Exited(code) => {
                format!("rank process exited with code {code} before reporting a result")
            }
            ChildStatus::Signaled(sig) => {
                format!("rank process killed by signal {sig} before reporting a result")
            }
            ChildStatus::TimedOut => {
                "rank process exceeded the world timeout and was killed".to_string()
            }
            ChildStatus::Lost => "rank process lost by waitpid".to_string(),
        })
    }

    /// Forks `n` rank processes, runs `body` in each over a bootstrapped
    /// socket world, and returns every rank's fate. The parent never
    /// hangs: the handshake is bounded on the children's side and the
    /// world timeout bounds everything else.
    pub(crate) fn run_world_uds<F>(n: usize, opts: &UdsWorldOptions, body: &F) -> Vec<RankEnd>
    where
        F: Fn(&mut Comm) -> (bool, Vec<u8>),
    {
        assert!(n > 0, "world needs at least one rank");
        let dir = rendezvous_dir();
        std::fs::create_dir_all(&dir).expect("creating rendezvous directory");
        let guard = DirGuard(dir.clone());

        let mut pids: Vec<i32> = Vec::with_capacity(n);
        for rank in 0..n {
            match unsafe { sys::fork() } {
                -1 => {
                    for &pid in &pids {
                        unsafe {
                            sys::kill(pid, sys::SIGKILL);
                            let mut st = 0;
                            sys::waitpid(pid, &mut st, 0);
                        }
                    }
                    panic!("fork failed spawning rank {rank}");
                }
                0 => child_main(rank, n, &dir, opts, body),
                pid => pids.push(pid),
            }
        }

        let deadline = Instant::now() + opts.world_timeout;
        let mut statuses: Vec<Option<ChildStatus>> = (0..n).map(|_| None).collect();
        loop {
            let mut pending = false;
            let mut progressed = false;
            for (r, &pid) in pids.iter().enumerate() {
                if statuses[r].is_some() {
                    continue;
                }
                let mut st: i32 = 0;
                let got = unsafe { sys::waitpid(pid, &mut st, sys::WNOHANG) };
                if got == pid {
                    statuses[r] = Some(if st & 0x7f == 0 {
                        ChildStatus::Exited((st >> 8) & 0xff)
                    } else {
                        ChildStatus::Signaled(st & 0x7f)
                    });
                    progressed = true;
                } else if got == -1 {
                    statuses[r] = Some(ChildStatus::Lost);
                    progressed = true;
                } else {
                    pending = true;
                }
            }
            if !pending {
                break;
            }
            if Instant::now() >= deadline {
                for (r, &pid) in pids.iter().enumerate() {
                    if statuses[r].is_none() {
                        unsafe {
                            sys::kill(pid, sys::SIGKILL);
                            let mut st = 0;
                            sys::waitpid(pid, &mut st, 0);
                        }
                        statuses[r] = Some(ChildStatus::TimedOut);
                    }
                }
                break;
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        let ends = statuses
            .into_iter()
            .enumerate()
            .map(|(r, st)| classify(&dir, r, st.expect("every child reaped")))
            .collect();
        drop(guard);
        ends
    }

    #[cfg(test)]
    mod tests;
}

#[cfg(not(unix))]
pub(crate) use stub::run_world_uds;

#[cfg(not(unix))]
mod stub {
    use super::{RankEnd, UdsWorldOptions};
    use crate::comm::Comm;

    pub(crate) fn run_world_uds<F>(_n: usize, _opts: &UdsWorldOptions, _body: &F) -> Vec<RankEnd>
    where
        F: Fn(&mut Comm) -> (bool, Vec<u8>),
    {
        panic!("the uds transport requires a Unix platform");
    }
}
