//! The per-rank event recorder and its thread-local installation point.
//!
//! A [`Recorder`] owns one preallocated ring buffer of [`Event`]s. Each
//! rank thread installs its own recorder ([`install`]); instrumentation
//! anywhere in the stack calls the free functions ([`emit`],
//! [`span`], …), which resolve the current thread's recorder and append
//! — or do nothing at all when tracing is off. The emit path never
//! allocates: the buffer is sized up front and overflow overwrites the
//! oldest events (keeping the most recent window, which is what a
//! post-mortem wants).
//!
//! The Mimir world runs ranks as threads, so "thread-local" here *is*
//! "per-rank", exactly like a rank-private trace buffer in an MPI
//! profiler.

use std::cell::RefCell;
use std::time::Instant;

use crate::event::{pack_rank_bytes, Event, EventKind, Phase, Step};

/// Default ring capacity (events per rank) when none is configured.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

/// Bits of a flow id holding the per-rank sequence number; the rank
/// lives in the bits above. See [`Recorder::next_flow_id`].
pub const FLOW_SEQ_BITS: u32 = 48;

/// A fixed-capacity event ring for one rank.
#[derive(Debug)]
pub struct Recorder {
    rank: usize,
    epoch: Instant,
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Next flow sequence number (starts at 1; 0 is the "untraced"
    /// sentinel, so flow id 0 is never allocated).
    flow_seq: u64,
}

impl Recorder {
    /// Creates a recorder for `rank` with its own epoch (timestamps are
    /// relative to "now").
    pub fn new(rank: usize, capacity: usize) -> Self {
        Self::with_epoch(rank, capacity, Instant::now())
    }

    /// Creates a recorder whose timestamps are relative to a caller-
    /// provided epoch, so the timelines of many ranks align in one trace.
    pub fn with_epoch(rank: usize, capacity: usize, epoch: Instant) -> Self {
        Self {
            rank,
            epoch,
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            dropped: 0,
            flow_seq: 1,
        }
    }

    /// The rank this recorder belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Allocates the next flow id: `(rank << 48) | seq`, unique per rank
    /// thread (ranks are world ranks). Never allocates: one counter bump.
    #[inline]
    pub fn next_flow_id(&mut self) -> u64 {
        let id =
            ((self.rank as u64) << FLOW_SEQ_BITS) | (self.flow_seq & ((1 << FLOW_SEQ_BITS) - 1));
        self.flow_seq += 1;
        id
    }

    /// The shared epoch timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records one event. Never allocates; overwrites the oldest event
    /// when the ring is full.
    #[inline]
    pub fn record(&mut self, kind: EventKind, a: u64, b: u64) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let ev = Event { t_ns, kind, a, b };
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            // Ring is full: overwrite the oldest slot.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.capacity();
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events in chronological order (oldest first).
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `recorder` as this thread's (= this rank's) recorder,
/// returning any recorder that was previously installed.
pub fn install(recorder: Recorder) -> Option<Recorder> {
    CURRENT.with(|c| c.borrow_mut().replace(recorder))
}

/// Removes and returns this thread's recorder, disabling tracing on the
/// thread.
pub fn take() -> Option<Recorder> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Whether a recorder is installed on this thread.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Records one event on this thread's recorder; a no-op (and
/// allocation-free) when tracing is off.
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow_mut().as_mut() {
            r.record(kind, a, b);
        }
    });
}

/// Allocates a flow id from this thread's recorder, or returns the
/// untraced sentinel 0 when tracing is off. See
/// [`Recorder::next_flow_id`].
#[inline]
pub fn next_flow_id() -> u64 {
    CURRENT.with(|c| c.borrow_mut().as_mut().map_or(0, Recorder::next_flow_id))
}

/// Records the send half of a flow edge: `flow` departs for `dst`
/// carrying `bytes`. A no-op for the untraced sentinel 0, so call sites
/// need no tracing-enabled check of their own.
#[inline]
pub fn flow_send(flow: u64, dst: u64, bytes: u64) {
    if flow != 0 {
        emit(EventKind::FlowSend, flow, pack_rank_bytes(dst, bytes));
    }
}

/// Records the receive half of a flow edge: the message stamped `flow`
/// was matched here. The source rank is recovered from the flow id's
/// high bits, so the caller only supplies the payload size.
#[inline]
pub fn flow_recv(flow: u64, bytes: u64) {
    if flow != 0 {
        emit(
            EventKind::FlowRecv,
            flow,
            pack_rank_bytes(flow >> FLOW_SEQ_BITS, bytes),
        );
    }
}

/// Whether `MIMIR_TRACE` asks for tracing (values `1`, `true`, `on`,
/// case-insensitive).
pub fn env_enabled() -> bool {
    match std::env::var("MIMIR_TRACE") {
        Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on"),
        Err(_) => false,
    }
}

/// Ring capacity (events per rank) from `MIMIR_TRACE_CAP`, or
/// [`DEFAULT_CAPACITY`].
///
/// Each event is 32 bytes, so the default 64 Ki events costs 2 MiB per
/// rank; size the cap so one run's `rounds × events-per-round` fits, or
/// the exporters will stamp a dropped-events warning into the output
/// (see README "Sizing the trace ring").
pub fn env_capacity() -> usize {
    const VAR: &str = "MIMIR_TRACE_CAP";
    let Ok(raw) = std::env::var(VAR) else {
        return DEFAULT_CAPACITY;
    };
    let (cap, warning) = parse_capacity(VAR, &raw);
    if let Some(w) = warning {
        // Every rank thread resolves the capacity, but one bad value
        // only deserves one warning per process.
        use std::sync::Once;
        static WARN: Once = Once::new();
        WARN.call_once(|| eprintln!("{w}"));
    }
    cap
}

/// Parses one capacity variable's value. On anything but a positive
/// integer, returns [`DEFAULT_CAPACITY`] plus a one-line warning naming
/// the variable, the rejected value, and the default used — a silent
/// fallback here would hand the user a mysteriously truncated trace.
fn parse_capacity(var: &str, raw: &str) -> (usize, Option<String>) {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => (n, None),
        _ => (
            DEFAULT_CAPACITY,
            Some(format!(
                "mimir-obs: ignoring {var}={raw:?} (not a positive event \
                 count); using the default of {DEFAULT_CAPACITY} events"
            )),
        ),
    }
}

/// RAII guard closing a span event pair; created by [`span`],
/// [`phase_span`], or [`step_span`].
pub struct SpanGuard {
    end_kind: EventKind,
    a: u64,
    b: u64,
}

impl SpanGuard {
    /// Overrides the `b` argument the closing event will carry (e.g.
    /// bytes moved, discovered mid-span).
    pub fn set_b(&mut self, b: u64) {
        self.b = b;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        emit(self.end_kind, self.a, self.b);
    }
}

/// Opens a `begin`/`end` span; the end event is emitted when the guard
/// drops. Emits nothing (and allocates nothing) when tracing is off.
#[inline]
pub fn span(begin: EventKind, end: EventKind, a: u64, b: u64) -> SpanGuard {
    emit(begin, a, b);
    SpanGuard {
        end_kind: end,
        a,
        b,
    }
}

/// Span covering one MapReduce phase.
#[inline]
pub fn phase_span(phase: Phase) -> SpanGuard {
    span(EventKind::PhaseBegin, EventKind::PhaseEnd, phase as u64, 0)
}

/// Span covering one exchange-round sub-step.
#[inline]
pub fn step_span(step: Step) -> SpanGuard {
    span(EventKind::StepBegin, EventKind::StepEnd, step as u64, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_preserves_order_and_drops_oldest() {
        let mut r = Recorder::new(0, 4);
        for i in 0..6u64 {
            r.record(EventKind::MemSample, i, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let got: Vec<u64> = r.events().iter().map(|e| e.a).collect();
        assert_eq!(got, vec![2, 3, 4, 5], "oldest two were overwritten");
        let ts: Vec<u64> = r.events().iter().map(|e| e.t_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "chronological order");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut r = Recorder::new(3, 16);
        for i in 0..5u64 {
            r.record(EventKind::SpillBegin, i, 0);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let got: Vec<u64> = r.events().iter().map(|e| e.a).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn emit_without_recorder_is_a_noop() {
        assert!(!active());
        emit(EventKind::MemSample, 1, 2); // must not panic
        let _g = phase_span(Phase::Map); // begin+end both no-ops
    }

    #[test]
    fn install_take_roundtrip_with_spans() {
        install(Recorder::new(7, 64));
        assert!(active());
        {
            let _p = phase_span(Phase::Map);
            emit(EventKind::MemSample, 10, 20);
            let mut s = step_span(Step::Alltoallv);
            s.set_b(4096);
        }
        let r = take().expect("recorder installed");
        assert!(!active());
        assert_eq!(r.rank(), 7);
        let evs = r.events();
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PhaseBegin,
                EventKind::MemSample,
                EventKind::StepBegin,
                EventKind::StepEnd,
                EventKind::PhaseEnd,
            ]
        );
        assert_eq!(evs[3].b, 4096, "set_b reaches the closing event");
    }

    #[test]
    fn flow_ids_encode_rank_and_count_up() {
        let mut r = Recorder::new(3, 8);
        let a = r.next_flow_id();
        let b = r.next_flow_id();
        assert_eq!(a >> FLOW_SEQ_BITS, 3, "rank in the high bits");
        assert_eq!(a & ((1 << FLOW_SEQ_BITS) - 1), 1, "sequence starts at 1");
        assert_eq!(b, a + 1);
    }

    #[test]
    fn flow_id_zero_is_never_allocated() {
        // Rank 0's first id must not collide with the untraced sentinel.
        let mut r = Recorder::new(0, 8);
        assert_ne!(r.next_flow_id(), 0);
    }

    #[test]
    fn flow_emit_helpers_skip_the_sentinel() {
        install(Recorder::new(2, 16));
        flow_send(0, 1, 64); // sentinel: nothing recorded
        flow_recv(0, 64);
        let flow = (5u64 << FLOW_SEQ_BITS) | 9;
        flow_send(flow, 1, 64);
        flow_recv(flow, 64);
        let r = take().unwrap();
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::FlowSend);
        assert_eq!(evs[0].a, flow);
        assert_eq!(evs[0].b >> 48, 1, "destination rank packed in b");
        assert_eq!(evs[1].kind, EventKind::FlowRecv);
        assert_eq!(evs[1].b >> 48, 5, "source rank recovered from the id");
        assert_eq!(evs[1].b & 0xFFFF_FFFF_FFFF, 64);
    }

    #[test]
    fn next_flow_id_without_recorder_is_the_sentinel() {
        assert!(!active());
        assert_eq!(next_flow_id(), 0);
    }

    #[test]
    fn bad_capacity_values_warn_and_fall_back() {
        let (cap, warning) = parse_capacity("MIMIR_TRACE_CAP", "lots");
        assert_eq!(cap, DEFAULT_CAPACITY);
        let w = warning.expect("unparsable value warns");
        assert!(w.contains("MIMIR_TRACE_CAP"), "names the variable: {w}");
        assert!(w.contains("\"lots\""), "names the bad value: {w}");
        assert!(
            w.contains(&DEFAULT_CAPACITY.to_string()),
            "names the default used: {w}"
        );
        let (cap, warning) = parse_capacity("MIMIR_TRACE_CAP", "0");
        assert_eq!(cap, DEFAULT_CAPACITY, "zero capacity is rejected too");
        assert!(warning.is_some());
        let (cap, warning) = parse_capacity("MIMIR_TRACE_CAP", " 4096 ");
        assert_eq!(cap, 4096, "surrounding whitespace is tolerated");
        assert!(warning.is_none());
    }

    #[test]
    fn shared_epoch_aligns_timestamps() {
        let epoch = Instant::now();
        let mut a = Recorder::with_epoch(0, 8, epoch);
        let mut b = Recorder::with_epoch(1, 8, epoch);
        a.record(EventKind::MemSample, 0, 0);
        b.record(EventKind::MemSample, 0, 0);
        let (ta, tb) = (a.events()[0].t_ns, b.events()[0].t_ns);
        // Both were recorded within a heartbeat of each other on the
        // same clock.
        assert!(ta.abs_diff(tb) < 1_000_000_000);
    }
}
