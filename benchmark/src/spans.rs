//! Driver-side spans: the benchmark times its own calls into each layer
//! and keeps the spans in memory until the run ends.
//!
//! A span is `{name, parent, rank, start_ns, end_ns, count, bytes}`. Each
//! rank records into its own [`SpanLog`] against a clock origin shared by
//! the whole world (an `Instant` taken before the world is spawned, which
//! a forked rank process inherits), so spans of different ranks line up.
//! A rank's log crosses the world boundary flattened to `u64`s.

use std::time::Instant;

use crate::json::Json;

/// Index of a span within its log; `NO_PARENT` marks a root.
pub const NO_PARENT: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into the name table the log was recorded against.
    pub name: u64,
    pub parent: u64,
    pub rank: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, as a count (KVs, rounds, groups …).
    pub count: u64,
    /// Payload bytes the span moved or produced.
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One rank's spans, in start order.
pub struct SpanLog {
    origin: Instant,
    rank: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, rank: usize) -> Self {
        Self {
            origin,
            rank: rank as u64,
            spans: Vec::with_capacity(64),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Self::end`] and for use
    /// as a child's `parent`.
    pub fn begin(&mut self, name: usize, parent: u64) -> u64 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name as u64,
            parent,
            rank: self.rank,
            start_ns,
            end_ns: start_ns,
            count: 0,
            bytes: 0,
        });
        (self.spans.len() - 1) as u64
    }

    /// Closes span `id`, attaching the work it did.
    pub fn end(&mut self, id: u64, count: u64, bytes: u64) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.count = count;
        s.bytes = bytes;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: usize, parent: u64, f: impl FnOnce() -> (T, u64, u64)) -> T {
        let id = self.begin(name, parent);
        let (out, count, bytes) = f();
        self.end(id, count, bytes);
        out
    }

    /// Flattens to `u64`s: seven per span.
    pub fn into_wire(self) -> Vec<u64> {
        self.spans
            .iter()
            .flat_map(|s| {
                [
                    s.name, s.parent, s.rank, s.start_ns, s.end_ns, s.count, s.bytes,
                ]
            })
            .collect()
    }
}

/// Rebuilds a rank's spans from [`SpanLog::into_wire`].
pub fn from_wire(words: &[u64]) -> Vec<Span> {
    words
        .chunks_exact(7)
        .map(|w| Span {
            name: w[0],
            parent: w[1],
            rank: w[2],
            start_ns: w[3],
            end_ns: w[4],
            count: w[5],
            bytes: w[6],
        })
        .collect()
}

/// Self time of span `id` within one rank's log: its duration minus the
/// part of its interval that its direct children cover. Children are
/// clipped to the parent and overlapping children are counted once.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id as u64)
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut edge = me.start_ns;
    for (a, b) in kids {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    me.dur_ns() - covered
}

/// Chrome-trace (`chrome://tracing`, Perfetto) document for the spans of
/// all ranks: one complete event per span, one thread lane per rank.
pub fn chrome_trace(names: &[&str], ranks: &[Vec<Span>]) -> Json {
    let mut events = Vec::new();
    for spans in ranks {
        for s in spans {
            let name = names.get(s.name as usize).copied().unwrap_or("?");
            events.push(Json::obj(vec![
                ("name", Json::str(name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(s.rank as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj(vec![
                        ("count", Json::Num(s.count as f64)),
                        ("bytes", Json::Num(s.bytes as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(s.parent as f64)
                            },
                        ),
                    ]),
                ),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            rank: 0,
            start_ns,
            end_ns,
            count: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(NO_PARENT, 0, 100), // root
            span(0, 10, 40),         // child
            span(1, 15, 35),         // grandchild: not the root's to subtract
            span(0, 50, 90),         // child
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 40);
        assert_eq!(self_ns(&spans, 1), 30 - 20);
        assert_eq!(self_ns(&spans, 2), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(NO_PARENT, 100, 200),
            span(0, 90, 130),  // starts before the parent: clipped to 100..130
            span(0, 120, 150), // overlaps the previous by 10
            span(0, 190, 260), // ends after the parent: clipped to 190..200
        ];
        assert_eq!(self_ns(&spans, 0), 100 - (30 + 20 + 10));
    }

    #[test]
    fn wire_round_trip_keeps_every_field() {
        let mut log = SpanLog::new(Instant::now(), 1);
        let root = log.begin(3, NO_PARENT);
        log.time(4, root, || ((), 7, 4096));
        log.end(root, 1, 2);
        let spans = log.spans.clone();
        assert_eq!(from_wire(&log.into_wire()), spans);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(
            (spans[1].count, spans[1].bytes, spans[1].rank),
            (7, 4096, 1)
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let doc = chrome_trace(&["root"], &[vec![span(NO_PARENT, 1000, 3000)]]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.0));
    }
}
