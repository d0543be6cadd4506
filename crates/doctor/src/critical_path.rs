//! The happens-before graph and its longest path.
//!
//! Every message the runtime ships carries a flow id; the sender records
//! a [`FlowSend`](EventKind::FlowSend) and the matching receive records a
//! [`FlowRecv`](EventKind::FlowRecv). Together with each rank's local
//! event order, those pairs are the complete happens-before relation of
//! the run — local program order plus one cross-rank edge per message.
//! This module rebuilds that DAG from gathered [`RankReport`]s (event
//! timestamps must share one epoch, which the trace session guarantees)
//! and extracts the **critical path**: the chain of work and messages
//! that actually determined the wall time, as opposed to the straggler
//! heuristic's guess from aggregate wait counters.
//!
//! The walk runs backwards from the globally latest event. On a rank's
//! lane it scans toward the past; at each `FlowRecv` it asks whether the
//! matching send happened *after* the receiver's previous local event —
//! if so, the receiver was blocked on that message, the path jumps to
//! the sender's lane at the send, and the skipped local stretch was
//! off-path waiting. If not, the message arrived early and the walk
//! keeps descending locally. This is the classic critical-path
//! backtrace; it is valid here because the transport is eager (a send
//! is visible as soon as it happens) and all recorders share an epoch.
//!
//! On-path time is classified against the rank's span events:
//! `sync`/`recv` steps are **wait**, `alltoallv`/`post`/`drain` steps
//! and the message edges themselves are **comm**, everything else is
//! **compute**.

use std::collections::HashMap;

use mimir_obs::{Event, EventKind, Json, Phase, RankReport, Step};

/// What a stretch of the critical path was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local work outside any communication step span.
    Compute,
    /// Data movement: `alltoallv`/`post`/`drain` steps and the in-flight
    /// time of a gating message.
    Comm,
    /// Blocked time: `sync` vote and `recv` completion steps.
    Wait,
}

impl SegmentKind {
    /// Stable lowercase name (used in JSON and text renderings).
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Comm => "comm",
            SegmentKind::Wait => "wait",
        }
    }
}

/// One contiguous stretch of the critical path on a single rank (or in
/// flight between two ranks, for [`SegmentKind::Comm`] edges where
/// `rank` is the *sender*).
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// The rank holding the path during this stretch.
    pub rank: u64,
    /// Start, nanoseconds since the shared epoch.
    pub from_ns: u64,
    /// End, nanoseconds since the shared epoch.
    pub to_ns: u64,
    /// How the stretch was spent.
    pub kind: SegmentKind,
}

impl Segment {
    fn dur(&self) -> u64 {
        self.to_ns.saturating_sub(self.from_ns)
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Span of the whole event stream: latest minus earliest timestamp.
    pub wall_ns: u64,
    /// Length of the path itself (its segments are contiguous in time).
    pub path_ns: u64,
    /// On-path nanoseconds classified as local work.
    pub compute_ns: u64,
    /// On-path nanoseconds classified as data movement (incl. edges).
    pub comm_ns: u64,
    /// On-path nanoseconds classified as blocked.
    pub wait_ns: u64,
    /// Cross-rank message edges the path followed.
    pub edges: u64,
    /// Per-rank on-path time, descending: `(rank, ns)`.
    pub rank_path_ns: Vec<(u64, u64)>,
    /// The rank holding the largest slice of the path.
    pub dominant_rank: u64,
    /// Dominant rank's on-path time as a permille of all on-rank path
    /// time (edges excluded from the denominator).
    pub dominant_share_permille: u64,
    /// Phase name where the dominant rank spent most of its path time
    /// (`""` when no phase spans overlap).
    pub dominant_phase: &'static str,
    /// Exchange round → the rank the path ran through for most of that
    /// round's window (the rank gating the round).
    pub gating: Vec<(u64, u64)>,
    /// The path, earliest segment first.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// How many of the observed exchange rounds `rank` gated.
    pub fn rounds_gated_by(&self, rank: u64) -> u64 {
        self.gating.iter().filter(|&&(_, r)| r == rank).count() as u64
    }

    /// Structured rendering for the `--critical-path` artifact.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("path_ns", Json::Num(self.path_ns as f64)),
            ("compute_ns", Json::Num(self.compute_ns as f64)),
            ("comm_ns", Json::Num(self.comm_ns as f64)),
            ("wait_ns", Json::Num(self.wait_ns as f64)),
            ("edges", Json::Num(self.edges as f64)),
            ("dominant_rank", Json::Num(self.dominant_rank as f64)),
            (
                "dominant_share_permille",
                Json::Num(self.dominant_share_permille as f64),
            ),
            ("dominant_phase", Json::Str(self.dominant_phase.into())),
            (
                "rank_path_ns",
                Json::Obj(
                    self.rank_path_ns
                        .iter()
                        .map(|&(r, ns)| (r.to_string(), Json::Num(ns as f64)))
                        .collect(),
                ),
            ),
            (
                "gating",
                Json::Arr(
                    self.gating
                        .iter()
                        .map(|&(round, rank)| {
                            Json::obj(vec![
                                ("round", Json::Num(round as f64)),
                                ("rank", Json::Num(rank as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "segments",
                Json::Arr(
                    self.segments
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("rank", Json::Num(s.rank as f64)),
                                ("from_ns", Json::Num(s.from_ns as f64)),
                                ("to_ns", Json::Num(s.to_ns as f64)),
                                ("kind", Json::Str(s.kind.name().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human rendering: the summary plus one line per segment.
    pub fn to_text(&self) -> String {
        let pct = |ns: u64| {
            if self.path_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.path_ns as f64
            }
        };
        let mut out = format!(
            "critical path: {} of {} wall ({} segments, {} message edges)\n  \
             compute {} ({:.0}%), comm {} ({:.0}%), wait {} ({:.0}%)\n  \
             dominant: rank {} holds {:.1}% of the path{}\n",
            crate::fmt_duration_ns(self.path_ns as f64),
            crate::fmt_duration_ns(self.wall_ns as f64),
            self.segments.len(),
            self.edges,
            crate::fmt_duration_ns(self.compute_ns as f64),
            pct(self.compute_ns),
            crate::fmt_duration_ns(self.comm_ns as f64),
            pct(self.comm_ns),
            crate::fmt_duration_ns(self.wait_ns as f64),
            pct(self.wait_ns),
            self.dominant_rank,
            self.dominant_share_permille as f64 / 10.0,
            if self.dominant_phase.is_empty() {
                String::new()
            } else {
                format!(" (mostly in `{}`)", self.dominant_phase)
            },
        );
        if !self.gating.is_empty() {
            let gated: Vec<String> = self
                .rank_path_ns
                .iter()
                .map(|&(r, _)| format!("r{r}:{}", self.rounds_gated_by(r)))
                .collect();
            out.push_str(&format!(
                "  rounds gated ({} total): {}\n",
                self.gating.len(),
                gated.join(" ")
            ));
        }
        for s in &self.segments {
            out.push_str(&format!(
                "    {:>10} .. {:>10}  rank {}  {:<7} {}\n",
                s.from_ns,
                s.to_ns,
                s.rank,
                s.kind.name(),
                crate::fmt_duration_ns(s.dur() as f64),
            ));
        }
        out
    }
}

/// A step span's classification, or `None` for spans that are neither
/// wait nor comm (the remainder defaults to compute).
fn step_kind(code: u64) -> Option<SegmentKind> {
    match Step::from_code(code)? {
        Step::Sync => Some(SegmentKind::Wait),
        Step::Alltoallv | Step::Drain => Some(SegmentKind::Comm),
    }
}

/// Non-overlapping classified windows of one rank's lane, from its step
/// spans. Steps are sequential within a rank, so begin/end pairing by
/// step code is unambiguous.
fn classified_windows(lane: &[Event]) -> Vec<(u64, u64, SegmentKind)> {
    let mut open: HashMap<u64, u64> = HashMap::new();
    let mut windows = Vec::new();
    for e in lane {
        match e.kind {
            EventKind::StepBegin => {
                open.insert(e.a, e.t_ns);
            }
            EventKind::StepEnd => {
                if let (Some(from), Some(kind)) = (open.remove(&e.a), step_kind(e.a)) {
                    windows.push((from, e.t_ns, kind));
                }
            }
            _ => {}
        }
    }
    windows.sort_unstable_by_key(|&(from, _, _)| from);
    windows
}

/// Splits the on-path stretch `[from, to)` of one rank into classified
/// segments using the rank's step windows; uncovered time is compute.
fn classify_stretch(
    rank: u64,
    from: u64,
    to: u64,
    windows: &[(u64, u64, SegmentKind)],
    out: &mut Vec<Segment>,
) {
    let mut cursor = from;
    for &(w_from, w_to, kind) in windows {
        if w_to <= cursor || w_from >= to {
            continue;
        }
        let a = w_from.max(cursor);
        let b = w_to.min(to);
        if a > cursor {
            out.push(Segment {
                rank,
                from_ns: cursor,
                to_ns: a,
                kind: SegmentKind::Compute,
            });
        }
        if b > a {
            out.push(Segment {
                rank,
                from_ns: a,
                to_ns: b,
                kind,
            });
        }
        cursor = cursor.max(b);
        if cursor >= to {
            break;
        }
    }
    if to > cursor {
        out.push(Segment {
            rank,
            from_ns: cursor,
            to_ns: to,
            kind: SegmentKind::Compute,
        });
    }
}

/// Rebuilds the happens-before DAG from gathered per-rank reports and
/// extracts the critical path.
///
/// Returns `None` when the path cannot be *measured*: no rank retained
/// events, or a multi-rank run has no matched flow pair (flow tracing
/// off — local lanes alone say nothing about cross-rank causality).
/// Timestamps are assumed comparable across ranks (shared epoch), which
/// the trace session guarantees.
pub fn critical_path(reports: &[RankReport]) -> Option<CriticalPath> {
    // Per-rank lanes, time-sorted (rings are chronological; merged or
    // hand-built reports may not be).
    let mut lanes: HashMap<u64, Vec<Event>> = HashMap::new();
    for r in reports {
        if !r.events.is_empty() {
            let mut lane = r.events.clone();
            lane.sort_by_key(|e| e.t_ns);
            lanes.insert(r.rank, lane);
        }
    }
    if lanes.is_empty() {
        return None;
    }

    // Index the send half of every flow: id -> (rank, lane index).
    let mut sends: HashMap<u64, (u64, usize)> = HashMap::new();
    for (&rank, lane) in &lanes {
        for (i, e) in lane.iter().enumerate() {
            if e.kind == EventKind::FlowSend {
                sends.insert(e.a, (rank, i));
            }
        }
    }

    // Multi-rank lanes with no matched flow pair carry no cross-rank
    // causality: any "path" would be the straggler guess in disguise.
    let has_matched_pair = lanes
        .values()
        .flatten()
        .any(|e| e.kind == EventKind::FlowRecv && sends.contains_key(&e.a));
    if lanes.len() > 1 && !has_matched_pair {
        return None;
    }

    let t_start = lanes.values().map(|l| l[0].t_ns).min()?;
    let (&end_rank, end_lane) = lanes.iter().max_by_key(|(_, l)| l.last().unwrap().t_ns)?;
    let t_end = end_lane.last().unwrap().t_ns;

    // Backward walk. `stretches` collects the raw on-rank intervals and
    // the message edges in reverse order.
    let mut stretches: Vec<(u64, u64, u64)> = Vec::new(); // (rank, from, to)
    let mut edge_segs: Vec<Segment> = Vec::new();
    let mut cur_rank = end_rank;
    let mut cur_idx = end_lane.len() - 1;
    let mut cur_t = t_end;
    let total_events: usize = lanes.values().map(Vec::len).sum();
    let mut fuel = total_events + 8; // cycle guard; ties in t_ns could stall
    loop {
        fuel -= 1;
        let lane = &lanes[&cur_rank];
        let mut i = cur_idx;
        let mut jump: Option<(u64, usize, u64)> = None; // (rank, idx, recv_t)
        loop {
            let e = &lane[i];
            if e.kind == EventKind::FlowRecv && fuel > 0 {
                if let Some(&(s_rank, s_idx)) = sends.get(&e.a) {
                    let s_t = lanes[&s_rank][s_idx].t_ns;
                    // Gating test: the previous *local* event happened
                    // before the send, i.e. this rank had nothing to do
                    // but wait for the message.
                    let gated = i == 0 || s_t > lane[i - 1].t_ns;
                    if gated && s_rank != cur_rank && s_t <= e.t_ns {
                        jump = Some((s_rank, s_idx, e.t_ns));
                        break;
                    }
                }
            }
            if i == 0 {
                break;
            }
            i -= 1;
        }
        match jump {
            Some((s_rank, s_idx, recv_t)) => {
                stretches.push((cur_rank, recv_t, cur_t));
                let s_t = lanes[&s_rank][s_idx].t_ns;
                edge_segs.push(Segment {
                    rank: s_rank,
                    from_ns: s_t,
                    to_ns: recv_t,
                    kind: SegmentKind::Comm,
                });
                cur_rank = s_rank;
                cur_idx = s_idx;
                cur_t = s_t;
            }
            None => {
                stretches.push((cur_rank, lane[0].t_ns, cur_t));
                break;
            }
        }
    }

    // Classify the on-rank stretches and interleave the edges back in
    // chronological order.
    let windows: HashMap<u64, Vec<(u64, u64, SegmentKind)>> = lanes
        .iter()
        .map(|(&rank, lane)| (rank, classified_windows(lane)))
        .collect();
    let mut segments = Vec::new();
    for &(rank, from, to) in stretches.iter().rev() {
        classify_stretch(rank, from, to, &windows[&rank], &mut segments);
    }
    segments.extend(edge_segs.iter().copied());
    segments.sort_by_key(|s| (s.from_ns, s.to_ns));
    segments.retain(|s| s.dur() > 0);

    let edges = edge_segs.len() as u64;
    let (mut compute_ns, mut wait_ns) = (0u64, 0u64);
    let mut comm_ns: u64 = edge_segs.iter().map(Segment::dur).sum();
    let mut per_rank: HashMap<u64, u64> = HashMap::new();
    for &(rank, from, to) in &stretches {
        *per_rank.entry(rank).or_default() += to.saturating_sub(from);
    }
    for s in &segments {
        if edge_segs
            .iter()
            .any(|e| e.from_ns == s.from_ns && e.to_ns == s.to_ns && e.rank == s.rank)
        {
            continue; // already summed into comm_ns
        }
        match s.kind {
            SegmentKind::Compute => compute_ns += s.dur(),
            SegmentKind::Comm => comm_ns += s.dur(),
            SegmentKind::Wait => wait_ns += s.dur(),
        }
    }

    let on_rank_total: u64 = per_rank.values().sum();
    let mut rank_path_ns: Vec<(u64, u64)> = per_rank.into_iter().collect();
    rank_path_ns.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let (dominant_rank, dominant_ns) = rank_path_ns[0];
    let dominant_share_permille = (dominant_ns * 1000).checked_div(on_rank_total).unwrap_or(0);

    // Dominant phase: the phase span overlapping most of the dominant
    // rank's on-path time. The outermost `job` span would trivially win,
    // so it only counts when nothing finer overlaps.
    let dominant_phase = {
        let lane = &lanes[&dominant_rank];
        let mut open: HashMap<u64, u64> = HashMap::new();
        let mut phase_windows: Vec<(u64, u64, u64)> = Vec::new(); // (code, from, to)
        for e in lane {
            match e.kind {
                EventKind::PhaseBegin => {
                    open.insert(e.a, e.t_ns);
                }
                EventKind::PhaseEnd => {
                    if let Some(from) = open.remove(&e.a) {
                        phase_windows.push((e.a, from, e.t_ns));
                    }
                }
                _ => {}
            }
        }
        let mut overlap: HashMap<u64, u64> = HashMap::new();
        for &(rank, from, to) in &stretches {
            if rank != dominant_rank {
                continue;
            }
            for &(code, w_from, w_to) in &phase_windows {
                let a = from.max(w_from);
                let b = to.min(w_to);
                if b > a {
                    *overlap.entry(code).or_default() += b - a;
                }
            }
        }
        let pick = |skip_job: bool| {
            overlap
                .iter()
                .filter(|&(&code, _)| !skip_job || code != Phase::Job as u64)
                .max_by_key(|&(_, &ns)| ns)
                .map(|(&code, _)| code)
        };
        pick(true)
            .or_else(|| pick(false))
            .and_then(Phase::from_code)
            .map_or("", Phase::name)
    };

    // Round windows (union across ranks) and who the path ran through.
    let mut round_windows: HashMap<u64, (u64, u64)> = HashMap::new();
    for lane in lanes.values() {
        let mut begin: HashMap<u64, u64> = HashMap::new();
        for e in lane {
            match e.kind {
                EventKind::RoundBegin => {
                    begin.insert(e.a, e.t_ns);
                }
                EventKind::RoundEnd => {
                    if let Some(from) = begin.remove(&e.a) {
                        let w = round_windows.entry(e.a).or_insert((from, e.t_ns));
                        w.0 = w.0.min(from);
                        w.1 = w.1.max(e.t_ns);
                    }
                }
                _ => {}
            }
        }
    }
    let mut gating = Vec::new();
    for (&round, &(w_from, w_to)) in &round_windows {
        let mut best: Option<(u64, u64)> = None; // (ns, rank)
        for &(rank, from, to) in &stretches {
            let a = from.max(w_from);
            let b = to.min(w_to);
            if b > a {
                let ns = b - a;
                if best.is_none_or(|(n, _)| ns > n) {
                    best = Some((ns, rank));
                }
            }
        }
        if let Some((_, rank)) = best {
            gating.push((round, rank));
        }
    }
    gating.sort_unstable();

    let path_start = segments.first().map_or(t_start, |s| s.from_ns);
    Some(CriticalPath {
        wall_ns: t_end.saturating_sub(t_start),
        path_ns: t_end.saturating_sub(path_start),
        compute_ns,
        comm_ns,
        wait_ns,
        edges,
        rank_path_ns,
        dominant_rank,
        dominant_share_permille,
        dominant_phase,
        gating,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimir_obs::{pack_rank_bytes, FLOW_SEQ_BITS};

    fn ev(t_ns: u64, kind: EventKind, a: u64, b: u64) -> Event {
        Event { t_ns, kind, a, b }
    }

    fn flow(rank: u64, seq: u64) -> u64 {
        (rank << FLOW_SEQ_BITS) | seq
    }

    /// Two ranks; rank 1 computes for 90 of 100 ns, then messages rank 0,
    /// which had been idle since t=5. The measured path must run through
    /// rank 1's long stretch, not rank 0's wait.
    #[test]
    fn path_jumps_to_the_sender_that_gated_the_receive() {
        let f = flow(1, 1);
        let mut r0 = RankReport::new(0);
        r0.events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(5, EventKind::StepBegin, Step::Sync as u64, 0),
            ev(95, EventKind::FlowRecv, f, pack_rank_bytes(1, 8)),
            ev(96, EventKind::StepEnd, Step::Sync as u64, 0),
            ev(100, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        let mut r1 = RankReport::new(1);
        r1.events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(90, EventKind::FlowSend, f, pack_rank_bytes(0, 8)),
            ev(92, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        let p = critical_path(&[r0, r1]).expect("measured path");
        assert_eq!(p.wall_ns, 100);
        assert_eq!(p.edges, 1);
        assert_eq!(p.dominant_rank, 1, "the path ran through the sender");
        assert_eq!(p.dominant_phase, "map");
        let r1_ns = p
            .rank_path_ns
            .iter()
            .find(|&&(r, _)| r == 1)
            .map(|&(_, ns)| ns)
            .unwrap();
        assert_eq!(r1_ns, 90, "rank 1's whole compute stretch is on-path");
        // Rank 0's off-path wait (t=5..95) must NOT be on the path; only
        // its tail after the gating receive is.
        let r0_ns = p
            .rank_path_ns
            .iter()
            .find(|&&(r, _)| r == 0)
            .map(|&(_, ns)| ns)
            .unwrap();
        assert_eq!(r0_ns, 5, "only the post-receive tail is rank 0's");
        // Path is contiguous: 90 (r1) + 5 (edge) + 5 (r0 tail) = 100.
        assert_eq!(p.path_ns, 100);
        assert_eq!(p.comm_ns, 5, "the in-flight edge");
        assert_eq!(p.wait_ns, 1, "the sync tail after the gating receive");
        assert_eq!(p.compute_ns, 94, "rank 1's stretch + rank 0's wrap-up");
    }

    /// An early message (send long before the receiver's previous local
    /// event) is not gating: the walk stays on the receiver's lane.
    #[test]
    fn early_messages_do_not_divert_the_path() {
        let f = flow(1, 1);
        let mut r0 = RankReport::new(0);
        r0.events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Reduce as u64, 0),
            ev(80, EventKind::MemSample, 0, 0), // busy until just before the recv
            ev(90, EventKind::FlowRecv, f, pack_rank_bytes(1, 8)),
            ev(100, EventKind::PhaseEnd, Phase::Reduce as u64, 0),
        ];
        let mut r1 = RankReport::new(1);
        r1.events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(10, EventKind::FlowSend, f, pack_rank_bytes(0, 8)),
            ev(12, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        let p = critical_path(&[r0, r1]).expect("measured path");
        assert_eq!(
            p.dominant_rank, 0,
            "receiver was busy, so its own lane is the path"
        );
        assert_eq!(p.dominant_phase, "reduce");
        assert_eq!(p.edges, 0, "no gating edge — the message arrived early");
    }

    /// Multi-rank lanes without any flow events cannot be measured.
    #[test]
    fn multi_rank_without_flows_is_not_measured() {
        let mut r0 = RankReport::new(0);
        r0.events = vec![ev(0, EventKind::MemSample, 0, 0)];
        let mut r1 = RankReport::new(1);
        r1.events = vec![ev(10, EventKind::MemSample, 0, 0)];
        assert!(critical_path(&[r0, r1]).is_none());
        // A single lane is trivially measurable.
        let mut solo = RankReport::new(0);
        solo.events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(50, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        let p = critical_path(&[solo]).expect("single lane");
        assert_eq!(p.dominant_rank, 0);
        assert_eq!(p.path_ns, 50);
        // Empty reports: nothing to measure.
        assert!(critical_path(&[RankReport::new(0)]).is_none());
    }

    /// Step spans classify on-path time; uncovered time is compute.
    #[test]
    fn segments_classify_against_step_spans() {
        let mut r = RankReport::new(0);
        r.events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(10, EventKind::StepBegin, Step::Sync as u64, 0),
            ev(30, EventKind::StepEnd, Step::Sync as u64, 0),
            ev(40, EventKind::StepBegin, Step::Alltoallv as u64, 0),
            ev(70, EventKind::StepEnd, Step::Alltoallv as u64, 0),
            ev(100, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        let p = critical_path(&[r]).expect("single lane");
        assert_eq!(p.wait_ns, 20, "the sync span");
        assert_eq!(p.comm_ns, 30, "the alltoallv span");
        assert_eq!(p.compute_ns, 50, "everything uncovered");
        assert_eq!(p.path_ns, 100);
        let kinds: Vec<SegmentKind> = p.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Compute,
                SegmentKind::Wait,
                SegmentKind::Compute,
                SegmentKind::Comm,
                SegmentKind::Compute,
            ]
        );
    }

    #[test]
    fn gating_names_the_rank_holding_each_round() {
        let f = flow(1, 1);
        let mut r0 = RankReport::new(0);
        r0.events = vec![
            ev(0, EventKind::RoundBegin, 0, 0),
            ev(5, EventKind::StepBegin, Step::Sync as u64, 0),
            ev(95, EventKind::FlowRecv, f, pack_rank_bytes(1, 8)),
            ev(98, EventKind::StepEnd, Step::Sync as u64, 0),
            ev(100, EventKind::RoundEnd, 0, 1),
        ];
        let mut r1 = RankReport::new(1);
        r1.events = vec![
            ev(0, EventKind::RoundBegin, 0, 0),
            ev(90, EventKind::FlowSend, f, pack_rank_bytes(0, 8)),
            ev(99, EventKind::RoundEnd, 0, 1),
        ];
        let p = critical_path(&[r0, r1]).expect("measured path");
        assert_eq!(p.gating, vec![(0, 1)], "rank 1 gated round 0");
        assert_eq!(p.rounds_gated_by(1), 1);
        assert_eq!(p.rounds_gated_by(0), 0);
        let json = p.to_json();
        assert_eq!(json.get("edges").unwrap().as_u64(), Some(1));
        let text = p.to_text();
        assert!(text.contains("critical path:"));
        assert!(text.contains("rank 1"));
    }
}
