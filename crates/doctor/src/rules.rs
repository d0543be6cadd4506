//! The diagnosis rules. Each rule reads the gathered [`RankReport`]s
//! and pushes zero or more [`Finding`]s; thresholds are module
//! constants so tests (and readers) see the exact trip points.

use mimir_obs::{Json, RankReport};

use crate::critical_path::CriticalPath;
use crate::{Finding, Severity};

/// Receive imbalance (max rank / fair share, permille) that merits a
/// warning: 2× the fair share.
pub const SKEW_WARN_PERMILLE: u64 = 2000;
/// Imbalance that merits a critical finding: 4× the fair share.
pub const SKEW_CRIT_PERMILLE: u64 = 4000;
/// Pool headroom margin (permille of budget) under which a run is one
/// growth spurt away from OOM.
pub const HEADROOM_WARN_PERMILLE: u64 = 100;
/// Trace-event loss fraction above which the timeline is untrustworthy.
pub const DROP_CRIT_FRACTION: f64 = 0.05;
/// Slack over the fair `1000/p` permille share of the measured critical
/// path one rank may hold before it counts as outsized: fair + 150‰.
pub const PATH_SHARE_SLACK_PERMILLE: u64 = 150;
/// An outsized rank is *critical* when its on-path time also covers at
/// least this fraction of the run's wall time…
pub const PATH_CRIT_WALL_FRACTION: f64 = 0.5;
/// …and the wall is long enough to matter; start-up noise dominates
/// shorter runs.
pub const PATH_CRIT_MIN_WALL_NS: u64 = 100_000_000;
/// Wall-time fraction spent blocked that makes a rank a deadlock
/// suspect (when it also received nothing).
pub const DEADLOCK_WAIT_FRACTION: f64 = 0.95;
/// Ignore deadlock suspicion on runs shorter than this: start-up
/// barriers dominate tiny runs.
pub const DEADLOCK_MIN_WALL_NS: u64 = 100_000_000;
/// Cache hit rate (hits / lookups, permille) under which the cache is
/// mostly paying misses — names are wrong or datasets are one-shot.
pub const CACHE_HIT_WARN_PERMILLE: u64 = 500;
/// Fraction of the pool budget (permille) the cache must crowd before a
/// low hit rate is worth a warning — a small cold cache is harmless.
pub const CACHE_CROWD_PERMILLE: u64 = 300;
/// Transport handshake time above which world bootstrap stalled —
/// connect retries or a peer that was slow to bind its socket.
pub const HANDSHAKE_WARN_NS: u64 = 1_000_000_000;
/// Average wire bytes per frame under which the run is paying framing
/// and syscall overhead on chatter rather than moving data…
pub const TINY_FRAME_WARN_BYTES: u64 = 256;
/// …but only once enough frames flowed for the ratio to be a pattern.
pub const TINY_FRAME_MIN_FRAMES: u64 = 1000;

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// The measured critical path: reports the per-segment breakdown of the
/// chain of work and messages that determined the wall time, and is
/// critical when one rank holds far more of the path than its fair share
/// *and* that stretch covers most of a long run's wall time. This is a
/// *measurement* from happens-before edges (flow events): a round costs
/// its busiest rank, so the gating rank is read off the edges, not
/// guessed from how far the wait counters spread.
///
/// An outsized share that covers little of the wall stays informational:
/// on an oversubscribed node the scheduler time-slices ranks, and a rank
/// descheduled at the wrong moment holds the path without being slow.
pub fn critical_path_rule(path: &CriticalPath, reports: &[RankReport], out: &mut Vec<Finding>) {
    let p = reports.len().max(1) as u64;
    let fair_permille = 1000 / p;
    let share = path.dominant_share_permille;
    let dominant_ns = path
        .rank_path_ns
        .first()
        .map(|&(_, ns)| ns)
        .unwrap_or_default();
    let outsized = share > fair_permille + PATH_SHARE_SLACK_PERMILLE;
    let severity = if outsized
        && path.wall_ns >= PATH_CRIT_MIN_WALL_NS
        && dominant_ns as f64 >= PATH_CRIT_WALL_FRACTION * path.wall_ns as f64
    {
        Severity::Critical
    } else {
        Severity::Info
    };
    let rounds_total = path.gating.len() as u64;
    // Join the path's per-round gating ranks with the shuffle's receive
    // totals: a rank that both gates rounds and holds an outsized slice
    // of the received bytes is skew-bound (fix the partitioner or merge
    // duplicates before they travel), not compute-bound (fix placement).
    let total_recv: u64 = reports.iter().map(|r| r.shuffle.bytes_received).sum();
    let dominant_recv = reports
        .iter()
        .find(|r| r.rank == path.dominant_rank)
        .map(|r| r.shuffle.bytes_received)
        .unwrap_or(0);
    let recv_share_permille = if total_recv > 0 {
        (dominant_recv as u128 * 1000 * p as u128 / total_recv as u128) as u64
    } else {
        0
    };
    let gated_rounds: Vec<u64> = path
        .gating
        .iter()
        .filter(|&&(_, rank)| rank == path.dominant_rank)
        .map(|&(round, _)| round)
        .collect();
    let skew_bound = recv_share_permille >= SKEW_WARN_PERMILLE;
    out.push(Finding {
        severity,
        code: "critical-path",
        title: if outsized && skew_bound && !gated_rounds.is_empty() {
            format!(
                "rank {} gated round {} while holding {:.1}x its fair \
                 receive share ({} of {} rounds on a {:.1}% path slice)",
                path.dominant_rank,
                gated_rounds[0],
                recv_share_permille as f64 / 1000.0,
                gated_rounds.len(),
                rounds_total,
                share as f64 / 10.0,
            )
        } else if outsized {
            format!(
                "the measured critical path runs through rank {} for {:.1}% \
                 of its length (fair share {:.1}%), gating {} of {} rounds",
                path.dominant_rank,
                share as f64 / 10.0,
                fair_permille as f64 / 10.0,
                path.rounds_gated_by(path.dominant_rank),
                rounds_total,
            )
        } else {
            format!(
                "the measured critical path is balanced: no rank holds more \
                 than {:.1}% of it across {} message edge(s)",
                share as f64 / 10.0,
                path.edges,
            )
        },
        phase: path.dominant_phase,
        ranks: vec![path.dominant_rank],
        evidence: vec![
            ("wall_ns".into(), num(path.wall_ns)),
            ("path_ns".into(), num(path.path_ns)),
            ("compute_ns".into(), num(path.compute_ns)),
            ("comm_ns".into(), num(path.comm_ns)),
            ("wait_ns".into(), num(path.wait_ns)),
            ("edges".into(), num(path.edges)),
            ("dominant_rank".into(), num(path.dominant_rank)),
            ("dominant_path_ns".into(), num(dominant_ns)),
            ("dominant_share_permille".into(), num(share)),
            (
                "rounds_gated_by_dominant".into(),
                num(path.rounds_gated_by(path.dominant_rank)),
            ),
            ("rounds_total".into(), num(rounds_total)),
            ("dominant_recv_bytes".into(), num(dominant_recv)),
            (
                "dominant_recv_share_permille".into(),
                num(recv_share_permille),
            ),
            (
                "gated_rounds".into(),
                Json::Arr(gated_rounds.iter().map(|&r| Json::Num(r as f64)).collect()),
            ),
        ],
        hint: if skew_bound {
            "The gating rank also holds an outsized share of the received \
             bytes: the path is skew-bound. Merge duplicate keys before \
             they travel — KV compression and partial reduction (paper \
             §III-C2; WcOptions cps/pr) — or split the heavy keys with a \
             custom partitioner."
        } else {
            "The path is measured from message-level happens-before \
             edges, not inferred from wait counters. If one rank \
             dominates, rebalance its input or check its placement; if \
             `wait`/`comm` dominate the breakdown, the shuffle is \
             latency-bound — grow comm buffers so fewer rounds run \
             (paper §III-B)."
        },
    });
}

/// Partition skew: per-destination histograms inside a rank (recorded by
/// the shuffler) and receive totals across ranks both measure how far
/// the partitioner is from the uniform ideal the paper assumes.
pub fn partition_skew(reports: &[RankReport], out: &mut Vec<Finding>) {
    // Cross-rank: who received how much.
    let total: u64 = reports.iter().map(|r| r.shuffle.bytes_received).sum();
    let (mut hot_rank, mut hot_bytes) = (0u64, 0u64);
    for r in reports {
        if r.shuffle.bytes_received > hot_bytes {
            (hot_rank, hot_bytes) = (r.rank, r.shuffle.bytes_received);
        }
    }
    let cross_permille = if total > 0 {
        (hot_bytes as u128 * 1000 * reports.len() as u128 / total as u128) as u64
    } else {
        0
    };
    // In-rank: worst per-destination histogram any sender saw.
    let dest_permille = reports
        .iter()
        .map(|r| r.shuffle.imbalance_permille)
        .max()
        .unwrap_or(0);
    let gini = reports
        .iter()
        .map(|r| r.shuffle.gini_permille)
        .max()
        .unwrap_or(0);
    let worst = cross_permille.max(dest_permille);
    if worst < SKEW_WARN_PERMILLE {
        return;
    }
    let severity = if worst >= SKEW_CRIT_PERMILLE {
        Severity::Critical
    } else {
        Severity::Warn
    };
    out.push(Finding {
        severity,
        code: "partition-skew",
        title: format!(
            "shuffle traffic is skewed: the hottest partition carries \
             {:.1}x its fair share (rank {hot_rank} received {hot_bytes} B)",
            worst as f64 / 1000.0,
        ),
        phase: "map/aggregate (shuffle)",
        ranks: vec![hot_rank],
        evidence: vec![
            ("imbalance_permille".into(), num(worst)),
            ("cross_rank_permille".into(), num(cross_permille)),
            ("per_dest_permille".into(), num(dest_permille)),
            ("gini_permille".into(), num(gini)),
            ("hot_rank_bytes".into(), num(hot_bytes)),
            ("total_bytes".into(), num(total)),
        ],
        hint: "Skewed map output concentrates memory and time on few ranks. \
               Enable partial reduction so duplicates fold before they \
               travel (paper §III-C2), or install a custom partitioner that \
               splits the heavy keys.",
    });
}

/// Memory headroom: peak vs budget per node pool, and hard violations.
pub fn memory_headroom(reports: &[RankReport], out: &mut Vec<Finding>) {
    let ooms: u64 = reports.iter().map(|r| r.mem.oom_events).sum();
    if ooms > 0 {
        let ranks: Vec<u64> = reports
            .iter()
            .filter(|r| r.mem.oom_events > 0)
            .map(|r| r.rank)
            .collect();
        out.push(Finding {
            severity: Severity::Critical,
            code: "memory-headroom",
            title: format!("{ooms} allocation(s) were refused for exceeding the pool budget"),
            phase: "",
            ranks,
            evidence: vec![("oom_events".into(), num(ooms))],
            hint: "The job's working set exceeds the node budget. Shrink the \
                   comm buffers, enable KV compression or partial reduction \
                   (paper §III-C), or raise the budget / spill threshold.",
        });
        return;
    }
    // Tightest margin across the metered pools (budget 0 = unmetered).
    let mut tightest: Option<(&RankReport, u64)> = None;
    for r in reports {
        if r.mem.budget_bytes == 0 || r.mem.peak_bytes == 0 {
            continue;
        }
        let margin =
            (r.mem.budget_bytes.saturating_sub(r.mem.peak_bytes)) * 1000 / r.mem.budget_bytes;
        if tightest.is_none_or(|(_, m)| margin < m) {
            tightest = Some((r, margin));
        }
    }
    if let Some((r, margin)) = tightest {
        if margin < HEADROOM_WARN_PERMILLE {
            out.push(Finding {
                severity: Severity::Warn,
                code: "memory-headroom",
                title: format!(
                    "pool peak came within {:.1}% of the budget on rank {} \
                     ({} of {} bytes)",
                    margin as f64 / 10.0,
                    r.rank,
                    r.mem.peak_bytes,
                    r.mem.budget_bytes,
                ),
                phase: "",
                ranks: vec![r.rank],
                evidence: vec![
                    ("peak_bytes".into(), num(r.mem.peak_bytes)),
                    ("budget_bytes".into(), num(r.mem.budget_bytes)),
                    ("margin_permille".into(), num(margin)),
                ],
                hint: "Under 10% headroom, any input growth tips the run into \
                       OOM. The paper's Figure 8 family shows peak memory \
                       tracking the shuffle buffers: reduce comm_buf_size or \
                       turn on partial reduction before scaling up.",
            });
        }
    }
}

/// Trace-ring overwrites: a truncated timeline silently biases every
/// timeline-derived conclusion, so loss itself is a finding.
pub fn dropped_events(reports: &[RankReport], out: &mut Vec<Finding>) {
    let dropped: u64 = reports.iter().map(|r| r.events_dropped).sum();
    if dropped == 0 {
        return;
    }
    let retained: u64 = reports.iter().map(|r| r.events.len() as u64).sum();
    let fraction = dropped as f64 / (dropped + retained) as f64;
    let severity = if fraction > DROP_CRIT_FRACTION {
        Severity::Critical
    } else {
        Severity::Warn
    };
    out.push(Finding {
        severity,
        code: "dropped-events",
        title: format!(
            "{dropped} trace event(s) were overwritten ({:.1}% of the stream)",
            fraction * 100.0
        ),
        phase: "",
        ranks: reports
            .iter()
            .filter(|r| r.events_dropped > 0)
            .map(|r| r.rank)
            .collect(),
        evidence: vec![
            ("events_dropped".into(), num(dropped)),
            ("events_retained".into(), num(retained)),
        ],
        hint: "The ring kept only the newest window; early phases are \
               missing from the timeline. Raise MIMIR_TRACE_CAP (each event \
               is 32 bytes; the default 64Ki events = 2 MiB per rank).",
    });
}

/// Deadlock suspect: a rank that spent ≥95% of its wall time blocked
/// and received nothing was almost certainly waiting on a peer that
/// never spoke — a mis-sequenced collective or a lost message.
pub fn deadlock_suspect(reports: &[RankReport], out: &mut Vec<Finding>) {
    for r in reports {
        let wall_ns = ((r.times.map_s + r.times.convert_s + r.times.reduce_s) * 1e9) as u64;
        if wall_ns < DEADLOCK_MIN_WALL_NS || r.comm.bytes_recvd > 0 {
            continue;
        }
        let wait = r.comm.wait_ns;
        if (wait as f64) < DEADLOCK_WAIT_FRACTION * wall_ns as f64 {
            continue;
        }
        out.push(Finding {
            severity: Severity::Warn,
            code: "deadlock-suspect",
            title: format!(
                "rank {} spent {:.0}% of its wall time blocked and received \
                 no data",
                r.rank,
                100.0 * wait as f64 / wall_ns as f64
            ),
            phase: "",
            ranks: vec![r.rank],
            evidence: vec![
                ("wait_ns".into(), num(wait)),
                ("wall_ns".into(), num(wall_ns)),
                ("bytes_recvd".into(), num(r.comm.bytes_recvd)),
            ],
            hint: "Check for a rank that exited early or a collective called \
                   in different orders on different ranks — the SPMD \
                   discipline requires identical call sequences everywhere.",
        });
    }
}

/// Cross-job cache audit: is the retained memory paying for itself?
/// Warns on a low hit rate while cached bytes crowd the pool, and
/// otherwise reports what the cache saved — elisions and per-name
/// residency. Silent when no run touched the cache.
pub fn cache_efficiency(reports: &[RankReport], out: &mut Vec<Finding>) {
    // Per-rank caches hold disjoint partitions of named datasets, so
    // activity counters and bytes sum across ranks; the pool budget is
    // the shared per-node figure, so it maxes.
    let sum = |f: fn(&RankReport) -> u64| reports.iter().map(f).sum::<u64>();
    let hits = sum(|r| r.cache.hits);
    let misses = sum(|r| r.cache.misses);
    let elisions = sum(|r| r.cache.elisions);
    let cached = sum(|r| r.cache.cached_bytes);
    if hits + misses + elisions + cached == 0 {
        return;
    }
    let budget = reports
        .iter()
        .map(|r| r.mem.budget_bytes)
        .max()
        .unwrap_or(0);
    let lookups = hits + misses;
    let hit_permille = (hits * 1000).checked_div(lookups).unwrap_or(1000);
    let crowd_permille = if budget > 0 {
        (cached as u128 * 1000 / budget as u128) as u64
    } else {
        0
    };
    // Per-name residency and elision savings, merged across ranks.
    let mut names: Vec<(String, u64, u64)> = Vec::new();
    for r in reports {
        for rec in &r.cache_names {
            match names.iter_mut().find(|(n, _, _)| n == &rec.name) {
                Some((_, b, e)) => {
                    *b += rec.bytes;
                    *e += rec.elisions;
                }
                None => names.push((rec.name.clone(), rec.bytes, rec.elisions)),
            }
        }
    }
    names.sort_by(|a, b| a.0.cmp(&b.0));
    let mut evidence = vec![
        ("hits".into(), num(hits)),
        ("misses".into(), num(misses)),
        ("elisions".into(), num(elisions)),
        ("cached_bytes".into(), num(cached)),
        ("hit_permille".into(), num(hit_permille)),
        ("crowd_permille".into(), num(crowd_permille)),
    ];
    for (name, bytes, el) in &names {
        evidence.push((format!("name:{name}:bytes"), num(*bytes)));
        evidence.push((format!("name:{name}:elisions"), num(*el)));
    }
    if lookups > 0
        && hit_permille < CACHE_HIT_WARN_PERMILLE
        && crowd_permille > CACHE_CROWD_PERMILLE
    {
        out.push(Finding {
            severity: Severity::Warn,
            code: "cache-efficiency",
            title: format!(
                "cache holds {:.0}% of the pool but answers only {:.0}% of \
                 lookups",
                crowd_permille as f64 / 10.0,
                hit_permille as f64 / 10.0
            ),
            phase: "",
            ranks: Vec::new(),
            evidence,
            hint: "Retained partitions are charged to the node pool, so a \
                   cold cache squeezes the jobs that run beside it. Check \
                   the chain's names: a miss means a chained job asked for \
                   a name no prior job stashed with output_cached; drop \
                   names the chain no longer reads with cache_remove.",
        });
        return;
    }
    out.push(Finding {
        severity: Severity::Info,
        code: "cache-efficiency",
        title: format!(
            "cross-job cache served {hits} checkout(s) and elided \
             {elisions} shuffle(s); {cached} B resident across {} name(s)",
            names.len()
        ),
        phase: "",
        ranks: Vec::new(),
        evidence,
        hint: "Each elision is a full exchange the chained job skipped \
               because the producer's partitioner fingerprint matched — \
               the M3R-style payoff of keeping de-serialized partitions \
               in place across jobs.",
    });
}

/// Transport wire health: silent on in-process runs (no wire counters),
/// otherwise reports the socket backend's traffic and warns on the two
/// pathologies the counters make visible — a stalled world bootstrap
/// (handshake time over [`HANDSHAKE_WARN_NS`]) and tiny-message chatter
/// (average frame under [`TINY_FRAME_WARN_BYTES`] across at least
/// [`TINY_FRAME_MIN_FRAMES`] frames, i.e. framing overhead rivals the
/// payload).
pub fn transport(reports: &[RankReport], out: &mut Vec<Finding>) {
    let frames: u64 = reports.iter().map(|r| r.comm.wire_frames_sent).sum();
    let wire_bytes: u64 = reports.iter().map(|r| r.comm.wire_bytes_sent).sum();
    let recv_allocs: u64 = reports.iter().map(|r| r.comm.wire_recv_allocs).sum();
    let max_handshake = reports
        .iter()
        .map(|r| r.comm.handshake_ns)
        .max()
        .unwrap_or(0);
    if frames == 0 && max_handshake == 0 {
        // In-process backend: no wire, nothing to diagnose.
        return;
    }
    let stalled: Vec<u64> = reports
        .iter()
        .filter(|r| r.comm.handshake_ns > HANDSHAKE_WARN_NS)
        .map(|r| r.rank)
        .collect();
    let has_stall = !stalled.is_empty();
    if has_stall {
        out.push(Finding {
            severity: Severity::Warn,
            code: "transport",
            title: format!(
                "transport handshake stalled: {:.2} s on the slowest rank",
                max_handshake as f64 / 1e9
            ),
            phase: "bootstrap",
            ranks: stalled,
            evidence: vec![
                ("max_handshake_ns".into(), num(max_handshake)),
                ("warn_ns".into(), num(HANDSHAKE_WARN_NS)),
            ],
            hint: "World bootstrap burned wall time in connect retries or \
                   waiting on peers to bind their sockets. Check for ranks \
                   starting late (slow fork, loaded machine) or a stale \
                   rendezvous directory; raise connect_window only if the \
                   stall is genuine start-up skew.",
        });
    }
    let avg = wire_bytes.checked_div(frames).unwrap_or(0);
    if frames >= TINY_FRAME_MIN_FRAMES && avg < TINY_FRAME_WARN_BYTES {
        out.push(Finding {
            severity: Severity::Warn,
            code: "transport",
            title: format!(
                "tiny-message chatter: {frames} frames averaging {avg} B \
                 on the wire"
            ),
            phase: "",
            ranks: Vec::new(),
            evidence: vec![
                ("wire_frames_sent".into(), num(frames)),
                ("avg_frame_bytes".into(), num(avg)),
                ("warn_bytes".into(), num(TINY_FRAME_WARN_BYTES)),
            ],
            hint: "Each frame pays a header and a socket write; at this \
                   size the overhead rivals the payload. Batch KVs into \
                   larger exchanges (bigger shuffle rounds, Alltoallv mode) \
                   instead of many small point-to-point sends.",
        });
        return;
    }
    if !has_stall {
        out.push(Finding {
            severity: Severity::Info,
            code: "transport",
            title: format!(
                "socket transport moved {wire_bytes} B in {frames} frames \
                 ({avg} B/frame)"
            ),
            phase: "",
            ranks: Vec::new(),
            evidence: vec![
                ("wire_bytes_sent".into(), num(wire_bytes)),
                ("wire_frames_sent".into(), num(frames)),
                ("wire_recv_allocs".into(), num(recv_allocs)),
                ("max_handshake_ns".into(), num(max_handshake)),
            ],
            hint: "Wire counters include framing headers; recv_allocs \
                   counts reader-pool misses (flat after warm-up when the \
                   pooled-buffer economy is working).",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> Vec<RankReport> {
        (0..n)
            .map(|r| {
                let mut rep = RankReport::new(r);
                rep.ranks = n as u64;
                rep
            })
            .collect()
    }

    use mimir_obs::{pack_rank_bytes, Event, EventKind, Phase};

    /// Two ranks, wall 100 ms: rank 1 computes for 90 ms while rank 0
    /// waits, then the done-vote message releases rank 0.
    fn delayed_sender_world(scale_ns: u64) -> Vec<RankReport> {
        let ev = |t_ns, kind, a, b| Event { t_ns, kind, a, b };
        let f = (1u64 << mimir_obs::FLOW_SEQ_BITS) | 1;
        let mut reports = world(2);
        reports[0].events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(scale_ns / 20, EventKind::StepBegin, 0, 0), // sync
            ev(
                scale_ns * 95 / 100,
                EventKind::FlowRecv,
                f,
                pack_rank_bytes(1, 8),
            ),
            ev(scale_ns * 96 / 100, EventKind::StepEnd, 0, 0),
            ev(scale_ns, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        reports[1].events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(
                scale_ns * 90 / 100,
                EventKind::FlowSend,
                f,
                pack_rank_bytes(0, 8),
            ),
            ev(
                scale_ns * 92 / 100,
                EventKind::PhaseEnd,
                Phase::Map as u64,
                0,
            ),
        ];
        reports
    }

    #[test]
    fn critical_path_rule_grades_dominance_by_wall_impact() {
        // 100 ms wall, rank 1 holds ~95% of the path: critical.
        let reports = delayed_sender_world(100_000_000);
        let path = crate::critical_path(&reports).expect("measured");
        let mut out = Vec::new();
        critical_path_rule(&path, &reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "critical-path");
        assert_eq!(out[0].severity, Severity::Critical);
        assert_eq!(out[0].ranks, vec![1]);
        assert_eq!(out[0].phase, "map");

        // Same shape at 1 ms wall: outsized share, but too short to
        // matter, so it is information.
        let reports = delayed_sender_world(1_000_000);
        let path = crate::critical_path(&reports).expect("measured");
        let mut out = Vec::new();
        critical_path_rule(&path, &reports, &mut out);
        assert_eq!(out[0].severity, Severity::Info);
        assert!(out[0].title.contains("runs through rank 1"));
    }

    #[test]
    fn balanced_path_reports_info_only() {
        // Two ranks alternating evenly: shares ~50% each, fair = 500‰.
        let ev = |t_ns, kind, a, b| Event { t_ns, kind, a, b };
        let f01 = 1u64; // rank 0, seq 1
        let f10 = (1u64 << mimir_obs::FLOW_SEQ_BITS) | 1;
        let mut reports = world(2);
        reports[0].events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(50, EventKind::FlowSend, f01, pack_rank_bytes(1, 8)),
            ev(105, EventKind::FlowRecv, f10, pack_rank_bytes(1, 8)),
            ev(110, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        reports[1].events = vec![
            ev(0, EventKind::PhaseBegin, Phase::Map as u64, 0),
            ev(55, EventKind::FlowRecv, f01, pack_rank_bytes(0, 8)),
            ev(100, EventKind::FlowSend, f10, pack_rank_bytes(0, 8)),
            ev(108, EventKind::PhaseEnd, Phase::Map as u64, 0),
        ];
        let path = crate::critical_path(&reports).expect("measured");
        let mut out = Vec::new();
        critical_path_rule(&path, &reports, &mut out);
        assert_eq!(out[0].severity, Severity::Info, "{}", out[0].title);
        assert!(out[0].title.contains("balanced"));
    }

    #[test]
    fn critical_path_joins_gating_with_receive_share() {
        // Rank 1 dominates the path AND holds 1.9x the fair receive
        // share — the finding names the joined skew-bound diagnosis.
        let mut reports = delayed_sender_world(100_000_000);
        reports[1].shuffle.bytes_received = 3800;
        reports[0].shuffle.bytes_received = 200;
        let path = crate::critical_path(&reports).expect("measured");
        let mut out = Vec::new();
        critical_path_rule(&path, &reports, &mut out);
        assert_eq!(out.len(), 1);
        let f = &out[0];
        let ev = |k: &str| {
            f.evidence
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing evidence {k}:\n{f:?}"))
        };
        assert_eq!(ev("dominant_recv_bytes"), Json::Num(3800.0));
        assert_eq!(ev("dominant_recv_share_permille"), Json::Num(1900.0));
        assert!(matches!(ev("gated_rounds"), Json::Arr(_)));
        // 1.9x is below the 2x skew bound: the generic title still runs.
        assert!(f.title.contains("critical path runs through rank 1"));

        // Push the share past the 2x trip and record a round window the
        // dominant rank's path stretch covers: the joined title takes
        // over, naming the gated round.
        reports[1].shuffle.bytes_received = 10_000;
        reports[0].shuffle.bytes_received = 0;
        let ev = |t_ns, kind, a, b| Event { t_ns, kind, a, b };
        reports[1]
            .events
            .insert(1, ev(10_000_000, EventKind::RoundBegin, 7, 0));
        reports[1]
            .events
            .insert(2, ev(80_000_000, EventKind::RoundEnd, 7, 0));
        let path = crate::critical_path(&reports).expect("measured");
        let mut out = Vec::new();
        critical_path_rule(&path, &reports, &mut out);
        let f = &out[0];
        assert!(
            f.title.contains("gated round 7") && f.title.contains("fair receive share"),
            "joined title missing: {}",
            f.title
        );
        assert!(
            f.hint.contains("KV compression") && f.hint.contains("partitioner"),
            "skew-bound hint: {}",
            f.hint
        );
    }

    #[test]
    fn cache_efficiency_is_silent_without_cache_activity() {
        let mut out = Vec::new();
        cache_efficiency(&world(2), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cache_efficiency_reports_elisions_as_info() {
        let mut reports = world(2);
        for r in &mut reports {
            r.cache.hits = 5;
            r.cache.elisions = 4;
            r.cache.cached_bytes = 4096;
            r.cache_names = vec![mimir_obs::CacheNameRecord {
                name: "pr".into(),
                bytes: 4096,
                elisions: 4,
            }];
        }
        let mut out = Vec::new();
        cache_efficiency(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "cache-efficiency");
        assert_eq!(out[0].severity, Severity::Info);
        assert!(out[0].title.contains("elided 8"), "{}", out[0].title);
        let ev_of = |k: &str| {
            out[0]
                .evidence
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing evidence {k}"))
        };
        assert_eq!(ev_of("name:pr:bytes"), Json::Num(8192.0));
        assert_eq!(ev_of("name:pr:elisions"), Json::Num(8.0));
    }

    #[test]
    fn cache_efficiency_warns_on_cold_cache_crowding_the_pool() {
        let mut reports = world(2);
        for r in &mut reports {
            r.cache.hits = 1;
            r.cache.misses = 9;
            r.cache.cached_bytes = 400 << 10;
            r.mem.budget_bytes = 1 << 20;
        }
        let mut out = Vec::new();
        cache_efficiency(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);
        assert!(out[0].title.contains("lookups"), "{}", out[0].title);
    }

    #[test]
    fn transport_is_silent_on_inproc_runs() {
        let mut out = Vec::new();
        transport(&world(4), &mut out);
        assert!(out.is_empty(), "no wire counters, no finding");
    }

    #[test]
    fn transport_reports_healthy_wire_as_info() {
        let mut reports = world(2);
        for r in &mut reports {
            r.comm.wire_frames_sent = 100;
            r.comm.wire_bytes_sent = 100 * 4096;
            r.comm.wire_recv_allocs = 3;
            r.comm.handshake_ns = 2_000_000;
        }
        let mut out = Vec::new();
        transport(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "transport");
        assert_eq!(out[0].severity, Severity::Info);
        assert!(
            out[0].title.contains("4096 B/frame"),
            "got: {}",
            out[0].title
        );
    }

    #[test]
    fn transport_warns_on_handshake_stall_naming_the_rank() {
        let mut reports = world(3);
        for r in &mut reports {
            r.comm.wire_frames_sent = 10;
            r.comm.wire_bytes_sent = 10 * 1024;
            r.comm.handshake_ns = 1_000_000;
        }
        reports[1].comm.handshake_ns = HANDSHAKE_WARN_NS * 3;
        let mut out = Vec::new();
        transport(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);
        assert_eq!(out[0].ranks, vec![1]);
        assert!(out[0].title.contains("handshake stalled"));
    }

    #[test]
    fn transport_warns_on_tiny_message_chatter() {
        let mut reports = world(2);
        for r in &mut reports {
            r.comm.wire_frames_sent = TINY_FRAME_MIN_FRAMES;
            // Average well under the threshold: header-dominated chatter.
            r.comm.wire_bytes_sent = TINY_FRAME_MIN_FRAMES * 40;
            r.comm.handshake_ns = 1_000_000;
        }
        let mut out = Vec::new();
        transport(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);
        assert!(out[0].title.contains("tiny-message chatter"));

        // The same frame count with healthy frame sizes is only info.
        for r in &mut reports {
            r.comm.wire_bytes_sent = TINY_FRAME_MIN_FRAMES * 4096;
        }
        let mut out = Vec::new();
        transport(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Info);
    }

    #[test]
    fn skew_fires_on_concentration_and_names_the_phase() {
        let mut reports = world(4);
        for r in &mut reports {
            r.shuffle.kv_bytes_emitted = 1000;
        }
        reports[0].shuffle.bytes_received = 4000; // everything lands on rank 0
        let mut out = Vec::new();
        partition_skew(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Critical, "4x fair share");
        assert_eq!(out[0].phase, "map/aggregate (shuffle)");
        assert_eq!(out[0].ranks, vec![0]);
        assert!(out[0].hint.contains("III-C2"), "paper-grounded hint");

        // Uniform receives: silent.
        let mut reports = world(4);
        for r in &mut reports {
            r.shuffle.bytes_received = 1000;
        }
        let mut out = Vec::new();
        partition_skew(&reports, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn skew_reads_the_per_destination_histogram_too() {
        let mut reports = world(2);
        reports[1].shuffle.imbalance_permille = 2500; // sender-side view
        let mut out = Vec::new();
        partition_skew(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn headroom_margins_and_violations() {
        let mut reports = world(2);
        reports[0].mem.budget_bytes = 1000;
        reports[0].mem.peak_bytes = 950; // 5% margin
        let mut out = Vec::new();
        memory_headroom(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);

        reports[1].mem.oom_events = 3;
        let mut out = Vec::new();
        memory_headroom(&reports, &mut out);
        assert_eq!(out.len(), 1, "violation supersedes the margin warning");
        assert_eq!(out[0].severity, Severity::Critical);
        assert_eq!(out[0].ranks, vec![1]);

        // Comfortable margin, no OOM: silent. Unmetered (budget 0): silent.
        let mut reports = world(2);
        reports[0].mem.budget_bytes = 1000;
        reports[0].mem.peak_bytes = 500;
        let mut out = Vec::new();
        memory_headroom(&reports, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dropped_events_scale_with_loss_fraction() {
        let mut reports = world(1);
        reports[0].events_dropped = 1;
        for _ in 0..99 {
            reports[0].events.push(mimir_obs::Event {
                t_ns: 0,
                kind: mimir_obs::EventKind::MemSample,
                a: 0,
                b: 0,
            });
        }
        let mut out = Vec::new();
        dropped_events(&reports, &mut out);
        assert_eq!(out[0].severity, Severity::Warn, "1% loss warns");
        assert!(out[0].hint.contains("MIMIR_TRACE_CAP"));

        reports[0].events_dropped = 50;
        let mut out = Vec::new();
        dropped_events(&reports, &mut out);
        assert_eq!(out[0].severity, Severity::Critical, "33% loss is critical");
    }

    #[test]
    fn deadlock_suspect_needs_high_wait_and_silence() {
        let mut reports = world(2);
        reports[1].times.map_s = 0.2;
        reports[1].comm.wait_ns = 198_000_000;
        reports[1].comm.bytes_recvd = 0;
        let mut out = Vec::new();
        deadlock_suspect(&reports, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ranks, vec![1]);

        reports[1].comm.bytes_recvd = 4096; // it did talk: not a deadlock
        let mut out = Vec::new();
        deadlock_suspect(&reports, &mut out);
        assert!(out.is_empty());
    }
}
