use std::panic::AssertUnwindSafe;

use mimir_obs::CommCounters;

use crate::comm::Comm;
use crate::error::{panic_message, DisconnectPanic, WorldError};
use crate::transport::inproc::InprocTransport;
use crate::transport::uds::{self, RankEnd, UdsWorldOptions};
use crate::transport::TransportKind;
use crate::wire::Wire;

/// Runs `f` as an SPMD program across `n_ranks` rank threads and returns
/// the per-rank results indexed by rank.
///
/// Equivalent to `mpiexec -n <n_ranks>` for the in-process world: every
/// rank executes the same closure with its own [`Comm`]. The call blocks
/// until all ranks finish.
///
/// ```
/// use mimir_mpi::{run_world, ReduceOp};
///
/// let sums = run_world(4, |comm| {
///     comm.allreduce_u64(ReduceOp::Sum, comm.rank() as u64)
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]); // 0+1+2+3 on every rank
/// ```
///
/// # Panics
/// If any rank panics, the whole world is torn down (peers blocked on the
/// dead rank wake with disconnect panics, like an MPI job abort) and the
/// *root-cause* panic is re-raised on the caller's thread.
pub fn run_world<R, F>(n_ranks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    match run_world_inner(n_ranks, &f) {
        Ok(results) => results,
        Err(mut panics) => {
            // Prefer a root-cause panic over the disconnect cascade it
            // caused.
            let root = panics
                .iter()
                .position(|(_, p)| !p.is::<DisconnectPanic>())
                .unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(root).1)
        }
    }
}

/// A rank's panic payload, tagged with the rank that raised it.
type RankPanic = (usize, Box<dyn std::any::Any + Send>);

/// Spawns the rank threads and joins them, returning either every rank's
/// result or the full set of `(rank, panic payload)` failures for the
/// caller to interpret.
fn run_world_inner<R, F>(n_ranks: usize, f: &F) -> Result<Vec<R>, Vec<RankPanic>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    assert!(n_ranks > 0, "world needs at least one rank");

    let comms: Vec<Comm> = InprocTransport::make_world(n_ranks)
        .into_iter()
        .enumerate()
        .map(|(rank, t)| Comm::new(rank, n_ranks, Box::new(t)))
        .collect();

    let mut results: Vec<Option<R>> = (0..n_ranks).map(|_| None).collect();
    let mut panics: Vec<RankPanic> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, mut comm)| {
                std::thread::Builder::new()
                    .name(format!("world-rank{rank}"))
                    .spawn_scoped(scope, move || {
                        // Catch the panic so the Comm (and its channel
                        // endpoints) drops deterministically before the
                        // thread exits, waking blocked peers.
                        let res = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                        let stats = res.is_err().then(|| comm.stats());
                        drop(comm);
                        if let Err(payload) = &res {
                            let cause = if payload.is::<DisconnectPanic>() {
                                "disconnect"
                            } else {
                                "panic"
                            };
                            flight_dump(
                                rank,
                                n_ranks,
                                stats,
                                cause,
                                &panic_message(payload.as_ref()),
                            );
                        }
                        res
                    })
                    .expect("spawning rank thread")
            })
            .collect();

        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("rank thread result") {
                Ok(r) => results[rank] = Some(r),
                Err(payload) => panics.push((rank, payload)),
            }
        }
    });

    if !panics.is_empty() {
        return Err(panics);
    }

    Ok(results
        .into_iter()
        .map(|r| r.expect("rank completed without panic"))
        .collect())
}

/// Flight recorder: leaves a doctor-ingestible corpse for a failed rank
/// (a no-op unless the recorder is armed). `stats` are the rank's
/// communication counters, read before its `Comm` dropped; `None` when
/// the rank never got a `Comm`.
pub(crate) fn flight_dump(
    rank: usize,
    world: usize,
    stats: Option<CommCounters>,
    cause: &str,
    message: &str,
) {
    let mut report = mimir_obs::RankReport::new(rank);
    report.comm = stats.unwrap_or_default();
    mimir_obs::flight_dump(report, world, cause, message);
}

/// [`run_world`] for fallible SPMD programs: a rank returning `Err`
/// aborts the world (like `MPI_Abort` — peers blocked on collectives are
/// torn down) and [`WorldError::Aborted`] carries the error back. With
/// multiple failing ranks, the lowest-ranked abort error is returned (the
/// others are dropped).
///
/// A rank that *panics* (instead of returning `Err`) no longer poisons the
/// caller with an opaque re-raised panic: it surfaces as
/// [`WorldError::RankPanicked`] naming the root-cause rank, with the
/// disconnect cascade on its peers folded away.
pub fn run_world_result<R, E, F>(n_ranks: usize, f: F) -> Result<Vec<R>, WorldError<E>>
where
    R: Send,
    E: Send + 'static,
    F: Fn(&mut Comm) -> Result<R, E> + Send + Sync,
{
    struct AbortPayload<E>(E);
    let wrapped = |comm: &mut Comm| match f(comm) {
        Ok(r) => r,
        // resume_unwind skips the panic hook: a rank-error abort is a
        // clean control-flow path, not a bug to report on stderr.
        Err(e) => std::panic::resume_unwind(Box::new(AbortPayload(e))),
    };
    match run_world_inner(n_ranks, &wrapped) {
        Ok(results) => Ok(results),
        Err(panics) => {
            // Precedence: a clean abort wins (it is always a root cause),
            // then a genuine panic, then — if every failure was a
            // disconnect cascade, which cannot happen without a root cause
            // but is handled defensively — the first observer.
            let mut first_panic: Option<(usize, String)> = None;
            let mut first_cascade: Option<(usize, String)> = None;
            for (rank, payload) in panics {
                match payload.downcast::<AbortPayload<E>>() {
                    Ok(abort) => return Err(WorldError::Aborted(abort.0)),
                    Err(payload) => {
                        let slot = if payload.is::<DisconnectPanic>() {
                            &mut first_cascade
                        } else {
                            &mut first_panic
                        };
                        if slot.is_none() {
                            *slot = Some((rank, panic_message(payload.as_ref())));
                        }
                    }
                }
            }
            let (rank, message) = first_panic
                .or(first_cascade)
                .expect("world failed with at least one panic");
            Err(WorldError::RankPanicked { rank, message })
        }
    }
}

/// [`run_world`] on an explicit [`TransportKind`]: rank threads for
/// [`TransportKind::Inproc`], forked rank processes over Unix-domain
/// sockets for [`TransportKind::Uds`]. The closure and its semantics are
/// identical on both backends; `R: Wire` is what lets a result cross the
/// process boundary.
///
/// Combine with [`TransportKind::from_env`] to let `MIMIR_TRANSPORT`
/// choose the backend at run time:
///
/// ```
/// use mimir_mpi::{run_world_on, ReduceOp, TransportKind};
///
/// let sums = run_world_on(TransportKind::from_env(), 4, |comm| {
///     comm.allreduce_u64(ReduceOp::Sum, comm.rank() as u64)
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
///
/// # Panics
/// Like [`run_world`]: the root-cause rank failure is re-raised on the
/// caller's thread (for UDS as a `String` panic carrying the child's
/// panic message, with disconnect cascades and plain child deaths folded
/// away behind any genuine panic).
pub fn run_world_on<R, F>(kind: TransportKind, n_ranks: usize, f: F) -> Vec<R>
where
    R: Wire + Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    match kind {
        TransportKind::Inproc => run_world(n_ranks, f),
        TransportKind::Uds => {
            let ends = uds::run_world_uds(n_ranks, &UdsWorldOptions::default(), &|comm| {
                let mut bytes = Vec::new();
                f(comm).wire_write(&mut bytes);
                (false, bytes)
            });
            if let Some((rank, message)) = uds_failure(&ends) {
                panic!("rank {rank}: {message}");
            }
            ends.into_iter()
                .enumerate()
                .map(|(rank, end)| match end {
                    RankEnd::Ok(bytes) => decode_rank::<R>(rank, bytes),
                    _ => unreachable!("non-Ok rank end after failure check"),
                })
                .collect()
        }
    }
}

/// [`run_world_result`] on an explicit [`TransportKind`]. Abort and panic
/// precedence match the in-process backend: a rank's clean `Err` wins
/// (lowest rank), then a genuine panic, with disconnect cascades folded
/// away.
pub fn run_world_result_on<R, E, F>(
    kind: TransportKind,
    n_ranks: usize,
    f: F,
) -> Result<Vec<R>, WorldError<E>>
where
    R: Wire + Send,
    E: Wire + Send + 'static,
    F: Fn(&mut Comm) -> Result<R, E> + Send + Sync,
{
    match kind {
        TransportKind::Inproc => run_world_result(n_ranks, f),
        TransportKind::Uds => {
            let ends = uds::run_world_uds(n_ranks, &UdsWorldOptions::default(), &|comm| {
                let mut bytes = Vec::new();
                match f(comm) {
                    Ok(r) => {
                        r.wire_write(&mut bytes);
                        (false, bytes)
                    }
                    Err(e) => {
                        e.wire_write(&mut bytes);
                        (true, bytes)
                    }
                }
            });
            for end in &ends {
                if let RankEnd::Abort(bytes) = end {
                    let mut slice = &bytes[..];
                    let e = E::wire_read(&mut slice).expect("decoding abort error");
                    return Err(WorldError::Aborted(e));
                }
            }
            if let Some((rank, message)) = uds_failure(&ends) {
                return Err(WorldError::RankPanicked { rank, message });
            }
            Ok(ends
                .into_iter()
                .enumerate()
                .map(|(rank, end)| match end {
                    RankEnd::Ok(bytes) => decode_rank::<R>(rank, bytes),
                    _ => unreachable!("non-Ok rank end after failure checks"),
                })
                .collect())
        }
    }
}

/// A UDS world with explicit [`UdsWorldOptions`] — timeouts and the
/// fault-injection hooks used by the chaos tests — returning a structured
/// error instead of panicking. Rank failures surface as
/// [`WorldError::RankPanicked`] naming the root cause, with the same
/// precedence as [`run_world_on`]; a child that dies without reporting
/// (killed, fault-injected, or timed out) is folded in as a panic whose
/// message describes how it died.
pub fn run_world_uds_with<R, F>(
    n_ranks: usize,
    opts: &UdsWorldOptions,
    f: F,
) -> Result<Vec<R>, WorldError<String>>
where
    R: Wire + Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let ends = uds::run_world_uds(n_ranks, opts, &|comm| {
        let mut bytes = Vec::new();
        f(comm).wire_write(&mut bytes);
        (false, bytes)
    });
    if let Some((rank, message)) = uds_failure(&ends) {
        return Err(WorldError::RankPanicked { rank, message });
    }
    Ok(ends
        .into_iter()
        .enumerate()
        .map(|(rank, end)| match end {
            RankEnd::Ok(bytes) => decode_rank::<R>(rank, bytes),
            _ => unreachable!("non-Ok rank end after failure check"),
        })
        .collect())
}

fn decode_rank<R: Wire>(rank: usize, bytes: Vec<u8>) -> R {
    let mut slice = &bytes[..];
    let v = R::wire_read(&mut slice)
        .unwrap_or_else(|| panic!("malformed result encoding from rank {rank}"));
    assert!(slice.is_empty(), "trailing result bytes from rank {rank}");
    v
}

/// Root-cause selection for a failed UDS world, mirroring the in-process
/// precedence: a genuine panic beats a silent child death, which beats
/// the disconnect cascade both of them cause on surviving ranks.
fn uds_failure(ends: &[RankEnd]) -> Option<(usize, String)> {
    let mut genuine: Option<(usize, String)> = None;
    let mut died: Option<(usize, String)> = None;
    let mut cascade: Option<(usize, String)> = None;
    for (rank, end) in ends.iter().enumerate() {
        let (slot, message) = match end {
            RankEnd::Panicked {
                message,
                disconnect: false,
            } => (&mut genuine, message),
            RankEnd::Died(message) => (&mut died, message),
            RankEnd::Panicked {
                message,
                disconnect: true,
            } => (&mut cascade, message),
            RankEnd::Ok(_) | RankEnd::Abort(_) => continue,
        };
        if slot.is_none() {
            *slot = Some((rank, message.clone()));
        }
    }
    genuine.or(died).or(cascade)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;

    #[test]
    fn single_rank_world() {
        let out = run_world(1, |c| {
            c.barrier();
            c.rank() + c.size()
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn results_are_rank_indexed() {
        let out = run_world(7, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = run_world(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, &[c.rank() as u8]);
            let got = c.recv(prev, 7);
            got[0] as usize
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn tag_matching_reorders_messages() {
        let out = run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, b"first");
                c.send(1, 2, b"second");
                Vec::new()
            } else {
                // Receive in the opposite order of sending.
                let b = c.recv(0, 2);
                let a = c.recv(0, 1);
                vec![a, b]
            }
        });
        assert_eq!(out[1], vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn self_send_works() {
        let out = run_world(3, |c| {
            let me = c.rank();
            c.send(me, 9, &[me as u8; 4]);
            c.recv(me, 9)
        });
        assert_eq!(out[2], vec![2u8; 4]);
    }

    #[test]
    fn allreduce_all_ops() {
        for (op, expect) in [(ReduceOp::Sum, 15), (ReduceOp::Max, 5), (ReduceOp::Min, 0)] {
            let out = run_world(6, move |c| c.allreduce_u64(op, c.rank() as u64));
            assert!(out.iter().all(|&v| v == expect), "{op:?}");
        }
    }

    #[test]
    fn allreduce_land_votes() {
        let out = run_world(4, |c| c.allreduce_u64(ReduceOp::LAnd, 1));
        assert_eq!(out, vec![1; 4]);
        let out = run_world(4, |c| {
            c.allreduce_u64(ReduceOp::LAnd, u64::from(c.rank() != 2))
        });
        assert_eq!(out, vec![0; 4]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_world(4, |c| c.gather(2, vec![c.rank() as u8; c.rank() + 1]));
        let gathered = out[2].as_ref().unwrap();
        assert_eq!(gathered.len(), 4);
        for (src, buf) in gathered.iter().enumerate() {
            assert_eq!(buf, &vec![src as u8; src + 1]);
        }
        assert!(out[0].is_none());
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let out = run_world(3, |c| c.allgather(vec![c.rank() as u8]));
        for per_rank in &out {
            assert_eq!(per_rank, &vec![vec![0u8], vec![1u8], vec![2u8]]);
        }
    }

    #[test]
    fn allgather_u64() {
        let out = run_world(5, |c| c.allgather_u64(c.rank() as u64 * 100));
        assert_eq!(out[3], vec![0, 100, 200, 300, 400]);
    }

    /// `alltoallv_into` over a receive buffer sized for the exchange:
    /// each rank's `ranges[src]` holds what `src` sent it.
    fn alltoallv_world(n: usize, part: fn(u8, usize) -> Vec<u8>) -> Vec<Vec<Vec<u8>>> {
        run_world(n, move |c| {
            let me = c.rank() as u8;
            let parts: Vec<Vec<u8>> = (0..c.size()).map(|d| part(me, d)).collect();
            let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let mut recv = vec![0u8; 64 * c.size()];
            let ranges = c.alltoallv_into(&slices, &mut recv);
            ranges.into_iter().map(|r| recv[r].to_vec()).collect()
        })
    }

    #[test]
    fn alltoallv_transposes_the_matrix() {
        // parts[d] = [me, d] repeated (d+1) times
        let out = alltoallv_world(4, |me, d| [me, d as u8].repeat(d + 1));
        for (dst, received) in out.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &[src as u8, dst as u8].repeat(dst + 1));
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_partitions() {
        let out = alltoallv_world(3, |_, _| Vec::new());
        assert!(out
            .iter()
            .all(|r| r.len() == 3 && r.iter().all(Vec::is_empty)));
    }

    #[test]
    fn repeated_collectives_do_not_cross_match() {
        let out = run_world(4, |c| {
            let mut acc = Vec::new();
            for round in 0..50u64 {
                acc.push(c.allreduce_u64(ReduceOp::Sum, round + c.rank() as u64));
                c.barrier();
            }
            acc
        });
        for per_rank in &out {
            for (round, &v) in per_rank.iter().enumerate() {
                assert_eq!(v, 4 * round as u64 + 6);
            }
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_world(8, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn stats_count_traffic() {
        let out = run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, &[0u8; 100]);
            } else {
                let _ = c.recv(0, 3);
            }
            c.barrier();
            c.stats()
        });
        // rank 0: 100 B payload + 8 B barrier-bcast (it only receives in the
        // barrier's reduce half).
        assert_eq!(out[0].bytes_sent, 100 + 8);
        assert_eq!(out[1].bytes_recvd, 100 + 8);
        assert_eq!(out[0].collectives, 1);
    }

    #[test]
    fn messages_carry_matching_flow_stamps() {
        use mimir_obs::{EventKind, Recorder, FLOW_SEQ_BITS};
        // One shared epoch: cross-rank timestamp comparisons need it.
        let epoch = std::time::Instant::now();
        let out = run_world(2, move |c| {
            mimir_obs::install(Recorder::with_epoch(c.rank(), 1024, epoch));
            if c.rank() == 0 {
                c.send(1, 3, &[7u8; 32]);
            } else {
                let _ = c.recv(0, 3);
            }
            c.barrier();
            let r = mimir_obs::take().unwrap();
            r.events()
        });
        let sends: Vec<_> = out
            .iter()
            .flatten()
            .filter(|e| e.kind == EventKind::FlowSend)
            .collect();
        let recvs: Vec<_> = out
            .iter()
            .flatten()
            .filter(|e| e.kind == EventKind::FlowRecv)
            .collect();
        // The explicit send plus the barrier's internal hops all stamp.
        assert!(!sends.is_empty() && !recvs.is_empty());
        for r in &recvs {
            let matching: Vec<_> = sends.iter().filter(|s| s.a == r.a).collect();
            assert_eq!(matching.len(), 1, "exactly one send per received flow");
            assert!(matching[0].t_ns <= r.t_ns, "send happens before receive");
            // The source rank in the id's high bits matches the b packing.
            assert_eq!(r.a >> FLOW_SEQ_BITS, r.b >> 48);
        }
        // The user payload's edge is present with its byte count.
        assert!(sends
            .iter()
            .any(|s| s.b & 0xFFFF_FFFF_FFFF == 32 && s.b >> 48 == 1));
    }

    #[test]
    fn rank_panic_propagates_as_root_cause() {
        let res = std::panic::catch_unwind(|| {
            run_world(4, |c| {
                if c.rank() == 2 {
                    panic!("deliberate failure on rank 2");
                }
                // Other ranks block on the dead rank and must wake up.
                let _ = c.recv(2, 1);
            });
        });
        let payload = res.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("deliberate failure"), "got: {msg}");
    }

    #[test]
    fn big_world_smoke() {
        let out = run_world(64, |c| c.allreduce_u64(ReduceOp::Sum, 1));
        assert_eq!(out, vec![64; 64]);
    }

    #[test]
    fn result_world_propagates_err_as_aborted() {
        let res: Result<Vec<()>, _> = run_world_result(4, |c| {
            if c.rank() == 1 {
                Err("bad input".to_string())
            } else {
                let _ = c.recv(1, 1);
                Ok(())
            }
        });
        assert_eq!(
            res,
            Err(crate::WorldError::Aborted("bad input".to_string()))
        );
    }

    #[test]
    fn result_world_propagates_panic_as_structured_error() {
        let res: Result<Vec<()>, crate::WorldError<String>> = run_world_result(4, |c| {
            if c.rank() == 2 {
                panic!("deliberate failure on rank 2");
            }
            // Peers wedge on the dead rank; the cascade must fold away.
            let _ = c.recv(2, 1);
            Ok(())
        });
        match res {
            Err(crate::WorldError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 2);
                assert!(message.contains("deliberate failure"), "got: {message}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }
}
