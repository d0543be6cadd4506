//! The per-rank scheduler: a collective program over the parent
//! communicator.
//!
//! Every rank of the world runs one [`JobService`] and drives it in
//! lockstep. All scheduling *decisions* are collective votes
//! (`allreduce` on the parent communicator), so per-rank schedulers can
//! never diverge even though per-rank *observations* — did my
//! reservation probe succeed? has my worker thread finished? — differ:
//!
//! - **admission**: a job starts only when `LAnd` over "my node's
//!   reservation probe succeeded" is true — i.e. the footprint is
//!   reserved on every node or on none;
//! - **completion**: a job leaves the running set only when `LAnd` over
//!   "my worker finished" is true, so no rank joins early;
//! - **outcome**: the terminal outcome is `Max` over per-rank severity
//!   codes (see [`JobOutcome`]), which picks the root cause over
//!   disconnect symptoms.
//!
//! The running jobs themselves never touch the parent communicator:
//! each gets a private duplicate (`Comm::dup`), so scheduler votes and
//! job traffic can interleave freely across threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mimir_core::{lock_cache, shared_cache, CancelToken, MimirContext, SharedKvCache};
use mimir_io::IoModel;
use mimir_mem::{MemPool, Reservation};
use mimir_mpi::{Comm, ReduceOp};
use mimir_obs::{EventKind, JobRecord};

use crate::spec::{JobBody, JobSpec, JobYield};
use crate::state::{JobOutcome, JobState};

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Queued-job capacity; [`JobService::submit`] blocks (driving the
    /// scheduler) while the queue is at capacity — the service's
    /// backpressure boundary.
    pub queue_cap: usize,
    /// Maximum jobs in the running set at once.
    pub max_running: usize,
    /// How many times an OOM-suspended job is re-queued (with its
    /// footprint estimate doubled each time) before it fails.
    pub max_retries: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 16,
            max_running: 4,
            max_retries: 3,
        }
    }
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    /// Current footprint ask (doubles on each OOM suspend).
    footprint: usize,
    retries: u64,
    cancel: CancelToken,
    queued_at: Instant,
    record: JobRecord,
}

struct RunningJob {
    id: u64,
    spec: JobSpec,
    footprint: usize,
    retries: u64,
    cancel: CancelToken,
    /// Held for the job's whole run: the declared footprint stays
    /// charged against the node pool so admission can't oversubscribe
    /// the headroom. Dropped (credited back) at completion or suspend.
    reservation: Reservation,
    handle: JoinHandle<WorkerOut>,
    admitted_at: Instant,
    record: JobRecord,
}

struct FinishedJob {
    id: u64,
    outcome: JobOutcome,
    output: Option<JobYield>,
    record: JobRecord,
}

struct WorkerOut {
    severity: u64,
    output: Option<JobYield>,
}

/// One rank's slice of the job service. See the crate docs for the
/// model; see the module docs for the collective protocol.
///
/// **SPMD discipline.** Every method that schedules — [`submit`],
/// [`tick`], [`run_until_idle`], [`cancel`] — must be called on every
/// rank, in the same order, with equivalent arguments. The service
/// keeps per-rank state convergent by construction, but it cannot
/// repair a world where rank 0 submits a job rank 1 never heard of.
///
/// [`submit`]: JobService::submit
/// [`tick`]: JobService::tick
/// [`run_until_idle`]: JobService::run_until_idle
/// [`cancel`]: JobService::cancel
pub struct JobService<'w> {
    comm: &'w mut Comm,
    pool: MemPool,
    io: IoModel,
    cfg: SchedConfig,
    next_id: u64,
    /// Sorted: priority descending, then id ascending (FIFO within
    /// priority). Identical on every rank.
    queue: Vec<QueuedJob>,
    /// Admission order. Identical on every rank.
    running: Vec<RunningJob>,
    finished: Vec<FinishedJob>,
    /// Last time [`Self::tick`] emitted per-job memory heartbeats;
    /// decimates the heartbeat stream to ~1 ms so a busy tick loop
    /// (500 µs cadence) doesn't double the trace volume.
    last_heartbeat: Instant,
    /// The rank-wide cross-job KV cache, installed on every worker's
    /// context so chained jobs see each other's cached outputs. Cached
    /// pages stay charged to `pool`, which makes them admission-visible;
    /// the admission sweep evicts from here before declaring a footprint
    /// unsatisfiable.
    cache: SharedKvCache,
}

impl<'w> JobService<'w> {
    /// Binds a service to this rank's world communicator, its node's
    /// memory pool, and an I/O model shared by all jobs.
    pub fn new(comm: &'w mut Comm, pool: MemPool, io: IoModel, cfg: SchedConfig) -> Self {
        JobService {
            comm,
            pool,
            io,
            cfg,
            next_id: 0,
            queue: Vec::new(),
            running: Vec::new(),
            finished: Vec::new(),
            last_heartbeat: Instant::now(),
            cache: shared_cache(),
        }
    }

    /// Submits a job and returns its id (assigned in submission order,
    /// identical on every rank).
    ///
    /// **Backpressure**: when the queue is at capacity this call blocks,
    /// driving [`Self::tick`] until a slot frees up — submission rate
    /// can never outrun the service's ability to retire jobs.
    pub fn submit(&mut self, spec: JobSpec) -> u64 {
        while self.queue.len() >= self.cfg.queue_cap {
            if !self.tick() {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        mimir_obs::emit(EventKind::JobSubmit, id, spec.priority);
        let record = JobRecord {
            id,
            name: spec.name.clone(),
            priority: spec.priority,
            ..JobRecord::default()
        };
        self.queue.push(QueuedJob {
            id,
            footprint: spec.footprint_bytes,
            spec,
            retries: 0,
            cancel: CancelToken::new(),
            queued_at: Instant::now(),
            record,
        });
        self.sort_queue();
        id
    }

    /// One scheduler step: sweep the running set for completed jobs,
    /// then admit queued jobs while memory and run slots allow. Returns
    /// whether anything changed (a completion, suspension, admission, or
    /// terminal failure). Collective: every rank must call it in
    /// lockstep.
    pub fn tick(&mut self) -> bool {
        let mut progressed = false;

        // Memory heartbeat: one JobHeartbeat per running job carrying
        // the node pool's current usage, rendered by the chrome exporter
        // as a per-job counter lane. Decimated to ~1 ms.
        if mimir_obs::active() && !self.running.is_empty() {
            let now = Instant::now();
            if now.duration_since(self.last_heartbeat) >= Duration::from_millis(1) {
                self.last_heartbeat = now;
                let used = self.pool.used() as u64;
                for r in &self.running {
                    mimir_obs::emit(EventKind::JobHeartbeat, r.id, used);
                }
            }
        }

        // Completion sweep. Workers that died because a peer collapsed
        // the job communicator count as finished too, so `LAnd` always
        // converges once any rank's worker returns.
        let mut i = 0;
        while i < self.running.len() {
            let local_done = u64::from(self.running[i].handle.is_finished());
            let all_done = self.comm.allreduce_u64(ReduceOp::LAnd, local_done) == 1;
            if all_done {
                let job = self.running.remove(i);
                self.complete(job);
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Admission sweep: strictly in queue order (priority, then
        // FIFO), stopping at the first job that does not fit — memory
        // freed by future completions belongs to the head of the queue,
        // not to whoever happens to fit around it.
        while self.running.len() < self.cfg.max_running && !self.queue.is_empty() {
            if self.queue[0].cancel.is_cancelled() {
                let q = self.queue.remove(0);
                self.finish_unran(q, JobOutcome::Cancelled);
                progressed = true;
                continue;
            }
            let probe = self.pool.probe_reserve(self.queue[0].footprint);
            let all_ok = self
                .comm
                .allreduce_u64(ReduceOp::LAnd, u64::from(probe.is_some()))
                == 1;
            if all_ok {
                let q = self.queue.remove(0);
                let reservation = probe.expect("voted yes with a reservation in hand");
                self.admit(q, reservation);
                progressed = true;
            } else {
                drop(probe);
                if self.try_cache_relief() {
                    progressed = true;
                    continue;
                }
                if self.running.is_empty() {
                    // Nothing the service controls will ever free more
                    // memory: the footprint is unsatisfiable.
                    let q = self.queue.remove(0);
                    self.finish_unran(q, JobOutcome::Failed);
                    progressed = true;
                    continue;
                }
                break;
            }
        }

        progressed
    }

    /// Drives [`Self::tick`] until the queue and running set are both
    /// empty. Collective.
    pub fn run_until_idle(&mut self) {
        while !self.queue.is_empty() || !self.running.is_empty() {
            if !self.tick() {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }

    /// Requests cancellation of a job. Queued jobs are retired (without
    /// running) at the next tick; running jobs observe the flag
    /// cooperatively at their next phase boundary — the cancellation
    /// vote is collective, so every rank's containers unwind and credit
    /// the pool. Must be called on every rank (SPMD discipline).
    pub fn cancel(&mut self, id: u64) {
        if let Some(q) = self.queue.iter().find(|q| q.id == id) {
            q.cancel.cancel();
        } else if let Some(r) = self.running.iter().find(|r| r.id == id) {
            r.cancel.cancel();
        }
    }

    /// Where a job is in its lifecycle, or `None` for an unknown id.
    pub fn state(&self, id: u64) -> Option<JobState> {
        if self.queue.iter().any(|q| q.id == id) {
            return Some(JobState::Queued);
        }
        if self.running.iter().any(|r| r.id == id) {
            return Some(JobState::Running);
        }
        self.finished
            .iter()
            .find(|f| f.id == id)
            .map(|f| f.outcome.final_state())
    }

    /// A finished job's outcome, or `None` while it is still queued or
    /// running (or unknown).
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        self.finished.iter().find(|f| f.id == id).map(|f| f.outcome)
    }

    /// Takes this rank's output of a successfully finished job. Returns
    /// `None` if the job is not finished, did not succeed, or was
    /// already taken.
    pub fn take_output(&mut self, id: u64) -> Option<JobYield> {
        self.finished
            .iter_mut()
            .find(|f| f.id == id)
            .and_then(|f| f.output.take())
    }

    /// A finished job's failure as a [`mimir_core::MimirError`], or
    /// `None` while it runs or when it succeeded. A job whose peer
    /// process died mid-run (or mid-handshake on the socket transport)
    /// comes back as [`mimir_core::MimirError::Disconnected`] — the
    /// reconciliation vote already ran, so this never hangs.
    pub fn take_error(&self, id: u64) -> Option<mimir_core::MimirError> {
        self.outcome(id).and_then(|o| o.as_error())
    }

    /// Per-job lifecycle records for every retired job (for the
    /// `jobs` section of a `RankReport`).
    pub fn job_records(&self) -> Vec<JobRecord> {
        let mut records: Vec<JobRecord> = self.finished.iter().map(|f| f.record.clone()).collect();
        records.sort_by_key(|r| r.id);
        records
    }

    /// Jobs waiting for admission.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// The node memory pool the service admits against.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// The rank-wide cross-job KV cache shared by every job this service
    /// runs (installed on worker contexts at admission).
    pub fn cache(&self) -> SharedKvCache {
        self.cache.clone()
    }

    /// Cache-pressure relief for the admission head: while any rank
    /// still holds resident cached containers (a collective `Max` vote),
    /// those ranks spill them LRU-first and the head's reservation is
    /// re-probed and re-voted. Returns whether the head was admitted.
    /// Bounded: every round with a yes-vote evicts at least one entry on
    /// every rank that voted yes, so the vote goes to no within
    /// `Σ entries` rounds. This is what keeps cache memory — charged to
    /// the pool so admission *sees* it — from deadlocking admission.
    fn try_cache_relief(&mut self) -> bool {
        let footprint = self.queue[0].footprint;
        // A rank whose spill path errors stops claiming evictability, so
        // a broken spill directory cannot wedge the vote loop.
        let mut spill_broken = false;
        loop {
            let evictable = !spill_broken && lock_cache(&self.cache).resident_bytes() > 0;
            let any = self.comm.allreduce_u64(ReduceOp::Max, u64::from(evictable)) == 1;
            if !any {
                return false;
            }
            if evictable {
                // Local spill I/O, no collectives. Target at least one
                // byte so a zero footprint still makes progress.
                let target = (footprint as u64).max(1);
                if let Err(e) = lock_cache(&self.cache).evict_to_spill(target, &self.io) {
                    eprintln!("sched: cache eviction failed: {e}");
                    spill_broken = true;
                }
            }
            let probe = self.pool.probe_reserve(footprint);
            let all_ok = self
                .comm
                .allreduce_u64(ReduceOp::LAnd, u64::from(probe.is_some()))
                == 1;
            if all_ok {
                let q = self.queue.remove(0);
                let reservation = probe.expect("voted yes with a reservation in hand");
                self.admit(q, reservation);
                return true;
            }
            drop(probe);
        }
    }

    fn sort_queue(&mut self) {
        self.queue
            .sort_by_key(|q| std::cmp::Reverse(q.priority_key()));
    }

    fn admit(&mut self, q: QueuedJob, reservation: Reservation) {
        let mut record = q.record;
        record.queued_s += q.queued_at.elapsed().as_secs_f64();
        record.retries = q.retries;
        record.footprint_bytes = q.footprint as u64;
        mimir_obs::emit(EventKind::JobAdmit, q.id, q.footprint as u64);
        // Admitted → Running: duplicate the parent communicator
        // (collective — every rank admits the same job in the same
        // tick) and hand the private comm to a worker thread.
        let comm = self.comm.dup_named(&format!("job{}", q.id));
        let pool = self.pool.clone();
        let io = self.io.clone();
        let cfg = q.spec.config;
        let body = q.spec.body.clone();
        let cancel = q.cancel.clone();
        let cache = self.cache.clone();
        let handle =
            std::thread::spawn(move || run_worker(comm, pool, io, cfg, cancel, cache, body));
        self.running.push(RunningJob {
            id: q.id,
            spec: q.spec,
            footprint: q.footprint,
            retries: q.retries,
            cancel: q.cancel,
            reservation,
            handle,
            admitted_at: Instant::now(),
            record,
        });
    }

    fn complete(&mut self, job: RunningJob) {
        let RunningJob {
            id,
            spec,
            footprint,
            retries,
            cancel,
            reservation,
            handle,
            admitted_at,
            mut record,
        } = job;
        let out = handle.join().unwrap_or(WorkerOut {
            severity: JobOutcome::Panicked.code(),
            output: None,
        });
        // Outcome reconciliation: Max over severities picks the root
        // cause (e.g. one rank's OOM) over its symptoms (the peers'
        // disconnect panics).
        let severity = self.comm.allreduce_u64(ReduceOp::Max, out.severity);
        let outcome = JobOutcome::from_code(severity).unwrap_or(JobOutcome::Panicked);
        record.running_s += admitted_at.elapsed().as_secs_f64();
        // Credit the footprint back before anything else: suspended and
        // finished jobs alike hold nothing against the pool.
        drop(reservation);

        if outcome == JobOutcome::OutOfMemory && retries < self.cfg.max_retries {
            // Suspend-and-retry: the estimate was too low, so double it
            // and send the job back through admission.
            let retries = retries + 1;
            mimir_obs::emit(EventKind::JobSuspend, id, retries);
            self.queue.push(QueuedJob {
                id,
                footprint: footprint.saturating_mul(2),
                spec,
                retries,
                cancel,
                queued_at: Instant::now(),
                record,
            });
            self.sort_queue();
            return;
        }

        mimir_obs::emit(EventKind::JobEnd, id, outcome.code());
        record.outcome = outcome.code();
        if let Some(y) = &out.output {
            record.kvs_out = y.kvs_out;
            record.spill_bytes = y.spill_bytes;
        }
        self.finished.push(FinishedJob {
            id,
            outcome,
            output: if outcome == JobOutcome::Done {
                out.output
            } else {
                None
            },
            record,
        });
    }

    /// Retires a job straight from the queue (cancelled before start,
    /// or unsatisfiable footprint).
    fn finish_unran(&mut self, q: QueuedJob, outcome: JobOutcome) {
        let mut record = q.record;
        record.queued_s += q.queued_at.elapsed().as_secs_f64();
        record.retries = q.retries;
        record.outcome = outcome.code();
        mimir_obs::emit(EventKind::JobEnd, q.id, outcome.code());
        self.finished.push(FinishedJob {
            id: q.id,
            outcome,
            output: None,
            record,
        });
    }
}

impl QueuedJob {
    /// Sort key: higher priority first, then FIFO by id. (Negated id so
    /// one descending sort handles both.)
    fn priority_key(&self) -> (u64, u64) {
        (self.spec.priority, u64::MAX - self.id)
    }
}

/// The worker thread: builds a context over the job's private
/// communicator, runs the body, and classifies how it ended into a
/// severity code for the reconciliation vote.
fn run_worker(
    mut comm: Comm,
    pool: MemPool,
    io: IoModel,
    cfg: mimir_core::MimirConfig,
    cancel: CancelToken,
    cache: SharedKvCache,
    body: JobBody,
) -> WorkerOut {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = MimirContext::new(&mut comm, pool, io, cfg)?;
        ctx.set_cancel_token(cancel);
        ctx.set_cache(cache);
        body(&mut ctx)
    }));
    let (severity, output) = match result {
        Ok(Ok(y)) => (JobOutcome::Done.code(), Some(y)),
        Ok(Err(e)) if e.is_cancelled() => (JobOutcome::Cancelled.code(), None),
        Ok(Err(e)) if e.is_oom() => (JobOutcome::OutOfMemory.code(), None),
        // A body that caught the transport loss and returned it as an
        // error votes the same severity as one that panicked on it.
        Ok(Err(e)) if e.is_disconnected() => (JobOutcome::Disconnected.code(), None),
        Ok(Err(_)) => (JobOutcome::Failed.code(), None),
        Err(payload) if mimir_mpi::is_disconnect_panic(payload.as_ref()) => {
            (JobOutcome::Disconnected.code(), None)
        }
        Err(_) => (JobOutcome::Panicked.code(), None),
    };
    WorkerOut { severity, output }
}

#[cfg(test)]
impl JobSpec {
    /// Test helper: same job, different footprint.
    fn clone_with_footprint(mut self, footprint: usize) -> JobSpec {
        self.footprint_bytes = footprint;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use mimir_core::MimirError;
    use mimir_mem::MemError;
    use mimir_mpi::run_world;

    const RANKS: usize = 2;

    fn service_world<R: Send + 'static>(
        budget: usize,
        cfg: SchedConfig,
        f: impl Fn(&mut JobService<'_>) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        run_world(RANKS, move |comm| {
            let pool = MemPool::new(format!("node{}", comm.rank()), 64 * 1024, budget).unwrap();
            let mut svc = JobService::new(comm, pool, IoModel::free(), cfg);
            f(&mut svc)
        })
    }

    /// A tiny allreduce job: proves the body really ran on the job's
    /// own communicator and produced a deterministic value.
    fn sum_job(name: &str, priority: u64) -> JobSpec {
        JobSpec::new(name, 64 * 1024, |ctx| {
            let total = ctx.allreduce_sum(ctx.rank() as u64 + 1);
            Ok(JobYield::from_data(total.to_le_bytes().to_vec()))
        })
        .priority(priority)
    }

    #[test]
    fn jobs_run_and_deliver_output() {
        let outs = service_world(16 << 20, SchedConfig::default(), |svc| {
            let a = svc.submit(sum_job("a", 0));
            let b = svc.submit(sum_job("b", 0));
            svc.run_until_idle();
            assert_eq!(svc.outcome(a), Some(JobOutcome::Done));
            assert_eq!(svc.state(b), Some(JobState::Done));
            (
                svc.take_output(a).unwrap().data,
                svc.take_output(b).unwrap().data,
            )
        });
        for (a, b) in outs {
            assert_eq!(a, 3u64.to_le_bytes().to_vec(), "1 + 2 over 2 ranks");
            assert_eq!(b, 3u64.to_le_bytes().to_vec());
        }
    }

    #[test]
    fn priority_orders_admission_fifo_within_ties() {
        // One run slot, so admission order is observable via record
        // ordering in time: the high-priority job must finish first.
        let cfg = SchedConfig {
            max_running: 1,
            ..SchedConfig::default()
        };
        let outs = service_world(16 << 20, cfg, |svc| {
            let low1 = svc.submit(sum_job("low1", 1));
            let low2 = svc.submit(sum_job("low2", 1));
            let high = svc.submit(sum_job("high", 9));
            svc.run_until_idle();
            let records = svc.job_records();
            (low1, low2, high, records)
        });
        for (low1, low2, high, records) in outs {
            assert_eq!(records.len(), 3);
            let queued = |id: u64| {
                records
                    .iter()
                    .find(|r| r.id == id)
                    .map(|r| r.queued_s)
                    .unwrap()
            };
            // The high-priority job jumps both low-priority submissions;
            // the two ties keep FIFO order.
            assert!(queued(high) <= queued(low2), "high priority runs first");
            assert!(queued(low1) <= queued(low2), "FIFO within a priority");
        }
    }

    #[test]
    fn oom_job_is_suspended_doubled_and_retried() {
        let outs = service_world(16 << 20, SchedConfig::default(), |svc| {
            // Fails with OOM on the first attempt (on every rank — the
            // vote needs symmetry), succeeds on the second.
            let attempts = Arc::new(AtomicU64::new(0));
            let spec = {
                let attempts = Arc::clone(&attempts);
                JobSpec::new("flaky", 128 * 1024, move |ctx| {
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        return Err(MimirError::Mem(MemError::OutOfMemory {
                            pool: "test".into(),
                            requested: 1,
                            used: 0,
                            budget: 0,
                        }));
                    }
                    let total = ctx.allreduce_sum(1);
                    Ok(JobYield::from_data(total.to_le_bytes().to_vec()))
                })
            };
            let id = svc.submit(spec);
            svc.run_until_idle();
            (
                svc.outcome(id),
                svc.take_output(id).unwrap().data,
                svc.job_records().remove(0),
            )
        });
        for (outcome, data, record) in outs {
            assert_eq!(outcome, Some(JobOutcome::Done));
            assert_eq!(data, 2u64.to_le_bytes().to_vec());
            assert_eq!(record.retries, 1, "one suspend-and-retry cycle");
            assert_eq!(
                record.footprint_bytes,
                256 * 1024,
                "footprint doubled on retry"
            );
        }
    }

    #[test]
    fn oom_retries_exhaust_into_failed() {
        let cfg = SchedConfig {
            max_retries: 2,
            ..SchedConfig::default()
        };
        let outs = service_world(16 << 20, cfg, |svc| {
            let spec = JobSpec::new("hopeless", 64 * 1024, |_ctx| {
                Err(MimirError::Mem(MemError::OutOfMemory {
                    pool: "test".into(),
                    requested: 1,
                    used: 0,
                    budget: 0,
                }))
            });
            let id = svc.submit(spec);
            svc.run_until_idle();
            (
                svc.outcome(id),
                svc.state(id),
                svc.job_records().remove(0),
                svc.pool().used(),
            )
        });
        for (outcome, state, record, used) in outs {
            assert_eq!(
                outcome,
                Some(JobOutcome::OutOfMemory),
                "the root cause survives retry exhaustion"
            );
            assert_eq!(state, Some(JobState::Failed));
            assert_eq!(record.retries, 2, "both retries consumed");
            assert_eq!(used, 0, "no reservation survives a failed job");
        }
    }

    #[test]
    fn unsatisfiable_footprint_fails_instead_of_wedging() {
        let outs = service_world(1 << 20, SchedConfig::default(), |svc| {
            let id = svc.submit(sum_job("whale", 0).clone_with_footprint(64 << 20));
            svc.run_until_idle();
            svc.outcome(id)
        });
        for outcome in outs {
            assert_eq!(outcome, Some(JobOutcome::Failed));
        }
    }

    #[test]
    fn panicking_job_reports_panicked_and_releases_memory() {
        let outs = service_world(16 << 20, SchedConfig::default(), |svc| {
            let spec = JobSpec::new("boom", 64 * 1024, |ctx| {
                // Only rank 0 panics; rank 1 blocks in a collective and
                // dies of the disconnect — reconciliation must still
                // report the genuine panic.
                if ctx.rank() == 0 {
                    panic!("job body exploded");
                }
                ctx.barrier();
                ctx.barrier();
                Ok(JobYield::default())
            });
            let id = svc.submit(spec);
            svc.run_until_idle();
            (svc.outcome(id), svc.pool().used())
        });
        for (outcome, used) in outs {
            assert_eq!(outcome, Some(JobOutcome::Panicked));
            assert_eq!(used, 0);
        }
    }

    #[test]
    fn lost_peer_surfaces_as_disconnected_error_not_a_hang() {
        let outs = service_world(16 << 20, SchedConfig::default(), |svc| {
            // Rank 0's body observes the transport loss and returns it as
            // an error; rank 1 blocks on the dead peer and dies of the
            // disconnect cascade. Both vote Disconnected, reconciliation
            // completes, and take_error hands back a typed MimirError.
            let spec = JobSpec::new("lost-peer", 64 * 1024, |ctx| {
                if ctx.rank() == 0 {
                    return Err(mimir_core::MimirError::Disconnected(
                        "peer socket closed mid-exchange".into(),
                    ));
                }
                ctx.barrier();
                Ok(JobYield::default())
            });
            let id = svc.submit(spec);
            let ok = svc.submit(sum_job("after", 0));
            svc.run_until_idle();
            (
                svc.outcome(id),
                svc.take_error(id),
                svc.take_error(ok),
                svc.pool().used(),
            )
        });
        for (outcome, err, ok_err, used) in outs {
            assert_eq!(outcome, Some(JobOutcome::Disconnected));
            assert!(err.expect("failed job yields an error").is_disconnected());
            assert!(ok_err.is_none(), "successful jobs yield no error");
            assert_eq!(used, 0, "reservation released despite the loss");
        }
    }

    #[test]
    fn submit_blocks_at_queue_capacity() {
        let cfg = SchedConfig {
            queue_cap: 2,
            max_running: 1,
            ..SchedConfig::default()
        };
        let outs = service_world(16 << 20, cfg, |svc| {
            // 5 submissions against a 2-deep queue and 1 run slot: the
            // later submits can only return by retiring earlier jobs.
            let ids: Vec<u64> = (0..5)
                .map(|i| svc.submit(sum_job(&format!("j{i}"), 0)))
                .collect();
            assert!(svc.queued_len() <= 2, "backpressure bounds the queue");
            svc.run_until_idle();
            ids.iter().map(|&id| svc.outcome(id)).collect::<Vec<_>>()
        });
        for outcomes in outs {
            assert!(outcomes.iter().all(|o| *o == Some(JobOutcome::Done)));
        }
    }

    #[test]
    fn running_jobs_emit_memory_heartbeats() {
        let outs = service_world(16 << 20, SchedConfig::default(), |svc| {
            mimir_obs::install(mimir_obs::Recorder::new(0, 4096));
            let spec = JobSpec::new("sleepy", 64 * 1024, |_ctx| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(JobYield::default())
            });
            let id = svc.submit(spec);
            svc.run_until_idle();
            let rec = mimir_obs::take().expect("recorder installed");
            let events = rec.events();
            events
                .iter()
                .filter(|e| e.kind == EventKind::JobHeartbeat && e.a == id)
                .count()
        });
        for beats in outs {
            assert!(beats >= 1, "a 20 ms job spans at least one 1 ms heartbeat");
        }
    }

    #[test]
    fn cancelling_a_queued_job_retires_it_unran() {
        let cfg = SchedConfig {
            max_running: 1,
            ..SchedConfig::default()
        };
        let outs = service_world(16 << 20, cfg, |svc| {
            let keep = svc.submit(sum_job("keep", 5));
            let drop_ = svc.submit(sum_job("drop", 0));
            svc.cancel(drop_);
            svc.run_until_idle();
            (svc.outcome(keep), svc.outcome(drop_), svc.state(drop_))
        });
        for (keep, dropped, state) in outs {
            assert_eq!(keep, Some(JobOutcome::Done));
            assert_eq!(dropped, Some(JobOutcome::Cancelled));
            assert_eq!(state, Some(JobState::Cancelled));
        }
    }
}
