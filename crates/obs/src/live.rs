//! The live telemetry plane and flight recorder.
//!
//! Everything else in `mimir-obs` speaks *after* the world exits; this
//! module speaks *while it runs* — and when it dies. Two pieces:
//!
//! - **Telemetry plane**: each rank arms a [`LiveShared`] accumulator
//!   that instrumentation throughout the stack feeds (comm deltas from
//!   `mimir-mpi`, pool gauges and phase marks from `mimir-core`, job
//!   lanes from `mimir-sched`). A per-rank publisher thread snapshots it
//!   every [`LiveConfig::interval`] into a cumulative [`RankReport`] and
//!   appends one `{"record":"live",...}` line to
//!   `<dir>/rank<r>.live.jsonl`. Sidecar files work identically for
//!   in-process rank threads and forked UDS ranks (children inherit the
//!   environment), so one tailer — the online doctor in `mimir-doctor`
//!   — serves both transports.
//! - **Flight recorder**: [`flight_dump`] writes a crash-scoped
//!   postmortem (`rank<r>.crash.jsonl`: a `crash` line, then the rank's
//!   final report and trace-ring events in the standard JSON-lines
//!   format) on panic, abort, or disconnect, and an async-signal-safe
//!   pre-formatted fallback covers `SIGTERM` for process-per-rank
//!   worlds. Every failed run leaves a doctor-ingestible corpse.
//!
//! Armed with `MIMIR_LIVE_DIR=<dir>` (publish interval
//! `MIMIR_LIVE_INTERVAL_MS`, default 100; crash dir `MIMIR_FLIGHT_DIR`,
//! default `<dir>/postmortem`), or programmatically via
//! [`set_force_config`] for tests and benches that must not race on
//! process-wide environment variables.

use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::report::{
    CommCounters, JobRecord, LiveCounters, MemCounters, RankReport, ShuffleCounters, WaitCounters,
};

/// Phase-gauge value meaning "no phase mark seen yet".
pub const PHASE_NONE: u64 = u64::MAX;

/// Default publish interval when `MIMIR_LIVE_INTERVAL_MS` is unset.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(100);

/// Where and how often the telemetry plane publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveConfig {
    /// Directory receiving one `rank<r>.live.jsonl` sidecar per rank.
    pub dir: PathBuf,
    /// Snapshot publish interval.
    pub interval: Duration,
    /// Directory receiving flight-recorder crash dumps.
    pub flight_dir: PathBuf,
}

impl LiveConfig {
    /// A config publishing into `dir` at the default interval, with
    /// crash dumps under `<dir>/postmortem`.
    pub fn new(dir: impl Into<PathBuf>) -> LiveConfig {
        let dir = dir.into();
        let flight_dir = dir.join("postmortem");
        LiveConfig {
            dir,
            interval: DEFAULT_INTERVAL,
            flight_dir,
        }
    }

    /// Reads `MIMIR_LIVE_DIR` / `MIMIR_LIVE_INTERVAL_MS` /
    /// `MIMIR_FLIGHT_DIR`; `None` when no live dir is configured.
    pub fn from_env() -> Option<LiveConfig> {
        let dir = std::env::var("MIMIR_LIVE_DIR").ok()?;
        if dir.is_empty() {
            return None;
        }
        let mut cfg = LiveConfig::new(dir);
        if let Ok(raw) = std::env::var("MIMIR_LIVE_INTERVAL_MS") {
            if let Ok(ms) = raw.trim().parse::<u64>() {
                cfg.interval = Duration::from_millis(ms.max(1));
            }
        }
        if let Ok(flight) = std::env::var("MIMIR_FLIGHT_DIR") {
            if !flight.is_empty() {
                cfg.flight_dir = PathBuf::from(flight);
            }
        }
        Some(cfg)
    }
}

/// Process-wide config override (tests and benches inside one process
/// must not race on `std::env`).
static FORCE: Mutex<Option<LiveConfig>> = Mutex::new(None);

/// Overrides (or, with `None`, clears the override of) the config that
/// [`arm`] and [`flight_dump`] consult, taking precedence over the
/// environment.
pub fn set_force_config(cfg: Option<LiveConfig>) {
    *FORCE.lock().unwrap() = cfg;
}

/// The effective config: the [`set_force_config`] override when set,
/// otherwise the environment; `None` disarms the plane.
pub fn config() -> Option<LiveConfig> {
    if let Some(cfg) = FORCE.lock().unwrap().clone() {
        return Some(cfg);
    }
    LiveConfig::from_env()
}

/// One rank's shared live-telemetry state: instrumentation pushes into
/// it from the rank thread, the publisher thread snapshots it.
#[derive(Debug)]
pub struct LiveShared {
    rank: u64,
    world: u64,
    start: Instant,
    seq: AtomicU64,
    /// Latest phase mark (a `Phase` discriminant, or [`PHASE_NONE`]).
    phase: AtomicU64,
    /// Nanoseconds of the *currently in-flight* blocked receive — the
    /// signal that keeps a waiting rank's wait climbing between receive
    /// completions, so the straggler rule can fire while the cluster is
    /// still stuck.
    pending_wait_ns: AtomicU64,
    /// The accumulated sections — comm, waits, mem, shuffle, jobs, live
    /// — under one uncontended lock shared by the rank thread and its
    /// 10 Hz publisher.
    inner: Mutex<RankReport>,
}

impl LiveShared {
    /// An empty accumulator for `rank` of `world`, installed nowhere yet
    /// ([`install_shared`]; [`arm`] also starts the publisher).
    pub fn new(rank: u64, world: u64) -> LiveShared {
        LiveShared {
            rank,
            world,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            phase: AtomicU64::new(PHASE_NONE),
            pending_wait_ns: AtomicU64::new(0),
            inner: Mutex::new(RankReport {
                ranks: world,
                ..RankReport::new(rank as usize)
            }),
        }
    }

    /// The rank this accumulator describes.
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// The world size the rank belongs to.
    pub fn world(&self) -> u64 {
        self.world
    }

    /// Milliseconds since the plane was armed.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Folds a communication-counter delta in (cumulative sums).
    pub fn add_comm(&self, delta: &CommCounters) {
        self.inner.lock().unwrap().comm.merge(delta);
    }

    /// Folds a wait-attribution delta in (cumulative sums).
    pub fn add_waits(&self, delta: &WaitCounters) {
        self.inner.lock().unwrap().waits.merge(delta);
    }

    /// Replaces the memory gauges (the pool's counters are already
    /// cumulative, so the latest view wins).
    pub fn set_mem(&self, mem: MemCounters) {
        self.inner.lock().unwrap().mem = mem;
    }

    /// Replaces the shuffle counters with the active shuffle's latest
    /// cumulative view.
    pub fn set_shuffle(&self, shuffle: ShuffleCounters) {
        self.inner.lock().unwrap().shuffle = shuffle;
    }

    /// Replaces the per-job lane records (the scheduler's current
    /// running set).
    pub fn set_jobs(&self, jobs: Vec<JobRecord>) {
        self.inner.lock().unwrap().jobs = jobs;
    }

    /// Marks the phase the rank is currently in.
    pub fn set_phase(&self, phase: u64) {
        self.phase.store(phase, Ordering::Relaxed);
    }

    /// The latest phase mark ([`PHASE_NONE`] when never marked).
    pub fn phase(&self) -> u64 {
        self.phase.load(Ordering::Relaxed)
    }

    /// Publishes the progress of an in-flight blocked receive (0 clears
    /// it on completion).
    pub fn set_pending_wait(&self, ns: u64) {
        self.pending_wait_ns.store(ns, Ordering::Relaxed);
    }

    /// Counts one flight-recorder dump.
    pub fn count_flight_dump(&self) {
        self.inner.lock().unwrap().live.flight_dumps += 1;
    }

    /// The publisher's own bookkeeping counters.
    pub fn live_counters(&self) -> LiveCounters {
        self.inner.lock().unwrap().live
    }

    /// Builds the cumulative counters-only report the publisher ships:
    /// accumulated sections, the in-flight blocked receive folded into
    /// the waits, and `times.map_s` carrying wall-clock-since-arm so a
    /// windowed delta always sees time advancing — even on a rank that
    /// is stuck.
    pub fn snapshot(&self) -> RankReport {
        let mut r = self.inner.lock().unwrap().clone();
        let pending = self.pending_wait_ns.load(Ordering::Relaxed);
        r.waits.total_wait_ns += pending;
        r.waits.sync_wait_ns += pending;
        r.times.map_s = self.start.elapsed().as_secs_f64();
        r
    }

    fn record_publish(&self, bytes: u64, spent: Duration, lag_ms: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.live.snapshots += 1;
        inner.live.published_bytes += bytes;
        inner.live.publish_ns += spent.as_nanos() as u64;
        inner.live.max_publish_lag_ms = inner.live.max_publish_lag_ms.max(lag_ms);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<LiveShared>>> = const { RefCell::new(None) };
}

/// Installs `shared` as this thread's live accumulator (instrumentation
/// free functions and new communicators pick it up), returning any
/// previous one.
pub fn install_shared(shared: Arc<LiveShared>) -> Option<Arc<LiveShared>> {
    CURRENT.with(|c| c.borrow_mut().replace(shared))
}

/// Removes and returns this thread's live accumulator.
pub fn take_shared() -> Option<Arc<LiveShared>> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// This thread's live accumulator, if the plane is armed here.
pub fn shared() -> Option<Arc<LiveShared>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Marks the phase this thread's rank is in; a no-op when unarmed.
pub fn note_phase(phase: u64) {
    CURRENT.with(|c| {
        if let Some(l) = c.borrow().as_ref() {
            l.set_phase(phase);
        }
    });
}

/// Publishes the rank's latest memory-pool gauges; a no-op when unarmed.
pub fn note_mem(mem: MemCounters) {
    CURRENT.with(|c| {
        if let Some(l) = c.borrow().as_ref() {
            l.set_mem(mem);
        }
    });
}

/// Publishes the active shuffle's latest counters; a no-op when unarmed.
pub fn note_shuffle(shuffle: ShuffleCounters) {
    CURRENT.with(|c| {
        if let Some(l) = c.borrow().as_ref() {
            l.set_shuffle(shuffle);
        }
    });
}

/// Publishes the scheduler's current per-job lane records; a no-op when
/// unarmed.
pub fn note_jobs(jobs: Vec<JobRecord>) {
    CURRENT.with(|c| {
        if let Some(l) = c.borrow().as_ref() {
            l.set_jobs(jobs);
        }
    });
}

/// A running telemetry plane on one rank: owns the publisher thread and
/// disarms on [`LiveHandle::disarm`] (or drop, best-effort).
#[derive(Debug)]
pub struct LiveHandle {
    shared: Arc<LiveShared>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
    process_scoped: bool,
}

impl LiveHandle {
    /// The accumulator the publisher is snapshotting.
    pub fn shared(&self) -> Arc<LiveShared> {
        Arc::clone(&self.shared)
    }

    /// Stops the publisher (it writes a final snapshot and a `live_end`
    /// record first), uninstalls the thread-local accumulator, and
    /// returns the publisher's bookkeeping counters so the caller can
    /// fold them into the rank's final report.
    pub fn disarm(mut self) -> LiveCounters {
        self.shutdown();
        take_shared();
        self.shared.live_counters()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
        if self.process_scoped {
            sigterm_disarm();
        }
    }
}

impl Drop for LiveHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Arms the telemetry plane for `rank` of `world`: creates the live
/// dir, installs the thread-local accumulator on the calling (rank)
/// thread, and spawns the publisher. `process_scoped` additionally
/// installs the async-signal-safe `SIGTERM` flight-recorder fallback —
/// pass it only for process-per-rank worlds (the handler and its
/// pre-opened dump file are process-wide).
///
/// Returns `None` when no live dir is configured ([`config`]) or the
/// sidecar file cannot be created (telemetry is best-effort; the job
/// must not die for it).
pub fn arm(rank: usize, world: usize, process_scoped: bool) -> Option<LiveHandle> {
    let cfg = config()?;
    if fs::create_dir_all(&cfg.dir).is_err() {
        return None;
    }
    let path = cfg.dir.join(format!("rank{rank}.live.jsonl"));
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .ok()?;
    let shared = Arc::new(LiveShared::new(rank as u64, world as u64));
    install_shared(Arc::clone(&shared));
    if process_scoped {
        sigterm_arm(&cfg, rank, world);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = Publisher {
        shared: Arc::clone(&shared),
        stop: Arc::clone(&stop),
        file,
        interval: cfg.interval,
    };
    let join = thread::Builder::new()
        .name(format!("mimir-live-{rank}"))
        .spawn(move || publisher.run())
        .ok()?;
    Some(LiveHandle {
        shared,
        stop,
        join: Some(join),
        process_scoped,
    })
}

struct Publisher {
    shared: Arc<LiveShared>,
    stop: Arc<AtomicBool>,
    file: File,
    interval: Duration,
}

impl Publisher {
    fn run(mut self) {
        let mut next = Instant::now() + self.interval;
        loop {
            loop {
                if self.stop.load(Ordering::SeqCst) {
                    // Final snapshot so the tailer sees the end state,
                    // then the end-of-stream marker.
                    self.publish(0);
                    self.finish();
                    return;
                }
                let now = Instant::now();
                if now >= next {
                    break;
                }
                thread::park_timeout(next - now);
            }
            let lag = Instant::now().saturating_duration_since(next);
            self.publish(lag.as_millis() as u64);
            let now = Instant::now();
            next += self.interval;
            if next < now {
                // Missed intervals (a paused process, a slow disk):
                // realign rather than publishing a catch-up burst.
                next = now + self.interval;
            }
        }
    }

    /// Appends one cumulative `live` record.
    fn publish(&mut self, lag_ms: u64) {
        let t0 = Instant::now();
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let report = self.shared.snapshot();
        let mut line = Json::obj(vec![("record", Json::Str("live".into()))]);
        if let (Json::Obj(dst), Json::Obj(src)) = (&mut line, report.to_json()) {
            dst.extend(src);
        }
        if let Json::Obj(dst) = &mut line {
            dst.push(("world".into(), Json::Num(self.shared.world as f64)));
            dst.push(("seq".into(), Json::Num(seq as f64)));
            dst.push(("t_ms".into(), Json::Num(self.shared.elapsed_ms() as f64)));
            dst.push(("phase".into(), Json::Num(self.shared.phase() as f64)));
        }
        let mut text = line.to_string();
        text.push('\n');
        let ok = self
            .file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.flush())
            .is_ok();
        if ok {
            self.shared
                .record_publish(text.len() as u64, t0.elapsed(), lag_ms);
        }
    }

    fn finish(&mut self) {
        let end = Json::obj(vec![
            ("record", Json::Str("live_end".into())),
            ("rank", Json::Num(self.shared.rank as f64)),
            ("t_ms", Json::Num(self.shared.elapsed_ms() as f64)),
        ]);
        let mut text = end.to_string();
        text.push('\n');
        let _ = self.file.write_all(text.as_bytes());
        let _ = self.file.flush();
    }
}

/// Writes a flight-recorder dump for `rank`: a `crash` record followed
/// by the rank's report and retained trace events in the standard
/// JSON-lines format (so `mimir-doctor` ingests the corpse directly).
/// Uses this thread's armed accumulator for the counters when present,
/// and this thread's trace recorder (taken — the rank is dying) for the
/// events. Returns the dump path, or `None` when no config is set or
/// the write failed — the dump is best-effort and must never panic.
pub fn flight_dump(rank: usize, world: usize, cause: &str, message: &str) -> Option<PathBuf> {
    let cfg = config()?;
    let mut report = match shared() {
        Some(l) => {
            l.count_flight_dump();
            l.snapshot()
        }
        None => {
            let mut r = RankReport::new(rank);
            r.live.flight_dumps = 1;
            r
        }
    };
    report.rank = rank as u64;
    if let Some(rec) = crate::recorder::take() {
        report.events_dropped += rec.dropped();
        report.events = rec.events();
    }
    let phase = shared().map_or(PHASE_NONE, |l| l.phase());
    let crash = Json::obj(vec![
        ("record", Json::Str("crash".into())),
        ("rank", Json::Num(rank as f64)),
        ("world", Json::Num(world as f64)),
        ("cause", Json::Str(cause.into())),
        ("phase", Json::Num(phase as f64)),
        ("message", Json::Str(message.into())),
    ]);
    let mut body = crash.to_string();
    body.push('\n');
    body.push_str(&crate::jsonl::jsonl_string(&[report]));
    write_dump(&cfg.flight_dir, rank, "crash", body.as_bytes())
}

/// Atomically (tmp + rename) writes one dump file into `dir`.
fn write_dump(dir: &Path, rank: usize, kind: &str, bytes: &[u8]) -> Option<PathBuf> {
    fs::create_dir_all(dir).ok()?;
    let tmp = dir.join(format!(".rank{rank}.{kind}.jsonl.tmp"));
    let path = dir.join(format!("rank{rank}.{kind}.jsonl"));
    fs::write(&tmp, bytes).ok()?;
    fs::rename(&tmp, &path).ok()?;
    Some(path)
}

// --- SIGTERM fallback (process-per-rank worlds) -------------------------
//
// A SIGTERM'd forked rank cannot run the normal dump path (allocating,
// locking) from a signal handler; instead `arm` pre-opens the dump file
// and pre-formats the whole dump body, and the handler is two raw
// syscalls: `write` then `_exit`. The buffer is intentionally leaked —
// the handler may fire at any moment, so it must never be freed.

#[cfg(unix)]
mod sig {
    use super::*;

    pub(super) const SIGTERM: i32 = 15;
    /// Exit code a SIGTERM'd rank dies with after dumping.
    pub(super) const TERM_EXIT: i32 = 102;

    pub(super) static FD: AtomicI32 = AtomicI32::new(-1);
    pub(super) static PTR: AtomicUsize = AtomicUsize::new(0);
    pub(super) static LEN: AtomicUsize = AtomicUsize::new(0);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, len: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn _exit(code: i32) -> !;
    }

    pub(super) extern "C" fn on_sigterm(_sig: i32) {
        let fd = FD.load(Ordering::SeqCst);
        let ptr = PTR.load(Ordering::SeqCst) as *const u8;
        let len = LEN.load(Ordering::SeqCst);
        if fd >= 0 && !ptr.is_null() && len > 0 {
            // Best-effort single write; nothing to do on failure.
            unsafe {
                let _ = write(fd, ptr, len);
            }
        }
        unsafe { _exit(TERM_EXIT) }
    }

    pub(super) fn install_handler() {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        });
    }

    pub(super) fn close_fd(fd: i32) {
        unsafe {
            close(fd);
        }
    }
}

/// Pre-opens the SIGTERM dump file and pre-formats its body so the
/// handler only needs `write` + `_exit`.
#[cfg(unix)]
fn sigterm_arm(cfg: &LiveConfig, rank: usize, world: usize) {
    use std::os::unix::io::IntoRawFd;
    if fs::create_dir_all(&cfg.flight_dir).is_err() {
        return;
    }
    let path = cfg
        .flight_dir
        .join(format!("rank{rank}.sigterm.crash.jsonl"));
    let Ok(file) = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
    else {
        return;
    };
    let crash = Json::obj(vec![
        ("record", Json::Str("crash".into())),
        ("rank", Json::Num(rank as f64)),
        ("world", Json::Num(world as f64)),
        ("cause", Json::Str("sigterm".into())),
        ("phase", Json::Num(PHASE_NONE as f64)),
        (
            "message",
            Json::Str(format!("rank {rank} received SIGTERM")),
        ),
    ]);
    let mut report = RankReport::new(rank);
    report.live.flight_dumps = 1;
    let mut body = crash.to_string();
    body.push('\n');
    body.push_str(&crate::jsonl::jsonl_string(&[report]));
    let leaked: &'static [u8] = Box::leak(body.into_bytes().into_boxed_slice());
    sig::PTR.store(leaked.as_ptr() as usize, Ordering::SeqCst);
    sig::LEN.store(leaked.len(), Ordering::SeqCst);
    sig::FD.store(file.into_raw_fd(), Ordering::SeqCst);
    sig::install_handler();
}

#[cfg(not(unix))]
fn sigterm_arm(_cfg: &LiveConfig, _rank: usize, _world: usize) {}

/// Clean shutdown: the handler goes quiet (fd −1) and the pre-created
/// empty dump file is removed so a clean run leaves no corpse.
#[cfg(unix)]
fn sigterm_disarm() {
    let fd = sig::FD.swap(-1, Ordering::SeqCst);
    if fd >= 0 {
        sig::close_fd(fd);
        if let Some(cfg) = config() {
            if let Some(rank) = shared().map(|l| l.rank()) {
                let _ = fs::remove_file(
                    cfg.flight_dir
                        .join(format!("rank{rank}.sigterm.crash.jsonl")),
                );
            }
        }
    }
}

#[cfg(not(unix))]
fn sigterm_disarm() {}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mimir-live-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_folds_pending_wait_and_advances_wall() {
        let l = LiveShared::new(2, 4);
        l.add_comm(&CommCounters {
            sends: 3,
            ..CommCounters::default()
        });
        l.add_waits(&WaitCounters {
            total_wait_ns: 1000,
            ..WaitCounters::default()
        });
        l.set_pending_wait(500);
        let s = l.snapshot();
        assert_eq!(s.rank, 2);
        assert_eq!(s.comm.sends, 3);
        assert_eq!(s.waits.total_wait_ns, 1500, "pending wait folds in");
        assert_eq!(s.waits.sync_wait_ns, 500);
        assert!(s.times.map_s >= 0.0);
        l.set_pending_wait(0);
        assert_eq!(l.snapshot().waits.total_wait_ns, 1000);
    }

    #[test]
    fn publisher_writes_parseable_live_records() {
        let dir = temp_dir("pub");
        let cfg = LiveConfig {
            dir: dir.clone(),
            interval: Duration::from_millis(5),
            flight_dir: dir.join("postmortem"),
        };
        set_force_config(Some(cfg));
        let handle = arm(1, 4, false).expect("armed");
        handle.shared().add_comm(&CommCounters {
            sends: 9,
            ..CommCounters::default()
        });
        handle.shared().set_phase(0);
        std::thread::sleep(Duration::from_millis(30));
        let counters = handle.disarm();
        set_force_config(None);
        assert!(counters.snapshots >= 1, "published at least once");
        assert!(counters.published_bytes > 0);
        let text = fs::read_to_string(dir.join("rank1.live.jsonl")).unwrap();
        let docs = Json::parse_lines(&text).unwrap();
        assert!(docs.len() >= 2, "live records plus live_end");
        let first = &docs[0];
        assert_eq!(first.get("record").unwrap().as_str(), Some("live"));
        assert_eq!(first.get("world").unwrap().as_u64(), Some(4));
        let parsed = RankReport::from_json(first).unwrap();
        assert_eq!(parsed.rank, 1);
        let last = docs.last().unwrap();
        assert_eq!(last.get("record").unwrap().as_str(), Some("live_end"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_dump_writes_a_doctor_ingestible_corpse() {
        let dir = temp_dir("dump");
        set_force_config(Some(LiveConfig::new(dir.clone())));
        let path = flight_dump(3, 4, "panic", "boom at round 7").expect("dumped");
        set_force_config(None);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "rank3.crash.jsonl"
        );
        let text = fs::read_to_string(&path).unwrap();
        let docs = Json::parse_lines(&text).unwrap();
        assert_eq!(docs[0].get("record").unwrap().as_str(), Some("crash"));
        assert_eq!(docs[0].get("cause").unwrap().as_str(), Some("panic"));
        assert_eq!(docs[0].get("rank").unwrap().as_u64(), Some(3));
        let report_line = docs
            .iter()
            .find(|d| d.get("record").and_then(Json::as_str) == Some("report"))
            .expect("dump carries a report line");
        let report = RankReport::from_json(report_line).unwrap();
        assert_eq!(report.rank, 3);
        assert_eq!(report.live.flight_dumps, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_config_parses_interval_and_flight_dir() {
        // Force-config precedence is what the parallel test suite
        // relies on; spot-check it too.
        set_force_config(Some(LiveConfig::new("/tmp/x")));
        assert_eq!(config().unwrap().dir, PathBuf::from("/tmp/x"));
        assert_eq!(
            config().unwrap().flight_dir,
            PathBuf::from("/tmp/x/postmortem")
        );
        set_force_config(None);
    }
}
