//! The flight recorder: every failed run leaves a doctor-ingestible
//! corpse.
//!
//! Everything else in `mimir-obs` speaks after the world exits
//! cleanly; this module speaks when a rank dies. [`flight_dump`] writes
//! a crash-scoped postmortem (`rank<r>.crash.jsonl`: a `crash` line,
//! then the rank's report and trace-ring events in the standard
//! JSON-lines format) on panic, abort or disconnect, and an
//! async-signal-safe pre-formatted fallback ([`arm_sigterm`]) covers
//! `SIGTERM` for process-per-rank worlds.
//!
//! Armed with `MIMIR_FLIGHT_DIR=<dir>`, or programmatically via
//! [`set_force_dir`] for tests that must not race on process-wide
//! environment variables. Unarmed, nothing is written.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::json::Json;
use crate::report::RankReport;

/// Process-wide directory override (tests inside one process must not
/// race on `std::env`).
static FORCE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Overrides (or, with `None`, clears the override of) the directory
/// the flight recorder writes into, taking precedence over
/// `MIMIR_FLIGHT_DIR`.
pub fn set_force_dir(dir: Option<PathBuf>) {
    *FORCE.lock().unwrap_or_else(PoisonError::into_inner) = dir;
}

/// The directory crash dumps go to: the [`set_force_dir`] override when
/// set, otherwise `MIMIR_FLIGHT_DIR`; `None` disarms the recorder.
pub fn flight_dir() -> Option<PathBuf> {
    if let Some(dir) = FORCE.lock().unwrap_or_else(PoisonError::into_inner).clone() {
        return Some(dir);
    }
    std::env::var_os("MIMIR_FLIGHT_DIR")
        .filter(|d| !d.is_empty())
        .map(PathBuf::from)
}

/// The `crash` header line of a dump.
fn crash_line(rank: usize, world: usize, cause: &str, message: &str) -> String {
    let crash = Json::obj(vec![
        ("record", Json::Str("crash".into())),
        ("rank", Json::Num(rank as f64)),
        ("world", Json::Num(world as f64)),
        ("cause", Json::Str(cause.into())),
        ("message", Json::Str(message.into())),
    ]);
    format!("{crash}\n")
}

/// Writes a flight-recorder dump for `report.rank`: a `crash` record
/// followed by `report` and this thread's retained trace events (the
/// recorder is taken — the rank is dying) in the standard JSON-lines
/// format, so `mimir-doctor` ingests the corpse directly. The caller
/// fills `report` with what it still holds, such as the rank's
/// communication counters. Returns the dump path, or `None` when the
/// recorder is unarmed or the write failed — the dump is best-effort
/// and must never panic.
pub fn flight_dump(
    mut report: RankReport,
    world: usize,
    cause: &str,
    message: &str,
) -> Option<PathBuf> {
    let dir = flight_dir()?;
    let rank = report.rank as usize;
    if let Some(rec) = crate::recorder::take() {
        report.events_dropped += rec.dropped();
        report.events = rec.events();
    }
    let mut body = crash_line(rank, world, cause, message);
    body.push_str(&crate::jsonl::jsonl_string(&[report]));
    write_dump(&dir, rank, body.as_bytes())
}

/// Atomically (tmp + rename) writes one dump file into `dir`.
fn write_dump(dir: &Path, rank: usize, bytes: &[u8]) -> Option<PathBuf> {
    fs::create_dir_all(dir).ok()?;
    let tmp = dir.join(format!(".rank{rank}.crash.jsonl.tmp"));
    let path = dir.join(format!("rank{rank}.crash.jsonl"));
    fs::write(&tmp, bytes).ok()?;
    fs::rename(&tmp, &path).ok()?;
    Some(path)
}

// --- SIGTERM fallback (process-per-rank worlds) -------------------------
//
// A SIGTERM'd forked rank cannot run the normal dump path (allocating,
// locking) from a signal handler; instead `arm_sigterm` pre-opens the
// dump file and pre-formats the whole dump body, and the handler is two
// raw syscalls: `write` then `_exit`. The buffer is intentionally leaked
// — the handler may fire at any moment, so it must never be freed.

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

/// The pre-opened SIGTERM dump of `rank` inside `dir`.
fn sigterm_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.sigterm.crash.jsonl"))
}

/// Pre-opens the SIGTERM dump file of forked rank `rank` and
/// pre-formats its body, so the handler only needs `write` + `_exit`.
/// Call it only in a process-per-rank world (the handler and its file
/// are process-wide); a no-op when the recorder is unarmed.
#[cfg(unix)]
pub fn arm_sigterm(rank: usize, world: usize) {
    use std::os::unix::io::IntoRawFd;
    let Some(dir) = flight_dir() else { return };
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let Ok(file) = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(sigterm_path(&dir, rank))
    else {
        return;
    };
    let mut body = crash_line(
        rank,
        world,
        "sigterm",
        &format!("rank {rank} received SIGTERM"),
    );
    body.push_str(&crate::jsonl::jsonl_string(&[RankReport::new(rank)]));
    let leaked: &'static [u8] = Box::leak(body.into_bytes().into_boxed_slice());
    sig::PTR.store(leaked.as_ptr() as usize, Ordering::SeqCst);
    sig::LEN.store(leaked.len(), Ordering::SeqCst);
    sig::FD.store(file.into_raw_fd(), Ordering::SeqCst);
    sig::install_handler();
}

/// No SIGTERM fallback off unix.
#[cfg(not(unix))]
pub fn arm_sigterm(_rank: usize, _world: usize) {}

/// Clean shutdown of [`arm_sigterm`]: the handler goes quiet (fd −1)
/// and the pre-created empty dump file is removed, so a clean run
/// leaves no corpse.
#[cfg(unix)]
pub fn disarm_sigterm(rank: usize) {
    let fd = sig::FD.swap(-1, Ordering::SeqCst);
    if fd >= 0 {
        sig::close_fd(fd);
        if let Some(dir) = flight_dir() {
            let _ = fs::remove_file(sigterm_path(&dir, rank));
        }
    }
}

/// No SIGTERM fallback off unix.
#[cfg(not(unix))]
pub fn disarm_sigterm(_rank: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that set the process-wide override.
    static FORCE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn forced_dir_takes_precedence_over_env() {
        let _serial = FORCE_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        set_force_dir(Some(PathBuf::from("/tmp/x")));
        assert_eq!(flight_dir(), Some(PathBuf::from("/tmp/x")));
        set_force_dir(None);
        assert_eq!(
            flight_dir(),
            std::env::var_os("MIMIR_FLIGHT_DIR")
                .filter(|d| !d.is_empty())
                .map(PathBuf::from),
            "clearing the override falls back to the environment"
        );
    }

    #[test]
    fn flight_dump_writes_a_doctor_ingestible_corpse() {
        let _serial = FORCE_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("mimir-flight-dump-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_force_dir(Some(dir.clone()));
        let mut report = RankReport::new(3);
        report.comm.sends = 5;
        let path = flight_dump(report, 4, "panic", "boom at round 7").expect("dumped");
        set_force_dir(None);
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
        assert_eq!(report.comm.sends, 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
