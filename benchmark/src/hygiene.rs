//! Run hygiene: what must be true of the process before anything is
//! timed, and what is recorded about the machine alongside the numbers.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::json::Json;

/// Refuses to measure an unoptimised build.
///
/// # Errors
/// Always, in a build with debug assertions.
pub fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "mimir-perf measures optimised builds only: run with `cargo run --release`".into(),
        );
    }
    Ok(())
}

/// Removes every `MIMIR_*` variable, so no tracing, live plane, flight
/// recorder or transport override leaks from the caller's shell into a
/// timed world. Returns the names removed. Call before any thread exists.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MIMIR_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// The one scratch directory of a run: inputs, UDS rendezvous sockets and
/// MR-MPI spill files all live under it, and it is removed when the guard
/// drops — on success, on failure, and explicitly before a watchdog exit.
///
/// The process works from the benchmark's own directory and `TMPDIR` is
/// set to a *relative* path under it: the transport's rendezvous
/// directory follows `TMPDIR`, socket paths are capped near 108 bytes,
/// and a relative path stays short however deep the checkout is.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// # Errors
    /// OS failures changing directory or creating the scratch tree.
    pub fn create() -> std::io::Result<Scratch> {
        std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))?;
        let root = PathBuf::from(format!("out/tmp-{}", std::process::id()));
        std::fs::create_dir_all(root.join("t"))?;
        std::fs::create_dir_all(root.join("inputs"))?;
        std::env::set_var("TMPDIR", root.join("t"));
        Ok(Scratch { root })
    }

    pub fn inputs(&self) -> PathBuf {
        self.root.join("inputs")
    }

    /// A fresh sub-directory for MR-MPI spill files.
    pub fn spill_dir(&self) -> PathBuf {
        self.root.join("t").join("spill")
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Keeps every core out of the idle state while the guard lives: one
/// spinning thread per core under `SCHED_IDLE`, the scheduling class that
/// runs only when a core has nothing else to do.
///
/// On a virtual machine an idle vCPU is descheduled by the host, and
/// every blocking receive that follows pays a host wake-up. That cost is
/// the host's, not the system's: a round trip cost ≈47 µs unpolled against
/// ≈8 µs polled on the reference box, and drifted by the minute with the
/// host's load, which put ±10 % on a job with 2.8 k exchange rounds. MPI on a real machine polls and never
/// pays it. A spinner is preempted the moment a rank thread wakes, so it
/// takes no time from the program being measured.
pub struct IdlePoll {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Spinners that got their scheduling class (0 where the kernel or a
    /// sandbox refuses `sched_setscheduler`; the run then goes unpolled).
    pub active: usize,
}

impl IdlePoll {
    pub fn start() -> IdlePoll {
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let armed = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(std::sync::Barrier::new(cores + 1));
        let threads = (0..cores)
            .map(|i| {
                let (stop, armed, ready) = (stop.clone(), armed.clone(), ready.clone());
                std::thread::Builder::new()
                    .name(format!("idle-poll{i}"))
                    .spawn(move || {
                        let priority = 0i32; // struct sched_param { int sched_priority; }
                                             // SAFETY: pid 0 is the calling thread; `param`
                                             // points at a live sched_param-sized value.
                        let ok = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                        if ok {
                            armed.fetch_add(1, Ordering::SeqCst);
                        }
                        ready.wait();
                        // At normal priority a spinner would take a core
                        // from a rank: spin only in the idle class.
                        while ok && !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })
                    .expect("spawning an idle-poll thread")
            })
            .collect();
        ready.wait();
        IdlePoll {
            stop,
            threads,
            active: armed.load(Ordering::SeqCst),
        }
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Kills every direct child process (forked UDS ranks) and reaps it. Used
/// only on the watchdog path, where the world that owns them is stuck.
pub fn kill_children() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    let me = std::process::id().to_string();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return;
    };
    for entry in procs.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid …`; comm may contain spaces and parens.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if ppid == Some(me.as_str()) {
            // SAFETY: plain libc calls on a pid that /proc just reported
            // as our own child; a stale pid makes them fail harmlessly.
            unsafe {
                kill(pid, SIGKILL);
                let mut status = 0;
                waitpid(pid, &mut status, 0);
            }
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Size in bytes of the last-level cache of CPU 0, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, unit) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * unit)
}

/// What is recorded about the machine and the build next to the numbers.
pub fn environment(repo_root: &Path, idle_poll_threads: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "llc_bytes",
            llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line(
                "git",
                &["-C", &repo_root.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        ("idle_poll_threads", Json::Num(idle_poll_threads as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_and_without_units() {
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("36M"), Some(36 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }
}
