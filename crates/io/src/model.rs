use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{IoError, Result};

/// Cost-model parameters for the simulated parallel file system.
///
/// The defaults are scaled alongside the platform presets (the
/// reproduction scales the paper's sizes GB→MB): what matters for
/// reproducing the paper's *shapes* is the ratio between how fast a node
/// can touch its own DRAM and how fast it can push pages through the
/// shared PFS, which on Comet/Mira is three to four orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoModelConfig {
    /// Aggregate read bandwidth of the shared file system, bytes/second.
    pub read_bw: f64,
    /// Aggregate write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Fixed cost per operation (metadata round trip to the PFS servers;
    /// on Mira, the trip through the 1:128 I/O forwarding node).
    pub op_latency: Duration,
}

impl IoModelConfig {
    /// A Lustre-like shared file system scaled for MB-sized experiments
    /// (Comet-mini preset).
    pub fn lustre_scaled() -> Self {
        Self {
            read_bw: 64.0 * 1024.0 * 1024.0,
            write_bw: 12.0 * 1024.0 * 1024.0,
            op_latency: Duration::from_micros(500),
        }
    }

    /// A GPFS-behind-forwarding-nodes file system scaled for MB-sized
    /// experiments (Mira-mini preset); higher per-op latency, lower
    /// bandwidth per node.
    pub fn gpfs_scaled() -> Self {
        Self {
            read_bw: 16.0 * 1024.0 * 1024.0,
            write_bw: 8.0 * 1024.0 * 1024.0,
            op_latency: Duration::from_millis(2),
        }
    }

    /// Free I/O, for tests that exercise spill mechanics without caring
    /// about cost.
    pub fn free() -> Self {
        Self {
            read_bw: f64::INFINITY,
            write_bw: f64::INFINITY,
            op_latency: Duration::ZERO,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.read_bw <= 0.0
            || self.write_bw <= 0.0
            || self.read_bw.is_nan()
            || self.write_bw.is_nan()
        {
            return Err(IoError::InvalidConfig("bandwidths must be positive".into()));
        }
        Ok(())
    }
}

/// Accumulates the modeled cost of every spill/input operation.
///
/// One `IoModel` is shared (via `Arc`-style cloning) by all ranks of a
/// simulated machine, so its totals model a *shared* bottleneck: the sum
/// of all modeled charges is the time the PFS spent serving the job, which
/// is the dominant term once a framework starts spilling.
///
/// ```
/// use mimir_io::{IoModel, IoModelConfig};
/// use std::time::Duration;
///
/// let model = IoModel::new(IoModelConfig {
///     read_bw: 1024.0 * 1024.0, // 1 MiB/s
///     write_bw: 1024.0 * 1024.0,
///     op_latency: Duration::ZERO,
/// }).unwrap();
/// model.charge_write(512 * 1024); // half a MiB
/// assert!((model.modeled_time().as_secs_f64() - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone)]
pub struct IoModel {
    inner: Arc<ModelInner>,
}

struct ModelInner {
    cfg: IoModelConfig,
    /// When set, every charge also *sleeps* its modeled duration, turning
    /// the accounting model into a wall-clock stall — see
    /// [`IoModel::set_paced`].
    paced: AtomicBool,
    modeled_nanos: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
}

/// Snapshot of an [`IoModel`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Total modeled time spent in the I/O subsystem.
    pub modeled: Duration,
    /// Bytes read through the model.
    pub bytes_read: u64,
    /// Bytes written through the model.
    pub bytes_written: u64,
    /// Read operations.
    pub read_ops: u64,
    /// Write operations.
    pub write_ops: u64,
}

impl IoModel {
    /// Creates a model from `cfg`.
    ///
    /// # Errors
    /// [`IoError::InvalidConfig`] for non-positive bandwidths.
    pub fn new(cfg: IoModelConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self {
            inner: Arc::new(ModelInner {
                cfg,
                paced: AtomicBool::new(false),
                modeled_nanos: AtomicU64::new(0),
                bytes_read: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                read_ops: AtomicU64::new(0),
                write_ops: AtomicU64::new(0),
            }),
        })
    }

    /// A model that charges nothing.
    pub fn free() -> Self {
        Self::new(IoModelConfig::free()).expect("free config is valid")
    }

    /// Charges a write of `bytes` and returns the modeled duration of this
    /// single operation.
    pub fn charge_write(&self, bytes: usize) -> Duration {
        self.inner
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.write_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(bytes, self.inner.cfg.write_bw)
    }

    /// Charges a read of `bytes` and returns the modeled duration of this
    /// single operation.
    pub fn charge_read(&self, bytes: usize) -> Duration {
        self.inner
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.read_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(bytes, self.inner.cfg.read_bw)
    }

    /// Total modeled time accumulated so far.
    pub fn modeled_time(&self) -> Duration {
        Duration::from_nanos(self.inner.modeled_nanos.load(Ordering::Acquire))
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            modeled: self.modeled_time(),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            read_ops: self.inner.read_ops.load(Ordering::Relaxed),
            write_ops: self.inner.write_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets the accumulated time and counters, for phase-scoped
    /// measurement.
    pub fn reset(&self) {
        self.inner.modeled_nanos.store(0, Ordering::Release);
        self.inner.bytes_read.store(0, Ordering::Relaxed);
        self.inner.bytes_written.store(0, Ordering::Relaxed);
        self.inner.read_ops.store(0, Ordering::Relaxed);
        self.inner.write_ops.store(0, Ordering::Relaxed);
    }

    /// The configuration this model charges with.
    pub fn config(&self) -> IoModelConfig {
        self.inner.cfg
    }

    /// Turns pacing on or off (shared by all clones of this model).
    ///
    /// Unpaced (the default), charges only *account* modeled time — runs
    /// finish as fast as the CPU allows and the modeled PFS time is a
    /// number in the report. Paced, every charge also sleeps its modeled
    /// duration on the calling thread, so an I/O-bound phase really stalls
    /// the rank that issued it, so the gap between a cold spill+reload
    /// round trip and a resident cache hit shows up as wall time.
    pub fn set_paced(&self, paced: bool) {
        self.inner.paced.store(paced, Ordering::Release);
    }

    fn charge(&self, bytes: usize, bw: f64) -> Duration {
        let transfer = if bw.is_finite() {
            Duration::from_secs_f64(bytes as f64 / bw)
        } else {
            Duration::ZERO
        };
        let total = transfer + self.inner.cfg.op_latency;
        self.inner
            .modeled_nanos
            .fetch_add(total.as_nanos() as u64, Ordering::AcqRel);
        if total > Duration::ZERO && self.inner.paced.load(Ordering::Acquire) {
            std::thread::sleep(total);
        }
        total
    }
}

impl std::fmt::Debug for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoModel")
            .field("config", &self.inner.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = IoModel::new(IoModelConfig {
            read_bw: 1000.0,
            write_bw: 500.0,
            op_latency: Duration::from_millis(1),
        })
        .unwrap();
        let w = m.charge_write(500); // 1 s transfer + 1 ms latency
        assert!((w.as_secs_f64() - 1.001).abs() < 1e-6);
        let r = m.charge_read(1000); // 1 s + 1 ms
        assert!((r.as_secs_f64() - 1.001).abs() < 1e-6);
        assert!((m.modeled_time().as_secs_f64() - 2.002).abs() < 1e-3);
        let s = m.stats();
        assert_eq!(s.bytes_written, 500);
        assert_eq!(s.bytes_read, 1000);
        assert_eq!((s.read_ops, s.write_ops), (1, 1));
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = IoModel::free();
        assert_eq!(m.charge_write(1 << 30), Duration::ZERO);
        assert_eq!(m.modeled_time(), Duration::ZERO);
    }

    #[test]
    fn shared_clones_share_counters() {
        let m = IoModel::new(IoModelConfig::lustre_scaled()).unwrap();
        let m2 = m.clone();
        m.charge_write(1024);
        m2.charge_write(1024);
        assert_eq!(m.stats().bytes_written, 2048);
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        let cfg = IoModelConfig {
            read_bw: 0.0,
            write_bw: 1.0,
            op_latency: Duration::ZERO,
        };
        assert!(IoModel::new(cfg).is_err());
    }

    #[test]
    fn paced_model_sleeps_the_modeled_time() {
        let m = IoModel::new(IoModelConfig {
            read_bw: f64::INFINITY,
            write_bw: f64::INFINITY,
            op_latency: Duration::from_millis(20),
        })
        .unwrap();
        let quick = std::time::Instant::now();
        m.charge_read(1);
        assert!(
            quick.elapsed() < Duration::from_millis(15),
            "unpaced is free"
        );
        m.set_paced(true);
        let slow = std::time::Instant::now();
        m.charge_read(1);
        assert!(slow.elapsed() >= Duration::from_millis(20), "paced stalls");
    }

    #[test]
    fn reset_zeroes_counters() {
        let m = IoModel::new(IoModelConfig::gpfs_scaled()).unwrap();
        m.charge_read(4096);
        m.reset();
        assert_eq!(m.stats().bytes_read, 0);
        assert_eq!(m.modeled_time(), Duration::ZERO);
    }
}
