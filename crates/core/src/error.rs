use std::fmt;

use mimir_io::IoError;
use mimir_mem::MemError;

/// Errors surfaced by Mimir jobs.
#[derive(Debug)]
pub enum MimirError {
    /// A node memory budget was exceeded. Mimir is an in-memory framework:
    /// unlike MR-MPI it does not spill, so this fails the job (these are
    /// the missing data points in the paper's figures).
    Mem(MemError),
    /// The I/O subsystem failed (input reading).
    Io(IoError),
    /// A single KV is larger than the unit it must fit in (a container
    /// page, or one send-buffer partition).
    KvTooLarge {
        /// Encoded size of the offending KV.
        size: usize,
        /// The capacity it had to fit in.
        limit: usize,
        /// Which buffer refused it.
        what: &'static str,
    },
    /// A key or value violated the job's [`crate::LenHint`] contract
    /// (wrong fixed length, or an interior NUL in a C-string key).
    HintViolation(String),
    /// Invalid job configuration.
    Config(String),
    /// A cross-job cache misuse: a chained input name was never cached,
    /// or a shuffle-elided map emitted a key that does not belong to this
    /// rank under the declared partitioner (the map was not
    /// partition-preserving — disable elision with
    /// `shuffle_elision(false)` for key-changing maps).
    Cache(String),
    /// A peer rank disconnected mid-job: its process died or its
    /// transport endpoint closed while this rank was blocked on it. The
    /// message names the lost peer; the job cannot be resumed on this
    /// world.
    Disconnected(String),
}

impl fmt::Display for MimirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MimirError::Mem(e) => write!(f, "memory: {e}"),
            MimirError::Io(e) => write!(f, "io: {e}"),
            MimirError::KvTooLarge { size, limit, what } => {
                write!(f, "KV of {size} B exceeds {what} capacity {limit} B")
            }
            MimirError::HintViolation(msg) => write!(f, "KV-hint violation: {msg}"),
            MimirError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MimirError::Cache(msg) => write!(f, "cross-job cache: {msg}"),
            MimirError::Disconnected(msg) => write!(f, "peer disconnected: {msg}"),
        }
    }
}

impl std::error::Error for MimirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MimirError::Mem(e) => Some(e),
            MimirError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for MimirError {
    fn from(e: MemError) -> Self {
        MimirError::Mem(e)
    }
}

impl From<IoError> for MimirError {
    fn from(e: IoError) -> Self {
        MimirError::Io(e)
    }
}

impl MimirError {
    /// True when the failure is the node running out of memory — the
    /// condition the bench harness turns into a "missing data point".
    pub fn is_oom(&self) -> bool {
        matches!(self, MimirError::Mem(MemError::OutOfMemory { .. }))
    }

    /// True when the job died because a peer rank's transport went away.
    pub fn is_disconnected(&self) -> bool {
        matches!(self, MimirError::Disconnected(_))
    }
}
