use std::fmt;

use mimir_io::IoError;
use mimir_mem::MemError;

/// Errors surfaced by MR-MPI phases.
#[derive(Debug)]
pub enum MrError {
    /// A phase could not allocate its static page set — the node budget
    /// cannot hold `pages × page_size` (the paper's "MR-MPI runs out of
    /// memory" cases).
    Mem(MemError),
    /// The I/O subsystem failed (spill write/read, input read).
    Io(IoError),
    /// Intermediate data exceeded a single page while out-of-core writes
    /// are disabled ([`crate::OocMode::Error`] — MR-MPI's third setting:
    /// "report an error and terminate execution").
    PageOverflow {
        /// Which dataset overflowed.
        what: &'static str,
        /// The page size it had to fit in.
        page_size: usize,
    },
    /// A single KV or KMV entry cannot fit in a page at all.
    EntryTooLarge {
        /// Encoded entry size.
        size: usize,
        /// Page capacity.
        page_size: usize,
    },
    /// Phase called out of order (e.g. `reduce` before `convert`).
    Phase(String),
    /// A job was asked for something it cannot do, refused before it runs.
    Config(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Mem(e) => write!(f, "memory: {e}"),
            MrError::Io(e) => write!(f, "io: {e}"),
            MrError::PageOverflow { what, page_size } => {
                write!(
                    f,
                    "{what} exceeded one {page_size} B page with out-of-core disabled"
                )
            }
            MrError::EntryTooLarge { size, page_size } => {
                write!(f, "entry of {size} B cannot fit a {page_size} B page")
            }
            MrError::Phase(msg) => write!(f, "phase error: {msg}"),
            MrError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for MrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrError::Mem(e) => Some(e),
            MrError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for MrError {
    fn from(e: MemError) -> Self {
        MrError::Mem(e)
    }
}

impl From<IoError> for MrError {
    fn from(e: IoError) -> Self {
        MrError::Io(e)
    }
}

impl MrError {
    /// True for hard memory exhaustion (page set unaffordable).
    pub fn is_oom(&self) -> bool {
        matches!(self, MrError::Mem(MemError::OutOfMemory { .. }))
    }
}
