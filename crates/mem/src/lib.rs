//! # mimir-mem — budgeted, page-oriented memory accounting
//!
//! The Mimir paper's headline metric is *peak memory usage* against a hard
//! per-node budget: a compute node has a fixed amount of DRAM, every byte of
//! intermediate MapReduce state must fit in it, and the moment it does not,
//! either the framework spills to the (slow, shared) parallel file system or
//! the job dies. This crate reproduces that economics in-process.
//!
//! A [`MemPool`] models one compute node's memory: a hard byte budget, a
//! fixed page size, and precise `used`/`peak` counters. All intermediate data
//! in the reproduction — Mimir's KV/KMV container pages, its send/receive
//! communication buffers, MR-MPI's statically allocated page sets, and the
//! hash tables used by the optional optimizations — is carved out of a pool,
//! either as fixed-size [`Page`]s (mirroring the paper's fragmentation-free
//! fixed-size buffer units) or as byte-granular [`Reservation`]s.
//!
//! Several simulated ranks (threads, or processes forked after the pool was
//! made) that live on the same simulated node share one pool via
//! [`NodeMap`], so data imbalance across ranks exhausts
//! the *node* budget exactly as it does on the real machine — the effect
//! that breaks MR-MPI's weak scaling on skewed datasets in the paper's
//! Figures 10 and 14.

mod error;
mod node;
mod page;
mod pool;
mod reservation;
mod stats;

pub use error::MemError;
pub use node::NodeMap;
pub use page::Page;
pub use pool::MemPool;
pub use reservation::Reservation;
pub use stats::MemStats;

/// Result alias for fallible memory operations.
pub type Result<T> = std::result::Result<T, MemError>;

/// Bytes in one kibibyte. Handy for tests and platform presets.
pub const KIB: usize = 1024;
/// Bytes in one mebibyte.
pub const MIB: usize = 1024 * 1024;
/// Bytes in one gibibyte.
pub const GIB: usize = 1024 * 1024 * 1024;
