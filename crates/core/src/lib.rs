//! # mimir-core — Mimir: memory-efficient MapReduce over message passing
//!
//! This crate is the reproduction's primary contribution: the Mimir
//! framework of *"Mimir: Memory-Efficient and Scalable MapReduce for Large
//! Supercomputing Systems"* (Gao et al., IPDPS 2017), reimplemented in
//! Rust over the in-process substrates of `mimir-mpi` (communication),
//! `mimir-mem` (budgeted node memory), and `mimir-io` (parallel-file-system
//! cost model).
//!
//! ## Execution model (paper Section III)
//!
//! A job runs the classic map → aggregate → convert → reduce workflow, but
//! unlike MR-MPI the `aggregate` and `convert` phases are **implicit**:
//!
//! * The map callback emits KVs straight into a *partitioned send buffer*
//!   (one partition per rank, selected by key hash). There is no separate
//!   map output buffer and no staging copy — the two-buffer design of
//!   paper Figure 4.
//! * When a partition fills, the map is suspended and an *exchange round*
//!   runs: `allreduce` of done-flags, `alltoallv` of the partitions, and a
//!   drain of the received KVs into a [`KvContainer`] (KVC) — dynamically
//!   grown, page-granular storage that frees pages as data is consumed.
//!   Rounds interleave map and aggregate, so memory use does not grow with
//!   the input.
//! * `convert` groups the received KVs into a [`KmvContainer`] (KMVC),
//!   and `reduce` runs the user callback over each `<key, [values]>`
//!   group. The paper converts in two passes (size each group in a hash
//!   bucket, then place values) because its KMVs are contiguous; here a
//!   KMV is a chain of chunks, so one pass does both. Jobs run it inside
//!   the drain, while each received run is cache-resident, writing each
//!   value once into its group's chain ([`GroupedKvs`]); [`convert`] runs
//!   it over a KVC that already exists.
//!
//! ## Optional optimizations (paper Section III-C)
//!
//! * **KV-hint** ([`LenHint`]): fixed-length or NUL-terminated keys/values
//!   drop the 8-byte per-KV length header.
//! * **Partial reduction** ([`FedJob::partial_reduce`]): for
//!   commutative+associative reductions, incoming KVs fold into a hash
//!   bucket as they arrive — no KVC, no KMVC.
//! * **KV compression** ([`FedJob::combine`]): a map-side combiner that
//!   merges duplicate keys before the exchange, trading a tracked hash
//!   table for less communication.

mod buffer;
mod cache;
mod combiner;
mod config;
mod context;
mod convert;
mod error;
mod group;
mod grouped;
mod hash;
mod job;
mod kmvc;
mod kv;
mod kvc;
mod partial;
mod partitioner;
mod recovery;
mod shuffle;
mod sink;
mod stats;
pub mod typed;

pub use cache::{CheckedOut, KvCache};
pub use combiner::{CombineFn, CombinerTable};
pub use config::{KvMeta, LenHint, MimirConfig};
pub use context::MimirContext;
pub use convert::{convert, convert_with};
pub use error::MimirError;
pub use group::GroupIndex;
pub use grouped::GroupedKvs;
pub use job::{ArrivalFilterFn, ChainFeed, ChainMapFn, FedJob, JobOutput};
pub use job::{MapFeed, MapFn, MapReduceJob, ReduceFn};
pub use kmvc::{KmvContainer, ValueIter};
pub use kv::{decode_one, encode_push, encoded_len, DecodedKv, KvDecoder};
pub use kvc::KvContainer;
pub use partial::PartialReducer;
pub use partitioner::{PartitionFingerprint, Partitioner};
pub use recovery::{run_iterative_with_recovery, CheckpointStore, RestartPoint};
pub use shuffle::{Emitter, ShuffleStats, Shuffler};
pub use sink::KvSink;
pub use stats::JobStats;

pub use hash::{fast_range, fxhash64, partition_of, partition_of_hashed};

pub use mimir_mpi::TransportKind;

/// Result alias for fallible Mimir operations.
pub type Result<T> = std::result::Result<T, MimirError>;
