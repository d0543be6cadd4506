//! # mimir — memory-efficient MapReduce for large parallel systems
//!
//! One-stop facade for the Mimir reproduction (IPDPS 2017, Gao et al.):
//! re-exports the framework ([`core`]), the substrates it runs on
//! ([`mem`], [`mpi`], [`io`]), the MR-MPI baseline ([`mrmpi`]), the
//! workload generators ([`datagen`]), and the three paper benchmarks
//! ([`apps`]).
//!
//! ## Quickstart
//!
//! ```
//! use mimir::prelude::*;
//!
//! // Four ranks (threads), one simulated node with 16 MiB of memory.
//! let nodes = NodeMap::new(4, 4, 64 * 1024, 16 << 20).unwrap();
//! let counts = run_world(4, |comm| {
//!     let pool = nodes.pool_for_rank(comm.rank());
//!     let mut ctx =
//!         MimirContext::new(comm, pool, IoModel::free(), MimirConfig::default()).unwrap();
//!     // WordCount with the paper's KV-hint + partial reduction.
//!     let text: &[u8] = b"to be or not to be\n";
//!     let out = ctx
//!         .job()
//!         .kv_meta(KvMeta::cstr_key_u64_val())
//!         .out_meta(KvMeta::cstr_key_u64_val())
//!         .map(&mut |em| {
//!             for w in text.split(|b| b.is_ascii_whitespace()).filter(|w| !w.is_empty()) {
//!                 em.emit(w, &1u64.to_le_bytes())?;
//!             }
//!             Ok(())
//!         })
//!         .partial_reduce(Box::new(|_k, a, b, out| {
//!             let sum = u64::from_le_bytes(a.try_into().unwrap())
//!                 + u64::from_le_bytes(b.try_into().unwrap());
//!             out.extend_from_slice(&sum.to_le_bytes());
//!         }))
//!         .unwrap();
//!     let mut local = 0u64;
//!     out.output.drain(|_k, _v| { local += 1; Ok(()) }).unwrap();
//!     local
//! });
//! assert_eq!(counts.iter().sum::<u64>(), 4); // "to", "be", "or", "not"
//! ```

pub use mimir_apps as apps;
pub use mimir_core as core;
pub use mimir_datagen as datagen;
pub use mimir_doctor as doctor;
pub use mimir_io as io;
pub use mimir_mem as mem;
pub use mimir_mpi as mpi;
pub use mrmpi;

/// The names most programs need.
pub mod prelude {
    pub use mimir_core::{
        run_iterative_with_recovery, typed, ChainMapFn, CheckpointStore, Emitter, JobOutput,
        JobStats, KvCache, KvContainer, KvMeta, LenHint, MimirConfig, MimirContext, MimirError,
        Partitioner, ValueIter,
    };
    pub use mimir_datagen::{Graph500, PointGen, UniformWords, WikipediaWords};
    pub use mimir_io::{IoModel, IoModelConfig, SpillStore};
    pub use mimir_mem::{MemPool, NodeMap};
    pub use mimir_mpi::{
        run_world, run_world_on, run_world_result, run_world_result_on, Comm, ReduceOp,
        TransportKind, WorldError,
    };
    pub use mimir_obs::CacheCounters;
    pub use mrmpi::{MapReduce, MrMpiConfig, OocMode};
}
