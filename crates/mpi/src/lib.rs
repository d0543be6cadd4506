//! # mimir-mpi — an MPI-flavoured message-passing runtime
//!
//! Mimir (IPDPS'17) is a MapReduce implementation *over MPI*: its memory
//! behaviour is defined by which buffers it owns around `MPI_Alltoallv`,
//! `MPI_Allreduce`, and `MPI_Barrier` calls. This crate supplies those
//! primitives without requiring a system MPI installation: a *world* of
//! `n` ranks runs as `n` OS threads connected by per-pair FIFO channels,
//! and the collectives are implemented with the same binomial-tree
//! algorithms MPICH uses.
//!
//! What is deliberately preserved from MPI semantics:
//! * ranks are SPMD — every rank runs the same closure with its own
//!   [`Comm`];
//! * point-to-point messages are matched by `(source, tag)` and are FIFO
//!   per `(source, destination)` pair;
//! * collectives are matched by call order: every rank must invoke the
//!   same sequence of collective operations, exactly as in MPI;
//! * `alltoallv` moves byte buffers whose partitioning the *caller* chose,
//!   so Mimir's partitioned send buffer / paired receive buffer design is
//!   exercised unchanged.
//!
//! What is left out: communicator duplication and splitting. A rank
//! holds one [`Comm`], the world's, which is all the paper's operations
//! (barrier, alltoallv, allreduce, allgather, gather, point-to-point)
//! need.
//!
//! What is pluggable: transport. Everything under [`Comm`] goes through
//! the [`Transport`] seam, with two backends:
//!
//! * [`TransportKind::Inproc`] (the default): ranks are OS threads in one
//!   process connected by per-pair FIFO channels. A rank that panics
//!   drops its channel endpoints, which wakes every peer blocked on it
//!   with a "rank disconnected" panic — the in-process analogue of an MPI
//!   job abort — and [`run_world`] then re-raises the root-cause panic.
//! * [`TransportKind::Uds`]: ranks are real forked processes on one
//!   machine connected by Unix-domain sockets with length-prefixed
//!   frames, bootstrapped through a rendezvous directory, with no
//!   helper threads: the rank thread does its own socket I/O. A rank
//!   process that dies closes its sockets, and peers wake with the same
//!   disconnect panic.
//!
//! [`run_world_on`] selects a backend explicitly;
//! [`TransportKind::from_env`] reads `MIMIR_TRANSPORT={inproc,uds}`.

mod collectives;
mod comm;
mod error;
mod msg;
mod transport;
mod wire;
mod world;

pub use collectives::PendingAlltoallv;
pub use comm::Comm;
pub use error::{is_disconnect_panic, panic_message, CommError, WorldError};
pub use msg::{Msg, Tag};
pub use transport::uds::{FaultPoint, UdsFault, UdsWorldOptions};
pub use transport::{Transport, TransportKind};
pub use wire::Wire;
pub use world::{
    run_world, run_world_on, run_world_result, run_world_result_on, run_world_uds_with,
};

/// Result alias for fallible communication operations.
pub type Result<T> = std::result::Result<T, CommError>;

/// Reduction operators supported by [`Comm::allreduce_u64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Logical AND of `0`/`1` flags (used for "is everyone done?" votes).
    LAnd,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::LAnd => u64::from(a != 0 && b != 0),
        }
    }
}
