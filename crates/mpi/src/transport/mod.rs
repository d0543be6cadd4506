//! The transport seam beneath [`crate::Comm`].
//!
//! Everything above this module — tag matching, wait-state attribution,
//! flow stamping, the collectives, and the whole MapReduce stack — talks
//! to peers through the [`Transport`] trait: point-to-point delivery of
//! [`Msg`]s between the ranks of one world.
//!
//! Two backends implement the trait:
//!
//! * [`inproc`] — ranks are OS threads in one process over a matrix of
//!   in-process FIFO channels.
//! * [`uds`] — ranks are real forked processes on one machine connected
//!   by Unix-domain sockets with length-prefixed frames. A rank process
//!   has no I/O threads: `send` writes to the non-blocking socket (the
//!   rest is parked per peer) and a blocked `recv` runs the process's
//!   `poll(2)` loop.

pub(crate) mod inproc;
pub(crate) mod uds;

use mimir_obs::CommCounters;

use crate::error::CommError;
use crate::msg::Msg;

/// Which backend a world runs on. Selected explicitly via
/// [`crate::run_world_on`] or from the `MIMIR_TRANSPORT` environment
/// variable (`inproc` | `uds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Rank threads in one process over private channel matrices (the
    /// default).
    #[default]
    Inproc,
    /// Forked rank processes over Unix-domain sockets.
    Uds,
}

impl TransportKind {
    /// Reads `MIMIR_TRANSPORT` (`inproc` | `uds`, case-insensitive);
    /// unset or unrecognized values fall back to [`TransportKind::Inproc`]
    /// (unrecognized values warn once on stderr).
    pub fn from_env() -> Self {
        match std::env::var("MIMIR_TRANSPORT") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "" | "inproc" => TransportKind::Inproc,
                "uds" => TransportKind::Uds,
                other => {
                    use std::sync::Once;
                    static WARN: Once = Once::new();
                    WARN.call_once(|| {
                        eprintln!(
                            "mimir-mpi: unknown MIMIR_TRANSPORT={other:?} \
                             (expected inproc|uds); using inproc"
                        );
                    });
                    TransportKind::Inproc
                }
            },
            Err(_) => TransportKind::Inproc,
        }
    }

    /// Stable lowercase name (`"inproc"` / `"uds"`), as accepted by
    /// `MIMIR_TRANSPORT` and used in bench/CI artifact labels.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Inproc => "inproc",
            TransportKind::Uds => "uds",
        }
    }
}

/// The message-delivery seam beneath [`crate::Comm`].
///
/// Implementations are `Send` (a world's `Comm`s are built before they
/// move to their rank threads) but not `Sync` — a transport, like a
/// `Comm`, is owned by exactly one rank thread.
///
/// `stats` is threaded through `send`/`recv` so backends can keep their
/// wire-level counters (`wire_bytes_*`, `wire_frames_*`) on the owning
/// rank's [`CommCounters`] without any cross-thread aggregation.
pub trait Transport: Send {
    /// Delivers `msg` to peer `dst`.
    /// Sends are eager: they enqueue without waiting for the receiver.
    /// A backend may finish the delivery inside later calls (the socket
    /// backend parks what a full socket buffer refuses and flushes it
    /// from `send`/`recv`, and at the latest when it drops).
    fn send(&mut self, dst: usize, msg: Msg, stats: &mut CommCounters) -> Result<(), CommError>;

    /// Blocks for the next message from `src`, in FIFO order per
    /// `(src, self)` pair. Tag matching happens above the seam.
    fn recv(&mut self, src: usize, stats: &mut CommCounters) -> Result<Msg, CommError>;

    /// Backend counters not tracked on the per-operation path (socket
    /// handshake time, receive-pool misses).
    fn extra_stats(&self) -> CommCounters {
        CommCounters::default()
    }
}
