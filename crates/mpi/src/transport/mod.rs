//! The transport seam beneath [`crate::Comm`].
//!
//! Everything above this module — tag matching, wait-state attribution,
//! flow stamping, the collectives, and the whole MapReduce stack — talks
//! to peers through the [`Transport`] trait: point-to-point delivery of
//! [`Msg`]s plus a three-step collective *derivation* protocol that
//! builds the private message namespace behind [`crate::Comm::dup`] and
//! [`crate::Comm::split`].
//!
//! Two backends implement the trait:
//!
//! * [`inproc`] — ranks are OS threads in one process; each communicator
//!   owns a private matrix of in-process FIFO channels and derivation
//!   ships fresh channel senders to peers ([`Endpoint`]s of the `Chan`
//!   flavour).
//! * [`uds`] — ranks are real forked processes on one machine connected
//!   by Unix-domain sockets with length-prefixed frames; derivation
//!   ships a *communicator id* ([`Endpoint`]s of the `Tagged` flavour)
//!   that namespaces tag-multiplexed traffic over the same connections.
//!   A rank process has no I/O threads: `send` writes to the
//!   non-blocking socket (the rest is parked per peer) and a blocked
//!   `recv` runs the process's `poll(2)` loop.
//!
//! The derivation protocol is the part that generalizes: a new
//! communicator needs each member to hand every peer "the thing you
//! will use to reach me on the new communicator". For channels that
//! thing is a sender half; for multiplexed sockets it is a namespace
//! token; for a future network backend it would be an address. The
//! endpoints travel over the *parent* communicator's reserved tag space
//! in both cases, so [`crate::Comm`] has exactly one derivation code
//! path.

pub(crate) mod inproc;
pub(crate) mod uds;

use crate::error::CommError;
use crate::msg::Msg;
use crate::CommStats;

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

/// One peer's handle into a communicator under construction: the thing
/// this rank hands to a peer so the peer can reach it on the *derived*
/// communicator. Shipped over the parent communicator's reserved tag
/// space during [`crate::Comm::dup`] / [`crate::Comm::split`].
#[derive(Debug)]
pub struct Endpoint(pub(crate) EndpointInner);

impl Endpoint {
    /// Bytes this endpoint occupies on the wire: in-process channel
    /// senders have no wire form (they never cross a process boundary);
    /// socket-namespace tokens travel as their 8-byte communicator id.
    pub(crate) fn wire_len(&self) -> usize {
        match &self.0 {
            EndpointInner::Chan(_) => 0,
            EndpointInner::Tagged { .. } => 8,
        }
    }
}

#[derive(Debug)]
pub(crate) enum EndpointInner {
    /// In-process: the sending half of a fresh channel into the
    /// endpoint's creator.
    Chan(std::sync::mpsc::Sender<Msg>),
    /// Socket: the derived communicator's id, namespacing multiplexed
    /// frames on the existing connections. Carried on the wire; the
    /// receiver asserts it equals its own independently computed id
    /// (the collective-consistency proof for the socket backend).
    Tagged { comm: u64 },
}

/// Backend state accumulated between [`Transport::begin_derive`] and
/// [`Transport::finish_derive`].
#[derive(Debug)]
pub struct Derivation(pub(crate) DeriveState);

#[derive(Debug)]
pub(crate) enum DeriveState {
    Inproc(inproc::InprocDerive),
    Uds(uds::UdsDerive),
}

/// The message-delivery seam beneath [`crate::Comm`].
///
/// Implementations are `Send` (a `Comm` moves between threads, e.g. a
/// `dup`'d communicator handed to a second thread) but not `Sync` — a transport, like a
/// `Comm`, is owned by exactly one rank thread.
///
/// `stats` is threaded through `send`/`recv` so backends can keep their
/// wire-level counters (`wire_bytes_*`, `wire_frames_*`) on the owning
/// rank's [`CommStats`] without any cross-thread aggregation.
pub trait Transport: Send {
    /// Delivers `msg` to peer `dst` (this communicator's rank space).
    /// Sends are eager: they enqueue without waiting for the receiver.
    /// A backend may finish the delivery inside later calls on any of
    /// the process's transports (the socket backend parks what a full
    /// socket buffer refuses and flushes it from `send`/`recv`).
    fn send(&mut self, dst: usize, msg: Msg, stats: &mut CommStats) -> Result<(), CommError>;

    /// Blocks for the next message from `src`, in FIFO order per
    /// `(src, self)` pair. Tag matching happens above the seam.
    fn recv(&mut self, src: usize, stats: &mut CommStats) -> Result<Msg, CommError>;

    /// Starts building a derived communicator spanning `members`
    /// (indexed by new rank, holding *this* communicator's ranks; this
    /// rank appears at `my_new_rank`). Returns the backend state plus,
    /// for every new rank except `my_new_rank`, the [`Endpoint`] this
    /// rank must ship to that peer. `seq` is the parent's derivation
    /// sequence number, already proven collective-consistent by the
    /// caller.
    fn begin_derive(
        &mut self,
        seq: u64,
        members: &[usize],
        my_new_rank: usize,
    ) -> (Derivation, Vec<Option<Endpoint>>);

    /// Installs the endpoint received from `from_new_rank`.
    ///
    /// # Panics
    /// Panics if the endpoint does not belong to this backend or (UDS)
    /// carries a mismatched communicator id — both are
    /// collective-consistency violations.
    fn accept_endpoint(&mut self, d: &mut Derivation, from_new_rank: usize, ep: Endpoint);

    /// Completes the derivation: every peer endpoint has been accepted.
    fn finish_derive(&mut self, d: Derivation) -> Box<dyn Transport>;

    /// Backend counters not tracked on the per-operation path (socket
    /// handshake time, receive-pool misses). Only a world's root
    /// transport reports nonzero values, so merging per-communicator
    /// stats never double-counts process-level numbers.
    fn extra_stats(&self) -> CommStats {
        CommStats::default()
    }
}
