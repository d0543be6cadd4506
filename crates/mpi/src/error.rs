use std::fmt;

/// Errors surfaced by the communication runtime.
///
/// Most misuse (rank out of range, tag in the reserved collective space)
/// panics instead, matching the fail-fast behaviour of an MPI
/// implementation with error checking enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer rank's thread exited (normally or by panic) while this
    /// rank was still expecting traffic from it.
    RankDisconnected {
        /// Rank that observed the disconnect.
        observer: usize,
        /// Rank whose channel went away.
        peer: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankDisconnected { observer, peer } => {
                write!(f, "rank {observer}: peer rank {peer} disconnected")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Panic payload used when a peer disconnects, so [`crate::run_world`] can
/// distinguish cascade panics from the root cause.
#[derive(Debug)]
pub(crate) struct DisconnectPanic(pub CommError);

/// True if a caught panic payload is the peer-disconnect cascade raised
/// when a rank's channel endpoints vanish (the in-process analogue of an
/// MPI job abort reaching a survivor).
///
/// The UDS rank harness uses this to classify a rank's `catch_unwind`
/// payload: a disconnect panic means *some peer* failed first and this
/// rank is collateral, so the failure should be attributed to the root
/// cause, not to this rank.
pub fn is_disconnect_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<DisconnectPanic>()
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// pass through, disconnect cascades print their [`CommError`], anything
/// else gets a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(d) = payload.downcast_ref::<DisconnectPanic>() {
        d.0.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Structured outcome of a world where a rank failed, returned by
/// [`crate::run_world_result`] instead of poisoning the caller with an
/// opaque re-raised panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError<E> {
    /// A rank returned `Err(e)` — the clean abort path.
    Aborted(E),
    /// A rank panicked; peers were torn down by the disconnect cascade.
    RankPanicked {
        /// The root-cause rank (the first rank whose panic was not a
        /// disconnect cascade; if every failure was a cascade, the first
        /// observer).
        rank: usize,
        /// Rendered panic message of the root cause.
        message: String,
    },
}

impl<E: fmt::Display> fmt::Display for WorldError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Aborted(e) => write!(f, "world aborted: {e}"),
            WorldError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for WorldError<E> {}
