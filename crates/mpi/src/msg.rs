/// Message tag. User code may use any value below `0xFFFF_FF00`; the
/// collective implementations reserve the values above it.
pub type Tag = u32;

/// Namespaced tags so user point-to-point traffic can never match a
/// collective's internal messages.
pub(crate) mod tags {
    use super::Tag;

    /// Highest tag available to user point-to-point traffic.
    pub const USER_MAX: Tag = 0xFFFF_FEFF;
    pub const BARRIER: Tag = 0xFFFF_FF00;
    pub const REDUCE: Tag = 0xFFFF_FF01;
    pub const GATHER: Tag = 0xFFFF_FF03;
    pub const ALLGATHER: Tag = 0xFFFF_FF04;
    pub const ALLTOALLV: Tag = 0xFFFF_FF05;
}

/// Message payload: a single `u64` carried inline (the collectives'
/// control-message path — no heap allocation per hop) or an owned byte
/// buffer.
#[derive(Debug)]
pub(crate) enum Payload {
    /// A `u64` carried inline in the message struct. On the wire this is
    /// the little-endian 8-byte encoding of the value.
    Small(u64),
    /// An owned heap buffer. Receivers recycle these into their buffer
    /// pool so steady-state exchange traffic reuses a stable set of
    /// allocations.
    Heap(Vec<u8>),
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Small(_) => 8,
            Payload::Heap(v) => v.len(),
        }
    }

    /// Materializes the payload as an owned buffer (allocates for the
    /// `Small` case — only user-facing receive paths hit this).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Small(v) => v.to_le_bytes().to_vec(),
            Payload::Heap(v) => v,
        }
    }
}

/// An in-flight message: a tag plus a payload, stamped with the
/// sender's flow id.
///
/// Public because it crosses the [`crate::transport::Transport`] trait
/// boundary; its innards stay crate-private (backends and `Comm` are the
/// only constructors).
#[derive(Debug)]
pub struct Msg {
    pub(crate) tag: Tag,
    pub(crate) data: Payload,
    /// Causal-tracing stamp: `(src_world_rank << 48) | seq`, allocated
    /// by the sending rank's recorder just before the message ships, or
    /// 0 when tracing is off. The receive loop records the matched id,
    /// turning every message into a reconstructible happens-before edge
    /// (see `mimir_obs::EventKind::FlowSend`/`FlowRecv`).
    pub(crate) flow: u64,
}
