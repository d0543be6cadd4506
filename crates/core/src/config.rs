use mimir_mpi::TransportKind;

use crate::{MimirError, Result};

/// Length encoding of one side (key or value) of a KV — the paper's
/// **KV-hint** optimization (Section III-C3).
///
/// By default keys and values are variable-length byte strings and every
/// KV carries an 8-byte header of two `u32` lengths. A hint tells Mimir
/// the length is implied, and the header (or half of it) is dropped both
/// in the containers and on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenHint {
    /// Variable length, stored as a `u32` prefix (the default).
    Var,
    /// Every instance has exactly this many bytes; nothing stored.
    Fixed(usize),
    /// NUL-terminated string: one terminator byte stored, no length (the
    /// paper's reserved `-1` hint; the length is recomputed with
    /// `strlen`). Only meaningful for keys and values that contain no
    /// interior NUL.
    CStr,
}

impl LenHint {
    /// Bytes of per-item overhead this encoding adds.
    pub(crate) fn overhead(self) -> usize {
        match self {
            LenHint::Var => 4,
            LenHint::Fixed(_) => 0,
            LenHint::CStr => 1,
        }
    }
}

/// The KV encoding of a dataset: one hint for the key, one for the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMeta {
    /// Key encoding.
    pub key: LenHint,
    /// Value encoding.
    pub val: LenHint,
}

impl KvMeta {
    /// The un-hinted default: `u32` length prefixes on both sides — the
    /// paper's "eight-byte header (two integers)".
    pub fn var() -> Self {
        Self {
            key: LenHint::Var,
            val: LenHint::Var,
        }
    }

    /// Convenience: NUL-terminated string key with a fixed 8-byte value —
    /// the WordCount hint from the paper ("the key … is usually a string
    /// with variable length, but the value is always a 64-bit integer").
    pub fn cstr_key_u64_val() -> Self {
        Self {
            key: LenHint::CStr,
            val: LenHint::Fixed(8),
        }
    }

    /// Convenience: fixed-size key and value (graph workloads: "vertices
    /// and edges are always 64-bit and 128-bit integers").
    pub fn fixed(key: usize, val: usize) -> Self {
        Self {
            key: LenHint::Fixed(key),
            val: LenHint::Fixed(val),
        }
    }
}

impl Default for KvMeta {
    fn default() -> Self {
        Self::var()
    }
}

/// Framework configuration shared by every job on a context.
#[derive(Debug, Clone, Copy)]
pub struct MimirConfig {
    /// Size in bytes of the communication send buffer (the receive buffer
    /// is the same size, per paper Section III-B). The send buffer is
    /// split into `size()` equal partitions.
    pub comm_buf_size: usize,
    /// Which transport backs the ranks: in-process channel threads (the
    /// default) or forked processes over Unix-domain sockets. Consulted
    /// by harnesses that build the world from a config; everything above
    /// the `Comm` API is backend-agnostic. Defaults to
    /// [`TransportKind::from_env`] (`MIMIR_TRANSPORT={inproc,uds}`).
    pub transport: TransportKind,
}

impl Default for MimirConfig {
    /// 64 KiB, the scaled equivalent of the paper's 64 MB default.
    fn default() -> Self {
        Self {
            comm_buf_size: 64 * 1024,
            transport: TransportKind::from_env(),
        }
    }
}

impl MimirConfig {
    pub(crate) fn validate(&self, n_ranks: usize) -> Result<()> {
        if self.comm_buf_size / n_ranks.max(1) < 16 {
            return Err(MimirError::Config(format!(
                "comm buffer of {} B split across {n_ranks} ranks leaves partitions under 16 B",
                self.comm_buf_size
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_overheads_match_paper() {
        // Default: 8-byte header.
        let m = KvMeta::var();
        assert_eq!(m.key.overhead() + m.val.overhead(), 8);
        // WordCount hint: 1-byte NUL, no value header.
        let m = KvMeta::cstr_key_u64_val();
        assert_eq!(m.key.overhead() + m.val.overhead(), 1);
        // Graph hint: nothing at all.
        let m = KvMeta::fixed(8, 16);
        assert_eq!(m.key.overhead() + m.val.overhead(), 0);
    }

    #[test]
    fn tiny_partitions_rejected() {
        let cfg = MimirConfig {
            comm_buf_size: 64,
            ..MimirConfig::default()
        };
        assert!(cfg.validate(8).is_err());
        assert!(cfg.validate(4).is_ok());
    }
}
