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

/// How the shuffle moves partitions through the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleMode {
    /// Sends straight from send-buffer partition slices through pooled
    /// transport buffers, receives into the static receive buffer, and
    /// drains received runs with page-wise memcpy. Steady-state rounds
    /// are allocation-free.
    #[default]
    ZeroCopy,
    /// [`ShuffleMode::ZeroCopy`] plus communication/compute overlap: the
    /// round's sends are posted nonblocking *before* the done-allreduce,
    /// hiding the synchronization latency behind the copy-out.
    Overlapped,
    /// Live self-tuning: each round's done-vote is replaced by a packed
    /// ballot (one `Sum`-allreduce, zero extra collectives) carrying the
    /// ranks' wait-ratio votes. The controller picks ZeroCopy vs
    /// Overlapped posting and grows/shrinks the effective round size
    /// with hysteresis ([`AdaptPolicy`]), and diverts hot destinations
    /// through a two-stage combine/salted-spread/merge path when a
    /// per-destination histogram trips 2× fair share mid-job.
    Adaptive,
}

/// Trip points and hysteresis constants for [`ShuffleMode::Adaptive`].
///
/// The controller classifies each round from the split the shuffler
/// already measures: `r = data_wait / (sync_wait + data_wait)`.
/// `r < sync_bound_permille/1000` means the round was dominated by the
/// done-vote (straggler-bound) — overlapped posting and bigger rounds
/// amortize it; `r > data_bound_permille/1000` means the round was
/// dominated by byte movement — vote-first zero-copy lets peers drain
/// other senders while a straggler copies out, and smaller rounds smooth
/// the pipeline. Decisions apply only after `hysteresis_rounds`
/// consecutive agreeing ballots and are followed by `cooldown_rounds` of
/// no changes, so the controller converges within ~8 rounds and never
/// flaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptPolicy {
    /// Wait ratio (permille of data wait in total wait) below which a
    /// round votes "sync-bound": prefer overlapped posting + grow.
    pub sync_bound_permille: u64,
    /// Wait ratio above which a round votes "data-bound": prefer
    /// vote-first zero-copy + shrink.
    pub data_bound_permille: u64,
    /// Consecutive agreeing ballots required before a decision applies.
    pub hysteresis_rounds: u32,
    /// Rounds after a decision during which no further decision applies.
    pub cooldown_rounds: u32,
    /// Rounds whose total measured wait is below this carry no mode/size
    /// vote: there is no signal to act on.
    pub min_signal_ns: u64,
    /// Effective round size floor, as permille of the partition
    /// capacity. The grower also never drops the effective capacity
    /// below the largest KV seen (the jumbo floor), so shrinking can
    /// never livelock the round loop.
    pub min_fill_permille: u64,
    /// Grow/shrink step, in permille of the partition capacity.
    pub fill_step_permille: u64,
    /// Cumulative per-destination share (permille of fair share) at
    /// which a destination is declared hot and its traffic diverted
    /// through the two-stage path. 2000 = 2× fair share, matching the
    /// doctor's skew warning trip point.
    pub hot_trip_permille: u64,
    /// Rounds of histogram evidence required before the hot trip may
    /// fire (early rounds are noise).
    pub hot_min_rounds: u64,
    /// Cap on bytes interned in the local hot stage; 0 means "use the
    /// comm buffer size". Once full, already-staged KVs still collapse
    /// (a count bump costs no memory) but new distinct KVs ship
    /// directly.
    pub hot_stage_bytes: usize,
    /// Master switch for mode/round-size tuning.
    pub mode_tuning: bool,
    /// Master switch for hot-key mitigation.
    pub hot_mitigation: bool,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        Self {
            sync_bound_permille: 250,
            data_bound_permille: 750,
            hysteresis_rounds: 3,
            cooldown_rounds: 4,
            min_signal_ns: 10_000,
            min_fill_permille: 250,
            fill_step_permille: 250,
            hot_trip_permille: 2000,
            hot_min_rounds: 1,
            hot_stage_bytes: 0,
            mode_tuning: true,
            hot_mitigation: true,
        }
    }
}

/// Framework configuration shared by every job on a context.
#[derive(Debug, Clone, Copy)]
pub struct MimirConfig {
    /// Size in bytes of the communication send buffer (the receive buffer
    /// is the same size, per paper Section III-B). The send buffer is
    /// split into `size()` equal partitions.
    pub comm_buf_size: usize,
    /// Shuffle data-path variant (default [`ShuffleMode::ZeroCopy`]).
    pub shuffle_mode: ShuffleMode,
    /// Adaptive-shuffle policy, consulted only under
    /// [`ShuffleMode::Adaptive`].
    pub adapt: AdaptPolicy,
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
            shuffle_mode: ShuffleMode::default(),
            adapt: AdaptPolicy::default(),
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
