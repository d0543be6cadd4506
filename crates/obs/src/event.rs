//! The event model: fixed-size, `Copy`, heap-free records.
//!
//! Every event is 32 bytes: a timestamp (nanoseconds since the
//! recorder's epoch), a kind tag, and two `u64` arguments whose meaning
//! depends on the kind. Events never own heap data, so recording one is
//! a handful of stores into a preallocated ring buffer — cheap enough to
//! leave enabled around exchange rounds and page allocations.

/// A MapReduce phase, used as the argument of [`EventKind::PhaseBegin`] /
/// [`EventKind::PhaseEnd`] span events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Mimir's interleaved map+aggregate (or MR-MPI's map).
    Map = 0,
    /// MR-MPI's explicit aggregate (all-to-all of the KV dataset).
    Aggregate = 1,
    /// Grouping KVs into KMVs.
    Convert = 2,
    /// The reduce callback sweep (or partial-reduction finalization).
    Reduce = 3,
    /// MR-MPI's local compress.
    Compress = 4,
    /// MR-MPI's sort_keys.
    Sort = 5,
    /// A whole job (outermost span).
    Job = 6,
}

impl Phase {
    /// All phases, index-aligned with their discriminants.
    pub const ALL: [Phase; 7] = [
        Phase::Map,
        Phase::Aggregate,
        Phase::Convert,
        Phase::Reduce,
        Phase::Compress,
        Phase::Sort,
        Phase::Job,
    ];

    /// Stable lowercase name (used in exported traces).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Aggregate => "aggregate",
            Phase::Convert => "convert",
            Phase::Reduce => "reduce",
            Phase::Compress => "compress",
            Phase::Sort => "sort",
            Phase::Job => "job",
        }
    }

    /// Inverse of the discriminant encoding used in [`Event::a`].
    pub fn from_code(code: u64) -> Option<Phase> {
        Phase::ALL.get(code as usize).copied()
    }
}

/// A sub-step of one shuffle exchange round, used as the argument of
/// [`EventKind::StepBegin`] / [`EventKind::StepEnd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Step {
    /// Entering the round: the done-flag allreduce.
    Sync = 0,
    /// The alltoallv moving the send-buffer partitions.
    Alltoallv = 1,
    /// Draining received KVs into the sink.
    Drain = 2,
}

impl Step {
    /// All steps. Codes 3 and 4 belonged to retired steps and decode to
    /// `None`.
    pub const ALL: [Step; 3] = [Step::Sync, Step::Alltoallv, Step::Drain];

    /// Stable lowercase name (used in exported traces).
    pub fn name(self) -> &'static str {
        match self {
            Step::Sync => "sync",
            Step::Alltoallv => "alltoallv",
            Step::Drain => "drain",
        }
    }

    /// Inverse of the discriminant encoding used in [`Event::a`].
    pub fn from_code(code: u64) -> Option<Step> {
        Step::ALL.into_iter().find(|s| *s as u64 == code)
    }
}

/// What one [`Event`] records. The `a`/`b` columns document how the two
/// argument slots are interpreted per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Span open for a phase. `a` = [`Phase`] code.
    PhaseBegin = 0,
    /// Span close for a phase. `a` = [`Phase`] code.
    PhaseEnd = 1,
    /// Span open for one shuffle exchange round. `a` = round index.
    RoundBegin = 2,
    /// Span close for one exchange round. `a` = round index,
    /// `b` = 1 when the round reported all ranks done.
    RoundEnd = 3,
    /// Span open for a round sub-step. `a` = [`Step`] code.
    StepBegin = 4,
    /// Span close for a round sub-step. `a` = [`Step`] code,
    /// `b` = bytes moved (alltoallv / drain) where known.
    StepEnd = 5,
    /// Memory-pool sample at a page alloc/free. `a` = bytes in use,
    /// `b` = high-water mark.
    MemSample = 6,
    /// A spill file was opened. `a` = spill file id.
    SpillBegin = 7,
    /// A spill file was sealed. `a` = spill file id, `b` = payload bytes.
    SpillEnd = 8,
    /// The combiner table flushed into the shuffle. `a` = entries,
    /// `b` = the table's footprint (index and accumulators) before the
    /// flush.
    CombinerFlush = 9,
    /// A group index rebuilt its slot table. `a` = new slot capacity,
    /// `b` = live groups re-placed.
    GroupRehash = 10,
    // Codes 11–14 belonged to the retired job service's lifecycle kinds;
    // like code 17 and 20 they decode to `None` and are never reused.
    /// Wait-state summary of one exchange round. `a` = nanoseconds this
    /// rank spent blocked in the round's done-allreduce (straggler-bound
    /// wait), `b` = nanoseconds blocked completing the round's partition
    /// receives (byte-bound wait).
    RoundWait = 15,
    /// Per-destination skew summary of one exchange round, computed over
    /// the send-partition fill levels just before they ship.
    /// `a` = imbalance ratio max/mean in permille (1000 = perfectly
    /// balanced), `b` = Gini coefficient in permille (0 = uniform).
    RoundSkew = 16,
    // Code 17 belonged to the retired job service's heartbeat.
    /// A message left this rank. `a` = flow id
    /// (`(src_world_rank << 48) | seq`, see `next_flow_id`), `b` =
    /// `(dst_rank << 48) | payload_bytes`. Together with the matching
    /// [`EventKind::FlowRecv`] this is one happens-before edge of the
    /// cross-rank DAG.
    FlowSend = 18,
    /// A message was matched by a receive on this rank. `a` = flow id
    /// copied from the sender's stamp, `b` = `(src_rank << 48) |
    /// payload_bytes`.
    FlowRecv = 19,
    // Code 20 belonged to a retired kind; it decodes to `None` and is
    // never reused, so older compact `events` columns keep their meaning.
    /// A chained job consumed a cached input whose partition fingerprint
    /// matched its own, so the shuffle for that input was skipped
    /// entirely: map emits fed the local sink directly. `a` = KVs that
    /// took the elided path, `b` = payload bytes.
    ShuffleElided = 21,
    /// The cross-job KV cache spilled a resident container to disk under
    /// memory pressure. `a` = Fx hash of the entry's name, `b` = payload
    /// bytes spilled.
    CacheEvict = 22,
    /// A previously evicted cache entry was reloaded from its spill file
    /// on demand. `a` = Fx hash of the entry's name, `b` = payload bytes
    /// reloaded. An evict/reload pair of the same name hash close in time
    /// is the thrash signature `mimir-doctor` looks for.
    CacheReload = 23,
}

impl EventKind {
    /// All kinds, in code order.
    pub const ALL: [EventKind; 18] = [
        EventKind::PhaseBegin,
        EventKind::PhaseEnd,
        EventKind::RoundBegin,
        EventKind::RoundEnd,
        EventKind::StepBegin,
        EventKind::StepEnd,
        EventKind::MemSample,
        EventKind::SpillBegin,
        EventKind::SpillEnd,
        EventKind::CombinerFlush,
        EventKind::GroupRehash,
        EventKind::RoundWait,
        EventKind::RoundSkew,
        EventKind::FlowSend,
        EventKind::FlowRecv,
        EventKind::ShuffleElided,
        EventKind::CacheEvict,
        EventKind::CacheReload,
    ];

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseBegin => "phase_begin",
            EventKind::PhaseEnd => "phase_end",
            EventKind::RoundBegin => "round_begin",
            EventKind::RoundEnd => "round_end",
            EventKind::StepBegin => "step_begin",
            EventKind::StepEnd => "step_end",
            EventKind::MemSample => "mem_sample",
            EventKind::SpillBegin => "spill_begin",
            EventKind::SpillEnd => "spill_end",
            EventKind::CombinerFlush => "combiner_flush",
            EventKind::GroupRehash => "group_rehash",
            EventKind::RoundWait => "round_wait",
            EventKind::RoundSkew => "round_skew",
            EventKind::FlowSend => "flow_send",
            EventKind::FlowRecv => "flow_recv",
            EventKind::ShuffleElided => "shuffle_elided",
            EventKind::CacheEvict => "cache_evict",
            EventKind::CacheReload => "cache_reload",
        }
    }

    /// Numeric code used in compact serializations.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Inverse of [`Self::code`]. Matches on the discriminant, not the
    /// position in [`Self::ALL`], so a retired code stays `None` instead
    /// of shifting every later kind down by one.
    pub fn from_code(code: u64) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Inverse of [`Self::name`] (used when re-ingesting `.jsonl`
    /// exports, whose event lines carry names, not codes).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Packs a rank and a byte count into one event argument: the upper 16
/// bits carry the peer rank, the lower 48 the payload size. Used by the
/// flow events' `b` argument.
pub fn pack_rank_bytes(rank: u64, bytes: u64) -> u64 {
    (rank << 48) | (bytes & 0xFFFF_FFFF_FFFF)
}

/// Inverse of [`pack_rank_bytes`]: `(rank, bytes)`.
pub fn unpack_rank_bytes(packed: u64) -> (u64, u64) {
    (packed >> 48, packed & 0xFFFF_FFFF_FFFF)
}

/// One recorded event. See [`EventKind`] for the meaning of `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder's epoch.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First argument (kind-dependent).
    pub a: u64,
    /// Second argument (kind-dependent).
    pub b: u64,
}

impl Event {
    /// The human-readable span name an exporter should use: the phase or
    /// step name for typed spans, the kind name otherwise.
    pub fn label(&self) -> &'static str {
        match self.kind {
            EventKind::PhaseBegin | EventKind::PhaseEnd => {
                Phase::from_code(self.a).map_or("phase?", Phase::name)
            }
            EventKind::StepBegin | EventKind::StepEnd => {
                Step::from_code(self.a).map_or("step?", Step::name)
            }
            EventKind::RoundBegin | EventKind::RoundEnd => "exchange-round",
            other => other.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_code(k.code()), Some(k));
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("no_such_kind"), None);
        for p in Phase::ALL {
            assert_eq!(Phase::from_code(p as u64), Some(p));
        }
        for s in Step::ALL {
            assert_eq!(Step::from_code(s as u64), Some(s));
        }
        assert_eq!(EventKind::from_code(255), None);
        assert_eq!(Phase::from_code(255), None);
        // Retired codes stay unassigned.
        for retired in [11, 12, 13, 14, 17, 20] {
            assert_eq!(EventKind::from_code(retired), None);
        }
        assert_eq!(Step::from_code(3), None);
        assert_eq!(Step::from_code(4), None);
    }

    #[test]
    fn labels_follow_span_arguments() {
        let e = Event {
            t_ns: 0,
            kind: EventKind::PhaseBegin,
            a: Phase::Convert as u64,
            b: 0,
        };
        assert_eq!(e.label(), "convert");
        let e = Event {
            t_ns: 0,
            kind: EventKind::StepEnd,
            a: Step::Alltoallv as u64,
            b: 42,
        };
        assert_eq!(e.label(), "alltoallv");
        let e = Event {
            t_ns: 0,
            kind: EventKind::MemSample,
            a: 1,
            b: 2,
        };
        assert_eq!(e.label(), "mem_sample");
    }

    #[test]
    fn rank_bytes_packing_roundtrips() {
        for (rank, bytes) in [(0u64, 0u64), (3, 1), (65_535, (1 << 48) - 1)] {
            assert_eq!(
                unpack_rank_bytes(pack_rank_bytes(rank, bytes)),
                (rank, bytes)
            );
        }
        // Oversized byte counts are truncated, not smeared into the rank.
        let (rank, _) = unpack_rank_bytes(pack_rank_bytes(7, u64::MAX));
        assert_eq!(rank, 7);
    }
}
