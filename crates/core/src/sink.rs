use crate::kv::{with_sides, RunKvs};
use crate::{KvMeta, Result};

/// A consumer of shuffled KVs.
///
/// The exchange machinery is generic over where received KVs land, which
/// is exactly the paper's architectural split:
///
/// * baseline workflow — the receive buffer drains into a
///   [`GroupedKvs`](crate::GroupedKvs), which groups each run on arrival
///   for convert+reduce (map-only shapes drain into a plain
///   [`KvContainer`](crate::KvContainer));
/// * partial reduction — the receive buffer drains into a
///   [`PartialReducer`](crate::PartialReducer) hash bucket, so the full KV
///   set is never materialized.
pub trait KvSink {
    /// Accepts one KV.
    ///
    /// # Errors
    /// Typically [`crate::MimirError::Mem`] when the node budget is
    /// exhausted.
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()>;

    /// Accepts a contiguous run of encoded KVs — one source rank's
    /// contribution to an exchange round, in the wire encoding given by
    /// `meta`. Returns the number of KVs consumed.
    ///
    /// The default decodes and [`Self::accept`]s each KV. Sinks whose
    /// storage format equals the wire format (the container) override
    /// this with a bulk memcpy, and the grouping sink with one walk that
    /// skips per-KV validation; sinks that must look at every KV anyway
    /// (partial reduction, an arrival filter) keep the per-KV path.
    ///
    /// # Errors
    /// As [`Self::accept`], or [`crate::MimirError::MalformedRun`] once
    /// the walk reaches a KV the run ends inside; the KVs before it have
    /// been accepted.
    fn accept_run(&mut self, meta: KvMeta, run: &[u8]) -> Result<u64> {
        with_sides!(meta, |k, v| {
            let mut n = 0;
            for kv in RunKvs::new(k, v, run) {
                let (key, val) = kv?;
                self.accept(key, val)?;
                n += 1;
            }
            Ok(n)
        })
    }
}
