//! Partial reduction (paper Section III-C1, Figure 6).
//!
//! For reductions with "partial-reduce invariance" (commutative +
//! associative), the convert and reduce phases are replaced entirely:
//! every KV arriving from an exchange round is folded into a hash bucket
//! immediately — "the reduce can start as soon as some of the intermediate
//! KVs are available, without waiting for the KVs to be converted to
//! KMVs". The full KV set is never materialized in a container, and no
//! KMVC exists at all, which is where the large memory win in the paper's
//! Figure 13 comes from.

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::combiner::{CombineFn, FoldTable};
use crate::kv::{with_sides, RunKvs};
use crate::sink::KvSink;
use crate::{KvContainer, KvMeta, Result};

/// The partial-reduction sink: shuffled KVs fold straight into a bucket.
pub struct PartialReducer<'f> {
    table: FoldTable<'f>,
    meta: KvMeta,
}

impl<'f> PartialReducer<'f> {
    /// Creates a partial-reduction bucket charging `pool`.
    ///
    /// # Errors
    /// Memory exhaustion.
    pub fn new(pool: &MemPool, meta: KvMeta, combine: CombineFn<'f>) -> Result<Self> {
        Ok(Self {
            table: FoldTable::new(pool, combine)?,
            meta,
        })
    }

    /// Unique keys currently held.
    pub fn unique_keys(&self) -> usize {
        self.table.len()
    }

    /// KVs folded so far.
    pub fn kvs_in(&self) -> u64 {
        self.table.kvs_in()
    }

    /// The grouping engine's counters.
    pub fn group_stats(&self) -> GroupCounters {
        self.table.group_stats()
    }

    /// Finalizes the reduction: moves the bucket contents into a
    /// [`KvContainer`] with encoding `out_meta` (the job's output), and
    /// releases the bucket.
    ///
    /// # Errors
    /// Memory exhaustion, or output-hint violations.
    pub fn into_output(mut self, pool: &MemPool, out_meta: KvMeta) -> Result<KvContainer> {
        let mut out = KvContainer::new(pool, out_meta);
        struct Adapter<'a>(&'a mut KvContainer);
        impl crate::shuffle::Emitter for Adapter<'_> {
            fn emit(&mut self, k: &[u8], v: &[u8]) -> Result<()> {
                self.0.push(k, v)
            }
        }
        self.table.drain_into(&mut Adapter(&mut out))?;
        Ok(out)
    }
}

impl KvSink for PartialReducer<'_> {
    /// Single KVs come from an elided chain's local emitter, not from a
    /// run, so they are checked against the hints: the value always, the
    /// key when it opens a group.
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let (table, kv) = (&mut self.table, std::iter::once((key, val)));
        with_sides!(self.meta, |k, v| table.fold((k, v), kv, &mut |_| Ok(())))
    }

    /// One walk over the run, compiled for its hint pair, straight into
    /// the fold. Hints were checked at the emit boundary, and the walk
    /// yields only KVs that satisfy them, so nothing is checked again;
    /// the walk checks only that every KV lies inside the run.
    ///
    /// # Errors
    /// [`crate::MimirError::MalformedRun`] once the walk reaches a KV the
    /// run ends inside, the KVs before it folded; memory exhaustion.
    fn accept_run(&mut self, run_meta: KvMeta, run: &[u8]) -> Result<u64> {
        debug_assert_eq!(run_meta, self.meta, "run encoding must match the sink");
        let before = self.table.kvs_in();
        let (table, mut bad) = (&mut self.table, None);
        with_sides!(run_meta, |k, v| {
            let kvs = RunKvs::new(k, v, run).map_while(|kv| kv.map_err(|e| bad = Some(e)).ok());
            table.fold((), kvs, &mut |_| Ok(()))
        })?;
        bad.map_or(Ok(self.table.kvs_in() - before), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimir_mem::MemPool;
    use std::collections::HashMap;

    fn sum_combine<'f>() -> CombineFn<'f> {
        Box::new(|_k, a, b, out| {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                + u64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        })
    }

    #[test]
    fn folds_as_kvs_arrive_and_outputs_totals() {
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let meta = KvMeta::cstr_key_u64_val();
        let mut pr = PartialReducer::new(&pool, meta, sum_combine()).unwrap();
        for i in 0..999u64 {
            pr.accept(format!("w{}", i % 3).as_bytes(), &1u64.to_le_bytes())
                .unwrap();
        }
        assert_eq!(pr.unique_keys(), 3);
        assert_eq!(pr.kvs_in(), 999);

        let out = pr.into_output(&pool, meta).unwrap();
        let mut got: HashMap<Vec<u8>, u64> = HashMap::new();
        out.drain(|k, v| {
            got.insert(k.to_vec(), u64::from_le_bytes(v.try_into().unwrap()));
            Ok(())
        })
        .unwrap();
        assert_eq!(got[&b"w0".to_vec()], 333);
        assert_eq!(got[&b"w1".to_vec()], 333);
        assert_eq!(got[&b"w2".to_vec()], 333);
        assert_eq!(pool.used(), 0, "all structures released");
    }

    #[test]
    fn equivalent_to_convert_plus_reduce() {
        // The invariance property the paper requires: partial reduction
        // must produce the same totals as a full convert+reduce.
        let pool = MemPool::unlimited("t", 4096);
        let meta = KvMeta::var();
        let kvs: Vec<(Vec<u8>, u64)> = (0..500u64)
            .map(|i| (format!("k{}", i % 17).into_bytes(), i))
            .collect();

        // Path A: partial reduction.
        let mut pr = PartialReducer::new(&pool, meta, sum_combine()).unwrap();
        for (k, v) in &kvs {
            pr.accept(k, &v.to_le_bytes()).unwrap();
        }
        let out_a = pr.into_output(&pool, meta).unwrap();
        let mut a: HashMap<Vec<u8>, u64> = HashMap::new();
        out_a
            .drain(|k, v| {
                a.insert(k.to_vec(), u64::from_le_bytes(v.try_into().unwrap()));
                Ok(())
            })
            .unwrap();

        // Path B: KVC → convert → sum each group.
        let mut kvc = KvContainer::new(&pool, meta);
        for (k, v) in &kvs {
            kvc.push(k, &v.to_le_bytes()).unwrap();
        }
        let kmvc = crate::convert(kvc, &pool).unwrap();
        let mut b: HashMap<Vec<u8>, u64> = HashMap::new();
        kmvc.for_each_group(|k, vals| {
            let sum = vals
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .sum();
            b.insert(k.to_vec(), sum);
            Ok(())
        })
        .unwrap();

        assert_eq!(a, b);
    }
}
