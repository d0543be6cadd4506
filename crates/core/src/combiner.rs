//! KV compression — the map-side combiner (paper Section III-C2).
//!
//! When enabled, map emissions land in a fold table instead of the send
//! buffer; a KV whose key is already present is merged with the resident
//! KV by the user's compression callback. The paper delays the whole
//! aggregate until the map completes, so its table holds every unique
//! key, and defers a bounded version to "a future version of Mimir".
//! Here the table flushes into the shuffle whenever its footprint passes
//! a fixed share of its node's pool ([`FLUSH_SHARE`]), releases every
//! byte, and fills again; the map's end flushes the remainder. A key
//! seen again after a flush is sent again rather than merged, which the
//! receiving side's grouping or fold absorbs.
//!
//! The fold table runs on the shared [`GroupIndex`] engine: keys are
//! hashed exactly once per emitted KV and interned (short ones inside
//! their index entry), accumulators live in one byte arena addressed by
//! group id and a merge that keeps its length — always, for fixed-width
//! values — is written in place, and the flush hands each KV's stored
//! hash to the shuffle via [`Emitter::emit_hashed`] so partitioning does
//! not re-hash.
//!
//! The paper is explicit about the cost side, and this implementation
//! keeps it measurable: the table is charged to the node pool, so "it
//! reduces memory usage only if the compression ratio reaches a certain
//! threshold", and the per-KV probe shows up as compute time.

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::group::{DeltaCharge, GroupIndex, RESIZE_DELTA};
use crate::hash::fxhash64;
use crate::kv::validate;
use crate::shuffle::Emitter;
use crate::{KvMeta, MimirError, Result};

/// User callback merging two values of the same key:
/// `combine(key, accumulated, incoming, out)` writes the merged value to
/// `out`. Correctness requires the operation to be commutative and
/// associative, which is why this is an explicit opt-in.
pub type CombineFn<'f> = Box<dyn FnMut(&[u8], &[u8], &[u8], &mut Vec<u8>) + 'f>;

/// A pool-tracked fold table shared by KV compression and partial
/// reduction: key → current merged value.
///
/// Keys live in a [`GroupIndex`]; accumulators in one value arena
/// addressed by group id: `spans[id]` is the `(offset, len)` of group
/// `id`'s accumulator in `vals`. A merged value no longer than the one it
/// replaces is written over it; a longer one is appended and its span
/// re-pointed. The bytes either leaves behind are `dead` until
/// [`compact`] or the next flush drops them.
pub(crate) struct FoldTable<'f> {
    index: GroupIndex,
    spans: Vec<(u32, u32)>,
    vals: Vec<u8>,
    dead: usize,
    /// `spans` and `vals` by their exact lengths. The [`GroupIndex`]
    /// charges itself.
    charge: DeltaCharge,
    scratch: Vec<u8>,
    combine: CombineFn<'f>,
    n_folded: u64,
}

/// Bytes one arena group takes beyond its accumulator.
const SPAN_BYTES: usize = std::mem::size_of::<(u32, u32)>();

/// Where the next appended accumulator starts, as a span offset.
fn arena_end(vals: &[u8], more: usize) -> Result<u32> {
    u32::try_from(vals.len() + more)
        .map(|_| vals.len() as u32)
        .map_err(|_| MimirError::KvTooLarge {
            size: vals.len() + more,
            limit: u32::MAX as usize,
            what: "fold-table value arena",
        })
}

/// Rewrites `vals` without its dead bytes, in group order.
fn compact(spans: &mut [(u32, u32)], vals: &mut Vec<u8>, dead: &mut usize) {
    let mut live = Vec::with_capacity(vals.len() - *dead);
    for (off, len) in spans.iter_mut() {
        let at = live.len() as u32;
        live.extend_from_slice(&vals[*off as usize..][..*len as usize]);
        *off = at;
    }
    *vals = live;
    *dead = 0;
}

impl<'f> FoldTable<'f> {
    pub fn new(pool: &MemPool, combine: CombineFn<'f>) -> Result<Self> {
        Ok(Self {
            index: GroupIndex::new(pool)?,
            spans: Vec::new(),
            vals: Vec::new(),
            dead: 0,
            charge: DeltaCharge::new(pool)?,
            scratch: Vec::new(),
            combine,
            n_folded: 0,
        })
    }

    /// Inserts or merges one KV. The key is hashed once, for the table
    /// probe, and the hash is stored for the flush. Returns whether the
    /// table grew: a new group, or a merged value appended to the arena.
    pub fn fold(&mut self, key: &[u8], val: &[u8]) -> Result<bool> {
        let Self {
            index,
            spans,
            vals,
            dead,
            charge,
            scratch,
            combine,
            n_folded,
        } = self;
        // Checked before the index can change, and stored before it is
        // charged: index and spans stay in step (and the table drainable)
        // whatever is refused.
        let end = arena_end(vals, val.len())?;
        let (id, fresh) = index.insert_hashed(fxhash64(key), key)?;
        if fresh {
            spans.push((end, val.len() as u32));
            vals.extend_from_slice(val);
            return charge.add(SPAN_BYTES + val.len()).map(|()| true);
        }
        let (off, len) = spans[id as usize];
        let (off, len) = (off as usize, len as usize);
        scratch.clear();
        combine(key, &vals[off..off + len], val, scratch);
        *n_folded += 1;
        if scratch.len() <= len {
            vals[off..off + scratch.len()].copy_from_slice(scratch);
            spans[id as usize].1 = scratch.len() as u32;
            *dead += len - scratch.len();
            return Ok(false);
        }
        if *dead >= (vals.len() - *dead).max(RESIZE_DELTA) {
            charge.sub(*dead)?;
            compact(spans, vals, dead);
        }
        spans[id as usize] = (arena_end(vals, scratch.len())?, scratch.len() as u32);
        vals.extend_from_slice(scratch);
        *dead += len;
        charge.add(scratch.len()).map(|()| true)
    }

    /// Drains every entry into `out` in first-occurrence key order with
    /// each KV's stored hash ([`Emitter::emit_hashed`]) and releases the
    /// table in full.
    pub fn drain_into(&mut self, out: &mut dyn Emitter) -> Result<()> {
        for (id, &(off, len)) in self.spans.iter().enumerate() {
            let v = &self.vals[off as usize..][..len as usize];
            out.emit_hashed(self.index.key(id as u32), v, self.index.hash_of(id as u32))?;
        }
        self.dead = 0;
        (self.spans, self.vals) = (Vec::new(), Vec::new());
        self.index.reset()?;
        self.charge.sub(self.charge.held())?;
        self.charge.settle()
    }

    /// Visits entries without draining.
    #[cfg(test)]
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
        for (id, &(off, len)) in self.spans.iter().enumerate() {
            f(
                self.index.key(id as u32),
                &self.vals[off as usize..][..len as usize],
            )?;
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Bytes the accumulator arena holds — spans and values, what its
    /// own [`DeltaCharge`] has recorded. The index is not counted.
    pub fn bytes(&self) -> usize {
        self.charge.held()
    }

    /// The whole table's bytes: the index's
    /// [`footprint`](GroupIndex::footprint) plus [`Self::bytes`].
    pub fn footprint(&self) -> usize {
        self.index.footprint() + self.charge.held()
    }

    /// The grouping engine's counters.
    pub fn group_stats(&self) -> GroupCounters {
        self.index.stats()
    }

    #[cfg(test)]
    pub fn n_folded(&self) -> u64 {
        self.n_folded
    }
}

/// The share of its node's pool one KV-compression table may hold: the
/// table flushes into the shuffle once its
/// [footprint](FoldTable::footprint) passes `pool.budget() / FLUSH_SHARE`.
///
/// On the paper's 16 GB Mira node that is 64 MB, one Mimir page. On the
/// scaled presets it is one 64 KiB page a rank on `mira_mini` and
/// 512 KiB on `comet_mini`; on a 1 GiB node it is 4 MiB, above the whole
/// node's peak of WordCount over a 20 000-word Zipf vocabulary with
/// every optimisation on, so such a table flushes once, at the map's
/// end, as the paper's does. A smaller share costs duplicates: at one
/// comm buffer (64 KiB) that same run shuffles 11.2 M KVs in 1 644
/// rounds instead of 40 000 in 6, and takes 1.6–1.8× as long on a
/// 2-vCPU VM.
const FLUSH_SHARE: usize = 256;

/// The KV-compression table: the fold table behind the [`Emitter`]
/// interface handed to map callbacks, with the byte budget it flushes
/// at.
pub struct CombinerTable<'f> {
    table: FoldTable<'f>,
    meta: KvMeta,
    kvs_in: u64,
    budget: usize,
}

impl<'f> CombinerTable<'f> {
    /// Creates a compression table charging `pool`. Its budget for
    /// [`Self::emit_into`] is 1/256 of `pool`'s.
    ///
    /// # Errors
    /// Memory exhaustion.
    pub fn new(pool: &MemPool, meta: KvMeta, combine: CombineFn<'f>) -> Result<Self> {
        Ok(Self {
            table: FoldTable::new(pool, combine)?,
            meta,
            kvs_in: 0,
            budget: pool.budget() / FLUSH_SHARE,
        })
    }

    /// Folds one KV, then flushes the whole table into `out` if the fold
    /// grew it past its budget: the bounded KV compression a job's map
    /// runs. A fold that grows nothing is never checked.
    ///
    /// # Errors
    /// Hint violations, memory exhaustion, downstream emission failures.
    pub fn emit_into(&mut self, key: &[u8], val: &[u8], out: &mut dyn Emitter) -> Result<()> {
        if self.fold(key, val)? && self.table.footprint() > self.budget {
            self.flush_into(out)?;
        }
        Ok(())
    }

    /// Flushes the compressed KVs into the shuffle emitter (the delayed
    /// aggregate) and fully releases the table.
    pub fn flush_into(&mut self, shuffler: &mut dyn Emitter) -> Result<()> {
        if self.table.len() != 0 {
            mimir_obs::emit(
                mimir_obs::EventKind::CombinerFlush,
                self.table.len() as u64,
                self.table.footprint() as u64,
            );
        }
        self.table.drain_into(shuffler)
    }

    /// Unique keys currently held.
    pub fn unique_keys(&self) -> usize {
        self.table.len()
    }

    /// Bytes the accumulators hold: each group's value and its 8-byte
    /// span. The group index — entries, slots, interned keys — charges
    /// the pool on its own and is not counted; the flush budget reads the
    /// whole footprint.
    pub fn bytes(&self) -> usize {
        self.table.bytes()
    }

    /// KVs accepted so far (pre-compression).
    pub fn kvs_in(&self) -> u64 {
        self.kvs_in
    }

    /// The grouping engine's counters.
    pub fn group_stats(&self) -> GroupCounters {
        self.table.group_stats()
    }

    /// The compression ratio so far: input KVs per retained unique KV.
    pub fn ratio(&self) -> f64 {
        if self.table.len() == 0 {
            return 1.0;
        }
        self.kvs_in as f64 / self.table.len() as f64
    }

    fn fold(&mut self, key: &[u8], val: &[u8]) -> Result<bool> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        self.kvs_in += 1;
        self.table.fold(key, val)
    }
}

/// The table alone, with nowhere to flush: it holds every unique key
/// until [`CombinerTable::flush_into`].
impl Emitter for CombinerTable<'_> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.fold(key, val).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimir_mem::MemPool;

    fn sum_combine<'f>() -> CombineFn<'f> {
        Box::new(|_k, a, b, out| {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                + u64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        })
    }

    struct VecEmitter(Vec<(Vec<u8>, u64)>);
    impl Emitter for VecEmitter {
        fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
            self.0
                .push((key.to_vec(), u64::from_le_bytes(val.try_into().unwrap())));
            Ok(())
        }
    }

    #[test]
    fn duplicate_keys_are_merged() {
        let pool = MemPool::unlimited("t", 4096);
        let mut c = CombinerTable::new(&pool, KvMeta::cstr_key_u64_val(), sum_combine()).unwrap();
        for _ in 0..100 {
            c.emit(b"dog", &1u64.to_le_bytes()).unwrap();
            c.emit(b"cat", &2u64.to_le_bytes()).unwrap();
        }
        assert_eq!(c.unique_keys(), 2);
        assert_eq!(c.kvs_in(), 200);
        assert!((c.ratio() - 100.0).abs() < f64::EPSILON);

        let mut out = VecEmitter(Vec::new());
        c.flush_into(&mut out).unwrap();
        let mut got = out.0;
        got.sort();
        assert_eq!(got, vec![(b"cat".to_vec(), 200), (b"dog".to_vec(), 100)]);
        assert_eq!(c.unique_keys(), 0, "flush drains the table");
    }

    #[test]
    fn arena_flush_preserves_first_occurrence_order_and_hashes() {
        let pool = MemPool::unlimited("t", 4096);
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        for k in ["zeta", "alpha", "mid", "alpha", "zeta"] {
            c.emit(k.as_bytes(), &1u64.to_le_bytes()).unwrap();
        }
        struct HashChecker(Vec<Vec<u8>>);
        impl Emitter for HashChecker {
            fn emit(&mut self, _k: &[u8], _v: &[u8]) -> Result<()> {
                panic!("arena flush must use emit_hashed");
            }
            fn emit_hashed(&mut self, k: &[u8], _v: &[u8], h: u64) -> Result<()> {
                assert_eq!(h, crate::fxhash64(k), "stored hash matches key");
                self.0.push(k.to_vec());
                Ok(())
            }
        }
        let mut out = HashChecker(Vec::new());
        c.flush_into(&mut out).unwrap();
        assert_eq!(
            out.0,
            vec![b"zeta".to_vec(), b"alpha".to_vec(), b"mid".to_vec()]
        );
    }

    #[test]
    fn table_memory_is_tracked_and_released() {
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let fill = |c: &mut CombinerTable| {
            for i in 0..2000u64 {
                c.emit(format!("key-{i}").as_bytes(), &1u64.to_le_bytes())
                    .unwrap();
            }
        };
        let new = || CombinerTable::new(&pool, KvMeta::var(), sum_combine());
        let mut c = new().unwrap();
        fill(&mut c);
        assert!(c.bytes() >= 2000 * 8, "values counted");
        assert!(
            pool.used() + RESIZE_DELTA > c.bytes(),
            "{} charged for {}",
            pool.used(),
            c.bytes()
        );
        let mut out = VecEmitter(Vec::new());
        c.flush_into(&mut out).unwrap();
        assert_eq!((c.bytes(), pool.used()), (0, 0), "flush_into");

        // A refilled table flushes as clean as a fresh one.
        fill(&mut c);
        c.flush_into(&mut out).unwrap();
        assert_eq!((c.bytes(), pool.used()), (0, 0), "second flush_into");

        let mut c = new().unwrap();
        fill(&mut c);
        drop(c);
        assert_eq!(pool.used(), 0, "drop mid-fill");
        assert_eq!(out.0.len(), 4000);
    }

    #[test]
    fn arena_charge_is_exact() {
        // Keys of 8 bytes live in their entries: the pool holds entries,
        // slots, and 8 + 8 bytes per accumulator, nothing page-shaped.
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        for i in 0..1000u64 {
            c.emit(&i.to_le_bytes(), &1u64.to_le_bytes()).unwrap();
            c.emit(&i.to_le_bytes(), &1u64.to_le_bytes()).unwrap();
        }
        assert_eq!(c.bytes(), 1000 * (SPAN_BYTES + 8));
        let held = c.bytes() + 1000 * 24 + 2048 * 8;
        assert!(pool.used().abs_diff(held) < 2 * RESIZE_DELTA);
        assert_eq!(pool.stats().pages_live(), 0);
    }

    #[test]
    fn arena_refusal_is_oom_and_leaves_the_table_usable() {
        // Values big enough that the value arena, not the index, is what
        // the budget refuses.
        let pool = MemPool::new("t", 4096, 64 * 1024).unwrap();
        let keep: CombineFn = Box::new(|_k, a, _b, out| out.extend_from_slice(a));
        let mut c = CombinerTable::new(&pool, KvMeta::var(), keep).unwrap();
        let mut accepted = 0u32;
        let err = loop {
            match c.emit(&accepted.to_le_bytes(), &[7u8; 4000]) {
                Ok(()) => accepted += 1,
                Err(e) => break e,
            }
        };
        assert!(err.is_oom(), "{err}");
        assert!(pool.used() <= 64 * 1024);
        // Hits still fold, and the flush returns every accepted KV (plus,
        // possibly, the refused one) and every byte.
        c.emit(&0u32.to_le_bytes(), &[7u8; 4000]).unwrap();
        struct Count(u32);
        impl Emitter for Count {
            fn emit(&mut self, _k: &[u8], v: &[u8]) -> Result<()> {
                assert_eq!(v, [7u8; 4000]);
                self.0 += 1;
                Ok(())
            }
        }
        let mut out = Count(0);
        c.flush_into(&mut out).unwrap();
        assert!(out.0 == accepted || out.0 == accepted + 1, "{}", out.0);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn merges_that_change_length_keep_the_arena_bounded() {
        // One hot key whose accumulator grows by a byte per merge: every
        // merge re-appends, so dead bytes pile up until they are compacted.
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let concat: CombineFn = Box::new(|_k, a, b, out| {
            out.extend_from_slice(a);
            out.extend_from_slice(b);
        });
        let mut t = FoldTable::new(&pool, concat).unwrap();
        t.fold(b"cold", b"stays").unwrap();
        for _ in 0..20_000 {
            t.fold(b"hot", b"x").unwrap();
        }
        assert!(t.bytes() < 3 * 20_000 + RESIZE_DELTA, "{}", t.bytes());
        // Shrinking to nothing and growing back both keep the group.
        let clear: CombineFn = Box::new(|_k, _a, _b, _out| {});
        t.combine = clear;
        t.fold(b"hot", b"x").unwrap();
        let mut seen = Vec::new();
        t.for_each(|k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (b"cold".to_vec(), b"stays".to_vec()),
                (b"hot".to_vec(), vec![])
            ]
        );
    }

    #[test]
    fn table_oom_when_keys_do_not_compress() {
        // The paper's caveat: with no duplicate keys the table only
        // costs.
        let pool = MemPool::new("t", 4096, 32 * 1024).unwrap();
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        let mut res = Ok(());
        for i in 0..100_000u64 {
            res = c.emit(format!("unique-{i}").as_bytes(), &1u64.to_le_bytes());
            if res.is_err() {
                break;
            }
        }
        assert!(res.unwrap_err().is_oom());
    }

    #[test]
    fn variable_size_merged_values() {
        // Combine = concatenate: exercises the size-change accounting.
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let concat: CombineFn = Box::new(|_k, a, b, out| {
            out.extend_from_slice(a);
            out.extend_from_slice(b);
        });
        let mut t = FoldTable::new(&pool, concat).unwrap();
        for _ in 0..10 {
            t.fold(b"k", b"xy").unwrap();
        }
        let mut seen = Vec::new();
        t.for_each(|_k, v| {
            seen = v.to_vec();
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 20);
        assert_eq!(t.n_folded(), 9);
    }

    #[test]
    fn flush_cycles_release_the_table() {
        // A 512 KiB pool: the table flushes past 2 KiB, a few dozen of
        // the 200 keys, and each flush gives back every byte.
        let pool = MemPool::new("t", 4096, 512 << 10).unwrap();
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        let mut out = VecEmitter(Vec::new());
        let mut flushes = 0;
        for i in 0..3000u64 {
            let (key, before) = (format!("k{}", i % 200), out.0.len());
            c.emit_into(key.as_bytes(), &1u64.to_le_bytes(), &mut out)
                .unwrap();
            if out.0.len() != before {
                flushes += 1;
                assert_eq!((c.unique_keys(), c.table.footprint()), (0, 0));
                assert_eq!(pool.used(), 0, "flush {flushes} released the table");
            }
            assert!(c.table.footprint() <= 2048, "{}", c.table.footprint());
        }
        c.flush_into(&mut out).unwrap();
        assert!(flushes >= 10, "the budget forces flush cycles: {flushes}");
        let stats = c.group_stats();
        assert_eq!(stats.inserts, 3000);
        // Each cycle re-creates the groups it meets; cumulative groups
        // count every cycle.
        assert!(stats.groups > 200);
        let total: u64 = out.0.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 3000, "no KV lost across flush cycles");
        assert_eq!(pool.used(), 0);
    }
}
