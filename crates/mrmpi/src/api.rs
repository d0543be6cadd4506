//! The MR-MPI user-facing object: explicit `map` → `aggregate` →
//! `convert` → `reduce` phases over a current KV/KMV dataset, as in the
//! original library (paper Section II-B, Figure 2).

use std::time::Instant;

use mimir_io::SpillStore;
use mimir_mem::MemPool;
use mimir_mpi::{Comm, ReduceOp};
use mimir_obs::{EventKind, Phase, Step};

use crate::buf::MrPage;
use crate::codec::{read_kv, write_kv};
use crate::kmvset::{KmvSet, MrValueIter};
use crate::kvset::KvSet;
use crate::sortmerge::group_kvs;
use crate::{MrError, MrMpiConfig, MrStats, Result};

/// FNV-1a hash used for MR-MPI's default key partitioning.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

#[inline]
fn partition(key: &[u8], p: usize) -> usize {
    (fnv1a(key) % p as u64) as usize
}

/// Emitter handed to map and reduce callbacks.
pub struct MrEmitter<'a> {
    kv: &'a mut KvSet,
    store: &'a SpillStore,
    count: &'a mut u64,
}

impl MrEmitter<'_> {
    /// Emits one KV into the current output dataset.
    ///
    /// # Errors
    /// Page overflow (out-of-core disabled), oversized KVs, or I/O
    /// failures while spilling.
    pub fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        *self.count += 1;
        self.kv.add(self.store, key, val)
    }
}

/// The MR-MPI MapReduce object.
pub struct MapReduce<'w> {
    comm: &'w mut Comm,
    pool: MemPool,
    store: SpillStore,
    cfg: MrMpiConfig,
    kv: Option<KvSet>,
    kmv: Option<KmvSet>,
    stats: MrStats,
}

impl<'w> MapReduce<'w> {
    /// Binds an MR-MPI instance to this rank's communicator, node pool,
    /// and spill store.
    pub fn new(comm: &'w mut Comm, pool: MemPool, store: SpillStore, cfg: MrMpiConfig) -> Self {
        Self {
            comm,
            pool,
            store,
            cfg,
            kv: None,
            kmv: None,
            stats: MrStats::default(),
        }
    }

    /// The map phase: runs the user callback, which emits KVs into a new
    /// dataset (one fresh page). Ends with a global barrier.
    ///
    /// # Errors
    /// Page-set allocation failure, page overflow under
    /// [`crate::OocMode::Error`], or callback errors.
    pub fn map(&mut self, f: impl FnOnce(&mut MrEmitter<'_>) -> Result<()>) -> Result<()> {
        let t0 = Instant::now();
        let _span = mimir_obs::phase_span(Phase::Map);
        self.kmv = None;
        let mut kv = KvSet::new(&self.pool, self.cfg.page_size, self.cfg.ooc)?;
        {
            let mut em = MrEmitter {
                kv: &mut kv,
                store: &self.store,
                count: &mut self.stats.kvs_mapped,
            };
            f(&mut em)?;
        }
        kv.seal(&self.store)?;
        self.note_spill(&kv);
        self.stats.kv_bytes_mapped += kv.bytes();
        self.kv = Some(kv);
        self.comm.barrier();
        self.stats.map_time += t0.elapsed();
        Ok(())
    }

    /// The aggregate phase: all-to-all movement of the current KV dataset
    /// so every KV lands on the rank its key hashes to.
    ///
    /// Allocates the paper's seven pages up front: the input dataset's
    /// page (already held), two temp partition-scratch pages, the send
    /// buffer, a double-size receive buffer, and the output dataset's
    /// page — then re-scans the input through the temps into the send
    /// buffer (the copies Mimir eliminates).
    ///
    /// # Errors
    /// Page-set allocation failure (the classic MR-MPI OOM), overflow
    /// under [`crate::OocMode::Error`], or I/O failures.
    pub fn aggregate(&mut self) -> Result<()> {
        let t0 = Instant::now();
        let _span = mimir_obs::phase_span(Phase::Aggregate);
        let input = self
            .kv
            .take()
            .ok_or_else(|| MrError::Phase("aggregate without a KV dataset".into()))?;
        let page = self.cfg.page_size;
        let p = self.comm.size();

        // The seven-page set (input page is page #1).
        let mut temp_dest = MrPage::new(&self.pool, page)?; // temp #2
        let mut temp_sizes = MrPage::new(&self.pool, page)?; // temp #3
        let mut send = MrPage::new(&self.pool, page)?; // #4
        let mut recv = MrPage::new(&self.pool, 2 * page)?; // #5 and #6
        let mut out = KvSet::new(&self.pool, page, self.cfg.ooc)?; // #7

        let part_cap = page / p;
        if part_cap < 16 {
            return Err(MrError::Phase(format!(
                "page of {page} B leaves {part_cap} B send partitions across {p} ranks"
            )));
        }
        let mut part_len = vec![0usize; p];

        // Exchange round: collective, identical call sequence on every
        // rank (allreduce of done-flags, then alltoallv) — the same
        // deadlock-free protocol Mimir uses, here with MR-MPI's extra
        // buffer hops. Every sender ships at most `part_cap` bytes to
        // each rank, so one round's `p · part_cap ≤ page` bytes land in
        // the double-size receive buffer, and are then copied into the
        // output dataset's page.
        let mut rounds = 0u64;
        let mut ranges = Vec::with_capacity(p);
        let mut exchange = |comm: &mut Comm,
                            send: &MrPage,
                            recv: &mut MrPage,
                            part_len: &mut [usize],
                            out: &mut KvSet,
                            store: &SpillStore,
                            done: bool|
         -> Result<bool> {
            let mut round = mimir_obs::span(EventKind::RoundBegin, EventKind::RoundEnd, rounds, 0);
            let all_done = {
                let _sync = mimir_obs::step_span(Step::Sync);
                comm.allreduce_u64(ReduceOp::LAnd, u64::from(done)) == 1
            };
            {
                let mut step = mimir_obs::step_span(Step::Alltoallv);
                step.set_b(part_len.iter().map(|&l| l as u64).sum());
                let parts = (0..p).map(|d| &send.as_slice()[d * part_cap..][..part_len[d]]);
                let pending = comm.alltoallv_post(parts, recv.as_mut_slice());
                comm.alltoallv_complete(pending, recv.as_mut_slice(), &mut ranges);
            }
            part_len.iter_mut().for_each(|l| *l = 0);
            // The received ranges tile the front of the receive buffer.
            let _drain = mimir_obs::step_span(Step::Drain);
            let used = ranges.iter().map(|r| r.len()).sum();
            drain_recv(&recv.as_slice()[..used], out, store)?;
            rounds += 1;
            round.set_b(u64::from(all_done));
            Ok(all_done)
        };

        // Scan the input page by page.
        let comm = &mut *self.comm;
        let store = &self.store;
        input.for_each_page(&mut |chunk| {
            // First pass (MR-MPI's partitioning scan): destination rank of
            // every KV into one temp buffer, per-destination totals into
            // the other.
            let sizes_mem = temp_sizes.as_mut_slice();
            sizes_mem[..p * 4].fill(0);
            let mut off = 0;
            let mut kv_idx = 0usize;
            while off < chunk.len() {
                let (k, _v, next) = read_kv(chunk, off);
                let dest = partition(k, p) as u32;
                let slot = (kv_idx * 4) % temp_dest.size();
                temp_dest.as_mut_slice()[slot..slot + 4].copy_from_slice(&dest.to_le_bytes());
                let s = u32::from_le_bytes(
                    sizes_mem[dest as usize * 4..dest as usize * 4 + 4]
                        .try_into()
                        .expect("u32 slot"),
                ) + (next - off) as u32;
                sizes_mem[dest as usize * 4..dest as usize * 4 + 4]
                    .copy_from_slice(&s.to_le_bytes());
                kv_idx += 1;
                off = next;
            }
            // Second pass: copy KVs into the send partitions, exchanging
            // whenever one fills.
            let mut off = 0;
            while off < chunk.len() {
                let (k, v, next) = read_kv(chunk, off);
                let len = next - off;
                if len > part_cap {
                    return Err(MrError::EntryTooLarge {
                        size: len,
                        page_size: part_cap,
                    });
                }
                let dest = partition(k, p);
                if part_len[dest] + len > part_cap {
                    exchange(
                        comm,
                        &send,
                        &mut recv,
                        &mut part_len,
                        &mut out,
                        store,
                        false,
                    )?;
                }
                let doff = dest * part_cap + part_len[dest];
                write_kv(k, v, &mut send.as_mut_slice()[doff..doff + len], 0);
                part_len[dest] += len;
                off = next;
            }
            Ok(())
        })?;
        while !exchange(comm, &send, &mut recv, &mut part_len, &mut out, store, true)? {}

        out.seal(&self.store)?;
        self.note_spill(&out);
        self.stats.exchange_rounds += rounds;
        self.kv = Some(out);
        self.comm.barrier();
        self.stats.aggregate_time += t0.elapsed();
        Ok(())
    }

    /// The convert phase: groups the current KV dataset into KMVs.
    /// Allocates the paper's four pages: the input page (held), two
    /// scratch pages for the grouping structures, and the KMV output
    /// page.
    ///
    /// # Errors
    /// Page-set allocation failure, overflow in in-memory-only mode, I/O
    /// failures.
    pub fn convert(&mut self) -> Result<()> {
        let t0 = Instant::now();
        let _span = mimir_obs::phase_span(Phase::Convert);
        let input = self
            .kv
            .take()
            .ok_or_else(|| MrError::Phase("convert without a KV dataset".into()))?;
        let page = self.cfg.page_size;
        let _scratch_a = MrPage::new(&self.pool, page)?;
        let _scratch_b = MrPage::new(&self.pool, page)?;
        let mut kmv = KmvSet::new(&self.pool, page, self.cfg.ooc)?;
        group_kvs(&input, &self.store, &self.pool, |k, vals, n| {
            kmv.add_group(&self.store, k, vals, n)
        })?;
        kmv.seal(&self.store)?;
        self.stats.unique_keys = kmv.n_groups();
        self.stats.spilled |= kmv.spilled();
        drop(input);
        self.kmv = Some(kmv);
        self.comm.barrier();
        self.stats.convert_time += t0.elapsed();
        Ok(())
    }

    /// The reduce phase: runs the user callback over every KMV group,
    /// emitting a new KV dataset. Allocates three pages: the KMV input
    /// page (held), one scratch, and the output page.
    ///
    /// # Errors
    /// Phase error without a preceding convert; page/memory/I/O failures.
    pub fn reduce(
        &mut self,
        mut f: impl FnMut(&[u8], MrValueIter<'_>, &mut MrEmitter<'_>) -> Result<()>,
    ) -> Result<()> {
        let t0 = Instant::now();
        let _span = mimir_obs::phase_span(Phase::Reduce);
        let kmv = self
            .kmv
            .take()
            .ok_or_else(|| MrError::Phase("reduce without a KMV dataset".into()))?;
        let _scratch = MrPage::new(&self.pool, self.cfg.page_size)?;
        let mut out = KvSet::new(&self.pool, self.cfg.page_size, self.cfg.ooc)?;
        kmv.for_each_group(|k, vals| {
            let mut em = MrEmitter {
                kv: &mut out,
                store: &self.store,
                count: &mut self.stats.kvs_reduced,
            };
            f(k, vals, &mut em)
        })?;
        out.seal(&self.store)?;
        self.note_spill(&out);
        drop(kmv);
        self.kv = Some(out);
        self.comm.barrier();
        self.stats.reduce_time += t0.elapsed();
        Ok(())
    }

    /// MR-MPI's KV compression: a *local* group-and-combine that shrinks
    /// the KV dataset before aggregate. As the paper observes, this
    /// reduces shuffled data but not MR-MPI's page footprint — the page
    /// sets stay the same size.
    ///
    /// # Errors
    /// Page/memory/I/O failures.
    pub fn compress(
        &mut self,
        mut combine: impl FnMut(&[u8], &[u8], &[u8], &mut Vec<u8>),
    ) -> Result<()> {
        let t0 = Instant::now();
        let _span = mimir_obs::phase_span(Phase::Compress);
        let input = self
            .kv
            .take()
            .ok_or_else(|| MrError::Phase("compress without a KV dataset".into()))?;
        let page = self.cfg.page_size;
        let _scratch_a = MrPage::new(&self.pool, page)?;
        let _scratch_b = MrPage::new(&self.pool, page)?;
        let mut out = KvSet::new(&self.pool, page, self.cfg.ooc)?;
        let mut acc: Vec<u8> = Vec::new();
        let mut scratch: Vec<u8> = Vec::new();
        group_kvs(&input, &self.store, &self.pool, |k, vals, n| {
            acc.clear();
            let mut off = 0;
            for i in 0..n {
                let len = u32::from_le_bytes(vals[off..off + 4].try_into().expect("vlen")) as usize;
                let v = &vals[off + 4..off + 4 + len];
                if i == 0 {
                    acc.extend_from_slice(v);
                } else {
                    scratch.clear();
                    combine(k, &acc, v, &mut scratch);
                    std::mem::swap(&mut acc, &mut scratch);
                }
                off += 4 + len;
            }
            out.add(&self.store, k, &acc)
        })?;
        out.seal(&self.store)?;
        self.note_spill(&out);
        drop(input);
        self.kv = Some(out);
        self.comm.barrier();
        self.stats.compress_time += t0.elapsed();
        Ok(())
    }

    /// Visits every KV of the current dataset (reading results out).
    ///
    /// # Errors
    /// Phase error if there is no KV dataset; I/O failures on spilled
    /// data.
    pub fn scan(&self, mut f: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
        let kv = self
            .kv
            .as_ref()
            .ok_or_else(|| MrError::Phase("scan without a KV dataset".into()))?;
        kv.for_each_kv(&mut f)
    }

    /// KVs in the current dataset.
    pub fn kv_count(&self) -> u64 {
        self.kv.as_ref().map_or(0, KvSet::n_kvs)
    }

    /// Encoded bytes in the current dataset.
    pub fn kv_bytes(&self) -> u64 {
        self.kv.as_ref().map_or(0, KvSet::bytes)
    }

    /// Whether any phase spilled to the I/O subsystem.
    pub fn spilled(&self) -> bool {
        self.stats.spilled
    }

    /// Job statistics so far (peak memory is refreshed on read).
    pub fn stats(&self) -> MrStats {
        let mut s = self.stats;
        s.node_peak_bytes = self.pool.peak();
        s
    }

    fn note_spill(&mut self, kv: &KvSet) {
        self.stats.spilled |= kv.spilled();
        self.stats.spill_pages += kv.spilled_pages();
    }
}

/// Copies received KVs out of the receive buffer into the output dataset.
fn drain_recv(buf: &[u8], out: &mut KvSet, store: &SpillStore) -> Result<()> {
    let mut off = 0;
    while off < buf.len() {
        let (k, v, next) = read_kv(buf, off);
        out.add(store, k, v)?;
        off = next;
    }
    Ok(())
}
