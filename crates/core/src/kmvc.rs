use mimir_mem::{MemPool, Page};

use crate::group::{DeltaCharge, GroupIndex};
use crate::kv::{decode_side, write_side};
use crate::{KvMeta, LenHint, MimirError, Result};

/// Bytes in front of every chunk's payload: three little-endian `u32`s,
/// the payload length and the page index and offset of the group's next
/// chunk. A chunk is carved describing its whole capacity and linked to
/// itself; when it stops being its group's tail its filled length and
/// the next chunk are written. Readers stop at the group's value count,
/// so a tail's unfilled end is never decoded, and every link is valid.
const CHUNK_HDR: usize = 12;
/// Payload a chain's chunks double to from one value. Small chunks keep
/// a group of a few dozen values close to the size of its values: its
/// unused tail stays under this, and the headers cost under 5 % of it.
const SMALL_CHUNK: usize = 256;
/// Largest chunk payload. Past [`SMALL_CHUNK`] a chunk is at most about
/// an eighth of what its group already holds, so a big group's unused
/// tail stays near an eighth of it at most while the reader hops chunks
/// rarely.
const MAX_CHUNK: usize = 4096;
/// Cache lines the reader prefetches of each next chunk: a whole small
/// one; the hardware prefetcher follows a larger one from there.
const PREFETCH_LINES: usize = (CHUNK_HDR + SMALL_CHUNK).div_ceil(64);

/// Where a chunk starts: a page index and a byte offset into that page.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChunkRef {
    page: u32,
    off: u32,
}

/// One group's chain head.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: ChunkRef,
    tail: ChunkRef,
    /// Payload bytes written into, and held by, the tail chunk.
    fill: u32,
    cap: u32,
    /// Values in the whole chain.
    count: u32,
}

/// Every group's values, each group a chain of chunks bump-carved from
/// pool pages and filled in arrival order. A value never straddles two
/// chunks, so the chains are written once and read in place.
pub(crate) struct Chains {
    pool: MemPool,
    pages: Vec<Page>,
    heads: Vec<Chain>,
    /// Charges `heads`.
    charge: DeltaCharge,
}

/// Asks the CPU to start loading the cache line holding `buf[at]`, if
/// the target can. With thousands of chains filling or read at once the
/// hardware prefetcher cannot follow them, so [`Chains::append`] names
/// the line after the one it wrote (that chain's next appends land
/// there), and the reader names the next chunk of the chain it walks.
#[inline]
fn prefetch(buf: &[u8], at: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64 target
    // has, and it is a hint: the address is never dereferenced, so one
    // past the end of `buf` cannot fault.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(buf.as_ptr().wrapping_add(at).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (buf, at);
}

/// Reads the `u32` at `at`.
#[inline]
fn word(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4-byte field"))
}

impl Chains {
    pub(crate) fn new(pool: &MemPool) -> Result<Self> {
        Ok(Self {
            pool: pool.clone(),
            pages: Vec::new(),
            heads: Vec::new(),
            charge: DeltaCharge::new(pool)?,
        })
    }

    /// Appends `val`, encoded under `hint`, to group `gid`'s chain; a `gid`
    /// one past the last group opens that group's chain.
    ///
    /// # Errors
    /// [`MimirError::KvTooLarge`] if the encoded value and a chunk header
    /// exceed one page, [`MimirError::Mem`] if the node budget is
    /// exhausted.
    #[inline]
    pub(crate) fn append(&mut self, gid: u32, hint: LenHint, val: &[u8]) -> Result<()> {
        let need = hint.overhead() + val.len();
        let gid = gid as usize;
        if gid == self.heads.len() {
            self.charge.add(std::mem::size_of::<Chain>())?;
            let (first, cap) = self.carve(need, need)?;
            self.heads.push(Chain {
                first,
                tail: first,
                fill: 0,
                cap,
                count: 0,
            });
        } else if need > (self.heads[gid].cap - self.heads[gid].fill) as usize {
            self.grow(gid, need)?;
        }
        let c = &mut self.heads[gid];
        let at = c.tail.off as usize + CHUNK_HDR + c.fill as usize;
        let page = self.pages[c.tail.page as usize].as_mut_slice();
        write_side(hint, val, page, at);
        prefetch(page, at + 64);
        c.fill += need as u32;
        c.count += 1;
        Ok(())
    }

    /// Links a fresh chunk behind group `gid`'s tail: twice the tail's
    /// size, within the limits of [`SMALL_CHUNK`] and [`MAX_CHUNK`].
    fn grow(&mut self, gid: usize, need: usize) -> Result<()> {
        let c = self.heads[gid];
        let limit = (c.count as usize * need / 8).clamp(SMALL_CHUNK, MAX_CHUNK);
        // Whole values of this size, so fixed-size values fill chunks
        // exactly.
        let top = limit.max(need) / need.max(1) * need.max(1);
        let want = (2 * c.cap as usize).clamp(need, top);
        let (next, cap) = self.carve(want, need)?;
        self.write_header(c.tail, c.fill, next);
        let c = &mut self.heads[gid];
        (c.tail, c.fill, c.cap) = (next, 0, cap);
        Ok(())
    }

    /// Writes the header of the chunk at `at`: `len` payload bytes, then
    /// `next`.
    fn write_header(&mut self, at: ChunkRef, len: u32, next: ChunkRef) {
        let page = self.pages[at.page as usize].as_mut_slice();
        let off = at.off as usize;
        for (i, w) in [len, next.page, next.off].into_iter().enumerate() {
            page[off + 4 * i..off + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Carves a chunk of `want` payload bytes from the current page, or
    /// of what the page has left when that is less but still holds
    /// `need`; opens a page when it does not.
    fn carve(&mut self, want: usize, need: usize) -> Result<(ChunkRef, u32)> {
        let page_size = self.pool.page_size();
        if CHUNK_HDR + need > page_size {
            return Err(MimirError::KvTooLarge {
                size: CHUNK_HDR + need,
                limit: page_size,
                what: "KMV chunk",
            });
        }
        if self
            .pages
            .last()
            .is_none_or(|p| p.remaining() < CHUNK_HDR + need)
        {
            self.pages.push(self.pool.alloc_page()?);
        }
        let page = self.pages.last_mut().expect("page just ensured");
        let off = page.len();
        let cap = want.min(page.remaining() - CHUNK_HDR);
        page.set_len(off + CHUNK_HDR + cap);
        let at = ChunkRef {
            page: self.pages.len() as u32 - 1,
            off: off as u32,
        };
        self.write_header(at, cap as u32, at);
        Ok((at, cap as u32))
    }

    /// The payload and successor of the chunk at `at`, prefetching the
    /// successor.
    fn chunk(&self, at: ChunkRef) -> (&[u8], ChunkRef) {
        let page = self.pages[at.page as usize].as_slice();
        let off = at.off as usize;
        let start = off + CHUNK_HDR;
        let next = ChunkRef {
            page: word(page, off + 4),
            off: word(page, off + 8),
        };
        let to = self.pages[next.page as usize].as_slice();
        for line in 0..PREFETCH_LINES {
            prefetch(to, next.off as usize + 64 * line);
        }
        (&page[start..start + word(page, off) as usize], next)
    }
}

/// KMV container (KMVC): grouped `<key, [values]>` lists, built on
/// arrival by the grouping engine ([`crate::GroupedKvs`], or
/// [`crate::convert`] of a KVC).
///
/// Keys stay in the [`GroupIndex`] entries that interned them — its slot
/// table is released at seal — and each group's values stay in the chain
/// of chunks they were appended to, each value encoded per the value
/// hint. Nothing is copied to seal the container: a hot key's chain just
/// grows, chunk by chunk, with no buffer larger than a page.
pub struct KmvContainer {
    meta: KvMeta,
    keys: GroupIndex,
    chains: Chains,
    n_values: u64,
    bytes: u64,
}

impl KmvContainer {
    /// Seals the grouping engine's keys and chains into a container.
    pub(crate) fn seal(
        meta: KvMeta,
        mut keys: GroupIndex,
        mut chains: Chains,
        n_values: u64,
        bytes: u64,
    ) -> Result<Self> {
        debug_assert_eq!(keys.len(), chains.heads.len());
        keys.release_slots()?;
        chains.charge.settle()?;
        Ok(Self {
            meta,
            keys,
            chains,
            n_values,
            bytes,
        })
    }

    /// Number of unique keys (groups).
    pub fn n_groups(&self) -> usize {
        self.chains.heads.len()
    }

    /// Total number of values across all groups.
    pub fn n_values(&self) -> u64 {
        self.n_values
    }

    /// Encoded bytes a contiguous KMVC would hold: per group, the key
    /// under its hint, a `u32` value count and the values under theirs.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Pages of value chunks held.
    pub fn pages_held(&self) -> usize {
        self.chains.pages.len()
    }

    /// The container's encoding.
    pub fn meta(&self) -> KvMeta {
        self.meta
    }

    /// Visits every group in first-occurrence order with its key and an
    /// iterator over its values in arrival order — the reduce phase's
    /// access path.
    ///
    /// # Errors
    /// Propagates the first error from `f`.
    pub fn for_each_group(
        &self,
        mut f: impl FnMut(&[u8], ValueIter<'_>) -> Result<()>,
    ) -> Result<()> {
        for (gid, c) in self.chains.heads.iter().enumerate() {
            let (buf, next) = self.chains.chunk(c.first);
            let vals = ValueIter {
                hint: self.meta.val,
                chains: &self.chains,
                buf,
                next,
                off: 0,
                remaining: c.count,
            };
            f(self.keys.key(gid as u32), vals)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for KmvContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KmvContainer")
            .field("groups", &self.n_groups())
            .field("n_values", &self.n_values)
            .field("pages", &self.chains.pages.len())
            .finish()
    }
}

/// Iterator over the values of one KMV group, walking its chunk chain.
pub struct ValueIter<'a> {
    hint: LenHint,
    chains: &'a Chains,
    /// The current chunk's payload.
    buf: &'a [u8],
    next: ChunkRef,
    off: usize,
    remaining: u32,
}

impl<'a> Iterator for ValueIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        if self.off == self.buf.len() {
            (self.buf, self.next) = self.chains.chunk(self.next);
            self.off = 0;
        }
        self.remaining -= 1;
        let (range, next) = decode_side(self.hint, self.buf, self.off);
        self.off = next;
        Some(&self.buf[range])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for ValueIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{convert, KvContainer};

    /// Chunks in group `gid`'s chain.
    fn chunks_of(kmvc: &KmvContainer, gid: usize) -> usize {
        let Chain { first, tail, .. } = kmvc.chains.heads[gid];
        let mut at = first;
        let mut n = 1;
        while at != tail {
            at = kmvc.chains.chunk(at).1;
            n += 1;
        }
        n
    }

    #[test]
    fn hot_key_chain_spans_many_chunks() {
        let pool = MemPool::new("t", 128, 256 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(4, 8));
        // 100 values × 8 B = 800 B ≫ 128 B page.
        for i in 0..100u64 {
            kvc.push(b"hotk", &i.to_le_bytes()).unwrap();
        }
        kvc.push(b"cold", &0u64.to_le_bytes()).unwrap();
        let kmvc = convert(kvc, &pool).unwrap();
        assert!(chunks_of(&kmvc, 0) >= 7, "{} chunks", chunks_of(&kmvc, 0));
        assert_eq!(chunks_of(&kmvc, 1), 1);
        let mut groups = Vec::new();
        kmvc.for_each_group(|k, vals| {
            let vals = vals.map(|v| u64::from_le_bytes(v.try_into().unwrap()));
            groups.push((k.to_vec(), vals.collect::<Vec<_>>()));
            Ok(())
        })
        .unwrap();
        assert_eq!(groups[0], (b"hotk".to_vec(), (0..100).collect()));
        assert_eq!(groups[1], (b"cold".to_vec(), vec![0]));
    }
}
