use mimir_mem::{MemPool, Page};

use crate::group::{DeltaCharge, GroupIndex};
use crate::kv::{copy_short, put_side, take_side};
use crate::{KvMeta, LenHint, MimirError, Result};

/// Bytes in front of every chunk's payload: a little-endian `u32` word,
/// then `u16`s for its value count and their width. The word is the
/// chunk's capacity while it is its group's tail, then its successor's
/// address; readers stop at the group's count and never follow a tail.
const CHUNK_HDR: usize = 8;
/// The width of a variable chunk, whose values are encoded under the
/// value hint. Any other width is a uniform chunk's: its values all have
/// that length and are stored bare, as under `Fixed(width)`.
const VAR: u16 = u16::MAX;
/// Stored payload a chain's chunks double to from one value, so a group
/// of a few dozen values keeps its unused tail under this and pays about
/// 3 % of it in headers.
const SMALL_CHUNK: usize = 256;
/// Largest chunk payload. Past [`SMALL_CHUNK`] a chunk is at most about
/// an eighth of what its group already holds, so a big group's unused
/// tail stays near an eighth of it while the reader hops chunks rarely.
const MAX_CHUNK: usize = 4096;
/// Cache lines the reader prefetches of each next chunk: a whole small
/// one; the hardware prefetcher follows a larger one from there.
const PREFETCH_LINES: usize = (CHUNK_HDR + SMALL_CHUNK).div_ceil(64);

/// One group's chain head. A chunk's address is one `u32`: page slot ×
/// page stride (the page size rounded up to a power of two) + offset.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: u32,
    tail: u32,
    /// Payload bytes written into the tail chunk.
    fill: u32,
    /// Values in the whole chain.
    count: u32,
}

/// Every group's values, each group a chain of chunks bump-carved from
/// pool pages and filled in arrival order. A value never straddles two
/// chunks, so the chains are written once and read in place.
pub(crate) struct Chains {
    pool: MemPool,
    /// The value hint, which variable chunks encode under.
    hint: LenHint,
    pages: Vec<Page>,
    /// log2 of the page stride.
    shift: u32,
    heads: Vec<Chain>,
    /// Charges `heads`.
    charge: DeltaCharge,
}

/// Asks the CPU to start loading the cache line holding `buf[at]`, if
/// the target can. With thousands of chains filling or read at once the
/// hardware prefetcher cannot follow them, so [`Chains::append`] names
/// the line after the one it wrote (that chain's next appends land
/// there), the reader names the next chunk of the chain it walks, and
/// the on-arrival pass names a whole batch's heads and tails before it
/// appends to any of them.
#[inline]
fn prefetch<T>(buf: &[T], at: usize) {
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

/// The address of byte `off` of page `slot` at a page stride of
/// 2^`shift`, or [`MimirError::KvTooLarge`] past 4 GiB.
fn pack(slot: usize, off: usize, shift: u32) -> Result<u32> {
    let at = ((slot as u128) << shift) + off as u128;
    let (size, limit) = (usize::try_from(at).unwrap_or(usize::MAX), u32::MAX as usize);
    let what = "KMV chunk address space";
    u32::try_from(at).map_err(|_| MimirError::KvTooLarge { size, limit, what })
}

impl Chains {
    pub(crate) fn new(pool: &MemPool, hint: LenHint) -> Result<Self> {
        Ok(Self {
            pool: pool.clone(),
            hint,
            pages: Vec::new(),
            shift: pool.page_size().next_power_of_two().trailing_zeros(),
            heads: Vec::new(),
            charge: DeltaCharge::new(pool)?,
        })
    }

    /// The page slot and offset of chunk address `at`.
    #[inline]
    fn locate(&self, at: u32) -> (usize, usize) {
        let at = at as usize;
        (at >> self.shift, at & ((1 << self.shift) - 1))
    }

    /// The chunk at `at`: page slot, offset, word, value count, storage.
    #[inline]
    fn header(&self, at: u32) -> (usize, usize, u32, u16, LenHint) {
        let (slot, off) = self.locate(at);
        let h = &self.pages[slot].as_slice()[off..off + CHUNK_HDR];
        let h = u64::from_le_bytes(h.try_into().expect("chunk header"));
        let stored = match (h >> 48) as u16 {
            VAR => self.hint,
            width => LenHint::Fixed(width.into()),
        };
        (slot, off, h as u32, (h >> 32) as u16, stored)
    }

    /// Starts loading group `gid`'s chain head, if the group has one.
    #[inline]
    pub(crate) fn prefetch_head(&self, gid: u32) {
        prefetch(&self.heads, gid as usize);
    }

    /// Starts loading what [`Self::append`] touches in group `gid`'s
    /// tail chunk: its header and its write position. Reads the chain
    /// head, so [`Self::prefetch_head`] should run some time before.
    #[inline]
    pub(crate) fn prefetch_tail(&self, gid: u32) {
        let Some(c) = self.heads.get(gid as usize) else {
            return;
        };
        let (slot, off) = self.locate(c.tail);
        let page = self.pages[slot].as_slice();
        prefetch(page, off);
        prefetch(page, off + CHUNK_HDR + c.fill as usize);
    }

    /// Appends `val` to group `gid`'s chain, bare into a uniform tail of
    /// its length and encoded under the hint into a variable one; a `gid`
    /// one past the last group opens that group's chain.
    ///
    /// The hot case — a uniform tail of `val`'s width with room for it —
    /// is decided on the chain head and the tail's header word alone,
    /// and writes `val` with fixed-width moves; everything else goes to
    /// [`Self::append_cold`].
    ///
    /// # Errors
    /// [`MimirError::KvTooLarge`] if the stored value and a chunk header
    /// exceed one page, [`MimirError::Mem`] if the budget is exhausted.
    #[inline(always)]
    pub(crate) fn append(&mut self, gid: u32, val: &[u8]) -> Result<()> {
        if let Some(c) = self.heads.get(gid as usize).copied() {
            let (slot, off) = self.locate(c.tail);
            let page = self.pages[slot].as_mut_slice();
            let h = u64::from_le_bytes(page[off..off + CHUNK_HDR].try_into().expect("header"));
            let (cap, n, width) = (h as u32 as usize, (h >> 32) as u16, (h >> 48) as usize);
            let (at, fill) = (
                off + CHUNK_HDR + c.fill as usize,
                c.fill as usize + val.len(),
            );
            if width == val.len() && width != VAR as usize && fill <= cap && n < u16::MAX {
                copy_short(&mut page[at..off + CHUNK_HDR + fill], val);
                page[off + 4..off + 6].copy_from_slice(&(n + 1).to_le_bytes());
                prefetch(page, at + 64);
                let c = &mut self.heads[gid as usize];
                (c.fill, c.count) = (fill as u32, c.count + 1);
                return Ok(());
            }
        }
        self.append_cold(gid, val)
    }

    /// [`Self::append`] outside its hot case: a new group's first value,
    /// a variable tail, a value of another width, or a full tail.
    #[cold]
    #[inline(never)]
    fn append_cold(&mut self, gid: u32, val: &[u8]) -> Result<()> {
        let gid = gid as usize;
        if gid == self.heads.len() {
            self.charge.add(std::mem::size_of::<Chain>())?;
            self.carve(gid, val, false)?;
        }
        loop {
            let c = self.heads[gid];
            let (slot, off, cap, n, stored) = self.header(c.tail);
            let need = stored.overhead() + val.len();
            let broken = matches!(stored, LenHint::Fixed(w) if w != val.len());
            if broken || n == u16::MAX || c.fill as usize + need > cap as usize {
                self.carve(gid, val, broken)?;
                continue;
            }
            let page = self.pages[slot].as_mut_slice();
            let at = off + CHUNK_HDR + c.fill as usize;
            put_side(stored, val, &mut page[at..at + need]);
            page[off + 4..off + 6].copy_from_slice(&(n + 1).to_le_bytes());
            let c = &mut self.heads[gid];
            (c.fill, c.count) = (c.fill + need as u32, c.count + 1);
            return Ok(());
        }
    }

    /// Carves group `gid`'s next tail for `val`, variable if `var` or if
    /// `val`'s length is no `u16` width, else uniform at that length: at
    /// twice the old tail's capacity, within the limits above, in its
    /// unused room — given back to the page if it ends the open page — or
    /// at the open page's end or a new page's, shrunk to the room there.
    fn carve(&mut self, gid: usize, val: &[u8], var: bool) -> Result<()> {
        let width = u16::try_from(val.len()).ok().filter(|&w| !var && w != VAR);
        let need = val.len() + width.map_or(self.hint.overhead(), |_| 0);
        let page_size = self.pool.page_size();
        if CHUNK_HDR + need > page_size {
            let (size, limit, what) = (CHUNK_HDR + need, page_size, "KMV chunk");
            return Err(MimirError::KvTooLarge { size, limit, what });
        }
        let prev = self.heads.get(gid).copied();
        let (mut room, mut cap, mut n) = ((0, 0, 0), 0, 0);
        if let Some(c) = prev {
            let (slot, off, word, ..) = self.header(c.tail);
            let end = off + CHUNK_HDR + c.fill as usize;
            let stop = off + CHUNK_HDR + word as usize;
            let open = slot + 1 == self.pages.len();
            let page = &mut self.pages[slot];
            if open && stop == page.len() {
                page.set_len(end);
                page.as_mut_slice()[off..off + 4].copy_from_slice(&c.fill.to_le_bytes());
            }
            (room, cap, n) = ((slot, end, stop.min(page.len())), word as usize, c.count);
        }
        if room.2 < room.1 + CHUNK_HDR + need {
            if self.pages.last().map_or(0, Page::remaining) < CHUNK_HDR + need {
                self.pages.push(self.pool.alloc_page()?);
            }
            let slot = self.pages.len() - 1;
            room = (slot, self.pages[slot].len(), page_size);
        }
        let (slot, off, stop) = room;
        let limit = (n as usize * need / 8).clamp(SMALL_CHUNK, MAX_CHUNK);
        // Whole values, so fixed-size values fill chunks exactly.
        let top = limit.max(need) / need.max(1) * need.max(1);
        let cap = (2 * cap).clamp(need, top).min(stop - off - CHUNK_HDR);
        let page = &mut self.pages[slot];
        page.set_len(page.len().max(off + CHUNK_HDR + cap));
        let h = cap as u64 | u64::from(width.unwrap_or(VAR)) << 48;
        page.as_mut_slice()[off..off + CHUNK_HDR].copy_from_slice(&h.to_le_bytes());
        let at = pack(slot, off, self.shift)?;
        let Some(c) = prev else {
            self.heads.push(Chain {
                first: at,
                tail: at,
                fill: 0,
                count: 0,
            });
            return Ok(());
        };
        let (slot, off) = self.locate(c.tail);
        self.pages[slot].as_mut_slice()[off..off + 4].copy_from_slice(&at.to_le_bytes());
        (self.heads[gid].tail, self.heads[gid].fill) = (at, 0);
        Ok(())
    }
}

/// KMV container (KMVC): grouped `<key, [values]>` lists, built on
/// arrival by the grouping engine ([`crate::GroupedKvs`], or
/// [`crate::convert`] of a KVC).
///
/// Keys stay in the [`GroupIndex`] entries that interned them, values in
/// the chunk chains they were appended to: sealing copies nothing, and no
/// buffer exceeds a page. The index's slot table is released at seal,
/// except in the container [`crate::FedJob::group`] returns,
/// which keeps it to answer [`Self::get`].
pub struct KmvContainer {
    meta: KvMeta,
    keys: GroupIndex,
    chains: Chains,
    bytes: u64,
    /// Whether the slot table was kept, so keyed lookups can be answered.
    keyed: bool,
}

impl KmvContainer {
    /// Seals the grouping engine's keys and chains into a container,
    /// keeping the index's slot table if `keyed`.
    pub(crate) fn seal(
        meta: KvMeta,
        keys: GroupIndex,
        chains: Chains,
        bytes: u64,
        keyed: bool,
    ) -> Result<Self> {
        debug_assert_eq!(keys.len(), chains.heads.len());
        let mut kmvc = Self {
            meta,
            keys,
            chains,
            bytes,
            keyed,
        };
        if keyed {
            kmvc.keys.settle()?;
        } else {
            kmvc.keys.release_slots()?;
        }
        kmvc.chains.charge.settle()?;
        Ok(kmvc)
    }

    /// Number of unique keys (groups).
    pub fn n_groups(&self) -> usize {
        self.chains.heads.len()
    }

    /// Total number of values across all groups.
    pub fn n_values(&self) -> u64 {
        self.chains.heads.iter().map(|c| u64::from(c.count)).sum()
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

    /// Visits every group, in first-occurrence order, with its key and its
    /// values in arrival order: the reduce phase's access path.
    ///
    /// # Errors
    /// Propagates the first error from `f`.
    pub fn for_each_group(
        &self,
        mut f: impl FnMut(&[u8], ValueIter<'_>) -> Result<()>,
    ) -> Result<()> {
        for gid in 0..self.chains.heads.len() as u32 {
            f(self.keys.key(gid), self.values(gid))?;
        }
        Ok(())
    }

    /// The values of `key`'s group in arrival order, or `None` if no KV
    /// had that key: one probe of the kept index, then a walk of the
    /// group's chain.
    ///
    /// # Errors
    /// [`MimirError::Config`] on a container whose index was released at
    /// seal — every one but [`crate::FedJob::group`]'s — rather
    /// than a `None` that would claim the key is absent.
    pub fn get(&self, key: &[u8]) -> Result<Option<ValueIter<'_>>> {
        if !self.keyed {
            return Err(MimirError::Config(
                "KmvContainer::get needs the index only group keeps".to_string(),
            ));
        }
        Ok(self.keys.get(key).map(|gid| self.values(gid)))
    }

    /// Group `gid`'s values, from the head of its chain.
    fn values(&self, gid: u32) -> ValueIter<'_> {
        ValueIter {
            chains: &self.chains,
            buf: &[],
            next: self.chains.heads[gid as usize].first,
            stored: self.meta.val,
            left: 0,
            remaining: self.chains.heads[gid as usize].count,
        }
    }
}

impl std::fmt::Debug for KmvContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KmvContainer")
            .field("groups", &self.n_groups())
            .field("n_values", &self.n_values())
            .field("pages", &self.chains.pages.len())
            .finish()
    }
}

/// Iterator over the values of one KMV group, walking its chunk chain.
pub struct ValueIter<'a> {
    chains: &'a Chains,
    /// The current chunk's page, from its next value on.
    buf: &'a [u8],
    /// The current chunk's word: its successor, unless it is the tail.
    next: u32,
    stored: LenHint,
    /// Values of the current chunk not yet returned.
    left: u16,
    remaining: u32,
}

impl<'a> Iterator for ValueIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        if self.left == 0 {
            let (slot, off);
            (slot, off, self.next, self.left, self.stored) = self.chains.header(self.next);
            self.buf = &self.chains.pages[slot].as_slice()[off + CHUNK_HDR..];
            if self.remaining > u32::from(self.left) {
                let (slot, off) = self.chains.locate(self.next);
                let to = self.chains.pages[slot].as_slice();
                (0..PREFETCH_LINES).for_each(|line| prefetch(to, off + 64 * line));
            }
        }
        self.remaining -= 1;
        self.left -= 1;
        let val;
        (val, self.buf) = take_side(self.stored, self.buf).expect("a value inside its chunk");
        Some(val)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for ValueIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{convert, encode_push, GroupedKvs, KvContainer, KvSink};
    use std::collections::HashMap;

    /// Key `i`, sized by `i` to live inline in its index entry (up to 15
    /// bytes), in the key arena (up to a page) or in a jumbo buffer.
    fn key_of(i: u64, page: usize) -> Vec<u8> {
        let mut k = format!("{i}").into_bytes();
        k.resize([3, 15, 16, 40, page, page + 1][i as usize % 6], b'.');
        k
    }

    #[test]
    fn get_matches_a_hashmap_oracle() {
        let page = 64;
        let pool = MemPool::unlimited("t", page);
        let meta = KvMeta::var();
        let mut sink = GroupedKvs::new(&pool, meta).unwrap();
        let mut oracle: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        let mut run = Vec::new();
        for n in 0..900u64 {
            let (key, val) = (
                key_of(n * 7 % 60, page),
                &n.to_le_bytes()[..1 + n as usize % 8],
            );
            oracle.entry(key.clone()).or_default().push(val.to_vec());
            encode_push(meta, &key, val, &mut run);
            if n % 100 == 99 {
                sink.accept_run(meta, &run).unwrap();
                run.clear();
            }
        }
        let (kmvc, _) = sink.seal(true).unwrap();
        assert_eq!(kmvc.n_groups(), oracle.len());
        for (key, vals) in &oracle {
            let got: Vec<_> = kmvc
                .get(key)
                .unwrap()
                .unwrap()
                .map(<[u8]>::to_vec)
                .collect();
            assert_eq!(&got, vals, "values of {key:?} in arrival order");
        }
        for i in 60..72 {
            assert!(kmvc.get(&key_of(i, page)).unwrap().is_none(), "key {i}");
        }
        drop(kmvc);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn get_on_a_container_without_its_index_is_refused() {
        let pool = MemPool::unlimited("t", 256);
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        kvc.push(b"k", b"v").unwrap();
        let converted = convert(kvc, &pool).unwrap();
        let empty = GroupedKvs::new(&pool, KvMeta::var())
            .unwrap()
            .into_kmv()
            .unwrap()
            .0;
        for kmvc in [converted, empty] {
            let err = kmvc.get(b"k").err();
            assert!(matches!(err, Some(MimirError::Config(_))), "{err:?}");
        }
        let keyed = GroupedKvs::new(&pool, KvMeta::var())
            .unwrap()
            .seal(true)
            .unwrap()
            .0;
        assert!(
            keyed.get(b"k").unwrap().is_none(),
            "an empty keyed container answers"
        );
    }

    #[test]
    fn hot_key_chain_spans_many_chunks() {
        // 100 values × 8 B = 800 B ≫ 128 B page, in uniform chunks.
        let pool = MemPool::unlimited("t", 128);
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(1, 8));
        (0..100u64).for_each(|i| kvc.push(b"k", &i.to_le_bytes()).unwrap());
        let chains = convert(kvc, &pool).unwrap().chains;
        let (mut at, mut chunks) = (chains.heads[0].first, 1);
        while at != chains.heads[0].tail {
            let (.., next, _, stored) = chains.header(at);
            assert_eq!(stored, LenHint::Fixed(8));
            (at, chunks) = (next, chunks + 1);
        }
        assert!(chunks >= 7, "{chunks} chunks");
    }

    #[test]
    fn a_chunk_address_past_u32_is_too_large_not_a_wrap() {
        assert_eq!(pack((1 << 24) - 1, 255, 8).unwrap(), u32::MAX);
        let too_large = |r| matches!(r, Err(MimirError::KvTooLarge { .. }));
        assert!(too_large(pack(1 << 24, 0, 8)) && too_large(pack(1, 0, 32)));
        assert_eq!(pack(0, 7, 33).unwrap(), 7);
    }
}
