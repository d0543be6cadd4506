use std::collections::VecDeque;

use mimir_mem::{MemPool, Page};

use crate::kv::{
    encode_into, encoded_len, malformed, take_kv, validate, with_sides, KvDecoder, Side,
};
use crate::sink::KvSink;
use crate::{KvMeta, MimirError, Result};

/// KV container (KVC): dynamically grown, page-granular storage for
/// intermediate KVs — the paper's central memory-management object.
///
/// > "The KVC is an opaque object that internally manages a collection of
/// > KVs in one or more buffer pages based on the number and sizes of the
/// > KVs inserted. … When KVs are inserted into the KVC, it gradually
/// > allocates more memory to store the data. When the data is read
/// > (consumed), the KVC frees buffers that are no longer needed."
///
/// Pages come from the node's [`MemPool`] in fixed-size units (avoiding
/// the fragmentation the BG/Q lightweight kernel cannot handle);
/// [`Self::drain`] releases each page the moment its KVs have been
/// consumed. This is the difference from MR-MPI's statically allocated
/// page sets that the whole paper turns on.
///
/// ```
/// use mimir_core::{KvContainer, KvMeta};
/// use mimir_mem::MemPool;
///
/// let pool = MemPool::new("node", 4096, 1 << 20).unwrap();
/// let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
/// kvc.push(b"word", &7u64.to_le_bytes()).unwrap();
/// assert_eq!(kvc.len(), 1);
/// kvc.drain(|k, v| {
///     assert_eq!(k, b"word");
///     assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 7);
///     Ok(())
/// }).unwrap();
/// assert_eq!(pool.used(), 0); // pages released as consumed
/// ```
pub struct KvContainer {
    meta: KvMeta,
    pool: MemPool,
    pages: VecDeque<Page>,
    n_kvs: u64,
    bytes: u64,
}

impl KvContainer {
    /// An empty container drawing pages from `pool` with encoding `meta`.
    /// No memory is allocated until the first insertion.
    pub fn new(pool: &MemPool, meta: KvMeta) -> Self {
        Self {
            meta,
            pool: pool.clone(),
            pages: VecDeque::new(),
            n_kvs: 0,
            bytes: 0,
        }
    }

    /// Inserts one KV, growing by a page when the current one is full.
    ///
    /// # Errors
    /// [`MimirError::HintViolation`] if the KV does not match the
    /// container's hints, [`MimirError::KvTooLarge`] if its encoding
    /// exceeds one page, [`MimirError::Mem`] if the node budget is
    /// exhausted.
    pub fn push(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        let len = encoded_len(self.meta, key, val);
        if self.pages.back().is_none_or(|p| p.remaining() < len) {
            if len > self.pool.page_size() {
                return Err(MimirError::KvTooLarge {
                    size: len,
                    limit: self.pool.page_size(),
                    what: "container page",
                });
            }
            self.pages.push_back(self.pool.alloc_page()?);
        }
        let page = self.pages.back_mut().expect("page just ensured");
        let start = page.len();
        encode_into(self.meta, key, val, &mut page.raw_mut()[start..]);
        page.set_len(start + len);
        self.n_kvs += 1;
        self.bytes += len as u64;
        Ok(())
    }

    /// Inserts a contiguous run of encoded KVs (already in this
    /// container's encoding) by page-wise memcpy, returning the number of
    /// KVs inserted.
    ///
    /// Pages hold only whole KVs, so the run is chunked at KV boundaries
    /// with a length scan — no per-KV validation or re-encoding. The scan
    /// checks that every KV lies inside the run, since a run may have
    /// crossed a transport.
    ///
    /// # Errors
    /// [`MimirError::MalformedRun`] if the run ends inside a KV (the KVs
    /// before it are kept), [`MimirError::KvTooLarge`] if a single KV
    /// exceeds one page, [`MimirError::Mem`] if the node budget is
    /// exhausted.
    pub fn push_run(&mut self, run: &[u8]) -> Result<u64> {
        with_sides!(self.meta, |k, v| self.push_run_as(k, v, run))
    }

    /// [`Self::push_run`] for the hint pair `(k, v)`.
    fn push_run_as<K: Side, V: Side>(&mut self, k: K, v: V, run: &[u8]) -> Result<u64> {
        let mut total = 0u64;
        let mut rest = run;
        while !rest.is_empty() {
            let remaining = self.pages.back().map_or(0, |p| p.remaining());
            let at = run.len() - rest.len();
            let (chunk, n, next) = whole_kv_prefix(k, v, rest, remaining)
                .map_err(|off| malformed(at + off, run.len()))?;
            if chunk == 0 {
                // Nothing fits the current page. If a fresh page wouldn't
                // hold the next KV either, it is oversized.
                if next > self.pool.page_size() {
                    return Err(MimirError::KvTooLarge {
                        size: next,
                        limit: self.pool.page_size(),
                        what: "container page",
                    });
                }
                self.pages.push_back(self.pool.alloc_page()?);
                continue;
            }
            let page = self.pages.back_mut().expect("chunk > 0 implies a page");
            let start = page.len();
            page.set_len(start + chunk);
            page.as_mut_slice()[start..start + chunk].copy_from_slice(&rest[..chunk]);
            self.n_kvs += n;
            self.bytes += chunk as u64;
            total += n;
            rest = &rest[chunk..];
        }
        Ok(total)
    }

    /// Iterates the KVs without consuming them (how a chained job's map
    /// reads its cached input).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.pages
            .iter()
            .flat_map(move |p| KvDecoder::new(self.meta, p.as_slice()))
    }

    /// Consumes the container, invoking `f` on every KV and **freeing each
    /// page as soon as its KVs have been read** — the "frees buffers that
    /// are no longer needed" behaviour of the paper.
    ///
    /// # Errors
    /// Propagates the first error from `f`; remaining pages are still
    /// released on drop.
    pub fn drain(mut self, f: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
        self.drain_all(f)
    }

    /// Consumes the container a page at a time: `f` gets each page's
    /// encoded bytes — a run, since pages end at KV boundaries — and the
    /// page is freed as soon as `f` returns. How [`crate::convert`] groups a
    /// KVC through the same pass that groups received runs.
    ///
    /// # Errors
    /// Propagates the first error from `f`; remaining pages are released
    /// on drop.
    pub(crate) fn drain_runs(mut self, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        while let Some(page) = self.pages.pop_front() {
            f(page.as_slice())?;
        }
        Ok(())
    }

    /// [`Self::drain`] through a mutable reference, for callers that hold
    /// the container inside a closure environment (multi-stage pipelines
    /// feeding one job's output into the next job's map). The container is
    /// left empty on success.
    ///
    /// # Errors
    /// Propagates the first error from `f`. The page being read is
    /// released whole; [`Self::len`] and [`Self::bytes`] keep describing
    /// the pages still held.
    pub fn drain_all(&mut self, mut f: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
        while let Some(page) = self.pages.pop_front() {
            let mut kvs = KvDecoder::new(self.meta, page.as_slice());
            let mut seen = 0u64;
            let res = kvs.by_ref().try_for_each(|(k, v)| {
                seen += 1;
                f(k, v)
            });
            // The popped page is released whole, so on an error the KVs
            // `f` never saw leave the count with it.
            self.n_kvs -= seen + kvs.count() as u64;
            self.bytes -= page.len() as u64;
            res?;
        }
        Ok(())
    }

    /// Number of KVs stored.
    pub fn len(&self) -> u64 {
        self.n_kvs
    }

    /// True if no KVs are stored.
    pub fn is_empty(&self) -> bool {
        self.n_kvs == 0
    }

    /// Encoded payload bytes stored (the "KV size" metric of paper
    /// Figure 7).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Pages currently held.
    pub fn pages_held(&self) -> usize {
        self.pages.len()
    }

    /// The container's KV encoding.
    pub fn meta(&self) -> KvMeta {
        self.meta
    }
}

/// Largest prefix of `buf` holding whole KVs whose total size fits in
/// `cap` bytes: `(prefix_len, kv_count, next_len)`, where `next_len` is
/// the size of the first KV past the prefix (0 at the end of `buf`).
///
/// # Errors
/// The offset of a KV that `buf` ends inside, if the scan reaches one.
fn whole_kv_prefix<K: Side, V: Side>(
    k: K,
    v: V,
    buf: &[u8],
    cap: usize,
) -> std::result::Result<(usize, u64, usize), usize> {
    let (mut rest, mut n) = (buf, 0u64);
    while !rest.is_empty() {
        let off = buf.len() - rest.len();
        let (_, _, after) = take_kv(k, v, rest).ok_or(off)?;
        let end = buf.len() - after.len();
        if end > cap {
            return Ok((off, n, end - off));
        }
        (rest, n) = (after, n + 1);
    }
    Ok((buf.len(), n, 0))
}

impl KvSink for KvContainer {
    fn accept(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.push(key, val)
    }

    /// Bulk path: received runs are already in the container encoding
    /// (wire format == container format), so they land by page-wise
    /// memcpy.
    fn accept_run(&mut self, meta: KvMeta, run: &[u8]) -> Result<u64> {
        debug_assert_eq!(meta, self.meta, "run encoding must match the container");
        self.push_run(run)
    }
}

impl std::fmt::Debug for KvContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvContainer")
            .field("n_kvs", &self.n_kvs)
            .field("bytes", &self.bytes)
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LenHint;

    fn pool(page: usize, budget: usize) -> MemPool {
        MemPool::new("t", page, budget).unwrap()
    }

    #[test]
    fn push_and_iter_roundtrip() {
        let p = pool(64, 1024);
        let mut kvc = KvContainer::new(&p, KvMeta::var());
        for i in 0..20u32 {
            kvc.push(format!("key{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert_eq!(kvc.len(), 20);
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            kvc.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got.len(), 20);
        assert_eq!(got[7].0, b"key7");
        assert_eq!(got[7].1, 7u32.to_le_bytes());
    }

    #[test]
    fn grows_page_by_page() {
        let p = pool(64, 64 * 100);
        let mut kvc = KvContainer::new(&p, KvMeta::fixed(8, 8));
        assert_eq!(p.used(), 0, "no allocation before first push");
        for i in 0..20u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        // 16 B per KV, 4 per 64 B page → 5 pages.
        assert_eq!(kvc.pages_held(), 5);
        assert_eq!(p.used(), 5 * 64);
    }

    #[test]
    fn drain_frees_pages_incrementally() {
        let p = pool(64, 64 * 100);
        let mut kvc = KvContainer::new(&p, KvMeta::fixed(8, 8));
        for i in 0..16u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let total_pages = kvc.pages_held();
        assert_eq!(total_pages, 4);
        let mut seen = 0u64;
        let mut used_at_kv = Vec::new();
        kvc.drain(|k, _v| {
            seen += 1;
            used_at_kv.push(p.used());
            assert_eq!(k.len(), 8);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 16);
        assert_eq!(p.used(), 0);
        // Pages are released progressively: usage never increases, starts
        // at all four pages, and is down to one page for the last KVs.
        assert!(used_at_kv.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(used_at_kv[0], 4 * 64);
        assert_eq!(*used_at_kv.last().unwrap(), 64);
    }

    #[test]
    fn oversized_kv_is_rejected() {
        let p = pool(64, 1024);
        let mut kvc = KvContainer::new(&p, KvMeta::var());
        let big = vec![7u8; 100];
        let err = kvc.push(b"k", &big).unwrap_err();
        assert!(matches!(err, MimirError::KvTooLarge { .. }));
    }

    #[test]
    fn budget_exhaustion_surfaces_as_mem_error() {
        let p = pool(64, 128);
        let mut kvc = KvContainer::new(&p, KvMeta::fixed(8, 8));
        let mut pushed = 0;
        let err = loop {
            match kvc.push(&[0u8; 8], &[0u8; 8]) {
                Ok(()) => pushed += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(pushed, 8); // 2 pages × 4 KVs
        assert!(err.is_oom());
    }

    #[test]
    fn hint_violation_detected_at_push() {
        let p = pool(64, 1024);
        let mut kvc = KvContainer::new(&p, KvMeta::fixed(4, 4));
        assert!(matches!(
            kvc.push(b"toolong", b"vvvv").unwrap_err(),
            MimirError::HintViolation(_)
        ));
    }

    #[test]
    fn cstr_encoding_through_container() {
        let p = pool(64, 1024);
        let meta = KvMeta {
            key: LenHint::CStr,
            val: LenHint::Fixed(8),
        };
        let mut kvc = KvContainer::new(&p, meta);
        kvc.push(b"word", &9u64.to_le_bytes()).unwrap();
        // 4 key + 1 NUL + 8 val = 13 bytes, vs 8+4+8=20 un-hinted.
        assert_eq!(kvc.bytes(), 13);
        let (k, v) = kvc.iter().next().unwrap();
        assert_eq!(k, b"word");
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 9);
    }

    #[test]
    fn drain_all_error_keeps_counts_for_the_pages_still_held() {
        let p = pool(64, 1024);
        let mut kvc = KvContainer::new(&p, KvMeta::fixed(8, 8));
        for i in 0..12u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        // 4 KVs per page; fail on the 6th KV, midway through page 2.
        let mut n = 0;
        let res = kvc.drain_all(|_, _| {
            n += 1;
            if n == 6 {
                Err(MimirError::Config("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(res.is_err());
        assert_eq!(kvc.pages_held(), 1, "pages 1 and 2 are released");
        assert_eq!(kvc.len(), 4, "the unread page's KVs are still counted");
        assert_eq!(kvc.bytes(), 64);
        assert!(!kvc.is_empty());
        let mut rest = Vec::new();
        kvc.drain_all(|k, _| {
            rest.push(u64::from_le_bytes(k.try_into().unwrap()));
            Ok(())
        })
        .unwrap();
        assert_eq!(rest, vec![8, 9, 10, 11]);
        assert_eq!((kvc.len(), kvc.bytes(), p.used()), (0, 0, 0));
    }

    #[test]
    fn drain_error_short_circuits_but_releases_memory() {
        let p = pool(64, 1024);
        let mut kvc = KvContainer::new(&p, KvMeta::fixed(8, 8));
        for i in 0..12u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let mut n = 0;
        let res = kvc.drain(|_, _| {
            n += 1;
            if n == 3 {
                Err(MimirError::Config("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(res.is_err());
        assert_eq!(n, 3);
        assert_eq!(p.used(), 0, "container dropped with remaining pages");
    }
}
