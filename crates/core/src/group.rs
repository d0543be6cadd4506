//! The shared grouping engine: an open-addressing, arena-keyed group
//! index used by convert (and grouping on arrival), the KV-compression
//! combiner, and partial reduction.
//!
//! All three consumers answer the same question — "which group does this
//! key belong to?" — and previously answered it with
//! `HashMap<Vec<u8>, …>`: one heap allocation per unique key, a copy of
//! every key, and SipHash-free but still repeated hashing. [`GroupIndex`]
//! replaces that with:
//!
//! * **Dense entries in first-occurrence order.** Group ids are indices
//!   into an insertion-ordered entry array, so iterating ids `0..len`
//!   reproduces first-occurrence key order — the property the reduce
//!   output determinism test pins.
//! * **A compact slot table.** Each slot is one `u64` packing a 32-bit
//!   hash tag with a 32-bit group id. Probing is linear from a
//!   multiply-shift start slot ([`crate::hash::fast_range`], no `%`);
//!   the tag filters almost all false candidates before any key bytes
//!   are touched.
//! * **Interned keys.** A key of up to 15 bytes lives inside its 24-byte
//!   entry, so a probe that reaches the entry has the key in the same
//!   cache line and a table of short keys takes no arena page at all.
//!   Longer keys append into pool pages (oversize ones into pool-tracked
//!   jumbo buffers), charged to the node budget page by page;
//!   [`GroupIndex::key`] hides which of the three a key is in.
//! * **Stored hashes.** Every entry keeps its full 64-bit hash, so
//!   growth rehashes without re-reading key bytes, and consumers can
//!   reuse the hash downstream (e.g. the shuffle partition of a combined
//!   KV via [`crate::Emitter::emit_hashed`]).
//!
//! Non-page metadata (the entry array and the slot table) is charged
//! through [`DeltaCharge`], which batches reservation resizes so pool
//! atomics are touched once per ~4 KiB of growth rather than per key.

use mimir_mem::MemPool;
use mimir_obs::GroupCounters;

use crate::buffer::TrackedBuf;
use crate::hash::{fast_range, fxhash64, fxhash_short, load_short};
use crate::Result;

/// Maximum bytes a [`DeltaCharge`] may consume beyond its reservation.
///
/// Tables grow key by key; re-reserving on every insert would round-trip
/// the pool's atomics per unique key, so growth is batched. Batching by
/// *bytes* (not by key count, which with long keys could leave hundreds
/// of KiB untracked) bounds the accounting error to this constant
/// regardless of key length.
pub(crate) const RESIZE_DELTA: usize = 4096;

/// Incremental pool charge for growing table state: accumulates byte
/// deltas and settles them into a [`mimir_mem::Reservation`] whenever the
/// untracked amount reaches [`RESIZE_DELTA`].
pub(crate) struct DeltaCharge {
    res: mimir_mem::Reservation,
    /// Bytes the reservation currently covers.
    charged: usize,
    /// Bytes the owner actually holds.
    pending: usize,
}

impl DeltaCharge {
    pub fn new(pool: &MemPool) -> Result<Self> {
        Ok(Self {
            res: pool.try_reserve(0)?,
            charged: 0,
            pending: 0,
        })
    }

    /// Records `bytes` of growth, charging the pool once the untracked
    /// delta reaches the threshold. A single growth larger than the
    /// threshold is charged immediately. A growth the pool refuses is not
    /// recorded, so a caller that charges before it grows stays exact.
    pub fn add(&mut self, bytes: usize) -> Result<()> {
        self.pending += bytes;
        if let Err(e) = self.maybe_settle() {
            self.pending -= bytes;
            return Err(e);
        }
        debug_assert!(self.untracked() < RESIZE_DELTA);
        Ok(())
    }

    /// Records `bytes` of release (e.g. the old slot table freed by a
    /// rehash), crediting the pool once the delta reaches the threshold.
    pub fn sub(&mut self, bytes: usize) -> Result<()> {
        self.pending = self.pending.saturating_sub(bytes);
        self.maybe_settle()
    }

    fn maybe_settle(&mut self) -> Result<()> {
        if self.pending.abs_diff(self.charged) >= RESIZE_DELTA {
            self.res.resize(self.pending)?;
            self.charged = self.pending;
        }
        Ok(())
    }

    /// Charges or credits any remaining untracked bytes.
    pub fn settle(&mut self) -> Result<()> {
        if self.charged != self.pending {
            self.res.resize(self.pending)?;
            self.charged = self.pending;
        }
        Ok(())
    }

    /// Bytes held but not yet charged to the pool (absolute drift).
    pub fn untracked(&self) -> usize {
        self.pending.abs_diff(self.charged)
    }

    /// Bytes the owner has recorded as held.
    pub fn held(&self) -> usize {
        self.pending
    }
}

const JUMBO_BIT: u32 = 1 << 31;
/// Longest key stored inside its [`Entry`].
const INLINE_KEY_MAX: usize = 15;
/// `Entry::key[INLINE_KEY_MAX]` of a key that lives in the arena.
const IN_ARENA: u8 = 0xFF;

/// One group: its full hash plus its key. The key's last byte is the
/// length of an inline key — zero-padded in the bytes before it, so two
/// inline keys are equal exactly when their 16 bytes are — or
/// [`IN_ARENA`], and then the first twelve bytes are three little-endian
/// `u32`s: a page or jumbo index (top bit selects jumbo), a byte offset
/// and a length.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    key: [u8; 16],
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24 && INLINE_KEY_MAX == 15);

/// `key` as an inline entry key, if it is short enough.
#[inline]
fn inline_key(key: &[u8]) -> Option<[u8; 16]> {
    if key.len() > INLINE_KEY_MAX {
        return None;
    }
    let (lo, hi) = load_short(key);
    Some(pack_inline(lo, hi, key.len()))
}

/// A key loaded for a probe: its full hash and, if it is short enough to
/// live in its entry, its inline form — both from one load of its bytes.
pub(crate) struct Staged {
    hash: u64,
    short: Option<[u8; 16]>,
}

impl Staged {
    #[inline(always)]
    pub(crate) fn new(key: &[u8]) -> Self {
        if key.len() > INLINE_KEY_MAX {
            return Self {
                hash: fxhash64(key),
                short: None,
            };
        }
        let (lo, hi) = load_short(key);
        let n = key.len();
        Self {
            hash: fxhash_short(lo, hi, n),
            short: Some(pack_inline(lo, hi, n)),
        }
    }
}

/// Where [`GroupIndex::find`] ended.
pub(crate) enum Probe {
    /// The group holding the key.
    Hit(u32),
    /// No group holds the key; it would open one here.
    Vacant(Vacancy),
}

/// The empty slot a key's probe reached and the steps it took past the
/// home slot: what [`GroupIndex::open`] needs to place the new group.
pub(crate) struct Vacancy {
    slot: usize,
    probe: u64,
}

/// The inline entry key of an `n`-byte key whose [`load_short`] words
/// are `lo` and `hi`.
#[inline]
fn pack_inline(lo: u64, hi: u64, n: usize) -> [u8; 16] {
    (u128::from(lo) | u128::from(hi | (n as u64) << 56) << 64).to_le_bytes()
}

/// The entry key of a key interned at `off..off + len` of arena buffer
/// `loc`.
fn arena_key(loc: u32, off: usize, len: usize) -> [u8; 16] {
    let mut k = [0u8; 16];
    for (dst, word) in k.chunks_exact_mut(4).zip([loc, off as u32, len as u32]) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
    k[INLINE_KEY_MAX] = IN_ARENA;
    k
}

/// Heap bytes one entry occupies beyond its interned key bytes.
const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();
/// An unoccupied slot. Real slots can never collide with this value
/// because group ids are capped below `u32::MAX`.
const EMPTY: u64 = u64::MAX;
/// The grouping engine. See the module docs for the layout.
pub struct GroupIndex {
    entries: Vec<Entry>,
    /// Open-addressing slot table: `(hash_tag << 32) | group_id`, or
    /// [`EMPTY`]. Length is a power of two (or zero before first use).
    slots: Vec<u64>,
    /// Arena for keys too long for their entry: fixed-size pool pages
    /// filled append-only.
    pages: Vec<mimir_mem::Page>,
    /// Keys longer than one page, each in its own tracked buffer.
    jumbos: Vec<TrackedBuf>,
    pool: MemPool,
    charge: DeltaCharge,
    stats: GroupCounters,
}

#[inline]
fn slot_tag(hash: u64) -> u64 {
    // The slot index consumes the hash's high bits (multiply-shift), so
    // the tag takes the low 32 to stay independent of placement.
    u64::from(hash as u32) << 32
}

/// Golden-ratio remix applied to the hash before slot placement.
///
/// The shuffle partitioner routes a key to its rank by `fast_range` on
/// the *same* high hash bits ([`crate::hash::partition_of`]), so the
/// keys a rank's convert sees all live in one `1/p`-wide band of the
/// 64-bit space — mapped raw, they would pile into the same `1/p` slice
/// of the slot table and probe lengths would degenerate to the table
/// size. One odd-constant multiply makes the consumed high bits depend
/// on every bit of the hash again, decorrelating table placement from
/// partition routing.
const SLOT_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn start_slot(hash: u64, cap: usize) -> usize {
    fast_range(hash.wrapping_mul(SLOT_MIX), cap)
}

/// The key bytes of `e`, wherever they are stored.
#[inline]
fn key_at<'a>(pages: &'a [mimir_mem::Page], jumbos: &'a [TrackedBuf], e: &'a Entry) -> &'a [u8] {
    let tag = e.key[INLINE_KEY_MAX];
    if tag != IN_ARENA {
        return &e.key[..tag as usize];
    }
    let word = |i: usize| u32::from_le_bytes([e.key[i], e.key[i + 1], e.key[i + 2], e.key[i + 3]]);
    let (loc, off, len) = (word(0), word(4) as usize, word(8) as usize);
    if loc & JUMBO_BIT != 0 {
        &jumbos[(loc & !JUMBO_BIT) as usize].as_slice()[off..off + len]
    } else {
        &pages[loc as usize].as_slice()[off..off + len]
    }
}

impl GroupIndex {
    /// Creates an empty index charging `pool`. No memory is taken until
    /// the first insert.
    ///
    /// # Errors
    /// Memory exhaustion registering the (zero-byte) reservation.
    pub fn new(pool: &MemPool) -> Result<Self> {
        Ok(Self {
            entries: Vec::new(),
            slots: Vec::new(),
            pages: Vec::new(),
            jumbos: Vec::new(),
            pool: pool.clone(),
            charge: DeltaCharge::new(pool)?,
            stats: GroupCounters::default(),
        })
    }

    /// Looks up `key` under a precomputed `hash` (which must be
    /// `fxhash64(key)`), inserting a new group if absent. Returns the
    /// group id and whether it was newly created.
    ///
    /// Looking up an existing key performs no heap allocation — the hot
    /// path of skewed workloads is probe + tag compare + one key
    /// comparison.
    ///
    /// # Errors
    /// Memory exhaustion growing the table or interning the key.
    pub fn insert_hashed(&mut self, hash: u64, key: &[u8]) -> Result<(u32, bool)> {
        debug_assert_eq!(hash, fxhash64(key), "hash must be fxhash64 of key");
        let short = inline_key(key);
        self.insert_staged(&Staged { hash, short }, key)
    }

    /// [`Self::insert_hashed`] hashing the key itself. A key short enough
    /// to live in its entry is loaded once, for its hash and its inline
    /// form both.
    #[inline(always)]
    pub fn insert(&mut self, key: &[u8]) -> Result<(u32, bool)> {
        self.insert_staged(&Staged::new(key), key)
    }

    /// The insert of a staged `key`: the group holding it, or a new one.
    #[inline(always)]
    fn insert_staged(&mut self, staged: &Staged, key: &[u8]) -> Result<(u32, bool)> {
        match self.find(staged, key)? {
            Probe::Hit(id) => Ok((id, false)),
            Probe::Vacant(at) => self.open(at, staged, key).map(|id| (id, true)),
        }
    }

    /// Whether the next [`Self::find`] grows the slot table first: one
    /// more group would pass its load factor (or there is no table yet).
    #[inline(always)]
    pub(crate) fn grows_next(&self) -> bool {
        (self.entries.len() + 1) * 4 > self.slots.len() * 3
    }

    /// The probe of a staged `key`: its group, counted as an insert, or
    /// the empty slot it would open a group in. The table grows first if
    /// [`Self::grows_next`], as every insert does, so growth happens at
    /// the same inserts whichever call the caller makes next; a caller
    /// that may refuse the key checks it before this call in that case.
    /// A [`Probe::Vacant`] is good for one [`Self::open`] before any
    /// other change to the index.
    ///
    /// # Errors
    /// Memory exhaustion growing the table.
    #[inline(always)]
    pub(crate) fn find(&mut self, staged: &Staged, key: &[u8]) -> Result<Probe> {
        if self.grows_next() {
            self.grow()?;
        }
        let mask = self.slots.len() - 1;
        let tag = slot_tag(staged.hash);
        let mut i = start_slot(staged.hash, self.slots.len());
        let mut probe = 0u64;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Ok(Probe::Vacant(Vacancy { slot: i, probe }));
            }
            if s & !0xFFFF_FFFF == tag {
                let id = (s & 0xFFFF_FFFF) as u32;
                if self.holds(id, staged.hash, &staged.short, key) {
                    self.note_probe(probe);
                    return Ok(Probe::Hit(id));
                }
            }
            probe += 1;
            i = (i + 1) & mask;
        }
    }

    /// Opens the group of `key` in the slot [`Self::find`] left vacant
    /// for it, and returns its id. Out of line, so the hit path the probe
    /// inlines stays small.
    ///
    /// # Errors
    /// Memory exhaustion interning the key or charging its entry.
    #[inline(never)]
    pub(crate) fn open(&mut self, at: Vacancy, staged: &Staged, key: &[u8]) -> Result<u32> {
        let id = self.entries.len();
        assert!(id < u32::MAX as usize - 1, "group id space exhausted");
        let stored = match staged.short {
            Some(k) => k,
            None => self.intern(key)?,
        };
        self.charge.add(ENTRY_BYTES)?;
        self.stats.interned_bytes += key.len() as u64;
        let hash = staged.hash;
        self.entries.push(Entry { hash, key: stored });
        self.slots[at.slot] = slot_tag(hash) | id as u64;
        self.note_probe(at.probe);
        Ok(id as u32)
    }

    /// The group id of `key`, if present. Read-only probe; records no
    /// statistics.
    pub fn get(&self, key: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let Staged { hash, short } = Staged::new(key);
        let cap = self.slots.len();
        let mask = cap - 1;
        let tag = slot_tag(hash);
        let mut i = start_slot(hash, cap);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if s & !0xFFFF_FFFF == tag {
                let id = (s & 0xFFFF_FFFF) as u32;
                if self.holds(id, hash, &short, key) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether group `id` is the group of `key`, whose inline form (if
    /// it is short enough to have one) is `short`: a short key is decided
    /// by the entry alone, one 16-byte compare.
    #[inline(always)]
    fn holds(&self, id: u32, hash: u64, short: &Option<[u8; 16]>, key: &[u8]) -> bool {
        let e = &self.entries[id as usize];
        e.hash == hash
            && match short {
                Some(k) => e.key == *k,
                None => key_at(&self.pages, &self.jumbos, e) == key,
            }
    }

    /// The interned key bytes of group `id`.
    ///
    /// # Panics
    /// `id` must be a live group id.
    #[inline]
    pub fn key(&self, id: u32) -> &[u8] {
        key_at(&self.pages, &self.jumbos, &self.entries[id as usize])
    }

    /// The stored hash of group `id`.
    #[inline]
    pub fn hash_of(&self, id: u32) -> u64 {
        self.entries[id as usize].hash
    }

    /// Number of live groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no groups exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slot-table capacity (0 before the first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drops all groups and interned keys but keeps the slot table (and
    /// its pool charge) at its current capacity. Statistics are
    /// cumulative across clears.
    pub fn clear(&mut self) -> Result<()> {
        self.charge.sub(self.entries.len() * ENTRY_BYTES)?;
        self.stats.groups += self.entries.len() as u64;
        self.entries.clear();
        self.slots.fill(EMPTY);
        self.pages.clear();
        self.jumbos.clear();
        Ok(())
    }

    /// [`Self::clear`] plus a full release of the slot table: the index
    /// returns to its freshly-created footprint (zero pool bytes modulo
    /// charge batching). Every fold-table flush ends this way.
    pub fn reset(&mut self) -> Result<()> {
        self.clear()?;
        self.release_slots()
    }

    /// Frees the slot table and settles the charge, keeping every group's
    /// key and hash: what is left answers [`Self::key`] and
    /// [`Self::hash_of`] but takes no more inserts. A sealed KMVC keeps
    /// its keys this way.
    pub(crate) fn release_slots(&mut self) -> Result<()> {
        self.charge.sub(self.slots.len() * 8)?;
        self.slots = Vec::new();
        self.charge.settle()
    }

    /// Charges any growth still batched in the delta, so an index sealed
    /// with its slot table kept is charged exactly.
    pub(crate) fn settle(&mut self) -> Result<()> {
        self.charge.settle()
    }

    /// Bytes the index holds: its entries and slots, as charged, plus
    /// the key arena taken so far — closed pages whole, the open page up
    /// to its fill, jumbos by length. The open page's tail is the only
    /// pool charge it leaves out.
    pub(crate) fn footprint(&self) -> usize {
        let pages = match self.pages.split_last() {
            Some((open, closed)) => closed.len() * self.pool.page_size() + open.len(),
            None => 0,
        };
        let jumbos: usize = self.jumbos.iter().map(TrackedBuf::len).sum();
        self.charge.held() + pages + jumbos
    }

    /// A snapshot of the table's counters. The first histogram bucket,
    /// never written on the insert path, is every insert the other
    /// buckets do not hold.
    pub fn stats(&self) -> GroupCounters {
        let mut stats = GroupCounters {
            groups: self.stats.groups + self.entries.len() as u64,
            capacity: self.slots.len() as u64,
            ..self.stats
        };
        stats.probe_hist[0] = stats.inserts - stats.probe_hist[1..].iter().sum::<u64>();
        stats
    }

    /// Counts one insert that took `probe` steps past its home slot. A
    /// home-slot insert, the common case, only bumps `inserts`.
    #[inline]
    fn note_probe(&mut self, probe: u64) {
        self.stats.inserts += 1;
        if probe > 0 {
            self.stats.probes += probe;
            self.stats.max_probe = self.stats.max_probe.max(probe);
            self.stats.probe_hist[GroupCounters::probe_bucket(probe)] += 1;
        }
    }

    /// Doubles the slot table (first growth: 16 slots) and re-places
    /// every entry from its stored hash — key bytes are never re-read.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) -> Result<()> {
        let old_cap = self.slots.len();
        let new_cap = (old_cap * 2).max(16);
        self.charge.add(new_cap * 8)?;
        let mut slots = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for (id, e) in self.entries.iter().enumerate() {
            let mut i = start_slot(e.hash, new_cap);
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = slot_tag(e.hash) | id as u64;
        }
        self.slots = slots;
        self.charge.sub(old_cap * 8)?;
        if !self.entries.is_empty() {
            self.stats.rehashes += 1;
            mimir_obs::emit(
                mimir_obs::EventKind::GroupRehash,
                new_cap as u64,
                self.entries.len() as u64,
            );
        }
        Ok(())
    }

    /// Appends a `key` too long for its entry into the arena: the
    /// current page if it fits, a fresh page otherwise, or a dedicated
    /// jumbo buffer when the key exceeds the page size.
    fn intern(&mut self, key: &[u8]) -> Result<[u8; 16]> {
        assert!(key.len() <= u32::MAX as usize, "key exceeds u32 length");
        if key.len() > self.pool.page_size() {
            let mut buf = TrackedBuf::new(&self.pool, key.len())?;
            buf.as_mut_slice().copy_from_slice(key);
            assert!(self.jumbos.len() < JUMBO_BIT as usize);
            self.jumbos.push(buf);
            let loc = JUMBO_BIT | (self.jumbos.len() as u32 - 1);
            return Ok(arena_key(loc, 0, key.len()));
        }
        let fits = self
            .pages
            .last()
            .map(|p| p.remaining() >= key.len())
            .unwrap_or(false);
        if !fits {
            self.pages.push(self.pool.alloc_page()?);
        }
        let page = self.pages.last_mut().expect("page just ensured");
        let off = page.len();
        let ok = page.try_write(key);
        debug_assert!(ok, "key fits the page by construction");
        Ok(arena_key(self.pages.len() as u32 - 1, off, key.len()))
    }
}

impl std::fmt::Debug for GroupIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupIndex")
            .field("groups", &self.entries.len())
            .field("capacity", &self.slots.len())
            .field("pages", &self.pages.len())
            .field("jumbos", &self.jumbos.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_first_occurrence_ids() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        assert_eq!(ix.insert(b"apple").unwrap(), (0, true));
        assert_eq!(ix.insert(b"banana").unwrap(), (1, true));
        assert_eq!(ix.insert(b"apple").unwrap(), (0, false));
        assert_eq!(ix.insert(b"cherry").unwrap(), (2, true));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.key(0), b"apple");
        assert_eq!(ix.key(1), b"banana");
        assert_eq!(ix.key(2), b"cherry");
        assert_eq!(ix.hash_of(1), fxhash64(b"banana"));
        assert_eq!(ix.get(b"cherry"), Some(2));
        assert_eq!(ix.get(b"durian"), None);
    }

    #[test]
    fn empty_key_is_a_valid_group() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        assert_eq!(ix.insert(b"").unwrap(), (0, true));
        assert_eq!(ix.insert(b"x").unwrap(), (1, true));
        assert_eq!(ix.insert(b"").unwrap(), (0, false));
        assert_eq!(ix.key(0), b"");
        assert_eq!(ix.get(b""), Some(0));
    }

    #[test]
    fn oversize_keys_go_to_jumbos() {
        let pool = MemPool::unlimited("t", 64);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let big = vec![7u8; 500];
        let (id, fresh) = ix.insert(&big).unwrap();
        assert!(fresh);
        assert_eq!(ix.key(id), &big[..]);
        assert_eq!(ix.insert(&big).unwrap(), (id, false));
        let small = b"tiny";
        let (id2, _) = ix.insert(small).unwrap();
        assert_eq!(ix.key(id2), small);
    }

    /// Distinct keys on every storage path, interleaved: inline (up to 15
    /// bytes), arena page (16 bytes up to a page) and jumbo (beyond one).
    fn mixed_keys(n: u32, page: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut k = format!("{i:04x}").into_bytes();
                k.resize(
                    [4, 7, 14, 15, 16, 17, 40, page, page + 1][i as usize % 9],
                    b'.',
                );
                k
            })
            .collect()
    }

    #[test]
    fn growth_preserves_every_group() {
        let pool = MemPool::unlimited("t", 64);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let keys = mixed_keys(5000, 64);
        for k in &keys {
            ix.insert(k).unwrap();
        }
        assert_eq!(ix.len(), keys.len());
        for (want, k) in keys.iter().enumerate() {
            assert_eq!(ix.get(k), Some(want as u32), "key {want} survives growth");
            assert_eq!(ix.key(want as u32), &k[..]);
            assert_eq!(ix.hash_of(want as u32), fxhash64(k));
        }
        assert!(!ix.pages.is_empty() && !ix.jumbos.is_empty());
        let s = ix.stats();
        assert!(
            s.rehashes >= 7,
            "5000 keys from 16 slots: {} rehashes",
            s.rehashes
        );
        assert!(s.capacity >= 8192);
        assert!(s.load_factor() <= 0.75 + 1e-9);
        assert_eq!(s.probe_hist.iter().sum::<u64>(), s.inserts);
        let total: usize = keys.iter().map(Vec::len).sum();
        assert_eq!(s.interned_bytes, total as u64, "every key counted once");
    }

    #[test]
    fn inline_keys_differing_only_in_padding_or_length_stay_distinct() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let keys: [&[u8]; 6] = [b"", b"\0", b"\0\0", b"a", b"a\0", &[0xFF; 15]];
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(ix.insert(k).unwrap(), (id as u32, true), "{k:?}");
        }
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(ix.insert(k).unwrap(), (id as u32, false), "{k:?}");
            assert_eq!(ix.key(id as u32), *k);
        }
        assert!(ix.pages.is_empty(), "short keys take no arena page");
    }

    #[test]
    fn clear_and_reset_release_every_kind_of_key() {
        let pool = MemPool::new("t", 64, 1 << 20).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        let keys = mixed_keys(300, 64);
        for cycle in 0..3 {
            for (want, k) in keys.iter().enumerate() {
                assert_eq!(ix.insert(k).unwrap(), (want as u32, true), "cycle {cycle}");
            }
            let cap = ix.capacity();
            ix.clear().unwrap();
            assert_eq!((ix.len(), ix.capacity()), (0, cap));
            assert!(ix.pages.is_empty() && ix.jumbos.is_empty());
            assert!(keys.iter().all(|k| ix.get(k).is_none()));
            assert!(
                pool.used() < cap * 8 + RESIZE_DELTA,
                "only the slot table stays charged: {}",
                pool.used()
            );
        }
        assert_eq!(ix.stats().groups, 900, "cumulative across clears");
        ix.insert(&keys[8]).unwrap(); // a jumbo key
        ix.reset().unwrap();
        assert_eq!((ix.capacity(), pool.used()), (0, 0));
        assert_eq!(
            ix.insert(&keys[5]).unwrap(),
            (0, true),
            "usable after reset"
        );
    }

    #[test]
    fn memory_is_charged_and_released() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        for i in 0..2000u32 {
            ix.insert(format!("key-{i}").as_bytes()).unwrap();
        }
        // At minimum the interned key bytes (page-granular) are charged.
        let interned: usize = (0..2000).map(|i| format!("key-{i}").len()).sum();
        assert!(pool.used() >= interned, "{} < {interned}", pool.used());
        drop(ix);
        assert_eq!(pool.used(), 0, "drop releases pages, jumbos, and charge");
    }

    #[test]
    fn budget_exhaustion_is_oom_not_panic() {
        let pool = MemPool::new("t", 256, 8 * 1024).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        let mut failed = false;
        for i in 0..100_000u32 {
            if ix
                .insert(format!("unique-key-number-{i}").as_bytes())
                .is_err()
            {
                failed = true;
                break;
            }
        }
        assert!(failed, "unbounded inserts into an 8 KiB budget must fail");
        drop(ix);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn clear_keeps_capacity_but_drops_groups() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        for i in 0..500u32 {
            ix.insert(format!("k{i}").as_bytes()).unwrap();
        }
        let cap = ix.capacity();
        let groups_before = ix.stats().groups;
        ix.clear().unwrap();
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.capacity(), cap, "slot table survives clear");
        assert_eq!(ix.get(b"k3"), None);
        // Reinsert: ids restart from zero, no rehash needed.
        let r1 = ix.stats().rehashes;
        assert_eq!(ix.insert(b"k3").unwrap(), (0, true));
        assert_eq!(ix.stats().rehashes, r1);
        assert!(groups_before > 0);
    }

    #[test]
    fn stats_track_probes_and_histogram() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        for i in 0..1000u32 {
            ix.insert(&i.to_le_bytes()).unwrap();
        }
        for i in 0..1000u32 {
            ix.insert(&i.to_le_bytes()).unwrap(); // all hits
        }
        let s = ix.stats();
        assert_eq!(s.inserts, 2000);
        assert_eq!(s.groups, 1000);
        assert!(
            s.avg_probe() < 4.0,
            "open addressing at 0.75: {}",
            s.avg_probe()
        );
        assert!(s.max_probe >= 1, "some collision occurs at this scale");
        assert_eq!(s.probe_hist.iter().sum::<u64>(), 2000);
    }

    /// The counters kept the plain way: every insert recorded in every
    /// field, `probe_hist[0]` included.
    #[derive(Default)]
    struct CounterModel {
        inserts: u64,
        probes: u64,
        max_probe: u64,
        probe_hist: [u64; 8],
    }

    impl CounterModel {
        /// Inserts `key` and records the probe length it took: the
        /// distance from its home slot to the slot holding its group,
        /// which is where the probe stopped (slots only move on growth,
        /// and growth runs before the probe).
        fn insert(&mut self, ix: &mut GroupIndex, key: &[u8]) {
            let (id, _) = ix.insert(key).unwrap();
            let cap = ix.slots.len();
            let at = ix
                .slots
                .iter()
                .position(|&s| s != EMPTY && s & 0xFFFF_FFFF == u64::from(id))
                .unwrap();
            let probe = ((at + cap - start_slot(fxhash64(key), cap)) & (cap - 1)) as u64;
            self.inserts += 1;
            self.probes += probe;
            self.max_probe = self.max_probe.max(probe);
            self.probe_hist[GroupCounters::probe_bucket(probe)] += 1;
        }

        fn check(&self, got: &GroupCounters) {
            assert_eq!(
                (got.inserts, got.probes, got.max_probe, got.probe_hist),
                (self.inserts, self.probes, self.max_probe, self.probe_hist)
            );
        }
    }

    #[test]
    fn counters_equal_a_per_insert_model() {
        let pool = MemPool::unlimited("t", 64);
        let keys = mixed_keys(1500, 64);
        let mut x = 0x9E37_79B9u64;
        let mut pick = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let (mut a, mut b) = (
            GroupIndex::new(&pool).unwrap(),
            GroupIndex::new(&pool).unwrap(),
        );
        let (mut ma, mut mb) = (CounterModel::default(), CounterModel::default());
        for cycle in 0..4 {
            // A mixed stream: fresh keys and hits, inline, arena and
            // jumbo keys, at loads up to the growth threshold.
            for _ in 0..3000 {
                let key = &keys[pick(keys.len())];
                ma.insert(&mut a, key);
                ma.check(&a.stats());
                let key = &keys[pick(200)];
                mb.insert(&mut b, key);
            }
            mb.check(&b.stats());
            match cycle {
                0 => a.clear().unwrap(),
                1 => a.reset().unwrap(),
                _ => {}
            }
            ma.check(&a.stats());
        }
        assert!(ma.max_probe > 1 && ma.probe_hist[1..].iter().sum::<u64>() > 0);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        ma.inserts += mb.inserts;
        ma.probes += mb.probes;
        ma.max_probe = ma.max_probe.max(mb.max_probe);
        for (m, b) in ma.probe_hist.iter_mut().zip(mb.probe_hist) {
            *m += b;
        }
        ma.check(&merged);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = GroupCounters {
            inserts: 10,
            probes: 5,
            max_probe: 3,
            rehashes: 1,
            interned_bytes: 100,
            groups: 4,
            capacity: 16,
            probe_hist: [5, 3, 1, 1, 0, 0, 0, 0],
        };
        let b = GroupCounters {
            inserts: 20,
            probes: 2,
            max_probe: 7,
            rehashes: 2,
            interned_bytes: 50,
            groups: 6,
            capacity: 8,
            probe_hist: [18, 2, 0, 0, 0, 0, 0, 0],
        };
        a.merge(&b);
        assert_eq!(a.inserts, 30);
        assert_eq!(a.probes, 7);
        assert_eq!(a.max_probe, 7);
        assert_eq!(a.rehashes, 3);
        assert_eq!(a.interned_bytes, 150);
        assert_eq!(a.groups, 10);
        assert_eq!(a.capacity, 16);
        assert_eq!(a.probe_hist, [23, 5, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn delta_charge_error_stays_under_the_delta() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        // Long keys: a per-key-count policy would leave up to
        // count × entry_bytes untracked; the byte-delta policy keeps the
        // gap below RESIZE_DELTA at every step.
        let entry = 264;
        for i in 1..=500usize {
            charge.add(entry).unwrap();
            assert!(
                charge.untracked() < RESIZE_DELTA,
                "after {i} adds: {} untracked",
                charge.untracked()
            );
            assert!(pool.used() >= (i * entry).saturating_sub(RESIZE_DELTA - 1));
        }
        charge.settle().unwrap();
        assert_eq!(charge.untracked(), 0);
        assert_eq!(pool.used(), 500 * entry, "settle charges exactly");
        drop(charge);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn delta_charge_takes_big_single_adds_immediately() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        charge.add(10 * RESIZE_DELTA).unwrap();
        assert_eq!(charge.untracked(), 0, "oversize add charges at once");
        assert_eq!(pool.used(), 10 * RESIZE_DELTA);
    }

    #[test]
    fn delta_charge_growth_respects_the_budget() {
        // Budget smaller than the table: add() must fail, not overrun.
        let pool = MemPool::new("t", 256, 8 * 1024).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        let mut taken = 0;
        while taken < 20_000 && charge.add(100).is_ok() {
            taken += 100;
        }
        assert!(
            taken < 20_000,
            "20 KB of adds into an 8 KB budget must fail"
        );
        assert!(pool.used() <= 8 * 1024);
        assert_eq!(charge.held(), taken, "a refused add is not recorded");
    }

    #[test]
    fn delta_charge_sub_credits_the_pool() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        charge.add(100 * 1024).unwrap();
        charge.sub(60 * 1024).unwrap();
        charge.settle().unwrap();
        assert_eq!(pool.used(), 40 * 1024);
    }
}
