use mimir_io::{SpillFile, SpillStore};
use mimir_mem::MemPool;

use crate::buf::MrPage;
use crate::{MrError, OocMode, Result};

/// Entry layout: `[klen u32][nvals u32][vtotal u32][key][vals…]` where
/// each value is `[vlen u32][bytes]`.
const ENTRY_HEADER: usize = 12;

/// An MR-MPI KMV dataset: grouped `<key, [values]>` entries with one
/// resident page and page spillover, mirroring [`crate::kvset::KvSet`].
///
/// An entry larger than a page (a hot key's value list) is written to the
/// spill as its own oversized chunk when out-of-core writes are enabled —
/// in-memory-only mode rejects it, per the paper's description of
/// MR-MPI's third setting.
pub(crate) struct KmvSet {
    page: MrPage,
    used: usize,
    spill: Option<SpillFile>,
    sealed: bool,
    ooc: OocMode,
    n_groups: u64,
    bytes: u64,
    spilled_pages: u64,
}

impl KmvSet {
    pub fn new(pool: &MemPool, page_size: usize, ooc: OocMode) -> Result<Self> {
        Ok(Self {
            page: MrPage::new(pool, page_size)?,
            used: 0,
            spill: None,
            sealed: false,
            ooc,
            n_groups: 0,
            bytes: 0,
            spilled_pages: 0,
        })
    }

    /// Appends one group. `vals` must already be packed as
    /// `[vlen u32][bytes]` per value.
    pub fn add_group(
        &mut self,
        store: &SpillStore,
        key: &[u8],
        vals: &[u8],
        nvals: u32,
    ) -> Result<()> {
        debug_assert!(!self.sealed, "add after seal");
        let entry_len = ENTRY_HEADER + key.len() + vals.len();
        self.n_groups += 1;
        self.bytes += entry_len as u64;

        if entry_len > self.page.size() {
            // Jumbo group: straight to the I/O subsystem as its own chunk.
            if self.ooc == OocMode::Error {
                return Err(MrError::EntryTooLarge {
                    size: entry_len,
                    page_size: self.page.size(),
                });
            }
            self.flush_page(store)?;
            let mut entry = Vec::with_capacity(entry_len);
            Self::encode_header(&mut entry, key, vals, nvals);
            entry.extend_from_slice(key);
            entry.extend_from_slice(vals);
            self.ensure_spill(store)?;
            self.spill
                .as_mut()
                .expect("spill ensured")
                .write_chunk(&entry)?;
            self.spilled_pages += 1;
            return Ok(());
        }

        if self.used + entry_len > self.page.size() {
            if self.ooc == OocMode::Error {
                return Err(MrError::PageOverflow {
                    what: "KMV data",
                    page_size: self.page.size(),
                });
            }
            self.flush_page(store)?;
            self.spilled_pages += 1;
        }
        let out = self.page.as_mut_slice();
        let mut off = self.used;
        out[off..off + 4].copy_from_slice(&(key.len() as u32).to_le_bytes());
        out[off + 4..off + 8].copy_from_slice(&nvals.to_le_bytes());
        out[off + 8..off + 12].copy_from_slice(&(vals.len() as u32).to_le_bytes());
        off += 12;
        out[off..off + key.len()].copy_from_slice(key);
        off += key.len();
        out[off..off + vals.len()].copy_from_slice(vals);
        self.used = off + vals.len();
        Ok(())
    }

    fn encode_header(out: &mut Vec<u8>, key: &[u8], vals: &[u8], nvals: u32) {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(&nvals.to_le_bytes());
        out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    }

    pub fn seal(&mut self, store: &SpillStore) -> Result<()> {
        if self.sealed {
            return Ok(());
        }
        if self.ooc == OocMode::Always && self.used > 0 {
            self.flush_page(store)?;
            self.spilled_pages += 1;
        }
        if let Some(f) = &mut self.spill {
            f.finish()?;
        }
        self.sealed = true;
        Ok(())
    }

    /// Visits every group with its key and a value iterator.
    pub fn for_each_group(
        &self,
        mut f: impl FnMut(&[u8], MrValueIter<'_>) -> Result<()>,
    ) -> Result<()> {
        debug_assert!(self.sealed, "scan before seal");
        let mut visit = |chunk: &[u8]| -> Result<()> {
            let mut off = 0;
            while off < chunk.len() {
                let klen =
                    u32::from_le_bytes(chunk[off..off + 4].try_into().expect("klen")) as usize;
                let nvals = u32::from_le_bytes(chunk[off + 4..off + 8].try_into().expect("nvals"));
                let vtotal =
                    u32::from_le_bytes(chunk[off + 8..off + 12].try_into().expect("vtotal"))
                        as usize;
                let kstart = off + ENTRY_HEADER;
                let vstart = kstart + klen;
                f(
                    &chunk[kstart..vstart],
                    MrValueIter {
                        buf: &chunk[vstart..vstart + vtotal],
                        remaining: nvals,
                        off: 0,
                    },
                )?;
                off = vstart + vtotal;
            }
            Ok(())
        };
        if let Some(file) = &self.spill {
            let mut reader = file.read_chunks()?;
            while let Some(chunk) = reader.next_chunk()? {
                visit(&chunk)?;
            }
        }
        if self.used > 0 {
            visit(&self.page.as_slice()[..self.used])?;
        }
        Ok(())
    }

    pub fn n_groups(&self) -> u64 {
        self.n_groups
    }

    pub fn spilled(&self) -> bool {
        self.spilled_pages > 0
    }

    fn ensure_spill(&mut self, store: &SpillStore) -> Result<()> {
        if self.spill.is_none() {
            self.spill = Some(store.create("kmv")?);
        }
        Ok(())
    }

    fn flush_page(&mut self, store: &SpillStore) -> Result<()> {
        if self.used == 0 {
            return Ok(());
        }
        self.ensure_spill(store)?;
        self.spill
            .as_mut()
            .expect("spill ensured")
            .write_chunk(&self.page.as_slice()[..self.used])?;
        self.used = 0;
        Ok(())
    }
}

/// Iterator over the packed `[vlen u32][bytes]` values of one group.
pub struct MrValueIter<'a> {
    buf: &'a [u8],
    remaining: u32,
    off: usize,
}

impl<'a> Iterator for MrValueIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let len =
            u32::from_le_bytes(self.buf[self.off..self.off + 4].try_into().expect("vlen")) as usize;
        let start = self.off + 4;
        self.off = start + len;
        Some(&self.buf[start..self.off])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for MrValueIter<'_> {}

/// Packs one value onto a `[vlen u32][bytes]` buffer.
pub(crate) fn pack_value(out: &mut Vec<u8>, val: &[u8]) {
    out.extend_from_slice(&(val.len() as u32).to_le_bytes());
    out.extend_from_slice(val);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimir_io::IoModel;

    fn fixture() -> (MemPool, SpillStore) {
        (
            MemPool::unlimited("t", 4096),
            SpillStore::new_temp("kmvset", IoModel::free()).unwrap(),
        )
    }

    fn packed(vals: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in vals {
            pack_value(&mut out, v);
        }
        out
    }

    #[test]
    fn groups_roundtrip_in_memory() {
        let (pool, store) = fixture();
        let mut kmv = KmvSet::new(&pool, 1024, OocMode::WhenNeeded).unwrap();
        kmv.add_group(&store, b"a", &packed(&[b"1", b"22"]), 2)
            .unwrap();
        kmv.add_group(&store, b"bb", &packed(&[b"333"]), 1).unwrap();
        kmv.seal(&store).unwrap();
        let mut got = Vec::new();
        kmv.for_each_group(|k, vals| {
            got.push((k.to_vec(), vals.map(<[u8]>::to_vec).collect::<Vec<_>>()));
            Ok(())
        })
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, b"a");
        assert_eq!(got[0].1, vec![b"1".to_vec(), b"22".to_vec()]);
        assert_eq!(got[1].1, vec![b"333".to_vec()]);
    }

    #[test]
    fn jumbo_group_spills_as_own_chunk() {
        let (pool, store) = fixture();
        let mut kmv = KmvSet::new(&pool, 128, OocMode::WhenNeeded).unwrap();
        let many: Vec<&[u8]> = (0..50).map(|_| &b"12345678"[..]).collect();
        kmv.add_group(&store, b"hot", &packed(&many), 50).unwrap();
        kmv.add_group(&store, b"cold", &packed(&[b"x"]), 1).unwrap();
        kmv.seal(&store).unwrap();
        assert!(kmv.spilled());
        let mut names = Vec::new();
        kmv.for_each_group(|k, vals| {
            names.push((k.to_vec(), vals.count()));
            Ok(())
        })
        .unwrap();
        assert_eq!(names, vec![(b"hot".to_vec(), 50), (b"cold".to_vec(), 1)]);
    }

    #[test]
    fn error_mode_rejects_jumbo() {
        let (pool, store) = fixture();
        let mut kmv = KmvSet::new(&pool, 64, OocMode::Error).unwrap();
        let many: Vec<&[u8]> = (0..50).map(|_| &b"12345678"[..]).collect();
        let err = kmv
            .add_group(&store, b"hot", &packed(&many), 50)
            .unwrap_err();
        assert!(matches!(err, MrError::EntryTooLarge { .. }));
    }
}
