use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{IoError, IoModel, Result};

/// A directory of spill files with RAII cleanup.
///
/// Each rank's out-of-core pages go through a store; every write/read is
/// charged to the shared [`IoModel`], because on the paper's platforms the
/// spill target is the shared parallel file system, not a local disk.
pub struct SpillStore {
    dir: PathBuf,
    model: IoModel,
    counter: Arc<AtomicU64>,
    /// Total payload bytes written through this store's files, so per-job
    /// (per-communicator) disk usage is reportable while the job runs.
    bytes_written: Arc<AtomicU64>,
    owns_dir: bool,
}

impl SpillStore {
    /// Creates a store in a fresh unique subdirectory of the system temp
    /// directory; the directory is removed when the store drops.
    ///
    /// Shorthand for [`Self::new_temp_scoped`] with the default `"world"`
    /// scope.
    pub fn new_temp(label: &str, model: IoModel) -> Result<Self> {
        Self::new_temp_scoped("world", label, model)
    }

    /// Creates a temp-directory store whose directory name carries a
    /// scope name, so spill dirs are attributable at a glance:
    /// `mimir-spill-<scope>-<label>-<pid>-<token>`.
    pub fn new_temp_scoped(scope: &str, label: &str, model: IoModel) -> Result<Self> {
        // Communicator names contain dots ("world.job3"); keep those, but
        // strip path separators and whitespace defensively.
        let scope: String = scope
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let unique = format!(
            "mimir-spill-{scope}-{label}-{}-{:x}",
            std::process::id(),
            fresh_token()
        );
        let dir = std::env::temp_dir().join(unique);
        fs::create_dir_all(&dir).map_err(IoError::os(format!("creating spill dir {dir:?}")))?;
        Ok(Self {
            dir,
            model,
            counter: Arc::new(AtomicU64::new(0)),
            bytes_written: Arc::new(AtomicU64::new(0)),
            owns_dir: true,
        })
    }

    /// Creates a store in an existing directory the caller owns.
    pub fn in_dir(dir: impl Into<PathBuf>, model: IoModel) -> Self {
        Self {
            dir: dir.into(),
            model,
            counter: Arc::new(AtomicU64::new(0)),
            bytes_written: Arc::new(AtomicU64::new(0)),
            owns_dir: false,
        }
    }

    /// Opens a new spill file for writing.
    pub fn create(&self, label: &str) -> Result<SpillFile> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("{label}-{n}.spill"));
        let file =
            File::create(&path).map_err(IoError::os(format!("creating spill file {path:?}")))?;
        mimir_obs::emit(mimir_obs::EventKind::SpillBegin, n, 0);
        Ok(SpillFile {
            path,
            id: n,
            writer: Some(BufWriter::new(file)),
            model: self.model.clone(),
            bytes: 0,
            chunks: 0,
            store_bytes: Arc::clone(&self.bytes_written),
        })
    }

    /// The directory the store's files live in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Total payload bytes written through this store so far (across all
    /// its files, including deleted ones) — the per-job disk usage number.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// The cost model this store charges.
    pub fn model(&self) -> &IoModel {
        &self.model
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

/// A chunked, length-prefixed spill file.
///
/// Writers append `[u64 le length][payload]` frames; readers stream the
/// frames back in order. Both directions are charged to the I/O model.
pub struct SpillFile {
    path: PathBuf,
    /// Store-wide sequence number, used as the trace-event spill id.
    id: u64,
    writer: Option<BufWriter<File>>,
    model: IoModel,
    bytes: u64,
    chunks: u64,
    /// The owning store's cumulative byte counter.
    store_bytes: Arc<AtomicU64>,
}

impl SpillFile {
    /// Appends one chunk.
    ///
    /// # Errors
    /// OS write failures, or use after [`Self::finish`].
    pub fn write_chunk(&mut self, data: &[u8]) -> Result<()> {
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| IoError::CorruptSpill("write after finish".into()))?;
        w.write_all(&(data.len() as u64).to_le_bytes())
            .and_then(|()| w.write_all(data))
            .map_err(IoError::os(format!(
                "writing spill chunk to {:?}",
                self.path
            )))?;
        self.model.charge_write(data.len() + 8);
        self.bytes += data.len() as u64;
        self.store_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.chunks += 1;
        Ok(())
    }

    /// Flushes and closes the write side. Further writes fail; reads are
    /// now allowed.
    pub fn finish(&mut self) -> Result<()> {
        if let Some(mut w) = self.writer.take() {
            w.flush()
                .map_err(IoError::os(format!("flushing spill file {:?}", self.path)))?;
            mimir_obs::emit(mimir_obs::EventKind::SpillEnd, self.id, self.bytes);
        }
        Ok(())
    }

    /// Streams the chunks back in write order.
    ///
    /// # Errors
    /// Fails if the file is still open for writing or cannot be opened.
    pub fn read_chunks(&self) -> Result<SpillReader> {
        if self.writer.is_some() {
            return Err(IoError::CorruptSpill("read_chunks before finish".into()));
        }
        let file = File::open(&self.path)
            .map_err(IoError::os(format!("opening spill file {:?}", self.path)))?;
        Ok(SpillReader {
            reader: BufReader::new(file),
            model: self.model.clone(),
            path: self.path.clone(),
        })
    }

    /// Payload bytes written (excluding framing).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of chunks written.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = self.finish();
        let _ = fs::remove_file(&self.path);
    }
}

/// Streaming reader over a [`SpillFile`]'s chunks.
pub struct SpillReader {
    reader: BufReader<File>,
    model: IoModel,
    path: PathBuf,
}

impl SpillReader {
    /// Reads the next chunk, or `Ok(None)` at end of file.
    ///
    /// # Errors
    /// OS failures or truncated framing.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>> {
        let mut len_buf = [0u8; 8];
        match self.reader.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(IoError::os(format!("reading spill {:?}", self.path))(e)),
        }
        let len = u64::from_le_bytes(len_buf) as usize;
        let mut data = vec![0u8; len];
        self.reader.read_exact(&mut data).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                IoError::CorruptSpill(format!("truncated chunk in {:?}", self.path))
            } else {
                IoError::os(format!("reading spill {:?}", self.path))(e)
            }
        })?;
        self.model.charge_read(len + 8);
        Ok(Some(data))
    }
}

fn fresh_token() -> u64 {
    static TOKEN: AtomicU64 = AtomicU64::new(0);
    // Mix a counter with the thread id hash so parallel tests in one
    // process cannot collide.
    let c = TOKEN.fetch_add(1, Ordering::Relaxed);
    let t = std::thread::current().id();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    use std::hash::{Hash, Hasher};
    t.hash(&mut h);
    h.finish() ^ (c << 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_chunks_in_order() {
        let store = SpillStore::new_temp("t", IoModel::free()).unwrap();
        let mut f = store.create("kv").unwrap();
        f.write_chunk(b"alpha").unwrap();
        f.write_chunk(b"").unwrap();
        f.write_chunk(&[7u8; 10_000]).unwrap();
        f.finish().unwrap();

        let mut r = f.read_chunks().unwrap();
        assert_eq!(r.next_chunk().unwrap().unwrap(), b"alpha");
        assert_eq!(r.next_chunk().unwrap().unwrap(), b"");
        assert_eq!(r.next_chunk().unwrap().unwrap(), vec![7u8; 10_000]);
        assert!(r.next_chunk().unwrap().is_none());
        assert_eq!(f.bytes(), 5 + 10_000);
        assert_eq!(f.chunks(), 3);
    }

    #[test]
    fn read_before_finish_is_refused() {
        let store = SpillStore::new_temp("t", IoModel::free()).unwrap();
        let mut f = store.create("kv").unwrap();
        f.write_chunk(b"x").unwrap();
        assert!(matches!(f.read_chunks(), Err(IoError::CorruptSpill(_))));
    }

    #[test]
    fn io_is_charged_to_model() {
        let model = IoModel::new(crate::IoModelConfig {
            read_bw: 1024.0,
            write_bw: 1024.0,
            op_latency: std::time::Duration::ZERO,
        })
        .unwrap();
        let store = SpillStore::new_temp("t", model.clone()).unwrap();
        let mut f = store.create("kv").unwrap();
        f.write_chunk(&[0u8; 1016]).unwrap(); // +8 framing = 1024
        f.finish().unwrap();
        let mut r = f.read_chunks().unwrap();
        while r.next_chunk().unwrap().is_some() {}
        let s = model.stats();
        assert_eq!(s.bytes_written, 1024);
        assert_eq!(s.bytes_read, 1024);
        assert!((model.modeled_time().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn store_drop_removes_directory() {
        let dir;
        {
            let store = SpillStore::new_temp("t", IoModel::free()).unwrap();
            dir = store.dir.clone();
            let mut f = store.create("kv").unwrap();
            f.write_chunk(b"data").unwrap();
            f.finish().unwrap();
            assert!(dir.exists());
            drop(f);
        }
        assert!(!dir.exists());
    }

    #[test]
    fn multiple_files_get_distinct_paths() {
        let store = SpillStore::new_temp("t", IoModel::free()).unwrap();
        let a = store.create("x").unwrap();
        let b = store.create("x").unwrap();
        assert_ne!(a.path, b.path);
    }

    #[test]
    fn scoped_store_names_dir_after_communicator() {
        let store = SpillStore::new_temp_scoped("world.job3", "wc", IoModel::free()).unwrap();
        let dirname = store
            .dir()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        assert!(
            dirname.starts_with("mimir-spill-world.job3-wc-"),
            "dir: {dirname}"
        );
        // Path separators in a hostile scope must not escape the temp dir.
        let store = SpillStore::new_temp_scoped("a/../b", "wc", IoModel::free()).unwrap();
        let dirname = store
            .dir()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        assert!(
            dirname.starts_with("mimir-spill-a_.._b-wc-"),
            "dir: {dirname}"
        );
    }

    #[test]
    fn store_tracks_cumulative_bytes_across_files() {
        let store = SpillStore::new_temp("t", IoModel::free()).unwrap();
        let mut a = store.create("x").unwrap();
        a.write_chunk(&[1u8; 100]).unwrap();
        a.finish().unwrap();
        let mut b = store.create("y").unwrap();
        b.write_chunk(&[2u8; 50]).unwrap();
        drop(b);
        assert_eq!(store.bytes_written(), 150, "deleted files still count");
    }
}
