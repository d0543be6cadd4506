use std::path::Path;

use mimir_io::IoModel;
use mimir_mem::MemPool;
use mimir_mpi::Comm;
use mimir_obs::{CacheCounters, CacheNameRecord};

use crate::job::MapReduceJob;
use crate::{KvCache, KvContainer, MimirConfig, Result};

/// A rank's handle to the Mimir runtime: communication, the node memory
/// pool, the I/O model, framework configuration and the rank's cross-job
/// KV cache. One context serves many jobs (multi-stage and iterative
/// workloads reuse it, chaining through the cache).
pub struct MimirContext<'w> {
    pub(crate) comm: &'w mut Comm,
    pub(crate) pool: MemPool,
    pub(crate) io: IoModel,
    pub(crate) cfg: MimirConfig,
    pub(crate) cache: KvCache,
}

impl<'w> MimirContext<'w> {
    /// Binds a context to this rank's communicator, its node's pool, and
    /// an I/O model.
    ///
    /// # Errors
    /// Invalid configuration for the world size.
    pub fn new(comm: &'w mut Comm, pool: MemPool, io: IoModel, cfg: MimirConfig) -> Result<Self> {
        cfg.validate(comm.size())?;
        Ok(Self {
            comm,
            pool,
            io,
            cfg,
            cache: KvCache::default(),
        })
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The node memory pool backing this rank.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// The I/O cost model.
    pub fn io(&self) -> &IoModel {
        &self.io
    }

    /// The framework configuration.
    pub fn config(&self) -> MimirConfig {
        self.cfg
    }

    /// Starts building a job on this context.
    pub fn job(&mut self) -> MapReduceJob<'_, 'w> {
        MapReduceJob::new(self)
    }

    /// Cross-job cache counters for this rank.
    pub fn cache_stats(&self) -> CacheCounters {
        self.cache.stats()
    }

    /// Per-name cache snapshots (resident bytes, elisions), sorted by
    /// name.
    pub fn cache_snapshots(&self) -> Vec<CacheNameRecord> {
        self.cache.entry_snapshots()
    }

    /// Whether `name` is currently cached (resident or spilled). Local;
    /// does not count toward hit/miss statistics.
    pub fn cache_contains(&self, name: &str) -> bool {
        self.cache.contains(name)
    }

    /// Reads the named cached container without consuming it, reloading
    /// it from spill first if it was evicted.
    ///
    /// # Errors
    /// [`crate::MimirError::Cache`] for an unknown name; reload failures.
    pub fn with_cached<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&KvContainer) -> Result<R>,
    ) -> Result<R> {
        self.cache.with_resident(name, &self.pool, f)
    }

    /// Forces the named entry out to spill (tests and pressure drills).
    ///
    /// # Errors
    /// Spill I/O failures.
    pub fn cache_evict(&mut self, name: &str) -> Result<Option<u64>> {
        self.cache.evict(name, &self.io)
    }

    /// Drops the named cache entry, freeing its pages or spill file.
    pub fn cache_remove(&mut self, name: &str) {
        self.cache.remove(name);
    }

    /// Drops every cache entry. Iterative drivers call this when their
    /// chain ends so a finished workload holds nothing against the
    /// shared memory budget.
    pub fn cache_clear(&mut self) {
        self.cache.clear();
    }

    /// Reads this rank's record-aligned share of a text file on the
    /// simulated parallel file system (input source 1 of the paper's
    /// three: "files from disk").
    ///
    /// # Errors
    /// I/O failures.
    pub fn read_text_split(&self, path: &Path) -> Result<Vec<u8>> {
        Ok(mimir_io::splitter::read_split(
            path,
            self.comm.rank(),
            self.comm.size(),
            b'\n',
            &self.io,
        )?)
    }

    /// Reads this rank's share of a binary file of fixed-size records on
    /// the simulated parallel file system (points, edge lists — the
    /// paper's other benchmark datasets).
    ///
    /// # Errors
    /// I/O failures or a corrupt record layout.
    pub fn read_fixed_split(&self, path: &Path, record_size: usize) -> Result<Vec<u8>> {
        Ok(mimir_io::splitter::read_fixed_split(
            path,
            self.comm.rank(),
            self.comm.size(),
            record_size,
            &self.io,
        )?)
    }

    /// Writes a job's output KVs to the simulated parallel file system as
    /// one text part-file per rank (`part-<rank>` under `dir`), rendering
    /// each KV with `fmt`. The container is consumed (pages freed as
    /// written) and the write is charged to the I/O model — the standard
    /// way a MapReduce job persists results.
    ///
    /// # Errors
    /// Filesystem failures, or errors from draining the container.
    pub fn write_text_output(
        &self,
        kvc: crate::KvContainer,
        dir: &Path,
        mut fmt: impl FnMut(&[u8], &[u8], &mut String),
    ) -> Result<std::path::PathBuf> {
        use std::io::Write;
        std::fs::create_dir_all(dir).map_err(|e| {
            crate::MimirError::Io(mimir_io::IoError::Os {
                context: format!("creating output dir {dir:?}"),
                source: e,
            })
        })?;
        let path = dir.join(format!("part-{:05}", self.rank()));
        let file = std::fs::File::create(&path).map_err(|e| {
            crate::MimirError::Io(mimir_io::IoError::Os {
                context: format!("creating output file {path:?}"),
                source: e,
            })
        })?;
        let mut w = std::io::BufWriter::new(file);
        let mut line = String::new();
        let mut written = 0usize;
        kvc.drain(|k, v| {
            line.clear();
            fmt(k, v, &mut line);
            line.push('\n');
            written += line.len();
            w.write_all(line.as_bytes()).map_err(|e| {
                crate::MimirError::Io(mimir_io::IoError::Os {
                    context: format!("writing output file {path:?}"),
                    source: e,
                })
            })
        })?;
        w.flush().map_err(|e| {
            crate::MimirError::Io(mimir_io::IoError::Os {
                context: format!("flushing output file {path:?}"),
                source: e,
            })
        })?;
        self.io.charge_write(written);
        Ok(path)
    }

    /// Global synchronization across all ranks.
    pub fn barrier(&mut self) {
        self.comm.barrier();
    }

    /// Global sum across ranks.
    pub fn allreduce_sum(&mut self, value: u64) -> u64 {
        self.comm.allreduce_u64(mimir_mpi::ReduceOp::Sum, value)
    }

    /// Global max across ranks.
    pub fn allreduce_max(&mut self, value: u64) -> u64 {
        self.comm.allreduce_u64(mimir_mpi::ReduceOp::Max, value)
    }

    /// Direct access to the communicator for application-level messaging
    /// between MapReduce stages (the in-situ pattern).
    pub fn comm(&mut self) -> &mut Comm {
        self.comm
    }
}
