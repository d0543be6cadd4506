//! What a tenant submits: a named, prioritized, footprint-bounded job.

use std::sync::Arc;

use mimir_core::{MimirConfig, MimirContext, MimirError};

/// What a job body hands back to the service when it finishes.
///
/// Bodies drain their result KVs into plain heap bytes (`data`) rather
/// than returning pool-backed containers: a finished job must hold
/// nothing against the shared memory budget, or its output would eat
/// into the headroom the admission controller thinks it has.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JobYield {
    /// This rank's serialized output (format is the job's business).
    pub data: Vec<u8>,
    /// KVs the job's reduce produced on this rank (reported into the
    /// per-job `RankReport` section).
    pub kvs_out: u64,
    /// Bytes the job spilled to disk on this rank, if it used a spill
    /// store (reported into the per-job `RankReport` section).
    pub spill_bytes: u64,
}

impl JobYield {
    /// A yield carrying only output bytes.
    pub fn from_data(data: Vec<u8>) -> Self {
        JobYield {
            data,
            ..JobYield::default()
        }
    }
}

/// The job's rank program. It runs on a worker thread against a
/// [`MimirContext`] bound to the job's *private* duplicated
/// communicator, so anything `MimirContext` supports — multi-stage
/// pipelines, iteration, raw collectives — is fair game.
///
/// The body is an `Arc<dyn Fn>` rather than a `FnOnce` because a job
/// suspended on OOM is re-run from the start after re-admission.
pub type JobBody = Arc<dyn Fn(&mut MimirContext<'_>) -> Result<JobYield, MimirError> + Send + Sync>;

/// A job submission: name, priority, declared memory footprint, the
/// framework configuration to run under, and the rank program itself.
///
/// Like every scheduler entry point, specs are SPMD: each rank submits
/// an equivalent spec (same name/priority/footprint, a body computing
/// that rank's share) in the same order.
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable name (also labels the job's spill directory).
    pub name: String,
    /// Higher runs first; ties are FIFO by submission order.
    pub priority: u64,
    /// Estimated bytes of node-pool memory the job needs. Admission
    /// reserves this much on every node before the job starts; a lowball
    /// estimate costs a suspend-and-retry cycle with the estimate
    /// doubled.
    pub footprint_bytes: usize,
    /// Framework configuration the job's context is built with.
    pub config: MimirConfig,
    pub(crate) body: JobBody,
}

impl JobSpec {
    /// A priority-0 spec with the default [`MimirConfig`].
    pub fn new(
        name: impl Into<String>,
        footprint_bytes: usize,
        body: impl Fn(&mut MimirContext<'_>) -> Result<JobYield, MimirError> + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            name: name.into(),
            priority: 0,
            footprint_bytes,
            config: MimirConfig::default(),
            body: Arc::new(body),
        }
    }

    /// Sets the scheduling priority (higher runs first).
    #[must_use]
    pub fn priority(mut self, priority: u64) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the framework configuration the job runs under.
    #[must_use]
    pub fn config(mut self, config: MimirConfig) -> Self {
        self.config = config;
        self
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("footprint_bytes", &self.footprint_bytes)
            .finish_non_exhaustive()
    }
}
