use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use std::sync::Mutex;

use crate::{MemError, MemStats, Page, Reservation, Result};

/// A budgeted memory pool modeling one compute node's DRAM.
///
/// The pool hands out fixed-size [`Page`]s (the paper's fragmentation-free
/// allocation unit) and byte-granular [`Reservation`]s (for hash tables and
/// other non-page state that still counts against the node). Both are RAII:
/// dropping them credits the pool. `MemPool` is a cheap `Arc` handle; clones
/// share the same budget and counters, which is how multiple ranks on one
/// simulated node share a node's memory.
///
/// Freed page buffers are cached and reused rather than returned to the
/// system allocator. This mirrors the paper's motivation for fixed-size
/// pages — the BG/Q lightweight kernel cannot compact a fragmented heap —
/// and keeps the host allocator out of the measured path.
///
/// ```
/// use mimir_mem::MemPool;
///
/// let pool = MemPool::new("node0", 64 * 1024, 1 << 20).unwrap();
/// let page = pool.alloc_page().unwrap();
/// assert_eq!(pool.used(), 64 * 1024);
/// drop(page);
/// assert_eq!(pool.used(), 0);
/// assert_eq!(pool.peak(), 64 * 1024); // peak survives the free
/// ```
#[derive(Clone)]
pub struct MemPool {
    inner: Arc<PoolInner>,
}

pub(crate) struct PoolInner {
    name: String,
    page_size: usize,
    budget: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    /// Separate high-water mark for phase-scoped measurement
    /// ([`MemPool::phase_peak`]); resettable without disturbing the
    /// cumulative peak.
    phase_peak: AtomicUsize,
    page_allocs: AtomicU64,
    page_frees: AtomicU64,
    oom_events: AtomicU64,
    /// Usage level at the last emitted trace sample. The sampler is
    /// decimated: charges and credits only emit a `MemSample` event once
    /// usage has moved at least one page away from this watermark, so
    /// byte-granular reservation churn costs one atomic load per call,
    /// not one trace event.
    last_sample: AtomicUsize,
    free_pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemPool {
    /// Creates a pool with the given page size and hard byte budget.
    ///
    /// # Errors
    /// Returns [`MemError::InvalidConfig`] if `page_size` is zero or larger
    /// than `budget`.
    pub fn new(name: impl Into<String>, page_size: usize, budget: usize) -> Result<Self> {
        let name = name.into();
        if page_size == 0 {
            return Err(MemError::InvalidConfig(format!(
                "pool `{name}`: page size must be non-zero"
            )));
        }
        if page_size > budget {
            return Err(MemError::InvalidConfig(format!(
                "pool `{name}`: page size {page_size} exceeds budget {budget}"
            )));
        }
        Ok(Self {
            inner: Arc::new(PoolInner {
                name,
                page_size,
                budget,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                phase_peak: AtomicUsize::new(0),
                page_allocs: AtomicU64::new(0),
                page_frees: AtomicU64::new(0),
                oom_events: AtomicU64::new(0),
                last_sample: AtomicUsize::new(0),
                free_pages: Mutex::new(Vec::new()),
            }),
        })
    }

    /// Creates a pool with an effectively unlimited budget, for tests and
    /// for components whose memory the experiment does not meter.
    pub fn unlimited(name: impl Into<String>, page_size: usize) -> Self {
        Self::new(name, page_size, usize::MAX).expect("unlimited pool config is always valid")
    }

    /// Allocates one zero-length page of `page_size()` capacity.
    ///
    /// # Errors
    /// [`MemError::OutOfMemory`] if the page would exceed the budget.
    pub fn alloc_page(&self) -> Result<Page> {
        self.charge(self.inner.page_size)?;
        self.inner.page_allocs.fetch_add(1, Ordering::Relaxed);
        let buf = self
            .inner
            .free_pages
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| vec![0u8; self.inner.page_size].into_boxed_slice());
        Ok(Page::new(buf, Arc::clone(&self.inner)))
    }

    /// Allocates `n` pages, releasing any partial progress on failure.
    pub fn alloc_pages(&self, n: usize) -> Result<Vec<Page>> {
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push(self.alloc_page()?);
        }
        Ok(pages)
    }

    /// Reserves `bytes` of non-page memory (hash buckets, index arrays, …).
    ///
    /// # Errors
    /// [`MemError::OutOfMemory`] if the reservation would exceed the budget.
    pub fn try_reserve(&self, bytes: usize) -> Result<Reservation> {
        self.charge(bytes)?;
        Ok(Reservation::new(bytes, Arc::clone(&self.inner)))
    }

    /// The pool's fixed page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// The hard budget in bytes (`usize::MAX` when unlimited).
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// Bytes currently charged to the pool.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Acquire)
    }

    /// High-water mark of [`Self::used`] since creation or the last
    /// [`Self::reset_peak`].
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Acquire)
    }

    /// The pool's diagnostic name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Count of allocations refused for exceeding the budget.
    pub fn oom_events(&self) -> u64 {
        self.inner.oom_events.load(Ordering::Relaxed)
    }

    /// Resets the peak tracker to the current usage, for phase-scoped
    /// measurements.
    pub fn reset_peak(&self) {
        self.inner.peak.store(self.used(), Ordering::Release);
    }

    /// High-water mark since the last [`Self::reset_phase_peak`]. Tracked
    /// separately from [`Self::peak`] so phase-scoped measurement (the
    /// paper's per-phase memory curves) can reset between phases without
    /// losing the job-wide peak.
    pub fn phase_peak(&self) -> usize {
        self.inner.phase_peak.load(Ordering::Acquire)
    }

    /// Resets the phase-scoped peak tracker to the current usage.
    pub fn reset_phase_peak(&self) {
        self.inner.phase_peak.store(self.used(), Ordering::Release);
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> MemStats {
        MemStats {
            used: self.used(),
            peak: self.peak(),
            budget: self.inner.budget,
            page_size: self.inner.page_size,
            page_allocs: self.inner.page_allocs.load(Ordering::Relaxed),
            page_frees: self.inner.page_frees.load(Ordering::Relaxed),
            oom_events: self.oom_events(),
        }
    }

    fn charge(&self, bytes: usize) -> Result<()> {
        self.inner.charge(bytes).inspect_err(|_| {
            self.inner.oom_events.fetch_add(1, Ordering::Relaxed);
        })
    }
}

impl std::fmt::Debug for MemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPool")
            .field("name", &self.inner.name)
            .field("page_size", &self.inner.page_size)
            .field("budget", &self.inner.budget)
            .field("used", &self.used())
            .field("peak", &self.peak())
            .finish()
    }
}

impl PoolInner {
    pub(crate) fn charge(&self, bytes: usize) -> Result<()> {
        let mut current = self.used.load(Ordering::Relaxed);
        loop {
            let next = current
                .checked_add(bytes)
                .ok_or_else(|| self.oom(bytes, current))?;
            if next > self.budget {
                return Err(self.oom(bytes, current));
            }
            match self.used.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::AcqRel);
                    self.phase_peak.fetch_max(next, Ordering::AcqRel);
                    self.maybe_sample(next);
                    return Ok(());
                }
                Err(actual) => current = actual,
            }
        }
    }

    pub(crate) fn credit(&self, bytes: usize) {
        let prev = self.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "pool accounting underflow");
        self.maybe_sample(prev.saturating_sub(bytes));
    }

    pub(crate) fn recycle_page(&self, buf: Box<[u8]>) {
        self.page_frees.fetch_add(1, Ordering::Relaxed);
        self.credit(self.page_size);
        let mut cache = self.free_pages.lock().unwrap();
        // Bound the cache so long-lived unlimited pools don't hoard host
        // memory: keep at most budget/page_size or 1024 buffers.
        let cap = (self.budget / self.page_size).min(1024);
        if cache.len() < cap {
            cache.push(buf);
        }
    }

    /// Emits a pool high-water sample on the calling rank's trace when
    /// usage has drifted at least one page from the last sample. No-op
    /// when tracing is off; one relaxed load when it is on but the
    /// watermark hasn't moved far enough — cheap enough to hang off every
    /// charge/credit, including byte-granular reservations.
    fn maybe_sample(&self, used_now: usize) {
        if !mimir_obs::active() {
            return;
        }
        let last = self.last_sample.load(Ordering::Relaxed);
        if used_now.abs_diff(last) >= self.page_size
            && self
                .last_sample
                .compare_exchange(last, used_now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            mimir_obs::emit(
                mimir_obs::EventKind::MemSample,
                used_now as u64,
                self.peak.load(Ordering::Relaxed) as u64,
            );
        }
    }

    fn oom(&self, requested: usize, used: usize) -> MemError {
        MemError::OutOfMemory {
            pool: self.name.clone(),
            requested,
            used,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_page_size() {
        assert!(matches!(
            MemPool::new("t", 0, 1024),
            Err(MemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_page_larger_than_budget() {
        assert!(matches!(
            MemPool::new("t", 2048, 1024),
            Err(MemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn page_alloc_charges_and_drop_credits() {
        let pool = MemPool::new("t", 64, 256).unwrap();
        let p = pool.alloc_page().unwrap();
        assert_eq!(pool.used(), 64);
        assert_eq!(pool.peak(), 64);
        drop(p);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.peak(), 64, "peak survives frees");
    }

    #[test]
    fn budget_is_enforced() {
        let pool = MemPool::new("t", 64, 128).unwrap();
        let _a = pool.alloc_page().unwrap();
        let _b = pool.alloc_page().unwrap();
        let err = pool.alloc_page().unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { used: 128, .. }));
        assert_eq!(pool.oom_events(), 1);
    }

    #[test]
    fn freed_budget_is_reusable() {
        let pool = MemPool::new("t", 64, 64).unwrap();
        for _ in 0..10 {
            let p = pool.alloc_page().unwrap();
            drop(p);
        }
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.stats().page_allocs, 10);
        assert_eq!(pool.stats().page_frees, 10);
    }

    #[test]
    fn reservation_accounts_bytes() {
        let pool = MemPool::new("t", 64, 1000).unwrap();
        let r = pool.try_reserve(300).unwrap();
        assert_eq!(pool.used(), 300);
        drop(r);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn mixed_pages_and_reservations_share_budget() {
        let pool = MemPool::new("t", 64, 100).unwrap();
        let _p = pool.alloc_page().unwrap();
        assert!(pool.try_reserve(37).is_err());
        let _r = pool.try_reserve(36).unwrap();
        assert_eq!(pool.used(), 100);
    }

    #[test]
    fn reset_peak_tracks_phase_scoped_high_water() {
        let pool = MemPool::new("t", 64, 1024).unwrap();
        let a = pool.alloc_pages(4).unwrap();
        drop(a);
        assert_eq!(pool.peak(), 256);
        pool.reset_peak();
        assert_eq!(pool.peak(), 0);
        let _b = pool.alloc_page().unwrap();
        assert_eq!(pool.peak(), 64);
    }

    #[test]
    fn alloc_pages_partial_failure_releases_everything() {
        let pool = MemPool::new("t", 64, 128).unwrap();
        assert!(pool.alloc_pages(3).is_err());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn concurrent_charging_is_consistent() {
        let pool = MemPool::new("t", 8, 8 * 1000).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let p = pool.alloc_page().unwrap();
                        drop(p);
                    }
                });
            }
        });
        assert_eq!(pool.used(), 0);
        assert!(pool.peak() <= 8 * 8 * 8 * 1000); // sanity: bounded
        assert_eq!(pool.stats().page_allocs, 800);
    }

    #[test]
    fn sampler_is_decimated_to_page_granularity() {
        let pool = MemPool::new("t", 1024, 1 << 20).unwrap();
        mimir_obs::install(mimir_obs::Recorder::new(0, 4096));
        // Sub-page reservation churn never crosses the watermark.
        for _ in 0..50 {
            let r = pool.try_reserve(16).unwrap();
            drop(r);
        }
        // Page-scale traffic does: one sample per alloc, one per free.
        let pages = pool.alloc_pages(4).unwrap();
        drop(pages);
        let rec = mimir_obs::take().expect("recorder installed");
        let events = rec.events();
        let samples: Vec<_> = events
            .iter()
            .filter(|e| e.kind == mimir_obs::EventKind::MemSample)
            .collect();
        assert_eq!(
            samples.len(),
            8,
            "4 allocs + 4 frees each move a full page; 16-byte churn is decimated"
        );
        assert_eq!(samples[3].a, 4 * 1024, "sample carries bytes used");
    }
}
