/// Point-in-time snapshot of a pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes currently charged.
    pub used: usize,
    /// High-water mark of `used`.
    pub peak: usize,
    /// Hard budget (`usize::MAX` when unlimited).
    pub budget: usize,
    /// Fixed page size.
    pub page_size: usize,
    /// Cumulative page allocations.
    pub page_allocs: u64,
    /// Cumulative page frees.
    pub page_frees: u64,
    /// Allocations refused for exceeding the budget.
    pub oom_events: u64,
}

impl MemStats {
    /// Pages currently outstanding (allocated minus freed).
    pub fn pages_live(&self) -> u64 {
        self.page_allocs - self.page_frees
    }

    /// The snapshot as the report's pool section. An unlimited budget
    /// (`usize::MAX`) reads as 0, so headroom diagnosis skips pools that
    /// were never metered.
    pub fn counters(&self) -> mimir_obs::MemCounters {
        mimir_obs::MemCounters {
            pages_allocated: self.page_allocs,
            pages_recycled: self.page_frees,
            bytes_in_use: self.used as u64,
            peak_bytes: self.peak as u64,
            budget_bytes: if self.budget == usize::MAX {
                0
            } else {
                self.budget as u64
            },
            oom_events: self.oom_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::MemPool;

    #[test]
    fn snapshot_reflects_activity() {
        let pool = MemPool::new("t", 32, 320).unwrap();
        let pages = pool.alloc_pages(3).unwrap();
        drop(pages);
        let _held = pool.alloc_page().unwrap();
        let s = pool.stats();
        assert_eq!(s.used, 32);
        assert_eq!(s.peak, 96);
        assert_eq!(s.pages_live(), 1);
        let c = s.counters();
        assert_eq!((c.pages_allocated, c.pages_recycled), (4, 3));
        assert_eq!(
            (c.bytes_in_use, c.peak_bytes, c.budget_bytes),
            (32, 96, 320)
        );
    }

    #[test]
    fn unlimited_pool_reports_a_zero_budget() {
        let pool = MemPool::unlimited("t", 32);
        assert_eq!(
            pool.stats().counters().budget_bytes,
            0,
            "unlimited reads as 0"
        );
    }
}
