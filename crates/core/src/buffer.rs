use mimir_mem::{MemPool, Reservation};

use crate::Result;

/// A heap buffer whose bytes are charged to a node pool.
///
/// Used for allocations that are not page-shaped but must still count
/// against the node budget: the static send/receive communication buffers
/// and keys too long for a page in a [`crate::GroupIndex`].
pub(crate) struct TrackedBuf {
    _res: Reservation,
    data: Vec<u8>,
}

impl TrackedBuf {
    /// Allocates a zeroed buffer of `size` bytes charged to `pool`.
    pub fn new(pool: &MemPool, size: usize) -> Result<Self> {
        let res = pool.try_reserve(size)?;
        Ok(Self {
            _res: res,
            data: vec![0u8; size],
        })
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_buf_charges_pool() {
        let pool = MemPool::new("t", 64, 1024).unwrap();
        let b = TrackedBuf::new(&pool, 500).unwrap();
        assert_eq!(pool.used(), 500);
        assert_eq!(b.len(), 500);
        drop(b);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn tracked_buf_respects_budget() {
        let pool = MemPool::new("t", 64, 256).unwrap();
        assert!(TrackedBuf::new(&pool, 500).is_err());
    }
}
