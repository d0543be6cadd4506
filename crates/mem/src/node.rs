use crate::{MemError, MemPool, Result};

/// Maps simulated ranks onto simulated compute nodes, one shared
/// [`MemPool`] per node.
///
/// The paper's platforms place 24 (Comet) or 16 (Mira) MPI processes on a
/// node that they collectively must fit inside. Sharing a pool between the
/// ranks of a node reproduces the failure mode behind the weak-scaling
/// results (Figures 10 and 14): a skewed dataset concentrates intermediate
/// KVs on a few ranks, those ranks' *nodes* run out of memory, and the job
/// spills or dies even though the aggregate memory across the machine would
/// have sufficed.
///
/// The pools are shared by rank processes too: a world of forked ranks
/// started after the map was built charges each node's one budget (see
/// [`MemPool`]). A rank process killed by a signal never drops its pages,
/// so they stay charged to its node for the rest of the map's life.
#[derive(Clone)]
pub struct NodeMap {
    ranks_per_node: usize,
    pools: Vec<MemPool>,
}

impl NodeMap {
    /// Builds pools for `n_ranks` ranks packed `ranks_per_node` to a node,
    /// each node holding `node_budget` bytes served in `page_size` pages.
    ///
    /// # Errors
    /// [`MemError::InvalidConfig`] on zero ranks, zero ranks-per-node, or a
    /// page size/budget combination [`MemPool::new`] rejects.
    pub fn new(
        n_ranks: usize,
        ranks_per_node: usize,
        page_size: usize,
        node_budget: usize,
    ) -> Result<Self> {
        if n_ranks == 0 {
            return Err(MemError::InvalidConfig("need at least one rank".into()));
        }
        if ranks_per_node == 0 {
            return Err(MemError::InvalidConfig(
                "need at least one rank per node".into(),
            ));
        }
        let n_nodes = n_ranks.div_ceil(ranks_per_node);
        let pools = (0..n_nodes)
            .map(|n| MemPool::new(format!("node{n}"), page_size, node_budget))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            ranks_per_node,
            pools,
        })
    }

    /// All ranks share one unlimited pool; for tests.
    pub fn unlimited(n_ranks: usize, page_size: usize) -> Self {
        Self {
            ranks_per_node: n_ranks.max(1),
            pools: vec![MemPool::unlimited("node0", page_size)],
        }
    }

    /// The pool backing `rank`'s node.
    ///
    /// # Panics
    /// Panics if `rank` is outside the world this map was built for.
    pub fn pool_for_rank(&self, rank: usize) -> MemPool {
        self.pools[self.node_of(rank)].clone()
    }

    /// The node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        let node = rank / self.ranks_per_node;
        assert!(node < self.pools.len(), "rank {rank} outside node map");
        node
    }

    /// Number of simulated nodes.
    pub fn n_nodes(&self) -> usize {
        self.pools.len()
    }

    /// Ranks packed onto each node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Iterator over the per-node pools.
    pub fn pools(&self) -> impl Iterator<Item = &MemPool> {
        self.pools.iter()
    }

    /// Largest per-node peak across the machine — the number the paper's
    /// "peak memory usage" plots report (per node, worst case).
    pub fn max_node_peak(&self) -> usize {
        self.pools.iter().map(MemPool::peak).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_map_to_expected_nodes() {
        let m = NodeMap::new(10, 4, 16, 160).unwrap();
        assert_eq!(m.n_nodes(), 3);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert_eq!(m.node_of(9), 2);
    }

    #[test]
    fn same_node_ranks_share_budget() {
        let m = NodeMap::new(4, 2, 16, 32).unwrap();
        let p0 = m.pool_for_rank(0);
        let p1 = m.pool_for_rank(1);
        let _a = p0.alloc_page().unwrap();
        let _b = p1.alloc_page().unwrap();
        assert!(p0.alloc_page().is_err(), "node budget shared by both ranks");
        let p2 = m.pool_for_rank(2);
        assert!(p2.alloc_page().is_ok(), "other node unaffected");
    }

    #[test]
    fn max_node_peak_reports_worst_node() {
        let m = NodeMap::new(4, 2, 16, 64).unwrap();
        let _a = m.pool_for_rank(0).alloc_pages(2).unwrap();
        let _b = m.pool_for_rank(2).alloc_page().unwrap();
        assert_eq!(m.max_node_peak(), 32);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NodeMap::new(0, 1, 16, 64).is_err());
        assert!(NodeMap::new(4, 0, 16, 64).is_err());
        assert!(NodeMap::new(4, 2, 128, 64).is_err());
    }
}
