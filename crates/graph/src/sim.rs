//! Simulated-memory CSR graph.

use crate::csr::CsrGraph;
use crate::edgelist::NodeId;
use tiersim_mem::{MemBackend, SimVec};

/// A CSR graph whose arrays live in simulated memory.
///
/// The two arrays are the memory objects that dominate the paper's object
/// analysis: `csr.index` (offsets, 8 B per vertex) and `csr.neighbors`
/// (4 B per directed edge — the giant, randomly-accessed object that ends
/// up split across DRAM and NVM).
#[derive(Debug)]
pub struct SimCsrGraph {
    index: SimVec<u64>,
    neighbors: SimVec<NodeId>,
}

impl SimCsrGraph {
    /// Assembles a graph from its simulated arrays.
    ///
    /// # Panics
    ///
    /// Panics if `index` is empty or its host contents are not monotone
    /// offsets covering `neighbors`.
    pub fn from_parts(index: SimVec<u64>, neighbors: SimVec<NodeId>) -> Self {
        crate::csr::assert_csr_shape(index.host(), neighbors.len());
        SimCsrGraph { index, neighbors }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.index.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Reads the neighbor range of `u` (two index loads).
    #[inline]
    pub fn neighbor_range<B: MemBackend>(&self, b: &mut B, u: NodeId) -> (usize, usize) {
        let start = self.index.get(b, u as usize) as usize;
        let end = self.index.get(b, u as usize + 1) as usize;
        (start, end)
    }

    /// Out-degree of `u` (two index loads).
    #[inline]
    pub fn degree<B: MemBackend>(&self, b: &mut B, u: NodeId) -> usize {
        let (s, e) = self.neighbor_range(b, u);
        e - s
    }

    /// Reads the neighbor at position `i` of the concatenated array.
    #[inline]
    pub fn neighbor<B: MemBackend>(&self, b: &mut B, i: usize) -> NodeId {
        self.neighbors.get(b, i)
    }

    /// Host-side offsets, free of simulation charges (experiment setup and
    /// verification only).
    pub fn host_index(&self) -> &[u64] {
        self.index.host()
    }

    /// Host-side neighbor array, free of simulation charges.
    pub fn host_neighbors(&self) -> &[NodeId] {
        self.neighbors.host()
    }

    /// Host-side out-degree (free); used by source pickers.
    pub fn host_degree(&self, u: NodeId) -> usize {
        (self.host_index()[u as usize + 1] - self.host_index()[u as usize]) as usize
    }

    /// Clones the host data into a [`CsrGraph`] for the verification
    /// oracles.
    pub fn to_host_csr(&self) -> CsrGraph {
        CsrGraph::from_parts(self.index.host().to_vec(), self.neighbors.host().to_vec())
    }

    /// Consumes the graph, unmapping both arrays.
    pub fn unmap<B: MemBackend>(self, b: &mut B) {
        self.index.into_host(b);
        self.neighbors.into_host(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::NullBackend;

    fn tiny(b: &mut NullBackend) -> SimCsrGraph {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {}
        let index = SimVec::from_vec(b, "csr.index", vec![0u64, 2, 3, 3]);
        let neighbors = SimVec::from_vec(b, "csr.neighbors", vec![1u32, 2, 2]);
        SimCsrGraph::from_parts(index, neighbors)
    }

    #[test]
    fn shape_queries() {
        let mut b = NullBackend::new();
        let g = tiny(&mut b);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(&mut b, 0), 2);
        assert_eq!(g.degree(&mut b, 2), 0);
        assert_eq!(g.neighbor_range(&mut b, 1), (2, 3));
        assert_eq!(g.neighbor(&mut b, 2), 2);
    }

    #[test]
    fn queries_charge_loads() {
        let mut b = NullBackend::new();
        let g = tiny(&mut b);
        let before = b.loads();
        g.degree(&mut b, 0);
        assert_eq!(b.loads() - before, 2);
        g.neighbor(&mut b, 0);
        assert_eq!(b.loads() - before, 3);
    }

    #[test]
    fn host_round_trip() {
        let mut b = NullBackend::new();
        let g = tiny(&mut b);
        let host = g.to_host_csr();
        assert_eq!(host.num_nodes(), 3);
        assert_eq!(host.neighbors(0), &[1, 2]);
        assert_eq!(g.host_degree(0), 2);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn mismatched_parts_panic() {
        let mut b = NullBackend::new();
        let index = SimVec::from_vec(&mut b, "i", vec![0u64, 5]);
        let neighbors = SimVec::from_vec(&mut b, "n", vec![1u32]);
        let _ = SimCsrGraph::from_parts(index, neighbors);
    }
}
