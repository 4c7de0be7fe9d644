//! Edge lists: the on-disk representation GAPBS loads and converts.

/// A vertex identifier.
pub type NodeId = u32;

/// An unweighted directed edge list over `num_nodes` vertices.
///
/// A generator's `generate` collects its edge stream into one;
/// [`crate::build_sim_csr`] converts it to CSR in simulated memory, and
/// [`crate::CsrGraph::from_edges`] on the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices (`2^scale` for generated graphs).
    pub num_nodes: usize,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl EdgeList {
    /// Creates an edge list, validating that endpoints are in range.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn new(num_nodes: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        for &(u, v) in &edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u}, {v}) out of range for {num_nodes} nodes"
            );
        }
        EdgeList { num_nodes, edges }
    }

    /// Number of directed edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_endpoints() {
        let el = EdgeList::new(4, vec![(0, 1), (3, 2)]);
        assert_eq!(el.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = EdgeList::new(2, vec![(0, 2)]);
    }
}
