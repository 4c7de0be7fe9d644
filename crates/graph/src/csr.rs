//! Host-side CSR graph (the verification oracle's representation).

use crate::edgelist::{EdgeList, NodeId};

/// A compressed-sparse-row graph living entirely in host memory.
///
/// Used by the reference implementations and as the blueprint the
/// simulated builder reproduces. Graphs are stored directed; undirected
/// graphs are symmetrized at build time as GAPBS does.
///
/// # Examples
///
/// ```
/// use tiersim_graph::{CsrGraph, EdgeList};
///
/// let el = EdgeList::new(3, vec![(0, 1), (1, 2)]);
/// let g = CsrGraph::from_edges(&el, true);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.degree(1), 2); // symmetrized
/// assert_eq!(g.neighbors(0), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    neighbors: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a CSR from an edge list, dropping self-loops. With
    /// `symmetrize`, every edge is inserted in both directions.
    pub fn from_edges(el: &EdgeList, symmetrize: bool) -> CsrGraph {
        CsrGraph::from_edge_stream(el.num_nodes, symmetrize, || el.edges.iter().copied())
    }

    /// Builds a CSR over `n` vertices from a replayable edge stream,
    /// without holding the edges: `edges()` must yield the same edges in
    /// the same order on each call, as a generator's `edges` does. The
    /// first pass counts degrees into the offsets, the second scatters
    /// each edge at its source's cursor, so every neighbour list keeps
    /// stream order. Self-loops are dropped; with `symmetrize`, every edge
    /// is inserted in both directions.
    ///
    /// Endpoints must be below `n` (debug builds assert it); an edge with
    /// an endpoint out of range is dropped.
    ///
    /// # Examples
    ///
    /// ```
    /// use tiersim_graph::{CsrGraph, UniformGenerator};
    ///
    /// let gen = UniformGenerator::new(6, 4).seed(7);
    /// let g = CsrGraph::from_edge_stream(gen.num_nodes(), true, || gen.edges());
    /// assert_eq!(g, CsrGraph::from_edges(&gen.generate(), true));
    /// ```
    pub fn from_edge_stream<I>(n: usize, symmetrize: bool, edges: impl Fn() -> I) -> CsrGraph
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let kept = |u: NodeId, v: NodeId| {
            debug_assert!((u as usize) < n && (v as usize) < n, "edge ({u}, {v}) out of range");
            u != v && (u as usize) < n && (v as usize) < n
        };
        // Pass 1: the out-degree of `u` lands in `offsets[u + 1]`, so an
        // inclusive prefix sum leaves `offsets[u]` at the start of `u`.
        let mut offsets = vec![0u64; n + 1];
        let mut count = |u: NodeId| {
            if let Some(d) = offsets.get_mut(u as usize + 1) {
                *d += 1;
            }
        };
        for (u, v) in edges() {
            if kept(u, v) {
                count(u);
                if symmetrize {
                    count(v);
                }
            }
        }
        let mut running = 0u64;
        for o in &mut offsets {
            running += *o;
            *o = running;
        }
        // Pass 2: `u`'s cursor starts at its offset and advances by one
        // per neighbour placed.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; running as usize];
        let mut place = |u: NodeId, v: NodeId| {
            if let Some(c) = cursor.get_mut(u as usize) {
                if let Some(slot) = neighbors.get_mut(*c as usize) {
                    *slot = v;
                }
                *c += 1;
            }
        };
        for (u, v) in edges() {
            if kept(u, v) {
                place(u, v);
                if symmetrize {
                    place(v, u);
                }
            }
        }
        CsrGraph { offsets, neighbors }
    }

    /// Builds directly from parts (used by the simulated builder's
    /// verification path).
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotonically increasing or do not
    /// cover `neighbors`.
    pub fn from_parts(offsets: Vec<u64>, neighbors: Vec<NodeId>) -> CsrGraph {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotone");
        assert_eq!(offsets[offsets.len() - 1] as usize, neighbors.len(), "offset coverage");
        CsrGraph { offsets, neighbors }
    }

    /// Takes the graph apart into its offsets and neighbour arrays, the
    /// inverse of [`CsrGraph::from_parts`]; no element is copied.
    pub fn into_parts(self) -> (Vec<u64>, Vec<NodeId>) {
        (self.offsets, self.neighbors)
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges stored.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The offsets array (length `num_nodes + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The concatenated neighbor array.
    pub fn neighbor_array(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Sorts every neighbor list ascending (GAPBS's triangle-counting
    /// preprocessing step).
    pub fn sort_neighbors(&mut self) {
        for u in 0..self.num_nodes() {
            let (s, e) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            self.neighbors[s..e].sort_unstable();
        }
    }

    /// Removes duplicate parallel edges from each (sorted) neighbor list,
    /// rewriting the offsets.
    ///
    /// # Panics
    ///
    /// Panics if the lists are not sorted (call
    /// [`CsrGraph::sort_neighbors`] first).
    pub fn dedup_neighbors(&mut self) {
        let n = self.num_nodes();
        let mut new_offsets = vec![0u64; n + 1];
        let mut new_neighbors = Vec::with_capacity(self.neighbors.len());
        for u in 0..n {
            let (s, e) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            let lst = &self.neighbors[s..e];
            assert!(lst.windows(2).all(|w| w[0] <= w[1]), "list of {u} not sorted");
            let mut last = None;
            for &v in lst {
                if last != Some(v) {
                    new_neighbors.push(v);
                    last = Some(v);
                }
            }
            new_offsets[u + 1] = new_neighbors.len() as u64;
        }
        self.offsets = new_offsets;
        self.neighbors = new_neighbors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> EdgeList {
        EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn directed_build() {
        let g = CsrGraph::from_edges(&triangle(), false);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn symmetrized_build() {
        let g = CsrGraph::from_edges(&triangle(), true);
        assert_eq!(g.num_edges(), 6);
        let mut n0 = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn self_loops_are_dropped() {
        let el = EdgeList::new(2, vec![(0, 0), (0, 1)]);
        let g = CsrGraph::from_edges(&el, true);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let el = EdgeList::new(5, vec![(0, 1)]);
        let g = CsrGraph::from_edges(&el, true);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_parts_rejects_bad_offsets() {
        let _ = CsrGraph::from_parts(vec![0, 5, 2], vec![0, 0]);
    }

    #[test]
    fn sort_and_dedup() {
        let el = EdgeList::new(3, vec![(0, 2), (0, 1), (0, 2), (1, 2)]);
        let mut g = CsrGraph::from_edges(&el, true);
        g.sort_neighbors();
        assert_eq!(g.neighbors(0), &[1, 2, 2]);
        g.dedup_neighbors();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.num_edges(), 6);
    }

    /// The indexed counting-sort build [`CsrGraph::from_edge_stream`]
    /// replaced, kept as its oracle.
    fn from_edges_indexed(el: &EdgeList, symmetrize: bool) -> CsrGraph {
        let n = el.num_nodes;
        let mut degrees = vec![0u64; n];
        for &(u, v) in &el.edges {
            if u == v {
                continue;
            }
            degrees[u as usize] += 1;
            if symmetrize {
                degrees[v as usize] += 1;
            }
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degrees[i];
        }
        let mut neighbors = vec![0 as NodeId; offsets[n] as usize];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in &el.edges {
            if u == v {
                continue;
            }
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            if symmetrize {
                neighbors[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        CsrGraph { offsets, neighbors }
    }

    #[test]
    fn stream_build_matches_collected_generator_output() {
        use crate::{GridGenerator, KroneckerGenerator, UniformGenerator};
        for seed in [1, 7, 27491095] {
            for scale in [4, 9, 12] {
                let kron = KroneckerGenerator::new(scale, 8).seed(seed);
                let streamed = CsrGraph::from_edge_stream(kron.num_nodes(), true, || kron.edges());
                assert_eq!(streamed, CsrGraph::from_edges(&kron.generate(), true), "kron {scale}");
                let urand = UniformGenerator::new(scale, 8).seed(seed);
                let streamed =
                    CsrGraph::from_edge_stream(urand.num_nodes(), true, || urand.edges());
                assert_eq!(
                    streamed,
                    CsrGraph::from_edges(&urand.generate(), true),
                    "urand {scale}"
                );
            }
        }
        for scale in [2, 6, 10] {
            let grid = GridGenerator::new(scale);
            let streamed = CsrGraph::from_edge_stream(grid.num_nodes(), true, || grid.edges());
            assert_eq!(streamed, CsrGraph::from_edges(&grid.generate(), true), "grid {scale}");
        }
    }

    #[test]
    fn into_parts_inverts_from_parts() {
        let g = CsrGraph::from_edges(&triangle(), true);
        let (offsets, neighbors) = g.clone().into_parts();
        assert_eq!(CsrGraph::from_parts(offsets, neighbors), g);
    }

    proptest::proptest! {
        #[test]
        fn prop_symmetrized_degree_sum_is_twice_edges(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..100)
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let el = EdgeList::new(20, clean.clone());
            let g = CsrGraph::from_edges(&el, true);
            let total: usize = (0..20).map(|u| g.degree(u)).sum();
            proptest::prop_assert_eq!(total, 2 * clean.len());
        }

        /// Small vertex ranges force self-loops and duplicate edges; the
        /// extra vertices past the endpoint range stay isolated.
        #[test]
        fn prop_stream_build_equals_the_indexed_build(
            span in 1u32..12,
            isolated in 0usize..4,
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..60),
            symmetrize in proptest::bool::ANY,
        ) {
            let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % span, v % span)).collect();
            let el = EdgeList::new(span as usize + isolated, edges);
            let streamed =
                CsrGraph::from_edge_stream(el.num_nodes, symmetrize, || el.edges.iter().copied());
            let oracle = from_edges_indexed(&el, symmetrize);
            proptest::prop_assert_eq!(&streamed, &oracle);
            proptest::prop_assert_eq!(&CsrGraph::from_edges(&el, symmetrize), &oracle);
        }
    }
}
