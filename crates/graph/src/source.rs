//! Deterministic source picking (GAPBS `SourcePicker`).

use crate::edgelist::NodeId;
use crate::sim::SimCsrGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Picks random non-isolated source vertices, as GAPBS does for BFS/BC/
/// SSSP trials. Deterministic for a given seed.
///
/// # Examples
///
/// ```
/// use tiersim_graph::{build_sim_csr, EdgeList, SourcePicker};
/// use tiersim_mem::NullBackend;
///
/// let el = EdgeList::new(4, vec![(1, 2)]);
/// let mut b = NullBackend::new();
/// let g = build_sim_csr(&mut b, &el, true, 1);
/// let mut p = SourcePicker::new(42);
/// let s = p.pick(&g);
/// assert!(s == 1 || s == 2); // only non-isolated vertices
/// ```
#[derive(Debug, Clone)]
pub struct SourcePicker {
    rng: SmallRng,
}

impl SourcePicker {
    /// Creates a picker with the given seed.
    pub fn new(seed: u64) -> Self {
        SourcePicker { rng: SmallRng::seed_from_u64(seed) }
    }

    /// Picks a vertex with non-zero degree (uses the host-side index,
    /// charging no simulated traffic — picking is experiment setup).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges at all.
    pub fn pick(&mut self, g: &SimCsrGraph) -> NodeId {
        assert!(g.num_edges() > 0, "cannot pick a source in an edgeless graph");
        let n = g.num_nodes();
        loop {
            let v = self.rng.gen_range(0..n) as NodeId;
            if g.host_degree(v) > 0 {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_sim_csr;
    use crate::edgelist::EdgeList;
    use tiersim_mem::NullBackend;

    #[test]
    fn picker_is_deterministic() {
        let el = EdgeList::new(8, vec![(0, 1), (2, 3), (4, 5)]);
        let mut b = NullBackend::new();
        let g = build_sim_csr(&mut b, &el, true, 1);
        let (mut a, mut c) = (SourcePicker::new(7), SourcePicker::new(7));
        for _ in 0..5 {
            assert_eq!(a.pick(&g), c.pick(&g));
        }
    }

    #[test]
    fn picker_avoids_isolated_vertices() {
        let el = EdgeList::new(100, vec![(0, 1)]);
        let mut b = NullBackend::new();
        let g = build_sim_csr(&mut b, &el, true, 1);
        let mut p = SourcePicker::new(1);
        for _ in 0..20 {
            let s = p.pick(&g);
            assert!(s == 0 || s == 1);
        }
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn edgeless_graph_panics() {
        let el = EdgeList::new(4, vec![]);
        let mut b = NullBackend::new();
        let g = build_sim_csr(&mut b, &el, true, 1);
        let _ = SourcePicker::new(0).pick(&g);
    }
}
