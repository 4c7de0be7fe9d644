//! Synthetic graph generators: Kronecker (`-g`) and uniform random (`-u`),
//! matching the GAPBS converter's datasets used by the paper (`kron` and
//! `urand`).

use crate::edgelist::{EdgeList, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Kronecker (RMAT) generator with the Graph500/GAPBS parameters
/// A=0.57, B=0.19, C=0.19.
///
/// `scale` gives `2^scale` vertices; `degree` gives `degree × 2^scale`
/// edges (GAPBS `-k`, default 16). Vertex labels are permuted so that the
/// heavy-hitter vertices are not clustered at low ids, as GAPBS does.
///
/// # Examples
///
/// ```
/// use tiersim_graph::KroneckerGenerator;
///
/// let el = KroneckerGenerator::new(8, 4).seed(1).generate();
/// assert_eq!(el.num_nodes, 256);
/// assert_eq!(el.len(), 4 * 256);
/// ```
#[derive(Debug, Clone)]
pub struct KroneckerGenerator {
    scale: u32,
    degree: usize,
    seed: u64,
    a: f64,
    b: f64,
    c: f64,
}

impl KroneckerGenerator {
    /// Creates a generator for `2^scale` vertices with average `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 31.
    pub fn new(scale: u32, degree: usize) -> Self {
        assert!((1..=31).contains(&scale), "scale must be in 1..=31");
        KroneckerGenerator { scale, degree, seed: 27491095, a: 0.57, b: 0.19, c: 0.19 }
    }

    /// Sets the RNG seed (consuming builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of vertices, `2^scale`.
    pub fn num_nodes(&self) -> usize {
        1 << self.scale
    }

    /// Generates the edge list: [`KroneckerGenerator::edges`], collected.
    pub fn generate(&self) -> EdgeList {
        EdgeList::new(self.num_nodes(), self.edges().collect())
    }

    /// The edges [`KroneckerGenerator::generate`] lists, in the same
    /// order, drawn one at a time. Each call restarts from the seed, so a
    /// consumer can replay the stream instead of holding it.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> {
        let n = self.num_nodes();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Label permutation (Fisher–Yates) applied to generated vertices.
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let t = Thresholds::new(self.a, self.b, self.c);
        let scale = self.scale;
        (0..self.degree * n).map(move |_| {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..scale {
                let (u_bit, v_bit) = quadrant(rng.next_u64() >> 11, &t);
                u = u << 1 | u_bit;
                v = v << 1 | v_bit;
            }
            // `u` and `v` have `scale` bits, so both are labels of `perm`.
            let label = |x: usize| perm.get(x).copied().unwrap_or_default();
            (label(u), label(v))
        })
    }
}

/// The quadrant boundaries `a`, `ab = a + b` and `abc = ab + c` of the
/// RMAT draw, as [`threshold`]s on the draw's 53 random bits.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Thresholds {
    fn new(a: f64, b: f64, c: f64) -> Thresholds {
        let ab = a + b;
        Thresholds { a: threshold(a), ab: threshold(ab), abc: threshold(ab + c) }
    }
}

/// The integer form of a boundary `x` in `[0, 1]`. The vendored `rand`
/// draws `r = k · 2⁻⁵³` from `k = bits >> 11`; scaling by a power of two
/// is exact, so `r >= x` holds exactly when `k >= ceil(x · 2⁵³)`.
fn threshold(x: f64) -> u64 {
    (x * (1u64 << 53) as f64).ceil() as u64
}

/// The RMAT quadrant `(u_bit, v_bit)` the draw `k` (53 random bits, the
/// float draw `k · 2⁻⁵³`) selects: A `(0, 0)` below `a`, B `(0, 1)`
/// below `ab`, C `(1, 0)` below `abc`, D `(1, 1)` above. Compares
/// instead of an `if` chain, which mispredicts on most of the `scale`
/// draws per edge, and on integers, so no draw is converted to a float.
#[inline]
fn quadrant(k: u64, t: &Thresholds) -> (usize, usize) {
    let u_bit = k >= t.ab;
    let v_bit = (k >= t.a) & (k < t.ab) | (k >= t.abc);
    (usize::from(u_bit), usize::from(v_bit))
}

/// Uniform-random (Erdős–Rényi-style) generator: GAPBS `-u`.
///
/// # Examples
///
/// ```
/// use tiersim_graph::UniformGenerator;
///
/// let el = UniformGenerator::new(8, 4).seed(7).generate();
/// assert_eq!(el.num_nodes, 256);
/// assert_eq!(el.len(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct UniformGenerator {
    scale: u32,
    degree: usize,
    seed: u64,
}

impl UniformGenerator {
    /// Creates a generator for `2^scale` vertices with average `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 31.
    pub fn new(scale: u32, degree: usize) -> Self {
        assert!((1..=31).contains(&scale), "scale must be in 1..=31");
        UniformGenerator { scale, degree, seed: 27491095 }
    }

    /// Sets the RNG seed (consuming builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of vertices, `2^scale`.
    pub fn num_nodes(&self) -> usize {
        1 << self.scale
    }

    /// Generates the edge list: [`UniformGenerator::edges`], collected.
    pub fn generate(&self) -> EdgeList {
        EdgeList::new(self.num_nodes(), self.edges().collect())
    }

    /// The edges [`UniformGenerator::generate`] lists, in the same order,
    /// drawn one at a time; each call restarts from the seed.
    ///
    /// Each endpoint is a draw reduced modulo `n`; because `n` is a power
    /// of two that is a mask, not a 64-bit division.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> {
        let n = self.num_nodes();
        let mask = n as u64 - 1;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.degree * n)
            .map(move |_| ((rng.next_u64() & mask) as NodeId, (rng.next_u64() & mask) as NodeId))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generators_are_deterministic() {
        let a = KroneckerGenerator::new(8, 8).seed(3).generate();
        let b = KroneckerGenerator::new(8, 8).seed(3).generate();
        assert_eq!(a, b);
        let c = KroneckerGenerator::new(8, 8).seed(4).generate();
        assert_ne!(a, c);
        let u1 = UniformGenerator::new(8, 8).seed(3).generate();
        let u2 = UniformGenerator::new(8, 8).seed(3).generate();
        assert_eq!(u1, u2);
    }

    #[test]
    fn kron_is_skewed_uniform_is_not() {
        // Degree concentration: top 1% of vertices should hold far more
        // edge endpoints in kron than in urand.
        let top_share = |el: &EdgeList| {
            let mut deg: HashMap<NodeId, u64> = HashMap::new();
            for &(u, v) in &el.edges {
                *deg.entry(u).or_insert(0) += 1;
                *deg.entry(v).or_insert(0) += 1;
            }
            let mut counts: Vec<u64> = deg.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let top = el.num_nodes / 100 + 1;
            let top_sum: u64 = counts.iter().take(top).sum();
            top_sum as f64 / (2 * el.len()) as f64
        };
        let kron = KroneckerGenerator::new(10, 16).seed(1).generate();
        let urand = UniformGenerator::new(10, 16).seed(1).generate();
        assert!(
            top_share(&kron) > 2.0 * top_share(&urand),
            "kron {:.3} should be much more skewed than urand {:.3}",
            top_share(&kron),
            top_share(&urand)
        );
    }

    #[test]
    fn endpoints_in_range() {
        for el in [KroneckerGenerator::new(6, 4).generate(), UniformGenerator::new(6, 4).generate()]
        {
            assert!(el.edges.iter().all(|&(u, v)| (u as usize) < 64 && (v as usize) < 64));
        }
    }

    /// The quadrant `if` chain [`quadrant`] replaced, kept as its oracle.
    fn quadrant_if_chain(r: f64, a: f64, b: f64, c: f64) -> (usize, usize) {
        if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// [`KroneckerGenerator::generate`] drawing quadrants through the
    /// `if` chain.
    fn kron_if_chain(g: &KroneckerGenerator) -> EdgeList {
        let n = 1usize << g.scale;
        let mut rng = SmallRng::seed_from_u64(g.seed);
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut edges = Vec::with_capacity(g.degree * n);
        for _ in 0..g.degree * n {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..g.scale {
                let (u_bit, v_bit) = quadrant_if_chain(rng.gen(), g.a, g.b, g.c);
                u = u << 1 | u_bit;
                v = v << 1 | v_bit;
            }
            edges.push((perm[u], perm[v]));
        }
        EdgeList::new(n, edges)
    }

    #[test]
    fn quadrant_matches_the_if_chain_at_every_boundary() {
        let g = KroneckerGenerator::new(4, 1);
        let t = Thresholds::new(g.a, g.b, g.c);
        // The draw `k` stands for the float `k · 2⁻⁵³` the `if` chain sees;
        // test both ends of the range and each side of every boundary.
        let unit = 1.0 / (1u64 << 53) as f64;
        let mut draws = vec![0, (1u64 << 53) - 1];
        for edge in [t.a, t.ab, t.abc] {
            draws.extend([edge - 1, edge, edge + 1]);
        }
        for k in draws {
            let r = k as f64 * unit;
            assert_eq!(quadrant(k, &t), quadrant_if_chain(r, g.a, g.b, g.c), "k = {k}, r = {r}");
        }
    }

    /// [`UniformGenerator::edges`] drawing each endpoint with
    /// `gen_range(0..n)`, the form the mask replaced, kept as its oracle.
    fn urand_gen_range(g: &UniformGenerator) -> Vec<(NodeId, NodeId)> {
        let n = g.num_nodes() as u64;
        let mut rng = SmallRng::seed_from_u64(g.seed);
        (0..g.degree * n as usize)
            .map(|_| (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId))
            .collect()
    }

    #[test]
    fn urand_mask_matches_gen_range() {
        for scale in 1..=14 {
            for seed in [0, 1, 7, 27491095, u64::MAX] {
                let g = UniformGenerator::new(scale, 2).seed(seed);
                assert!(g.edges().eq(urand_gen_range(&g)), "scale {scale}, seed {seed}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_kron_matches_the_if_chain(scale in 1u32..12, degree in 1usize..8, seed in 0u64..1000) {
            let g = KroneckerGenerator::new(scale, degree).seed(seed);
            proptest::prop_assert_eq!(g.generate(), kron_if_chain(&g));
        }

        #[test]
        fn prop_edge_counts_match_parameters(scale in 3u32..10, degree in 1usize..8, seed in 0u64..1000) {
            let el = UniformGenerator::new(scale, degree).seed(seed).generate();
            proptest::prop_assert_eq!(el.num_nodes, 1 << scale);
            proptest::prop_assert_eq!(el.len(), degree << scale);
        }
    }
}

/// 2D-grid ("road-like") generator: vertices form a `w × h` lattice with
/// edges to the right and down neighbors. Unlike kron/urand this graph has
/// strong spatial locality and a long diameter — the contrast dataset for
/// studying how much of the paper's findings stem from access
/// *irregularity* (the paper excludes the real `road` input only because
/// its footprint was too small for their machine).
///
/// # Examples
///
/// ```
/// use tiersim_graph::GridGenerator;
///
/// let el = GridGenerator::new(4).generate(); // 2^4 = 16 vertices, 4x4
/// assert_eq!(el.num_nodes, 16);
/// assert_eq!(el.len(), 2 * 4 * 3); // 2 · w · (w - 1) lattice edges
/// ```
#[derive(Debug, Clone)]
pub struct GridGenerator {
    scale: u32,
}

impl GridGenerator {
    /// Creates a generator for a lattice of `2^scale` vertices (`scale`
    /// must be even so the lattice is square).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is odd, zero, or greater than 30.
    pub fn new(scale: u32) -> Self {
        assert!((2..=30).contains(&scale), "scale must be in 2..=30");
        assert!(scale.is_multiple_of(2), "grid scale must be even (square lattice)");
        GridGenerator { scale }
    }

    /// Number of vertices, `2^scale`.
    pub fn num_nodes(&self) -> usize {
        1 << self.scale
    }

    /// Generates the lattice edge list: [`GridGenerator::edges`],
    /// collected.
    pub fn generate(&self) -> EdgeList {
        EdgeList::new(self.num_nodes(), self.edges().collect())
    }

    /// The lattice edges in row-major order, each vertex's right edge
    /// before its down edge (deterministic; no RNG involved).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> {
        let w = 1usize << (self.scale / 2);
        (0..w * w).flat_map(move |u| {
            let (x, y) = (u % w, u / w);
            let right = (x + 1 < w).then_some((u as NodeId, (u + 1) as NodeId));
            let down = (y + 1 < w).then_some((u as NodeId, (u + w) as NodeId));
            right.into_iter().chain(down)
        })
    }
}

#[cfg(test)]
mod grid_tests {
    use super::*;

    #[test]
    fn lattice_shape() {
        let el = GridGenerator::new(6).generate(); // 8x8
        assert_eq!(el.num_nodes, 64);
        assert_eq!(el.len(), 2 * 8 * 7);
        // Corner vertex 0 connects right (1) and down (8) only.
        let deg0 = el.edges.iter().filter(|&&(u, v)| u == 0 || v == 0).count();
        assert_eq!(deg0, 2);
    }

    #[test]
    fn grid_is_connected() {
        let el = GridGenerator::new(6).generate();
        let g = crate::csr::CsrGraph::from_edges(&el, true);
        let comp = crate::reference::cc_ref(&g);
        assert!(comp.iter().all(|&c| c == 0), "a lattice is one component");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_scale_rejected() {
        let _ = GridGenerator::new(7);
    }
}
