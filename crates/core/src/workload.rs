//! Workload definitions: the paper's kernel × dataset grid.

use core::fmt;

/// Graph kernel to run (the paper's BC/BFS/CC plus PR/SSSP extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Betweenness centrality (Brandes).
    Bc,
    /// Breadth-first search (direction-optimizing).
    Bfs,
    /// Connected components (Shiloach–Vishkin, whose full-edge scans
    /// match the paper's observed CC behavior).
    Cc,
    /// Connected components (Afforest, the modern GAPBS default;
    /// extension).
    CcAff,
    /// PageRank (extension; not in the paper's workload set).
    Pr,
    /// Delta-stepping SSSP (extension).
    Sssp,
    /// Triangle counting over sorted adjacency lists (extension).
    Tc,
}

impl Kernel {
    /// The paper's three kernels.
    pub const PAPER: [Kernel; 3] = [Kernel::Bc, Kernel::Bfs, Kernel::Cc];

    /// Short name as used in the paper's workload labels.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Bc => "bc",
            Kernel::Bfs => "bfs",
            Kernel::Cc => "cc",
            Kernel::CcAff => "cc_aff",
            Kernel::Pr => "pr",
            Kernel::Sssp => "sssp",
            Kernel::Tc => "tc",
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input dataset (GAPBS synthetic generators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Kronecker/RMAT graph (GAPBS `-g`).
    Kron,
    /// Uniform random graph (GAPBS `-u`).
    Urand,
    /// 2D-lattice "road-like" graph (extension): strong spatial locality,
    /// the contrast to the paper's irregular inputs. The paper excluded
    /// the real `road` dataset only for its small footprint.
    Road,
}

impl Dataset {
    /// Both datasets the paper uses (`Road` is an extension, not part of
    /// the paper grid).
    pub const ALL: [Dataset; 2] = [Dataset::Kron, Dataset::Urand];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Kron => "kron",
            Dataset::Urand => "urand",
            Dataset::Road => "road",
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One workload: kernel, dataset, size and trial parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// The kernel.
    pub kernel: Kernel,
    /// The dataset generator.
    pub dataset: Dataset,
    /// Graph scale: `2^scale` vertices (paper: 30/31; scaled default 18).
    pub scale: u32,
    /// Average degree (GAPBS `-k`, default 16).
    pub degree: usize,
    /// Number of kernel trials (BFS/SSSP sources, BC/CC repetitions).
    pub trials: usize,
    /// RNG seed for generation and source picking.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Creates a workload with the scaled experiment defaults
    /// (scale 18, degree 16, 4 trials, `.sg` load).
    pub fn new(kernel: Kernel, dataset: Dataset) -> Self {
        WorkloadConfig { kernel, dataset, scale: 18, degree: 16, trials: 4, seed: 20220917 }
    }

    /// Sets the scale (consuming builder style).
    #[must_use]
    pub fn scale(mut self, scale: u32) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the trial count.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The paper's workload label, e.g. `"bc_kron"`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.kernel, self.dataset)
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated (directed) edges.
    pub fn num_edges(&self) -> usize {
        match self.dataset {
            // A w×w lattice has 2·w·(w−1) < 2n edges.
            Dataset::Road => 2 * self.num_nodes(),
            _ => self.degree << self.scale,
        }
    }

    /// Rough peak application footprint in bytes (build phase: edge list
    /// + CSR + builder temporaries).
    pub fn peak_app_bytes(&self) -> u64 {
        let n = self.num_nodes() as u64;
        let m = self.num_edges() as u64;
        // Build-phase peak: edge list (8m) + neighbors (2m × 4) + index,
        // degrees, cursor (8n each), plus kernel arrays (~40n).
        16 * m + 64 * n
    }

    /// Rough steady-state application footprint in bytes: the CSR plus the
    /// kernel's working arrays that stay live through the trials. The
    /// scaled machine sizes DRAM below *this* (see
    /// [`MachineConfig::scaled_default`]), reproducing the paper's setup
    /// where the live working set exceeds DRAM for the entire execution.
    ///
    /// [`MachineConfig::scaled_default`]: crate::MachineConfig::scaled_default
    pub fn steady_app_bytes(&self) -> u64 {
        let n = self.num_nodes() as u64;
        let m = self.num_edges() as u64;
        // Symmetrized neighbors (2m × 4) + index (8n) + kernel arrays
        // (BC's five arrays are the largest at ~36n; use 40n).
        8 * m + 48 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_labels() {
        let w = WorkloadConfig::new(Kernel::Bc, Dataset::Kron);
        assert_eq!(w.name(), "bc_kron");
        assert_eq!(WorkloadConfig::new(Kernel::Cc, Dataset::Urand).name(), "cc_urand");
    }

    #[test]
    fn footprint_grows_with_scale() {
        let small = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(10);
        let big = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(14);
        assert!(big.peak_app_bytes() > 8 * small.peak_app_bytes());
    }
}
