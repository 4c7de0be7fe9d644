//! Paper-reproduction experiments: one module per figure/table family.
//!
//! Each experiment runs scaled-down versions of the paper's six workloads
//! (BC/BFS/CC × kron/urand) and derives the corresponding table or figure
//! series. `tiersim-bench`'s `repro_all` prints each as a named section.
//!
//! Every experiment takes its simulations from a [`Runs`] store keyed by
//! machine and workload: `Foo::run(cfg)` uses a fresh one,
//! `Foo::run_with(&runs)` shares `runs` with the other experiments (and,
//! in `tiersim-bench`, with `ablate` and `dump`), so a suite simulates
//! each distinct (machine, workload) pair once, static runs and failed
//! runs included, even when workers ask for it at the same time.

mod autonuma_trace;
mod characterization;
mod comparison;
mod objects;
mod runs;

pub use autonuma_trace::{AutonumaTrace, Fig10Row, Fig9Row};
pub use characterization::{
    Characterization, Fig3Row, Fig4Row, Fig5Row, Table1Row, Table2Row, Table3Row,
};
pub use comparison::{Comparison, Fig11Row};
pub use objects::{Fig6Row, ObjectAnalysis};
pub use runs::{RunKey, Runs, SharedRun};

use crate::config::MachineConfig;
use crate::workload::{Dataset, Kernel, WorkloadConfig};
use tiersim_mem::TraceConfig;
use tiersim_policy::TieringMode;

/// Shared experiment parameters.
///
/// The defaults (scale 16, degree 16) keep a full six-workload
/// characterization run in the tens of seconds; the reproduction binaries
/// accept `--scale` to push toward the paper's regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Graph scale (`2^scale` vertices).
    pub scale: u32,
    /// Average degree.
    pub degree: usize,
    /// Trials per kernel.
    pub trials: usize,
    /// Sampling period.
    pub sample_period: u64,
    /// Worker threads for independent experiment cells (workload runs).
    /// Output bytes are identical for every value — see
    /// [`crate::sweep::run_cells`] and DESIGN.md §10.
    pub jobs: usize,
    /// Event-trace settings threaded into every machine this experiment
    /// builds (off by default; see DESIGN.md §11).
    pub trace: TraceConfig,
    /// Stuck-cell watchdog budget in OS engine ticks, threaded into every
    /// machine (`0` disables; see [`crate::MachineConfig::tick_budget`]).
    pub tick_budget: u64,
    /// Transparent huge pages: when `true` every machine this experiment
    /// builds runs with khugepaged-style 2 MiB collapse *and* a 16-page
    /// fault-around window (the kernel's `fault_around_bytes` default is
    /// 64 KiB), mirroring the paper's THP-enabled testbed. Off by default,
    /// matching the prior demand-paged-only behavior.
    pub thp: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 16,
            degree: 16,
            trials: 4,
            sample_period: 9973,
            jobs: crate::sweep::default_jobs(),
            trace: TraceConfig::off(),
            tick_budget: 0,
            thp: false,
        }
    }
}

impl ExperimentConfig {
    /// The paper's six workloads at this configuration. As in the paper,
    /// the urand dataset is one scale larger than kron (`-u31` vs
    /// `-g30`), giving it the larger footprint.
    pub fn workloads(&self) -> Vec<WorkloadConfig> {
        let mut v = Vec::new();
        for kernel in Kernel::PAPER {
            for dataset in Dataset::ALL {
                v.push(self.workload(kernel, dataset));
            }
        }
        v
    }

    /// One specific workload at this configuration (urand runs one scale
    /// larger than kron, as in the paper).
    pub fn workload(&self, kernel: Kernel, dataset: Dataset) -> WorkloadConfig {
        let scale = match dataset {
            Dataset::Kron | Dataset::Road => self.scale,
            Dataset::Urand => self.scale + 1,
        };
        // GAPBS runs many more BFS trials than BC sources (64 vs 16 by
        // default); keep that 4:1 ratio so sample volumes are comparable.
        let trials = match kernel {
            Kernel::Bfs => self.trials * 4,
            _ => self.trials,
        };
        let mut w = WorkloadConfig::new(kernel, dataset).scale(scale).trials(trials);
        w.degree = self.degree;
        w
    }

    /// The fixed testbed for this experiment under `mode`: one machine for
    /// all workloads (the paper uses a single 192 GB + 768 GB socket),
    /// sized against the kron workloads' steady footprint.
    pub fn machine(&self, mode: TieringMode) -> MachineConfig {
        let reference = self.workload(Kernel::Bc, Dataset::Kron);
        let mut cfg = MachineConfig::scaled_default(reference.steady_app_bytes(), mode);
        cfg.sample_period = self.sample_period;
        cfg.mem.trace = self.trace;
        cfg.tick_budget = self.tick_budget;
        if self.thp {
            cfg.os.thp_enabled = true;
            // The kernel's fault_around_bytes default: 64 KiB = 16 pages.
            cfg.os.fault_around_pages = 16;
        }
        cfg
    }

    /// A stable fingerprint of every parameter that shapes output bytes —
    /// the journal (`crate::journal`) stores it so `--resume` refuses a
    /// journal written under different experiment inputs. `jobs` is
    /// deliberately excluded: the determinism contract (DESIGN.md §10)
    /// guarantees identical bytes for every worker count, so resuming
    /// with a different `--jobs` is sound.
    pub fn fingerprint(&self) -> String {
        format!(
            "scale={};degree={};trials={};sample_period={};trace={};tick_budget={};thp={}",
            self.scale,
            self.degree,
            self.trials,
            self.sample_period,
            u8::from(self.trace.enabled),
            self.tick_budget,
            u8::from(self.thp),
        )
    }

    /// The store key of `workload` on the AutoNUMA testbed: the run every
    /// experiment starts from.
    pub fn autonuma(&self, workload: WorkloadConfig) -> RunKey {
        (self.machine(TieringMode::AutoNuma), workload)
    }
}

#[cfg(test)]
pub(crate) fn tiny_config() -> ExperimentConfig {
    // Scale 12 keeps tests fast while still putting the footprint well
    // above the scaled DRAM capacity (the paper's premise).
    ExperimentConfig {
        scale: 12,
        degree: 8,
        trials: 1,
        sample_period: 97,
        jobs: 1,
        trace: TraceConfig::off(),
        tick_budget: 0,
        thp: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_grid_is_configured() {
        let cfg = ExperimentConfig {
            scale: 12,
            degree: 8,
            trials: 3,
            sample_period: 101,
            jobs: 1,
            trace: TraceConfig::off(),
            tick_budget: 0,
            thp: false,
        };
        let ws = cfg.workloads();
        assert_eq!(ws.len(), 6);
        assert!(ws.iter().all(|w| w.degree == 8));
        // BFS runs 4x the trials (GAPBS's 64-vs-16 default ratio).
        assert!(ws.iter().all(|w| w.trials == if w.kernel == Kernel::Bfs { 12 } else { 3 }));
        assert!(ws.iter().filter(|w| w.dataset == Dataset::Kron).all(|w| w.scale == 12));
        assert!(ws.iter().filter(|w| w.dataset == Dataset::Urand).all(|w| w.scale == 13));
    }

    #[test]
    fn machine_inherits_sample_period() {
        let m = tiny_config().machine(TieringMode::AutoNuma);
        assert_eq!(m.sample_period, 97);
    }

    #[test]
    fn fingerprint_tracks_output_shaping_inputs_but_not_jobs() {
        let base = tiny_config();
        let mut other_jobs = base;
        other_jobs.jobs = 8;
        // Resuming with a different worker count is explicitly supported.
        assert_eq!(base.fingerprint(), other_jobs.fingerprint());
        let mut other_scale = base;
        other_scale.scale += 1;
        assert_ne!(base.fingerprint(), other_scale.fingerprint());
        let mut traced = base;
        traced.trace = TraceConfig::on();
        assert_ne!(base.fingerprint(), traced.fingerprint());
        let mut budgeted = base;
        budgeted.tick_budget = 500;
        assert_ne!(base.fingerprint(), budgeted.fingerprint());
        let mut huge = base;
        huge.thp = true;
        assert_ne!(base.fingerprint(), huge.fingerprint());
    }

    #[test]
    fn thp_knob_reaches_the_machine() {
        let mut cfg = tiny_config();
        let off = cfg.machine(TieringMode::AutoNuma);
        assert!(!off.os.thp_enabled);
        assert_eq!(off.os.fault_around_pages, 1);
        cfg.thp = true;
        let on = cfg.machine(TieringMode::AutoNuma);
        assert!(on.os.thp_enabled);
        assert_eq!(on.os.fault_around_pages, 16);
        on.validate().unwrap();
    }
}
