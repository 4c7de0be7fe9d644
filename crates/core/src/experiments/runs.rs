//! The compute-once store of AutoNUMA runs shared by the experiments.
//!
//! Every experiment in the suite starts from the same simulation: a paper
//! workload on the testbed under AutoNUMA ([`ExperimentConfig::machine`]).
//! Characterization reads all six, object analysis and the AutoNUMA
//! trace read `bc_kron`, and the Figure 11 comparison profiles each
//! workload from exactly that run, as the paper's §7 method does. The
//! store runs each of them at most once per [`ExperimentConfig`] and
//! hands out shared reports.

use super::ExperimentConfig;
use crate::error::CoreError;
use crate::report::RunReport;
use crate::runner::run_workload;
use crate::workload::WorkloadConfig;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tiersim_policy::TieringMode;

/// One AutoNUMA run as the store hands it out.
pub type SharedRun = Result<Arc<RunReport>, CoreError>;

/// Compute-once AutoNUMA runs for one [`ExperimentConfig`].
///
/// Successes are cached; failures are not, so a deterministic failure
/// simply repeats, with the same error, for the next caller. Misses run
/// on the sweep executor ([`crate::sweep::run_cells`]) in request order,
/// so every report is byte-identical for any `jobs` value.
#[derive(Debug)]
pub struct AutonumaRuns {
    cfg: ExperimentConfig,
    done: Mutex<Vec<(WorkloadConfig, Arc<RunReport>)>>,
}

impl AutonumaRuns {
    /// An empty store for `cfg`'s testbed.
    pub fn new(cfg: &ExperimentConfig) -> AutonumaRuns {
        AutonumaRuns { cfg: *cfg, done: Mutex::new(Vec::new()) }
    }

    /// The experiment configuration every run in this store uses.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The AutoNUMA run of `workload`, simulated on a miss.
    ///
    /// # Errors
    ///
    /// The run's error (not cached).
    pub fn get(&self, workload: WorkloadConfig) -> SharedRun {
        let got = self.cell(workload)();
        self.keep(&[workload], std::slice::from_ref(&got));
        got
    }

    /// The AutoNUMA runs of `workloads`, one result per entry, in order.
    /// Misses run on `jobs` workers.
    pub fn get_all(&self, workloads: &[WorkloadConfig]) -> Vec<SharedRun> {
        let cells: Vec<_> = workloads.iter().map(|&w| self.cell(w)).collect();
        let got = crate::sweep::run_cells(self.cfg.jobs, cells);
        self.keep(workloads, &got);
        got
    }

    /// Every update is a single push of a finished entry, so the cache is
    /// valid even after a panic while locked.
    fn lock(&self) -> MutexGuard<'_, Vec<(WorkloadConfig, Arc<RunReport>)>> {
        self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A sweep cell yielding `w`'s run: the cached report, or a fresh
    /// simulation.
    fn cell(&self, w: WorkloadConfig) -> impl FnOnce() -> SharedRun + Send {
        let hit = self.lock().iter().find(|(d, _)| *d == w).map(|(_, r)| Arc::clone(r));
        let mc = self.cfg.machine(TieringMode::AutoNuma);
        move || match hit {
            Some(report) => Ok(report),
            None => run_workload(mc, w).map(Arc::new),
        }
    }

    /// Caches the successful runs among `got`.
    fn keep(&self, workloads: &[WorkloadConfig], got: &[SharedRun]) {
        let mut done = self.lock();
        for (w, run) in workloads.iter().zip(got) {
            if let Ok(report) = run {
                if !done.iter().any(|(d, _)| d == w) {
                    done.push((*w, Arc::clone(report)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;
    use crate::workload::{Dataset, Kernel};

    #[test]
    fn a_hit_shares_the_first_run() {
        let cfg = tiny_config();
        let runs = AutonumaRuns::new(&cfg);
        let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
        let first = runs.get(w).unwrap();
        let again = runs.get_all(&[w, w]);
        assert!(again.iter().all(|r| Arc::ptr_eq(r.as_ref().unwrap(), &first)));
    }

    #[test]
    fn failures_are_not_cached() {
        let mut cfg = tiny_config();
        cfg.tick_budget = 1;
        let runs = AutonumaRuns::new(&cfg);
        let w = cfg.workload(Kernel::Bc, Dataset::Urand);
        let first = runs.get(w).unwrap_err();
        assert!(runs.lock().is_empty());
        assert_eq!(runs.get(w).unwrap_err(), first, "a deterministic failure repeats");
    }
}
