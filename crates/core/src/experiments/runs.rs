//! The compute-once store of simulations shared by the front ends.
//!
//! A simulation is a pure function of its machine and its workload, so
//! the store keys each run by that pair ([`RunKey`]) and runs every
//! distinct key at most once. The suite's experiments all start from the
//! paper workloads on the AutoNUMA testbed
//! ([`ExperimentConfig::autonuma`]): characterization reads all six,
//! object analysis and the AutoNUMA trace read `bc_kron`, and the
//! Figure 11 comparison profiles each workload from exactly that run, as
//! the paper's §7 method does. Its static halves are keys too: a static
//! plan compares by value, so when a CC workload's whole-object and spill
//! plans coincide, both rows read one run. `repro_all ablate` and `dump`
//! draw from the same store, so a knob setting equal to the testbed reads
//! the default run without a rule of its own.

use super::ExperimentConfig;
use crate::config::MachineConfig;
use crate::error::CoreError;
use crate::report::RunReport;
use crate::runner::run_workload;
use crate::workload::WorkloadConfig;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What identifies one simulation: the machine and the workload it runs.
pub type RunKey = (MachineConfig, WorkloadConfig);

/// One run as the store hands it out.
pub type SharedRun = Result<Arc<RunReport>, CoreError>;

/// Compute-once runs for one [`ExperimentConfig`].
///
/// Successes are cached; failures are not, so a deterministic failure
/// simply repeats, with the same error, for the next caller. Misses run
/// on the sweep executor ([`crate::sweep::run_cells`]) on the
/// configuration's `jobs` workers, so every report is byte-identical for
/// any `jobs` value.
#[derive(Debug)]
pub struct Runs {
    cfg: ExperimentConfig,
    done: Mutex<Vec<(RunKey, Arc<RunReport>)>>,
}

impl Runs {
    /// An empty store for `cfg`.
    pub fn new(cfg: &ExperimentConfig) -> Runs {
        Runs { cfg: *cfg, done: Mutex::new(Vec::new()) }
    }

    /// The experiment configuration the store's callers derive keys from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The run of `key`, simulated on a miss.
    ///
    /// # Errors
    ///
    /// The run's error (not cached).
    pub fn get(&self, key: RunKey) -> SharedRun {
        if let Some(hit) = self.hit(&key) {
            return Ok(hit);
        }
        let report = Arc::new(run_workload(key.0.clone(), key.1)?);
        self.lock().push((key, Arc::clone(&report)));
        Ok(report)
    }

    /// The runs of `keys`, one result per entry, in order. Each distinct
    /// missing key is simulated once, even if `keys` names it twice; the
    /// misses run on `jobs` workers.
    pub fn get_all(&self, keys: &[RunKey]) -> Vec<SharedRun> {
        let mut misses: Vec<&RunKey> = Vec::new();
        for key in keys {
            if self.hit(key).is_none() && !misses.contains(&key) {
                misses.push(key);
            }
        }
        let cells: Vec<_> = misses.iter().map(|&key| move || self.get(key.clone())).collect();
        let fresh: Vec<_> =
            misses.into_iter().zip(crate::sweep::run_cells(self.cfg.jobs, cells)).collect();
        keys.iter()
            .map(|key| match fresh.iter().find(|(miss, _)| *miss == key) {
                Some((_, run)) => run.clone(),
                None => self.get(key.clone()),
            })
            .collect()
    }

    /// The cached report of `key`, if any.
    fn hit(&self, key: &RunKey) -> Option<Arc<RunReport>> {
        self.lock().iter().find(|(d, _)| d == key).map(|(_, r)| Arc::clone(r))
    }

    /// Every update is a single push of a finished entry, so the cache is
    /// valid even after a panic while locked.
    fn lock(&self) -> MutexGuard<'_, Vec<(RunKey, Arc<RunReport>)>> {
        self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;
    use crate::runner::{plan_from_report, THREAD_RUNS_STARTED};
    use crate::workload::{Dataset, Kernel};
    use tiersim_policy::{StaticPlan, TieringMode};

    /// Simulations `f` starts on this thread, with its result. The
    /// tests' configuration has `jobs = 1`, so the store simulates on the
    /// calling thread, and tests running beside this one do not count.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = THREAD_RUNS_STARTED.with(|c| c.get());
        let value = f();
        (value, THREAD_RUNS_STARTED.with(|c| c.get()) - before)
    }

    #[test]
    fn a_batch_naming_one_key_twice_simulates_it_once() {
        let cfg = tiny_config();
        let runs = Runs::new(&cfg);
        let key = cfg.autonuma(cfg.workload(Kernel::Bfs, Dataset::Kron));
        let (got, started) = counted(|| runs.get_all(&[key.clone(), key.clone()]));
        assert_eq!(started, 1);
        let [first, second] = [&got[0], &got[1]].map(|r| r.as_ref().unwrap());
        assert!(Arc::ptr_eq(first, second));
        let (again, started) = counted(|| runs.get(key));
        assert_eq!(started, 0, "a later request hits");
        assert!(Arc::ptr_eq(&again.unwrap(), first));
    }

    #[test]
    fn a_static_plan_rebuilt_from_the_same_report_hits() {
        let cfg = tiny_config();
        let runs = Runs::new(&cfg);
        let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
        let auto = runs.get(cfg.autonuma(w)).unwrap();
        let with_plan = |plan: StaticPlan| {
            let mut machine = cfg.machine(TieringMode::AutoNuma);
            machine.mode = TieringMode::StaticObject(plan);
            (machine, w)
        };
        let base = cfg.machine(TieringMode::AutoNuma);
        let (first, started) =
            counted(|| runs.get(with_plan(plan_from_report(&auto, &base, false))));
        assert_eq!(started, 1);
        let (rebuilt, started) =
            counted(|| runs.get(with_plan(plan_from_report(&auto, &base, false))));
        assert_eq!(started, 0, "an equal plan is the same key");
        assert!(Arc::ptr_eq(&first.unwrap(), &rebuilt.unwrap()));
        let mut other = plan_from_report(&auto, &base, false);
        other.dram_budget += 1;
        let (_, started) = counted(|| runs.get(with_plan(other)));
        assert_eq!(started, 1, "a different plan misses");
    }

    #[test]
    fn failures_are_not_cached() {
        let mut cfg = tiny_config();
        cfg.tick_budget = 1;
        let runs = Runs::new(&cfg);
        let key = cfg.autonuma(cfg.workload(Kernel::Bc, Dataset::Urand));
        let first = runs.get(key.clone()).unwrap_err();
        assert!(runs.lock().is_empty());
        let (again, started) = counted(|| runs.get_all(&[key.clone(), key]));
        assert_eq!(started, 1, "the failed key runs again, once per batch");
        assert!(again.iter().all(|r| r.as_ref().unwrap_err() == &first), "it fails the same way");
        assert!(runs.lock().is_empty());
    }
}
