//! The compute-once store of simulations shared by the front ends.
//!
//! A simulation is a pure function of its machine and its workload, so
//! the store keys each run by that pair ([`RunKey`]) and simulates every
//! key at most once, whatever the outcome: a request for a finished key
//! reads its result, and one for a key another worker is simulating
//! waits for that run. Callers therefore need no deduplication or
//! staging of their own: they ask for what they need, in any order, on
//! any number of workers. The suite's experiments all start from the
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What identifies one simulation: the machine and the workload it runs.
pub type RunKey = (MachineConfig, WorkloadConfig);

/// One run as the store hands it out.
pub type SharedRun = Result<Arc<RunReport>, CoreError>;

/// Each claimed key with its result, `None` while its run is in flight.
type Slots = Vec<(RunKey, Option<SharedRun>)>;

/// Compute-once runs for one [`ExperimentConfig`].
///
/// Each key is simulated at most once per store: successes and failures
/// alike are kept, since a failure would only repeat with the same error.
/// The thread that claims a key simulates it outside the lock and never
/// calls back into the store, so a waiter always waits on a run that
/// makes progress. Every report is byte-identical for any number of
/// workers asking.
#[derive(Debug)]
pub struct Runs {
    cfg: ExperimentConfig,
    slots: Mutex<Slots>,
    finished: Condvar,
}

/// A key claimed by the thread simulating it. Dropping the claim wakes
/// the waiters; if the simulation unwound before filling its slot, it
/// also gives the key up, so a waiter claims it in turn.
struct Claim<'a> {
    runs: &'a Runs,
    key: RunKey,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut slots = self.runs.lock();
        if let Some(i) = slots.iter().position(|(k, run)| *k == self.key && run.is_none()) {
            slots.swap_remove(i);
        }
        self.runs.finished.notify_all();
    }
}

impl Runs {
    /// An empty store for `cfg`.
    pub fn new(cfg: &ExperimentConfig) -> Runs {
        Runs { cfg: *cfg, slots: Mutex::new(Vec::new()), finished: Condvar::new() }
    }

    /// The experiment configuration the store's callers derive keys from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The run of `key`: its stored result, else the result of the run
    /// in flight on another thread, else a fresh simulation on this one.
    ///
    /// # Errors
    ///
    /// The run's error, kept like a report.
    pub fn get(&self, key: RunKey) -> SharedRun {
        let mut slots = self.lock();
        while let Some((_, run)) = slots.iter().find(|(k, _)| *k == key) {
            match run {
                Some(run) => return run.clone(),
                None => slots = self.finished.wait(slots).unwrap_or_else(PoisonError::into_inner),
            }
        }
        slots.push((key.clone(), None));
        drop(slots);
        let claim = Claim { runs: self, key };
        let run = run_workload(claim.key.0.clone(), claim.key.1).map(Arc::new);
        if let Some((_, slot)) = self.lock().iter_mut().find(|(k, _)| *k == claim.key) {
            *slot = Some(run.clone());
        }
        run
    }

    /// The runs of `keys`, one result per entry, in order, asked for on
    /// the configuration's `jobs` workers.
    pub fn get_all(&self, keys: &[RunKey]) -> Vec<SharedRun> {
        let cells = keys.iter().map(|key| move || self.get(key.clone())).collect();
        crate::sweep::run_cells(self.cfg.jobs, cells)
    }

    /// Every update is one step (a push, a fill or a removal), so the
    /// slots are valid even after a panic while locked.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn a_failure_is_cached_like_a_success() {
        let mut cfg = tiny_config();
        cfg.tick_budget = 1;
        let runs = Runs::new(&cfg);
        let key = cfg.autonuma(cfg.workload(Kernel::Bc, Dataset::Urand));
        let (first, started) = counted(|| runs.get(key.clone()).unwrap_err());
        assert_eq!(started, 1);
        let (again, started) = counted(|| runs.get(key));
        assert_eq!(started, 0, "the failed key is not simulated again");
        assert_eq!(again.unwrap_err(), first, "it reads the same error");
    }

    #[test]
    fn a_claim_dropped_without_a_result_gives_the_key_up() {
        let cfg = tiny_config();
        let runs = Runs::new(&cfg);
        let key = cfg.autonuma(cfg.workload(Kernel::Bfs, Dataset::Kron));
        runs.lock().push((key.clone(), None));
        drop(Claim { runs: &runs, key: key.clone() });
        assert!(runs.lock().is_empty(), "an unwound run leaves no slot to wait on");
        let (run, started) = counted(|| runs.get(key));
        assert_eq!(started, 1, "the next request claims the key");
        assert!(run.is_ok());
    }
}
