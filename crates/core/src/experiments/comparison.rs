//! Object-level static mapping vs AutoNUMA (paper §7: Figure 11).

use super::{ExperimentConfig, Runs};
use crate::error::CoreError;
use crate::render::{pct, secs, TextTable};
use crate::report::RunReport;
use crate::runner::plan_from_report;
use crate::workload::{Kernel, WorkloadConfig};
use tiersim_policy::TieringMode;

/// One bar of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Workload label; spill-variant rows carry the paper's `*` suffix.
    pub workload: String,
    /// Application execution time (load + build + trials) under AutoNUMA,
    /// seconds — the quantity the paper's Figure 11 compares.
    pub autonuma_secs: f64,
    /// Application execution time under the static object mapping.
    pub static_secs: f64,
    /// Kernel-trials-only time under AutoNUMA, seconds.
    pub autonuma_trial_secs: f64,
    /// Kernel-trials-only time under the static mapping, seconds.
    pub static_trial_secs: f64,
    /// NVM load samples under AutoNUMA.
    pub autonuma_nvm_samples: u64,
    /// NVM load samples under the static mapping.
    pub static_nvm_samples: u64,
    /// Whether the spill variant was used.
    pub spill: bool,
}

impl Fig11Row {
    /// The bar of `workload` from its AutoNUMA run `auto` and its static
    /// run `stat` under the plan profiled from `auto`.
    fn new(workload: WorkloadConfig, spill: bool, auto: &RunReport, stat: &RunReport) -> Fig11Row {
        Fig11Row {
            workload: if spill { format!("{}*", workload.name()) } else { workload.name() },
            autonuma_secs: auto.total_secs,
            static_secs: stat.total_secs,
            autonuma_trial_secs: auto.exec_secs(),
            static_trial_secs: stat.exec_secs(),
            autonuma_nvm_samples: auto.nvm_samples(),
            static_nvm_samples: stat.nvm_samples(),
            spill,
        }
    }

    /// Execution-time improvement over AutoNUMA (positive = static
    /// mapping is faster), as a fraction.
    pub fn improvement(&self) -> f64 {
        if self.autonuma_secs == 0.0 {
            return 0.0;
        }
        1.0 - self.static_secs / self.autonuma_secs
    }

    /// Reduction in NVM samples vs AutoNUMA, as a fraction.
    pub fn nvm_reduction(&self) -> f64 {
        if self.autonuma_nvm_samples == 0 {
            return 0.0;
        }
        1.0 - self.static_nvm_samples as f64 / self.autonuma_nvm_samples as f64
    }
}

/// The Figure 11 comparison: each paper workload run under AutoNUMA and
/// under the profile-derived static object mapping, plus spill-variant
/// rows for the CC workloads (the paper's `cc_kron*`/`cc_urand*`).
#[derive(Debug)]
pub struct Comparison {
    /// One row per bar of the figure.
    pub rows: Vec<Fig11Row>,
}

impl Comparison {
    /// Runs the full comparison.
    ///
    /// # Errors
    ///
    /// Propagates the first run error.
    pub fn run(cfg: &ExperimentConfig) -> Result<Comparison, CoreError> {
        Self::run_with(&Runs::new(cfg))
    }

    /// Runs the comparison on the runs in `runs`: each workload's AutoNUMA
    /// run is both its Figure 11 baseline and the profile its static plans
    /// (whole-object and, for CC, spill) are built from. The static halves
    /// are store keys as well, so a spill plan equal to its whole-object
    /// plan reads the same run. The rows run as one batch on the
    /// configuration's `jobs` workers, each its AutoNUMA run, then its
    /// static run.
    ///
    /// # Errors
    ///
    /// The first failing row's error in row order: its AutoNUMA run's,
    /// else its static run's.
    pub fn run_with(runs: &Runs) -> Result<Comparison, CoreError> {
        let cfg = runs.config();
        let base = &cfg.machine(TieringMode::AutoNuma);
        let bars = cfg.workloads().into_iter().flat_map(|w| {
            let spills: &[bool] = if w.kernel == Kernel::Cc { &[false, true] } else { &[false] };
            spills.iter().map(move |&spill| (w, spill))
        });
        let rows = bars
            .map(|(w, spill)| {
                move || -> Result<Fig11Row, CoreError> {
                    let auto = runs.get(cfg.autonuma(w))?;
                    let mut machine = base.clone();
                    machine.mode = TieringMode::StaticObject(plan_from_report(&auto, base, spill));
                    Ok(Fig11Row::new(w, spill, &auto, &*runs.get((machine, w))?))
                }
            })
            .collect();
        let rows = crate::sweep::run_cells(cfg.jobs, rows).into_iter().collect::<Result<_, _>>()?;
        Ok(Comparison { rows })
    }

    /// Mean improvement across non-spill rows (the paper reports 21%
    /// average).
    pub fn mean_improvement(&self) -> f64 {
        let base: Vec<f64> =
            self.rows.iter().filter(|r| !r.spill).map(Fig11Row::improvement).collect();
        if base.is_empty() {
            0.0
        } else {
            base.iter().sum::<f64>() / base.len() as f64
        }
    }

    /// Best improvement across all rows (the paper reports up to 51%).
    pub fn max_improvement(&self) -> f64 {
        self.rows.iter().map(Fig11Row::improvement).fold(f64::MIN, f64::max)
    }

    /// Convenience accessor: the row for `name` (e.g. `"cc_kron*"`).
    pub fn row(&self, name: &str) -> Option<&Fig11Row> {
        self.rows.iter().find(|r| r.workload == name)
    }

    /// Renders the comparison as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Workload",
            "AutoNUMA",
            "Object-level",
            "Improvement",
            "NVM sample reduction",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                secs(r.autonuma_secs),
                secs(r.static_secs),
                pct(r.improvement()),
                pct(r.nvm_reduction()),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "avg improvement (whole-object rows): {}; max improvement: {}\n",
            pct(self.mean_improvement()),
            pct(self.max_improvement()),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;
    use crate::runner::run_workload;
    use crate::workload::Dataset;

    #[test]
    fn a_rows_static_half_runs_the_plan_profiled_from_its_autonuma_half() {
        let cfg = tiny_config();
        let runs = Runs::new(&cfg);
        let cmp = Comparison::run_with(&runs).unwrap();
        let names: Vec<_> = cmp.rows.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(
            names,
            [
                "bc_kron",
                "bc_urand",
                "bfs_kron",
                "bfs_urand",
                "cc_kron",
                "cc_kron*",
                "cc_urand",
                "cc_urand*"
            ]
        );
        assert!(cmp.rows.iter().all(|r| r.spill == r.workload.ends_with('*')));

        let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
        let auto = runs.get(cfg.autonuma(w)).unwrap();
        assert_eq!(auto.mode_name, "autonuma");
        let base = cfg.machine(TieringMode::AutoNuma);
        let mut static_cfg = base.clone();
        static_cfg.mode = TieringMode::StaticObject(plan_from_report(&auto, &base, false));
        let stat = run_workload(static_cfg, w).unwrap();
        assert_eq!(stat.mode_name, "static_object");
        assert!(stat.counters.no_migrations(), "static mapping never migrates");
        let row = cmp.row("bfs_kron").unwrap();
        assert_eq!(*row, Fig11Row::new(w, false, &auto, &stat));
        assert!(row.autonuma_secs > 0.0 && row.static_secs > 0.0);
    }

    #[test]
    fn improvement_math() {
        let r = Fig11Row {
            workload: "x".into(),
            autonuma_secs: 2.0,
            static_secs: 1.0,
            autonuma_trial_secs: 1.0,
            static_trial_secs: 0.6,
            autonuma_nvm_samples: 100,
            static_nvm_samples: 25,
            spill: false,
        };
        assert!((r.improvement() - 0.5).abs() < 1e-12);
        assert!((r.nvm_reduction() - 0.75).abs() < 1e-12);
    }
}
