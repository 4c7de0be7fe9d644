//! Object-level analysis of one workload (paper §6.2–6.4: Figures 6–8).

use super::{ExperimentConfig, Runs};
use crate::error::CoreError;
use crate::render::{pct, TextTable};
use crate::report::RunReport;
use crate::workload::{Dataset, Kernel};
use std::sync::Arc;
use tiersim_mem::Tier;
use tiersim_profile::{top_objects, AccessPattern, AllocTimeline};

/// One bar of Figure 6 (top objects by samples on a tier).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Rank (0 = hottest).
    pub rank: usize,
    /// Object id (allocation order).
    pub object_id: u32,
    /// Call-site label.
    pub site: String,
    /// Samples on the tier.
    pub samples: u64,
    /// Share of the tier's samples.
    pub share: f64,
}

/// The object analysis bundle: one AutoNUMA run of a single workload
/// (`bc_kron` by default, as in the paper) and Figures 6–8 derived from
/// it.
#[derive(Debug)]
pub struct ObjectAnalysis {
    /// The underlying run.
    pub report: Arc<RunReport>,
    freq_hz: u64,
}

impl ObjectAnalysis {
    /// Runs `bc_kron` under AutoNUMA (the paper's illustrative workload).
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run(cfg: &ExperimentConfig) -> Result<ObjectAnalysis, CoreError> {
        Self::run_with(&Runs::new(cfg))
    }

    /// Takes `bc_kron`'s AutoNUMA run from `runs`.
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run_with(runs: &Runs) -> Result<ObjectAnalysis, CoreError> {
        Self::run_workload_with(runs, Kernel::Bc, Dataset::Kron)
    }

    /// Runs any kernel × dataset under AutoNUMA.
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run_workload(
        cfg: &ExperimentConfig,
        kernel: Kernel,
        dataset: Dataset,
    ) -> Result<ObjectAnalysis, CoreError> {
        Self::run_workload_with(&Runs::new(cfg), kernel, dataset)
    }

    /// Takes any kernel × dataset's AutoNUMA run from `runs`.
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run_workload_with(
        runs: &Runs,
        kernel: Kernel,
        dataset: Dataset,
    ) -> Result<ObjectAnalysis, CoreError> {
        let key = runs.config().autonuma(runs.config().workload(kernel, dataset));
        Ok(ObjectAnalysis { freq_hz: key.0.mem.freq_hz, report: runs.get(key)? })
    }

    /// Figure 6 rows: top `n` objects by samples on `tier`.
    pub fn fig6(&self, tier: Tier, n: usize) -> Vec<Fig6Row> {
        let mapped = self.report.mapped();
        top_objects(&mapped, tier, n)
            .into_iter()
            .enumerate()
            .map(|(rank, r)| Fig6Row {
                rank,
                object_id: r.id.0,
                site: r.site.to_string(),
                samples: r.samples,
                share: r.share,
            })
            .collect()
    }

    /// Figure 7: the allocation timeline, in seconds × bytes.
    pub fn fig7(&self) -> AllocTimeline {
        AllocTimeline::of(&self.report.tracker, self.freq_hz)
    }

    /// Allocation time (seconds) of the hottest NVM object — the paper's
    /// red dashed line in Figure 7.
    pub fn hottest_nvm_alloc_secs(&self) -> Option<f64> {
        let mapped = self.report.mapped();
        let obj = mapped.hottest_nvm_object()?;
        let rec = self.report.tracker.record(obj.id)?;
        Some(rec.alloc_time as f64 / self.freq_hz as f64)
    }

    /// Figure 8: the access pattern of the hottest NVM object (full run).
    pub fn fig8(&self) -> Option<AccessPattern> {
        let mapped = self.report.mapped();
        let obj = mapped.hottest_nvm_object()?;
        let rec = self.report.tracker.record(obj.id)?;
        Some(AccessPattern::of(&self.report.samples, rec, self.freq_hz))
    }

    /// Renders Figure 6 (both tiers) as text.
    pub fn render_fig6(&self, n: usize) -> String {
        let mut out = String::new();
        for tier in [Tier::Dram, Tier::Nvm] {
            out.push_str(&format!(
                "Top {n} objects by {tier} samples ({}):\n",
                self.report.workload.name()
            ));
            let mut t = TextTable::new(vec!["Rank", "Object", "Site", "Samples", "Share"]);
            for r in self.fig6(tier, n) {
                t.row(vec![
                    r.rank.to_string(),
                    r.object_id.to_string(),
                    r.site,
                    r.samples.to_string(),
                    pct(r.share),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;

    #[test]
    fn object_analysis_produces_figures() {
        let a = ObjectAnalysis::run(&tiny_config()).unwrap();
        // Figure 6: NVM samples concentrate in few objects (Finding 2).
        let nvm_rows = a.fig6(Tier::Nvm, 10);
        assert!(!nvm_rows.is_empty(), "some NVM samples expected under pressure");
        assert!(nvm_rows[0].share >= nvm_rows.last().unwrap().share);
        // Figure 7: allocations rise and fall.
        let tl = a.fig7();
        assert!(tl.peak_bytes() > 0);
        assert!(tl.points.len() >= 10);
        // The hottest NVM object exists and was allocated at a real time.
        assert!(a.hottest_nvm_alloc_secs().unwrap() >= 0.0);
        // Figure 8: pattern extraction works.
        let p = a.fig8().unwrap();
        assert!(!p.points.is_empty());
        // Render includes both tiers.
        let text = a.render_fig6(5);
        assert!(text.contains("DRAM samples"));
        assert!(text.contains("NVM samples"));
    }
}
