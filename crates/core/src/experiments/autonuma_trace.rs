//! AutoNUMA behavior over time (paper §6.5–6.7: Figures 9 and 10).

use super::{ExperimentConfig, Runs};
use crate::error::CoreError;
use crate::render::TextTable;
use crate::report::RunReport;
use crate::timeline::TimelineOps;
use crate::workload::{Dataset, Kernel};
use std::sync::Arc;
use tiersim_mem::{MemLevel, Tier};
use tiersim_profile::binned_counts;

/// One sampled second of Figure 9: memory usage, migration activity and
/// CPU utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// Time in seconds.
    pub time_secs: f64,
    /// Application bytes resident on DRAM.
    pub dram_app_bytes: u64,
    /// Page-cache bytes resident on DRAM.
    pub dram_cache_bytes: u64,
    /// Application bytes resident on NVM.
    pub nvm_app_bytes: u64,
    /// Page-cache bytes resident on NVM.
    pub nvm_cache_bytes: u64,
    /// Pages demoted in this window.
    pub demotions: u64,
    /// Pages promoted in this window.
    pub promotions: u64,
    /// CPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// Dynamic hot threshold at the snapshot, in cycles.
    pub threshold_cycles: u64,
    /// Bytes left in the promotion rate limiter's bucket at the snapshot.
    pub rate_tokens_bytes: u64,
}

/// One bin of Figure 10: DRAM load samples vs pages promoted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// Bin start in seconds.
    pub time_secs: f64,
    /// DRAM load samples in the bin.
    pub dram_loads: u64,
    /// Pages promoted in the bin.
    pub promotions: u64,
}

/// The AutoNUMA trace bundle: one run of `bc_kron` (the paper's example)
/// with its timeline-derived figures.
#[derive(Debug)]
pub struct AutonumaTrace {
    /// The underlying run.
    pub report: Arc<RunReport>,
    freq_hz: u64,
}

impl AutonumaTrace {
    /// Runs `bc_kron` under AutoNUMA.
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run(cfg: &ExperimentConfig) -> Result<AutonumaTrace, CoreError> {
        Self::run_with(&Runs::new(cfg))
    }

    /// Takes `bc_kron`'s AutoNUMA run from `runs`.
    ///
    /// # Errors
    ///
    /// Propagates run errors.
    pub fn run_with(runs: &Runs) -> Result<AutonumaTrace, CoreError> {
        let key = runs.config().autonuma(runs.config().workload(Kernel::Bc, Dataset::Kron));
        Ok(AutonumaTrace { freq_hz: key.0.mem.freq_hz, report: runs.get(key)? })
    }

    /// Figure 9 rows, one per timeline snapshot.
    pub fn fig9(&self) -> Vec<Fig9Row> {
        let demote = self.report.timeline.counter_deltas(|c| c.pgdemote_kswapd + c.pgdemote_direct);
        let promote = self.report.timeline.counter_deltas(|c| c.pgpromote_success);
        self.report
            .timeline
            .iter()
            .zip(demote)
            .zip(promote)
            .map(|((s, (_, d)), (_, p))| Fig9Row {
                time_secs: s.time_secs,
                dram_app_bytes: s.numastat.anon_pages[Tier::Dram.index()] * tiersim_mem::PAGE_SIZE,
                dram_cache_bytes: s.numastat.file_pages[Tier::Dram.index()]
                    * tiersim_mem::PAGE_SIZE,
                nvm_app_bytes: s.numastat.anon_pages[Tier::Nvm.index()] * tiersim_mem::PAGE_SIZE,
                nvm_cache_bytes: s.numastat.file_pages[Tier::Nvm.index()] * tiersim_mem::PAGE_SIZE,
                demotions: d,
                promotions: p,
                cpu_util: s.cpu_util,
                threshold_cycles: s.threshold_cycles,
                rate_tokens_bytes: s.rate_tokens_bytes,
            })
            .collect()
    }

    /// Figure 10 rows: DRAM load samples per window joined with
    /// promotions per window.
    pub fn fig10(&self) -> Vec<Fig10Row> {
        let snaps = &self.report.timeline;
        if snaps.is_empty() {
            return Vec::new();
        }
        let bin = (snaps[0].time_secs).max(1e-9);
        let loads = binned_counts(&self.report.samples, bin, self.freq_hz, |s| {
            !s.is_store && s.level == MemLevel::Dram
        });
        let promos = snaps.counter_deltas(|c| c.pgpromote_success);
        loads
            .into_iter()
            .enumerate()
            .map(|(i, (t, dram_loads))| Fig10Row {
                time_secs: t,
                dram_loads,
                promotions: promos.get(i).map_or(0, |&(_, p)| p),
            })
            .collect()
    }

    /// Renders Figure 9 as a text table.
    pub fn render_fig9(&self) -> String {
        let mut t = TextTable::new(vec![
            "t(s)",
            "DRAM app",
            "DRAM cache",
            "NVM app",
            "NVM cache",
            "demote",
            "promote",
            "CPU%",
            "thresh(cyc)",
            "rate(KB)",
        ]);
        let mb = |b: u64| format!("{:.1}MB", b as f64 / (1 << 20) as f64);
        for r in self.fig9() {
            t.row(vec![
                format!("{:.4}", r.time_secs),
                mb(r.dram_app_bytes),
                mb(r.dram_cache_bytes),
                mb(r.nvm_app_bytes),
                mb(r.nvm_cache_bytes),
                r.demotions.to_string(),
                r.promotions.to_string(),
                format!("{:.0}%", r.cpu_util * 100.0),
                r.threshold_cycles.to_string(),
                (r.rate_tokens_bytes >> 10).to_string(),
            ]);
        }
        t.render()
    }

    /// Renders Figure 10 as a text table.
    pub fn render_fig10(&self) -> String {
        let mut t = TextTable::new(vec!["t(s)", "DRAM load samples", "pages promoted"]);
        for r in self.fig10() {
            t.row(vec![
                format!("{:.4}", r.time_secs),
                r.dram_loads.to_string(),
                r.promotions.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;

    #[test]
    fn trace_produces_time_series() {
        let tr = AutonumaTrace::run(&tiny_config()).unwrap();
        let f9 = tr.fig9();
        assert!(f9.len() >= 3, "expected several snapshots, got {}", f9.len());
        // Memory usage is nonzero once the run is underway.
        assert!(f9.iter().any(|r| r.dram_app_bytes > 0));
        // CPU utilization is a valid fraction everywhere.
        assert!(f9.iter().all(|r| (0.0..=1.0).contains(&r.cpu_util)));
        let f10 = tr.fig10();
        assert!(!f10.is_empty());
        assert!(f10.iter().any(|r| r.dram_loads > 0));
        assert!(tr.render_fig9().lines().count() >= 5);
        assert!(tr.render_fig10().lines().count() >= 3);
    }
}
