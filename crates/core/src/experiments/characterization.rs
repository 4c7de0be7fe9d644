//! The six-workload characterization bundle: Figure 3, Figure 4,
//! Figure 5, and Tables 1–3.

use super::{ExperimentConfig, Runs};
use crate::error::CoreError;
use crate::render::{pct, TextTable};
use crate::report::RunReport;
use std::sync::Arc;
use tiersim_mem::Tier;
use tiersim_policy::TieringMode;
use tiersim_profile::{two_touch_reuse, LevelDistribution, Summary, TouchHistogram};

/// One bar group of Figure 3: where samples were satisfied.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Workload label (e.g. `bc_kron`).
    pub workload: String,
    /// Fraction of load samples satisfied in caches.
    pub cache_frac: f64,
    /// Fraction satisfied by DRAM.
    pub dram_frac: f64,
    /// Fraction satisfied by NVM.
    pub nvm_frac: f64,
}

/// One bar group of Figure 4: touch-count distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Workload label.
    pub workload: String,
    /// Fraction of external accesses on pages touched exactly once.
    pub one_touch: f64,
    /// Fraction on pages touched exactly twice.
    pub two_touch: f64,
    /// Fraction on pages touched three or more times.
    pub three_plus: f64,
}

/// One group of Figure 5: reuse-interval statistics of 2-touch pages of
/// the hottest NVM object, plus the §5.2 promoted fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload label.
    pub workload: String,
    /// Object label of the hottest NVM object.
    pub hottest_object: String,
    /// Number of 2-touch pages analyzed.
    pub pages: usize,
    /// Interval statistics in seconds (None if fewer than one page).
    pub intervals: Option<Summary>,
    /// Fraction of 2-touch pages observed NVM-then-DRAM (promoted).
    pub promoted_fraction: f64,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Workload label.
    pub workload: String,
    /// Fraction of samples outside caches.
    pub outside_cache: f64,
    /// Share of external samples on DRAM.
    pub dram_share: f64,
    /// Share of external samples on NVM.
    pub nvm_share: f64,
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Workload label.
    pub workload: String,
    /// Share of external latency cost from DRAM samples.
    pub dram_cost_share: f64,
    /// Share of external latency cost from NVM samples.
    pub nvm_cost_share: f64,
}

/// One row of Table 3 (average cycles per bucket; `None` = no samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Workload label.
    pub workload: String,
    /// DRAM, TLB hit.
    pub dram_tlb_hit: Option<f64>,
    /// DRAM, TLB miss.
    pub dram_tlb_miss: Option<f64>,
    /// NVM, TLB hit.
    pub nvm_tlb_hit: Option<f64>,
    /// NVM, TLB miss.
    pub nvm_tlb_miss: Option<f64>,
}

/// The characterization bundle: six AutoNUMA runs and every table/figure
/// derived from them.
#[derive(Debug)]
pub struct Characterization {
    /// One report per paper workload, in grid order.
    pub reports: Vec<Arc<RunReport>>,
    freq_hz: u64,
}

impl Characterization {
    /// Runs the six paper workloads under AutoNUMA.
    ///
    /// # Errors
    ///
    /// Propagates the first run error.
    pub fn run(cfg: &ExperimentConfig) -> Result<Characterization, CoreError> {
        Self::run_with(&Runs::new(cfg))
    }

    /// Takes the six paper workloads' AutoNUMA runs from `runs`.
    ///
    /// # Errors
    ///
    /// Propagates the first run error in grid order.
    pub fn run_with(runs: &Runs) -> Result<Characterization, CoreError> {
        let cfg = runs.config();
        let freq_hz = cfg.machine(TieringMode::AutoNuma).mem.freq_hz;
        let keys: Vec<_> = cfg.workloads().into_iter().map(|w| cfg.autonuma(w)).collect();
        let reports = runs.get_all(&keys).into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Characterization { reports, freq_hz })
    }

    /// Figure 3 rows.
    pub fn fig3(&self) -> Vec<Fig3Row> {
        self.reports
            .iter()
            .map(|r| {
                let d = LevelDistribution::of(&r.samples);
                Fig3Row {
                    workload: r.workload.name(),
                    cache_frac: 1.0 - d.external_fraction(),
                    dram_frac: d.fraction(tiersim_mem::MemLevel::Dram),
                    nvm_frac: d.fraction(tiersim_mem::MemLevel::Nvm),
                }
            })
            .collect()
    }

    /// Figure 4 rows (fractions of external accesses by page touch count).
    pub fn fig4(&self) -> Vec<Fig4Row> {
        self.reports
            .iter()
            .map(|r| {
                let h = TouchHistogram::of(&r.samples);
                let (one, two, three) = h.access_fractions();
                Fig4Row {
                    workload: r.workload.name(),
                    one_touch: one,
                    two_touch: two,
                    three_plus: three,
                }
            })
            .collect()
    }

    /// Figure 5 rows (2-touch reuse intervals on each workload's hottest
    /// NVM object).
    pub fn fig5(&self) -> Vec<Fig5Row> {
        self.reports
            .iter()
            .map(|r| {
                let mapped = r.mapped();
                let hottest = mapped
                    .hottest_nvm_object()
                    .and_then(|o| r.tracker.record(o.id).map(|c| (o, c)));
                match hottest {
                    Some((obj, rec)) => {
                        let reuse = two_touch_reuse(&r.samples, rec.addr, rec.len, self.freq_hz);
                        Fig5Row {
                            workload: r.workload.name(),
                            hottest_object: obj.site.to_string(),
                            pages: reuse.pages_analyzed,
                            intervals: reuse.intervals_secs,
                            promoted_fraction: reuse.promoted_fraction,
                        }
                    }
                    None => Fig5Row {
                        workload: r.workload.name(),
                        hottest_object: "-".into(),
                        pages: 0,
                        intervals: None,
                        promoted_fraction: 0.0,
                    },
                }
            })
            .collect()
    }

    /// Table 1 rows.
    pub fn table1(&self) -> Vec<Table1Row> {
        self.reports
            .iter()
            .map(|r| {
                let d = LevelDistribution::of(&r.samples);
                Table1Row {
                    workload: r.workload.name(),
                    outside_cache: d.external_fraction(),
                    dram_share: d.tier_share_of_external(Tier::Dram),
                    nvm_share: d.tier_share_of_external(Tier::Nvm),
                }
            })
            .collect()
    }

    /// Table 2 rows.
    pub fn table2(&self) -> Vec<Table2Row> {
        self.reports
            .iter()
            .map(|r| {
                let d = LevelDistribution::of(&r.samples);
                Table2Row {
                    workload: r.workload.name(),
                    dram_cost_share: d.tier_share_of_cost(Tier::Dram),
                    nvm_cost_share: d.tier_share_of_cost(Tier::Nvm),
                }
            })
            .collect()
    }

    /// Table 3 rows.
    pub fn table3(&self) -> Vec<Table3Row> {
        self.reports
            .iter()
            .map(|r| {
                let d = LevelDistribution::of(&r.samples);
                Table3Row {
                    workload: r.workload.name(),
                    dram_tlb_hit: d.mean_external_cost(Tier::Dram, false),
                    dram_tlb_miss: d.mean_external_cost(Tier::Dram, true),
                    nvm_tlb_hit: d.mean_external_cost(Tier::Nvm, false),
                    nvm_tlb_miss: d.mean_external_cost(Tier::Nvm, true),
                }
            })
            .collect()
    }

    /// Renders Table 1 as text in the paper's layout.
    pub fn render_table1(&self) -> String {
        let mut t =
            TextTable::new(vec!["Workload", "Outside Cache", "Pages in DRAM", "Pages in NVM"]);
        for r in self.table1() {
            t.row(vec![r.workload, pct(r.outside_cache), pct(r.dram_share), pct(r.nvm_share)]);
        }
        t.render()
    }

    /// Renders Table 2 as text.
    pub fn render_table2(&self) -> String {
        let mut t = TextTable::new(vec!["Application", "DRAM Access Cost", "NVM Access Cost"]);
        let mut rows = self.table2();
        // The paper orders Table 2 by NVM cost descending.
        rows.sort_by(|a, b| b.nvm_cost_share.total_cmp(&a.nvm_cost_share));
        for r in rows {
            t.row(vec![r.workload, pct(r.dram_cost_share), pct(r.nvm_cost_share)]);
        }
        t.render()
    }

    /// Renders Table 3 as text.
    pub fn render_table3(&self) -> String {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.0}"));
        let mut t = TextTable::new(vec![
            "Application",
            "DRAM TLB Hit",
            "DRAM TLB Miss",
            "NVM TLB Hit",
            "NVM TLB Miss",
        ]);
        for r in self.table3() {
            t.row(vec![
                r.workload,
                fmt(r.dram_tlb_hit),
                fmt(r.dram_tlb_miss),
                fmt(r.nvm_tlb_hit),
                fmt(r.nvm_tlb_miss),
            ]);
        }
        t.render()
    }

    /// Renders Figure 3 as text.
    pub fn render_fig3(&self) -> String {
        let mut t = TextTable::new(vec!["Workload", "Caches", "DRAM", "NVM"]);
        for r in self.fig3() {
            t.row(vec![r.workload, pct(r.cache_frac), pct(r.dram_frac), pct(r.nvm_frac)]);
        }
        t.render()
    }

    /// Renders Figure 4 as text.
    pub fn render_fig4(&self) -> String {
        let mut t = TextTable::new(vec!["Workload", "1 touch", "2 touches", "3+ touches"]);
        for r in self.fig4() {
            t.row(vec![r.workload, pct(r.one_touch), pct(r.two_touch), pct(r.three_plus)]);
        }
        t.render()
    }

    /// Renders Figure 5 as text.
    pub fn render_fig5(&self) -> String {
        let mut t = TextTable::new(vec![
            "Workload", "Object", "Pages", "Min", "P25", "P50", "P75", "Max", "Avg", "Std",
            "Promoted",
        ]);
        for r in self.fig5() {
            let f = |v: f64| format!("{v:.4}");
            match r.intervals {
                Some(s) => t.row(vec![
                    r.workload,
                    r.hottest_object,
                    r.pages.to_string(),
                    f(s.min),
                    f(s.p25),
                    f(s.p50),
                    f(s.p75),
                    f(s.max),
                    f(s.mean),
                    f(s.std_dev),
                    pct(r.promoted_fraction),
                ]),
                None => t.row(vec![
                    r.workload,
                    r.hottest_object,
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_config;

    #[test]
    fn characterization_produces_all_tables() {
        let c = Characterization::run(&tiny_config()).unwrap();
        assert_eq!(c.reports.len(), 6);
        assert_eq!(c.fig3().len(), 6);
        assert_eq!(c.fig4().len(), 6);
        assert_eq!(c.fig5().len(), 6);
        assert_eq!(c.table1().len(), 6);
        assert_eq!(c.table2().len(), 6);
        assert_eq!(c.table3().len(), 6);
        // Shares are consistent.
        for r in c.table1() {
            assert!((r.dram_share + r.nvm_share - 1.0).abs() < 1e-9 || r.outside_cache == 0.0);
        }
        for r in c.fig4() {
            let sum = r.one_touch + r.two_touch + r.three_plus;
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
        }
        // Renderers produce header + 6 rows.
        for text in [
            c.render_table1(),
            c.render_table2(),
            c.render_table3(),
            c.render_fig3(),
            c.render_fig4(),
            c.render_fig5(),
        ] {
            assert_eq!(text.lines().count(), 8, "{text}");
        }
    }
}
