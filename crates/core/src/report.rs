//! Run reports: everything an experiment needs from one workload run.

use crate::timeline::TimelineSnapshot;
use crate::workload::WorkloadConfig;
use std::io::{self, Write};
use tiersim_mem::{AccessStats, FaultStats, Tier, TraceLog};
use tiersim_os::VmCounters;
use tiersim_profile::{map_samples, AllocTracker, MappedProfile, MemSample};

/// The complete observable record of one workload run.
#[derive(Debug)]
pub struct RunReport {
    /// The workload that ran.
    pub workload: WorkloadConfig,
    /// The tiering mode's stable name.
    pub mode_name: String,
    /// End of the file-load phase, seconds.
    pub load_end_secs: f64,
    /// End of the CSR build phase, seconds. The `.sg` loader has no
    /// separate build, so this equals `load_end_secs`.
    pub build_end_secs: f64,
    /// Per-trial kernel execution times, seconds.
    pub trial_secs: Vec<f64>,
    /// Total simulated run time, seconds.
    pub total_secs: f64,
    /// PEBS-style samples over the whole run.
    pub samples: Vec<MemSample>,
    /// Allocation log.
    pub tracker: AllocTracker,
    /// Final cumulative vmstat counters.
    pub counters: VmCounters,
    /// Per-second timeline snapshots.
    pub timeline: Vec<TimelineSnapshot>,
    /// Ground-truth access totals from the memory system.
    pub mem_stats: AccessStats,
    /// Injected-fault totals (all zero when the fault plan is empty).
    pub fault_stats: FaultStats,
    /// NVM write-amplification factor over the run.
    pub nvm_write_amplification: f64,
    /// OS engine ticks the run took — the deterministic progress meter
    /// the tuner uses as its throughput objective and rung budget unit
    /// (wall-clock-free, unlike `total_secs` it never divides away small
    /// differences).
    pub os_ticks: u64,
    /// Event trace and metrics snapshots (empty unless the machine ran
    /// with tracing enabled).
    pub trace: TraceLog,
}

impl RunReport {
    /// Kernel execution time: the sum of trial times — the quantity the
    /// paper's Figure 11 compares.
    pub fn exec_secs(&self) -> f64 {
        self.trial_secs.iter().sum()
    }

    /// Joins samples with allocations into per-object profiles.
    pub fn mapped(&self) -> MappedProfile {
        map_samples(&self.tracker, &self.samples)
    }

    /// Load samples that hit NVM (the quantity the object-level policy
    /// minimizes; the paper reports a 79% reduction for `bc_kron`).
    pub fn nvm_samples(&self) -> u64 {
        self.samples.iter().filter(|s| !s.is_store && s.level == tiersim_mem::MemLevel::Nvm).count()
            as u64
    }

    /// Whether the run degraded under injected faults: any migration gave
    /// up after retries (its page stayed on NVM) or any allocation had to
    /// fall back to the other tier. Always `false` with an empty plan.
    pub fn ran_degraded(&self) -> bool {
        self.counters.pgmigrate_fail > 0 || self.fault_stats.dram_alloc_failures > 0
    }

    /// Writes the per-second timeline as CSV (the series behind the
    /// paper's Figures 9 and 10), one row per snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_timeline_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(
            out,
            "time_secs,dram_app_pages,dram_file_pages,nvm_app_pages,nvm_file_pages,\
             pgpromote_success,pgdemote_kswapd,pgdemote_direct,cpu_util,threshold_cycles,\
             rate_tokens_bytes"
        )?;
        for s in &self.timeline {
            writeln!(
                out,
                "{:.6},{},{},{},{},{},{},{},{:.4},{},{}",
                s.time_secs,
                s.numastat.anon_pages[Tier::Dram.index()],
                s.numastat.file_pages[Tier::Dram.index()],
                s.numastat.anon_pages[Tier::Nvm.index()],
                s.numastat.file_pages[Tier::Nvm.index()],
                s.counters.pgpromote_success,
                s.counters.pgdemote_kswapd,
                s.counters.pgdemote_direct,
                s.cpu_util,
                s.threshold_cycles,
                s.rate_tokens_bytes,
            )?;
        }
        Ok(())
    }

    /// Writes a one-row run summary as CSV (header + row), the format the
    /// paper's `allocations.csv`/result files roll up into.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_summary_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(
            out,
            "workload,mode,total_secs,exec_secs,load_secs,samples,nvm_samples,\
             pgpromote_success,pgdemote_total,pgalloc_dram,pgalloc_nvm,\
             pgmigrate_fail,pgmigrate_retry,fault_alloc_fail,fault_migrate_busy,\
             fault_nvm_spiked,fault_reclaim_stalls"
        )?;
        writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.workload.name(),
            self.mode_name,
            self.total_secs,
            self.exec_secs(),
            self.load_end_secs,
            self.samples.len(),
            self.nvm_samples(),
            self.counters.pgpromote_success,
            self.counters.pgdemote_total(),
            self.counters.pgalloc_dram,
            self.counters.pgalloc_nvm,
            self.counters.pgmigrate_fail,
            self.counters.pgmigrate_retry,
            self.fault_stats.dram_alloc_failures,
            self.fault_stats.migrate_busy_failures,
            self.fault_stats.nvm_spiked_ops,
            self.fault_stats.reclaim_stalls,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Dataset, Kernel};

    fn report(trials: Vec<f64>) -> RunReport {
        RunReport {
            workload: WorkloadConfig::new(Kernel::Bfs, Dataset::Kron),
            mode_name: "autonuma".into(),
            load_end_secs: 0.1,
            build_end_secs: 0.2,
            trial_secs: trials,
            total_secs: 1.0,
            samples: Vec::new(),
            tracker: AllocTracker::new(),
            counters: VmCounters::default(),
            timeline: Vec::new(),
            mem_stats: AccessStats::default(),
            fault_stats: FaultStats::default(),
            nvm_write_amplification: 0.0,
            os_ticks: 0,
            trace: TraceLog::default(),
        }
    }

    #[test]
    fn exec_time_sums_trials() {
        let r = report(vec![0.1, 0.2, 0.3]);
        assert!((r.exec_secs() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn csv_writers_emit_header_and_rows() {
        let r = report(vec![0.5]);
        let mut buf = Vec::new();
        r.write_summary_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("bfs_kron,autonuma"));
        let mut buf = Vec::new();
        r.write_timeline_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1); // header only
    }

    #[test]
    fn summary_carries_degraded_mode_counters() {
        let mut r = report(vec![0.5]);
        assert!(!r.ran_degraded());
        r.counters.pgmigrate_fail = 3;
        r.counters.pgmigrate_retry = 9;
        r.fault_stats.dram_alloc_failures = 2;
        assert!(r.ran_degraded());
        let mut buf = Vec::new();
        r.write_summary_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().next().unwrap().contains("pgmigrate_fail"));
        let row = text.lines().nth(1).unwrap();
        let cols: Vec<&str> = row.split(',').collect();
        let header_cols = text.lines().next().unwrap().split(',').count();
        assert_eq!(cols.len(), header_cols, "row width matches header");
        assert!(row.ends_with(",3,9,2,0,0,0"), "degraded columns emitted: {row}");
    }

    #[test]
    fn empty_trials_are_zero() {
        let r = report(vec![]);
        assert_eq!(r.exec_secs(), 0.0);
        assert_eq!(r.nvm_samples(), 0);
    }
}
