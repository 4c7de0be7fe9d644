//! Machine configuration: everything that defines the simulated platform
//! for one run.

use crate::error::CoreError;
use tiersim_mem::{CacheGeometry, MemConfig, TlbGeometry};
use tiersim_os::OsConfig;
use tiersim_policy::TieringMode;

/// Full platform configuration for a run: hardware model, OS model,
/// tiering mode, thread count and profiling parameters.
///
/// [`MachineConfig::scaled_default`] produces the configuration used by
/// the paper-reproduction experiments: hardware structures and OS time
/// constants are scaled down consistently with the scaled-down workloads
/// (see DESIGN.md, "substitutions"). Every parameter is a public field,
/// set by assigning it (`cfg.mem.fault = plan`); [`crate::Machine::new`]
/// validates the whole configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Hardware model.
    pub mem: MemConfig,
    /// OS model (the `autonuma_enabled` field is overridden by `mode`).
    pub os: OsConfig,
    /// Tiering policy governing the run.
    pub mode: TieringMode,
    /// Logical thread count (the paper's socket has 18 cores).
    pub threads: usize,
    /// PEBS-style sampling period (accesses per sample).
    pub sample_period: u64,
    /// Pure-CPU cycles charged per memory operation (models non-memory
    /// instructions between accesses).
    pub cpu_cycles_per_op: u64,
    /// Cycles between timeline snapshots (numastat/vmstat polling, as the
    /// paper's scripts poll once per second).
    pub timeline_period_cycles: u64,
    /// Fraction of DRAM the static-object planner may commit.
    pub plan_dram_headroom: f64,
    /// Stuck-cell watchdog: abort the run (as a typed
    /// [`crate::RunError::Stuck`] failure) once the machine has taken more
    /// than this many OS engine ticks. `0` disables the watchdog. Ticks
    /// are a pure function of simulated progress, so the budget trips
    /// deterministically — never from host wall-clock time.
    pub tick_budget: u64,
}

impl MachineConfig {
    /// The experiment configuration: a machine whose capacity ratios
    /// mirror the paper's testbed against a workload whose *steady*
    /// (trial-phase) footprint is `footprint_bytes`.
    ///
    /// - DRAM is sized to ~110% of the kron workloads' steady footprint —
    ///   mirroring the paper's testbed, where the kron (-g30) live set
    ///   roughly matches the 192 GB DRAM while the larger urand (-u31)
    ///   set and the build-phase peak exceed it.
    /// - NVM is 8× DRAM (paper: 768 GB vs 192 GB = 4×, plus slack so the
    ///   simulator never OOMs).
    /// - Caches/TLBs are scaled so their coverage of the footprint is
    ///   small, as on the real machine.
    /// - OS time constants are dilated so a run spans hundreds of scan
    ///   periods, like the paper's minutes-long runs.
    pub fn scaled_default(footprint_bytes: u64, mode: TieringMode) -> MachineConfig {
        let page = tiersim_mem::PAGE_SIZE;
        let dram = ((footprint_bytes as f64 * 1.10) as u64 / page).max(64) * page;
        let nvm = dram * 8;
        let mem = MemConfig {
            dram_capacity: dram,
            nvm_capacity: nvm,
            l1: CacheGeometry { capacity: 16 << 10, ways: 8, latency: 4 },
            l2: CacheGeometry { capacity: 64 << 10, ways: 8, latency: 14 },
            l3: CacheGeometry { capacity: 256 << 10, ways: 8, latency: 44 },
            dtlb: TlbGeometry { entries: 16, ways: 4 },
            stlb: TlbGeometry { entries: 64, ways: 8 },
            ..MemConfig::default()
        };
        // Dilation 5000: one "paper second" of OS behavior happens every
        // 0.2 ms of simulated time, so a ~0.5 s simulated run covers
        // ~2500 scan periods, comparable to a ~40 min real run.
        let dilation = 5000.0;
        let mut os = OsConfig::default().with_time_dilation(dilation);
        // The kernel scans 256 MB per period on a 192 GB machine; keep the
        // same *fraction of footprint* per period.
        let footprint_ratio = (228u64 << 30) as f64 / footprint_bytes.max(1) as f64;
        os.scan_size_pages = ((65_536.0 / footprint_ratio) as u64).max(4);
        // Real kswapd migration bandwidth is finite and comparable to the
        // app's allocation rate (GB/s on the paper's machine), so
        // allocation bursts outrun reclaim and overflow to NVM
        // (Finding 3). Time dilation must not inflate kswapd's bandwidth
        // relative to the app, so its period is fixed in *simulated* time:
        // 16 pages per 1 ms ≈ 64 MB/s of demotion bandwidth.
        os.kswapd_batch_pages = 16;
        os.kswapd_period_cycles = os.freq_hz / 1000;
        let timeline_period_cycles = os.scan_period_cycles;
        MachineConfig {
            mem,
            os,
            mode,
            threads: 18,
            sample_period: 9973,
            cpu_cycles_per_op: 2,
            timeline_period_cycles,
            plan_dram_headroom: 0.92,
            tick_budget: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on inconsistent parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.mem.validate()?;
        self.os.validate()?;
        if self.threads == 0 {
            return Err(CoreError::InvalidConfig { what: "threads", got: "0".to_string() });
        }
        if self.sample_period == 0 {
            return Err(CoreError::InvalidConfig { what: "sample period", got: "0".to_string() });
        }
        if self.timeline_period_cycles == 0 {
            return Err(CoreError::InvalidConfig { what: "timeline period", got: "0".to_string() });
        }
        if !(0.0..=1.0).contains(&self.plan_dram_headroom) {
            return Err(CoreError::InvalidConfig {
                what: "plan headroom",
                got: format!("{} (must be within 0..=1)", self.plan_dram_headroom),
            });
        }
        if self.mem.freq_hz != self.os.freq_hz {
            return Err(CoreError::InvalidConfig {
                what: "mem/os frequency mismatch",
                got: format!("mem {} Hz vs os {} Hz", self.mem.freq_hz, self.os.freq_hz),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::Tier;

    #[test]
    fn scaled_default_is_valid_and_pressured() {
        let cfg = MachineConfig::scaled_default(64 << 20, TieringMode::AutoNuma);
        cfg.validate().unwrap();
        // DRAM tracks the kron steady footprint; NVM dwarfs it.
        assert!(cfg.mem.dram_capacity >= 64 << 20);
        assert!(cfg.mem.dram_capacity < 2 * (64 << 20));
        assert!(cfg.mem.nvm_capacity > 4 * (64 << 20));
        let _ = Tier::Dram;
    }

    #[test]
    fn validation_catches_zero_threads() {
        let mut cfg = MachineConfig::scaled_default(1 << 20, TieringMode::FirstTouch);
        cfg.threads = 0;
        assert!(matches!(cfg.validate(), Err(CoreError::InvalidConfig { what: "threads", .. })));
    }

    #[test]
    fn validation_catches_frequency_mismatch() {
        let mut cfg = MachineConfig::scaled_default(1 << 20, TieringMode::AutoNuma);
        cfg.os.freq_hz = 123;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn scan_size_scales_with_footprint() {
        let small = MachineConfig::scaled_default(8 << 20, TieringMode::AutoNuma);
        let large = MachineConfig::scaled_default(128 << 20, TieringMode::AutoNuma);
        assert!(large.os.scan_size_pages > small.os.scan_size_pages);
    }

    #[test]
    fn assigned_fault_plan_reaches_the_built_machine() {
        use tiersim_mem::{FaultPlan, RATE_ONE};
        // Default machines carry the empty plan.
        let mut cfg = MachineConfig::scaled_default(1 << 20, TieringMode::AutoNuma);
        assert!(cfg.mem.fault.is_none());
        let plan = FaultPlan { seed: 11, migrate_busy_per_64k: RATE_ONE / 8, ..FaultPlan::none() };
        cfg.mem.fault = plan;
        let m = crate::Machine::new(cfg).unwrap();
        assert_eq!(m.mem().config().fault, plan);
    }
}
