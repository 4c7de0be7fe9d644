//! Configuration for the simulated memory system.

use crate::error::MemError;
use crate::fault::FaultPlan;
use tiersim_trace::TraceConfig;

/// Geometry of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes. Must be `ways * sets * 64`.
    pub capacity: u64,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of sets implied by capacity and associativity.
    pub fn sets(&self) -> usize {
        (self.capacity / crate::addr::LINE_SIZE) as usize / self.ways
    }

    fn validate(&self, what: &'static str) -> Result<(), MemError> {
        let lines = self.capacity / crate::addr::LINE_SIZE;
        if self.ways == 0
            || self.capacity == 0
            || !self.capacity.is_multiple_of(crate::addr::LINE_SIZE)
            || !lines.is_multiple_of(self.ways as u64)
            || !(lines / self.ways as u64).is_power_of_two()
        {
            return Err(MemError::InvalidConfig { what, got: format!("{self:?}") });
        }
        Ok(())
    }
}

/// Geometry of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Total number of entries. Must be `ways * sets`.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbGeometry {
    /// Number of sets implied by entries and associativity.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }

    fn validate(&self, what: &'static str) -> Result<(), MemError> {
        if self.ways == 0
            || self.entries == 0
            || !self.entries.is_multiple_of(self.ways)
            || !(self.entries / self.ways).is_power_of_two()
        {
            return Err(MemError::InvalidConfig { what, got: format!("{self:?}") });
        }
        Ok(())
    }
}

/// Latency model for the DRAM device (open-row policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// Number of banks (row buffers); a power of two.
    pub banks: usize,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Read latency in cycles when the row is open (row-buffer hit).
    pub read_hit: u64,
    /// Read latency in cycles on a row-buffer miss.
    pub read_miss: u64,
    /// Write latency (posted; charged to bandwidth accounting, not to the
    /// requesting instruction) on a row hit.
    pub write_hit: u64,
    /// Write latency on a row miss.
    pub write_miss: u64,
}

/// Latency model for the NVM device.
///
/// Optane serves the media in 256-byte lines through a small internal
/// buffer (the "XPBuffer"); sequential access hits that buffer, random
/// access misses it, producing the paper's ~2x (sequential) vs ~3x (random)
/// read latency vs DRAM (ref \[8\] in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmTimings {
    /// Number of 256-byte entries in the internal buffer.
    pub buffer_entries: usize,
    /// Internal media access granularity in bytes (256 for Optane).
    pub block_bytes: u64,
    /// Read latency in cycles when the block is buffered.
    pub read_hit: u64,
    /// Read latency in cycles when the media must be accessed.
    pub read_miss: u64,
    /// Write latency (posted) when the block is buffered.
    pub write_hit: u64,
    /// Write latency when the media must be accessed.
    pub write_miss: u64,
}

/// Full configuration of the simulated memory system.
///
/// Defaults model one socket of the paper's testbed (Xeon Gold 6240,
/// 2.6 GHz) with capacities scaled down ~3000x so that scaled-down GAPBS
/// workloads keep the paper's footprint-to-DRAM ratio (~1.2–1.5x).
///
/// # Examples
///
/// ```
/// use tiersim_mem::MemConfig;
///
/// let cfg = MemConfig { dram_capacity: 64 << 20, nvm_capacity: 512 << 20, ..MemConfig::default() };
/// cfg.validate()?;
/// assert_eq!(cfg.dram_capacity, 64 << 20);
/// # Ok::<(), tiersim_mem::MemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// DRAM (tier-1) capacity in bytes.
    pub dram_capacity: u64,
    /// NVM (tier-2) capacity in bytes.
    pub nvm_capacity: u64,
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// L2 cache geometry.
    pub l2: CacheGeometry,
    /// Shared L3 cache geometry.
    pub l3: CacheGeometry,
    /// First-level data TLB geometry.
    pub dtlb: TlbGeometry,
    /// Second-level (shared) TLB geometry.
    pub stlb: TlbGeometry,
    /// Extra cycles charged on an STLB hit (L1 TLB miss).
    pub stlb_hit_penalty: u64,
    /// Fixed page-walk overhead in cycles (paging-structure caches), on top
    /// of the memory access that fetches the leaf PTE.
    pub walk_base_penalty: u64,
    /// DRAM device timings.
    pub dram: DramTimings,
    /// NVM device timings.
    pub nvm: NvmTimings,
    /// CPU frequency in Hz, used to convert cycles to seconds.
    pub freq_hz: u64,
    /// Optane *Memory Mode*: DRAM becomes a transparent direct-mapped
    /// line cache over NVM; page placement is ignored (paper §2.1).
    pub memory_mode: bool,
    /// Deterministic fault-injection plan; [`FaultPlan::none`] (the
    /// default) injects nothing and costs nothing.
    pub fault: FaultPlan,
    /// Event-trace settings; [`TraceConfig::off`] (the default) records
    /// nothing and costs one branch per hook.
    pub trace: TraceConfig,
}

impl MemConfig {
    /// Validates internal consistency of all geometry parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), MemError> {
        self.l1.validate("l1 geometry")?;
        self.l2.validate("l2 geometry")?;
        self.l3.validate("l3 geometry")?;
        self.dtlb.validate("dtlb geometry")?;
        self.stlb.validate("stlb geometry")?;
        if self.dram_capacity == 0 || !self.dram_capacity.is_multiple_of(crate::addr::PAGE_SIZE) {
            return Err(MemError::InvalidConfig {
                what: "dram capacity",
                got: format!(
                    "{} (must be a nonzero multiple of the page size)",
                    self.dram_capacity
                ),
            });
        }
        if self.nvm_capacity == 0 || !self.nvm_capacity.is_multiple_of(crate::addr::PAGE_SIZE) {
            return Err(MemError::InvalidConfig {
                what: "nvm capacity",
                got: format!("{} (must be a nonzero multiple of the page size)", self.nvm_capacity),
            });
        }
        if !self.dram.banks.is_power_of_two() || !self.dram.row_bytes.is_power_of_two() {
            return Err(MemError::InvalidConfig {
                what: "dram timings",
                got: format!("{:?}", self.dram),
            });
        }
        if self.nvm.buffer_entries == 0 || !self.nvm.block_bytes.is_power_of_two() {
            return Err(MemError::InvalidConfig {
                what: "nvm timings",
                got: format!("{:?}", self.nvm),
            });
        }
        if self.freq_hz == 0 {
            return Err(MemError::InvalidConfig { what: "frequency", got: "0 Hz".to_string() });
        }
        self.fault.validate()?;
        Ok(())
    }

    /// Converts a cycle count to seconds at the configured frequency.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            dram_capacity: 64 << 20,
            nvm_capacity: 1 << 30,
            l1: CacheGeometry { capacity: 32 << 10, ways: 8, latency: 4 },
            l2: CacheGeometry { capacity: 1 << 20, ways: 16, latency: 14 },
            l3: CacheGeometry { capacity: 24 << 20, ways: 12, latency: 44 },
            dtlb: TlbGeometry { entries: 64, ways: 4 },
            stlb: TlbGeometry { entries: 1536, ways: 12 },
            stlb_hit_penalty: 7,
            walk_base_penalty: 18,
            dram: DramTimings {
                banks: 16,
                row_bytes: 8 << 10,
                read_hit: 160,
                read_miss: 245,
                write_hit: 160,
                write_miss: 245,
            },
            nvm: NvmTimings {
                buffer_entries: 16,
                block_bytes: 256,
                read_hit: 330,
                read_miss: 930,
                write_hit: 420,
                write_miss: 1250,
            },
            freq_hz: 2_600_000_000,
            memory_mode: false,
            fault: FaultPlan::none(),
            trace: TraceConfig::off(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        MemConfig::default().validate().unwrap();
    }

    #[test]
    fn geometry_sets_computation() {
        let g = CacheGeometry { capacity: 32 << 10, ways: 8, latency: 4 };
        assert_eq!(g.sets(), 64);
        let t = TlbGeometry { entries: 64, ways: 4 };
        assert_eq!(t.sets(), 16);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let err = MemConfig {
            l1: CacheGeometry { capacity: 1000, ways: 3, latency: 4 },
            ..MemConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, MemError::InvalidConfig { .. }));
    }

    #[test]
    fn validate_rejects_unaligned_capacity() {
        let err = MemConfig { dram_capacity: 4097, ..MemConfig::default() }.validate().unwrap_err();
        assert!(matches!(err, MemError::InvalidConfig { what: "dram capacity", .. }));
        assert!(err.to_string().contains("4097"), "error carries the offending value: {err}");
    }

    #[test]
    fn validate_rejects_bank_counts_that_are_not_powers_of_two() {
        for banks in [0, 3, 12] {
            let dram = DramTimings { banks, ..MemConfig::default().dram };
            let err = MemConfig { dram, ..MemConfig::default() }.validate().unwrap_err();
            assert!(matches!(err, MemError::InvalidConfig { what: "dram timings", .. }), "{banks}");
        }
        for banks in [1, 2, 16] {
            let dram = DramTimings { banks, ..MemConfig::default().dram };
            MemConfig { dram, ..MemConfig::default() }.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_fault_plan() {
        let err = MemConfig {
            fault: FaultPlan { nvm_spike_multiplier: 0, ..FaultPlan::none() },
            ..MemConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, MemError::InvalidConfig { what: "fault nvm spike multiplier", .. }));
    }
}
