//! Dynamic object-level tiering (extension).
//!
//! The paper's §7 proposal is *offline*: profile once, bind objects, never
//! migrate. Its conclusion points at runtime object-level management as
//! the natural next step; this module defines the configuration for that
//! extension: periodically re-rank live objects from the most recent
//! sample window and migrate whole objects between tiers (a `move_pages`
//! loop), subject to a per-interval migration budget.

/// Configuration of the dynamic object-level tierer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicObjectConfig {
    /// Cycles between re-planning passes.
    pub replan_interval_cycles: u64,
    /// Fraction of DRAM the planner may commit each pass.
    pub dram_headroom: f64,
    /// Maximum pages migrated per pass (bounds the `move_pages` burst).
    pub max_migrate_pages: u64,
    /// Kernel overhead charged per migrated page, in cycles, on top of the
    /// device copy.
    pub migrate_overhead_cycles: u64,
}

impl Default for DynamicObjectConfig {
    fn default() -> Self {
        DynamicObjectConfig {
            replan_interval_cycles: 2_600_000, // 1 ms simulated @ 2.6 GHz
            dram_headroom: 0.92,
            max_migrate_pages: 512,
            migrate_overhead_cycles: 5_000,
        }
    }
}

impl DynamicObjectConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.replan_interval_cycles == 0 {
            return Err("replan interval must be positive");
        }
        if !(0.0..=1.0).contains(&self.dram_headroom) {
            return Err("dram headroom must be in [0, 1]");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DynamicObjectConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let c = DynamicObjectConfig { replan_interval_cycles: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = DynamicObjectConfig { dram_headroom: 1.5, ..Default::default() };
        assert!(c.validate().is_err());
    }
}
