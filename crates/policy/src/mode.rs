//! Tiering modes: the policies compared in the paper's Figure 11 plus
//! idealized baselines.

use crate::dynamic::DynamicObjectConfig;
use crate::planner::StaticPlan;

/// Which memory-tiering policy governs a run.
#[derive(Debug, Clone, PartialEq)]
pub enum TieringMode {
    /// AutoNUMA tiering v0.8 (the paper's baseline): first-touch
    /// DRAM-first placement plus scanner-driven promotion and watermark
    /// demotion.
    AutoNuma,
    /// AutoNUMA disabled: first-touch placement, no migrations ever (the
    /// paper's §6.6 counter sanity check).
    FirstTouch,
    /// The paper's proposal: profile-guided object-level static binding
    /// (optionally with the one-object spill variant), no migrations.
    StaticObject(StaticPlan),
    /// Extension of the paper's proposal (its stated future work): the
    /// same object-level ranking, recomputed online from the most recent
    /// sample window, with whole-object migrations between tiers.
    DynamicObject(DynamicObjectConfig),
    /// Idealized baseline: bind every object to DRAM (requires a DRAM
    /// large enough for the footprint; used for speed-of-light numbers).
    AllDram,
    /// Pessimal baseline: bind every object to NVM.
    AllNvm,
    /// Optane *Memory Mode* (paper §2.1): DRAM becomes a transparent
    /// hardware-managed cache of NVM; no software placement exists. The
    /// paper rejects this mode for lack of control — modelled here so the
    /// rejection can be quantified (see `repro_all ablate`'s tiering-mode
    /// section).
    MemoryMode,
}

impl TieringMode {
    /// Short stable name used in reports and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            TieringMode::AutoNuma => "autonuma",
            TieringMode::FirstTouch => "first_touch",
            TieringMode::StaticObject(p) if p.spilled_label.is_some() => "static_object_spill",
            TieringMode::StaticObject(_) => "static_object",
            TieringMode::DynamicObject(_) => "dynamic_object",
            TieringMode::AllDram => "all_dram",
            TieringMode::AllNvm => "all_nvm",
            TieringMode::MemoryMode => "memory_mode",
        }
    }

    /// Returns `true` if the OS AutoNUMA machinery (scanner, promotion,
    /// demotion) should be active under this mode.
    pub fn autonuma_enabled(&self) -> bool {
        matches!(self, TieringMode::AutoNuma)
    }
}

impl core::fmt::Display for TieringMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ObjectPlacement;

    fn plan(spilled: Option<&str>) -> StaticPlan {
        StaticPlan {
            placement: ObjectPlacement::new(),
            dram_used: 0,
            dram_budget: 0,
            spilled_label: spilled.map(String::from),
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TieringMode::AutoNuma.name(), "autonuma");
        assert_eq!(TieringMode::FirstTouch.name(), "first_touch");
        assert_eq!(TieringMode::StaticObject(plan(None)).name(), "static_object");
        assert_eq!(TieringMode::StaticObject(plan(Some("x"))).name(), "static_object_spill");
        assert_eq!(TieringMode::AllNvm.to_string(), "all_nvm");
    }

    #[test]
    fn only_autonuma_enables_the_engine() {
        assert!(TieringMode::AutoNuma.autonuma_enabled());
        for m in [
            TieringMode::FirstTouch,
            TieringMode::StaticObject(plan(None)),
            TieringMode::AllDram,
            TieringMode::AllNvm,
            TieringMode::MemoryMode,
            TieringMode::DynamicObject(DynamicObjectConfig::default()),
        ] {
            assert!(!m.autonuma_enabled(), "{m}");
        }
    }
}
