//! The static object-level planner (paper §7).

use crate::placement::{ObjectPlacement, Placement};
use crate::ranking::LabelStats;

/// Result of planning: the placement table plus accounting for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticPlan {
    /// Label → placement table to apply at allocation time.
    pub placement: ObjectPlacement,
    /// DRAM bytes committed by the plan.
    pub dram_used: u64,
    /// The DRAM budget the plan was built for.
    pub dram_budget: u64,
    /// The label that was split across tiers, if the spill variant was
    /// used and a split happened.
    pub spilled_label: Option<String>,
}

/// Plans object placements greedily: rank labels by access density
/// (descending), assign whole objects to DRAM until the budget runs out,
/// and everything else to NVM.
///
/// With `spill`, the first object that does not fit is split so its head
/// fills the remaining DRAM (the paper's asterisked `cc_*` variant);
/// without it, the object goes entirely to NVM.
///
/// # Examples
///
/// ```
/// use tiersim_policy::{plan_static, LabelStats, Placement};
///
/// let stats = vec![
///     LabelStats { label: "hot".into(), bytes: 4096, samples: 100, nvm_samples: 0 },
///     LabelStats { label: "big".into(), bytes: 1 << 20, samples: 10, nvm_samples: 0 },
/// ];
/// let plan = plan_static(&stats, 8192, false);
/// assert_eq!(plan.placement.placement_for("hot"), Placement::Dram);
/// assert_eq!(plan.placement.placement_for("big"), Placement::Nvm);
/// ```
pub fn plan_static(ranked: &[LabelStats], dram_budget: u64, spill: bool) -> StaticPlan {
    let mut placement = ObjectPlacement::new();
    let mut remaining = dram_budget;
    let mut spilled_label = None;
    for s in ranked {
        // Skip kernel-internal labels; they are not application objects.
        if s.label.starts_with('[') {
            continue;
        }
        if s.bytes <= remaining {
            placement.insert(&s.label, Placement::Dram);
            remaining -= s.bytes;
        } else if spill && spilled_label.is_none() && remaining > 0 {
            placement.insert(&s.label, Placement::Split { dram_bytes: remaining });
            spilled_label = Some(s.label.clone());
            remaining = 0;
        } else {
            placement.insert(&s.label, Placement::Nvm);
        }
    }
    StaticPlan { placement, dram_used: dram_budget - remaining, dram_budget, spilled_label }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(items: &[(&str, u64, u64)]) -> Vec<LabelStats> {
        // Items must be provided in density order for these tests.
        items
            .iter()
            .map(|&(label, bytes, samples)| LabelStats {
                label: label.into(),
                bytes,
                samples,
                nvm_samples: 0,
            })
            .collect()
    }

    #[test]
    fn greedy_packs_in_rank_order() {
        let s = stats(&[("a", 100, 1000), ("b", 100, 500), ("c", 100, 10)]);
        let plan = plan_static(&s, 200, false);
        assert_eq!(plan.placement.placement_for("a"), Placement::Dram);
        assert_eq!(plan.placement.placement_for("b"), Placement::Dram);
        assert_eq!(plan.placement.placement_for("c"), Placement::Nvm);
        assert_eq!(plan.dram_used, 200);
        assert_eq!(plan.dram_budget, 200);
    }

    #[test]
    fn oversized_object_skips_but_later_objects_can_fit() {
        let s = stats(&[("huge", 1000, 9000), ("small", 50, 10)]);
        let plan = plan_static(&s, 100, false);
        assert_eq!(plan.placement.placement_for("huge"), Placement::Nvm);
        assert_eq!(plan.placement.placement_for("small"), Placement::Dram);
        assert_eq!(plan.dram_used, 50);
        assert!(plan.spilled_label.is_none());
    }

    #[test]
    fn spill_splits_first_nonfitting_object() {
        let s = stats(&[("a", 60, 1000), ("big", 1000, 900), ("c", 30, 10)]);
        let plan = plan_static(&s, 100, true);
        assert_eq!(plan.placement.placement_for("a"), Placement::Dram);
        assert_eq!(plan.placement.placement_for("big"), Placement::Split { dram_bytes: 40 });
        // After the spill, DRAM is exhausted: c goes to NVM.
        assert_eq!(plan.placement.placement_for("c"), Placement::Nvm);
        assert_eq!(plan.spilled_label.as_deref(), Some("big"));
        assert_eq!(plan.dram_used, plan.dram_budget);
    }

    #[test]
    fn only_one_object_spills() {
        let s = stats(&[("big1", 1000, 900), ("big2", 1000, 800)]);
        let plan = plan_static(&s, 100, true);
        assert_eq!(plan.placement.placement_for("big1"), Placement::Split { dram_bytes: 100 });
        assert_eq!(plan.placement.placement_for("big2"), Placement::Nvm);
    }

    #[test]
    fn kernel_labels_are_ignored() {
        let s = stats(&[("[page_cache]", 10, 100_000), ("a", 10, 1)]);
        let plan = plan_static(&s, 10, false);
        assert_eq!(plan.placement.placement_for("a"), Placement::Dram);
        // No explicit entry for the kernel label.
        assert_eq!(plan.placement.len(), 1);
    }

    #[test]
    fn zero_budget_sends_everything_to_nvm() {
        let s = stats(&[("a", 10, 100)]);
        let plan = plan_static(&s, 0, true);
        assert_eq!(plan.placement.placement_for("a"), Placement::Nvm);
        assert_eq!(plan.dram_used, 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_plan_never_exceeds_budget(
            sizes in proptest::collection::vec(1u64..10_000, 1..30),
            budget in 0u64..20_000,
            spill in proptest::bool::ANY,
        ) {
            let s: Vec<LabelStats> = sizes
                .iter()
                .enumerate()
                .map(|(i, &bytes)| LabelStats {
                    label: format!("o{i}"),
                    bytes,
                    samples: (sizes.len() - i) as u64 * 10,
                    nvm_samples: 0,
                })
                .collect();
            let plan = plan_static(&s, budget, spill);
            proptest::prop_assert!(plan.dram_used <= budget);
            // Recompute committed DRAM from the table itself.
            let mut committed = 0u64;
            for st in &s {
                match plan.placement.placement_for(&st.label) {
                    crate::Placement::Dram => committed += st.bytes,
                    crate::Placement::Split { dram_bytes } => committed += dram_bytes,
                    crate::Placement::Nvm => {}
                }
            }
            proptest::prop_assert_eq!(committed, plan.dram_used);
        }
    }
}
