//! Object placements: where a logical object's pages should live.

use std::collections::BTreeMap;

/// Placement decision for one logical object (identified by its
/// allocation-site label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Bind the whole object to DRAM (`mbind(MPOL_BIND, DRAM)`).
    Dram,
    /// Bind the whole object to NVM.
    Nvm,
    /// Split the object: the first `dram_bytes` are bound to DRAM, the
    /// rest to NVM — the paper's *spill* variant (`cc_kron*`/`cc_urand*`).
    Split {
        /// Bytes (page-rounded by the applier) placed on DRAM.
        dram_bytes: u64,
    },
}

/// A label → placement table produced by the planner and applied by the
/// runtime at each `mmap` interception, mirroring the paper's
/// `syscall_intercept` + `mbind` mechanism (§7).
///
/// Labels not present in the table fall back to the default placement
/// (NVM, like the paper's "objects that cannot fit on DRAM are assigned
/// entirely to NVM").
///
/// Entries are kept label-ordered (`BTreeMap`) so iteration — which feeds
/// plan renderings and exported CSVs — is deterministic across runs.
///
/// # Examples
///
/// ```
/// use tiersim_policy::{ObjectPlacement, Placement};
///
/// let mut p = ObjectPlacement::new();
/// p.insert("bc.scores", Placement::Dram);
/// assert_eq!(p.placement_for("bc.scores"), Placement::Dram);
/// assert_eq!(p.placement_for("unknown"), Placement::Nvm);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectPlacement {
    map: BTreeMap<String, Placement>,
}

impl ObjectPlacement {
    /// Creates an empty table (everything defaults to NVM).
    pub fn new() -> Self {
        ObjectPlacement::default()
    }

    /// Sets the placement for a label, returning any previous entry.
    pub fn insert(&mut self, label: impl Into<String>, placement: Placement) -> Option<Placement> {
        self.map.insert(label.into(), placement)
    }

    /// The placement for `label` (NVM when absent).
    pub fn placement_for(&self, label: &str) -> Placement {
        self.map.get(label).copied().unwrap_or(Placement::Nvm)
    }

    /// Iterates `(label, placement)` entries in ascending label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Placement)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no explicit entry exists.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_nvm() {
        let p = ObjectPlacement::new();
        assert!(p.is_empty());
        assert_eq!(p.placement_for("anything"), Placement::Nvm);
    }

    #[test]
    fn insert_and_override() {
        let mut p = ObjectPlacement::new();
        assert_eq!(p.insert("x", Placement::Dram), None);
        assert_eq!(p.insert("x", Placement::Split { dram_bytes: 4096 }), Some(Placement::Dram));
        assert_eq!(p.placement_for("x"), Placement::Split { dram_bytes: 4096 });
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn iter_yields_entries() {
        let mut p = ObjectPlacement::new();
        p.insert("a", Placement::Dram);
        p.insert("b", Placement::Nvm);
        let mut entries: Vec<_> = p.iter().collect();
        entries.sort_by_key(|&(label, _)| label);
        assert_eq!(entries, vec![("a", Placement::Dram), ("b", Placement::Nvm)]);
    }
}
