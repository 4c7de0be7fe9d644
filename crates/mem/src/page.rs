//! Per-page metadata.

use crate::tier::Tier;
use core::fmt;
use core::ops::{BitOr, BitOrAssign};

/// Flag bits attached to a resident page.
///
/// A hand-rolled bitflag newtype (the crate deliberately avoids external
/// dependencies beyond the approved set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct PageFlags(u8);

impl PageFlags {
    /// No flags set.
    pub const NONE: PageFlags = PageFlags(0);
    /// The page is marked for NUMA-hinting: the next access raises a hint
    /// fault (the simulated equivalent of `PROT_NONE` scanning).
    pub const HINT: PageFlags = PageFlags(1 << 0);
    /// The page belongs to the OS page cache (file-backed, clean): reclaim
    /// may drop or demote it cheaply.
    pub const PAGE_CACHE: PageFlags = PageFlags(1 << 1);
    /// The page has been promoted NVM→DRAM at least once (used for the
    /// `pgpromote_demoted` counter).
    pub const WAS_PROMOTED: PageFlags = PageFlags(1 << 2);

    /// The raw bits (the page table packs them into its per-page state
    /// byte).
    #[inline]
    pub(crate) const fn bits(self) -> u8 {
        self.0
    }

    /// Flags from raw bits.
    #[inline]
    pub(crate) const fn from_bits(bits: u8) -> PageFlags {
        PageFlags(bits)
    }

    /// Returns `true` if all bits of `other` are set in `self`.
    #[inline]
    pub const fn contains(self, other: PageFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Sets the bits of `other`.
    #[inline]
    pub fn insert(&mut self, other: PageFlags) {
        self.0 |= other.0;
    }

    /// Clears the bits of `other`.
    #[inline]
    pub fn remove(&mut self, other: PageFlags) {
        self.0 &= !other.0;
    }

    /// Returns `true` if no flag is set.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for PageFlags {
    type Output = PageFlags;
    fn bitor(self, rhs: PageFlags) -> PageFlags {
        PageFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for PageFlags {
    fn bitor_assign(&mut self, rhs: PageFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for PageFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                f.write_str("|")?;
            }
            first = false;
            f.write_str(s)
        };
        if self.contains(PageFlags::HINT) {
            put(f, "HINT")?;
        }
        if self.contains(PageFlags::PAGE_CACHE) {
            put(f, "PAGE_CACHE")?;
        }
        if self.contains(PageFlags::WAS_PROMOTED) {
            put(f, "WAS_PROMOTED")?;
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// Metadata snapshot for one resident page.
///
/// A *value* type: the page table keeps one packed record per page and
/// hands out copies (`MemorySystem::page`, `MemorySystem::resident_pages`).
/// A page's state changes only through the `MemorySystem` operations
/// (map, migrate, unmap, the flag setters, collapse and split), which keep
/// the per-tier counts and the huge blocks coherent. The type is
/// `#[non_exhaustive]`, so no other crate can build one:
///
/// ```compile_fail,E0639
/// use tiersim_mem::{PageFlags, PageInfo, Tier};
///
/// let forged = PageInfo {
///     tier: Tier::Dram,
///     flags: PageFlags::NONE,
///     scan_time: 0,
///     last_access: 0,
///     huge: false,
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PageInfo {
    /// The tier whose frame currently backs this page.
    pub tier: Tier,
    /// Flag bits.
    pub flags: PageFlags,
    /// Cycle timestamp of the last NUMA-balancing scan that marked this
    /// page (meaningful while [`PageFlags::HINT`] is set or right after a
    /// hint fault).
    pub scan_time: u64,
    /// Cycle timestamp of the most recent access.
    pub last_access: u64,
    /// `true` if this base page is part of a collapsed 2 MiB mapping.
    /// Huge membership changes only through collapse and split, which
    /// keep the whole 512-page block coherent.
    pub huge: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_insert_remove_contains() {
        let mut f = PageFlags::NONE;
        assert!(f.is_empty());
        f.insert(PageFlags::HINT);
        f |= PageFlags::WAS_PROMOTED;
        assert!(f.contains(PageFlags::HINT));
        assert!(f.contains(PageFlags::WAS_PROMOTED));
        assert!(!f.contains(PageFlags::PAGE_CACHE));
        f.remove(PageFlags::HINT);
        assert!(!f.contains(PageFlags::HINT));
    }

    #[test]
    fn contains_requires_all_bits() {
        let f = PageFlags::HINT | PageFlags::WAS_PROMOTED;
        assert!(f.contains(PageFlags::HINT | PageFlags::WAS_PROMOTED));
        assert!(!f.contains(PageFlags::HINT | PageFlags::PAGE_CACHE));
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(PageFlags::NONE.to_string(), "-");
        assert_eq!((PageFlags::HINT | PageFlags::WAS_PROMOTED).to_string(), "HINT|WAS_PROMOTED");
    }

    #[test]
    fn snapshot_is_plain_value() {
        let p = PageInfo {
            tier: Tier::Nvm,
            flags: PageFlags::NONE,
            scan_time: 0,
            last_access: 42,
            huge: false,
        };
        assert_eq!(p.tier, Tier::Nvm);
        assert!(p.flags.is_empty());
        assert_eq!(p.last_access, 42);
    }
}
