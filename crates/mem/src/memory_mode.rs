//! Memory Mode: DRAM as a transparent direct-mapped cache over NVM.
//!
//! The paper's §2.1 describes Optane's two modes; in *Memory Mode* the
//! DRAM is not a NUMA node but a hardware-managed, direct-mapped cache of
//! the (large) NVM, invisible to the OS. The paper chooses App Direct mode
//! because Memory Mode offers no placement control; this model exists so
//! that choice can be quantified (see `repro_all ablate`'s tiering-mode
//! section).

/// A direct-mapped, line-granularity DRAM cache in front of NVM.
///
/// Tags are full line numbers; the set index is `line mod lines` (any
/// DRAM size works). Dirty victims must be written back to NVM by the
/// caller.
///
/// # Examples
///
/// ```
/// use tiersim_mem::MemoryModeCache;
///
/// let mut c = MemoryModeCache::new(1 << 20); // 1 MiB of DRAM cache
/// assert!(!c.access(5, false).hit);
/// assert!(c.access(5, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryModeCache {
    tags: Vec<u64>,
    dirty: Vec<bool>,
    lines: u64,
}

/// Result of a Memory-Mode cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModeOutcome {
    /// `true` if the line was cached in DRAM.
    pub hit: bool,
    /// Dirty victim line that must be written back to NVM, if any.
    pub writeback: Option<u64>,
}

const INVALID: u64 = u64::MAX;

impl MemoryModeCache {
    /// Creates a cache backed by `dram_bytes` of DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `dram_bytes` holds no full line.
    pub fn new(dram_bytes: u64) -> Self {
        let lines = dram_bytes / crate::addr::LINE_SIZE;
        assert!(lines > 0, "memory-mode cache needs at least one line");
        MemoryModeCache {
            tags: vec![INVALID; lines as usize],
            dirty: vec![false; lines as usize],
            lines,
        }
    }

    /// Looks up `line`, filling on miss and reporting any dirty victim.
    pub fn access(&mut self, line: u64, write: bool) -> MemoryModeOutcome {
        let idx = (line % self.lines) as usize;
        if self.tags[idx] == line {
            self.dirty[idx] |= write;
            return MemoryModeOutcome { hit: true, writeback: None };
        }
        let writeback = (self.tags[idx] != INVALID && self.dirty[idx]).then_some(self.tags[idx]);
        self.tags[idx] = line;
        self.dirty[idx] = write;
        MemoryModeOutcome { hit: false, writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut c = MemoryModeCache::new(64 * 4);
        assert_eq!(c.access(1, false), MemoryModeOutcome { hit: false, writeback: None });
        assert_eq!(c.access(1, false), MemoryModeOutcome { hit: true, writeback: None });
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = MemoryModeCache::new(64 * 4); // 4 lines
        c.access(0, false);
        c.access(4, false); // maps to the same slot
        assert!(!c.access(0, false).hit, "conflict must have evicted line 0");
    }

    #[test]
    fn dirty_victim_is_reported_once() {
        let mut c = MemoryModeCache::new(64 * 4);
        c.access(2, true); // dirty
        let out = c.access(6, false); // conflicts with 2
        assert_eq!(out.writeback, Some(2));
        // The new occupant is clean; evicting it reports nothing.
        assert_eq!(c.access(2, false).writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = MemoryModeCache::new(64 * 2);
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        assert_eq!(c.access(2, false).writeback, Some(0));
    }
}
