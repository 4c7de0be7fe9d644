//! Recency-ordered sets: the replacement state shared by the caches, the
//! TLB and the NVM device buffer.
//!
//! A set is a fixed-size slice of entries kept in recency order, most
//! recently used first, with invalid entries at the tail. True LRU then
//! needs no per-entry ages and no separate permutation: a hit moves its
//! entry to the front, and a fill shifts the set back one slot and writes
//! the new entry at the front. The entry pushed off the tail is the
//! victim: an invalid slot while any remain, else the least recently used
//! entry.

/// Writes `entry` into slot 0 of `set`, shifting slots `0..pos` back one
/// place, and returns what slot `pos` held.
///
/// With `pos` an entry's own slot this is a move-to-front (slot 0 makes
/// it a single store); with `pos = set.len() - 1` it is a fill that
/// returns the victim. A plain loop, so it inlines into the hit and fill
/// paths: `slice::rotate_right` compiles to an out-of-line call, and
/// `copy_within` to a `memmove` call even when nothing moves.
///
/// # Panics
///
/// Panics if `pos` is not a slot of `set`; every caller passes a slot it
/// just found or the tail of a non-empty set.
#[inline]
pub(crate) fn shift_in(set: &mut [u64], pos: usize, entry: u64) -> u64 {
    // tiersim-analyze: allow(panic-reach) — `pos` is a slot of the set (see # Panics)
    let old = set[pos];
    let mut i = pos;
    while i > 0 {
        // tiersim-analyze: allow(panic-reach) — 0 < i <= pos, and slot `pos` exists
        set[i] = set[i - 1];
        i -= 1;
    }
    // tiersim-analyze: allow(panic-reach) — the set is non-empty: slot `pos` exists
    set[0] = entry;
    old
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_to_front_keeps_the_rest_in_order() {
        let mut set = [1, 2, 3, 4];
        assert_eq!(shift_in(&mut set, 2, 3), 3);
        assert_eq!(set, [3, 1, 2, 4]);
        assert_eq!(shift_in(&mut set, 0, 3), 3);
        assert_eq!(set, [3, 1, 2, 4]);
    }

    #[test]
    fn fill_evicts_the_tail() {
        let mut set = [1, 2, 3];
        assert_eq!(shift_in(&mut set, 2, 9), 3);
        assert_eq!(set, [9, 1, 2]);
    }
}
