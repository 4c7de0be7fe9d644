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
//!
//! Each structure keeps its sets back to back in one array and
//! dispatches on its width once per call: at the widths of the scaled
//! default machine (8-way caches, 4- and 8-way TLB levels, the 16-entry
//! NVM buffer) the set is one `[u64; W]` chunk of that array, so its
//! length is a constant and both the tag search and the shift below
//! unroll into straight-line code; every other width takes the same code
//! as a loop over a run-time slice ([`ANY`]).

/// The width parameter of [`set_mut`] for a set whose width is known only
/// at run time.
pub(crate) const ANY: usize = 0;

/// Set `index` of `entries`, an array of `ways`-entry sets back to back.
///
/// With `W == ways` the set is one `[u64; W]` chunk of the array, a slice
/// whose length the compiler knows; with `W == ANY` it is a slice of run-
/// time length.
///
/// # Panics
///
/// Panics if `index` is not a set of `entries`; every caller masks the
/// index with its set count minus one, and holds exactly that many sets.
#[inline(always)]
pub(crate) fn set_mut<const W: usize>(
    entries: &mut [u64],
    ways: usize,
    index: usize,
) -> &mut [u64] {
    if W == ANY {
        let base = index * ways;
        // tiersim-analyze: allow(panic-reach) — `index` is a set of the array (see # Panics)
        &mut entries[base..base + ways]
    } else {
        debug_assert_eq!(W, ways, "a fixed width names the set's own width");
        // tiersim-analyze: allow(panic-reach) — `index` is a set of the array (see # Panics)
        &mut entries.as_chunks_mut::<W>().0[index]
    }
}

/// Searches `set` for the entry `matches` accepts, from the front. A hit
/// moves that entry to the front, rewritten by `hit`, and returns `None`;
/// a miss shifts `fill` in at the front and returns the entry that fell
/// off the tail.
#[inline(always)]
pub(crate) fn touch(
    set: &mut [u64],
    matches: impl Fn(u64) -> bool,
    hit: impl FnOnce(u64) -> u64,
    fill: u64,
) -> Option<u64> {
    match set.iter().copied().enumerate().find(|&(_, entry)| matches(entry)) {
        Some((pos, entry)) => {
            shift_in(set, pos, hit(entry));
            None
        }
        None => Some(shift_in(set, set.len() - 1, fill)),
    }
}

/// Writes `entry` into slot 0 of `set`, shifting slots `0..pos` back one
/// place, and returns what slot `pos` held.
///
/// With `pos` an entry's own slot this is a move-to-front (slot 0 makes
/// it a single store); with `pos = set.len() - 1` it is a fill that
/// returns the victim.
///
/// The shift carries each entry forward in a register: the entry going
/// in replaces slot 0, whose old entry replaces slot 1, and so on up to
/// `pos`, whose old entry comes back out. It visits every slot and keeps
/// those past `pos`, so on a set of constant width the loop unrolls into
/// straight-line loads, selects and stores. LLVM recognises the backward
/// copy loop (`set[i] = set[i - 1]` for `i` from `pos` down) as a
/// `memmove` idiom and calls the library on every hit and fill, however
/// short the set; `slice::rotate_right` and `copy_within` compile to
/// out-of-line calls too.
///
/// # Panics
///
/// Panics if `pos` is not a slot of `set`; every caller passes a slot it
/// just found or the tail of a non-empty set.
#[inline(always)]
pub(crate) fn shift_in(set: &mut [u64], pos: usize, entry: u64) -> u64 {
    // tiersim-analyze: allow(panic-reach) — `pos` is a slot of the set (see # Panics)
    assert!(pos < set.len(), "slot {pos} of a {}-entry set", set.len());
    let mut carry = entry;
    for (i, slot) in set.iter_mut().enumerate() {
        if i <= pos {
            carry = std::mem::replace(slot, carry);
        }
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backward copy loop `shift_in` replaced, kept as its oracle.
    fn shift_in_backward(set: &mut [u64], pos: usize, entry: u64) -> u64 {
        let old = set[pos];
        let mut i = pos;
        while i > 0 {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[0] = entry;
        old
    }

    #[test]
    fn matches_the_backward_loop_at_every_length_and_slot() {
        // A 64-bit LCG: small contents so sets repeat entries too.
        let mut state = 0x5eed_u64;
        let mut draw = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            state >> 59
        };
        for len in 1..=16 {
            for pos in 0..len {
                for _ in 0..8 {
                    let before: Vec<u64> = (0..len).map(|_| draw()).collect();
                    let entry = draw();
                    let (mut got, mut want) = (before.clone(), before.clone());
                    assert_eq!(
                        shift_in(&mut got, pos, entry),
                        shift_in_backward(&mut want, pos, entry),
                        "len {len} pos {pos} set {before:?}"
                    );
                    assert_eq!(got, want, "len {len} pos {pos} set {before:?}");
                }
            }
        }
    }

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

    #[test]
    fn a_slot_past_the_end_panics_at_every_width() {
        for len in [3, 4, 8, 12] {
            let mut set = vec![0; len];
            let shifted = std::panic::catch_unwind(move || shift_in(&mut set, len, 1));
            assert!(shifted.is_err(), "len {len}");
        }
    }

    #[test]
    fn fixed_and_run_time_sets_are_the_same_slots() {
        let mut entries: Vec<u64> = (0..32).collect();
        for index in 0..4 {
            let fixed = set_mut::<8>(&mut entries, 8, index).to_vec();
            assert_eq!(fixed, set_mut::<ANY>(&mut entries, 8, index));
            assert_eq!(fixed[0], index as u64 * 8);
        }
    }

    #[test]
    fn touch_moves_a_hit_to_the_front_and_fills_a_miss() {
        let mut set = [1, 2, 3, 4];
        assert_eq!(touch(&mut set, |e| e == 3, |e| e + 10, 0), None);
        assert_eq!(set, [13, 1, 2, 4]);
        assert_eq!(touch(&mut set, |e| e == 9, |e| e, 9), Some(4));
        assert_eq!(set, [9, 13, 1, 2]);
    }
}
