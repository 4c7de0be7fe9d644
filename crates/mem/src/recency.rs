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
/// returns the victim.
///
/// The shift carries each entry forward in a register: the entry going
/// in replaces slot 0, whose old entry replaces slot 1, and so on up to
/// `pos`, whose old entry comes back out. LLVM recognises the backward
/// copy loop (`set[i] = set[i - 1]` for `i` from `pos` down) as a
/// `memmove` idiom and calls the library on every hit and fill, however
/// short the set; `slice::rotate_right` and `copy_within` compile to
/// out-of-line calls too. 4- and 8-entry sets, every cache and TLB set
/// of the scaled default machine, take a fully unrolled shift; other
/// widths take the carry loop.
///
/// # Panics
///
/// Panics if `pos` is not a slot of `set`; every caller passes a slot it
/// just found or the tail of a non-empty set.
#[inline(always)]
pub(crate) fn shift_in(set: &mut [u64], pos: usize, entry: u64) -> u64 {
    if let Ok(set) = <&mut [u64; 4]>::try_from(&mut *set) {
        return shift_fixed(set, pos, entry);
    }
    if let Ok(set) = <&mut [u64; 8]>::try_from(&mut *set) {
        return shift_fixed(set, pos, entry);
    }
    // tiersim-analyze: allow(panic-reach) — `pos` is a slot of the set (see # Panics)
    set[..=pos].iter_mut().fold(entry, |carry, slot| std::mem::replace(slot, carry))
}

/// [`shift_in`] on a set of constant width, so the carry chain unrolls
/// into straight-line loads and stores.
#[inline(always)]
fn shift_fixed<const N: usize>(set: &mut [u64; N], pos: usize, entry: u64) -> u64 {
    // tiersim-analyze: allow(panic-reach) — `pos` is a slot of the set (see `shift_in`)
    assert!(pos < N, "slot {pos} of a {N}-entry set");
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
}
