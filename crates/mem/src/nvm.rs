//! NVM (Optane-like) device model with a 256-byte internal buffer.

use crate::config::NvmTimings;
use crate::recency::{set_mut, touch, ANY};

/// NVM latency model: a small fully-associative buffer of 256-byte media
/// blocks (the Optane "XPBuffer") in front of slow media.
///
/// Sequential streams reuse buffered blocks (four 64 B lines per block) and
/// see roughly 2x DRAM latency; random accesses miss the buffer and see
/// roughly 3x, matching the measurements the paper cites (ref \[8\]). Writes
/// are more expensive than reads and sub-256 B writes cause write
/// amplification, which is tracked in [`NvmModel::media_blocks_written`].
///
/// # Examples
///
/// ```
/// use tiersim_mem::{NvmModel, NvmTimings};
///
/// let t = NvmTimings {
///     buffer_entries: 4, block_bytes: 256,
///     read_hit: 330, read_miss: 930, write_hit: 420, write_miss: 1250,
/// };
/// let mut n = NvmModel::new(t);
/// assert_eq!(n.read(0), 930);   // media access
/// assert_eq!(n.read(64), 330);  // same 256B block: buffered
/// ```
#[derive(Debug, Clone)]
pub struct NvmModel {
    timings: NvmTimings,
    block_shift: u32,
    /// Fully-associative LRU buffer: `buffer_entries` block numbers in
    /// recency order, MRU first, empty slots at the tail (see `recency`).
    buffer: Vec<u64>,
    /// 64 B lines written.
    lines_written: u64,
    media_blocks_written: u64,
}

/// An empty buffer slot: no address reaches block `u64::MAX`.
const EMPTY: u64 = u64::MAX;

impl NvmModel {
    /// Creates an NVM model with the given timings.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two or
    /// `buffer_entries == 0` (validated configurations never do).
    pub fn new(timings: NvmTimings) -> Self {
        assert!(timings.block_bytes.is_power_of_two());
        assert!(timings.buffer_entries > 0);
        NvmModel {
            timings,
            block_shift: timings.block_bytes.trailing_zeros(),
            buffer: vec![EMPTY; timings.buffer_entries],
            lines_written: 0,
            media_blocks_written: 0,
        }
    }

    /// Number of 256-byte media blocks written, including write
    /// amplification: every 64 B line written to an unbuffered block costs a
    /// whole media block (the read-modify-write the paper's §2.1 describes).
    pub fn media_blocks_written(&self) -> u64 {
        self.media_blocks_written
    }

    /// Write-amplification factor: media bytes written / requested bytes.
    pub fn write_amplification(&self) -> f64 {
        let requested = self.lines_written * crate::addr::LINE_SIZE;
        if requested == 0 {
            return 0.0;
        }
        (self.media_blocks_written * self.timings.block_bytes) as f64 / requested as f64
    }

    /// `true` if the block was buffered; moves it to the front, inserting
    /// it there on a miss (the tail falls out).
    fn touch_buffer(&mut self, block: u64) -> bool {
        match self.buffer.len() {
            16 => self.touch_in::<16>(block),
            _ => self.touch_in::<ANY>(block),
        }
    }

    /// [`NvmModel::touch_buffer`] on a `W`-entry buffer (see
    /// `recency::set_mut`): the buffer is one set.
    #[inline(always)]
    fn touch_in<const W: usize>(&mut self, block: u64) -> bool {
        let ways = self.buffer.len();
        touch(set_mut::<W>(&mut self.buffer, ways, 0), |b| b == block, |b| b, block).is_none()
    }

    /// Serves a 64-byte read at byte address `addr`; returns the latency in
    /// cycles.
    pub fn read(&mut self, addr: u64) -> u64 {
        let block = addr >> self.block_shift;
        if self.touch_buffer(block) {
            self.timings.read_hit
        } else {
            self.timings.read_miss
        }
    }

    /// Serves a 64-byte write at byte address `addr`; returns the (posted)
    /// latency in cycles.
    pub fn write(&mut self, addr: u64) -> u64 {
        let block = addr >> self.block_shift;
        self.lines_written += 1;
        if self.touch_buffer(block) {
            self.timings.write_hit
        } else {
            // Unbuffered sub-block write: read-modify-write of a media block.
            self.media_blocks_written += 1;
            self.timings.write_miss
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NvmModel {
        NvmModel::new(NvmTimings {
            buffer_entries: 2,
            block_bytes: 256,
            read_hit: 300,
            read_miss: 900,
            write_hit: 400,
            write_miss: 1200,
        })
    }

    #[test]
    fn sequential_lines_share_a_block() {
        let mut n = model();
        assert_eq!(n.read(0), 900);
        assert_eq!(n.read(64), 300);
        assert_eq!(n.read(128), 300);
        assert_eq!(n.read(192), 300);
        assert_eq!(n.read(256), 900); // next block
    }

    #[test]
    fn random_reads_miss_small_buffer() {
        let mut n = model();
        for i in 0..8 {
            assert_eq!(n.read(i * 4096), 900);
        }
    }

    #[test]
    fn lru_keeps_most_recent_blocks() {
        let mut n = model();
        n.read(0); // block 0
        n.read(256); // block 1
        n.read(0); // block 0 hit, now MRU
        n.read(512); // block 2 evicts block 1
        assert_eq!(n.read(0), 300);
        assert_eq!(n.read(256), 900);
    }

    fn buffered(entries: usize) -> NvmModel {
        NvmModel::new(NvmTimings { buffer_entries: entries, ..model().timings })
    }

    proptest::proptest! {
        /// The fixed-size recency array hits and misses exactly like the
        /// `Vec` it replaced (remove + insert at the front, pop the tail
        /// when full), and holds the same blocks in the same order, op by
        /// op: at 2 entries (the run-time-width path) and at the default
        /// 16 (the fixed-width path), each over more distinct blocks than
        /// it holds, so both evict.
        #[test]
        fn buffer_matches_the_vec_model(
            wide in proptest::bool::ANY,
            blocks in proptest::collection::vec(0u64..40, 1..400),
        ) {
            let (mut n, distinct) = if wide { (buffered(16), 40) } else { (buffered(2), 12) };
            let mut list: Vec<u64> = Vec::new();
            for block in blocks.into_iter().map(|b| b % distinct) {
                let want = match list.iter().position(|&b| b == block) {
                    Some(pos) => {
                        list.remove(pos);
                        true
                    }
                    None => {
                        if list.len() == n.timings.buffer_entries {
                            list.pop();
                        }
                        false
                    }
                };
                list.insert(0, block);
                proptest::prop_assert_eq!(n.touch_buffer(block), want);
                let held: Vec<u64> = n.buffer.iter().copied().filter(|&b| b != EMPTY).collect();
                proptest::prop_assert_eq!(&held, &list);
            }
        }
    }

    #[test]
    fn write_amplification_on_random_writes() {
        let mut n = model();
        for i in 0..4 {
            n.write(i * 4096);
        }
        // 4 lines of 64 B requested, 4 media blocks of 256 B written.
        assert_eq!(n.media_blocks_written(), 4);
        assert!((n.write_amplification() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_writes_avoid_amplification() {
        let mut n = model();
        n.write(0);
        n.write(64);
        n.write(128);
        n.write(192);
        // Only the first 64 B write missed the buffer.
        assert_eq!(n.media_blocks_written(), 1);
    }
}
