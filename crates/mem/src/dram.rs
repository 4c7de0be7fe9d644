//! DRAM device model with per-bank open-row buffers.

use crate::config::DramTimings;

/// DRAM latency model: open-row policy with one row buffer per bank.
///
/// Consecutive accesses to the same DRAM row hit the open row and are
/// served at `read_hit`; switching rows costs `read_miss` (precharge +
/// activate). This yields the sequential-vs-random latency spread measured
/// for DRAM in the paper's background (§2.1).
///
/// # Examples
///
/// ```
/// use tiersim_mem::{DramModel, DramTimings};
///
/// let t = DramTimings {
///     banks: 2, row_bytes: 4096,
///     read_hit: 160, read_miss: 245, write_hit: 160, write_miss: 245,
/// };
/// let mut d = DramModel::new(t);
/// let first = d.read(0);       // row miss
/// let second = d.read(64);     // same row: hit
/// assert!(first > second);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    timings: DramTimings,
    row_shift: u32,
    /// Open row per bank; `u64::MAX` = closed.
    open_rows: Vec<u64>,
}

impl DramModel {
    /// Creates a DRAM model with the given timings.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` or `banks` is not a power of two (validated
    /// configurations never are).
    pub fn new(timings: DramTimings) -> Self {
        assert!(timings.row_bytes.is_power_of_two());
        assert!(timings.banks.is_power_of_two());
        DramModel {
            timings,
            row_shift: timings.row_bytes.trailing_zeros(),
            open_rows: vec![u64::MAX; timings.banks],
        }
    }

    /// Opens the row holding `addr` in its bank; `true` if it was open
    /// already. Rows interleave across banks so sequential streams engage
    /// all banks; the bank count is a power of two, so the row's low bits
    /// pick the bank.
    #[inline]
    fn open_row(&mut self, addr: u64) -> bool {
        let row = addr >> self.row_shift;
        let bank = (row & (self.open_rows.len() as u64 - 1)) as usize;
        // tiersim-analyze: allow(panic-reach) — masked by the bank count, a power of two
        std::mem::replace(&mut self.open_rows[bank], row) == row
    }

    /// Serves a 64-byte read at byte address `addr`; returns the latency in
    /// cycles.
    pub fn read(&mut self, addr: u64) -> u64 {
        if self.open_row(addr) {
            self.timings.read_hit
        } else {
            self.timings.read_miss
        }
    }

    /// Serves a 64-byte write at byte address `addr`; returns the (posted)
    /// latency in cycles.
    pub fn write(&mut self, addr: u64) -> u64 {
        if self.open_row(addr) {
            self.timings.write_hit
        } else {
            self.timings.write_miss
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramTimings {
            banks: 4,
            row_bytes: 4096,
            read_hit: 100,
            read_miss: 200,
            write_hit: 110,
            write_miss: 210,
        })
    }

    #[test]
    fn sequential_reads_hit_open_row() {
        let mut d = model();
        assert_eq!(d.read(0), 200); // cold
        assert_eq!(d.read(64), 100);
        assert_eq!(d.read(128), 100);
    }

    #[test]
    fn row_conflict_in_same_bank_misses() {
        let mut d = model();
        d.read(0); // bank 0, row 0
                   // Row 4 maps to bank 0 (4 % 4 banks) — conflicts with row 0.
        assert_eq!(d.read(4 * 4096), 200);
    }

    #[test]
    fn different_banks_keep_rows_open() {
        let mut d = model();
        d.read(0); // bank 0
        d.read(4096); // bank 1
        assert_eq!(d.read(64), 100); // bank 0 row still open
    }

    #[test]
    fn writes_charge_write_latencies() {
        let mut d = model();
        assert_eq!(d.write(0), 210);
        assert_eq!(d.write(64), 110);
    }
}
