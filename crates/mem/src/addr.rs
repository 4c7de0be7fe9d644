//! Address primitives: virtual addresses, page numbers, cache lines.
//!
//! The simulator models a 64-bit virtual address space with 4 KiB pages and
//! 64-byte cache lines, matching the x86-64 machine used in the paper.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Size of a simulated page in bytes (4 KiB, x86-64 base pages).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;
/// Size of a simulated huge page in bytes (2 MiB, x86-64 PMD pages).
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;
/// log2 of [`HUGE_PAGE_SIZE`].
pub const HUGE_PAGE_SHIFT: u32 = 21;
/// Base (4 KiB) pages per huge page.
pub const HUGE_PAGE_PAGES: u64 = HUGE_PAGE_SIZE / PAGE_SIZE;

/// A virtual address in the simulated address space.
///
/// `VirtAddr` is a transparent `u64` newtype ([C-NEWTYPE]): it prevents
/// accidentally mixing simulated addresses with host pointers or plain
/// counters. Arithmetic that makes sense for addresses (offsetting by a byte
/// count) is provided via `Add<u64>`/`Sub<u64>`.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{VirtAddr, PAGE_SIZE};
///
/// let a = VirtAddr::new(3 * PAGE_SIZE + 17);
/// assert_eq!(a.page().index(), 3);
/// assert_eq!(a.page_offset(), 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// The null address. Never returned by a successful `mmap`.
    pub const NULL: VirtAddr = VirtAddr(0);

    /// Creates a virtual address from a raw `u64`.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw `u64` value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the page containing this address.
    #[inline]
    pub const fn page(self) -> PageNum {
        PageNum(self.0 >> PAGE_SHIFT)
    }

    /// Returns the byte offset of this address within its page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Returns the cache-line number containing this address.
    #[inline]
    pub const fn line(self) -> u64 {
        self.0 >> LINE_SHIFT
    }

    /// Returns `true` if the address is page aligned.
    #[inline]
    pub const fn is_page_aligned(self) -> bool {
        self.0 & (PAGE_SIZE - 1) == 0
    }

    /// Offsets the address by `bytes`, checking for overflow.
    ///
    /// Returns `None` on overflow of the 64-bit address space.
    #[inline]
    pub fn checked_add(self, bytes: u64) -> Option<VirtAddr> {
        self.0.checked_add(bytes).map(VirtAddr)
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtAddr {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn sub(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 - rhs)
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

impl From<VirtAddr> for u64 {
    fn from(addr: VirtAddr) -> u64 {
        addr.0
    }
}

/// A virtual page number (virtual address divided by the page size).
///
/// # Examples
///
/// ```
/// use tiersim_mem::{PageNum, VirtAddr, PAGE_SIZE};
///
/// let pn = PageNum::new(7);
/// assert_eq!(pn.base(), VirtAddr::new(7 * PAGE_SIZE));
/// assert_eq!(pn.next().index(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(u64);

impl PageNum {
    /// Creates a page number from a raw index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        PageNum(index)
    }

    /// Returns the raw page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the first virtual address of this page.
    #[inline]
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the page following this one.
    #[inline]
    pub const fn next(self) -> PageNum {
        PageNum(self.0 + 1)
    }

    /// Rounds this page number down to its 2 MiB huge-page boundary.
    #[inline]
    pub const fn huge_head(self) -> PageNum {
        PageNum(self.0 & !(HUGE_PAGE_PAGES - 1))
    }

    /// Returns `true` if this page is on a 2 MiB huge-page boundary.
    #[inline]
    pub const fn is_huge_head(self) -> bool {
        self.0 & (HUGE_PAGE_PAGES - 1) == 0
    }
}

impl fmt::Display for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{}", self.0)
    }
}

/// Identifier of a simulated (virtual) hardware thread.
///
/// The simulator is single-threaded; `ThreadId` attributes each access in
/// the stream to one of the workload's logical threads, exactly as the
/// paper's perf samples carry the originating hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u16);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Returns the number of pages needed to hold `bytes` (rounding up).
///
/// # Examples
///
/// ```
/// use tiersim_mem::pages_for;
/// assert_eq!(pages_for(1), 1);
/// assert_eq!(pages_for(4096), 1);
/// assert_eq!(pages_for(4097), 2);
/// assert_eq!(pages_for(0), 0);
/// ```
#[inline]
pub const fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_and_offset_roundtrip() {
        let a = VirtAddr::new(5 * PAGE_SIZE + 123);
        assert_eq!(a.page(), PageNum::new(5));
        assert_eq!(a.page_offset(), 123);
        assert_eq!(a.page().base() + a.page_offset(), a);
    }

    #[test]
    fn line_numbering() {
        assert_eq!(VirtAddr::new(0).line(), 0);
        assert_eq!(VirtAddr::new(63).line(), 0);
        assert_eq!(VirtAddr::new(64).line(), 1);
        assert_eq!(VirtAddr::new(PAGE_SIZE).line(), PAGE_SIZE / LINE_SIZE);
    }

    #[test]
    fn alignment_helpers() {
        assert!(VirtAddr::new(PAGE_SIZE).is_page_aligned());
        assert!(!VirtAddr::new(PAGE_SIZE + 1).is_page_aligned());
    }

    #[test]
    fn address_arithmetic() {
        let a = VirtAddr::new(100);
        assert_eq!((a + 28).raw(), 128);
        assert_eq!((a + 28) - a, 28);
        assert_eq!(VirtAddr::new(u64::MAX).checked_add(1), None);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(2 * PAGE_SIZE), 2);
        assert_eq!(pages_for(2 * PAGE_SIZE + 1), 3);
    }

    #[test]
    fn huge_page_geometry() {
        assert_eq!(HUGE_PAGE_SIZE, 1 << HUGE_PAGE_SHIFT);
        assert_eq!(HUGE_PAGE_PAGES, 512);
        assert_eq!(PageNum::new(512).huge_head(), PageNum::new(512));
        assert_eq!(PageNum::new(1023).huge_head(), PageNum::new(512));
        assert!(PageNum::new(1024).is_huge_head());
        assert!(!PageNum::new(1025).is_huge_head());
    }
}
