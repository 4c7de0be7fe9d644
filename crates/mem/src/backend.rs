//! The `MemBackend` trait: how workloads issue simulated memory traffic.

use crate::addr::{ThreadId, VirtAddr};

/// A sink for simulated memory operations.
///
/// Workload code (graph algorithms, builders) is written against this
/// trait so the same code can run on the full machine (charging caches,
/// TLB, devices, OS events) or on a free "null" backend for verification.
///
/// Implementations are expected to be infallible from the workload's point
/// of view: page faults and reclaim are serviced internally by the machine,
/// exactly as hardware+OS are invisible to a real application.
pub trait MemBackend {
    /// Maps a region of `len` bytes and returns its base address.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the simulated virtual address space is
    /// exhausted (practically unreachable).
    fn mmap(&mut self, len: u64, label: &str) -> VirtAddr;

    /// Unmaps the region based at `addr`.
    fn munmap(&mut self, addr: VirtAddr);

    /// Issues a load of `bytes` bytes at `addr`.
    fn load(&mut self, addr: VirtAddr, bytes: u32);

    /// Issues a store of `bytes` bytes at `addr`.
    fn store(&mut self, addr: VirtAddr, bytes: u32);

    /// Issues `count` sequential loads of one `stride`-byte element each,
    /// element `i` at `addr + i * stride`.
    ///
    /// The default implementation is the plain per-element loop. A backend
    /// may override it to schedule the run in chunks, but every element
    /// must still get the memory-system result (level, tier, TLB outcome,
    /// cycles, statistics) the loop would give it at the same clock. Only
    /// the clock advance and periodic housekeeping may be deferred, and
    /// only to chunk boundaries that are a pure function of the run and
    /// the backend's state.
    fn load_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        for i in 0..count {
            self.load(addr + i * u64::from(stride), stride);
        }
    }

    /// Issues `count` sequential stores of one `stride`-byte element
    /// each; the batched dual of [`MemBackend::load_run`].
    fn store_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        for i in 0..count {
            self.store(addr + i * u64::from(stride), stride);
        }
    }

    /// Sets the logical thread subsequent operations are attributed to.
    fn set_thread(&mut self, _tid: ThreadId) {}

    /// Charges `cycles` of pure compute (no memory) work.
    fn cpu_work(&mut self, _cycles: u64) {}

    /// Current simulated time in cycles (0 for backends without a clock).
    fn now_cycles(&self) -> u64 {
        0
    }
}

/// A backend that performs no simulation: `mmap` hands out distinct
/// addresses and all traffic is merely counted.
///
/// Useful for running the graph algorithms at host speed (reference
/// results) and for unit-testing workload code.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{MemBackend, NullBackend};
///
/// let mut b = NullBackend::new();
/// let a = b.mmap(100, "x");
/// let c = b.mmap(100, "y");
/// assert_ne!(a, c);
/// b.load(a, 8);
/// assert_eq!(b.loads(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NullBackend {
    next: u64,
    loads: u64,
    stores: u64,
    mmaps: u64,
}

impl NullBackend {
    /// Creates a null backend.
    pub fn new() -> Self {
        NullBackend { next: crate::vma::MMAP_BASE, loads: 0, stores: 0, mmaps: 0 }
    }

    /// Number of loads issued.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of stores issued.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Number of regions mapped.
    pub fn mmaps(&self) -> u64 {
        self.mmaps
    }
}

impl MemBackend for NullBackend {
    fn mmap(&mut self, len: u64, _label: &str) -> VirtAddr {
        let addr = VirtAddr::new(self.next);
        let len = crate::addr::pages_for(len).max(1) * crate::addr::PAGE_SIZE;
        self.next += len + crate::addr::PAGE_SIZE;
        self.mmaps += 1;
        addr
    }

    fn munmap(&mut self, _addr: VirtAddr) {}

    fn load(&mut self, _addr: VirtAddr, _bytes: u32) {
        self.loads += 1;
    }

    fn store(&mut self, _addr: VirtAddr, _bytes: u32) {
        self.stores += 1;
    }

    fn load_run(&mut self, _addr: VirtAddr, _stride: u32, count: u64) {
        self.loads += count;
    }

    fn store_run(&mut self, _addr: VirtAddr, _stride: u32, count: u64) {
        self.stores += count;
    }
}

impl<B: MemBackend + ?Sized> MemBackend for &mut B {
    fn mmap(&mut self, len: u64, label: &str) -> VirtAddr {
        (**self).mmap(len, label)
    }
    fn munmap(&mut self, addr: VirtAddr) {
        (**self).munmap(addr)
    }
    fn load(&mut self, addr: VirtAddr, bytes: u32) {
        (**self).load(addr, bytes)
    }
    fn store(&mut self, addr: VirtAddr, bytes: u32) {
        (**self).store(addr, bytes)
    }
    fn load_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        (**self).load_run(addr, stride, count)
    }
    fn store_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        (**self).store_run(addr, stride, count)
    }
    fn set_thread(&mut self, tid: ThreadId) {
        (**self).set_thread(tid)
    }
    fn cpu_work(&mut self, cycles: u64) {
        (**self).cpu_work(cycles)
    }
    fn now_cycles(&self) -> u64 {
        (**self).now_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_backend_hands_out_disjoint_regions() {
        let mut b = NullBackend::new();
        let a = b.mmap(8192, "a");
        let c = b.mmap(1, "b");
        assert!(c.raw() >= a.raw() + 8192);
        assert_eq!(b.mmaps(), 2);
    }

    #[test]
    fn run_defaults_match_per_element_loop() {
        /// Override-free backend: exercises the default `*_run` loops.
        #[derive(Default)]
        struct Plain {
            log: Vec<(u64, u32, bool)>,
        }
        impl MemBackend for Plain {
            fn mmap(&mut self, _len: u64, _label: &str) -> VirtAddr {
                VirtAddr::new(crate::vma::MMAP_BASE)
            }
            fn munmap(&mut self, _addr: VirtAddr) {}
            fn load(&mut self, addr: VirtAddr, bytes: u32) {
                self.log.push((addr.raw(), bytes, false));
            }
            fn store(&mut self, addr: VirtAddr, bytes: u32) {
                self.log.push((addr.raw(), bytes, true));
            }
        }
        let mut a = Plain::default();
        let mut b = Plain::default();
        let base = a.mmap(64, "x");
        a.load_run(base, 8, 5);
        a.store_run(base + 64, 4, 3);
        for i in 0..5 {
            b.load(base + i * 8, 8);
        }
        for i in 0..3 {
            b.store(base + 64 + i * 4, 4);
        }
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn null_backend_bulk_counts_match_loop() {
        let mut bulk = NullBackend::new();
        let mut looped = NullBackend::new();
        let a = bulk.mmap(4096, "a");
        looped.mmap(4096, "a");
        bulk.load_run(a, 8, 100);
        bulk.store_run(a, 8, 40);
        for i in 0..100 {
            looped.load(a + i * 8, 8);
        }
        for i in 0..40 {
            looped.store(a + i * 8, 8);
        }
        assert_eq!(bulk.loads(), looped.loads());
        assert_eq!(bulk.stores(), looped.stores());
    }

    #[test]
    fn counts_traffic() {
        let mut b = NullBackend::new();
        let a = b.mmap(64, "a");
        b.load(a, 4);
        b.store(a, 4);
        b.store(a, 4);
        assert_eq!(b.loads(), 1);
        assert_eq!(b.stores(), 2);
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        fn use_backend<B: MemBackend>(b: &mut B) -> VirtAddr {
            b.mmap(16, "z")
        }
        let mut b = NullBackend::new();
        let via_ref = use_backend(&mut &mut b);
        assert_ne!(via_ref, VirtAddr::NULL);
        let dyn_b: &mut dyn MemBackend = &mut b;
        dyn_b.load(via_ref, 8);
        assert_eq!(b.loads(), 1);
    }
}
