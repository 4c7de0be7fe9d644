//! `SimVec<T>`: a host-backed vector whose accesses charge the simulator.

use crate::addr::VirtAddr;
use crate::backend::MemBackend;

/// A fixed-length vector living at a simulated address.
///
/// Element reads and writes perform the real operation on a host `Vec<T>`
/// *and* issue the corresponding simulated memory traffic through a
/// [`MemBackend`], so workloads compute correct results while the machine
/// model observes their exact access stream.
///
/// The backend is passed per call rather than stored, keeping `SimVec`
/// free of interior mutability and letting many vectors share one machine
/// mutably ([C-CALLER-CONTROL]).
///
/// # Examples
///
/// ```
/// use tiersim_mem::{NullBackend, SimVec};
///
/// let mut m = NullBackend::new();
/// let mut v = SimVec::new(&mut m, "ranks", 4, 0u32);
/// v.set(&mut m, 2, 7);
/// assert_eq!(v.get(&mut m, 2), 7);
/// assert_eq!(m.loads(), 1);
/// assert_eq!(m.stores(), 1);
/// ```
#[derive(Debug)]
pub struct SimVec<T> {
    base: VirtAddr,
    data: Vec<T>,
}

impl<T: Copy> SimVec<T> {
    /// Allocates a simulated region for `len` elements, filled with
    /// `init`. The allocation itself is an `mmap` the profiler sees as an
    /// object named `label`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` elements would still require an allocation of
    /// zero bytes (allowed: an empty `SimVec` maps one page), or on
    /// virtual address-space exhaustion inside the backend.
    pub fn new<B: MemBackend>(backend: &mut B, label: &str, len: usize, init: T) -> Self {
        let bytes = (len * size_of::<T>()).max(1) as u64;
        let base = backend.mmap(bytes, label);
        SimVec { base, data: vec![init; len] }
    }

    /// Builds a `SimVec` from existing host data.
    pub fn from_vec<B: MemBackend>(backend: &mut B, label: &str, data: Vec<T>) -> Self {
        let bytes = (data.len() * size_of::<T>()).max(1) as u64;
        let base = backend.mmap(bytes, label);
        SimVec { base, data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated base address.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// The simulated address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> VirtAddr {
        self.base + (i * size_of::<T>()) as u64
    }

    /// Reads element `i`, charging a simulated load.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get<B: MemBackend>(&self, backend: &mut B, i: usize) -> T {
        let v = self.data[i];
        backend.load(self.addr_of(i), size_of::<T>() as u32);
        v
    }

    /// Writes element `i`, charging a simulated store.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set<B: MemBackend>(&mut self, backend: &mut B, i: usize, value: T) {
        self.data[i] = value;
        backend.store(self.addr_of(i), size_of::<T>() as u32);
    }

    /// Read-modify-write of element `i` (one load + one store).
    #[inline]
    pub fn update<B: MemBackend>(
        &mut self,
        backend: &mut B,
        i: usize,
        f: impl FnOnce(T) -> T,
    ) -> T {
        let old = self.get(backend, i);
        let new = f(old);
        self.set(backend, i, new);
        new
    }

    /// Fills the whole vector, charging a sequential store stream (the
    /// backend may batch it; equivalent to [`SimVec::set`] in a loop).
    pub fn fill<B: MemBackend>(&mut self, backend: &mut B, value: T) {
        self.data.fill(value);
        backend.store_run(self.base, size_of::<T>() as u32, self.data.len() as u64);
    }

    /// Visits every element in index order, charging one sequential load
    /// stream (the backend may batch it).
    ///
    /// Equivalent to calling [`SimVec::get`] for `0..len()`; use it for
    /// pure read sweeps — index scans, reduction passes — so backends
    /// that schedule runs in chunks can do so. The visitor must not touch
    /// the backend.
    pub fn scan<B: MemBackend>(&self, backend: &mut B, mut f: impl FnMut(usize, T)) {
        backend.load_run(self.base, size_of::<T>() as u32, self.data.len() as u64);
        for (i, &v) in self.data.iter().enumerate() {
            f(i, v);
        }
    }

    /// Host-side view of the data, free of simulation charges. Use for
    /// result verification only.
    pub fn host(&self) -> &[T] {
        &self.data
    }

    /// Consumes the vector, unmapping its region and returning the host
    /// data.
    pub fn into_host<B: MemBackend>(self, backend: &mut B) -> Vec<T> {
        backend.munmap(self.base);
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NullBackend;

    #[test]
    fn read_after_write_matches_host() {
        let mut m = NullBackend::new();
        let mut v = SimVec::new(&mut m, "v", 10, 0i64);
        for i in 0..10 {
            v.set(&mut m, i, i as i64 * 3);
        }
        for i in 0..10 {
            assert_eq!(v.get(&mut m, i), i as i64 * 3);
        }
        assert_eq!(v.host(), &[0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }

    #[test]
    fn addresses_are_element_strided() {
        let mut m = NullBackend::new();
        let v = SimVec::new(&mut m, "v", 4, 0u16);
        assert_eq!(v.addr_of(0), v.base());
        assert_eq!(v.addr_of(3) - v.base(), 6);
    }

    #[test]
    fn distinct_vectors_do_not_overlap() {
        let mut m = NullBackend::new();
        let a = SimVec::new(&mut m, "a", 1024, 0u64);
        let b = SimVec::new(&mut m, "b", 1024, 0u64);
        let a_end = a.addr_of(1023) + 8;
        assert!(b.base() >= a_end);
    }

    #[test]
    fn update_is_load_plus_store() {
        let mut m = NullBackend::new();
        let mut v = SimVec::new(&mut m, "v", 1, 5u32);
        let new = v.update(&mut m, 0, |x| x + 1);
        assert_eq!(new, 6);
        assert_eq!(m.loads(), 1);
        assert_eq!(m.stores(), 1);
    }

    #[test]
    fn scan_visits_all_elements_and_charges_loads() {
        let mut m = NullBackend::new();
        let mut v = SimVec::new(&mut m, "v", 6, 0u64);
        for i in 0..6 {
            v.set(&mut m, i, i as u64 * 2);
        }
        let loads_before = m.loads();
        let mut seen = Vec::new();
        v.scan(&mut m, |i, x| seen.push((i, x)));
        assert_eq!(m.loads() - loads_before, 6);
        assert_eq!(seen, vec![(0, 0), (1, 2), (2, 4), (3, 6), (4, 8), (5, 10)]);
    }

    #[test]
    fn fill_charges_one_store_per_element() {
        let mut m = NullBackend::new();
        let mut v = SimVec::new(&mut m, "v", 9, 0u32);
        v.fill(&mut m, 7);
        assert_eq!(m.stores(), 9);
        assert!(v.host().iter().all(|&x| x == 7));
    }

    #[test]
    fn empty_vector_is_valid() {
        let mut m = NullBackend::new();
        let v = SimVec::new(&mut m, "e", 0, 0u8);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn from_vec_and_into_host_roundtrip() {
        let mut m = NullBackend::new();
        let v = SimVec::from_vec(&mut m, "v", vec![1u8, 2, 3]);
        assert_eq!(v.into_host(&mut m), vec![1, 2, 3]);
    }

    proptest::proptest! {
        #[test]
        fn prop_simvec_mirrors_host_vec(ops in proptest::collection::vec((0usize..32, 0u32..1000), 1..200)) {
            let mut m = NullBackend::new();
            let mut sv = SimVec::new(&mut m, "p", 32, 0u32);
            let mut hv = vec![0u32; 32];
            for (i, val) in ops {
                sv.set(&mut m, i, val);
                hv[i] = val;
                proptest::prop_assert_eq!(sv.get(&mut m, i), hv[i]);
            }
            proptest::prop_assert_eq!(sv.host(), hv.as_slice());
        }
    }
}
