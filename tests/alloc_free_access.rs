//! The resident access path does not touch the heap: once a vector's
//! pages are faulted in, element stores, element loads and a chunked
//! `fill` allocate nothing but the sample buffer's growth. A counting
//! global allocator counts per thread, so other tests cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tiersim::core::{Machine, MachineConfig};
use tiersim::mem::SimVec;
use tiersim::policy::TieringMode;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts `alloc` calls; the default `alloc_zeroed` and `realloc` go
/// through `alloc`, so every growth is counted too.
struct Counting;

// SAFETY: forwards to `System`; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Per phase (`set` loop, `get` loop, chunked `fill` over a warmed
/// 32K-element vector): its name, heap allocations, and the sample count
/// before and after.
fn phases(sample_period: u64) -> Vec<(&'static str, u64, usize, usize)> {
    let mut cfg = MachineConfig::scaled_default(64 << 20, TieringMode::AutoNuma);
    cfg.sample_period = sample_period;
    let mut m = Machine::new(cfg).expect("machine");
    let n = 32 << 10;
    let mut v = SimVec::new(&mut m, "data", n, 0u64);
    let mut out = Vec::new();
    // The first round faults every page in; the second is measured.
    for round in 0..2 {
        let mut phase = |name, m: &mut Machine, f: &mut dyn FnMut(&mut Machine)| {
            let (start, before) = (ALLOCS.with(Cell::get), m.samples().len());
            f(m);
            let allocs = ALLOCS.with(Cell::get) - start;
            out.extend((round == 1).then_some((name, allocs, before, m.samples().len())));
        };
        phase("set", &mut m, &mut |m| (0..n).for_each(|i| v.set(m, i, i as u64)));
        let mut sum = 0;
        phase("get", &mut m, &mut |m| sum = (0..n).map(|i| v.get(m, i)).sum::<u64>());
        phase("fill", &mut m, &mut |m| v.fill(m, std::hint::black_box(sum)));
    }
    out
}

#[test]
fn warmed_accesses_allocate_nothing_without_samples() {
    for (name, allocs, before, after) in phases(1 << 40) {
        assert_eq!((before, after), (0, 0), "{name}: a sample was taken");
        assert_eq!(allocs, 0, "{name}: the resident access path allocated");
    }
}

#[test]
fn warmed_accesses_allocate_only_for_sample_growth() {
    let default = MachineConfig::scaled_default(64 << 20, TieringMode::AutoNuma).sample_period;
    for (name, allocs, before, after) in phases(default) {
        assert!(after > before, "{name}: no sample was taken");
        // Each growth of the push-only sample buffer at least doubles its
        // capacity, which is at least `before`.
        let growths = (0..).take_while(|&k| before.max(1) << k < after).count() as u64;
        assert!(allocs <= growths, "{name}: {allocs} allocations, {growths} buffer growths");
    }
}
