//! A run holds its graph once: `run_workload` builds the CSR from the
//! generator's edge stream and moves it into simulated memory, so the
//! peak live heap of a whole run stays near one CSR. Holding the edge
//! list beside the CSR, or copying the CSR into the simulated arrays,
//! puts a second graph-sized buffer on the heap and about doubles the
//! peak. A counting global allocator tracks live and peak bytes per
//! thread, so other tests cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tiersim::core::{generate, run_workload, Dataset, Kernel, MachineConfig, WorkloadConfig};
use tiersim::graph::CsrGraph;
use tiersim::policy::TieringMode;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Tracks this thread's live heap bytes and their peak; the default
/// `alloc_zeroed` and `realloc` go through `alloc` and `dealloc`, so
/// every buffer is counted.
struct Counting;

// SAFETY: forwards to `System`; counting touches only const-initialized
// thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap bytes of the CSR arrays: 8 B per offset, 4 B per directed edge.
fn csr_bytes(g: &CsrGraph) -> usize {
    8 * (g.num_nodes() + 1) + 4 * g.num_edges()
}

#[test]
fn a_run_holds_its_graph_once() {
    // BFS on kron, scale 12: a CSR of about 0.55 MB, one short trial.
    let w = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(12).trials(1);
    let csr = csr_bytes(&CsrGraph::from_edges(&generate(&w), true));
    let cfg = MachineConfig::scaled_default(w.steady_app_bytes(), TieringMode::AutoNuma);

    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let report = run_workload(cfg, w).expect("run");
    let peak = PEAK.with(Cell::get) - base;
    drop(report);

    // One CSR plus the machine and the kernel's arrays measures about
    // 1.2 CSRs; a second copy of the edges measures about 2.1.
    assert!(peak >= csr, "the counter missed the graph: peak {peak} B, CSR {csr} B");
    assert!(peak < csr * 3 / 2, "peak live heap {peak} B holds more than one CSR of {csr} B");
}
