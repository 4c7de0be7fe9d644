//! The assembled machine: memory system + OS model + profiler behind one
//! [`MemBackend`].

use crate::config::MachineConfig;
use crate::error::{CoreError, RunError};
use crate::timeline::TimelineSnapshot;
use tiersim_mem::{
    AccessError, AccessKind, MemBackend, MemPolicy, MemorySystem, ThreadId, Tier, TraceLog,
    VirtAddr, PAGE_SIZE,
};
use tiersim_os::{AutoNuma, NumaStat};
use tiersim_policy::{
    aggregate_by_label, plan_static, DynamicObjectConfig, Placement, TieringMode,
};
use tiersim_profile::{AllocTracker, Sampler};

/// Syscall overhead charged per `mmap`/`munmap`, in cycles (~0.5 µs).
const SYSCALL_COST_CYCLES: u64 = 1_300;

/// Elements per batched run chunk ([`Machine::run`]): large enough to
/// amortize the plain-window scan and the clock advance, small enough
/// that OS housekeeping — which runs at chunk boundaries in batched
/// mode — stays timely.
const RUN_CHUNK_ELEMS: u64 = 4_096;

/// The simulated machine for one run.
///
/// `Machine` implements [`MemBackend`], so graph workloads written against
/// `tiersim-graph` run on it unchanged. Every load/store goes through the
/// TLB/cache/device pipeline, drives the AutoNUMA engine (faults, hint
/// faults, periodic work), feeds the PEBS-style sampler, and advances the
/// simulated clock by `cost / threads` (an ideal parallel interleave of
/// the logical threads).
///
/// # Examples
///
/// ```
/// use tiersim_core::{Machine, MachineConfig};
/// use tiersim_mem::{MemBackend, SimVec};
/// use tiersim_policy::TieringMode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = MachineConfig::scaled_default(1 << 20, TieringMode::AutoNuma);
/// let mut m = Machine::new(cfg)?;
/// let mut v = SimVec::new(&mut m, "data", 1024, 0u64);
/// v.set(&mut m, 7, 42);
/// assert_eq!(v.get(&mut m, 7), 42);
/// assert!(m.now_cycles() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    os: AutoNuma,
    sampler: Sampler,
    tracker: AllocTracker,
    clock_cycles: u64,
    /// Remainder accumulator for the cost/threads division.
    clock_rem: u64,
    cur_thread: ThreadId,
    os_next_event: u64,
    /// `min(os_next_event, next_snapshot, next_replan)`: the clock at
    /// which housekeeping next has work. Refreshed wherever one of the
    /// three deadlines moves.
    next_housekeeping: u64,
    /// OS engine ticks taken so far — the stuck-cell watchdog's meter.
    os_ticks: u64,
    // Timeline machinery.
    timeline: Vec<TimelineSnapshot>,
    next_snapshot: u64,
    window_busy_cycles: u64,
    window_start_cycles: u64,
    // Dynamic object-level tiering (extension).
    dynamic: Option<DynamicObjectConfig>,
    next_replan: u64,
    replan_sample_idx: usize,
    // Totals.
    busy_cycles: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] (or wrapped mem/os errors) if
    /// the configuration is inconsistent.
    pub fn new(cfg: MachineConfig) -> Result<Machine, CoreError> {
        cfg.validate()?;
        let mut os_cfg = cfg.os.clone();
        os_cfg.autonuma_enabled = cfg.mode.autonuma_enabled();
        let mut mem_cfg = cfg.mem.clone();
        if matches!(cfg.mode, TieringMode::MemoryMode) {
            mem_cfg.memory_mode = true;
        }
        let mem = MemorySystem::new(mem_cfg)?;
        let os = AutoNuma::new(os_cfg)?;
        let os_next_event = os.next_event();
        let next_snapshot = cfg.timeline_period_cycles;
        let dynamic = match &cfg.mode {
            TieringMode::DynamicObject(d) => {
                d.validate()
                    .map_err(|what| CoreError::InvalidConfig { what, got: format!("{d:?}") })?;
                Some(*d)
            }
            _ => None,
        };
        let mut m = Machine {
            mem,
            os,
            sampler: Sampler::new(cfg.sample_period),
            tracker: AllocTracker::new(),
            clock_cycles: 0,
            clock_rem: 0,
            cur_thread: ThreadId(0),
            os_next_event,
            next_housekeeping: 0,
            os_ticks: 0,
            timeline: Vec::new(),
            next_snapshot,
            next_replan: dynamic.map_or(u64::MAX, |d| d.replan_interval_cycles),
            dynamic,
            replan_sample_idx: 0,
            window_busy_cycles: 0,
            window_start_cycles: 0,
            busy_cycles: 0,
            cfg,
        };
        m.refresh_next_housekeeping();
        Ok(m)
    }

    /// The configuration this machine runs with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time in cycles.
    pub fn now_cycles(&self) -> u64 {
        self.clock_cycles
    }

    /// Current simulated time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.cfg.mem.cycles_to_secs(self.clock_cycles)
    }

    /// OS engine ticks taken so far — the deterministic progress meter
    /// behind the stuck-cell watchdog and the tuner's rung budgets.
    pub fn os_ticks(&self) -> u64 {
        self.os_ticks
    }

    /// The memory system (read-only observability).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The OS engine (read-only observability).
    pub fn os(&self) -> &AutoNuma {
        &self.os
    }

    /// Runs the tiersim-audit invariant checks (frame ownership, tier
    /// capacity, TLB coherence, VMA coverage, counter conservation laws)
    /// against the current machine state. Read-only; works in any build.
    pub fn audit(&self) -> tiersim_os::AuditReport {
        self.os.audit(&self.mem)
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> &[tiersim_profile::MemSample] {
        self.sampler.samples()
    }

    /// Total accesses the sampler observed (sampled or not).
    pub fn sampler_observed(&self) -> u64 {
        self.sampler.observed()
    }

    /// The allocation tracker.
    pub fn tracker(&self) -> &AllocTracker {
        &self.tracker
    }

    /// Timeline snapshots recorded so far.
    pub fn timeline(&self) -> &[TimelineSnapshot] {
        &self.timeline
    }

    /// Total cycles the workload threads spent busy (compute + memory
    /// stalls), across all threads.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Advances the wall clock by `cost` thread-cycles of parallel work.
    #[inline]
    fn advance_parallel(&mut self, cost: u64) {
        self.window_busy_cycles += cost;
        self.charge_parallel(cost);
        self.housekeeping();
    }

    /// Charges `cost` thread-cycles of parallel work to the busy total and
    /// the wall clock, without housekeeping: the one place the clock
    /// divides by the thread count.
    #[inline]
    fn charge_parallel(&mut self, cost: u64) {
        self.busy_cycles += cost;
        let total = cost + self.clock_rem;
        self.clock_cycles += total / self.cfg.threads as u64;
        self.clock_rem = total % self.cfg.threads as u64;
    }

    /// Advances the wall clock by `cycles` of single-threaded wall time
    /// (I/O wait: other threads idle).
    fn advance_wall(&mut self, cycles: u64) {
        self.clock_cycles += cycles;
        self.housekeeping();
    }

    fn refresh_next_housekeeping(&mut self) {
        self.next_housekeeping = self.os_next_event.min(self.next_snapshot).min(self.next_replan);
    }

    /// Runs whatever OS, timeline or replan work the clock has reached:
    /// one compare per access until the earliest deadline.
    #[inline]
    fn housekeeping(&mut self) {
        if self.clock_cycles >= self.next_housekeeping {
            self.housekeeping_due();
        } else {
            debug_assert!(
                self.clock_cycles < self.os_next_event
                    && self.clock_cycles < self.next_snapshot
                    && self.clock_cycles < self.next_replan,
                "a housekeeping deadline passed unseen"
            );
        }
    }

    #[cold]
    #[inline(never)]
    fn housekeeping_due(&mut self) {
        if self.clock_cycles >= self.os_next_event {
            self.os.tick(&mut self.mem, self.clock_cycles);
            self.os_next_event = self.os.next_event();
            self.os_ticks += 1;
            // Deterministic stuck-cell watchdog: OS engine ticks are a pure
            // function of simulated progress, so the same runaway workload
            // trips the budget at the same tick on every host and `--jobs`.
            if self.cfg.tick_budget > 0 && self.os_ticks > self.cfg.tick_budget {
                std::panic::panic_any(RunError::Stuck {
                    ticks: self.os_ticks,
                    budget: self.cfg.tick_budget,
                });
            }
        }
        if self.clock_cycles >= self.next_snapshot {
            self.snapshot();
            self.next_snapshot = self.clock_cycles + self.cfg.timeline_period_cycles;
        }
        if self.clock_cycles >= self.next_replan {
            self.replan_objects();
        }
        self.refresh_next_housekeeping();
    }

    /// One pass of the dynamic object-level tierer (extension): re-rank
    /// live objects from the samples collected since the previous pass and
    /// migrate whole objects toward the new plan, bounded by the
    /// per-interval page budget.
    fn replan_objects(&mut self) {
        let Some(dcfg) = self.dynamic else { return };
        self.next_replan = self.clock_cycles + dcfg.replan_interval_cycles;
        let window = &self.sampler.samples()[self.replan_sample_idx..];
        self.replan_sample_idx = self.sampler.samples().len();
        if window.is_empty() {
            return;
        }
        let mapped = tiersim_profile::map_samples(&self.tracker, window);
        let stats = aggregate_by_label(&mapped);
        let budget = (self.cfg.mem.dram_capacity as f64 * dcfg.dram_headroom) as u64;
        let plan = plan_static(&stats, budget, true);

        // Snapshot the live objects before mutating the memory system.
        let live: Vec<(VirtAddr, u64, std::sync::Arc<str>)> = self
            .tracker
            .records()
            .iter()
            .filter(|r| r.free_time.is_none())
            .map(|r| (r.addr, r.len, std::sync::Arc::clone(&r.site)))
            .collect();

        let mut migrated = 0u64;
        let mut bg_cycles = 0u64;
        'objects: for (base, len, site) in live {
            let placement = plan.placement.placement_for(&site);
            let pages = tiersim_mem::pages_for(len);
            for i in 0..pages {
                if migrated >= dcfg.max_migrate_pages {
                    break 'objects;
                }
                let pn = (base + i * PAGE_SIZE).page();
                let Some(info) = self.mem.page(pn) else { continue };
                let want = match placement {
                    Placement::Dram => Tier::Dram,
                    Placement::Nvm => Tier::Nvm,
                    Placement::Split { dram_bytes } => {
                        if i * PAGE_SIZE < dram_bytes {
                            Tier::Dram
                        } else {
                            Tier::Nvm
                        }
                    }
                };
                if info.tier != want {
                    if let Ok(copy) = self.mem.migrate_page(pn, want) {
                        migrated += 1;
                        bg_cycles += copy + dcfg.migrate_overhead_cycles;
                    }
                }
            }
        }
        // move_pages runs on the calling thread: charge it as parallel
        // work so the replan pass costs simulated time. It stays out of the
        // timeline window's utilization, and housekeeping is not re-entered.
        self.charge_parallel(bg_cycles);
    }

    fn snapshot(&mut self) {
        let wall = (self.clock_cycles - self.window_start_cycles).max(1);
        let util =
            (self.window_busy_cycles as f64 / (wall as f64 * self.cfg.threads as f64)).min(1.0);
        let threshold_cycles = self.os.threshold_cycles();
        let rate_tokens_bytes = self.os.rate_available_bytes(self.clock_cycles);
        self.timeline.push(TimelineSnapshot {
            time_secs: self.cfg.mem.cycles_to_secs(self.clock_cycles),
            numastat: NumaStat::collect(&self.mem),
            counters: self.os.counters(),
            cpu_util: util,
            threshold_cycles,
            rate_tokens_bytes,
        });
        // Mirror the per-interval state into the trace's metrics registry
        // so exported traces carry the same series as the timeline.
        let trace = self.mem.trace_mut();
        trace.set_now(self.clock_cycles);
        trace.set_gauge("threshold_cycles", threshold_cycles);
        trace.set_gauge("rate_tokens_bytes", rate_tokens_bytes);
        trace.snapshot_metrics();
        self.window_busy_cycles = 0;
        self.window_start_cycles = self.clock_cycles;
    }

    /// Forces a snapshot now (the runner marks phase ends).
    pub fn snapshot_now(&mut self) {
        self.snapshot();
        self.next_snapshot = self.clock_cycles + self.cfg.timeline_period_cycles;
        self.refresh_next_housekeeping();
    }

    /// Reads `bytes` from the simulated graph file through the OS page
    /// cache, advancing the clock by the I/O wait (single-threaded, low
    /// CPU — the paper's load phase in Figure 9).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Os`] on unrecoverable placement failure.
    pub fn file_read(&mut self, bytes: u64) -> Result<(), CoreError> {
        // Read in 1 MiB slices so page-cache pressure and reclaim
        // interleave as they would during a long streaming read.
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(1 << 20);
            let (_, wait) = self.os.file_read(&mut self.mem, chunk, self.clock_cycles)?;
            self.advance_wall(wait);
            remaining -= chunk;
        }
        Ok(())
    }

    /// Applies the static-object placement (if any) to a fresh mapping.
    fn apply_placement(&mut self, addr: VirtAddr, len: u64, label: &str) {
        let placement = match &self.cfg.mode {
            TieringMode::StaticObject(plan) => plan.placement.placement_for(label),
            TieringMode::AllDram => Placement::Dram,
            // Memory Mode: all pages nominally live on NVM; the DRAM line
            // cache inside the memory system does the rest.
            TieringMode::AllNvm | TieringMode::MemoryMode => Placement::Nvm,
            // Dynamic mode starts from first-touch; the replanner moves
            // objects once samples accumulate.
            TieringMode::AutoNuma | TieringMode::FirstTouch | TieringMode::DynamicObject(_) => {
                return
            }
        };
        let rounded = tiersim_mem::pages_for(len) * PAGE_SIZE;
        let result = match placement {
            Placement::Dram => {
                self.mem.set_policy_range(addr, rounded, MemPolicy::Bind(Tier::Dram))
            }
            Placement::Nvm => self.mem.set_policy_range(addr, rounded, MemPolicy::Bind(Tier::Nvm)),
            Placement::Split { dram_bytes } => {
                let head = (dram_bytes / PAGE_SIZE * PAGE_SIZE).min(rounded);
                if head > 0 {
                    self.mem
                        .set_policy_range(addr, head, MemPolicy::Bind(Tier::Dram))
                        // tiersim-lint: allow(unwrap) — the mapping was created just above.
                        .expect("fresh mapping accepts policy");
                }
                if head < rounded {
                    self.mem.set_policy_range(
                        addr + head,
                        rounded - head,
                        MemPolicy::Bind(Tier::Nvm),
                    )
                } else {
                    Ok(())
                }
            }
        };
        // tiersim-lint: allow(unwrap) — the mapping was created just above.
        result.expect("fresh mapping accepts policy");
    }

    #[inline(always)]
    fn op(&mut self, addr: VirtAddr, kind: AccessKind) {
        let outcome = loop {
            match self.mem.access(addr, kind, self.clock_cycles) {
                Ok(o) => break o,
                Err(e) => self.service_fault(addr, e),
            }
        };
        let os_cost = self.os.on_access(&mut self.mem, &outcome, self.clock_cycles);
        self.sampler.observe(kind, &outcome, addr, self.cur_thread, self.clock_cycles);
        self.advance_parallel(self.cfg.cpu_cycles_per_op + outcome.cycles + os_cost);
    }

    /// Services the fault an access to `addr` raised, so the access can be
    /// retried. Out of line: the resident path in [`Machine::op`] never
    /// calls it.
    #[cold]
    #[inline(never)]
    fn service_fault(&mut self, addr: VirtAddr, err: AccessError) {
        match err {
            AccessError::Fault(pf) => {
                let res = match self.os.handle_fault(&mut self.mem, pf, self.clock_cycles) {
                    Ok(res) => res,
                    // The access path sits below the infallible
                    // `MemBackend` trait, so raise a typed payload that
                    // `run_workload` converts into `CoreError::Run` —
                    // the cell fails, the process survives.
                    Err(e) => std::panic::panic_any(RunError::UnrecoverableFault {
                        addr: addr.to_string(),
                        mode: self.cfg.mode.to_string(),
                        source: e,
                    }),
                };
                self.advance_parallel(res.cost_cycles);
            }
            AccessError::Segfault { addr } => {
                std::panic::panic_any(RunError::Segfault { addr: addr.to_string() })
            }
        }
    }

    /// Batched execution of a sequential run — the engine behind
    /// [`MemBackend::load_run`]/[`MemBackend::store_run`] on the full
    /// machine.
    ///
    /// Elements that can do something *special* — fault on a non-resident
    /// page, raise an AutoNUMA hint fault, or land on the sampler's next
    /// due sample — take the exact per-element [`Machine::op`] path one at
    /// a time. Everything else is provably plain (resident hint-free
    /// pages, sampler not due, so `AutoNuma::on_access` would be an exact
    /// no-op) and runs in chunks: each element goes through
    /// [`MemorySystem::access`] exactly as [`Machine::op`] would issue it,
    /// and the chunk's cycles are summed into one clock advance.
    ///
    /// Semantic note (DESIGN.md §12): within a chunk the clock is frozen
    /// at the chunk's start and OS housekeeping runs at chunk boundaries,
    /// so periodic OS events can fire up to one chunk late relative to
    /// the per-element machine. The schedule remains a pure function of
    /// workload + configuration: identical across hosts and `--jobs`
    /// values.
    fn run(&mut self, addr: VirtAddr, stride: u32, count: u64, kind: AccessKind) {
        let stride64 = u64::from(stride.max(1));
        let mut i = 0u64;
        while i < count {
            let a = addr + i * stride64;
            // Cap the plain-page scan at what a full chunk could touch.
            let cap = ((RUN_CHUNK_ELEMS * stride64) >> tiersim_mem::PAGE_SHIFT) as usize + 2;
            let window_pages = self.mem.plain_window(a.page(), cap);
            let due = self.sampler.until_due();
            if window_pages == 0 || due == 1 {
                // Non-resident or hinted first page, or the next access
                // records a sample: exact path for this element.
                self.op(a, kind);
                i += 1;
                continue;
            }
            let window_end = (a.page().index() + window_pages as u64) << tiersim_mem::PAGE_SHIFT;
            let max_in_window = (window_end - 1 - a.raw()) / stride64 + 1;
            let chunk = (count - i).min(RUN_CHUNK_ELEMS).min(max_in_window).min(due - 1);
            let now = self.clock_cycles;
            let mut cycles = 0;
            for k in 0..chunk {
                match self.mem.access(a + k * stride64, kind, now) {
                    Ok(out) => {
                        debug_assert!(!out.hint_fault, "hint fault inside a plain window");
                        cycles += out.cycles;
                    }
                    Err(e) => {
                        // The window held only resident pages and nothing
                        // in MemorySystem::access unmaps them.
                        // tiersim-analyze: allow(panic-reach) — window residency is established above
                        unreachable!("fault inside a resident plain window: {e:?}")
                    }
                }
            }
            self.sampler.observe_gap(chunk);
            self.advance_parallel(self.cfg.cpu_cycles_per_op * chunk + cycles);
            i += chunk;
        }
    }

    /// Decomposes the machine into its profiling artifacts:
    /// `(samples, tracker, timeline, trace)`.
    pub fn into_artifacts(
        self,
    ) -> (Vec<tiersim_profile::MemSample>, AllocTracker, Vec<TimelineSnapshot>, TraceLog) {
        (self.sampler.into_samples(), self.tracker, self.timeline, self.mem.trace().log())
    }
}

impl MemBackend for Machine {
    fn mmap(&mut self, len: u64, label: &str) -> VirtAddr {
        // MemBackend::mmap is infallible by contract; exhausting the
        // 2^47-byte virtual space is a workload-authoring bug.
        let addr =
            self.mem.mmap(len, MemPolicy::Default, label).expect("virtual address space exhausted"); // tiersim-lint: allow(unwrap)
        self.apply_placement(addr, len, label);
        self.tracker.on_mmap(addr, len, label, self.clock_cycles);
        self.advance_parallel(SYSCALL_COST_CYCLES);
        addr
    }

    fn munmap(&mut self, addr: VirtAddr) {
        // Unmapping an address the workload never mapped is a
        // workload-authoring bug, not a runtime condition.
        // tiersim-lint: allow(unwrap)
        self.mem.munmap(addr).expect("munmap of unknown region");
        self.tracker.on_munmap(addr, self.clock_cycles);
        self.advance_parallel(SYSCALL_COST_CYCLES);
    }

    fn load(&mut self, addr: VirtAddr, _bytes: u32) {
        self.op(addr, AccessKind::Load);
    }

    fn store(&mut self, addr: VirtAddr, _bytes: u32) {
        self.op(addr, AccessKind::Store);
    }

    fn load_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run(addr, stride, count, AccessKind::Load);
    }

    fn store_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run(addr, stride, count, AccessKind::Store);
    }

    fn set_thread(&mut self, tid: ThreadId) {
        self.cur_thread = tid;
    }

    fn cpu_work(&mut self, cycles: u64) {
        self.advance_parallel(cycles);
    }

    fn now_cycles(&self) -> u64 {
        self.clock_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::SimVec;
    use tiersim_policy::{plan_static, LabelStats};

    fn machine(mode: TieringMode) -> Machine {
        Machine::new(MachineConfig::scaled_default(4 << 20, mode)).unwrap()
    }

    #[test]
    fn clock_advances_with_work() {
        let mut m = machine(TieringMode::AutoNuma);
        let t0 = m.now_cycles();
        let mut v = SimVec::new(&mut m, "v", 4096, 0u8);
        for i in 0..4096 {
            v.set(&mut m, i, 1);
        }
        assert!(m.now_cycles() > t0);
        assert!(m.busy_cycles() > 0);
    }

    #[test]
    fn default_mode_places_dram_first() {
        let mut m = machine(TieringMode::AutoNuma);
        let mut v = SimVec::new(&mut m, "v", 1024, 0u64);
        v.set(&mut m, 0, 1);
        assert_eq!(m.mem().used_pages(Tier::Dram), 1);
        assert_eq!(m.mem().used_pages(Tier::Nvm), 0);
    }

    #[test]
    fn static_plan_binds_objects() {
        let stats = vec![
            LabelStats { label: "hot".into(), bytes: PAGE_SIZE, samples: 100, nvm_samples: 0 },
            LabelStats { label: "cold".into(), bytes: PAGE_SIZE, samples: 1, nvm_samples: 0 },
        ];
        let plan = plan_static(&stats, PAGE_SIZE, false);
        let mut m = machine(TieringMode::StaticObject(plan));
        let mut hot = SimVec::new(&mut m, "hot", 100, 0u8);
        let mut cold = SimVec::new(&mut m, "cold", 100, 0u8);
        hot.set(&mut m, 0, 1);
        cold.set(&mut m, 0, 1);
        assert_eq!(m.mem().page(hot.base().page()).unwrap().tier, Tier::Dram);
        assert_eq!(m.mem().page(cold.base().page()).unwrap().tier, Tier::Nvm);
    }

    #[test]
    fn split_placement_spans_tiers() {
        let mut plan = plan_static(&[], 0, false);
        plan.placement
            .insert("split", tiersim_policy::Placement::Split { dram_bytes: 2 * PAGE_SIZE });
        let mut m = machine(TieringMode::StaticObject(plan));
        let mut v = SimVec::new(&mut m, "split", 4 * PAGE_SIZE as usize, 0u8);
        for p in 0..4 {
            v.set(&mut m, p * PAGE_SIZE as usize, 1);
        }
        let base = v.base();
        assert_eq!(m.mem().page(base.page()).unwrap().tier, Tier::Dram);
        assert_eq!(m.mem().page((base + PAGE_SIZE).page()).unwrap().tier, Tier::Dram);
        assert_eq!(m.mem().page((base + 2 * PAGE_SIZE).page()).unwrap().tier, Tier::Nvm);
        assert_eq!(m.mem().page((base + 3 * PAGE_SIZE).page()).unwrap().tier, Tier::Nvm);
    }

    #[test]
    fn all_nvm_mode_binds_everything() {
        let mut m = machine(TieringMode::AllNvm);
        let mut v = SimVec::new(&mut m, "v", 100, 0u8);
        v.set(&mut m, 0, 1);
        assert_eq!(m.mem().used_pages(Tier::Dram), 0);
        assert_eq!(m.mem().used_pages(Tier::Nvm), 1);
    }

    #[test]
    fn file_read_advances_time_and_fills_cache() {
        let mut m = machine(TieringMode::AutoNuma);
        let t0 = m.now_cycles();
        m.file_read(64 * PAGE_SIZE).unwrap();
        assert!(m.now_cycles() >= t0 + 64 * m.config().os.disk_read_cycles_per_page);
        assert_eq!(m.os().counters().page_cache_filled, 64);
    }

    #[test]
    fn sampler_records_loads() {
        let mut m = Machine::new({
            let mut c = MachineConfig::scaled_default(4 << 20, TieringMode::AutoNuma);
            c.sample_period = 10;
            c
        })
        .unwrap();
        let v = SimVec::new(&mut m, "v", 4096, 0u8);
        for i in 0..1000 {
            v.get(&mut m, i);
        }
        assert!(m.samples().len() >= 99, "got {}", m.samples().len());
    }

    #[test]
    fn batched_scans_still_service_hint_faults() {
        // The batched run path must stop at HINT-marked pages so the exact
        // per-element path services the NUMA hint fault: a workload that
        // only ever uses `scan`/`fill` (load_run/store_run) still produces
        // hint faults once the AutoNUMA scanner has marked its pages.
        let mut m = machine(TieringMode::AutoNuma);
        let mut v = SimVec::new(&mut m, "v", 1 << 15, 0u64); // 64 pages
        v.fill(&mut m, 1);
        let mut scans = 0;
        while m.os().counters().numa_hint_faults == 0 && scans < 500 {
            v.scan(&mut m, |_, _| {});
            scans += 1;
        }
        assert!(
            m.os().counters().numa_hint_faults > 0,
            "no hint faults serviced after {scans} batched scans"
        );
    }

    #[test]
    fn batched_scan_samples_match_per_element() {
        // Sampling is exact under batching: the run path bulk-skips the
        // inter-sample gap and routes each due element through the exact
        // per-element path, so the sampled address sequence is identical
        // to a machine that never batches.
        let cfg = || {
            let mut c = MachineConfig::scaled_default(4 << 20, TieringMode::AutoNuma);
            c.sample_period = 13;
            c
        };
        let mut batched = Machine::new(cfg()).unwrap();
        let mut element = Machine::new(cfg()).unwrap();
        let vb = SimVec::new(&mut batched, "v", 1 << 15, 0u64);
        let ve = SimVec::new(&mut element, "v", 1 << 15, 0u64);
        for _ in 0..2 {
            vb.scan(&mut batched, |_, _| {});
        }
        for _ in 0..2 {
            for i in 0..ve.len() {
                ve.get(&mut element, i);
            }
        }
        let ab: Vec<_> = batched.samples().iter().map(|s| s.addr).collect();
        let ae: Vec<_> = element.samples().iter().map(|s| s.addr).collect();
        assert!(!ab.is_empty());
        assert_eq!(ab, ae);
        assert_eq!(batched.sampler_observed(), element.sampler_observed());
    }

    #[test]
    fn dynamic_mode_migrates_objects_toward_plan() {
        let dcfg = tiersim_policy::DynamicObjectConfig {
            replan_interval_cycles: 50_000,
            ..Default::default()
        };
        let mut cfg = MachineConfig::scaled_default(2 << 20, TieringMode::DynamicObject(dcfg));
        cfg.sample_period = 13; // dense samples so the window sees the object
        let mut m = Machine::new(cfg).unwrap();
        // A hot object faulted onto NVM (DRAM-first will place it in DRAM,
        // so pre-fill DRAM with a cold filler first).
        let filler = SimVec::new(&mut m, "cold.filler", (2 << 20) as usize, 0u8);
        for i in (0..filler.len()).step_by(PAGE_SIZE as usize) {
            filler.get(&mut m, i);
        }
        let hot = SimVec::new(&mut m, "hot.array", 16 * PAGE_SIZE as usize, 0u8);
        for round in 0..2000 {
            let i = (round * 97) % hot.len();
            hot.get(&mut m, i);
        }
        // The replanner migrated the hot object's touched pages to DRAM.
        let dram_pages = (0..16)
            .filter(|&i| {
                m.mem()
                    .page((hot.base() + i * PAGE_SIZE).page())
                    .is_some_and(|p| p.tier == Tier::Dram)
            })
            .count();
        assert!(dram_pages >= 8, "most hot pages in DRAM, got {dram_pages}");
    }

    #[test]
    fn timeline_snapshots_accumulate() {
        let mut m = Machine::new({
            let mut c = MachineConfig::scaled_default(4 << 20, TieringMode::AutoNuma);
            c.timeline_period_cycles = 10_000;
            c
        })
        .unwrap();
        let mut v = SimVec::new(&mut m, "v", 1 << 16, 0u64);
        for i in 0..(1 << 16) {
            v.set(&mut m, i, 1);
        }
        assert!(m.timeline().len() >= 2);
        let t: Vec<f64> = m.timeline().iter().map(|s| s.time_secs).collect();
        assert!(t.windows(2).all(|w| w[0] < w[1]), "snapshots in time order");
    }
}
