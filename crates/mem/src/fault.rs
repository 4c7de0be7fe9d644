//! Deterministic fault injection for the memory system.
//!
//! A [`FaultPlan`] describes *which* faults to inject — transient DRAM
//! allocation failures, EBUSY-style migration failures, NVM latency
//! spikes over a chosen page range, and reclaim stalls — and *when*:
//! each fault has a rate (out of [`RATE_ONE`]) and a simulated-cycle
//! window. A [`FaultState`] turns the plan into a deterministic stream
//! of injection decisions: every probabilistic decision is a hash of
//! the plan seed, an injection-site constant, and a per-site draw
//! counter, so two runs with identical configurations inject exactly
//! the same faults at exactly the same points and produce
//! byte-identical reports.
//!
//! The empty plan ([`FaultPlan::none`], also `Default`) is free: the
//! state caches an `enabled` flag and every hook is a branch on it, so
//! fault-free runs take no hash draws and behave exactly as before the
//! subsystem existed.

use crate::addr::PageNum;
use crate::error::MemError;
use crate::tier::Tier;

/// Denominator for all fault rates: a rate of `RATE_ONE` fires on
/// every draw, `RATE_ONE / 2` on roughly half of them.
pub const RATE_ONE: u32 = 65_536;

/// SplitMix64 finalizer; decorrelates (seed, site, counter) triples.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Injection-site constants keep the per-site draw streams independent:
/// adding a draw at one site never perturbs another site's stream.
const SITE_DRAM_ALLOC: u64 = 0x5f4a_0001;
const SITE_MIGRATE: u64 = 0x5f4a_0002;
const SITE_RECLAIM: u64 = 0x5f4a_0003;
const SITES: usize = 3;

/// A half-open window `[start, end)` of simulated cycles during which a
/// fault is armed. The default window covers the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleWindow {
    /// First cycle (inclusive) at which the fault may fire.
    pub start: u64,
    /// First cycle at which the fault no longer fires.
    pub end: u64,
}

impl CycleWindow {
    /// A window spanning the entire run.
    pub const ALWAYS: CycleWindow = CycleWindow { start: 0, end: u64::MAX };

    /// Whether `now` falls inside the window.
    #[must_use]
    pub fn contains(self, now: u64) -> bool {
        now >= self.start && now < self.end
    }
}

impl Default for CycleWindow {
    fn default() -> Self {
        CycleWindow::ALWAYS
    }
}

/// A seeded, fully deterministic fault-injection plan.
///
/// All rates are out of [`RATE_ONE`]; a rate of 0 disables that fault.
/// The all-zero-rate plan ([`FaultPlan::none`]) injects nothing and
/// costs nothing.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{FaultPlan, RATE_ONE};
///
/// let plan = FaultPlan { seed: 42, migrate_busy_per_64k: RATE_ONE / 8, ..FaultPlan::none() };
/// assert!(!plan.is_none());
/// plan.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw; identical seeds (with
    /// identical configs) reproduce identical fault streams.
    pub seed: u64,
    /// Rate of transient DRAM frame-allocation failures (the real
    /// kernel's `__alloc_pages` returning `NULL` under pressure).
    pub dram_alloc_fail_per_64k: u32,
    /// Window during which DRAM allocation failures are armed.
    pub dram_alloc_window: CycleWindow,
    /// Rate of EBUSY-style page-migration failures (a pinned or
    /// temporarily busy page that `migrate_pages()` refuses to move).
    pub migrate_busy_per_64k: u32,
    /// Window during which migration failures are armed.
    pub migrate_busy_window: CycleWindow,
    /// Latency multiplier applied to NVM device traffic touching the
    /// spike page range. `1` means no spike.
    pub nvm_spike_multiplier: u32,
    /// First page (by page number) of the NVM latency-spike range.
    pub nvm_spike_first_page: u64,
    /// Number of pages in the spike range; `0` disables the spike.
    pub nvm_spike_pages: u64,
    /// Window during which the NVM latency spike is armed.
    pub nvm_spike_window: CycleWindow,
    /// Rate of injected reclaim stalls (a demotion pass blocking on
    /// writeback or lock contention).
    pub reclaim_stall_per_64k: u32,
    /// Extra simulated cycles charged per injected reclaim stall.
    pub reclaim_stall_cycles: u64,
    /// Window during which reclaim stalls are armed.
    pub reclaim_stall_window: CycleWindow,
}

impl FaultPlan {
    /// The empty plan: nothing injected, zero overhead.
    #[must_use]
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dram_alloc_fail_per_64k: 0,
            dram_alloc_window: CycleWindow::ALWAYS,
            migrate_busy_per_64k: 0,
            migrate_busy_window: CycleWindow::ALWAYS,
            nvm_spike_multiplier: 1,
            nvm_spike_first_page: 0,
            nvm_spike_pages: 0,
            nvm_spike_window: CycleWindow::ALWAYS,
            reclaim_stall_per_64k: 0,
            reclaim_stall_cycles: 0,
            reclaim_stall_window: CycleWindow::ALWAYS,
        }
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.dram_alloc_fail_per_64k == 0
            && self.migrate_busy_per_64k == 0
            && (self.nvm_spike_multiplier <= 1 || self.nvm_spike_pages == 0)
            && self.reclaim_stall_per_64k == 0
    }

    /// Checks the plan for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] if a rate exceeds
    /// [`RATE_ONE`], the spike multiplier is zero, or a window is
    /// inverted.
    pub fn validate(&self) -> Result<(), MemError> {
        let rates = [
            ("fault dram alloc rate", self.dram_alloc_fail_per_64k),
            ("fault migrate busy rate", self.migrate_busy_per_64k),
            ("fault reclaim stall rate", self.reclaim_stall_per_64k),
        ];
        for (what, rate) in rates {
            if rate > RATE_ONE {
                return Err(MemError::InvalidConfig { what, got: format!("{rate} > {RATE_ONE}") });
            }
        }
        if self.nvm_spike_multiplier == 0 {
            return Err(MemError::InvalidConfig {
                what: "fault nvm spike multiplier",
                got: "0 (must be >= 1)".to_string(),
            });
        }
        let windows = [
            ("fault dram alloc window", self.dram_alloc_window),
            ("fault migrate busy window", self.migrate_busy_window),
            ("fault nvm spike window", self.nvm_spike_window),
            ("fault reclaim stall window", self.reclaim_stall_window),
        ];
        for (what, w) in windows {
            if w.start >= w.end {
                return Err(MemError::InvalidConfig {
                    what,
                    got: format!("[{}, {}) is empty", w.start, w.end),
                });
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counts of faults actually injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient DRAM allocation failures injected.
    pub dram_alloc_failures: u64,
    /// EBUSY migration failures injected.
    pub migrate_busy_failures: u64,
    /// NVM device operations slowed by the latency spike.
    pub nvm_spiked_ops: u64,
    /// Reclaim stalls injected.
    pub reclaim_stalls: u64,
}

/// Runtime state of the fault injector: the plan plus per-site draw
/// counters and injected-fault statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    plan: FaultPlan,
    /// Cached `!plan.is_none()`: the hot-path hooks are a single branch
    /// on this flag when injection is disabled.
    enabled: bool,
    /// Simulated clock, refreshed by the access/fault paths; hooks on
    /// clock-less paths (device traffic, migration) evaluate their
    /// windows against this.
    now: u64,
    draws: [u64; SITES],
    stats: FaultStats,
}

impl FaultState {
    /// Builds the injector state for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            enabled: !plan.is_none(),
            plan,
            now: 0,
            draws: [0; SITES],
            stats: FaultStats::default(),
        }
    }

    /// The plan driving this state.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault is armed at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counts of faults injected so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Advances the injector's view of the simulated clock. Monotonic:
    /// stale timestamps from out-of-order callers are ignored.
    pub fn set_now(&mut self, now: u64) {
        if now > self.now {
            self.now = now;
        }
    }

    /// One deterministic draw at `site`: hashes (seed, site, counter)
    /// and fires when the low 16 bits land under `rate`.
    fn draw(&mut self, site: u64, idx: usize, rate: u32) -> bool {
        let n = self.draws[idx];
        self.draws[idx] += 1;
        let h = mix(self.plan.seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ n);
        (h & 0xffff) < u64::from(rate)
    }

    /// Should this DRAM frame allocation fail transiently?
    pub fn dram_alloc_fails(&mut self, tier: Tier) -> bool {
        if !self.enabled
            || tier != Tier::Dram
            || self.plan.dram_alloc_fail_per_64k == 0
            || !self.plan.dram_alloc_window.contains(self.now)
        {
            return false;
        }
        let fires = self.draw(SITE_DRAM_ALLOC, 0, self.plan.dram_alloc_fail_per_64k);
        if fires {
            self.stats.dram_alloc_failures += 1;
        }
        fires
    }

    /// Should this page migration fail with EBUSY?
    pub fn migrate_busy(&mut self, _page: PageNum) -> bool {
        if !self.enabled
            || self.plan.migrate_busy_per_64k == 0
            || !self.plan.migrate_busy_window.contains(self.now)
        {
            return false;
        }
        let fires = self.draw(SITE_MIGRATE, 1, self.plan.migrate_busy_per_64k);
        if fires {
            self.stats.migrate_busy_failures += 1;
        }
        fires
    }

    /// Latency multiplier for NVM device traffic at byte address
    /// `addr`. Returns 1 unless the address falls in the spike range
    /// inside the spike window.
    pub fn nvm_multiplier(&mut self, addr: u64) -> u64 {
        if !self.enabled || self.plan.nvm_spike_pages == 0 || self.plan.nvm_spike_multiplier <= 1 {
            return 1;
        }
        if !self.plan.nvm_spike_window.contains(self.now) {
            return 1;
        }
        let page = addr >> crate::addr::PAGE_SHIFT;
        let first = self.plan.nvm_spike_first_page;
        if page >= first && page - first < self.plan.nvm_spike_pages {
            self.stats.nvm_spiked_ops += 1;
            u64::from(self.plan.nvm_spike_multiplier)
        } else {
            1
        }
    }

    /// Extra cycles to charge this reclaim pass (0 when no stall is
    /// injected).
    pub fn reclaim_stall_cycles(&mut self) -> u64 {
        if !self.enabled
            || self.plan.reclaim_stall_per_64k == 0
            || !self.plan.reclaim_stall_window.contains(self.now)
        {
            return 0;
        }
        if self.draw(SITE_RECLAIM, 2, self.plan.reclaim_stall_per_64k) {
            self.stats.reclaim_stalls += 1;
            self.plan.reclaim_stall_cycles
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none_and_validates() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        plan.validate().unwrap();
        assert_eq!(plan, FaultPlan::default());
        let mut st = FaultState::new(plan);
        assert!(!st.enabled());
        assert!(!st.dram_alloc_fails(Tier::Dram));
        assert!(!st.migrate_busy(PageNum::new(1)));
        assert_eq!(st.nvm_multiplier(0), 1);
        assert_eq!(st.reclaim_stall_cycles(), 0);
        assert_eq!(st.stats(), FaultStats::default());
        // No draws consumed: the disabled path is draw-free.
        assert_eq!(st.draws, [0; SITES]);
    }

    #[test]
    fn validate_rejects_bad_rates_multiplier_and_windows() {
        let over = FaultPlan { migrate_busy_per_64k: RATE_ONE + 1, ..FaultPlan::none() };
        assert!(matches!(
            over.validate(),
            Err(MemError::InvalidConfig { what: "fault migrate busy rate", .. })
        ));
        let zero_mult = FaultPlan { nvm_spike_multiplier: 0, ..FaultPlan::none() };
        assert!(zero_mult.validate().is_err());
        let inverted = FaultPlan {
            reclaim_stall_window: CycleWindow { start: 10, end: 10 },
            ..FaultPlan::none()
        };
        assert!(matches!(
            inverted.validate(),
            Err(MemError::InvalidConfig { what: "fault reclaim stall window", .. })
        ));
    }

    #[test]
    fn same_seed_same_stream() {
        let plan = FaultPlan { seed: 7, migrate_busy_per_64k: RATE_ONE / 4, ..FaultPlan::none() };
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(plan);
        let pa: Vec<bool> = (0..256).map(|i| a.migrate_busy(PageNum::new(i))).collect();
        let pb: Vec<bool> = (0..256).map(|i| b.migrate_busy(PageNum::new(i))).collect();
        assert_eq!(pa, pb);
        assert!(pa.iter().any(|&x| x), "rate 1/4 over 256 draws should fire");
        assert!(!pa.iter().all(|&x| x), "rate 1/4 should not always fire");
        assert_eq!(a.stats().migrate_busy_failures, pa.iter().filter(|&&x| x).count() as u64);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| FaultPlan { seed, migrate_busy_per_64k: RATE_ONE / 2, ..FaultPlan::none() };
        let mut a = FaultState::new(mk(1));
        let mut b = FaultState::new(mk(2));
        let pa: Vec<bool> = (0..128).map(|i| a.migrate_busy(PageNum::new(i))).collect();
        let pb: Vec<bool> = (0..128).map(|i| b.migrate_busy(PageNum::new(i))).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn sites_draw_independently() {
        // Consuming migrate draws must not shift the reclaim stream.
        let plan = FaultPlan {
            seed: 3,
            migrate_busy_per_64k: RATE_ONE / 2,
            reclaim_stall_per_64k: RATE_ONE / 2,
            reclaim_stall_cycles: 100,
            ..FaultPlan::none()
        };
        let mut interleaved = FaultState::new(plan);
        let mut alone = FaultState::new(plan);
        let mut got = Vec::new();
        for i in 0..64 {
            interleaved.migrate_busy(PageNum::new(i));
            got.push(interleaved.reclaim_stall_cycles());
        }
        let want: Vec<u64> = (0..64).map(|_| alone.reclaim_stall_cycles()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn windows_gate_injection() {
        let plan = FaultPlan {
            seed: 1,
            dram_alloc_fail_per_64k: RATE_ONE,
            dram_alloc_window: CycleWindow { start: 100, end: 200 },
            ..FaultPlan::none()
        };
        let mut st = FaultState::new(plan);
        assert!(!st.dram_alloc_fails(Tier::Dram), "before the window");
        st.set_now(150);
        assert!(st.dram_alloc_fails(Tier::Dram), "inside the window");
        assert!(!st.dram_alloc_fails(Tier::Nvm), "NVM allocations unaffected");
        st.set_now(250);
        assert!(!st.dram_alloc_fails(Tier::Dram), "after the window");
        // set_now is monotonic: stale timestamps cannot rewind.
        st.set_now(10);
        assert!(!st.dram_alloc_fails(Tier::Dram));
    }

    #[test]
    fn nvm_spike_targets_page_range() {
        use crate::addr::PAGE_SIZE;
        let plan = FaultPlan {
            nvm_spike_multiplier: 8,
            nvm_spike_first_page: 4,
            nvm_spike_pages: 2,
            ..FaultPlan::none()
        };
        let mut st = FaultState::new(plan);
        assert_eq!(st.nvm_multiplier(3 * PAGE_SIZE), 1);
        assert_eq!(st.nvm_multiplier(4 * PAGE_SIZE), 8);
        assert_eq!(st.nvm_multiplier(5 * PAGE_SIZE + 64), 8);
        assert_eq!(st.nvm_multiplier(6 * PAGE_SIZE), 1);
        assert_eq!(st.stats().nvm_spiked_ops, 2);
    }

    #[test]
    fn reclaim_stall_charges_cycles() {
        let plan = FaultPlan {
            seed: 9,
            reclaim_stall_per_64k: RATE_ONE,
            reclaim_stall_cycles: 777,
            ..FaultPlan::none()
        };
        let mut st = FaultState::new(plan);
        assert_eq!(st.reclaim_stall_cycles(), 777);
        assert_eq!(st.stats().reclaim_stalls, 1);
    }
}
