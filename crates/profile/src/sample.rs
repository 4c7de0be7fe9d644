//! Memory samples and the PEBS-style sampler.

use tiersim_mem::{AccessKind, AccessOutcome, MemLevel, ThreadId, VirtAddr};

/// One sampled memory access, mirroring a `perf-mem` load sample: the
/// hierarchy level that satisfied it, the virtual address (used for object
/// mapping), and the latency in cycles (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSample {
    /// Simulated cycle timestamp.
    pub time_cycles: u64,
    /// Sampled virtual address.
    pub addr: VirtAddr,
    /// Hierarchy level that satisfied the access.
    pub level: MemLevel,
    /// Access latency in cycles.
    pub latency_cycles: u64,
    /// Whether a TLB miss (page walk) preceded the access.
    pub tlb_miss: bool,
    /// Logical thread that issued the access.
    pub thread: ThreadId,
    /// `true` for store samples. Like the paper, analyses use loads.
    pub is_store: bool,
}

impl MemSample {
    /// Returns `true` if this sample hit outside the caches (DRAM/NVM).
    pub fn is_external(&self) -> bool {
        self.level.is_external()
    }

    /// The page containing the sampled address.
    pub fn page(&self) -> tiersim_mem::PageNum {
        self.addr.page()
    }
}

/// Periodic memory-access sampler (the simulated `perf-mem`).
///
/// Samples every `period`-th access; a prime period avoids aliasing with
/// power-of-two loop strides, just as real PEBS setups randomize periods.
///
/// # Examples
///
/// ```
/// use tiersim_profile::Sampler;
///
/// let s = Sampler::new(997);
/// assert_eq!(s.period(), 997);
/// assert!(s.samples().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    period: u64,
    countdown: u64,
    samples: Vec<MemSample>,
    observed: u64,
}

impl Sampler {
    /// Creates a sampler recording every `period`-th access.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        Sampler { period, countdown: period, samples: Vec::new(), observed: 0 }
    }

    /// The configured sampling period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Total accesses observed (sampled or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observes one completed access; records a sample every `period`-th
    /// observation. Returns `true` if a sample was recorded.
    #[inline]
    pub fn observe(
        &mut self,
        kind: AccessKind,
        outcome: &AccessOutcome,
        addr: VirtAddr,
        thread: ThreadId,
        now: u64,
    ) -> bool {
        self.observed += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.period;
        self.samples.push(MemSample {
            time_cycles: now,
            addr,
            level: outcome.level,
            latency_cycles: outcome.cycles,
            tlb_miss: outcome.tlb_miss,
            thread,
            is_store: kind.is_store(),
        });
        true
    }

    /// Observations until a sample is due: the `until_due()`-th
    /// [`Sampler::observe`] call from now records a sample. Always at
    /// least 1.
    pub fn until_due(&self) -> u64 {
        self.countdown
    }

    /// Observes `n` accesses in bulk, none of which is due for a sample:
    /// exactly equivalent to `n` [`Sampler::observe`] calls that all
    /// return `false`. The machine's batched run path uses this for the
    /// gap between samples.
    ///
    /// # Panics
    ///
    /// Panics if `n >= until_due()` — the bulk skip would silently
    /// swallow a due sample.
    pub fn observe_gap(&mut self, n: u64) {
        assert!(n < self.countdown, "bulk observation would skip a due sample");
        self.observed += n;
        self.countdown -= n;
    }

    /// The samples recorded so far.
    pub fn samples(&self) -> &[MemSample] {
        &self.samples
    }

    /// Consumes the sampler, returning its samples.
    pub fn into_samples(self) -> Vec<MemSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{PageNum, Tier};

    fn outcome(level: MemLevel) -> AccessOutcome {
        AccessOutcome {
            page: PageNum::new(1),
            level,
            tier: level.tier().unwrap_or(Tier::Dram),
            cycles: 100,
            tlb_miss: false,
            hint_fault: false,
            hint_scan_time: 0,
        }
    }

    #[test]
    fn samples_every_period() {
        let mut s = Sampler::new(3);
        let o = outcome(MemLevel::Dram);
        let mut recorded = 0;
        for i in 0..9 {
            if s.observe(AccessKind::Load, &o, VirtAddr::new(i), ThreadId(0), i) {
                recorded += 1;
            }
        }
        assert_eq!(recorded, 3);
        assert_eq!(s.samples().len(), 3);
        assert_eq!(s.observed(), 9);
        // Every third observation: addresses 2, 5, 8.
        assert_eq!(s.samples()[0].addr, VirtAddr::new(2));
        assert_eq!(s.samples()[1].addr, VirtAddr::new(5));
    }

    #[test]
    fn sample_captures_outcome_fields() {
        let mut s = Sampler::new(1);
        let mut o = outcome(MemLevel::Nvm);
        o.tlb_miss = true;
        o.cycles = 4141;
        s.observe(AccessKind::Store, &o, VirtAddr::new(0x5000), ThreadId(7), 99);
        let sm = s.samples()[0];
        assert!(sm.is_external());
        assert!(sm.tlb_miss);
        assert!(sm.is_store);
        assert_eq!(sm.latency_cycles, 4141);
        assert_eq!(sm.thread, ThreadId(7));
        assert_eq!(sm.page(), VirtAddr::new(0x5000).page());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = Sampler::new(0);
    }

    #[test]
    fn observe_gap_matches_individual_observes() {
        // Drive one sampler per element and its twin with the batched
        // protocol the machine uses: skip `until_due() - 1` accesses in
        // bulk, then route the due access through `observe`.
        let o = outcome(MemLevel::Dram);
        let mut looped = Sampler::new(7);
        let mut bulk = Sampler::new(7);
        let total: u64 = 100;
        for i in 0..total {
            looped.observe(AccessKind::Load, &o, VirtAddr::new(i), ThreadId(0), i);
        }
        let mut i = 0u64;
        while i < total {
            let gap = (bulk.until_due() - 1).min(total - i - 1);
            bulk.observe_gap(gap);
            i += gap;
            bulk.observe(AccessKind::Load, &o, VirtAddr::new(i), ThreadId(0), i);
            i += 1;
        }
        assert_eq!(bulk.observed(), looped.observed());
        assert_eq!(bulk.until_due(), looped.until_due());
        assert_eq!(bulk.samples(), looped.samples());
        assert_eq!(bulk.samples().len(), (total / 7) as usize);
    }

    #[test]
    #[should_panic(expected = "skip a due sample")]
    fn observe_gap_rejects_skipping_a_due_sample() {
        let mut s = Sampler::new(5);
        s.observe_gap(5);
    }
}
