//! Configuration of the OS memory-management model.

use crate::error::OsError;

/// Configuration of the simulated Linux memory manager (AutoNUMA tiering
/// v0.8 semantics).
///
/// Defaults correspond to the kernel defaults of the paper's testbed
/// (Linux 5.15 + tiering-0.8, 2.6 GHz), expressed in cycles. Because the
/// simulated workloads are thousands of times smaller than the paper's
/// 16-hour runs, use [`OsConfig::with_time_dilation`] to shrink all OS time
/// constants proportionally so a run still spans many scan/reclaim cycles.
///
/// # Examples
///
/// ```
/// use tiersim_os::OsConfig;
///
/// let cfg = OsConfig::builder()
///     .autonuma_enabled(true)
///     .build()?
///     .with_time_dilation(100.0);
/// assert!(cfg.scan_period_cycles < OsConfig::default().scan_period_cycles);
/// # Ok::<(), tiersim_os::OsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OsConfig {
    /// Master switch for AutoNUMA tiering (scanner, promotion, demotion).
    /// When off, pages stay wherever first touch put them and all
    /// migration counters remain zero — the paper's §6.6 sanity check.
    pub autonuma_enabled: bool,

    // ----- NUMA-balancing scanner ------------------------------------
    /// Cycles between scanner wakeups (kernel:
    /// `numa_balancing_scan_period_min`, default 1 s).
    pub scan_period_cycles: u64,
    /// Pages hint-marked per wakeup (kernel: `numa_balancing_scan_size`,
    /// default 256 MB = 65536 pages).
    pub scan_size_pages: u64,
    /// Adaptive scan period (kernel behavior): when a scan period ends
    /// with no hint faults the period backs off toward
    /// `scan_period_max_cycles`; fault activity pulls it back toward
    /// `scan_period_cycles`. Off by default to keep experiment
    /// calibration at the kernel's minimum period.
    pub scan_period_adaptive: bool,
    /// Upper bound for the adaptive scan period (kernel:
    /// `numa_balancing_scan_period_max`, default 60 s).
    pub scan_period_max_cycles: u64,

    // ----- promotion ---------------------------------------------------
    /// Initial hint-fault-latency threshold below which an NVM page is a
    /// promotion candidate (kernel: `numa_balancing_hot_threshold_ms`,
    /// default 1 s).
    pub hot_threshold_cycles: u64,
    /// Lower clamp for the dynamic threshold.
    pub hot_threshold_min_cycles: u64,
    /// Upper clamp for the dynamic threshold.
    pub hot_threshold_max_cycles: u64,
    /// Cycles between dynamic-threshold adjustments.
    pub threshold_adjust_period_cycles: u64,
    /// Promotion rate limit in bytes per second of simulated time (kernel:
    /// `numa_balancing_rate_limit_mbps`).
    pub promo_rate_limit_bytes_per_sec: u64,

    // ----- reclaim / demotion -------------------------------------------
    /// `min` watermark as a fraction of DRAM capacity: below this,
    /// allocations fall back to NVM and direct reclaim may run.
    pub wmark_min_frac: f64,
    /// `low` watermark: kswapd wakes below this.
    pub wmark_low_frac: f64,
    /// `high` watermark: kswapd demotes until free DRAM exceeds this.
    pub wmark_high_frac: f64,
    /// Maximum pages demoted per kswapd wakeup. Real kswapd migration
    /// bandwidth is finite; keeping this small lets allocation bursts
    /// overflow to NVM as on the paper's testbed (Finding 3).
    pub kswapd_batch_pages: u64,
    /// Recency quantum for reclaim victim selection: the kernel only
    /// learns about references at page-table scan granularity, so reclaim
    /// cannot distinguish recency finer than this (a coarse, epoch-based
    /// LRU rather than an exact one).
    pub lru_quantum_cycles: u64,
    /// Cycles between kswapd opportunities (checked at every OS tick).
    pub kswapd_period_cycles: u64,

    // ----- page cache ----------------------------------------------------
    /// Whether file reads populate the page cache (paper Finding 5).
    pub page_cache_enabled: bool,
    /// Disk read cost per 4 KiB page, in cycles (≈ 2 GB/s NVMe).
    pub disk_read_cycles_per_page: u64,

    // ----- huge pages (THP) and bulk population ------------------------
    /// Master switch for transparent huge pages: when on, a periodic
    /// khugepaged pass collapses 512-page-aligned, fully resident,
    /// uniform-tier blocks into 2 MiB mappings that share one TLB entry
    /// and one page walk.
    pub thp_enabled: bool,
    /// Cycles between khugepaged wakeups (kernel:
    /// `khugepaged/scan_sleep_millisecs`, default 10 s).
    pub khugepaged_period_cycles: u64,
    /// Maximum 2 MiB blocks khugepaged collapses per wakeup (its
    /// `pages_to_scan` analogue, expressed in blocks).
    pub thp_collapse_scan_blocks: u64,
    /// Pages mapped per first-touch fault: `1` services only the faulting
    /// page (fault-around off); `n > 1` additionally bulk-maps up to
    /// `n - 1` following non-resident pages of the same VMA (the kernel's
    /// fault-around / `MAP_POPULATE`), re-enabling the sequential interval
    /// lane on demand-paged streams.
    pub fault_around_pages: u64,

    // ----- fault costs ----------------------------------------------------
    /// Kernel overhead of servicing a hint page fault, charged to the
    /// faulting thread.
    pub hint_fault_cost_cycles: u64,
    /// Kernel overhead of a first-touch (minor) fault.
    pub minor_fault_cost_cycles: u64,
    /// Kernel overhead per page migration, on top of the device copy.
    pub migration_overhead_cycles: u64,

    // ----- migration retry (fault tolerance) ---------------------------
    /// Maximum extra attempts after a transient (EBUSY-style) migration
    /// failure before the page is given up on (`pgmigrate_fail`) and
    /// requeued. Mirrors the bounded retry loop in the kernel's
    /// `migrate_pages()`.
    pub migrate_max_retries: u32,
    /// Simulated cycles of backoff charged before each migration retry
    /// (the kernel's cond_resched/lock-retry delay).
    pub migrate_retry_backoff_cycles: u64,

    /// CPU frequency used to convert the rate limit, must match the memory
    /// system's frequency.
    pub freq_hz: u64,

    // ----- invariant auditing -------------------------------------------
    /// Run the tiersim-audit invariant checks every N calls to
    /// [`AutoNuma::tick`](crate::AutoNuma::tick) (`0` disables the
    /// checkpoints). Checkpoints only fire in debug builds
    /// (`debug_assertions`); release builds never pay for the walk. An
    /// on-demand [`AutoNuma::audit`](crate::AutoNuma::audit) works in any
    /// build regardless of this knob.
    pub audit_every_ticks: u64,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig::default_for_freq(2_600_000_000)
    }
}

impl OsConfig {
    /// The kernel-default time constants expressed for a machine running
    /// at `hz` cycles per second (the plain [`Default`] is this at the
    /// paper testbed's 2.6 GHz).
    ///
    /// Every derived period and threshold is clamped to at least one
    /// cycle: the millisecond-scale derivations divide `hz`, and below
    /// `hz = 1000` the old unclamped `hz / 1000` truncated
    /// `hot_threshold_min_cycles` to 0 — a floor the dynamic controller
    /// could then reach, where `is_hot` (strictly below the threshold)
    /// can never fire again and promotion silently dies.
    #[must_use]
    pub fn default_for_freq(hz: u64) -> Self {
        OsConfig {
            autonuma_enabled: true,
            scan_period_cycles: hz.max(1), // 1 s
            scan_size_pages: 65_536,       // 256 MB
            scan_period_adaptive: false,
            scan_period_max_cycles: hz.saturating_mul(60).max(1), // 60 s
            hot_threshold_cycles: hz.max(1),                      // 1 s
            hot_threshold_min_cycles: (hz / 1000).max(1),         // 1 ms
            hot_threshold_max_cycles: hz.saturating_mul(10).max(1), // 10 s
            threshold_adjust_period_cycles: hz.max(1),            // 1 s
            promo_rate_limit_bytes_per_sec: 65_536 << 20,         // 65536 MB/s
            wmark_min_frac: 0.02,
            wmark_low_frac: 0.04,
            wmark_high_frac: 0.08,
            kswapd_batch_pages: 4096,
            lru_quantum_cycles: hz.max(1), // 1 s (scan period)
            kswapd_period_cycles: (hz / 100).max(1), // 10 ms
            thp_enabled: false,
            khugepaged_period_cycles: hz.saturating_mul(10).max(1), // 10 s
            thp_collapse_scan_blocks: 8,
            fault_around_pages: 1, // fault-around off
            page_cache_enabled: true,
            disk_read_cycles_per_page: 52_000, // ≈ 20 µs / page (parse-bound load)
            hint_fault_cost_cycles: 2_000,
            minor_fault_cost_cycles: 1_200,
            migration_overhead_cycles: 5_000,
            migrate_max_retries: 3, // kernel migrate_pages() tries up to 3 passes
            migrate_retry_backoff_cycles: 2_600, // ~1 µs between passes
            freq_hz: hz,
            audit_every_ticks: 0,
        }
    }

    /// Starts building a configuration from the defaults.
    pub fn builder() -> OsConfigBuilder {
        OsConfigBuilder { cfg: OsConfig::default() }
    }

    /// Returns a copy with every OS *time constant* divided by `factor`,
    /// so scaled-down workloads experience the same number of scan,
    /// threshold-adjust and kswapd cycles per run as the paper's full-size
    /// runs. Costs (fault overheads, disk latency) are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn with_time_dilation(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "dilation must be positive");
        let scale = |v: u64| ((v as f64 / factor) as u64).max(1);
        self.scan_period_cycles = scale(self.scan_period_cycles);
        self.scan_period_max_cycles = scale(self.scan_period_max_cycles);
        self.hot_threshold_cycles = scale(self.hot_threshold_cycles);
        self.hot_threshold_min_cycles = scale(self.hot_threshold_min_cycles);
        self.hot_threshold_max_cycles = scale(self.hot_threshold_max_cycles);
        self.threshold_adjust_period_cycles = scale(self.threshold_adjust_period_cycles);
        self.kswapd_period_cycles = scale(self.kswapd_period_cycles);
        self.lru_quantum_cycles = scale(self.lru_quantum_cycles);
        self.khugepaged_period_cycles = scale(self.khugepaged_period_cycles);
        // The rate limit stays untouched: it is bytes per *simulated*
        // second, a bandwidth relative to the (undilated) application,
        // exactly like kswapd's demotion bandwidth. Multiplying it by the
        // dilation factor inflated the limiter's budget thousands of
        // times over any scaled workload's promotion demand, so the knob
        // could never bind and the threshold controller — which steers
        // candidate volume toward this limit — saw a bottomless budget
        // and pinned itself at `hot_threshold_max_cycles`. Both control
        // loops were degenerate under dilation.
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), OsError> {
        if !(0.0..=1.0).contains(&self.wmark_min_frac)
            || !(0.0..=1.0).contains(&self.wmark_low_frac)
            || !(0.0..=1.0).contains(&self.wmark_high_frac)
            || self.wmark_min_frac > self.wmark_low_frac
            || self.wmark_low_frac > self.wmark_high_frac
        {
            return Err(OsError::InvalidConfig {
                what: "watermarks",
                got: format!(
                    "min {} / low {} / high {} (need 0 <= min <= low <= high <= 1)",
                    self.wmark_min_frac, self.wmark_low_frac, self.wmark_high_frac
                ),
            });
        }
        if self.scan_period_cycles == 0 || self.scan_size_pages == 0 {
            return Err(OsError::InvalidConfig {
                what: "scanner",
                got: format!(
                    "period {} cycles, size {} pages (both must be nonzero)",
                    self.scan_period_cycles, self.scan_size_pages
                ),
            });
        }
        if self.scan_period_max_cycles < self.scan_period_cycles {
            return Err(OsError::InvalidConfig {
                what: "scan period max",
                got: format!(
                    "{} < minimum period {}",
                    self.scan_period_max_cycles, self.scan_period_cycles
                ),
            });
        }
        // Zero-valued threshold knobs are degenerate, not strict: a zero
        // minimum lets the dynamic controller reach threshold 0, where
        // `is_hot` (latency strictly below the threshold) can never fire
        // and promotion silently dies; a zero adjust period divides the
        // control interval away. Reject them at build time, naming the
        // offending value.
        let threshold_knobs = [
            ("hot threshold", self.hot_threshold_cycles),
            ("hot threshold min clamp", self.hot_threshold_min_cycles),
            ("threshold adjust period", self.threshold_adjust_period_cycles),
        ];
        for (what, v) in threshold_knobs {
            if v == 0 {
                return Err(OsError::InvalidConfig {
                    what,
                    got: format!(
                        "{v} cycles (must be >= 1: at threshold 0 no latency is \
                                  strictly below it, so no page can ever be hot)"
                    ),
                });
            }
        }
        if self.hot_threshold_min_cycles > self.hot_threshold_max_cycles {
            return Err(OsError::InvalidConfig {
                what: "threshold clamps",
                got: format!(
                    "min {} > max {}",
                    self.hot_threshold_min_cycles, self.hot_threshold_max_cycles
                ),
            });
        }
        // The token bucket's burst capacity is one second of rate, so a
        // page-sized promotion can never succeed below one page per
        // second: every promotion would be silently denied forever.
        if self.promo_rate_limit_bytes_per_sec < tiersim_mem::PAGE_SIZE {
            return Err(OsError::InvalidConfig {
                what: "promotion rate limit",
                got: format!(
                    "{} B/s (burst capacity below one page, {} B: every promotion would stall)",
                    self.promo_rate_limit_bytes_per_sec,
                    tiersim_mem::PAGE_SIZE
                ),
            });
        }
        if self.freq_hz == 0 {
            return Err(OsError::InvalidConfig { what: "frequency", got: "0 Hz".to_string() });
        }
        if self.khugepaged_period_cycles == 0 || self.thp_collapse_scan_blocks == 0 {
            return Err(OsError::InvalidConfig {
                what: "khugepaged",
                got: format!(
                    "period {} cycles, scan {} blocks (both must be nonzero)",
                    self.khugepaged_period_cycles, self.thp_collapse_scan_blocks
                ),
            });
        }
        if self.fault_around_pages == 0 {
            return Err(OsError::InvalidConfig {
                what: "fault-around window",
                got: "0 pages (a fault always maps at least the faulting page; use 1 to disable \
                      fault-around)"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// Builder for [`OsConfig`].
#[derive(Debug, Clone)]
pub struct OsConfigBuilder {
    cfg: OsConfig,
}

impl OsConfigBuilder {
    /// Enables or disables AutoNUMA tiering.
    pub fn autonuma_enabled(mut self, enabled: bool) -> Self {
        self.cfg.autonuma_enabled = enabled;
        self
    }

    /// Sets the scanner period in cycles.
    pub fn scan_period_cycles(mut self, cycles: u64) -> Self {
        self.cfg.scan_period_cycles = cycles;
        self
    }

    /// Sets the pages marked per scanner wakeup.
    pub fn scan_size_pages(mut self, pages: u64) -> Self {
        self.cfg.scan_size_pages = pages;
        self
    }

    /// Sets the initial hot threshold in cycles.
    pub fn hot_threshold_cycles(mut self, cycles: u64) -> Self {
        self.cfg.hot_threshold_cycles = cycles;
        self
    }

    /// Sets the dynamic threshold's clamp range `[min, max]` in cycles.
    pub fn hot_threshold_clamps(mut self, min_cycles: u64, max_cycles: u64) -> Self {
        self.cfg.hot_threshold_min_cycles = min_cycles;
        self.cfg.hot_threshold_max_cycles = max_cycles;
        self
    }

    /// Sets the period between dynamic-threshold adjustments in cycles.
    pub fn threshold_adjust_period_cycles(mut self, cycles: u64) -> Self {
        self.cfg.threshold_adjust_period_cycles = cycles;
        self
    }

    /// Sets the promotion rate limit in bytes per simulated second.
    pub fn promo_rate_limit_bytes_per_sec(mut self, bytes: u64) -> Self {
        self.cfg.promo_rate_limit_bytes_per_sec = bytes;
        self
    }

    /// Sets the DRAM watermark fractions `(min, low, high)`.
    pub fn watermarks(mut self, min: f64, low: f64, high: f64) -> Self {
        self.cfg.wmark_min_frac = min;
        self.cfg.wmark_low_frac = low;
        self.cfg.wmark_high_frac = high;
        self
    }

    /// Enables or disables the page cache.
    pub fn page_cache_enabled(mut self, enabled: bool) -> Self {
        self.cfg.page_cache_enabled = enabled;
        self
    }

    /// Sets the kswapd demotion batch size in pages.
    pub fn kswapd_batch_pages(mut self, pages: u64) -> Self {
        self.cfg.kswapd_batch_pages = pages;
        self
    }

    /// Sets the bounded migration-retry policy: `retries` extra attempts
    /// after a transient failure, each preceded by `backoff_cycles` of
    /// simulated backoff.
    pub fn migrate_retry(mut self, retries: u32, backoff_cycles: u64) -> Self {
        self.cfg.migrate_max_retries = retries;
        self.cfg.migrate_retry_backoff_cycles = backoff_cycles;
        self
    }

    /// Enables or disables transparent huge pages (khugepaged collapse).
    pub fn thp_enabled(mut self, enabled: bool) -> Self {
        self.cfg.thp_enabled = enabled;
        self
    }

    /// Sets the khugepaged wakeup period in cycles.
    pub fn khugepaged_period_cycles(mut self, cycles: u64) -> Self {
        self.cfg.khugepaged_period_cycles = cycles;
        self
    }

    /// Sets the pages mapped per first-touch fault (`1` disables
    /// fault-around; larger values bulk-map up to `n - 1` extra pages).
    pub fn fault_around_pages(mut self, pages: u64) -> Self {
        self.cfg.fault_around_pages = pages;
        self
    }

    /// Runs the tiersim-audit invariant checks every `ticks` engine ticks
    /// in debug builds (`0` disables the checkpoints).
    pub fn audit_every_ticks(mut self, ticks: u64) -> Self {
        self.cfg.audit_every_ticks = ticks;
        self
    }

    /// Finishes the builder, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidConfig`] on inconsistent parameters.
    pub fn build(self) -> Result<OsConfig, OsError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        OsConfig::default().validate().unwrap();
    }

    #[test]
    fn dilation_shrinks_periods_and_preserves_rate() {
        let base = OsConfig::default();
        let d = base.clone().with_time_dilation(100.0);
        assert_eq!(d.scan_period_cycles, base.scan_period_cycles / 100);
        assert_eq!(d.khugepaged_period_cycles, base.khugepaged_period_cycles / 100);
        // Costs untouched.
        assert_eq!(d.hint_fault_cost_cycles, base.hint_fault_cost_cycles);
        // Regression: scaling the rate limit *up* by the dilation factor
        // handed the limiter (and the threshold controller comparing
        // candidate volume against it) a budget thousands of times above
        // any scaled workload's promotion demand — the knob could never
        // bind. Bandwidth relative to the undilated app must not change.
        assert_eq!(d.promo_rate_limit_bytes_per_sec, base.promo_rate_limit_bytes_per_sec);
    }

    #[test]
    fn dilation_never_reaches_zero() {
        let d = OsConfig::default().with_time_dilation(1e18);
        assert!(d.scan_period_cycles >= 1);
        assert!(d.hot_threshold_min_cycles >= 1);
        assert!(d.threshold_adjust_period_cycles >= 1);
    }

    #[test]
    fn extreme_dilation_factors_keep_rate_workable() {
        // The rate limit is dilation-invariant in both directions: an
        // extreme factor must never scale a valid rate below one page per
        // second (where every promotion would stall forever).
        for factor in [1e-18, 1e18] {
            let d = OsConfig::default().with_time_dilation(factor);
            assert_eq!(
                d.promo_rate_limit_bytes_per_sec,
                OsConfig::default().promo_rate_limit_bytes_per_sec
            );
            d.validate().unwrap();
        }
    }

    #[test]
    fn builder_rejects_zero_threshold_knobs() {
        // Regression: threshold 0 means `is_hot` (strictly below) can
        // never fire — promotion silently dies instead of erroring.
        let err = OsConfig::builder().hot_threshold_cycles(0).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "hot threshold", .. }));
        assert!(err.to_string().contains("0 cycles"), "error carries the value: {err}");

        let err = OsConfig::builder().hot_threshold_clamps(0, 1000).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "hot threshold min clamp", .. }));

        let err = OsConfig::builder().threshold_adjust_period_cycles(0).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "threshold adjust period", .. }));
    }

    #[test]
    fn builder_rejects_inverted_threshold_clamps() {
        let err = OsConfig::builder().hot_threshold_clamps(100, 10).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "threshold clamps", .. }));
        OsConfig::builder().hot_threshold_clamps(10, 100).build().unwrap();
    }

    #[test]
    fn low_frequency_defaults_stay_nonzero() {
        // Regression: `hz / 1000` truncated `hot_threshold_min_cycles` to
        // 0 for every hz below 1000, handing the dynamic controller a
        // floor at which no page can ever be hot. All derived constants
        // must clamp to >= 1 and the result must validate.
        for hz in 1..1000u64 {
            let cfg = OsConfig::default_for_freq(hz);
            assert!(cfg.hot_threshold_min_cycles >= 1, "min clamp truncated at hz={hz}");
            assert!(cfg.scan_period_cycles >= 1, "scan period truncated at hz={hz}");
            assert!(cfg.kswapd_period_cycles >= 1, "kswapd period truncated at hz={hz}");
            assert!(cfg.threshold_adjust_period_cycles >= 1, "adjust period at hz={hz}");
            assert!(cfg.lru_quantum_cycles >= 1, "lru quantum truncated at hz={hz}");
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn builder_rejects_inverted_watermarks() {
        let err = OsConfig::builder().watermarks(0.5, 0.1, 0.9).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "watermarks", .. }));
        assert!(err.to_string().contains("0.5"), "error carries the offending value: {err}");
    }

    #[test]
    #[should_panic(expected = "dilation must be positive")]
    fn dilation_rejects_nonpositive() {
        let _ = OsConfig::default().with_time_dilation(0.0);
    }

    #[test]
    fn builder_rejects_zero_fault_around_window() {
        let err = OsConfig::builder().fault_around_pages(0).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "fault-around window", .. }));
        // 1 means "just the faulting page" and is the valid off state.
        OsConfig::builder().fault_around_pages(1).build().unwrap();
    }

    #[test]
    fn builder_rejects_zero_khugepaged_period() {
        let err = OsConfig::builder().khugepaged_period_cycles(0).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "khugepaged", .. }));
    }

    #[test]
    fn builder_rejects_sub_page_rate_limit() {
        // Regression: a rate below one page per second meant the token
        // bucket's burst capacity could never cover a single page-sized
        // promotion, stalling all promotions forever with no error.
        let err = OsConfig::builder().promo_rate_limit_bytes_per_sec(100).build().unwrap_err();
        assert!(matches!(err, OsError::InvalidConfig { what: "promotion rate limit", .. }));
        assert!(err.to_string().contains("100"), "error carries the offending value: {err}");
        // One page per second is the smallest workable rate.
        OsConfig::builder().promo_rate_limit_bytes_per_sec(tiersim_mem::PAGE_SIZE).build().unwrap();
    }
}
