//! The per-run trace recorder: configuration, live state, and the
//! extracted log.
//!
//! Mirrors the fault-injection pattern (`tiersim-mem::fault`): the state
//! caches an `enabled` flag at construction so every hook is a single
//! predictable branch when tracing is off, and nothing is allocated
//! beyond the one up-front ring reservation when it is on.

use crate::buffer::TraceBuffer;
use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Default ring capacity: enough for the smoke configs' full event
/// streams without eviction, small enough to stay cache-friendly.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Trace settings threaded from the experiment config down to the
/// memory system that owns the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether events are recorded at all.
    pub enabled: bool,
    /// Ring capacity in records. Zero is legal: every event is counted
    /// as dropped, which still proves the instrumentation fired.
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default): hooks cost one branch.
    pub fn off() -> TraceConfig {
        TraceConfig { enabled: false, capacity: 0 }
    }

    /// Tracing enabled with [`DEFAULT_TRACE_CAPACITY`].
    pub fn on() -> TraceConfig {
        TraceConfig { enabled: true, capacity: DEFAULT_TRACE_CAPACITY }
    }

    /// Tracing enabled with an explicit ring capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> TraceConfig {
        self.capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::off()
    }
}

/// The extracted, immutable result of a traced run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Surviving records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Total events offered to the ring (including evicted ones).
    pub recorded: u64,
    /// Events evicted to make room — nonzero means the ring was too
    /// small for the run and `records` is a suffix of the true stream.
    pub dropped: u64,
    /// Per-interval metrics snapshots.
    pub snapshots: Vec<MetricsSnapshot>,
}

impl TraceLog {
    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0 && self.snapshots.is_empty()
    }
}

/// Live recorder owned by the memory system (next to `FaultState`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceState {
    cfg: TraceConfig,
    /// Cached so the disabled path is a single branch with no loads
    /// through `cfg`.
    enabled: bool,
    /// Simulated clock, fed monotonically by the callers.
    now: u64,
    buf: TraceBuffer,
    metrics: MetricsRegistry,
}

impl TraceState {
    /// Builds the recorder; the ring is reserved here, once, and only
    /// when tracing is enabled.
    pub fn new(cfg: TraceConfig) -> TraceState {
        let capacity = if cfg.enabled { cfg.capacity } else { 0 };
        TraceState {
            cfg,
            enabled: cfg.enabled,
            now: 0,
            buf: TraceBuffer::new(capacity),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The settings this recorder was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Advances the recorder's simulated clock; time never goes
    /// backwards even if callers hand in stale timestamps.
    pub fn set_now(&mut self, now: u64) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Records `event` at the current simulated time. A no-op costing
    /// one branch when tracing is disabled.
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.buf.record(self.now, event);
        self.metrics.inc(event.name(), 1);
    }

    /// Sets a gauge in the metrics registry (no-op when disabled).
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.set_gauge(name, value);
    }

    /// Takes a metrics snapshot at the current simulated time (no-op
    /// when disabled).
    pub fn snapshot_metrics(&mut self) {
        if !self.enabled {
            return;
        }
        self.metrics.snapshot(self.now);
    }

    /// Read access to the metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Surviving records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf.records()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.buf.dropped()
    }

    /// Extracts the immutable log of everything recorded so far.
    pub fn log(&self) -> TraceLog {
        TraceLog {
            records: self.buf.records(),
            recorded: self.buf.recorded(),
            dropped: self.buf.dropped(),
            snapshots: self.metrics.snapshots().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_state_records_nothing() {
        let mut t = TraceState::new(TraceConfig::off());
        assert!(!t.enabled());
        t.set_now(100);
        t.record(TraceEvent::HintFault { page: 1 });
        t.set_gauge("g", 5);
        t.snapshot_metrics();
        let log = t.log();
        assert!(log.is_empty());
        assert_eq!(log.recorded, 0);
        assert_eq!(log.dropped, 0);
        assert!(log.snapshots.is_empty());
    }

    #[test]
    fn enabled_state_stamps_monotonic_time() {
        let mut t = TraceState::new(TraceConfig::on());
        t.set_now(50);
        t.record(TraceEvent::HintFault { page: 1 });
        t.set_now(40); // stale: must not rewind
        t.record(TraceEvent::PromoteAccept { page: 1 });
        let log = t.log();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].now, 50);
        assert_eq!(log.records[1].now, 50);
        assert_eq!(log.records[1].seq, 1);
        assert_eq!(t.metrics().counter("hint_fault"), 1);
        assert_eq!(t.metrics().counter("promote_accept"), 1);
    }

    #[test]
    fn gauges_and_snapshots_flow_into_the_log() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(4));
        t.set_now(10);
        t.set_gauge("threshold_cycles", 1000);
        t.snapshot_metrics();
        let log = t.log();
        assert_eq!(log.snapshots.len(), 1);
        assert_eq!(log.snapshots[0].now, 10);
        assert_eq!(log.snapshots[0].values, vec![("threshold_cycles", 1000)]);
    }

    #[test]
    fn default_config_is_off() {
        assert_eq!(TraceConfig::default(), TraceConfig::off());
        assert!(TraceConfig::on().enabled);
        assert_eq!(TraceConfig::on().with_capacity(7).capacity, 7);
    }
}
