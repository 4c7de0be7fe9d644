//! The per-run trace recorder: configuration, live state, and the
//! extracted log.
//!
//! Mirrors the fault-injection pattern (`tiersim-mem::fault`): the state
//! caches an `enabled` flag at construction so every hook is a single
//! predictable branch when tracing is off. When it is on, the ring is a
//! drop-oldest [`VecDeque`] reserved once, up front; recording into a
//! full ring evicts the oldest record and counts the eviction, so
//! truncation is always visible in the exported trace. The metrics are
//! plain vectors keyed by `&'static str` and sorted at each snapshot, so
//! registration order never reaches the output and no hashing is
//! involved.

use crate::event::{TraceEvent, TraceRecord};
use std::collections::VecDeque;
use std::mem::{discriminant, Discriminant};

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

/// One interval snapshot of every metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Simulated time in cycles when the snapshot was taken.
    pub now: u64,
    /// `(name, value)` pairs, sorted by name.
    pub values: Vec<(&'static str, u64)>,
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
    /// Cached so the disabled path is a single branch.
    enabled: bool,
    /// Simulated clock, fed monotonically by the callers.
    now: u64,
    /// Surviving records, oldest first; never holds more than `capacity`.
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    /// Events ever offered to the ring (also the next sequence number).
    recorded: u64,
    /// Events evicted (or refused, for a zero-capacity ring).
    dropped: u64,
    /// Per-event counters, registered on first use under the event's
    /// name and found by variant, so counting formats nothing.
    counters: Vec<(Discriminant<TraceEvent>, &'static str, u64)>,
    /// Last-value gauges, registered on first use.
    gauges: Vec<(&'static str, u64)>,
    snapshots: Vec<MetricsSnapshot>,
}

impl TraceState {
    /// Builds the recorder; the ring is reserved here, once, and only
    /// when tracing is enabled.
    pub fn new(cfg: TraceConfig) -> TraceState {
        let capacity = if cfg.enabled { cfg.capacity } else { 0 };
        TraceState {
            enabled: cfg.enabled,
            now: 0,
            ring: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
            dropped: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Advances the recorder's simulated clock; time never goes
    /// backwards even if callers hand in stale timestamps.
    pub fn set_now(&mut self, now: u64) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Records `event` at the current simulated time, evicting the
    /// oldest record when the ring is full, and counts it under its
    /// name. A no-op costing one branch when tracing is disabled.
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        if self.capacity > 0 {
            self.ring.push_back(TraceRecord { now: self.now, seq: self.recorded, event });
        }
        self.recorded += 1;
        let variant = discriminant(&event);
        match self.counters.iter_mut().find(|(v, _, _)| *v == variant) {
            Some((_, _, count)) => *count += 1,
            None => self.counters.push((variant, event.name(), 1)),
        }
    }

    /// Sets a gauge (no-op when disabled).
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Snapshots every counter and gauge, sorted by name, at the current
    /// simulated time (no-op when disabled).
    pub fn snapshot_metrics(&mut self) {
        if !self.enabled {
            return;
        }
        let counters = self.counters.iter().map(|&(_, name, count)| (name, count));
        let mut values: Vec<(&'static str, u64)> =
            counters.chain(self.gauges.iter().copied()).collect();
        values.sort_unstable();
        self.snapshots.push(MetricsSnapshot { now: self.now, values });
    }

    /// Extracts the immutable log of everything recorded so far.
    pub fn log(&self) -> TraceLog {
        TraceLog {
            records: self.ring.iter().copied().collect(),
            recorded: self.recorded,
            dropped: self.dropped,
            snapshots: self.snapshots.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_state_records_nothing() {
        let mut t = TraceState::new(TraceConfig::off());
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
    }

    #[test]
    fn full_ring_drops_oldest() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(3));
        for i in 0..5 {
            t.set_now(i * 10);
            t.record(TraceEvent::HintFault { page: i });
        }
        let log = t.log();
        assert_eq!((log.recorded, log.dropped), (5, 2));
        // Oldest two (seq 0, 1) were evicted; order is oldest-first.
        assert_eq!(log.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(log.records[0].now, 20);
    }

    #[test]
    fn zero_capacity_counts_everything_as_dropped() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(0));
        t.record(TraceEvent::HintFault { page: 1 });
        t.record(TraceEvent::HintFault { page: 2 });
        let log = t.log();
        assert!(log.records.is_empty());
        assert_eq!((log.recorded, log.dropped), (2, 2));
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite_in_name_order() {
        let mut t = TraceState::new(TraceConfig::on());
        t.set_gauge("threshold_cycles", 100);
        t.record(TraceEvent::PromoteAccept { page: 1 });
        t.record(TraceEvent::HintFault { page: 1 });
        t.record(TraceEvent::PromoteAccept { page: 2 });
        t.set_gauge("threshold_cycles", 80);
        t.snapshot_metrics();
        t.set_now(84);
        t.record(TraceEvent::HintFault { page: 2 });
        t.snapshot_metrics();
        let snaps = t.log().snapshots;
        assert_eq!(snaps.len(), 2);
        assert_eq!(
            snaps[0].values,
            vec![("hint_fault", 1), ("promote_accept", 2), ("threshold_cycles", 80)]
        );
        assert_eq!(snaps[1].now, 84);
        assert_eq!(snaps[1].values[0], ("hint_fault", 2));
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
