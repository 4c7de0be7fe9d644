//! Lightweight metrics registry: monotonic counters and gauges, with
//! per-interval snapshots.
//!
//! Storage is plain sorted-on-demand vectors keyed by `&'static str`, so
//! registration order never reaches the exported output and no hashing is
//! involved — snapshots are byte-stable across runs.

/// One interval snapshot of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Simulated time in cycles when the snapshot was taken.
    pub now: u64,
    /// `(name, value)` pairs, sorted by name.
    pub values: Vec<(&'static str, u64)>,
}

/// Monotonic counters plus last-value gauges, snapshotted on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    snapshots: Vec<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter `name`, registering it at zero first if
    /// this is its first use.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += by,
            None => self.counters.push((name, by)),
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Current value of a gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Captures every counter and gauge into a snapshot at simulated
    /// time `now`, sorted by metric name.
    pub fn snapshot(&mut self, now: u64) {
        let mut values: Vec<(&'static str, u64)> =
            self.counters.iter().chain(self.gauges.iter()).copied().collect();
        values.sort_unstable();
        self.snapshots.push(MetricsSnapshot { now, values });
    }

    /// The snapshots taken so far, in order.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.inc("promote_accept", 1);
        m.inc("promote_accept", 2);
        m.set_gauge("threshold_cycles", 100);
        m.set_gauge("threshold_cycles", 80);
        assert_eq!(m.counter("promote_accept"), 3);
        assert_eq!(m.gauge("threshold_cycles"), 80);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("never"), 0);
    }

    #[test]
    fn snapshots_are_name_sorted_regardless_of_registration_order() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("z_gauge", 9);
        m.inc("a_counter", 1);
        m.snapshot(42);
        m.inc("a_counter", 1);
        m.snapshot(84);
        let snaps = m.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].now, 42);
        assert_eq!(snaps[0].values, vec![("a_counter", 1), ("z_gauge", 9)]);
        assert_eq!(snaps[1].values, vec![("a_counter", 2), ("z_gauge", 9)]);
    }
}
