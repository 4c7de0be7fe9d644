//! The metric catalog. `BENCHMARK.json` at the repository root declares
//! the same names, units, directions and bounds; a test keeps the two in
//! step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits on or pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Measured with tracing off, one sample per child process (`setup_s`:
/// several per child).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

/// Failed entry calls over attempted ones. Never part of the
/// regression bound table: any increase at all is a regression.
pub const FAILED_FRAC: &str = "failed_frac";

/// A per-layer metric, measured by a separate `--traced` run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in report order. A workload that never calls a
/// layer reports 0 for it.
pub const LAYERS: &[Layer] = &[
    // Setup: the public calls that get one input graph into a machine.
    layer("graph.generate_s", "s", Lower),
    layer("graph.csr_s", "s", Lower),
    layer("machine.new_s", "s", Lower),
    layer("machine.load_s", "s", Lower),
    layer("machine.load_elems", "count", Lower),
    // Kernel phase of the mirrored single runs.
    layer("kernel.trials_s", "s", Lower),
    layer("graph.kernel_null_s", "s", Lower),
    layer("machine.kernel_s", "s", Lower),
    layer("machine.ns_per_elem", "ns", Lower),
    layer("machine.elem_calls", "count", Lower),
    layer("machine.run_calls", "count", Lower),
    layer("machine.run_elems", "count", Higher),
    layer("machine.batched_share", "ratio", Higher),
    layer("mem.interval_runs", "count", Higher),
    layer("mem.interval_pages", "count", Higher),
    layer("profile.plan_s", "s", Lower),
    layer("os.audit_s", "s", Lower),
    layer("maccess_per_s", "Maccess/s", Higher),
    // Deterministic work counts: a change that only speeds the simulator
    // up leaves every one of these identical.
    layer("mem.accesses", "count", Lower),
    layer("mem.external", "count", Lower),
    layer("mem.tlb_misses", "count", Lower),
    layer("os.ticks", "count", Lower),
    layer("os.hint_faults", "count", Lower),
    layer("os.pgpromote", "count", Lower),
    layer("os.pgdemote", "count", Lower),
    layer("os.pgfault", "count", Lower),
    layer("os.pgfault_around", "count", Lower),
    layer("os.thp_collapse", "count", Lower),
    layer("profile.samples", "count", Lower),
    layer("sim.total_s", "sim_s", Lower),
    // The reproduction suite, called experiment by experiment.
    layer("experiments.characterization_s", "s", Lower),
    layer("experiments.objects_s", "s", Lower),
    layer("experiments.autonuma_trace_s", "s", Lower),
    layer("experiments.comparison_s", "s", Lower),
    layer("experiments.render_s", "s", Lower),
    layer("journal.append_s", "s", Lower),
    layer("journal.bytes", "bytes", Lower),
    // The auto-tuner.
    layer("tune.search_s", "s", Lower),
    layer("tune.report_s", "s", Lower),
    layer("tune.cells", "count", Lower),
    layer("tune.cell_s", "s", Lower),
    // The trace itself.
    layer("trace.coverage", "ratio", Higher),
    layer("trace.unaccounted_s", "s", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|l| l.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` must declare exactly this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).cloned().unwrap_or(Json::Null);
        let e2e = doc.get("end_to_end").and_then(Json::as_array).expect("end_to_end list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name"), Json::from(want.name));
            assert_eq!(field(m, "unit"), Json::from(want.unit));
            assert_eq!(field(m, "better"), Json::from(want.better.name()));
            assert_eq!(field(m, "bound"), Json::from(want.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_array).expect("per_layer list");
        assert_eq!(layers.len(), LAYERS.len());
        for (m, want) in layers.iter().zip(LAYERS) {
            assert_eq!(field(m, "name"), Json::from(want.name));
            assert_eq!(field(m, "unit"), Json::from(want.unit));
            assert_eq!(field(m, "better"), Json::from(want.better.name()));
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::workloads::Workload::ALL.map(|w| w.name()));
    }
}
