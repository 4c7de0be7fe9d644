//! The tuner's output artifact: the Pareto report.
//!
//! One [`TuneReport`] per search, rendered three ways from the same
//! data: hand-emitted JSON (machine-readable, schema below), CSV (one
//! row per finalist) and a [`TextTable`] summary for stdout. All three
//! are pure functions of the search inputs — byte-identical across
//! `--jobs` values and kill/resume splits. `repro_all tune` writes the
//! JSON and CSV files through [`crate::journal::atomic_write`], so a
//! crash mid-report never leaves a truncated artifact.

use crate::journal::codec::escape_json;
use crate::render::TextTable;

/// One successive-halving rung, as run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungSummary {
    /// Rung index, from 0.
    pub rung: u64,
    /// Cells entering the rung.
    pub cells: u64,
    /// Tick budget each cell ran under.
    pub budget_ticks: u64,
    /// Cells that completed within the budget.
    pub finished: u64,
    /// Cells the watchdog aborted.
    pub stuck: u64,
    /// Cells quarantined on a real error.
    pub quarantined: u64,
}

/// One finalist configuration with its full objective vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRow {
    /// The knob-point key (`h<..>.s<..>.r<..>`).
    pub key: String,
    /// Applied `hot_threshold_cycles`.
    pub hot_threshold_cycles: u64,
    /// Applied `scan_period_cycles`.
    pub scan_period_cycles: u64,
    /// Applied `promo_rate_limit_bytes_per_sec`.
    pub promo_rate_bytes_per_sec: u64,
    /// Completion ticks from the final rung.
    pub ticks: u64,
    /// Promotion traffic from the final rung.
    pub promo_bytes: u64,
    /// Degraded-mode events under the fault plan; `None` when the
    /// robustness re-run did not finish (stuck or quarantined), which
    /// excludes the row from the front.
    pub degraded: Option<u64>,
    /// Whether the row is on the Pareto front.
    pub on_front: bool,
    /// Whether the row strictly dominates the default knobs on
    /// (ticks, promotion bytes).
    pub beats_default: bool,
}

/// The complete, deterministic output of one tuner search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneReport {
    /// Workload name (`bc_kron` style).
    pub workload: String,
    /// Grid name (`tiny`/`paper`).
    pub grid: String,
    /// Search seed (tie-breaks and the fault plan).
    pub seed: u64,
    /// Rung-0 tick budget.
    pub rung_budget: u64,
    /// Every rung, in order.
    pub rungs: Vec<RungSummary>,
    /// The default knob point's throughput score, when it finished at
    /// least one rung.
    pub default_score: Option<(u64, u64)>,
    /// Finalist rows, in ranked order (best throughput first).
    pub finalists: Vec<CellRow>,
}

impl TuneReport {
    /// Finalists on the Pareto front, in ranked order.
    #[must_use]
    pub fn front(&self) -> Vec<&CellRow> {
        self.finalists.iter().filter(|r| r.on_front).collect()
    }

    /// Finalists strictly dominating the default knobs.
    #[must_use]
    pub fn dominating_default(&self) -> Vec<&CellRow> {
        self.finalists.iter().filter(|r| r.beats_default).collect()
    }

    /// The report as one JSON object (hand-emitted, flat arrays).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"grid\":\"{}\",\"seed\":{},\"rung_budget\":{}",
            escape_json(&self.workload),
            escape_json(&self.grid),
            self.seed,
            self.rung_budget
        ));
        match self.default_score {
            Some((ticks, promo)) => {
                out.push_str(&format!(",\"default\":{{\"ticks\":{ticks},\"promo_bytes\":{promo}}}"))
            }
            None => out.push_str(",\"default\":null"),
        }
        out.push_str(",\"rungs\":[");
        for (i, r) in self.rungs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rung\":{},\"cells\":{},\"budget_ticks\":{},\"finished\":{},\"stuck\":{},\
                 \"quarantined\":{}}}",
                r.rung, r.cells, r.budget_ticks, r.finished, r.stuck, r.quarantined
            ));
        }
        out.push_str("],\"finalists\":[");
        for (i, c) in self.finalists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let degraded = c.degraded.map_or_else(|| "null".to_string(), |d| d.to_string());
            out.push_str(&format!(
                "{{\"key\":\"{}\",\"hot_threshold_cycles\":{},\"scan_period_cycles\":{},\
                 \"promo_rate_bytes_per_sec\":{},\"ticks\":{},\"promo_bytes\":{},\
                 \"degraded\":{},\"on_front\":{},\"beats_default\":{}}}",
                escape_json(&c.key),
                c.hot_threshold_cycles,
                c.scan_period_cycles,
                c.promo_rate_bytes_per_sec,
                c.ticks,
                c.promo_bytes,
                degraded,
                c.on_front,
                c.beats_default
            ));
        }
        out.push_str("]}");
        out
    }

    /// The finalist table as CSV (header + one row per finalist).
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// Renders the search summary and finalist table for stdout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tune {} | grid {} ({} cells) | seed {} | rung-0 budget {} ticks\n",
            self.workload,
            self.grid,
            self.rungs.first().map_or(0, |r| r.cells),
            self.seed,
            self.rung_budget
        ));
        for r in &self.rungs {
            out.push_str(&format!(
                "  rung {}: {} cells @ {} ticks -> {} finished, {} stuck, {} quarantined\n",
                r.rung, r.cells, r.budget_ticks, r.finished, r.stuck, r.quarantined
            ));
        }
        match self.default_score {
            Some((ticks, promo)) => out.push_str(&format!(
                "default knobs (h1.s1.r1): {ticks} ticks, {promo} promo bytes\n"
            )),
            None => out.push_str("default knobs (h1.s1.r1): never finished a rung\n"),
        }
        out.push_str(&self.table().render());
        out.push_str(&format!(
            "pareto front: {} of {} finalists; {} strictly dominate the default knobs\n",
            self.front().len(),
            self.finalists.len(),
            self.dominating_default().len()
        ));
        out
    }

    fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "config",
            "hot_cycles",
            "scan_cycles",
            "rate_B/s",
            "ticks",
            "promo_bytes",
            "degraded",
            "front",
            "beats_default",
        ]);
        for c in &self.finalists {
            t.row(vec![
                c.key.clone(),
                c.hot_threshold_cycles.to_string(),
                c.scan_period_cycles.to_string(),
                c.promo_rate_bytes_per_sec.to_string(),
                c.ticks.to_string(),
                c.promo_bytes.to_string(),
                c.degraded.map_or_else(|| "-".to_string(), |d| d.to_string()),
                if c.on_front { "*".to_string() } else { String::new() },
                if c.beats_default { "yes".to_string() } else { String::new() },
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneReport {
        TuneReport {
            workload: "bc_kron".to_string(),
            grid: "tiny".to_string(),
            seed: 42,
            rung_budget: 1000,
            rungs: vec![RungSummary {
                rung: 0,
                cells: 8,
                budget_ticks: 1000,
                finished: 7,
                stuck: 1,
                quarantined: 0,
            }],
            default_score: Some((500, 8192)),
            finalists: vec![
                CellRow {
                    key: "h1.s2.r1d2".to_string(),
                    hot_threshold_cycles: 100,
                    scan_period_cycles: 200,
                    promo_rate_bytes_per_sec: 4096,
                    ticks: 450,
                    promo_bytes: 4096,
                    degraded: Some(2),
                    on_front: true,
                    beats_default: true,
                },
                CellRow {
                    key: "h1.s1.r1".to_string(),
                    hot_threshold_cycles: 100,
                    scan_period_cycles: 100,
                    promo_rate_bytes_per_sec: 8192,
                    ticks: 500,
                    promo_bytes: 8192,
                    degraded: None,
                    on_front: false,
                    beats_default: false,
                },
            ],
        }
    }

    #[test]
    fn json_carries_every_field() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        for needle in [
            "\"workload\":\"bc_kron\"",
            "\"grid\":\"tiny\"",
            "\"default\":{\"ticks\":500,\"promo_bytes\":8192}",
            "\"rungs\":[{\"rung\":0,\"cells\":8,\"budget_ticks\":1000",
            "\"key\":\"h1.s2.r1d2\"",
            "\"degraded\":2",
            "\"degraded\":null",
            "\"beats_default\":true",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn csv_and_render_agree_on_rows() {
        let r = sample();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 finalists");
        assert!(csv.lines().next().is_some_and(|h| h.starts_with("config,hot_cycles")));
        let text = r.render();
        assert!(text.contains("rung 0: 8 cells @ 1000 ticks"));
        assert!(text.contains("pareto front: 1 of 2 finalists; 1 strictly dominate"));
        assert!(text.contains("h1.s2.r1d2"));
    }

    #[test]
    fn accessors_filter_flags() {
        let r = sample();
        assert_eq!(r.front().len(), 1);
        assert_eq!(r.dominating_default().len(), 1);
        assert_eq!(r.front()[0].key, "h1.s2.r1d2");
    }

    #[test]
    fn missing_default_renders_as_null() {
        let mut r = sample();
        r.default_score = None;
        assert!(r.to_json().contains("\"default\":null"));
        assert!(r.render().contains("never finished a rung"));
    }
}
