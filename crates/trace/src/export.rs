//! Trace exporters, JSONL (one object per line) and CSV, and
//! [`check_jsonl`], the one reader of the JSONL layout.
//!
//! Both formats are emitted by hand — the schema is small, flat, and
//! fixed, and hand emission keeps the crate dependency-free. The reader
//! sits beside the writer, parses each line with [`crate::json`] and
//! takes each event's keys from the table in `event.rs`; `cargo xtask
//! trace-check` is a thin call into it.
//!
//! JSONL layout (see DESIGN.md §11):
//! - one line per surviving [`TraceRecord`], keys `t`, `seq`, `event`,
//!   plus the event's own fields;
//! - one `"event":"metrics_snapshot"` line per interval snapshot;
//! - a final `"event":"trace_summary"` line carrying `recorded` and
//!   `dropped`, so truncation by the ring is never silent.

use crate::event::{TraceEvent, TraceRecord, EVENT_NAMES, METRICS_SNAPSHOT, TRACE_SUMMARY};
use crate::json::{parse_object, Value};
use crate::state::TraceLog;
use std::collections::BTreeSet;
use std::fmt;

/// Serializes `log` as JSON Lines.
pub fn to_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    let mut last_now = 0;
    for rec in &log.records {
        push_record_json(&mut out, rec);
        last_now = rec.now;
    }
    let mut seq = log.recorded;
    for snap in &log.snapshots {
        out.push_str(&format!(
            "{{\"t\":{},\"seq\":{},\"event\":\"{METRICS_SNAPSHOT}\",\"metrics\":{{",
            snap.now, seq
        ));
        for (i, (name, value)) in snap.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("}}\n");
        last_now = last_now.max(snap.now);
        seq += 1;
    }
    out.push_str(&format!(
        "{{\"t\":{},\"seq\":{},\"event\":\"{TRACE_SUMMARY}\",\"recorded\":{},\"dropped\":{}}}\n",
        last_now, seq, log.recorded, log.dropped
    ));
    out
}

/// Why [`check_jsonl`] refused a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line of the first problem; 0 for an empty trace.
    pub line: usize,
    /// What is wrong with that line.
    pub reason: String,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for JsonlError {}

/// Validates a JSONL trace laid out as [`to_jsonl`] writes it and returns
/// its line count.
///
/// Every line is one JSON object holding exactly `t`, `seq`, `event` and
/// the keys [`to_jsonl`] writes for that event, with the writer's value
/// types: unsigned integers, except the strings `event`, `reason` and
/// `site` and the `metrics` object of unsigned integers. `seq` strictly
/// increases; the last line, and only it, is a `trace_summary`. Record
/// lines number `0..recorded` and snapshots and the summary continue the
/// count, so the summary's `seq` is at least `recorded`.
///
/// # Errors
///
/// [`JsonlError`] naming the first line that breaks a rule.
pub fn check_jsonl(text: &str) -> Result<usize, JsonlError> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return Err(JsonlError { line: 0, reason: "empty trace file".to_string() });
    }
    let mut prev_seq: Option<u64> = None;
    for (idx, line) in lines.iter().enumerate() {
        let err = |reason: String| JsonlError { line: idx + 1, reason };
        let obj = parse_object(line).ok_or_else(|| err("line is not one JSON object".into()))?;
        let event = obj.get("event").and_then(Value::as_str);
        let event = event.ok_or_else(|| err("missing string `event`".into()))?;
        let (_, own) = EVENT_NAMES
            .iter()
            .find(|(name, _)| *name == event)
            .ok_or_else(|| err(format!("unknown event `{event}`")))?;
        let is_last = idx + 1 == lines.len();
        if (event == TRACE_SUMMARY) != is_last {
            return Err(err(format!("{TRACE_SUMMARY} must be exactly the final line")));
        }
        let keys: BTreeSet<&str> = ["t", "seq", "event"].iter().chain(*own).copied().collect();
        if !obj.keys().map(String::as_str).eq(keys.iter().copied()) {
            return Err(err(format!("`{event}` line must hold exactly the keys {keys:?}")));
        }
        for (key, value) in &obj {
            let typed = match key.as_str() {
                "event" | "reason" | "site" => value.as_str().is_some(),
                "metrics" => {
                    value.as_object().is_some_and(|m| m.values().all(|v| v.as_u64().is_some()))
                }
                _ => value.as_u64().is_some(),
            };
            if !typed {
                return Err(err(format!("`{key}` has the wrong type")));
            }
        }
        let number = |key: &str| obj.get(key).and_then(Value::as_u64).unwrap_or_default();
        let seq = number("seq");
        if let Some(prev) = prev_seq.filter(|&prev| seq <= prev) {
            return Err(err(format!("seq went {prev} -> {seq}, must strictly increase")));
        }
        prev_seq = Some(seq);
        let recorded = number("recorded");
        if is_last && seq < recorded {
            return Err(err(format!("summary seq {seq} < recorded {recorded}")));
        }
    }
    Ok(lines.len())
}

fn push_record_json(out: &mut String, rec: &TraceRecord) {
    out.push_str(&format!(
        "{{\"t\":{},\"seq\":{},\"event\":\"{}\"",
        rec.now,
        rec.seq,
        rec.event.name()
    ));
    match rec.event {
        TraceEvent::HintFault { page }
        | TraceEvent::PromoteAccept { page }
        | TraceEvent::DemoteKswapd { page }
        | TraceEvent::DemoteDirect { page }
        | TraceEvent::PromoteDemoted { page }
        | TraceEvent::MigrateRetry { page }
        | TraceEvent::MigrateFail { page }
        | TraceEvent::PageCacheDrop { page }
        | TraceEvent::ThpCollapse { page }
        | TraceEvent::ThpSplit { page } => {
            out.push_str(&format!(",\"page\":{page}"));
        }
        TraceEvent::FaultAround { page, pages } => {
            out.push_str(&format!(",\"page\":{page},\"pages\":{pages}"));
        }
        TraceEvent::PromoteCandidate { page, latency } => {
            out.push_str(&format!(",\"page\":{page},\"latency\":{latency}"));
        }
        TraceEvent::PromoteReject { page, reason } => {
            out.push_str(&format!(",\"page\":{page},\"reason\":\"{}\"", reason.name()));
        }
        TraceEvent::ThresholdAdjust { before, after, candidate_bytes, limit_bytes } => {
            out.push_str(&format!(
                ",\"before\":{before},\"after\":{after},\"candidate_bytes\":{candidate_bytes},\"limit_bytes\":{limit_bytes}"
            ));
        }
        TraceEvent::RateLimitConsume { bytes } => {
            out.push_str(&format!(",\"bytes\":{bytes}"));
        }
        TraceEvent::RateLimitDeny { bytes, available } => {
            out.push_str(&format!(",\"bytes\":{bytes},\"available\":{available}"));
        }
        TraceEvent::FaultInjected { site } => {
            out.push_str(&format!(",\"site\":\"{}\"", site.name()));
        }
        TraceEvent::ReclaimStall { cycles } => {
            out.push_str(&format!(",\"cycles\":{cycles}"));
        }
        TraceEvent::CellStart { cell, attempt }
        | TraceEvent::CellDone { cell, attempt }
        | TraceEvent::CellRetry { cell, attempt }
        | TraceEvent::CellQuarantine { cell, attempt } => {
            out.push_str(&format!(",\"cell\":{cell},\"attempt\":{attempt}"));
        }
        TraceEvent::RungStart { rung, cells, budget_ticks } => {
            out.push_str(&format!(
                ",\"rung\":{rung},\"cells\":{cells},\"budget_ticks\":{budget_ticks}"
            ));
        }
        TraceEvent::CellScored { cell, ticks, promo_bytes } => {
            out.push_str(&format!(
                ",\"cell\":{cell},\"ticks\":{ticks},\"promo_bytes\":{promo_bytes}"
            ));
        }
        TraceEvent::ParetoUpdate { cell, front } => {
            out.push_str(&format!(",\"cell\":{cell},\"front\":{front}"));
        }
    }
    out.push_str("}\n");
}

/// CSV column header, shared by the exporter and its consumers. The
/// trailing `recorded`/`dropped` columns are only populated by the final
/// `trace_summary` row.
pub const CSV_HEADER: &str =
    "t,seq,event,page,latency,reason,before,after,candidate_bytes,limit_bytes,bytes,available,site,cycles,cell,attempt,pages,rung,cells,budget_ticks,ticks,promo_bytes,front,recorded,dropped";

/// Serializes `log` as CSV with [`CSV_HEADER`] columns. Cells that do
/// not apply to an event are left empty.
pub fn to_csv(log: &TraceLog) -> String {
    let mut out = String::new();
    out.push_str(CSV_HEADER);
    out.push('\n');
    let mut last_now = 0;
    for rec in &log.records {
        push_record_csv(&mut out, rec);
        last_now = rec.now;
    }
    out.push_str(&format!(
        "{},{},{TRACE_SUMMARY},,,,,,,,,,,,,,,,,,,,,{},{}\n",
        last_now, log.recorded, log.recorded, log.dropped
    ));
    out
}

fn push_record_csv(out: &mut String, rec: &TraceRecord) {
    // Columns: page, latency, reason, before, after, candidate_bytes,
    // limit_bytes, bytes, available, site, cycles, cell, attempt, pages,
    // rung, cells, budget_ticks, ticks, promo_bytes, front, recorded,
    // dropped.
    let mut cells: [String; 22] = Default::default();
    match rec.event {
        TraceEvent::HintFault { page }
        | TraceEvent::PromoteAccept { page }
        | TraceEvent::DemoteKswapd { page }
        | TraceEvent::DemoteDirect { page }
        | TraceEvent::PromoteDemoted { page }
        | TraceEvent::MigrateRetry { page }
        | TraceEvent::MigrateFail { page }
        | TraceEvent::PageCacheDrop { page }
        | TraceEvent::ThpCollapse { page }
        | TraceEvent::ThpSplit { page } => {
            cells[0] = page.to_string();
        }
        TraceEvent::FaultAround { page, pages } => {
            cells[0] = page.to_string();
            cells[13] = pages.to_string();
        }
        TraceEvent::PromoteCandidate { page, latency } => {
            cells[0] = page.to_string();
            cells[1] = latency.to_string();
        }
        TraceEvent::PromoteReject { page, reason } => {
            cells[0] = page.to_string();
            cells[2] = reason.name().to_string();
        }
        TraceEvent::ThresholdAdjust { before, after, candidate_bytes, limit_bytes } => {
            cells[3] = before.to_string();
            cells[4] = after.to_string();
            cells[5] = candidate_bytes.to_string();
            cells[6] = limit_bytes.to_string();
        }
        TraceEvent::RateLimitConsume { bytes } => {
            cells[7] = bytes.to_string();
        }
        TraceEvent::RateLimitDeny { bytes, available } => {
            cells[7] = bytes.to_string();
            cells[8] = available.to_string();
        }
        TraceEvent::FaultInjected { site } => {
            cells[9] = site.name().to_string();
        }
        TraceEvent::ReclaimStall { cycles } => {
            cells[10] = cycles.to_string();
        }
        TraceEvent::CellStart { cell, attempt }
        | TraceEvent::CellDone { cell, attempt }
        | TraceEvent::CellRetry { cell, attempt }
        | TraceEvent::CellQuarantine { cell, attempt } => {
            cells[11] = cell.to_string();
            cells[12] = attempt.to_string();
        }
        TraceEvent::RungStart { rung, cells: in_rung, budget_ticks } => {
            cells[14] = rung.to_string();
            cells[15] = in_rung.to_string();
            cells[16] = budget_ticks.to_string();
        }
        TraceEvent::CellScored { cell, ticks, promo_bytes } => {
            cells[11] = cell.to_string();
            cells[17] = ticks.to_string();
            cells[18] = promo_bytes.to_string();
        }
        TraceEvent::ParetoUpdate { cell, front } => {
            cells[11] = cell.to_string();
            cells[19] = front.to_string();
        }
    }
    out.push_str(&format!("{},{},{},{}\n", rec.now, rec.seq, rec.event.name(), cells.join(",")));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultSite, RejectReason};
    use crate::state::{TraceConfig, TraceState};

    fn sample_log() -> TraceLog {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(16));
        t.set_now(10);
        t.record(TraceEvent::HintFault { page: 7 });
        t.record(TraceEvent::PromoteCandidate { page: 7, latency: 123 });
        t.record(TraceEvent::PromoteReject { page: 7, reason: RejectReason::RateLimited });
        t.record(TraceEvent::RateLimitDeny { bytes: 4096, available: 100 });
        t.set_now(20);
        t.record(TraceEvent::ThresholdAdjust {
            before: 1000,
            after: 800,
            candidate_bytes: 8192,
            limit_bytes: 4096,
        });
        t.record(TraceEvent::FaultInjected { site: FaultSite::DramAlloc });
        t.record(TraceEvent::ReclaimStall { cycles: 555 });
        t.set_gauge("threshold_cycles", 800);
        t.snapshot_metrics();
        t.log()
    }

    #[test]
    fn jsonl_lines_are_flat_objects_with_required_keys() {
        let text = to_jsonl(&sample_log());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7 + 1 + 1, "7 records + metrics snapshot + summary");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            for key in ["\"t\":", "\"seq\":", "\"event\":\""] {
                assert!(line.contains(key), "{line} missing {key}");
            }
        }
        assert!(lines[2].contains("\"reason\":\"rate_limited\""), "{}", lines[2]);
        assert!(lines[3].contains("\"bytes\":4096,\"available\":100"), "{}", lines[3]);
        assert!(lines[4].contains("\"before\":1000,\"after\":800"), "{}", lines[4]);
        assert!(lines[7].contains("\"metrics\":{"), "{}", lines[7]);
        assert!(lines[7].contains("\"threshold_cycles\":800"), "{}", lines[7]);
        let summary = lines.last().unwrap();
        assert!(summary.contains("\"event\":\"trace_summary\""), "{summary}");
        assert!(summary.contains("\"recorded\":7,\"dropped\":0"), "{summary}");

        // The reader accepts the export and refuses each broken copy at
        // the first line that breaks a rule.
        assert_eq!(check_jsonl(&text), Ok(9));
        let headless: String = lines[..8].iter().map(|l| format!("{l}\n")).collect();
        for (bad, line, reason) in [
            (String::new(), 0, "empty"),
            ("not json\n".to_string(), 1, "one JSON object"),
            (text.replacen("\"seq\":0,", "", 1), 1, "exactly the keys"),
            (text.replacen("\"t\":10", "\"t\":1\"0", 1), 1, "one JSON object"),
            (text.replacen(",\"page\":7}", ",\"pages\":7}", 1), 1, "exactly the keys"),
            (text.replacen(",\"page\":7}", ",\"page\":7,\"x\":1}", 1), 1, "exactly the keys"),
            (text.replacen("\"page\":7}", "\"page\":\"7\"}", 1), 1, "`page` has the wrong type"),
            (text.replacen("\"rate_limited\"", "0", 1), 3, "`reason` has the wrong type"),
            (text.replacen(":800}", ":\"800\"}", 1), 8, "`metrics` has the wrong type"),
            (
                text.replacen("\"dropped\":0", "\"dropped\":{}", 1),
                9,
                "`dropped` has the wrong type",
            ),
            (text.replacen("hint_fault", "mystery_event", 1), 1, "unknown event"),
            (text.replacen("\"seq\":1", "\"seq\":0", 1), 2, "strictly increase"),
            (headless, 8, "final line"),
            (text.replacen("metrics_snapshot", "trace_summary", 1), 8, "final line"),
            (text.replacen("\"recorded\":7", "\"recorded\":9", 1), 9, "summary seq"),
        ] {
            let err = check_jsonl(&bad).unwrap_err();
            assert!(err.line == line && err.reason.contains(reason), "{err} for {bad:?}");
        }
    }

    #[test]
    fn jsonl_summary_reports_drops() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(2));
        for page in 0..5 {
            t.record(TraceEvent::HintFault { page });
        }
        let text = to_jsonl(&t.log());
        assert!(text.contains("\"recorded\":5,\"dropped\":3"), "{text}");
    }

    #[test]
    fn csv_has_fixed_width_rows_and_summary() {
        let text = to_csv(&sample_log());
        let lines: Vec<&str> = text.lines().collect();
        let width = CSV_HEADER.split(',').count();
        assert_eq!(lines[0], CSV_HEADER);
        for line in &lines {
            assert_eq!(line.split(',').count(), width, "{line}");
        }
        assert!(lines[1].starts_with("10,0,hint_fault,7,"), "{}", lines[1]);
        let summary = lines.last().unwrap();
        assert!(summary.contains("trace_summary"), "{summary}");
        assert!(summary.ends_with(",7,0"), "{summary}");
    }

    #[test]
    fn cell_lifecycle_events_export_cell_and_attempt_fields() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(16));
        t.record(TraceEvent::CellStart { cell: 3, attempt: 1 });
        t.record(TraceEvent::CellRetry { cell: 3, attempt: 1 });
        t.record(TraceEvent::CellStart { cell: 3, attempt: 2 });
        t.record(TraceEvent::CellDone { cell: 3, attempt: 2 });
        t.record(TraceEvent::CellQuarantine { cell: 5, attempt: 3 });
        let log = t.log();
        let jsonl = to_jsonl(&log);
        assert!(jsonl.contains("\"event\":\"cell_start\",\"cell\":3,\"attempt\":1"), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"cell_done\",\"cell\":3,\"attempt\":2"), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"cell_retry\""), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"cell_quarantine\",\"cell\":5"), "{jsonl}");
        let csv = to_csv(&log);
        let width = CSV_HEADER.split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), width, "{line}");
        }
        assert!(csv.lines().any(|l| l.contains("cell_quarantine") && l.contains(",5,3,")), "{csv}");
    }

    #[test]
    fn thp_and_fault_around_events_export_their_fields() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(16));
        t.record(TraceEvent::ThpCollapse { page: 512 });
        t.record(TraceEvent::ThpSplit { page: 512 });
        t.record(TraceEvent::FaultAround { page: 9, pages: 15 });
        let log = t.log();
        let jsonl = to_jsonl(&log);
        assert!(jsonl.contains("\"event\":\"thp_collapse\",\"page\":512"), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"thp_split\",\"page\":512"), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"fault_around\",\"page\":9,\"pages\":15"), "{jsonl}");
        let csv = to_csv(&log);
        let width = CSV_HEADER.split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), width, "{line}");
        }
        let pages_col = CSV_HEADER.split(',').position(|c| c == "pages").unwrap();
        assert!(
            csv.lines()
                .any(|l| l.contains("fault_around") && l.split(',').nth(pages_col) == Some("15")),
            "{csv}"
        );
    }

    #[test]
    fn tuner_lifecycle_events_export_their_fields() {
        let mut t = TraceState::new(TraceConfig::on().with_capacity(16));
        t.record(TraceEvent::RungStart { rung: 0, cells: 216, budget_ticks: 50_000 });
        t.record(TraceEvent::CellScored { cell: 42, ticks: 1234, promo_bytes: 8192 });
        t.record(TraceEvent::ParetoUpdate { cell: 42, front: 3 });
        let log = t.log();
        let jsonl = to_jsonl(&log);
        assert!(
            jsonl.contains(
                "\"event\":\"rung_start\",\"rung\":0,\"cells\":216,\"budget_ticks\":50000"
            ),
            "{jsonl}"
        );
        assert!(
            jsonl.contains(
                "\"event\":\"cell_scored\",\"cell\":42,\"ticks\":1234,\"promo_bytes\":8192"
            ),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"event\":\"pareto_update\",\"cell\":42,\"front\":3"), "{jsonl}");
        let csv = to_csv(&log);
        let width = CSV_HEADER.split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), width, "{line}");
        }
        let ticks_col = CSV_HEADER.split(',').position(|c| c == "ticks").unwrap();
        assert!(
            csv.lines()
                .any(|l| l.contains("cell_scored") && l.split(',').nth(ticks_col) == Some("1234")),
            "{csv}"
        );
    }

    #[test]
    fn empty_log_exports_just_the_summary() {
        let log = TraceLog::default();
        let jsonl = to_jsonl(&log);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"recorded\":0,\"dropped\":0"));
        assert_eq!(to_csv(&log).lines().count(), 2);
    }
}
