//! The JSONL trace exporter, [`to_jsonl`], and [`check_jsonl`], the one
//! reader of its layout.
//!
//! The writer is hand-rolled — the schema is small, flat, and fixed, and
//! hand emission keeps the crate dependency-free. Both sides take each
//! event's keys from [`TraceEvent::fields`]: the writer from the record,
//! the reader from the event's exemplar. The reader parses each line
//! with [`crate::json`]; `cargo xtask trace-check` is a thin call into
//! it.
//!
//! JSONL layout (see DESIGN.md §11):
//! - one line per surviving [`crate::TraceRecord`], keys `t`, `seq`, `event`,
//!   plus the event's own fields;
//! - one `"event":"metrics_snapshot"` line per interval snapshot;
//! - a final `"event":"trace_summary"` line carrying `recorded` and
//!   `dropped`, so truncation by the ring is never silent.

use crate::event::{Field, TraceEvent};
use crate::json::{parse_object, Value};
use crate::state::TraceLog;
use std::collections::BTreeSet;
use std::fmt;

/// The per-interval metrics line's event name.
const METRICS_SNAPSHOT: &str = "metrics_snapshot";
/// The metrics line's one key, a nested object of unsigned integers.
const METRICS: &str = "metrics";
/// The final line's event name.
const TRACE_SUMMARY: &str = "trace_summary";

/// The summary line's fields.
fn summary_fields(recorded: u64, dropped: u64) -> [(&'static str, Field); 2] {
    [("recorded", Field::Num(recorded)), ("dropped", Field::Num(dropped))]
}

/// Serializes `log` as JSON Lines.
pub fn to_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    let mut last_now = 0;
    for rec in &log.records {
        let (event, fields) = rec.event.fields();
        push_line(&mut out, rec.now, rec.seq, event, &fields);
        last_now = rec.now;
    }
    let mut seq = log.recorded;
    for snap in &log.snapshots {
        out.push_str(&format!(
            "{{\"t\":{},\"seq\":{seq},\"event\":\"{METRICS_SNAPSHOT}\",\"{METRICS}\":{{",
            snap.now
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
    let summary = summary_fields(log.recorded, log.dropped);
    push_line(&mut out, last_now, seq, TRACE_SUMMARY, &summary);
    out
}

/// Writes one flat line: `t`, `seq`, `event`, then `fields` in order.
fn push_line(out: &mut String, t: u64, seq: u64, event: &str, fields: &[(&str, Field)]) {
    out.push_str(&format!("{{\"t\":{t},\"seq\":{seq},\"event\":\"{event}\""));
    for (key, value) in fields {
        match value {
            Field::Num(n) => out.push_str(&format!(",\"{key}\":{n}")),
            Field::Name(name) => out.push_str(&format!(",\"{key}\":\"{name}\"")),
        }
    }
    out.push_str("}\n");
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
/// types: the string `event`, unsigned integers for `t`, `seq` and each
/// [`Field::Num`], strings for each [`Field::Name`], and the `metrics`
/// object of unsigned integers. `seq` strictly increases; the last line,
/// and only it, is a `trace_summary`. Record lines number `0..recorded`
/// and snapshots and the summary continue the count, so the summary's
/// `seq` is at least `recorded`.
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
        let own = if event == METRICS_SNAPSHOT {
            Vec::new()
        } else if event == TRACE_SUMMARY {
            summary_fields(0, 0).to_vec()
        } else {
            let mut schemas = TraceEvent::exemplars().iter().map(|e| e.fields());
            let schema = schemas.find(|(name, _)| *name == event);
            schema.ok_or_else(|| err(format!("unknown event `{event}`")))?.1
        };
        let is_last = idx + 1 == lines.len();
        if (event == TRACE_SUMMARY) != is_last {
            return Err(err(format!("{TRACE_SUMMARY} must be exactly the final line")));
        }
        let mut keys: BTreeSet<&str> = own.iter().map(|(key, _)| *key).collect();
        keys.extend(["t", "seq", "event"]);
        if event == METRICS_SNAPSHOT {
            keys.insert(METRICS);
        }
        if !obj.keys().map(String::as_str).eq(keys.iter().copied()) {
            return Err(err(format!("`{event}` line must hold exactly the keys {keys:?}")));
        }
        for (key, value) in &obj {
            let typed = match own.iter().find(|(own_key, _)| own_key == key) {
                Some((_, Field::Num(_))) => value.as_u64().is_some(),
                Some((_, Field::Name(_))) => value.as_str().is_some(),
                None if key == "event" => value.as_str().is_some(),
                None if key == METRICS => {
                    value.as_object().is_some_and(|m| m.values().all(|v| v.as_u64().is_some()))
                }
                None => value.as_u64().is_some(),
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
    }

    #[test]
    fn empty_log_exports_just_the_summary() {
        let log = TraceLog::default();
        let jsonl = to_jsonl(&log);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"recorded\":0,\"dropped\":0"));
    }
}
