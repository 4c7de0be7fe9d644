//! Hostile input for the two readers of on-disk formats:
//! `journal::replay` (the sweep journal, DESIGN.md §13) and
//! `tiersim_trace::check_jsonl` (the `--trace` JSONL, §11).
//!
//! Each input comes from the real writer. Every prefix and every
//! single-byte substitution from a small ASCII alphabet must get a typed
//! verdict, never a panic; for the journal it must be the verdict the
//! torn-tail rule predicts, and a trace the reader still accepts keeps
//! every line's key set. Deterministic: no clock, no random numbers.

use tiersim_core::journal::{replay, CellId, JournalError, JournalWriter, Record};
use tiersim_trace::json::parse_object;
use tiersim_trace::{
    check_jsonl, to_jsonl, FaultSite, RejectReason, TraceConfig, TraceEvent, TraceState,
};

/// Bytes substituted at every offset: the JSON metacharacters, a digit,
/// a letter and the line separator.
const ALPHABET: &[u8] = b"\"\\{},:0a\n";

/// Every single-byte substitution of `text` from [`ALPHABET`] that
/// changes it, as `(offset, byte, mutated text)`.
fn substitutions(text: &str) -> impl Iterator<Item = (usize, u8, String)> + '_ {
    (0..text.len()).flat_map(move |at| {
        ALPHABET.iter().filter(move |&&sub| text.as_bytes()[at] != sub).map(move |&sub| {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = sub;
            (at, sub, String::from_utf8(bytes).expect("ASCII in, ASCII out"))
        })
    })
}

/// A small journal with one record of every kind, from `JournalWriter`.
fn journal() -> String {
    let path =
        std::env::temp_dir().join(format!("tiersim-hostile-input-{}.journal", std::process::id()));
    let writer = JournalWriter::create(&path, "scale=11 \"quoted\"", None).expect("create");
    let cell = CellId::derive("bfs_kron", "fp");
    let error = "stuck: tick budget 1\nexhausted".to_string();
    writer.append(&Record::Start { cell: cell.clone(), name: "bfs_kron".into(), attempt: 1 });
    writer.append(&Record::Fail {
        cell: cell.clone(),
        attempt: 1,
        class: "stuck".into(),
        error: error.clone(),
    });
    writer.append(&Record::Quarantine { cell: cell.clone(), attempts: 1, error });
    writer.append(&Record::Start { cell: cell.clone(), name: "bfs_kron".into(), attempt: 2 });
    writer.append(&Record::Done { cell, attempt: 2, payload: "row \\ 1\n{\"a\":0}".into() });
    drop(writer);
    let text = std::fs::read_to_string(&path).expect("read journal");
    std::fs::remove_file(&path).expect("remove journal");
    text
}

#[test]
fn journal_prefixes_and_substitutions_get_the_torn_tail_verdict() {
    let text = journal();
    let lines = text.lines().count();
    assert_eq!(replay(&text).expect("writer output replays").records, lines);

    let meta_end = text.find('\n').expect("meta line") + 1;
    for cut in meta_end..=text.len() {
        let prefix = &text[..cut];
        let r = replay(prefix).unwrap_or_else(|e| panic!("prefix of {cut} bytes: {e}"));
        assert_eq!(r.records, prefix.matches('\n').count(), "prefix of {cut} bytes");
        assert_eq!(r.torn_tail, !prefix.ends_with('\n'), "prefix of {cut} bytes");
    }

    for (at, sub, mutated) in substitutions(&text) {
        // The damaged line, counting each newline with the line after it:
        // replacing a newline joins the two lines into one record.
        let line = (text[..=at].matches('\n').count() + 1).min(lines);
        let at_last = line == lines && sub != b'\n';
        match replay(&mutated) {
            Err(JournalError::Corrupt { line: found, .. }) if !at_last => {
                assert!(found <= line, "byte {at} -> {:?}: corrupt at {found}", sub as char)
            }
            Ok(r) if at_last => assert!(r.torn_tail && r.records < lines, "byte {at}"),
            other => panic!("byte {at} (line {line}) -> {:?}: {other:?}", sub as char),
        }
    }
}

/// The JSONL export of a log holding every `TraceEvent` variant and a
/// metrics snapshot.
fn trace() -> String {
    let mut t = TraceState::new(TraceConfig::on().with_capacity(64));
    t.set_now(100);
    for event in [
        TraceEvent::HintFault { page: 7 },
        TraceEvent::PromoteCandidate { page: 7, latency: 900 },
        TraceEvent::PromoteAccept { page: 7 },
        TraceEvent::PromoteReject { page: 8, reason: RejectReason::RateLimited },
        TraceEvent::DemoteKswapd { page: 9 },
        TraceEvent::DemoteDirect { page: 10 },
        TraceEvent::PromoteDemoted { page: 7 },
        TraceEvent::MigrateRetry { page: 11 },
        TraceEvent::MigrateFail { page: 11 },
        TraceEvent::ThresholdAdjust {
            before: 1000,
            after: 800,
            candidate_bytes: 8192,
            limit_bytes: 4096,
        },
        TraceEvent::RateLimitConsume { bytes: 4096 },
        TraceEvent::RateLimitDeny { bytes: 4096, available: 100 },
        TraceEvent::FaultInjected { site: FaultSite::MigrateBusy },
        TraceEvent::ReclaimStall { cycles: 555 },
        TraceEvent::PageCacheDrop { page: 12 },
        TraceEvent::ThpCollapse { page: 512 },
        TraceEvent::ThpSplit { page: 512 },
        TraceEvent::FaultAround { page: 13, pages: 15 },
        TraceEvent::RungStart { rung: 0, cells: 216, budget_ticks: 50_000 },
        TraceEvent::CellScored { cell: 42, ticks: 1234, promo_bytes: 8192 },
        TraceEvent::ParetoUpdate { cell: 42, front: 3 },
    ] {
        t.record(event);
    }
    t.set_gauge("threshold_cycles", 800);
    t.snapshot_metrics();
    to_jsonl(&t.log())
}

/// The exact `to_jsonl` text of [`trace`]: every byte the writer emits
/// for each variant, the metrics snapshot and the summary.
const TRACE: &str = r#"{"t":100,"seq":0,"event":"hint_fault","page":7}
{"t":100,"seq":1,"event":"promote_candidate","page":7,"latency":900}
{"t":100,"seq":2,"event":"promote_accept","page":7}
{"t":100,"seq":3,"event":"promote_reject","page":8,"reason":"rate_limited"}
{"t":100,"seq":4,"event":"demote_kswapd","page":9}
{"t":100,"seq":5,"event":"demote_direct","page":10}
{"t":100,"seq":6,"event":"promote_demoted","page":7}
{"t":100,"seq":7,"event":"migrate_retry","page":11}
{"t":100,"seq":8,"event":"migrate_fail","page":11}
{"t":100,"seq":9,"event":"threshold_adjust","before":1000,"after":800,"candidate_bytes":8192,"limit_bytes":4096}
{"t":100,"seq":10,"event":"rate_limit_consume","bytes":4096}
{"t":100,"seq":11,"event":"rate_limit_deny","bytes":4096,"available":100}
{"t":100,"seq":12,"event":"fault_injected","site":"migrate_busy"}
{"t":100,"seq":13,"event":"reclaim_stall","cycles":555}
{"t":100,"seq":14,"event":"page_cache_drop","page":12}
{"t":100,"seq":15,"event":"thp_collapse","page":512}
{"t":100,"seq":16,"event":"thp_split","page":512}
{"t":100,"seq":17,"event":"fault_around","page":13,"pages":15}
{"t":100,"seq":18,"event":"rung_start","rung":0,"cells":216,"budget_ticks":50000}
{"t":100,"seq":19,"event":"cell_scored","cell":42,"ticks":1234,"promo_bytes":8192}
{"t":100,"seq":20,"event":"pareto_update","cell":42,"front":3}
{"t":100,"seq":21,"event":"metrics_snapshot","metrics":{"cell_scored":1,"demote_direct":1,"demote_kswapd":1,"fault_around":1,"fault_injected":1,"hint_fault":1,"migrate_fail":1,"migrate_retry":1,"page_cache_drop":1,"pareto_update":1,"promote_accept":1,"promote_candidate":1,"promote_demoted":1,"promote_reject":1,"rate_limit_consume":1,"rate_limit_deny":1,"reclaim_stall":1,"rung_start":1,"thp_collapse":1,"thp_split":1,"threshold_adjust":1,"threshold_cycles":800}}
{"t":100,"seq":22,"event":"trace_summary","recorded":21,"dropped":0}
"#;

#[test]
fn every_variant_trace_is_pinned_to_the_byte() {
    assert_eq!(trace(), TRACE);
}

#[test]
fn trace_prefixes_and_substitutions_never_panic() {
    let text = trace();
    assert_eq!(check_jsonl(&text), Ok(21 + 2), "every variant, a snapshot and the summary");
    for cut in 0..=text.len() {
        // Only the whole trace, with or without its final newline, ends in
        // a complete summary line.
        assert_eq!(check_jsonl(&text[..cut]).is_ok(), cut + 1 >= text.len(), "cut at {cut}");
    }
    // A substitution the reader still accepts may change a value or a
    // metric's name, never which keys a line holds.
    let keys = |text: &str| -> Vec<Vec<String>> {
        text.lines()
            .map(|line| parse_object(line).expect("accepted").into_keys().collect())
            .collect()
    };
    let original = keys(&text);
    let mut accepted = 0;
    for (at, sub, mutated) in substitutions(&text) {
        if check_jsonl(&mutated).is_ok() {
            assert_eq!(keys(&mutated), original, "byte {at} -> {:?}", sub as char);
            accepted += 1;
        }
    }
    assert!(accepted > 0, "digit substitutions in values stay valid");
}
