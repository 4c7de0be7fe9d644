//! The trace-coverage pass.
//!
//! Contract (DESIGN.md §11): the trace layer is only useful if it is
//! *total* — every `TraceEvent` variant must actually be emitted by the
//! engine/reclaim/fault/sweep code, must have a handling arm in
//! `replay.rs` (so replaying a trace reconstructs the vmstat deltas), and
//! must have an exemplar in `TraceEvent::exemplars` (so `check_jsonl`,
//! which reads each event's keys and value types off its exemplar,
//! accepts exported JSONL). The exhaustive match of `TraceEvent::fields`
//! already makes the compiler prove every variant has a name and keys.
//! A variant missing any leg is a finding:
//!
//! - **no emission site** — the variant is dead vocabulary, or worse,
//!   the decision it should record is untraced;
//! - **no replay arm** — replay silently drops it and the trace↔vmstat
//!   conservation property can no longer hold by construction;
//! - **no exemplar** — `check_jsonl` (and so `cargo xtask trace-check`)
//!   would reject real traces containing it.
//!
//! Emission sites are `TraceEvent::Variant` constructions in non-test
//! functions under `crates/os`, `crates/mem`, `crates/core` — except
//! `replay.rs`, whose constructions are *handling*, counted separately.
//! Exemplars are the constructions inside `TraceEvent::exemplars`.

use crate::diag::Diagnostic;
use crate::item_model::{Item, ItemKind, Project};
use std::collections::BTreeSet;

/// Pass id (used in `allow(...)` annotations and baseline keys).
pub const NAME: &str = "trace-coverage";

/// The traced-event enum.
const EVENT_ENUM: &str = "TraceEvent";

/// The function holding one instance of every variant.
const EXEMPLARS: &str = "TraceEvent::exemplars";

/// Crates whose non-test code counts as emission sites.
fn emission_scope(path: &str) -> bool {
    (path.starts_with("crates/os/")
        || path.starts_with("crates/mem/")
        || path.starts_with("crates/core/"))
        && !path.ends_with("/replay.rs")
}

fn diag(path: &str, line: usize, variant: &str, message: String) -> Diagnostic {
    Diagnostic {
        tool: "analyze",
        rule: NAME.to_string(),
        path: path.to_string(),
        line,
        item: EVENT_ENUM.to_string(),
        token: variant.to_string(),
        message,
        baselined: false,
    }
}

/// Runs the pass over the modeled project.
pub fn run(project: &Project) -> Vec<Diagnostic> {
    let Some((enum_file, enum_item)) = project.find_item(ItemKind::Enum, EVENT_ENUM) else {
        return Vec::new(); // nothing to check (fixtures without the enum)
    };
    let variants: Vec<&str> = enum_item.fields.iter().map(String::as_str).collect();

    // Where is each variant constructed (`TraceEvent :: Variant`)?
    let mut emitted: BTreeSet<&str> = BTreeSet::new();
    let mut replayed: BTreeSet<&str> = BTreeSet::new();
    let mut exemplified: BTreeSet<&str> = BTreeSet::new();
    for (file, item) in project.items() {
        if item.kind != ItemKind::Fn || item.in_test {
            continue;
        }
        let found = if file.path.ends_with("/replay.rs") {
            &mut replayed
        } else if item.qual == EXEMPLARS {
            &mut exemplified
        } else if emission_scope(&file.path) {
            &mut emitted
        } else {
            continue;
        };
        for w in item.tokens.windows(3) {
            if w[0].text == EVENT_ENUM && w[1].text == "::" {
                if let Some(v) = variants.iter().find(|v| **v == w[2].text) {
                    found.insert(v);
                }
            }
        }
    }

    let mut out = Vec::new();
    for v in &variants {
        let line = variant_line(enum_item, v);
        if !emitted.contains(v) {
            out.push(diag(
                &enum_file.path,
                line,
                v,
                format!(
                    "variant `{v}` is never emitted by engine/reclaim/fault/sweep code — \
                     dead vocabulary or an untraced decision"
                ),
            ));
        }
        if !replayed.contains(v) {
            out.push(diag(
                &enum_file.path,
                line,
                v,
                format!(
                    "variant `{v}` has no handling arm in replay.rs — replay would silently \
                     drop it and break the trace↔vmstat conservation property"
                ),
            ));
        }
        if !exemplified.contains(v) {
            out.push(diag(
                &enum_file.path,
                line,
                v,
                format!(
                    "variant `{v}` has no exemplar in `{EXEMPLARS}` — exported traces \
                     containing it would fail validation"
                ),
            ));
        }
    }
    out
}

/// Declaration line of a variant inside the enum item.
fn variant_line(enum_item: &Item, variant: &str) -> usize {
    enum_item
        .tokens
        .iter()
        .find(|t| t.text == variant)
        .map(|t| t.line)
        .unwrap_or(enum_item.start_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_model::Project;

    /// A miniature trace stack: the enum and its `impl` (holding
    /// `methods`) in one file, an engine emitter, and a replay handler.
    fn fixture(engine: &str, replay: &str, methods: &str) -> Vec<Diagnostic> {
        let event = "pub enum TraceEvent {\n    HintFault { page: u64 },\n    PromoteAccept { page: u64 },\n}\n";
        let project = Project::from_sources(vec![
            (
                "crates/trace/src/event.rs".to_string(),
                format!("{event}impl TraceEvent {{\n{methods}}}\n"),
            ),
            ("crates/os/src/engine.rs".to_string(), engine.to_string()),
            ("crates/os/src/replay.rs".to_string(), replay.to_string()),
        ]);
        run(&project)
    }

    const FULL_ENGINE: &str = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n    record(TraceEvent::PromoteAccept { page: 1 });\n}\n";
    const FULL_REPLAY: &str = "pub fn replay_counters(e: TraceEvent) {\n    match e {\n        TraceEvent::HintFault { .. } => {}\n        TraceEvent::PromoteAccept { .. } => {}\n    }\n}\n";
    const FULL_EXEMPLARS: &str = "    pub(crate) fn exemplars() -> &'static [TraceEvent] {\n        &[TraceEvent::HintFault { page: 0 }, TraceEvent::PromoteAccept { page: 0 }]\n    }\n";

    #[test]
    fn total_coverage_is_clean() {
        assert_eq!(fixture(FULL_ENGINE, FULL_REPLAY, FULL_EXEMPLARS), Vec::new());
    }

    #[test]
    fn planted_unemitted_variant_is_flagged() {
        let engine = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n}\n";
        let diags = fixture(engine, FULL_REPLAY, FULL_EXEMPLARS);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "PromoteAccept");
        assert!(diags[0].message.contains("never emitted"));
        // Anchored at the variant's declaration in the enum file.
        assert_eq!(diags[0].path, "crates/trace/src/event.rs");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn planted_unreplayed_variant_is_flagged() {
        let replay = "pub fn replay_counters(e: TraceEvent) {\n    match e {\n        TraceEvent::HintFault { .. } => {}\n        _ => {}\n    }\n}\n";
        let diags = fixture(FULL_ENGINE, replay, FULL_EXEMPLARS);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "PromoteAccept");
        assert!(diags[0].message.contains("no handling arm in replay.rs"));
    }

    #[test]
    fn planted_missing_exemplar_is_flagged() {
        // `PromoteAccept` is constructed in the enum's file, but outside
        // `exemplars`, which does not count.
        let methods = "    pub(crate) fn exemplars() -> &'static [TraceEvent] {\n        &[TraceEvent::HintFault { page: 0 }]\n    }\n\
                       pub fn other() -> TraceEvent {\n        TraceEvent::PromoteAccept { page: 0 }\n    }\n";
        let diags = fixture(FULL_ENGINE, FULL_REPLAY, methods);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "PromoteAccept");
        assert_eq!(diags[0].path, "crates/trace/src/event.rs");
        assert!(diags[0].message.contains("no exemplar"));
    }

    #[test]
    fn missing_exemplars_function_flags_every_variant() {
        let diags = fixture(FULL_ENGINE, FULL_REPLAY, "");
        let tokens: Vec<&str> = diags.iter().map(|d| d.token.as_str()).collect();
        assert_eq!(tokens, ["HintFault", "PromoteAccept"]);
        assert!(diags.iter().all(|d| d.message.contains("no exemplar")));
    }

    #[test]
    fn replay_construction_does_not_count_as_emission() {
        // Only replay.rs constructs PromoteAccept: still unemitted.
        let engine = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n}\n";
        let diags = fixture(engine, FULL_REPLAY, FULL_EXEMPLARS);
        assert!(diags.iter().any(|d| d.message.contains("never emitted")));
    }

    #[test]
    fn test_code_emission_does_not_count() {
        let engine = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n}\n\
                      #[cfg(test)]\nmod tests {\n    fn t() { record(TraceEvent::PromoteAccept { page: 1 }); }\n}\n";
        let diags = fixture(engine, FULL_REPLAY, FULL_EXEMPLARS);
        assert_eq!(diags.len(), 1, "test-only emission must not satisfy the contract");
        assert!(diags[0].message.contains("never emitted"));
    }
}
