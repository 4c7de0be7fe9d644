//! The trace-coverage pass.
//!
//! Contract (DESIGN.md §11): the trace layer is only useful if it is
//! *total* — every `TraceEvent` variant must actually be emitted by the
//! engine/reclaim/fault/sweep code, must have a handling arm in
//! `replay.rs` (so replaying a trace reconstructs the vmstat deltas), and
//! its `name()` string must be in the `EVENT_NAMES` vocabulary beside it
//! in the enum's file (so `check_jsonl` accepts exported JSONL). A variant
//! missing any leg is a finding:
//!
//! - **no emission site** — the variant is dead vocabulary, or worse,
//!   the decision it should record is untraced;
//! - **no replay arm** — replay silently drops it and the trace↔vmstat
//!   conservation property can no longer hold by construction;
//! - **not in the vocabulary** — `check_jsonl` (and so
//!   `cargo xtask trace-check`) would reject real traces containing it.
//!
//! Emission sites are `TraceEvent::Variant` constructions in non-test
//! functions under `crates/os`, `crates/mem`, `crates/core` — except
//! `replay.rs`, whose constructions are *handling*, counted separately.
//! The `name()` strings and the vocabulary are read from the raw text of
//! the enum's file (the lexer blanks string literals).

use crate::diag::Diagnostic;
use crate::item_model::{Item, ItemKind, Project};
use crate::lexer::is_ident_char;
use std::collections::{BTreeMap, BTreeSet};

/// Pass id (used in `allow(...)` annotations and baseline keys).
pub const NAME: &str = "trace-coverage";

/// The traced-event enum.
const EVENT_ENUM: &str = "TraceEvent";

/// The const array, in the enum's file, of every name a JSONL trace may
/// carry.
const VOCABULARY: &str = "EVENT_NAMES";

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
    // Restrict name() extraction to the method's own span when it is
    // modeled, so test/doc code in the same file can't contribute fake
    // mappings.
    let name_span = enum_file
        .items
        .iter()
        .find(|i| i.kind == ItemKind::Fn && i.qual == format!("{EVENT_ENUM}::name"))
        .map(|i| (i.start_line, i.end_line));
    let names = name_strings(&enum_file.raw, name_span);
    let vocabulary = vocabulary(&enum_file.raw);

    // Where is each variant constructed (`TraceEvent :: Variant`)?
    let mut emitted: BTreeSet<&str> = BTreeSet::new();
    let mut replayed: BTreeSet<&str> = BTreeSet::new();
    for (file, item) in project.items() {
        if item.kind != ItemKind::Fn || item.in_test {
            continue;
        }
        let is_replay = file.path.ends_with("/replay.rs");
        if !is_replay && !emission_scope(&file.path) {
            continue;
        }
        for w in item.tokens.windows(3) {
            if w[0].text == EVENT_ENUM && w[1].text == "::" {
                if let Some(v) = variants.iter().find(|v| **v == w[2].text) {
                    if is_replay { &mut replayed } else { &mut emitted }.insert(v);
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
        match (names.get(*v), &vocabulary) {
            (None, _) => out.push(diag(
                &enum_file.path,
                line,
                v,
                format!("variant `{v}` has no `name()` mapping — exporters cannot serialize it"),
            )),
            (Some(name), Some(known)) if !known.contains(name.as_str()) => {
                out.push(diag(
                    &enum_file.path,
                    line,
                    v,
                    format!(
                        "variant `{v}`'s name `{name}` is missing from the JSONL event \
                         vocabulary ({VOCABULARY}) — exported traces containing it would fail \
                         validation"
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Extracts the `TraceEvent::Variant { .. } => "snake_name"` mappings
/// from the enum file's raw text (string literals are blanked in the
/// lexed view, so this works on the original source). When `span` is
/// given, only lines inside it (the `name()` method body) are scanned.
fn name_strings(raw: &str, span: Option<(usize, usize)>) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (idx, line) in raw.lines().enumerate() {
        if let Some((start, end)) = span {
            if idx + 1 < start || idx + 1 > end {
                continue;
            }
        }
        let Some(pos) = line.find(&format!("{EVENT_ENUM}::")) else { continue };
        let after = &line[pos + EVENT_ENUM.len() + 2..];
        let variant: String = after.chars().take_while(|c| is_ident_char(*c)).collect();
        let Some(arrow) = line.find("=>") else { continue };
        let rest = &line[arrow + 2..];
        let Some(q1) = rest.find('"') else { continue };
        let Some(q2) = rest[q1 + 1..].find('"') else { continue };
        if !variant.is_empty() {
            out.entry(variant).or_insert_with(|| rest[q1 + 1..q1 + 1 + q2].to_string());
        }
    }
    out
}

/// The event names of the `EVENT_NAMES` table in the enum file's raw
/// text (the quoted string opening each `("name", &[keys])` entry), or
/// `None` when the file declares no such table.
fn vocabulary(raw: &str) -> Option<BTreeSet<&str>> {
    let start = raw.find(&format!("const {VOCABULARY}"))?;
    let body = &raw[start..];
    let body = &body[..body.find("];").unwrap_or(body.len())];
    let names = body.split('(').filter_map(|entry| entry.trim_start().strip_prefix('"'));
    Some(names.filter_map(|entry| entry.split_once('"')).map(|(name, _)| name).collect())
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

    /// A miniature trace stack: enum + name() + the `vocabulary` array in
    /// one file, an engine emitter, and a replay handler.
    fn fixture(engine: &str, replay: &str, vocabulary: &str) -> Vec<Diagnostic> {
        let event = "pub enum TraceEvent {\n    HintFault { page: u64 },\n    PromoteAccept { page: u64 },\n}\n\
                     impl TraceEvent {\n    pub fn name(self) -> &'static str {\n        match self {\n            TraceEvent::HintFault { .. } => \"hint_fault\",\n            TraceEvent::PromoteAccept { .. } => \"promote_accept\",\n        }\n    }\n}\n";
        let project = Project::from_sources(vec![
            ("crates/trace/src/event.rs".to_string(), format!("{event}{vocabulary}")),
            ("crates/os/src/engine.rs".to_string(), engine.to_string()),
            ("crates/os/src/replay.rs".to_string(), replay.to_string()),
        ]);
        run(&project)
    }

    const FULL_ENGINE: &str = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n    record(TraceEvent::PromoteAccept { page: 1 });\n}\n";
    const FULL_REPLAY: &str = "pub fn replay_counters(e: TraceEvent) {\n    match e {\n        TraceEvent::HintFault { .. } => {}\n        TraceEvent::PromoteAccept { .. } => {}\n    }\n}\n";
    const FULL_VOCABULARY: &str = "pub(crate) const EVENT_NAMES: &[(&str, &[&str])] = &[(\"hint_fault\", &[\"page\"]), (\"promote_accept\", &[\"page\"]), (TRACE_SUMMARY, &[\"recorded\"])];\n";

    #[test]
    fn total_coverage_is_clean() {
        assert_eq!(fixture(FULL_ENGINE, FULL_REPLAY, FULL_VOCABULARY), Vec::new());
    }

    #[test]
    fn planted_unemitted_variant_is_flagged() {
        let engine = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n}\n";
        let diags = fixture(engine, FULL_REPLAY, FULL_VOCABULARY);
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
        let diags = fixture(FULL_ENGINE, replay, FULL_VOCABULARY);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "PromoteAccept");
        assert!(diags[0].message.contains("no handling arm in replay.rs"));
    }

    #[test]
    fn planted_schema_gap_is_flagged() {
        // `promote_accept` appears only as a key, which does not count.
        let vocabulary = "pub(crate) const EVENT_NAMES: &[(&str, &[&str])] = &[(\"hint_fault\", &[\"promote_accept\"])];\n";
        let diags = fixture(FULL_ENGINE, FULL_REPLAY, vocabulary);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "PromoteAccept");
        assert_eq!(diags[0].path, "crates/trace/src/event.rs");
        assert!(diags[0].message.contains("missing from the JSONL event vocabulary"));
    }

    #[test]
    fn replay_construction_does_not_count_as_emission() {
        // Only replay.rs constructs PromoteAccept: still unemitted.
        let engine = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n}\n";
        let diags = fixture(engine, FULL_REPLAY, FULL_VOCABULARY);
        assert!(diags.iter().any(|d| d.message.contains("never emitted")));
    }

    #[test]
    fn test_code_emission_does_not_count() {
        let engine = "pub fn step() {\n    record(TraceEvent::HintFault { page: 1 });\n}\n\
                      #[cfg(test)]\nmod tests {\n    fn t() { record(TraceEvent::PromoteAccept { page: 1 }); }\n}\n";
        let diags = fixture(engine, FULL_REPLAY, FULL_VOCABULARY);
        assert_eq!(diags.len(), 1, "test-only emission must not satisfy the contract");
        assert!(diags[0].message.contains("never emitted"));
    }

    #[test]
    fn missing_name_mapping_is_flagged() {
        let event = "pub enum TraceEvent {\n    HintFault { page: u64 },\n}\n\
                     impl TraceEvent {\n    pub fn name(self) -> &'static str {\n        \"x\"\n    }\n}\n";
        let engine = "pub fn step() { record(TraceEvent::HintFault { page: 1 }); }\n";
        let replay = "pub fn replay_counters(e: TraceEvent) {\n    match e { TraceEvent::HintFault { .. } => {} }\n}\n";
        let project = Project::from_sources(vec![
            ("crates/trace/src/event.rs".to_string(), event.to_string()),
            ("crates/os/src/engine.rs".to_string(), engine.to_string()),
            ("crates/os/src/replay.rs".to_string(), replay.to_string()),
        ]);
        let diags = run(&project);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no `name()` mapping"));
    }
}
