//! The counter-conservation pass.
//!
//! Contract (DESIGN.md §9): the vmstat counters in `VmCounters` are only
//! trustworthy because `audit.rs::check_counters` cross-checks them with
//! conservation laws. This pass makes the law surface total in both
//! directions:
//!
//! - **counter-without-law** — a `*Counters` field mutated anywhere in
//!   `crates/os`/`crates/mem` library code never appears in any law, so
//!   nothing would catch it drifting;
//! - **law-without-mutation** — a law references a field no code ever
//!   mutates, so the law is vacuous (usually a renamed counter).
//!
//! "Appears in a law" means the field's identifier occurs in the token
//! stream of `check_counters` or any function reachable from it through
//! the call map — that closure is what lets laws use helper methods like
//! `pgdemote_total()` instead of naming raw fields.

use crate::diag::Diagnostic;
use crate::item_model::{Item, ItemKind, Node, Project};
use std::collections::{BTreeMap, BTreeSet};

/// Pass id (used in `allow(...)` annotations and baseline keys).
pub const NAME: &str = "counter-conservation";

/// The function holding the conservation laws.
const AUDIT_FN: &str = "check_counters";

/// Paths whose counter mutations the contract covers.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/os/") || path.starts_with("crates/mem/")
}

fn diag(path: &str, line: usize, item: &str, token: &str, message: String) -> Diagnostic {
    Diagnostic {
        tool: "analyze",
        rule: NAME.to_string(),
        path: path.to_string(),
        line,
        item: item.to_string(),
        token: token.to_string(),
        message,
        baselined: false,
    }
}

/// Runs the pass over the modeled project.
pub fn run(project: &Project) -> Vec<Diagnostic> {
    // The counters struct: a `*Counters` struct declared in scope.
    let counters = project.items().find(|(f, i)| {
        i.kind == ItemKind::Struct && i.name.ends_with("Counters") && in_scope(&f.path)
    });
    let Some((counters_file, counters_item)) = counters else {
        return Vec::new(); // nothing to check (fixtures without counters)
    };
    let fields: BTreeSet<&str> = counters_item.fields.iter().map(String::as_str).collect();

    // Mutation sites: `<recv> . <field> (+=|-=|=)` in non-test fns in
    // scope. Keyed by field, keeping the first site for the report.
    let mut mutated: BTreeMap<&str, (String, usize, String)> = BTreeMap::new();
    for (file, item) in project.items() {
        if item.kind != ItemKind::Fn || item.in_test || !in_scope(&file.path) {
            continue;
        }
        for w in 2..item.tokens.len().saturating_sub(1) {
            let t = &item.tokens[w];
            let Some(field) = fields.get(t.text.as_str()).copied() else { continue };
            if item.tokens[w - 1].text != "." {
                continue;
            }
            let next = item.tokens[w + 1].text.as_str();
            if matches!(next, "+=" | "-=" | "=") {
                mutated.entry(field).or_insert((file.path.clone(), t.line, item.qual.clone()));
            }
        }
    }

    // Law terms: field identifiers appearing in `check_counters` or any
    // function reachable from it (helper-method closure).
    let Some((audit_file, audit_item)) = project.find_item(ItemKind::Fn, AUDIT_FN) else {
        // Counters exist but no audit function at all: every mutated
        // field is uncovered. Anchor at the struct.
        return mutated
            .keys()
            .map(|field| {
                diag(
                    &counters_file.path,
                    field_line(counters_item, field),
                    &counters_item.name,
                    field,
                    format!("counter `{field}` is mutated but no `{AUDIT_FN}` law function exists"),
                )
            })
            .collect();
    };
    let reachable = project.call_map().reachable(&[&audit_item.qual]);
    let mut law_terms: BTreeMap<&str, usize> = BTreeMap::new(); // field -> anchor line
    for (file, item) in project.items() {
        if item.kind != ItemKind::Fn || !reachable.contains(&Node::of(file, item)) {
            continue;
        }
        for t in &item.tokens {
            if let Some(field) = fields.get(t.text.as_str()).copied() {
                law_terms.entry(field).or_insert(t.line);
            }
        }
    }

    let mut out = Vec::new();
    for (field, (path, line, fn_qual)) in &mutated {
        if !law_terms.contains_key(field) {
            out.push(diag(
                path,
                *line,
                fn_qual,
                field,
                format!(
                    "counter `{field}` is mutated here but appears in no conservation law in \
                     {} — add a law to `{AUDIT_FN}` or the drift is invisible",
                    audit_file.path
                ),
            ));
        }
    }
    for (field, line) in &law_terms {
        if !mutated.contains_key(field) {
            out.push(diag(
                &audit_file.path,
                *line,
                AUDIT_FN,
                field,
                format!(
                    "law references counter `{field}` but nothing in crates/os or crates/mem \
                     ever mutates it — the law is vacuous"
                ),
            ));
        }
    }
    out
}

/// Line of a field's declaration inside the counters struct (falls back
/// to the struct's own line).
fn field_line(counters: &Item, field: &str) -> usize {
    counters
        .tokens
        .windows(2)
        .find(|w| w[0].text == field && w[1].text == ":")
        .map(|w| w[0].line)
        .unwrap_or(counters.start_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_model::Project;

    /// A miniature os crate: two counters, one law, one engine.
    fn fixture(engine_body: &str, audit_body: &str) -> Vec<Diagnostic> {
        let counters = "pub struct VmCounters {\n    pub hits: u64,\n    pub misses: u64,\n}\n\
                        impl VmCounters {\n    pub fn total(&self) -> u64 { self.hits + self.misses }\n}\n";
        let engine = format!("pub fn step(c: &mut VmCounters) {{\n{engine_body}\n}}\n");
        let audit = format!("pub fn check_counters(c: &VmCounters) {{\n{audit_body}\n}}\n");
        let project = Project::from_sources(vec![
            ("crates/os/src/counters.rs".to_string(), counters.to_string()),
            ("crates/os/src/engine.rs".to_string(), engine),
            ("crates/os/src/audit.rs".to_string(), audit),
        ]);
        run(&project)
    }

    #[test]
    fn covered_counters_are_clean() {
        let diags =
            fixture("    c.hits += 1;\n    c.misses += 1;", "    let _ = c.hits <= c.misses;");
        assert_eq!(diags, Vec::new(), "both fields mutated and in a law");
    }

    #[test]
    fn planted_counter_without_law_is_flagged() {
        let diags = fixture("    c.hits += 1;\n    c.misses += 1;", "    let _ = c.hits;");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "misses");
        assert_eq!(diags[0].path, "crates/os/src/engine.rs");
        assert!(diags[0].message.contains("no conservation law"));
    }

    #[test]
    fn planted_law_without_mutation_is_flagged() {
        let diags = fixture("    c.hits += 1;", "    let _ = c.hits + c.misses;");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].token, "misses");
        assert_eq!(diags[0].path, "crates/os/src/audit.rs");
        assert!(diags[0].message.contains("vacuous"));
    }

    #[test]
    fn helper_methods_count_as_law_coverage() {
        // The law only calls `c.total()`; both fields are covered through
        // the call-map closure into `VmCounters::total`.
        let diags = fixture("    c.hits += 1;\n    c.misses += 1;", "    let _ = c.total() >= 1;");
        assert_eq!(diags, Vec::new());
    }

    #[test]
    fn comparisons_and_test_code_are_not_mutations() {
        let counters = "pub struct VmCounters {\n    pub hits: u64,\n}\n";
        let engine = "pub fn read(c: &VmCounters) -> bool { c.hits == 3 }\n\
                      #[cfg(test)]\nmod tests {\n    fn t(c: &mut super::VmCounters) { c.hits += 1; }\n}\n";
        let audit = "pub fn check_counters(c: &VmCounters) { let _ = c.hits; }\n";
        let project = Project::from_sources(vec![
            ("crates/os/src/counters.rs".to_string(), counters.to_string()),
            ("crates/os/src/engine.rs".to_string(), engine.to_string()),
            ("crates/os/src/audit.rs".to_string(), audit.to_string()),
        ]);
        let diags = run(&project);
        // `hits` is in a law but its only mutation is test-only: vacuous.
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("vacuous"));
    }

    #[test]
    fn missing_audit_fn_flags_every_mutated_counter() {
        let counters = "pub struct VmCounters {\n    pub hits: u64,\n}\n";
        let engine = "pub fn step(c: &mut VmCounters) { c.hits += 1; }\n";
        let project = Project::from_sources(vec![
            ("crates/os/src/counters.rs".to_string(), counters.to_string()),
            ("crates/os/src/engine.rs".to_string(), engine.to_string()),
        ]);
        let diags = run(&project);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no `check_counters` law function"));
    }
}
