//! The panic-reachability pass.
//!
//! Contract: the simulation hot paths — everything reachable from
//! `Machine::run` (the access loop) and `run_cells` (the sweep runner) —
//! must not panic. The per-line lint already bans `unwrap`/`expect`
//! everywhere, but it cannot see *reachability*: a `panic!` in a helper
//! three calls deep is invisible to line rules and only fires in
//! production-shaped runs. This pass walks the call map from the two
//! roots and flags, in reachable non-test library functions:
//!
//! - panicking macros: `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!`
//!   (`debug_assert*` is exempt — compiled out of release builds, and
//!   the audit checkpoints rely on it);
//! - slice indexing (`expr[...]`), which panics out of bounds.
//!
//! The call map is over-approximate where the type is unknown (a method
//! call edges to every method of that name), so a "reachable" verdict
//! can be a false positive but an absent finding is trustworthy. Reviewed-and-intended sites carry a
//! `tiersim-analyze: allow(panic-reach)` annotation stating why the
//! panic cannot fire; legacy sites live in the baseline.

use crate::diag::Diagnostic;
use crate::item_model::{is_keyword, ItemKind, Project};

/// Pass id (used in `allow(...)` annotations and baseline keys).
pub const NAME: &str = "panic-reach";

/// Hot-path entry points. `run_cells_fallible` is listed explicitly so
/// the contract survives a refactor that stops routing it through
/// `run_cells`.
pub const ROOTS: &[&str] = &["Machine::run", "run_cells", "run_cells_fallible"];

/// Macros that abort the simulation when they fire.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Only library code is held to the contract; bins, integration tests
/// and xtask itself may panic.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/") && !path.contains("/tests/")
}

/// Runs the pass over the modeled project.
pub fn run(project: &Project) -> Vec<Diagnostic> {
    let reachable = project.call_map().reachable(&root_refs());
    let mut out = Vec::new();
    for (file, item) in project.items() {
        if item.kind != ItemKind::Fn
            || item.in_test
            || !in_scope(&file.path)
            || !reachable.contains(&item.qual)
        {
            continue;
        }
        for (w, t) in item.tokens.iter().enumerate() {
            let next = item.tokens.get(w + 1).map(|n| n.text.as_str());
            if PANIC_MACROS.contains(&t.text.as_str()) && next == Some("!") {
                out.push(finding(
                    file,
                    item,
                    t.line,
                    &t.text,
                    format!(
                        "`{}!` is reachable from the hot path ({}) — return an error or prove \
                         it unreachable with an allow annotation",
                        t.text,
                        roots_hit(&reachable)
                    ),
                ));
            }
            if t.text == "[" && w > 0 && indexable(&item.tokens[w - 1].text) {
                out.push(finding(
                    file,
                    item,
                    t.line,
                    &format!("{}[", item.tokens[w - 1].text),
                    format!(
                        "slice index can panic out of bounds on the hot path ({}) — prefer \
                         `.get()` or prove the bound with an allow annotation",
                        roots_hit(&reachable)
                    ),
                ));
            }
        }
    }
    out
}

fn root_refs() -> Vec<&'static str> {
    ROOTS.to_vec()
}

/// Which configured roots actually exist in this project (for messages).
fn roots_hit(reachable: &std::collections::BTreeSet<String>) -> String {
    let hit: Vec<&str> = ROOTS
        .iter()
        .copied()
        .filter(|r| {
            reachable.contains(*r) || reachable.iter().any(|q| q.rsplit("::").next() == Some(*r))
        })
        .collect();
    if hit.is_empty() {
        "hot path roots".to_string()
    } else {
        hit.join(", ")
    }
}

/// Can the previous token end an expression that `[` would index?
/// Identifiers (not keywords), `)` and `]` can; `vec![`/`#[`/slice
/// patterns cannot (their previous token is `!`, `#`, `=`, `let`, …).
fn indexable(prev: &str) -> bool {
    prev == ")"
        || prev == "]"
        || (prev.chars().next().is_some_and(char::is_alphanumeric) || prev.starts_with('_'))
            && !is_keyword(prev)
}

fn finding(
    file: &crate::item_model::FileModel,
    item: &crate::item_model::Item,
    line: usize,
    token: &str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        tool: "analyze",
        rule: NAME.to_string(),
        path: file.path.clone(),
        line,
        item: item.qual.clone(),
        token: token.to_string(),
        message,
        baselined: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_model::Project;

    fn diags(src: &str) -> Vec<Diagnostic> {
        let project = Project::from_sources(vec![(
            "crates/core/src/machine.rs".to_string(),
            src.to_string(),
        )]);
        run(&project)
    }

    #[test]
    fn panic_reachable_from_root_is_flagged() {
        let src = "pub struct Machine;\n\
                   impl Machine {\n    pub fn run(&mut self) { helper(); }\n}\n\
                   fn helper() { deep(); }\n\
                   fn deep() {\n    unreachable!(\"boom\");\n}\n";
        let found = diags(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].token, "unreachable");
        assert_eq!(found[0].item, "deep");
        assert_eq!(found[0].line, 7);
        assert!(found[0].message.contains("Machine::run"));
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let src = "pub struct Machine;\n\
                   impl Machine {\n    pub fn run(&mut self) {}\n}\n\
                   fn island() { panic!(\"never called from the hot path\"); }\n";
        assert_eq!(diags(src), Vec::new());
    }

    #[test]
    fn slice_indexing_is_flagged_but_macros_and_attrs_are_not() {
        let src = "pub fn run_cells(xs: &[u64]) -> u64 {\n    let v = vec![1, 2];\n    let _ = v;\n    xs[0]\n}\n";
        let found = diags(src);
        assert_eq!(found.len(), 1, "vec![ must not count as indexing: {found:?}");
        assert_eq!(found[0].token, "xs[");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn debug_assert_and_test_code_are_exempt() {
        let src = "pub fn run_cells(x: u64) {\n    debug_assert!(x > 0);\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(1, 1); }\n}\n";
        assert_eq!(diags(src), Vec::new());
    }

    #[test]
    fn assert_in_reachable_method_call_chain_is_flagged() {
        // run_cells -> c.check() resolves by name to the method Checker::check.
        let src = "pub fn run_cells(c: &Checker) { c.check(); }\n\
                   pub struct Checker;\n\
                   impl Checker {\n    pub fn check(&self) { assert!(false); }\n}\n";
        let found = diags(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, "Checker::check");
    }

    #[test]
    fn a_free_function_does_not_answer_a_method_call_of_its_name() {
        // A front end's free `run` beside the `Cell::run` the hot path
        // calls: the method call reaches only the method.
        let src = "pub fn run_cells(cell: &Cell) { cell.run(); }\n\
                   pub struct Cell;\n\
                   impl Cell {\n    pub fn run(&self) {}\n}\n\
                   pub fn run() { panic!(\"front end\"); }\n";
        assert_eq!(diags(src), Vec::new());
    }

    #[test]
    fn allow_annotation_suppresses_via_run_all() {
        let src = "pub fn run_cells() {\n    // tiersim-analyze: allow(panic-reach) — guarded by construction\n    unreachable!();\n}\n";
        let project =
            Project::from_sources(vec![("crates/core/src/sweep.rs".to_string(), src.to_string())]);
        assert_eq!(super::super::run_all(&project), Vec::new());
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let src = "pub fn run_cells() { panic!(); }\n";
        let project = Project::from_sources(vec![
            ("src/bin/repro_all.rs".to_string(), src.to_string()),
            ("crates/os/tests/behavior.rs".to_string(), src.to_string()),
        ]);
        assert_eq!(run(&project), Vec::new());
    }
}
