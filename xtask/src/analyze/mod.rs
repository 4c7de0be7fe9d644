//! `cargo xtask analyze`: the project-wide contract analyzer.
//!
//! Three passes over the [`crate::item_model::Project`] (DESIGN.md §14),
//! each enforcing a cross-crate contract that otherwise only fails at
//! runtime:
//!
//! - [`counter_conservation`] — every mutated `VmCounters` field has an
//!   audit law, and every law term has a mutation site;
//! - [`trace_coverage`] — every `TraceEvent` variant is emitted,
//!   replayed, and has an exemplar in `TraceEvent::exemplars`, the JSONL
//!   reader's schema;
//! - [`panic_reachability`] — no panic or slice-index in library code
//!   reachable from `Machine::run` / `run_cells`.
//!
//! Findings are suppressed two ways:
//!
//! - a `tiersim-analyze: allow(<pass>)` comment on the finding's line or
//!   the line above — for findings that are *reviewed and intended*
//!   (each annotation should say why);
//! - the checked-in baseline (`ANALYZE_BASELINE.txt`) — for pre-existing
//!   findings we have not paid down yet. Baseline keys are
//!   `pass \t path \t item \t token` with an occurrence count, so they
//!   survive unrelated line churn but ratchet: a count can only shrink.
//!   New findings beyond a key's count fail the build; stale entries are
//!   reported so the file gets re-tightened with `--write-baseline`.

pub mod counter_conservation;
pub mod panic_reachability;
pub mod trace_coverage;

use crate::diag::Diagnostic;
use crate::item_model::Project;
use std::collections::BTreeMap;

/// Pass ids and one-line descriptions, for `analyze --list`.
pub const PASSES: &[(&str, &str)] = &[
    (
        counter_conservation::NAME,
        "every mutated VmCounters field has an audit law; every law term has a mutation site",
    ),
    (
        trace_coverage::NAME,
        "every TraceEvent variant is emitted, handled in replay.rs, and has an exemplar",
    ),
    (
        panic_reachability::NAME,
        "no panic!/assert!/unreachable!/slice-index reachable from Machine::run or run_cells",
    ),
];

/// Runs every pass and filters `tiersim-analyze: allow(<pass>)`
/// annotations. Returned diagnostics are sorted by path, line, rule.
pub fn run_all(project: &Project) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(counter_conservation::run(project));
    diags.extend(trace_coverage::run(project));
    diags.extend(panic_reachability::run(project));
    diags.retain(|d| !allowed(project, d));
    diags.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.token).cmp(&(&b.path, b.line, &b.rule, &b.token))
    });
    diags
}

/// True when the finding's line (or the line above it) carries a
/// `tiersim-analyze: allow(<pass>)` comment — same shape as the lint
/// suppressions, scoped per pass.
fn allowed(project: &Project, d: &Diagnostic) -> bool {
    let Some(file) = project.file(&d.path) else { return false };
    let needle = format!("tiersim-analyze: allow({})", d.rule);
    let has = |number: usize| {
        number >= 1
            && file.lines.get(number - 1).is_some_and(|l| l.comment.contains(needle.as_str()))
    };
    has(d.line) || has(d.line.wrapping_sub(1))
}

/// The stable identity of a finding for baseline matching: everything
/// except the line number, so unrelated edits don't churn the file.
pub fn baseline_key(d: &Diagnostic) -> String {
    format!("{}\t{}\t{}\t{}", d.rule, d.path, d.item, d.token)
}

/// Parses a baseline file: `pass<TAB>path<TAB>item<TAB>token<TAB>count`
/// per line, `#` comments and blank lines ignored.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [rule, path, item, token, count] = fields[..] else {
            return Err(format!("baseline line {}: expected 5 tab-separated fields", idx + 1));
        };
        let count: usize =
            count.parse().map_err(|_| format!("baseline line {}: bad count `{count}`", idx + 1))?;
        out.insert(format!("{rule}\t{path}\t{item}\t{token}"), count);
    }
    Ok(out)
}

/// Marks up to `count` findings per baseline key as baselined. Returns
/// the stale keys: baseline entries whose budget was not fully used (the
/// file should be regenerated to ratchet them down).
pub fn apply_baseline(diags: &mut [Diagnostic], baseline: &BTreeMap<String, usize>) -> Vec<String> {
    let mut budget: BTreeMap<&str, usize> =
        baseline.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for d in diags.iter_mut() {
        let key = baseline_key(d);
        if let Some(left) = budget.get_mut(key.as_str()) {
            if *left > 0 {
                *left -= 1;
                d.baselined = true;
            }
        }
    }
    budget
        .into_iter()
        .filter(|(_, left)| *left > 0)
        .map(|(k, left)| format!("{k} ({left} unused)"))
        .collect()
}

/// Renders the current findings as a fresh baseline file.
pub fn render_baseline(diags: &[Diagnostic]) -> String {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry(baseline_key(d)).or_insert(0) += 1;
    }
    let mut out = String::from(
        "# tiersim-analyze baseline: pass<TAB>path<TAB>item<TAB>token<TAB>count\n\
         # Ratchet only: counts may shrink (regenerate with `cargo xtask analyze\n\
         # --write-baseline`), never grow. New findings must be fixed or carry a\n\
         # reviewed `tiersim-analyze: allow(<pass>)` annotation.\n",
    );
    for (key, count) in counts {
        out.push_str(&format!("{key}\t{count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, path: &str, line: usize, token: &str) -> Diagnostic {
        Diagnostic {
            tool: "analyze",
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            item: "it".to_string(),
            token: token.to_string(),
            message: "m".to_string(),
            baselined: false,
        }
    }

    #[test]
    fn baseline_round_trips_and_counts() {
        let diags =
            vec![diag("p", "a.rs", 3, "x"), diag("p", "a.rs", 9, "x"), diag("q", "b.rs", 1, "y")];
        let text = render_baseline(&diags);
        let parsed = parse_baseline(&text).expect("own output parses");
        assert_eq!(parsed.get("p\ta.rs\tit\tx"), Some(&2));
        assert_eq!(parsed.get("q\tb.rs\tit\ty"), Some(&1));
    }

    #[test]
    fn apply_baseline_marks_within_budget_and_reports_stale() {
        let mut diags = vec![diag("p", "a.rs", 3, "x"), diag("p", "a.rs", 9, "x")];
        let baseline = parse_baseline("p\ta.rs\tit\tx\t1\nq\tgone.rs\tit\tz\t2\n").unwrap();
        let stale = apply_baseline(&mut diags, &baseline);
        // One of two identical findings absorbed; the second stays active.
        assert_eq!(diags.iter().filter(|d| d.baselined).count(), 1);
        assert_eq!(diags.iter().filter(|d| !d.baselined).count(), 1);
        // The entry for a fixed finding is reported stale.
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("gone.rs"));
    }

    #[test]
    fn baseline_is_line_number_independent() {
        assert_eq!(
            baseline_key(&diag("p", "a.rs", 3, "x")),
            baseline_key(&diag("p", "a.rs", 999, "x"))
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_baseline("only three\tfields\there\n").is_err());
        assert!(parse_baseline("p\ta\ti\tt\tnot-a-number\n").is_err());
        assert!(parse_baseline("# comment\n\n").unwrap().is_empty());
    }

    /// The self-check: the repo tip must be clean under `analyze` with
    /// the committed baseline, with zero delta in either direction —
    /// new findings fail here, and so do stale baseline entries (fixing
    /// a finding requires regenerating the baseline, keeping the
    /// ratchet honest). The contract passes (counter-conservation,
    /// trace-coverage) must be *exactly* clean, not baseline-absorbed.
    #[test]
    fn repo_tip_is_clean_under_committed_baseline() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask lives one level below the workspace root");
        let project = Project::load(root).expect("workspace sources load");
        let mut diags = run_all(&project);
        let contract: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.rule != panic_reachability::NAME).collect();
        assert!(
            contract.is_empty(),
            "counter/trace contract violations must be fixed, never baselined: {contract:?}"
        );
        let baseline_text = std::fs::read_to_string(root.join("ANALYZE_BASELINE.txt"))
            .expect("committed ANALYZE_BASELINE.txt exists");
        let baseline = parse_baseline(&baseline_text).expect("committed baseline parses");
        let stale = apply_baseline(&mut diags, &baseline);
        let active: Vec<&Diagnostic> = diags.iter().filter(|d| !d.baselined).collect();
        assert!(active.is_empty(), "non-baselined analyze findings: {active:#?}");
        assert!(
            stale.is_empty(),
            "stale baseline entries (run `cargo xtask analyze --write-baseline`): {stale:?}"
        );
    }

    #[test]
    fn allow_annotation_suppresses_on_same_or_previous_line() {
        let src = "\
fn f() {\n\
    // tiersim-analyze: allow(panic-reach) — proven unreachable by X\n\
    panic!();\n\
    panic!();\n\
    panic!(); // tiersim-analyze: allow(panic-reach)\n\
}\n";
        let project =
            Project::from_sources(vec![("crates/x/src/lib.rs".to_string(), src.to_string())]);
        let d = |line| diag("panic-reach", "crates/x/src/lib.rs", line, "panic");
        assert!(allowed(&project, &d(3)), "previous-line annotation");
        assert!(!allowed(&project, &d(4)), "unannotated line");
        assert!(allowed(&project, &d(5)), "same-line annotation");
        assert!(
            !allowed(&project, &diag("other-pass", "crates/x/src/lib.rs", 3, "panic")),
            "annotation is scoped to its pass"
        );
    }
}
