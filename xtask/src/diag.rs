//! The shared diagnostics reporter for `cargo xtask lint` and
//! `cargo xtask analyze`.
//!
//! Both tools funnel their findings into [`Diagnostic`] and render them
//! through [`render`], so CI consumes one machine-readable stream no
//! matter which checker produced it. Three formats:
//!
//! - `human` — `path:line: [tool/rule] message`, the terminal default;
//! - `json` — one flat JSON object per line (JSONL), same shape for
//!   both tools, strings escaped by the journal's `escape_json`;
//! - `sarif` — minimal SARIF 2.1.0 for code-scanning UIs; baselined
//!   findings are emitted at level `note`, active ones at `error`.

use std::collections::BTreeSet;
use tiersim_core::journal::codec::escape_json;

/// One finding from any checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which checker produced it (`"lint"` or `"analyze"`).
    pub tool: &'static str,
    /// Rule or pass identifier (`"no-unwrap"`, `"counter-conservation"`).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line; 0 when the finding is not line-anchored.
    pub line: usize,
    /// Enclosing item's qualified name, or empty.
    pub item: String,
    /// The offending token or name.
    pub token: String,
    /// Human explanation, including the fix hint.
    pub message: String,
    /// True when the finding is absorbed by the checked-in baseline
    /// (reported for visibility, not a failure).
    pub baselined: bool,
}

/// Output format selector shared by both tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Human,
    Json,
    Sarif,
}

impl Format {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "human" => Ok(Format::Human),
            "json" => Ok(Format::Json),
            "sarif" => Ok(Format::Sarif),
            other => Err(format!("unknown format `{other}` (expected human|json|sarif)")),
        }
    }
}

/// Renders diagnostics in the chosen format. The returned string ends
/// with a newline when non-empty.
pub fn render(diags: &[Diagnostic], format: Format) -> String {
    match format {
        Format::Human => render_human(diags),
        Format::Json => render_json(diags),
        Format::Sarif => render_sarif(diags),
    }
}

fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let mark = if d.baselined { " (baselined)" } else { "" };
        let item = if d.item.is_empty() { String::new() } else { format!(" in `{}`", d.item) };
        out.push_str(&format!(
            "{}:{}: [{}/{}] {}{}{}\n",
            d.path, d.line, d.tool, d.rule, d.message, item, mark
        ));
    }
    out
}

fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{{\"tool\":\"{}\",\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"item\":\"{}\",\"token\":\"{}\",\"message\":\"{}\",\"baselined\":{}}}\n",
            escape_json(d.tool),
            escape_json(&d.rule),
            escape_json(&d.path),
            d.line,
            escape_json(&d.item),
            escape_json(&d.token),
            escape_json(&d.message),
            d.baselined,
        ));
    }
    out
}

fn render_sarif(diags: &[Diagnostic]) -> String {
    let rule_ids: BTreeSet<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    let rules = rule_ids
        .iter()
        .map(|id| format!("{{\"id\":\"{}\"}}", escape_json(id)))
        .collect::<Vec<_>>()
        .join(",");
    let results = diags
        .iter()
        .map(|d| {
            let level = if d.baselined { "note" } else { "error" };
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
                 \"region\":{{\"startLine\":{}}}}}}}]}}",
                escape_json(&d.rule),
                escape_json(&d.message),
                escape_json(&d.path),
                d.line.max(1),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"tiersim-xtask\",\
         \"informationUri\":\"https://example.invalid/tiersim\",\"rules\":[{rules}]}}}},\
         \"results\":[{results}]}}]}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                tool: "analyze",
                rule: "counter-conservation".to_string(),
                path: "crates/os/src/engine.rs".to_string(),
                line: 42,
                item: "AutoNuma::handle_fault".to_string(),
                token: "promo_no_space".to_string(),
                message: "counter `promo_no_space` has no law".to_string(),
                baselined: false,
            },
            Diagnostic {
                tool: "lint",
                rule: "no-unwrap".to_string(),
                path: "src/main.rs".to_string(),
                line: 7,
                item: String::new(),
                token: "unwrap".to_string(),
                message: "say \"why\" instead".to_string(),
                baselined: true,
            },
        ]
    }

    #[test]
    fn human_format_is_line_per_finding() {
        let out = render(&sample(), Format::Human);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("crates/os/src/engine.rs:42: [analyze/counter-conservation]"));
        assert!(lines[0].contains("in `AutoNuma::handle_fault`"));
        assert!(lines[1].ends_with("(baselined)"));
    }

    #[test]
    fn json_format_is_one_escaped_object_per_line() {
        let out = render(&sample(), Format::Json);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"tool\":\"analyze\",\"rule\":\"counter-conservation\",\
                 \"path\":\"crates/os/src/engine.rs\",\"line\":42,\
                 \"item\":\"AutoNuma::handle_fault\",\"token\":\"promo_no_space\",\
                 \"message\":\"counter `promo_no_space` has no law\",\"baselined\":false}",
                "{\"tool\":\"lint\",\"rule\":\"no-unwrap\",\"path\":\"src/main.rs\",\
                 \"line\":7,\"item\":\"\",\"token\":\"unwrap\",\
                 \"message\":\"say \\\"why\\\" instead\",\"baselined\":true}",
            ]
        );
    }

    #[test]
    fn sarif_has_rules_results_and_levels() {
        let out = render(&sample(), Format::Sarif);
        assert!(out.contains("\"version\":\"2.1.0\""));
        assert!(out.contains("{\"id\":\"counter-conservation\"}"));
        assert!(out.contains("{\"id\":\"no-unwrap\"}"));
        assert!(out.contains("\"level\":\"error\""));
        assert!(out.contains("\"level\":\"note\""));
        assert!(out.contains("\"uri\":\"crates/os/src/engine.rs\""));
        assert!(out.contains("\"startLine\":42"));
    }

    #[test]
    fn empty_input_renders_cleanly() {
        assert_eq!(render(&[], Format::Human), "");
        assert_eq!(render(&[], Format::Json), "");
        let sarif = render(&[], Format::Sarif);
        assert!(sarif.contains("\"results\":[]"));
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("human"), Ok(Format::Human));
        assert_eq!(Format::parse("json"), Ok(Format::Json));
        assert_eq!(Format::parse("sarif"), Ok(Format::Sarif));
        assert!(Format::parse("xml").is_err());
    }
}
