//! Workspace automation tasks. Run as `cargo xtask <task>`.
//!
//! Tasks:
//! - `lint` — the tiersim determinism lint pass (DESIGN.md §9);
//! - `analyze` — the project-wide contract analyzer: counter-conservation,
//!   trace-coverage and panic-reachability passes (DESIGN.md §14);
//! - `trace-check` — validates a `repro_all --trace` JSONL artifact with
//!   `tiersim_trace::check_jsonl` (DESIGN.md §11);
//! - `journal-check` — validates a crash-safe sweep journal written by
//!   `repro_all --resume` with `tiersim_core::journal::replay`
//!   (DESIGN.md §13);
//! - `hot-path` — checks that a release binary inlines the resident
//!   access chain and keeps its cold halves out of line (DESIGN.md,
//!   "The per-access chain").
//!
//! The two checkers are thin calls into the library reader of their
//! format; `lint` and `analyze` are hand-rolled scanners with no registry
//! dependency and report through the shared `diag` reporter
//! (`--format human|json|sarif`).

mod analyze;
mod diag;
mod hot_path;
mod item_model;
mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("trace-check") => check_file("trace-check", &args[1..], |text| {
            tiersim_trace::check_jsonl(text).map(|lines| format!("{lines} lines ok"))
        }),
        Some("journal-check") => check_file("journal-check", &args[1..], |text| {
            tiersim_core::journal::replay(text).map(|r| {
                let torn = if r.torn_tail { " (torn final line ignored)" } else { "" };
                format!("{} records ok, fingerprint `{}`{torn}", r.records, r.fingerprint)
            })
        }),
        Some("hot-path") => hot_path_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <lint [--list] [--format F] | analyze [--list] [--format F] \
         [--baseline FILE] [--write-baseline] | trace-check FILE.jsonl | \
         journal-check FILE.jsonl | hot-path BINARY>"
    );
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint                         run the determinism lint pass over the workspace");
    eprintln!("  lint --list                  print the lint rule ids and exit");
    eprintln!("  analyze                      run the contract analyzer (DESIGN.md §14)");
    eprintln!("  analyze --list               print the analyze pass ids and exit");
    eprintln!("  analyze --baseline FILE      use FILE instead of ANALYZE_BASELINE.txt");
    eprintln!("  analyze --write-baseline     regenerate the baseline from current findings");
    eprintln!("  trace-check FILE             validate a `repro_all --trace` JSONL artifact");
    eprintln!("  journal-check FILE           validate a `repro_all --resume` sweep journal");
    eprintln!("  hot-path BINARY              fail if BINARY has an out-of-line resident-access");
    eprintln!("                               function or lacks a cold anchor (needs `nm`)");
    eprintln!();
    eprintln!("  --format human|json|sarif    output format for lint and analyze (default human)");
}

fn analyze_cmd(args: &[String]) -> ExitCode {
    let mut format = diag::Format::Human;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for (name, what) in analyze::PASSES {
                    println!("{name}: {what}");
                }
                return ExitCode::SUCCESS;
            }
            "--write-baseline" => write_baseline = true,
            "--format" => match it.next().map(|v| diag::Format::parse(v)) {
                Some(Ok(f)) => format = f,
                Some(Err(e)) => {
                    eprintln!("xtask analyze: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("xtask analyze: --format needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask analyze: --baseline needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = workspace_root();
    let project = match item_model::Project::load(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut diags = analyze::run_all(&project);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("ANALYZE_BASELINE.txt"));
    let shown = baseline_path.display();
    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, analyze::render_baseline(&diags)) {
            eprintln!("xtask analyze: cannot write {shown}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask analyze: baselined {} finding(s) into {shown}", diags.len());
        return ExitCode::SUCCESS;
    }
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match analyze::parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("xtask analyze: {shown}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Default::default(), // no baseline file: everything active
    };
    let stale = analyze::apply_baseline(&mut diags, &baseline);
    print!("{}", diag::render(&diags, format));
    for entry in &stale {
        eprintln!(
            "xtask analyze: stale baseline entry ({entry}) — ratchet down with --write-baseline"
        );
    }
    let active = diags.iter().filter(|d| !d.baselined).count();
    if format == diag::Format::Human {
        println!(
            "xtask analyze: {} file(s), {} pass(es): {} finding(s) ({} baselined, {active} active)",
            project.files.len(),
            analyze::PASSES.len(),
            diags.len(),
            diags.len() - active,
        );
    }
    if active == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn hot_path_cmd(args: &[String]) -> ExitCode {
    let [binary] = args else {
        eprintln!("xtask hot-path: expected exactly one binary argument");
        return ExitCode::FAILURE;
    };
    let output = match std::process::Command::new("nm")
        .args(["-C", "--defined-only"])
        .arg(binary)
        .output()
    {
        Ok(out) if out.status.success() => out,
        Ok(out) => {
            eprintln!(
                "xtask hot-path: nm failed on {binary}: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask hot-path: cannot run nm: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = hot_path::check(&String::from_utf8_lossy(&output.stdout));
    for v in &violations {
        match v.expect {
            hot_path::Expect::Inlined => {
                println!("xtask hot-path: {}: {} out-of-line copies", v.symbol, v.copies)
            }
            hot_path::Expect::OutOfLine => {
                println!("xtask hot-path: {}: cold anchor missing", v.symbol)
            }
        }
    }
    if violations.is_empty() {
        println!(
            "xtask hot-path: {binary}: resident chain inlined, {} symbols checked",
            hot_path::SYMBOLS.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask hot-path: {binary}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Reads the one file argument of `trace-check` or `journal-check` and
/// prints `check`'s verdict on it: its summary, or its error and a
/// failing exit code.
fn check_file<E: std::fmt::Display>(
    task: &str,
    args: &[String],
    check: impl FnOnce(&str) -> Result<String, E>,
) -> ExitCode {
    let [path] = args else {
        eprintln!("xtask {task}: expected exactly one file argument");
        return ExitCode::FAILURE;
    };
    let verdict = match std::fs::read_to_string(path) {
        Ok(text) => check(&text).map_err(|e| e.to_string()),
        Err(e) => Err(format!("cannot read: {e}")),
    };
    match verdict {
        Ok(summary) => {
            println!("xtask {task}: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask {task}: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = diag::Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for id in rules::rule_ids() {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--format" => match it.next().map(|v| diag::Format::parse(v)) {
                Some(Ok(f)) => format = f,
                Some(Err(e)) => {
                    eprintln!("xtask lint: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("xtask lint: --format needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = workspace_root();
    let files = collect_sources(&root);
    let mut diags = Vec::new();
    for file in &files {
        let rel = relative(file, &root);
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let lines = lexer::lex(&src);
        for v in rules::lint_file(&rel, &lines) {
            diags.push(diag::Diagnostic {
                tool: "lint",
                rule: v.rule.to_string(),
                path: v.path,
                line: v.line,
                item: String::new(),
                token: v.token.clone(),
                message: format!("`{}` — {}", v.token, v.hint),
                baselined: false,
            });
        }
    }
    print!("{}", diag::render(&diags, format));
    if format == diag::Format::Human {
        if diags.is_empty() {
            println!("xtask lint: {} files clean", files.len());
        } else {
            println!("xtask lint: {} violation(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root is xtask's parent directory, regardless of cwd.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// All lintable `.rs` files: `crates/*/src`, root `src/`, and root `tests/`
/// (tests are scanned so the wall-clock rule covers them; per-rule scopes
/// narrow further). `vendor/` and `target/` are never scanned.
pub(crate) fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            walk(&dir.join("src"), &mut files);
        }
    }
    walk(&root.join("src"), &mut files);
    walk(&root.join("tests"), &mut files);
    files.sort();
    files
}

/// Recursively gathers `.rs` files under `dir`, depth-first, sorted.
pub(crate) fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative path with forward slashes (stable lint output on
/// every platform).
pub(crate) fn relative(file: &Path, root: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}
