//! The determinism lint rules.
//!
//! Each rule is data: an id, a path scope, a set of trigger tokens, and a
//! fix hint. Matching is token-based on the lexer's blanked code (so
//! strings and comments never trigger), with identifier-boundary checks so
//! e.g. `my_unwrap_helper` does not match `unwrap`.
//!
//! A violation on line N is suppressed when line N or line N-1 carries a
//! `tiersim-lint: allow(<rule>)` comment.

use crate::lexer::{is_ident_char, CodeLine};

/// A single lint finding.
#[derive(Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    /// The token that triggered the rule.
    pub token: String,
    pub hint: &'static str,
}

/// Where a rule applies, as predicates over workspace-relative paths
/// (forward slashes).
#[derive(Debug, Clone, Copy)]
enum Scope {
    /// Everything except `crates/bench/` and `xtask/`.
    NoWallClock,
    /// Ordering-sensitive paths: policy + profile libraries and the
    /// report/render layer in core.
    OrderSensitive,
    /// Library crate sources (`crates/*/src/`, root `src/`), excluding
    /// binaries (`/bin/`, `main.rs`) and the bench crate.
    LibraryCode,
    /// Address/page arithmetic modules in `mem`.
    AddrArithmetic,
    /// Everywhere except the sweep executor (`crates/core/src/sweep.rs`)
    /// and `xtask/` itself: the one module allowed to start threads, so
    /// all parallelism funnels through its index-ordered, scope-joined
    /// pool (the determinism contract, DESIGN.md §10).
    NoUnscopedThreads,
    /// Floating-point control math in `os`: the threshold controller and
    /// the promotion rate limiter, where a bare float→int `as` cast once
    /// hid the stuck-threshold and stalled-bucket bugs (PR 5).
    FloatControlMath,
    /// Everywhere except the journal module (`crates/core/src/journal/`),
    /// which owns the tmp + fsync + rename helper, and `xtask/` itself:
    /// a bare `fs::write` can leave a half-written artifact after a crash
    /// (DESIGN.md §13).
    DurableWriters,
}

impl Scope {
    fn applies(self, path: &str) -> bool {
        let in_bin = path.contains("/bin/") || path.ends_with("/main.rs");
        match self {
            Scope::NoWallClock => !path.starts_with("crates/bench/") && !path.starts_with("xtask/"),
            Scope::OrderSensitive => {
                path.starts_with("crates/policy/src/")
                    || path.starts_with("crates/profile/src/")
                    || path == "crates/core/src/report.rs"
                    || path == "crates/core/src/render.rs"
            }
            Scope::LibraryCode => {
                !in_bin
                    && !path.starts_with("crates/bench/")
                    && !path.starts_with("xtask/")
                    && !path.starts_with("vendor/")
                    && (path.starts_with("crates/") || path.starts_with("src/"))
            }
            Scope::AddrArithmetic => {
                path == "crates/mem/src/addr.rs" || path == "crates/mem/src/page_table.rs"
            }
            Scope::NoUnscopedThreads => {
                path != "crates/core/src/sweep.rs" && !path.starts_with("xtask/")
            }
            Scope::FloatControlMath => {
                path == "crates/os/src/threshold.rs" || path == "crates/os/src/rate_limit.rs"
            }
            Scope::DurableWriters => {
                !path.starts_with("vendor/")
                    && !path.starts_with("xtask/")
                    && !path.starts_with("crates/core/src/journal/")
            }
        }
    }
}

/// How a rule inspects a line.
#[derive(Debug, Clone, Copy)]
enum Matcher {
    /// Any of these identifiers present as a whole token.
    Tokens(&'static [&'static str]),
    /// A narrowing `as <ty>` cast (`as u64`/`u128`/`f64` stay legal:
    /// page/address math widens into them losslessly).
    LossyCast,
    /// `HashMap`/`HashSet` named anywhere: in an order-sensitive file any
    /// use is suspect, because iteration order can reach the output.
    HashContainer,
    /// An `as <int-type>` cast on a line with no explicit rounding call
    /// (`floor`/`round`/`ceil`): in float-heavy control math a bare cast
    /// truncates toward zero silently.
    UnroundedIntCast,
    /// A direct `fs::write` call (the `fs`/`write` token pair): not
    /// crash-safe — a crash mid-call leaves a truncated file.
    FsWrite,
}

struct Rule {
    id: &'static str,
    scope: Scope,
    matcher: Matcher,
    /// Whether `#[cfg(test)]` / `#[test]` regions are exempt.
    exempt_tests: bool,
    hint: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        scope: Scope::NoWallClock,
        matcher: Matcher::Tokens(&["Instant", "SystemTime"]),
        // Wall-clock reads break replay determinism even in tests.
        exempt_tests: false,
        hint: "simulated time only: derive timing from the cost model (crates/bench may measure real time)",
    },
    Rule {
        id: "hash-iter",
        scope: Scope::OrderSensitive,
        matcher: Matcher::HashContainer,
        exempt_tests: true,
        hint: "iteration order reaches ranking/CSV output: use BTreeMap/BTreeSet or sort explicitly",
    },
    Rule {
        id: "unwrap",
        scope: Scope::LibraryCode,
        matcher: Matcher::Tokens(&["unwrap", "expect"]),
        exempt_tests: true,
        hint: "library code must propagate errors: return Result or handle the None/Err arm",
    },
    Rule {
        id: "lossy-cast",
        scope: Scope::AddrArithmetic,
        matcher: Matcher::LossyCast,
        exempt_tests: true,
        hint: "narrowing `as` in address/page arithmetic can truncate silently: use try_into or a checked helper",
    },
    Rule {
        id: "thread-spawn",
        scope: Scope::NoUnscopedThreads,
        matcher: Matcher::Tokens(&["spawn", "JoinHandle", "Builder"]),
        // Stray threads break replay determinism even in tests.
        exempt_tests: false,
        hint: "threads only via the sweep executor (tiersim_core::sweep::run_cells): scoped, joined, index-ordered",
    },
    Rule {
        id: "float-trunc",
        scope: Scope::FloatControlMath,
        matcher: Matcher::UnroundedIntCast,
        exempt_tests: true,
        hint: "float→int `as` truncates toward zero: call .floor()/.round()/.ceil() on the same line so the rounding direction is explicit (the stuck-threshold bug hid behind a bare cast)",
    },
    Rule {
        id: "atomic-write",
        scope: Scope::DurableWriters,
        matcher: Matcher::FsWrite,
        exempt_tests: true,
        hint: "direct fs::write can leave a half-written artifact after a crash: use tiersim_core::journal::atomic_write (tmp + fsync + rename)",
    },
    Rule {
        id: "println",
        scope: Scope::LibraryCode,
        matcher: Matcher::Tokens(&["println", "print", "eprintln", "eprint", "dbg"]),
        exempt_tests: true,
        hint: "library output must flow through report/render so runs stay comparable",
    },
];

/// Target types whose `as` casts can drop address/page bits.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize"];

/// All integer cast targets — for float math even a "wide" `as u64`
/// silently drops the fractional part.
const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Rounding calls that make a subsequent int cast intentional.
const ROUNDING_CALLS: &[&str] = &["floor", "round", "ceil", "trunc"];

/// Returns the rule ids, for `--list`.
pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

/// Lints one lexed file; `path` is workspace-relative with `/` separators.
pub fn lint_file(path: &str, lines: &[CodeLine]) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in RULES {
        if !rule.scope.applies(path) {
            continue;
        }
        for (idx, line) in lines.iter().enumerate() {
            if rule.exempt_tests && line.in_test {
                continue;
            }
            let matched = match rule.matcher {
                Matcher::Tokens(tokens) => match_tokens(&line.code, tokens),
                Matcher::LossyCast => match_lossy_cast(&line.code),
                Matcher::HashContainer => match_tokens(&line.code, &["HashMap", "HashSet"]),
                Matcher::UnroundedIntCast => match_unrounded_int_cast(&line.code),
                Matcher::FsWrite => match_fs_write(&line.code),
            };
            let Some(token) = matched else { continue };
            if allowed(rule.id, lines, idx) {
                continue;
            }
            out.push(Violation {
                path: path.to_string(),
                line: line.number,
                rule: rule.id,
                token,
                hint: rule.hint,
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Finds the first of `tokens` present as a whole identifier in `code`.
fn match_tokens(code: &str, tokens: &[&str]) -> Option<String> {
    tokens.iter().find(|t| has_token(code, t)).map(|t| t.to_string())
}

/// Whole-token search: `needle` must not be flanked by identifier chars.
fn has_token(code: &str, needle: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let nchars: Vec<char> = needle.chars().collect();
    if nchars.is_empty() || chars.len() < nchars.len() {
        return false;
    }
    for start in 0..=(chars.len() - nchars.len()) {
        if chars[start..start + nchars.len()] != nchars[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident_char(chars[start - 1]);
        let after = chars.get(start + nchars.len()).copied();
        let after_ok = !after.map(is_ident_char).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Detects `as <narrow-type>` with token boundaries on both sides.
fn match_lossy_cast(code: &str) -> Option<String> {
    let words: Vec<&str> =
        code.split(|c: char| !is_ident_char(c)).filter(|w| !w.is_empty()).collect();
    for pair in words.windows(2) {
        if pair[0] == "as" && NARROW_TYPES.contains(&pair[1]) {
            // `as` must be the cast keyword, not part of a path — the word
            // split already guarantees token boundaries.
            return Some(format!("as {}", pair[1]));
        }
    }
    None
}

/// Detects `as <int-type>` on a line with no rounding call. An explicit
/// `.floor()`/`.round()`/`.ceil()`/`.trunc()` on the same line states the
/// rounding direction and legitimizes the cast.
fn match_unrounded_int_cast(code: &str) -> Option<String> {
    if ROUNDING_CALLS.iter().any(|t| has_token(code, t)) {
        return None;
    }
    let words: Vec<&str> =
        code.split(|c: char| !is_ident_char(c)).filter(|w| !w.is_empty()).collect();
    for pair in words.windows(2) {
        if pair[0] == "as" && INT_TYPES.contains(&pair[1]) {
            return Some(format!("as {}", pair[1]));
        }
    }
    None
}

/// Detects a direct `fs::write` call as the adjacent `fs`, `write` word
/// pair (the lexer's word split drops `::`). Plain `write`/`write_all`
/// calls on a file handle do not match.
fn match_fs_write(code: &str) -> Option<String> {
    let words: Vec<&str> =
        code.split(|c: char| !is_ident_char(c)).filter(|w| !w.is_empty()).collect();
    for pair in words.windows(2) {
        if pair[0] == "fs" && pair[1] == "write" {
            return Some("fs::write".to_string());
        }
    }
    None
}

/// Is `rule` allowed on line `idx` (same line or the line just above)?
fn allowed(rule: &str, lines: &[CodeLine], idx: usize) -> bool {
    let needle = format!("tiersim-lint: allow({rule})");
    let same = lines[idx].comment.contains(&needle);
    let above = idx > 0 && lines[idx - 1].comment.contains(&needle);
    same || above
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn unwrap_fires_in_library_code() {
        let lines = lex("fn f() { x.unwrap(); }");
        let v = lint_file("crates/mem/src/addr.rs", &lines);
        assert!(v.iter().any(|v| v.rule == "unwrap"));
    }

    #[test]
    fn unwrap_exempt_in_tests_and_bins() {
        let lines = lex("#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}");
        assert!(lint_file("crates/mem/src/addr.rs", &lines).iter().all(|v| v.rule != "unwrap"));
        let lines = lex("fn f() { x.unwrap(); }");
        assert!(lint_file("src/bin/tiersim.rs", &lines).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses() {
        let lines = lex("// tiersim-lint: allow(unwrap)\nlet y = x.unwrap();");
        assert!(lint_file("crates/os/src/engine.rs", &lines).is_empty());
        let lines = lex("let y = x.unwrap(); // tiersim-lint: allow(unwrap)");
        assert!(lint_file("crates/os/src/engine.rs", &lines).is_empty());
    }

    #[test]
    fn wall_clock_fires_even_in_tests_but_not_in_bench() {
        let lines = lex("#[test]\nfn t() { let t0 = Instant::now(); }");
        assert!(!lint_file("crates/core/src/runner.rs", &lines).is_empty());
        assert!(lint_file("crates/bench/src/lib.rs", &lines).is_empty());
    }

    #[test]
    fn lossy_cast_scope_and_widths() {
        let lines = lex("let x = v as u32;");
        assert!(!lint_file("crates/mem/src/addr.rs", &lines).is_empty());
        // Widening is fine; other crates are out of scope.
        let wide = lex("let x = v as u64;");
        assert!(lint_file("crates/mem/src/addr.rs", &wide).is_empty());
        assert!(lint_file("crates/os/src/engine.rs", &lines).is_empty());
    }

    #[test]
    fn float_trunc_fires_on_bare_cast_in_control_math() {
        // The pre-fix threshold controller shape: bare truncating cast.
        let bare = lex("let next = (self.threshold as f64 * 0.8) as u64;");
        let v = lint_file("crates/os/src/threshold.rs", &bare);
        assert!(v.iter().any(|v| v.rule == "float-trunc" && v.token == "as u64"));
        assert!(lint_file("crates/os/src/rate_limit.rs", &bare)
            .iter()
            .any(|v| v.rule == "float-trunc"));
    }

    #[test]
    fn float_trunc_passes_explicit_rounding_and_other_paths() {
        // The fixed shapes: rounding made explicit on the same line.
        let rounded = lex("let next = (self.threshold as f64 * 0.8).round() as u64;");
        assert!(lint_file("crates/os/src/threshold.rs", &rounded).is_empty());
        let floored = lex("self.tokens.floor() as u64");
        assert!(lint_file("crates/os/src/rate_limit.rs", &floored).is_empty());
        // Casts into floats are not truncations.
        let widen = lex("let t = elapsed as f64;");
        assert!(lint_file("crates/os/src/rate_limit.rs", &widen).is_empty());
        // Out-of-scope files are untouched (engine.rs has many int casts).
        let bare = lex("let next = x as u64;");
        assert!(lint_file("crates/os/src/engine.rs", &bare).is_empty());
        // Tests and the allow comment are exempt like everywhere else.
        let test_code = lex("#[cfg(test)]\nmod tests {\n let x = y as u64;\n}");
        assert!(lint_file("crates/os/src/threshold.rs", &test_code).is_empty());
        let allowed = lex("// tiersim-lint: allow(float-trunc)\nlet x = y as u64;");
        assert!(lint_file("crates/os/src/threshold.rs", &allowed).is_empty());
    }

    #[test]
    fn hash_container_only_in_order_sensitive_paths() {
        let lines = lex("use std::collections::HashMap;");
        assert!(!lint_file("crates/policy/src/ranking.rs", &lines).is_empty());
        assert!(lint_file("crates/os/src/engine.rs", &lines).is_empty());
    }

    #[test]
    fn thread_spawn_forbidden_outside_sweep_module() {
        let lines = lex("fn f() { std::thread::spawn(|| {}); }");
        let v = lint_file("crates/core/src/runner.rs", &lines);
        assert!(v.iter().any(|v| v.rule == "thread-spawn"));
        // Root tests and other crates are covered too — even in #[test].
        let t = lex("#[test]\nfn t() { let h: std::thread::JoinHandle<()> = todo!(); }");
        assert!(lint_file("tests/pipeline.rs", &t).iter().any(|v| v.rule == "thread-spawn"));
        assert!(lint_file("crates/os/src/engine.rs", &lines)
            .iter()
            .any(|v| v.rule == "thread-spawn"));
    }

    #[test]
    fn thread_spawn_allowed_in_sweep_executor_and_xtask() {
        let lines = lex("fn f() { s.spawn(|| {}); }");
        assert!(lint_file("crates/core/src/sweep.rs", &lines).is_empty());
        assert!(lint_file("xtask/src/main.rs", &lines).is_empty());
        // The allowlist comment works like for every other rule.
        let allowed = lex("// tiersim-lint: allow(thread-spawn)\nlet h = s.spawn(f);");
        assert!(lint_file("crates/core/src/runner.rs", &allowed).is_empty());
    }

    #[test]
    fn fs_write_forbidden_outside_journal_module() {
        let lines = lex("fn f() { std::fs::write(path, bytes).unwrap(); }");
        assert!(lint_file("crates/bench/src/lib.rs", &lines)
            .iter()
            .any(|v| v.rule == "atomic-write"));
        assert!(lint_file("crates/core/src/runner.rs", &lines)
            .iter()
            .any(|v| v.rule == "atomic-write"));
        // The atomic helper's own module and xtask are exempt.
        assert!(lint_file("crates/core/src/journal/mod.rs", &lines)
            .iter()
            .all(|v| v.rule != "atomic-write"));
        assert!(lint_file("xtask/src/main.rs", &lines).is_empty());
        // Tests may write fixtures directly; file-handle writes are fine.
        let test_code = lex("#[cfg(test)]\nmod tests {\n std::fs::write(p, b).unwrap();\n}");
        assert!(lint_file("crates/bench/src/lib.rs", &test_code)
            .iter()
            .all(|v| v.rule != "atomic-write"));
        let handle = lex("file.write_all(bytes)?;");
        assert!(lint_file("crates/bench/src/lib.rs", &handle).is_empty());
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let lines = lex("let s = \"Instant::now()\"; // println! here");
        assert!(lint_file("crates/os/src/engine.rs", &lines).is_empty());
    }

    #[test]
    fn ident_boundaries_respected() {
        let lines = lex("fn my_unwrap_helper() {}\nlet printless = 1;");
        assert!(lint_file("crates/os/src/engine.rs", &lines).is_empty());
    }
}
