//! A lightweight project-wide item model for the static analysis passes.
//!
//! Layered on the line lexer (`crate::lexer`): the blanked code of every
//! source file is tokenized, then a single forward scan extracts the
//! items the analyze passes reason about — functions (with their full
//! body token streams), structs (with field names), enums (with variant
//! names), impl blocks (qualifying their methods as `Type::method`) and
//! modules. On top of the item table sits a name-resolved call-adjacency
//! map over functions keyed by file and qualified name. It splits calls
//! by syntax: `.b(…)` targets methods (functions in an `impl` or a
//! `trait`) named `b`, trying the enclosing impl first for `self.b(…)`;
//! a bare `b(…)` targets the caller's own file's free `b`, else every
//! free function named `b`; `A::b(…)` targets `A::b`, and `m::b(…)` with
//! a lowercase `m` the free functions `b` of module `m`. Where the type
//! is unknown it stays *over*-approximate (a method call edges to every
//! method of that name), so reachability queries never miss a real path
//! — the right default for the panic-reachability pass, where a false
//! "unreachable" would hide a crash site.
//!
//! No `syn`, no registry dependencies: the model must build on the same
//! offline toolchain as the rest of xtask (DESIGN.md §14).

use crate::lexer::{self, is_ident_char, CodeLine};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// What kind of item a model entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Impl,
    Mod,
}

/// One token of blanked code with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub line: usize,
    pub text: String,
}

/// One extracted item.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Simple name (`run`, `VmCounters`).
    pub name: String,
    /// Qualified name: `Machine::run` for associated functions, else the
    /// simple name.
    pub qual: String,
    /// 1-based line of the introducing keyword.
    pub start_line: usize,
    /// 1-based line of the item's final token.
    pub end_line: usize,
    /// True when the item lives in `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
    /// True for a function inside an `impl` or a `trait` block: the
    /// target of `.name(…)` calls, never of bare `name(…)` calls.
    pub method: bool,
    /// The item's token stream (signature + body), blanked code only.
    pub tokens: Vec<Token>,
    /// Struct field names or enum variant names; empty for other kinds.
    pub fields: Vec<String>,
}

/// One lexed + modeled source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw file text (for checks that need string-literal contents, which
    /// the lexer blanks — e.g. the trace schema comparison).
    pub raw: String,
    /// The lexer's per-line view (for allow-annotation lookups).
    pub lines: Vec<CodeLine>,
    /// Items extracted from this file, in source order.
    pub items: Vec<Item>,
}

/// The whole modeled project.
#[derive(Debug, Default)]
pub struct Project {
    pub files: Vec<FileModel>,
}

impl Project {
    /// Models a set of `(path, source)` pairs — the fixture-test entry
    /// point, also used by [`Project::load`].
    pub fn from_sources(sources: Vec<(String, String)>) -> Project {
        let files = sources
            .into_iter()
            .map(|(path, raw)| {
                let lines = lexer::lex(&raw);
                let items = extract_items(&lines);
                FileModel { path, raw, lines, items }
            })
            .collect();
        Project { files }
    }

    /// Loads and models every analyzable source under `root`: the crate
    /// libraries (`crates/*/src`), the root crate (`src/`) and integration
    /// tests (`tests/`), the same files `lint` scans. `vendor/`, `xtask/`
    /// and `target/` are never scanned.
    pub fn load(root: &Path) -> Result<Project, String> {
        let paths = crate::collect_sources(root);
        let mut sources = Vec::with_capacity(paths.len());
        for path in paths {
            let rel = crate::relative(&path, root);
            let raw =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {rel}: {e}"))?;
            sources.push((rel, raw));
        }
        Ok(Project::from_sources(sources))
    }

    /// All items across the project.
    pub fn items(&self) -> impl Iterator<Item = (&FileModel, &Item)> {
        self.files.iter().flat_map(|f| f.items.iter().map(move |i| (f, i)))
    }

    /// The first item with this kind and simple name, if any.
    pub fn find_item(&self, kind: ItemKind, name: &str) -> Option<(&FileModel, &Item)> {
        self.items().find(|(_, i)| i.kind == kind && i.name == name)
    }

    /// The file at `path`, if modeled.
    pub fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Builds the call-adjacency map over all non-test functions: edges
    /// from a function's node to the node of every function it may call
    /// (name-resolved, over-approximate where the type is unknown).
    pub fn call_map(&self) -> CallMap {
        let mut by_name: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut by_qual: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        for (file, item) in self.items() {
            if item.kind == ItemKind::Fn {
                let node = Node::of(file, item);
                by_name.entry(&item.name).or_default().push(node.clone());
                let split = if item.method { &mut methods } else { &mut free };
                split.entry(&item.name).or_default().push(node.clone());
                by_qual.entry(&item.qual).or_default().push(node);
            }
        }
        let named = |map: &BTreeMap<&str, Vec<Node>>, name: &str| -> Vec<Node> {
            map.get(name).cloned().unwrap_or_default()
        };
        // The free functions named `name` whose file passes `keep`.
        let free_in = |name: &str, keep: &dyn Fn(&str) -> bool| -> Vec<Node> {
            named(&free, name).into_iter().filter(|n| keep(&n.file)).collect()
        };
        let mut edges: BTreeMap<Node, BTreeSet<Node>> = BTreeMap::new();
        for (file, item) in self.items() {
            if item.kind != ItemKind::Fn || item.in_test {
                continue;
            }
            let out = edges.entry(Node::of(file, item)).or_default();
            let impl_ty = item.qual.split("::").next().filter(|_| item.qual.contains("::"));
            for callee in called_names(&item.tokens) {
                let targets = match callee {
                    Callee::Qualified(recv, n) => {
                        let recv = if recv == "Self" { impl_ty.unwrap_or(&recv) } else { &recv };
                        let q = format!("{recv}::{n}");
                        // A lowercase segment names a module: its free
                        // functions. Unknown receivers (foreign crate
                        // paths, primitives, traits, re-exports) fall back
                        // to every function of that name.
                        let module = recv.starts_with(|c: char| c.is_ascii_lowercase());
                        let in_module =
                            if module { free_in(&n, &|f| in_module(f, recv)) } else { Vec::new() };
                        match by_qual.get(q.as_str()) {
                            Some(nodes) => nodes.clone(),
                            None if !in_module.is_empty() => in_module,
                            None => named(&by_name, &n),
                        }
                    }
                    Callee::Named(n) => named(&by_name, &n),
                    Callee::Method { name, on_self } => {
                        let own = impl_ty.filter(|_| on_self).map(|ty| format!("{ty}::{name}"));
                        match own.and_then(|q| by_qual.get(q.as_str())) {
                            Some(nodes) => nodes.clone(),
                            None => named(&methods, &name),
                        }
                    }
                    // A free function of the caller's own file shadows
                    // every other of that name.
                    Callee::Free(n) => {
                        let own = free_in(&n, &|f| f == file.path);
                        if own.is_empty() {
                            named(&free, &n)
                        } else {
                            own
                        }
                    }
                };
                out.extend(targets);
            }
        }
        CallMap { edges }
    }
}

/// True if the source file at `path` belongs to module `module`: it is
/// `module.rs` or lies under a `module/` directory.
fn in_module(path: &str, module: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    file.strip_suffix(".rs") == Some(module) || path.split('/').any(|dir| dir == module)
}

/// A call-map node: a function's file and its qualified name. Free
/// functions that share a name in different files are distinct nodes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The function's qualified name ([`Item::qual`]).
    pub qual: String,
}

impl Node {
    /// The node of function `item` in `file`.
    pub fn of(file: &FileModel, item: &Item) -> Node {
        Node { file: file.path.clone(), qual: item.qual.clone() }
    }
}

/// The project call-adjacency map.
#[derive(Debug)]
pub struct CallMap {
    edges: BTreeMap<Node, BTreeSet<Node>>,
}

impl CallMap {
    /// Every function reachable from the given roots, roots included.
    /// A root matches functions by qualified name, or by simple name when
    /// it contains no `::`, in any file.
    pub fn reachable(&self, roots: &[&str]) -> BTreeSet<Node> {
        let mut seen: BTreeSet<Node> = BTreeSet::new();
        let mut queue: Vec<&Node> = self
            .edges
            .keys()
            .filter(|n| {
                let simple = n.qual.rsplit("::").next().unwrap_or(&n.qual);
                roots.iter().any(|r| n.qual == *r || (!r.contains("::") && simple == *r))
            })
            .collect();
        while let Some(node) = queue.pop() {
            if !seen.insert(node.clone()) {
                continue;
            }
            for callee in self.edges.get(node).into_iter().flatten() {
                if !seen.contains(callee) {
                    queue.push(callee);
                }
            }
        }
        seen
    }
}

/// How a call site names its target.
enum Callee {
    /// `A::b(...)`: receiver path segment and name.
    Qualified(String, String),
    /// `<T as Trait>::b(...)` and other paths without a plain segment:
    /// any function named `b`.
    Named(String),
    /// `.b(...)`: a method named `b`; `on_self` for `self.b(...)`.
    Method { name: String, on_self: bool },
    /// `b(...)`: a free function named `b`.
    Free(String),
}

/// Rust keywords that can directly precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// True for identifiers that are Rust keywords (callable names excluded).
pub fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// Extracts the call sites in `tokens`, classified by their syntax.
fn called_names(tokens: &[Token]) -> Vec<Callee> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let name = &tokens[i].text;
        if !name.chars().next().is_some_and(is_ident_char) || is_keyword(name) {
            continue;
        }
        let back = |n: usize| i.checked_sub(n).map_or("", |j| tokens[j].text.as_str());
        match back(1) {
            "::" if back(2).chars().next().is_some_and(is_ident_char) => {
                out.push(Callee::Qualified(back(2).to_string(), name.clone()));
            }
            "::" => out.push(Callee::Named(name.clone())),
            "." => out.push(Callee::Method { name: name.clone(), on_self: back(2) == "self" }),
            // A declaration (`fn name(`) is not a call, and macro
            // invocations (`name!(`) are matched by the panic pass itself.
            "fn" | "!" => {}
            _ => out.push(Callee::Free(name.clone())),
        }
    }
    out
}

/// Tokenizes blanked code: identifiers, two-char operators, single chars.
/// Whitespace is dropped; every token keeps its 1-based line.
pub fn tokenize(lines: &[CodeLine]) -> Vec<Token> {
    const TWO_CHAR: &[&str] = &[
        "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
        "&&", "||", "<<", ">>", "..",
    ];
    let mut out = Vec::new();
    for line in lines {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Token { line: line.number, text: chars[start..i].iter().collect() });
            } else {
                let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                if TWO_CHAR.contains(&pair.as_str()) {
                    out.push(Token { line: line.number, text: pair });
                    i += 2;
                } else {
                    out.push(Token { line: line.number, text: c.to_string() });
                    i += 1;
                }
            }
        }
    }
    out
}

/// The item extractor: one forward scan with explicit brace tracking.
fn extract_items(lines: &[CodeLine]) -> Vec<Item> {
    let tokens = tokenize(lines);
    let mut out = Vec::new();
    scan_items(&tokens, &mut 0, tokens.len(), Scope::Module, lines, &mut out);
    out
}

/// The block `scan_items` is in: where a `fn` there belongs.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// A file or `mod` body: free functions.
    Module,
    /// An `impl` body: methods qualified by the Self type.
    Impl(&'a str),
    /// A `trait` body: methods, unqualified.
    Trait,
}

/// Scans `tokens[*i..end]` for items; recurses into impl/mod/trait
/// blocks (where more items live) but not into fn bodies (whose content
/// belongs to the fn's own stream).
fn scan_items(
    tokens: &[Token],
    i: &mut usize,
    end: usize,
    scope: Scope,
    lines: &[CodeLine],
    out: &mut Vec<Item>,
) {
    while *i < end {
        let t = &tokens[*i];
        match t.text.as_str() {
            "fn" => {
                let impl_ty = match scope {
                    Scope::Impl(ty) => Some(ty),
                    _ => None,
                };
                if let Some(mut item) = parse_fn(tokens, i, end, impl_ty, lines) {
                    item.method = !matches!(scope, Scope::Module);
                    out.push(item);
                } else {
                    *i += 1;
                }
            }
            "struct" | "enum" => {
                let kind = if t.text == "struct" { ItemKind::Struct } else { ItemKind::Enum };
                if let Some(item) = parse_type(tokens, i, end, kind, lines) {
                    out.push(item);
                } else {
                    *i += 1;
                }
            }
            "impl" => {
                if let Some((name, body_start, body_end)) = parse_block_header(tokens, *i, end) {
                    out.push(mk_item(ItemKind::Impl, &name, None, tokens, *i, body_end, lines));
                    *i = body_start + 1;
                    scan_items(tokens, i, body_end, Scope::Impl(&name), lines, out);
                    *i = body_end + 1;
                } else {
                    *i += 1;
                }
            }
            "mod" | "trait" => {
                if let Some((name, body_start, body_end)) = parse_block_header(tokens, *i, end) {
                    if t.text == "mod" {
                        out.push(mk_item(ItemKind::Mod, &name, None, tokens, *i, body_end, lines));
                    }
                    *i = body_start + 1;
                    // Items inside a mod/trait carry no impl
                    // qualification; a trait's functions are methods.
                    let scope = if t.text == "mod" { Scope::Module } else { Scope::Trait };
                    scan_items(tokens, i, body_end, scope, lines, out);
                    *i = body_end + 1;
                } else {
                    *i += 1;
                }
            }
            "{" => {
                // A stray block (e.g. a const initializer): skip it whole.
                let close = matching_brace(tokens, *i, end);
                *i = close + 1;
            }
            "}" => {
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// Builds an item spanning `tokens[start..=body_end]`.
fn mk_item(
    kind: ItemKind,
    name: &str,
    impl_ty: Option<&str>,
    tokens: &[Token],
    start: usize,
    end_idx: usize,
    lines: &[CodeLine],
) -> Item {
    let start_line = tokens[start].line;
    let end_line = tokens[end_idx.min(tokens.len() - 1)].line;
    let qual = match impl_ty {
        Some(ty) => format!("{ty}::{name}"),
        None => name.to_string(),
    };
    let in_test = lines.get(start_line - 1).map(|l| l.in_test).unwrap_or(false);
    Item {
        kind,
        name: name.to_string(),
        qual,
        start_line,
        end_line,
        in_test,
        method: false,
        tokens: tokens[start..=end_idx.min(tokens.len() - 1)].to_vec(),
        fields: Vec::new(),
    }
}

/// Parses `fn name ... { body }` (or `fn name ...;`) starting at the `fn`
/// keyword; advances `*i` past the item.
fn parse_fn(
    tokens: &[Token],
    i: &mut usize,
    end: usize,
    impl_ty: Option<&str>,
    lines: &[CodeLine],
) -> Option<Item> {
    let start = *i;
    let name = tokens.get(start + 1).filter(|t| !is_keyword(&t.text))?.text.clone();
    if !name.chars().next().is_some_and(is_ident_char) {
        return None;
    }
    // Find the body `{` (or a terminating `;`) at paren depth 0.
    let mut j = start + 2;
    let mut paren = 0i64;
    while j < end {
        match tokens[j].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if paren == 0 => {
                let close = matching_brace(tokens, j, end);
                let item = mk_item(ItemKind::Fn, &name, impl_ty, tokens, start, close, lines);
                *i = close + 1;
                return Some(item);
            }
            ";" if paren == 0 => {
                let item = mk_item(ItemKind::Fn, &name, impl_ty, tokens, start, j, lines);
                *i = j + 1;
                return Some(item);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses a struct or enum declaration starting at its keyword; collects
/// field or variant names; advances `*i` past the item.
fn parse_type(
    tokens: &[Token],
    i: &mut usize,
    end: usize,
    kind: ItemKind,
    lines: &[CodeLine],
) -> Option<Item> {
    let start = *i;
    let name = tokens.get(start + 1).filter(|t| !is_keyword(&t.text))?.text.clone();
    if !name.chars().next().is_some_and(is_ident_char) {
        return None;
    }
    // Find the body `{` or the `;` ending a tuple/unit struct, at
    // paren/bracket depth 0 (where clauses contain neither braces nor
    // semicolons).
    let mut j = start + 2;
    let mut nest = 0i64;
    while j < end {
        match tokens[j].text.as_str() {
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            "{" if nest == 0 => {
                let close = matching_brace(tokens, j, end);
                let mut item = mk_item(kind, &name, None, tokens, start, close, lines);
                item.fields = match kind {
                    ItemKind::Struct => struct_fields(&tokens[j..=close]),
                    _ => enum_variants(&tokens[j..=close]),
                };
                *i = close + 1;
                return Some(item);
            }
            ";" if nest == 0 => {
                let item = mk_item(kind, &name, None, tokens, start, j, lines);
                *i = j + 1;
                return Some(item);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses `impl ... {`, `mod name {` or `trait Name {` headers starting
/// at the keyword. Returns `(name, body-open index, body-close index)`;
/// `None` for bodyless forms (`mod name;`). For `impl` the name is the
/// Self type: the first path segment after `for`, or after `impl`
/// (skipping one balanced `<...>` generics group).
fn parse_block_header(
    tokens: &[Token],
    start: usize,
    end: usize,
) -> Option<(String, usize, usize)> {
    let mut j = start + 1;
    // Skip a generics group directly after the keyword (`impl<T> ...`).
    if tokens.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 0i64;
        while j < end {
            match tokens[j].text.as_str() {
                "<" | "<<" => angle += 1,
                ">" | ">>" => angle -= if tokens[j].text == ">>" { 2 } else { 1 },
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    let mut name: Option<String> = None;
    let mut after_for = false;
    while j < end {
        match tokens[j].text.as_str() {
            "{" => {
                let close = matching_brace(tokens, j, end);
                return name.map(|n| (n, j, close));
            }
            ";" => return None,
            "for" => {
                after_for = true;
                name = None;
            }
            // First path segment of the (current) type wins; later
            // segments/generic params don't overwrite it.
            word if word.chars().next().is_some_and(is_ident_char)
                && !is_keyword(word)
                && (name.is_none() || after_for) =>
            {
                name = Some(word.to_string());
                after_for = false;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or `end - 1` if the
/// stream is truncated).
fn matching_brace(tokens: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    end.saturating_sub(1)
}

/// Field names of a struct body (`tokens[0]` is the opening `{`): idents
/// directly followed by `:` at brace depth 1, outside parens/brackets.
fn struct_fields(tokens: &[Token]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut brace = 0i64;
    let mut nest = 0i64;
    for (k, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => brace -= 1,
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            word if brace == 1
                && nest == 0
                && word.chars().next().is_some_and(is_ident_char)
                && !is_keyword(word)
                && tokens.get(k + 1).map(|t| t.text.as_str()) == Some(":") =>
            {
                fields.push(word.to_string());
            }
            _ => {}
        }
    }
    fields
}

/// Variant names of an enum body: idents at brace depth 1 (outside
/// parens/brackets) whose previous token is `{`, `,` or an attribute's
/// closing `]`.
fn enum_variants(tokens: &[Token]) -> Vec<String> {
    let mut variants = Vec::new();
    let mut brace = 0i64;
    let mut nest = 0i64;
    for (k, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => brace -= 1,
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            word if brace == 1
                && nest == 0
                && word.chars().next().is_some_and(is_ident_char)
                && !is_keyword(word) =>
            {
                let prev = k.checked_sub(1).map(|j| tokens[j].text.as_str());
                if matches!(prev, Some("{") | Some(",") | Some("]")) {
                    variants.push(word.to_string());
                }
            }
            _ => {}
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(src: &str) -> Project {
        Project::from_sources(vec![("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    /// The qualified names of the functions reachable from `roots`.
    fn reached(p: &Project, roots: &[&str]) -> BTreeSet<String> {
        p.call_map().reachable(roots).into_iter().map(|n| n.qual).collect()
    }

    fn set(quals: &[&str]) -> BTreeSet<String> {
        quals.iter().map(|q| q.to_string()).collect()
    }

    #[test]
    fn extracts_free_and_associated_fns() {
        let p = project(
            "pub fn alpha() { beta(); }\n\
             fn beta() {}\n\
             struct Machine;\n\
             impl Machine {\n    pub fn run(&mut self) { self.step(); }\n    fn step(&self) {}\n}\n",
        );
        let quals: Vec<&str> = p
            .items()
            .filter(|(_, i)| i.kind == ItemKind::Fn)
            .map(|(_, i)| i.qual.as_str())
            .collect();
        assert_eq!(quals, vec!["alpha", "beta", "Machine::run", "Machine::step"]);
        let (_, run) = p.find_item(ItemKind::Fn, "run").unwrap();
        assert_eq!(run.qual, "Machine::run");
        assert!(run.tokens.iter().any(|t| t.text == "step"));
    }

    #[test]
    fn extracts_struct_fields_and_enum_variants() {
        let p = project(
            "pub struct VmCounters {\n    pub numa_hint_faults: u64,\n    pub pgalloc_dram: u64,\n}\n\
             pub enum TraceEvent {\n    HintFault { page: u64 },\n    PromoteAccept { page: u64 },\n    ReclaimStall { cycles: u64 },\n}\n",
        );
        let (_, s) = p.find_item(ItemKind::Struct, "VmCounters").unwrap();
        assert_eq!(s.fields, vec!["numa_hint_faults", "pgalloc_dram"]);
        let (_, e) = p.find_item(ItemKind::Enum, "TraceEvent").unwrap();
        assert_eq!(e.fields, vec!["HintFault", "PromoteAccept", "ReclaimStall"]);
    }

    #[test]
    fn enum_variant_payload_fields_are_not_variants() {
        let p = project("enum E {\n    A { x: u64, y: u64 },\n    B(u64),\n    C,\n}\n");
        let (_, e) = p.find_item(ItemKind::Enum, "E").unwrap();
        assert_eq!(e.fields, vec!["A", "B", "C"]);
    }

    #[test]
    fn impl_for_uses_self_type_and_generics_are_skipped() {
        let p = project(
            "impl<T: Clone> Display for Wrapper<T> {\n    fn fmt(&self) {}\n}\n\
             impl Plain {\n    fn go() {}\n}\n",
        );
        let quals: Vec<&str> = p
            .items()
            .filter(|(_, i)| i.kind == ItemKind::Fn)
            .map(|(_, i)| i.qual.as_str())
            .collect();
        assert_eq!(quals, vec!["Wrapper::fmt", "Plain::go"]);
    }

    #[test]
    fn test_items_are_marked() {
        let p = project(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib(); }\n}\n",
        );
        let (_, lib) = p.find_item(ItemKind::Fn, "lib").unwrap();
        assert!(!lib.in_test);
        let (_, t) = p.find_item(ItemKind::Fn, "t").unwrap();
        assert!(t.in_test);
    }

    #[test]
    fn call_map_resolves_qualified_method_and_free_calls() {
        let p = project(
            "fn root() { Machine::run(); helper(); }\n\
             fn helper() { x.step(); }\n\
             struct Machine;\n\
             impl Machine {\n    fn run() { Self::inner(); }\n    fn inner() {}\n    fn step(&self) { deep(); }\n}\n\
             fn deep() { panic_site(); }\n\
             fn panic_site() {}\n\
             fn unrelated() {}\n",
        );
        let reach = reached(&p, &["root"]);
        for f in [
            "root",
            "helper",
            "Machine::run",
            "Machine::inner",
            "Machine::step",
            "deep",
            "panic_site",
        ] {
            assert!(reach.contains(f), "{f} should be reachable: {reach:?}");
        }
        assert!(!reach.contains("unrelated"));
    }

    #[test]
    fn call_map_splits_method_free_and_self_calls() {
        let p = project(
            "fn root(c: &Cell) { c.run(); step(); }\n\
             struct Cell;\n\
             impl Cell {\n    fn run(&self) { self.go(); }\n    fn go(&self) {}\n    fn step(&self) {}\n}\n\
             impl Other {\n    fn go(&self) {}\n}\n\
             trait T {\n    fn go(&self) {}\n}\n\
             fn run() {}\n\
             fn step() {}\n",
        );
        let reach = reached(&p, &["root"]);
        assert_eq!(reach, set(&["root", "Cell::run", "Cell::go", "step"]), "{reach:?}");
        // Without an own method, `self.go()` falls back to every `go`
        // method, a trait's included.
        let p = project(
            "struct A;\nimpl A {\n    fn root(&self) { self.go(); }\n}\n\
             impl Other {\n    fn go(&self) {}\n}\n\
             trait T {\n    fn go(&self) {}\n}\n\
             fn go() {}\n",
        );
        let reach = reached(&p, &["A::root"]);
        assert_eq!(reach, set(&["A::root", "Other::go", "go"]), "{reach:?}");
    }

    #[test]
    fn call_map_ignores_macros_and_test_fns() {
        let p = project(
            "fn root() { println!(\"x\"); }\n\
             fn println_helper() {}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { secret(); }\n}\n\
             fn secret() {}\n",
        );
        let reach = reached(&p, &["root"]);
        assert!(!reach.contains("secret"), "test-only edges must not exist");
        assert!(!reach.contains("println_helper"), "macro is not a call");
    }

    #[test]
    fn reachable_accepts_qualified_roots() {
        let p = project(
            "struct M;\nimpl M {\n    fn run() { leaf(); }\n}\nfn leaf() {}\nfn other() {}\n",
        );
        let reach = reached(&p, &["M::run"]);
        assert!(reach.contains("leaf"));
        assert!(!reach.contains("other"));
    }

    #[test]
    fn call_map_keys_free_functions_by_file_and_resolves_module_paths() {
        let p = Project::from_sources(vec![
            (
                "crates/os/src/engine.rs".to_string(),
                "fn tick() { audit::run(); helper(); }\nfn helper() {}\n".to_string(),
            ),
            (
                "crates/os/src/audit.rs".to_string(),
                "pub fn run() { law(); }\nfn law() {}\n".to_string(),
            ),
            (
                "crates/bench/src/lib.rs".to_string(),
                "pub fn run() { front(); }\nfn front() {}\nfn helper() { front(); }\n".to_string(),
            ),
            (
                "crates/core/src/journal.rs".to_string(),
                "struct J;\nimpl J {\n    pub fn run(&self) {}\n}\n".to_string(),
            ),
        ]);
        let map = p.call_map();
        let reach = map.reachable(&["tick"]);
        let files: BTreeSet<(&str, &str)> =
            reach.iter().map(|n| (n.file.as_str(), n.qual.as_str())).collect();
        let want: BTreeSet<(&str, &str)> = [
            ("crates/os/src/engine.rs", "tick"),
            ("crates/os/src/engine.rs", "helper"),
            ("crates/os/src/audit.rs", "run"),
            ("crates/os/src/audit.rs", "law"),
        ]
        .into_iter()
        .collect();
        assert_eq!(files, want, "neither the bench `run`, its `helper` nor `J::run`");
        // A module path with no such free function in the project (a
        // foreign crate, a re-export) still reaches every `run`.
        let p = Project::from_sources(vec![
            ("crates/x/src/lib.rs".to_string(), "fn root() { other::run(); }\n".to_string()),
            ("crates/x/src/a.rs".to_string(), "pub fn run() {}\n".to_string()),
        ]);
        assert_eq!(reached(&p, &["root"]), set(&["root", "run"]));
    }

    #[test]
    fn trait_method_decls_and_tuple_structs_parse() {
        let p = project(
            "trait T {\n    fn decl(&self);\n    fn with_default(&self) { decl_helper(); }\n}\n\
             fn decl_helper() {}\n\
             struct Tuple(u64, u64);\n",
        );
        assert!(p.find_item(ItemKind::Fn, "decl").is_some());
        assert!(p.find_item(ItemKind::Fn, "with_default").is_some());
        let (_, t) = p.find_item(ItemKind::Struct, "Tuple").unwrap();
        assert!(t.fields.is_empty());
    }
}
