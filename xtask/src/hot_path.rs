//! The resident-access inlining guard.
//!
//! A resident element access is one straight-line pass from `Machine::op`
//! down to the TLB and cache tag scans (DESIGN.md, "The per-access
//! chain"): each link is `#[inline(always)]`, and the rare work sits in
//! `#[cold] #[inline(never)]` functions. This check reads a release
//! binary's `nm -C --defined-only` listing and fails if any link of the
//! chain exists as a standalone text symbol. It also fails if a cold
//! anchor is missing, so a stripped or renamed binary cannot pass for
//! having no symbols at all. Dependency-free, like the other tasks.

/// What the check expects of a function in the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A link of the resident chain: inlined into every caller, so no
    /// text symbol of that name.
    Inlined,
    /// A cold anchor: present out of line.
    OutOfLine,
}

/// Every function the check reads, by demangled path.
pub const SYMBOLS: &[(&str, Expect)] = &[
    ("tiersim_core::machine::Machine::op", Expect::Inlined),
    ("tiersim_mem::system::MemorySystem::access", Expect::Inlined),
    ("tiersim_mem::system::MemorySystem::cache_path", Expect::Inlined),
    ("tiersim_mem::page_table::PageTable::access_touch", Expect::Inlined),
    ("tiersim_mem::tlb::Tlb::lookup", Expect::Inlined),
    ("tiersim_mem::tlb::TlbLevel::touch", Expect::Inlined),
    ("tiersim_mem::tlb::TlbLevel::touch_in", Expect::Inlined),
    ("tiersim_mem::cache::SetAssocCache::access", Expect::Inlined),
    ("tiersim_mem::cache::SetAssocCache::access_in", Expect::Inlined),
    ("tiersim_mem::cache::SetAssocCache::mark_dirty_in", Expect::Inlined),
    ("tiersim_mem::nvm::NvmModel::touch_in", Expect::Inlined),
    ("tiersim_mem::recency::set_mut", Expect::Inlined),
    ("tiersim_mem::recency::touch", Expect::Inlined),
    ("tiersim_mem::recency::shift_in", Expect::Inlined),
    ("tiersim_core::machine::Machine::service_fault", Expect::OutOfLine),
    ("tiersim_core::machine::Machine::housekeeping_due", Expect::OutOfLine),
    ("tiersim_mem::system::MemorySystem::non_resident", Expect::OutOfLine),
    ("tiersim_os::engine::AutoNuma::on_hint_fault", Expect::OutOfLine),
];

/// Demangled names of the text symbols in `nm -C` output, with the
/// suffixes that do not name a different function removed: LLVM's
/// `.llvm.<n>` on locals that ThinLTO promotes, and the `::h<16 hex>`
/// hash that demanglers without Rust support leave on legacy symbols.
pub fn text_symbols(nm: &str) -> Vec<&str> {
    nm.lines()
        .filter_map(|line| {
            let mut fields = line.trim_start().splitn(3, ' ');
            let (_addr, kind, name) = (fields.next()?, fields.next()?, fields.next()?);
            matches!(kind, "t" | "T").then(|| normalize(name.trim_end()))
        })
        .collect()
}

fn normalize(name: &str) -> &str {
    let name = name.split_once(".llvm.").map_or(name, |(head, _)| head);
    match name.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head
        }
        _ => name,
    }
}

/// One function that breaks its expectation.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    pub symbol: &'static str,
    pub expect: Expect,
    /// Text symbols of that name in the binary.
    pub copies: usize,
}

/// Checks `nm` output against [`SYMBOLS`]; empty when the binary passes.
pub fn check(nm: &str) -> Vec<Violation> {
    let present = text_symbols(nm);
    SYMBOLS
        .iter()
        .filter_map(|&(symbol, expect)| {
            let copies = present.iter().filter(|&&name| name == symbol).count();
            let ok = match expect {
                Expect::Inlined => copies == 0,
                Expect::OutOfLine => copies > 0,
            };
            (!ok).then_some(Violation { symbol, expect, copies })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cold anchors only: what a correctly built binary lists.
    fn anchors() -> String {
        SYMBOLS
            .iter()
            .filter(|(_, e)| *e == Expect::OutOfLine)
            .enumerate()
            .map(|(i, (name, _))| format!("00000000000a{i:04x} t {name}\n"))
            .collect()
    }

    #[test]
    fn anchors_alone_pass() {
        assert_eq!(check(&anchors()), vec![]);
    }

    #[test]
    fn an_out_of_line_link_fails_with_its_copies() {
        let nm = anchors()
            + "000000000007aec0 t tiersim_mem::recency::shift_in\n\
               00000000000af320 t tiersim_mem::recency::shift_in\n\
               00000000000ad110 T tiersim_mem::system::MemorySystem::cache_path\n";
        let got = check(&nm);
        let want = vec![
            Violation {
                symbol: "tiersim_mem::system::MemorySystem::cache_path",
                expect: Expect::Inlined,
                copies: 1,
            },
            Violation {
                symbol: "tiersim_mem::recency::shift_in",
                expect: Expect::Inlined,
                copies: 2,
            },
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn an_empty_listing_fails_on_every_anchor() {
        let got = check("");
        let anchors = SYMBOLS.iter().filter(|(_, e)| *e == Expect::OutOfLine).count();
        assert_eq!(got.len(), anchors);
        assert!(got.iter().all(|v| v.expect == Expect::OutOfLine && v.copies == 0));
    }

    #[test]
    fn hash_and_llvm_suffixes_name_the_same_function() {
        let nm = "0000000000001000 t tiersim_core::machine::Machine::op::h0123456789abcdef\n\
                  0000000000002000 t tiersim_mem::tlb::Tlb::lookup.llvm.1234567\n\
                  0000000000003000 t tiersim_mem::tlb::TlbLevel::insert::hnothex\n";
        assert_eq!(
            text_symbols(nm),
            vec![
                "tiersim_core::machine::Machine::op",
                "tiersim_mem::tlb::Tlb::lookup",
                "tiersim_mem::tlb::TlbLevel::insert::hnothex",
            ]
        );
    }

    #[test]
    fn only_text_symbols_count() {
        // A data symbol of the same name (a static, a vtable slot) is not
        // an out-of-line copy of the function.
        let nm = "0000000000001000 r tiersim_mem::cache::SetAssocCache::access\n\
                  0000000000002000 D tiersim_mem::cache::SetAssocCache::access\n\
                  0000000000003000 t <tiersim_core::machine::Machine as Foo>::op\n";
        assert_eq!(text_symbols(nm), vec!["<tiersim_core::machine::Machine as Foo>::op"]);
        assert_eq!(check(&(anchors() + nm)), vec![]);
    }

    #[test]
    fn every_symbol_is_listed_once() {
        let mut names: Vec<_> = SYMBOLS.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), SYMBOLS.len());
    }
}
