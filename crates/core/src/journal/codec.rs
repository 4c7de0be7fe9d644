//! Dependency-free encoding primitives for the journal: FNV-1a64
//! checksums and JSON string escaping, in the hand-rolled style of
//! `tiersim-trace`'s exporters. Lines are read back by
//! [`tiersim_trace::json::parse_object`], the parser the trace reader
//! shares. The reference-vector test below pins the checksum
//! independently of the writer; `xtask`'s diagnostics reuse
//! [`escape_json`].

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a64 over `bytes`: the journal's line checksum and the basis of
/// stable cell IDs. Chosen for the same reason the trace layer hand-rolls
/// its JSON: zero dependencies, identical on every platform.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an FNV-1a64 hash as fixed-width lowercase hex — the journal's
/// `crc` field and cell-ID format.
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "line\nbreak \"quoted\" back\\slash\ttab \u{1}ctrl";
        let line = format!("{{\"k\":\"{}\"}}", escape_json(nasty));
        let obj = tiersim_trace::json::parse_object(&line).expect("parses");
        assert_eq!(obj["k"].as_str(), Some(nasty));
    }

    #[test]
    fn hex16_is_fixed_width() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
        assert_eq!(hex16(0xabc).len(), 16);
    }
}
