//! Dependency-free encoding primitives for the journal: FNV-1a64
//! checksums, JSON string escaping, and a minimal flat-object JSONL
//! parser, in the hand-rolled style of `tiersim-trace`'s exporters.
//! The reference-vector test below pins the checksum independently of
//! the writer; `xtask`'s diagnostics reuse [`escape_json`].

use std::collections::BTreeMap;

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

/// A scalar value in a flat journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer field (`seq`, `attempt`, …).
    U64(u64),
    /// A string field (`kind`, `cell`, `payload`, …), unescaped.
    Str(String),
}

impl Value {
    /// The integer, if this is an integer field.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::Str(_) => None,
        }
    }

    /// The string, if this is a string field.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::U64(_) => None,
            Value::Str(s) => Some(s),
        }
    }
}

/// Parses one flat JSON object (string and unsigned-integer values only —
/// exactly what the journal writes) into field order-independent form.
/// Returns `None` on any syntax error: a torn or corrupt line.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Value>> {
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let mut out = BTreeMap::new();
    if bytes.first() != Some(&b'{') {
        return None;
    }
    i += 1;
    let mut first = true;
    loop {
        skip_ws(bytes, &mut i);
        if first && bytes.get(i) == Some(&b'}') {
            i += 1;
            break;
        }
        first = false;
        let key = parse_string(bytes, &mut i)?;
        skip_ws(bytes, &mut i);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(bytes, &mut i);
        let value = match bytes.get(i)? {
            b'"' => Value::Str(parse_string(bytes, &mut i)?),
            b'0'..=b'9' => Value::U64(parse_u64(bytes, &mut i)?),
            _ => return None,
        };
        out.insert(key, value);
        skip_ws(bytes, &mut i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return None,
        }
    }
    skip_ws(bytes, &mut i);
    if i == bytes.len() {
        Some(out)
    } else {
        None
    }
}

fn skip_ws(bytes: &[u8], i: &mut usize) {
    while bytes.get(*i).is_some_and(u8::is_ascii_whitespace) {
        *i += 1;
    }
}

fn parse_u64(bytes: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    while bytes.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
    }
    if *i == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*i]).ok()?.parse().ok()
}

fn parse_string(bytes: &[u8], i: &mut usize) -> Option<String> {
    if bytes.get(*i) != Some(&b'"') {
        return None;
    }
    *i += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*i)? {
            b'"' => {
                *i += 1;
                break;
            }
            b'\\' => {
                *i += 1;
                match bytes.get(*i)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes.get(*i + 1..*i + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.extend_from_slice(char::from_u32(code)?.to_string().as_bytes());
                        *i += 4;
                    }
                    _ => return None,
                }
                *i += 1;
            }
            _ => {
                out.push(bytes[*i]);
                *i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
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
        let obj = parse_flat_object(&line).expect("parses");
        assert_eq!(obj["k"].as_str(), Some(nasty));
    }

    #[test]
    fn parses_mixed_fields_in_any_order() {
        let obj = parse_flat_object(r#"{"b":7,"a":"x","c":"y z"}"#).expect("parses");
        assert_eq!(obj["b"].as_u64(), Some(7));
        assert_eq!(obj["a"].as_str(), Some("x"));
        assert_eq!(obj["c"].as_str(), Some("y z"));
        assert_eq!(obj.len(), 3);
    }

    #[test]
    fn rejects_torn_and_malformed_lines() {
        for bad in [
            "",
            "{",
            r#"{"k":"v"#,
            r#"{"k":}"#,
            r#"{"k":"v"} trailing"#,
            r#"{"k":-1}"#,
            r#"{k:"v"}"#,
            r#"{"k":"v",}"#,
        ] {
            assert!(parse_flat_object(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn hex16_is_fixed_width() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
        assert_eq!(hex16(0xabc).len(), 16);
    }
}
