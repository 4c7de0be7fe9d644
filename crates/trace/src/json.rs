//! The one JSON object parser of tiersim's two line formats: the `--trace`
//! JSONL ([`crate::check_jsonl`]) and the sweep journal
//! (`tiersim_core::journal::replay`).
//!
//! Both writers emit one object per line holding unsigned integers,
//! strings and (the trace's `metrics_snapshot` only) one nested object,
//! so that is all the parser accepts: no signs, fractions, arrays,
//! literals or duplicate keys.

use std::collections::BTreeMap;

/// A value in a parsed line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer (`seq`, `attempt`, `page`, …).
    U64(u64),
    /// A string, unescaped (`kind`, `payload`, `event`, …).
    Str(String),
    /// A nested object (the trace's `metrics`).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The integer, if this is an integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses `line` as exactly one JSON object, surrounding whitespace
/// aside, into field-order-independent form. Returns `None` on any
/// syntax error: a torn or corrupt line.
pub fn parse_object(line: &str) -> Option<BTreeMap<String, Value>> {
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let out = object(bytes, &mut i, true)?;
    (i == bytes.len()).then_some(out)
}

/// An object at `i`; `outer` admits one level of nested objects, which
/// also bounds the recursion on hostile input.
fn object(bytes: &[u8], i: &mut usize, outer: bool) -> Option<BTreeMap<String, Value>> {
    let mut out = BTreeMap::new();
    if bytes.get(*i) != Some(&b'{') {
        return None;
    }
    *i += 1;
    skip_ws(bytes, i);
    if bytes.get(*i) == Some(&b'}') {
        *i += 1;
        return Some(out);
    }
    loop {
        skip_ws(bytes, i);
        let key = string(bytes, i)?;
        skip_ws(bytes, i);
        if bytes.get(*i) != Some(&b':') {
            return None;
        }
        *i += 1;
        skip_ws(bytes, i);
        let value = match bytes.get(*i)? {
            b'"' => Value::Str(string(bytes, i)?),
            b'0'..=b'9' => Value::U64(number(bytes, i)?),
            b'{' if outer => Value::Object(object(bytes, i, false)?),
            _ => return None,
        };
        if out.insert(key, value).is_some() {
            return None;
        }
        skip_ws(bytes, i);
        match bytes.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Some(out);
            }
            _ => return None,
        }
    }
}

fn skip_ws(bytes: &[u8], i: &mut usize) {
    while bytes.get(*i).is_some_and(u8::is_ascii_whitespace) {
        *i += 1;
    }
}

fn number(bytes: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    while bytes.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
    }
    std::str::from_utf8(bytes.get(start..*i)?).ok()?.parse().ok()
}

fn string(bytes: &[u8], i: &mut usize) -> Option<String> {
    if bytes.get(*i) != Some(&b'"') {
        return None;
    }
    *i += 1;
    let mut out = Vec::new();
    loop {
        match *bytes.get(*i)? {
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
            byte => {
                out.push(byte);
                *i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_fields_in_any_order() {
        let obj = parse_object(r#"{"b":7,"a":"x","c":"y z"}"#).expect("parses");
        assert_eq!(obj["b"].as_u64(), Some(7));
        assert_eq!(obj["a"].as_str(), Some("x"));
        assert_eq!(obj["c"].as_str(), Some("y z"));
        assert_eq!(obj.len(), 3);
    }

    #[test]
    fn parses_one_nested_object() {
        let obj = parse_object(r#"{"t":1,"metrics":{"a":2,"b":3},"z":{}}"#).expect("parses");
        let metrics = obj["metrics"].as_object().expect("object");
        assert_eq!(metrics["b"].as_u64(), Some(3));
        assert_eq!(obj["z"].as_object().map(BTreeMap::len), Some(0));
        assert_eq!(obj["t"].as_object(), None);
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
            r#"{"k":1,"k":2}"#,
            r#"{"k":1"0}"#,
            r#"{"k":{"a":1}"#,
            r#"{"k":{"a":{}}}"#,
            r#"{"k":[1]}"#,
            r#"{"k":true}"#,
            r#"{"k":1}{"k":2}"#,
        ] {
            assert!(parse_object(bad).is_none(), "accepted: {bad:?}");
        }
    }
}
