//! The bench-smoke throughput regression gate.
//!
//! Compares a freshly measured `BENCH_access_path.json` against the
//! committed baseline and fails when per-element simulator throughput
//! regresses by more than the tolerance. Dependency-free on purpose: the
//! two fields it needs are pulled out of the JSON with a string scan, so
//! the gate runs on the offline CI toolchain before anything else.

/// Fraction of the baseline throughput the current run must reach.
/// Benchmarks on shared CI runners jitter; 20% headroom keeps the gate
/// about real regressions (an accidental per-element re-dispatch is a
/// multi-x slowdown) rather than noise.
pub const MIN_RATIO: f64 = 0.8;

/// Keys compared by the gate, in report order.
pub const GATED_KEYS: &[&str] = &["per_element_accesses_per_sec", "demand_paged_accesses_per_sec"];

/// One key's comparison outcome.
#[derive(Debug, PartialEq)]
pub struct Comparison {
    pub key: &'static str,
    pub baseline: f64,
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    pub pass: bool,
}

/// Extracts the numeric value of `"key": <number>` from `json`.
///
/// Accepts integers and decimals; returns `None` when the key is absent
/// or its value is not a bare number (older baselines may predate a key,
/// which the gate treats as "not gated" rather than an error).
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '.' || *c == '-' || *c == '+' || *c == 'e'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares every gated key against the current measurement. Every gated
/// key must be present in *both* files: a key missing from the baseline
/// means the committed `BENCH_access_path.json` predates the lane and
/// must be regenerated; one missing from the current file means the
/// bench stopped reporting it. Both are errors — silent lane loss is
/// exactly what the gate exists to catch.
pub fn compare(baseline: &str, current: &str) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    for &key in GATED_KEYS {
        let base = extract_number(baseline, key)
            .ok_or_else(|| format!("baseline is missing gated key `{key}` — regenerate it"))?;
        if base <= 0.0 {
            return Err(format!("baseline `{key}` is not positive: {base}"));
        }
        let cur = extract_number(current, key)
            .ok_or_else(|| format!("current run is missing gated key `{key}`"))?;
        let ratio = cur / base;
        out.push(Comparison { key, baseline: base, current: cur, ratio, pass: ratio >= MIN_RATIO });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "access_path": {
    "per_element_accesses_per_sec": 1000000,
    "demand_paged_accesses_per_sec": 500000
  }
}"#;

    fn with_rates(per: f64, demand: f64) -> String {
        format!(
            "{{\"per_element_accesses_per_sec\": {per}, \"demand_paged_accesses_per_sec\": {demand}}}"
        )
    }

    #[test]
    fn extracts_numbers_with_varied_spacing() {
        assert_eq!(extract_number("{\"a\": 12}", "a"), Some(12.0));
        assert_eq!(extract_number("{\"a\":12.5,\"b\":1}", "a"), Some(12.5));
        assert_eq!(extract_number("{\"a\" : 3e6}", "a"), Some(3e6));
        assert_eq!(extract_number("{\"a\": null}", "a"), None);
        assert_eq!(extract_number("{}", "a"), None);
    }

    #[test]
    fn passes_at_or_above_tolerance() {
        let cur = with_rates(800_000.0, 400_000.0);
        let cmp = compare(BASE, &cur).unwrap();
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| c.pass));
    }

    #[test]
    fn fails_below_tolerance() {
        let cur = with_rates(799_999.0, 500_000.0);
        let cmp = compare(BASE, &cur).unwrap();
        assert!(!cmp[0].pass);
        assert!(cmp[1].pass);
    }

    #[test]
    fn key_missing_from_baseline_is_an_error() {
        // A baseline that predates a gated lane must be regenerated, not
        // silently skipped — that is how a lane regression would hide.
        let base = "{\"per_element_accesses_per_sec\": 1000000}";
        let cur = with_rates(1_000_000.0, 1.0);
        let err = compare(base, &cur).unwrap_err();
        assert!(err.contains("baseline is missing gated key"));
        assert!(err.contains("demand_paged_accesses_per_sec"));
    }

    #[test]
    fn key_missing_from_current_fails() {
        let err = compare(BASE, "{}").unwrap_err();
        assert!(err.contains("missing gated key"));
    }

    #[test]
    fn empty_baseline_is_an_error() {
        assert!(compare("{}", "{}").is_err());
    }
}
