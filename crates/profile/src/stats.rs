//! Small summary-statistics helpers used by the analyses.

/// Summary statistics of a sample set: the exact quantities the paper's
/// Figure 5 reports (min, 25th/50th/75th percentiles, max, average, and
/// standard deviation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarized.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarizes `values`. Returns `None` for an empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        Some(Summary {
            count: v.len(),
            min: v[0],
            p25: percentile_sorted(&v, 0.25),
            p50: percentile_sorted(&v, 0.50),
            p75: percentile_sorted(&v, 0.75),
            max: v[v.len() - 1],
            mean,
            std_dev: var.sqrt(),
        })
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p75, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[f64::NAN]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0];
        assert_eq!(percentile_sorted(&v, 0.5), 15.0);
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 20.0);
    }

    #[test]
    fn single_value_percentiles() {
        let v = [7.0];
        assert_eq!(percentile_sorted(&v, 0.25), 7.0);
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.min, s.max);
        assert_eq!(s.std_dev, 0.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_percentiles_monotone(mut vals in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let s = Summary::of(&vals).unwrap();
            proptest::prop_assert!(s.min <= s.p25 + 1e-9);
            proptest::prop_assert!(s.p25 <= s.p50 + 1e-9);
            proptest::prop_assert!(s.p50 <= s.p75 + 1e-9);
            proptest::prop_assert!(s.p75 <= s.max + 1e-9);
            proptest::prop_assert!(s.min <= s.mean && s.mean <= s.max);
        }
    }
}
