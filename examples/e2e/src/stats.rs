//! Sample summaries and the regression verdict `--compare` applies.

use crate::metrics::Better;

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method, which extrapolates for tiny samples), so spreads
/// printed here match the ones an outside check derives from the same
/// values. One value is its own quartiles; none gives NaN.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = ld as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// What a metric's samples look like from one set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            median: median(samples),
            q1,
            q3,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The outcome of comparing a metric between a base and a new set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Either side's spread exceeds the bound, so a difference this size
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of the base median
/// (negative when better).
fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The verdict for one metric: `unresolved` when either side's spread
/// exceeds `bound` (unless every new sample beats every base sample),
/// else `regressed` when the new median is worse by more than `bound`.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (Summary::of(base), Summary::of(new));
    if b.spread().max(n.spread()) > bound {
        let clearly_better = match better {
            Better::Lower => n.max < b.min,
            Better::Higher => n.min > b.max,
        };
        return if clearly_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worsening(b.median, n.median, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values from Python 3.11 `statistics.quantiles(v, n=4)`.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 8.5));
        let (q1, q3) =
            quartiles(&[4.327, 3.871, 4.027, 4.173, 4.447, 4.502, 4.373, 4.422, 4.577, 4.241]);
        assert!((q1 - 4.1365).abs() < 1e-12 && (q3 - 4.46075).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_reports_spread_and_extremes() {
        let s = Summary::of(&[2.0, 1.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.min, s.max, s.n, s.median), (1.0, 5.0, 5, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_applies_the_bound_in_the_metric_direction() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.02, 10.0, 9.95, 10.1, 10.0];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(verdict(&base, &same, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.10), Verdict::Regressed);
        // For a higher-is-better metric the same numbers read the other
        // way round.
        assert_eq!(verdict(&slower, &base, Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&base, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert!(worsening(10.0, 11.0, Better::Lower) > 0.0);
        assert!(worsening(10.0, 11.0, Better::Higher) < 0.0);
    }

    #[test]
    fn noisy_sets_are_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        let worse = [9.0, 11.0, 13.0, 10.0, 12.0];
        assert_eq!(verdict(&noisy, &worse, Better::Lower, 0.10), Verdict::Unresolved);
        let all_faster = [4.0, 4.5, 5.0, 6.0, 7.0];
        assert_eq!(verdict(&noisy, &all_faster, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(Verdict::Unresolved.name(), "unresolved");
    }
}
