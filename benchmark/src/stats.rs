//! Order statistics shared by every workload, the layer probes and the
//! A/A gate.

/// The value at quantile `p` (0..=1) of `sorted`, nearest-rank on
/// `(len-1)*p` — the same rule for p50, p99 and p999 everywhere.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Sorts `samples` in place and returns the value at quantile `p`.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// Median with the even-length midpoint rule (what `statistics.median`
/// gives, so the driver's numbers and ours agree).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the rule the acceptance gate
/// uses for its spreads.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| -> f64 {
        // Position k*(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A sample reduced for reporting: the reported value, the quartiles
/// of the sample and its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    fn with_value(value: f64, samples: &[f64]) -> Summary {
        let (q1, q3) = if samples.len() >= 2 {
            quartiles(samples)
        } else {
            (value, value)
        };
        Summary {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Reports the median.
    pub fn of(samples: &[f64]) -> Summary {
        Summary::with_value(median(samples), samples)
    }

    /// A quantity known exactly (a count, a size): no spread.
    pub fn exact(value: f64) -> Summary {
        Summary::with_value(value, &[value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.5), 51.0); // round(99*0.5)=50 → 51st
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the method
        // extrapolates; ours clamps the fraction into the sample.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn summary_of_single_sample_has_no_spread() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }
}
