//! Order statistics for round samples: medians, the quartiles the way
//! Python's `statistics.quantiles(v, n=4)` computes them (so spreads
//! printed here match the ones the driver computes from our output), and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Samples beyond a percentile below which it is not reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    s
}

/// Median of an unsorted sample; `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// First and third quartile, `statistics.quantiles(v, n=4)` (exclusive
/// method). Fewer than two samples have no spread: both are the median.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let m = median(v);
        return (m, m);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The quantile actually reported when `want` is asked of `n` samples:
/// `want` itself when at least [`MIN_BEYOND`] samples lie beyond it,
/// else the highest quantile that still has that many beyond (never
/// below the median).
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return want;
    }
    let highest = 1.0 - MIN_BEYOND as f64 / n as f64;
    want.min(highest).max(0.5)
}

/// Nearest-rank quantile `q` of an unsorted sample; `NaN` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Tail latency: the `want` quantile, lowered by [`supported_quantile`].
pub fn tail(v: &[f64], want: f64) -> f64 {
    quantile(v, supported_quantile(v.len(), want))
}

/// A metric across rounds: median, quartiles, sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The per-round values, in round order.
    pub samples: Vec<f64>,
    /// For timings: the same rounds before scaling to nominal machine
    /// speed (see `calib`); empty for counts.
    pub raw: Vec<f64>,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles(v);
        Summary { median: median(v), q1, q3, n: v.len(), samples: v.to_vec(), raw: Vec::new() }
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0: only exact counts are ever 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, so it stands.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 200 samples: only p95 has 10 beyond.
        assert!((supported_quantile(200, 0.99) - 0.95).abs() < 1e-12);
        // Too few samples for any tail: the median.
        assert_eq!(supported_quantile(12, 0.99), 0.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), 190.0);
        assert_eq!(quantile(&v, 0.5), 100.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    }
}
