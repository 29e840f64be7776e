//! Order statistics: the percentile rule for latency tails and the
//! quartile summary used for the spread of every metric.

/// A latency tail: the highest percentile (capped at the one asked for)
/// that still has at least [`MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `0..=100`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of an ascending slice (`p` in `0..=100`).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile rule: report `want` (e.g. 99) when at least
/// [`MIN_BEYOND`] samples lie beyond its nearest-rank sample; otherwise the
/// highest percentile that still has that many beyond it. `None` when
/// there are too few samples for any tail.
#[must_use]
pub fn tail(sorted: &[f64], want: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((want / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    let (index, percentile) = if n - 1 - index >= MIN_BEYOND {
        (index, want)
    } else {
        let index = n - 1 - MIN_BEYOND;
        (index, 100.0 * (index + 1) as f64 / n as f64)
    };
    Some(Tail {
        percentile,
        value: sorted[index],
        samples: n,
    })
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Min, quartiles, median and max of a set of runs or rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Summarises `values` with the quartiles of Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), the
    /// rule the benchmark's acceptance spread is defined by. A single value
    /// is its own quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        assert!(n > 0, "spread of no values");
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            min: v[0],
            q1: quartile(1),
            median: median(&v),
            q3: quartile(3),
            max: v[n - 1],
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    #[must_use]
    pub fn relative_iqr(&self) -> f64 {
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

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_reports_the_requested_percentile_with_enough_samples() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        let t = tail(&ramp(5000), 99.0).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 4950.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 999 samples: p99's rank (990) leaves only 9 beyond, so the rule
        // reports rank 989 (10 beyond), which is p99.0 of 999 → 98.998...
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 100.0 * 989.0 / 999.0).abs() < 1e-12);
        assert!(t.percentile < 99.0);
        // 200 samples: rank 190 has exactly 10 beyond → p95.
        let t = tail(&ramp(200), 99.0).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
        // 11 samples: only the minimum has 10 beyond it.
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(tail(&ramp(10), 99.0), None);
    }

    #[test]
    fn tail_always_leaves_ten_samples_beyond() {
        for n in 11..2500 {
            let data = ramp(n);
            let t = tail(&data, 99.0).unwrap();
            let beyond = data.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            assert!(t.percentile <= 99.0);
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::of(&ramp(10));
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max), (1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Spread::of(&[16.0, 8.0, 4.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.relative_iqr() - 2.625).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_median_use_nearest_rank_and_midpoint() {
        assert_eq!(percentile(&ramp(100), 50.0), 50.0);
        assert_eq!(percentile(&ramp(3), 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
