//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this program reports match
//! the ones `compare.py` and any Python reader compute from the same
//! values.

use bci_telemetry::Histogram;

/// A metric's value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The reported value (a median, or a percentile of merged samples).
    pub value: f64,
    /// First quartile of the per-repetition values.
    pub q1: f64,
    /// Third quartile of the per-repetition values.
    pub q3: f64,
    /// Number of per-repetition values.
    pub n: usize,
}

impl Summary {
    /// Median and quartiles of `samples`; all NaN when there are none
    /// (every repetition failed), which the result prints as `null`.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                value: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                n: 0,
            };
        }
        let (q1, median, q3) = quartiles(samples);
        Summary {
            value: median,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// `value` reported with the quartiles of `per_rep` (a percentile of
    /// merged samples, spread by the same percentile taken per repetition).
    pub fn with_value(value: f64, per_rep: &[f64]) -> Summary {
        Summary {
            value,
            ..Summary::of(per_rep)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by Python's exclusive method; a single sample is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let data = sorted(samples);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let median = if ld % 2 == 1 {
        data[ld / 2]
    } else {
        (data[ld / 2 - 1] + data[ld / 2]) / 2.0
    };
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), median, cut(3))
}

/// The `p`-th percentile of raw samples, interpolating linearly between
/// order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let data = sorted(samples);
    let pos = p / 100.0 * (data.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    data[lo] + (data[hi] - data[lo]) * (pos - lo as f64)
}

/// The `p`-th percentile of a fixed-bucket histogram: the same rank and
/// within-bucket interpolation as [`Histogram::percentile`], without
/// rounding the result to a whole unit.
///
/// # Panics
///
/// Panics on an empty histogram.
pub fn hist_percentile(h: &Histogram, p: f64) -> f64 {
    assert!(!h.is_empty(), "empty histogram");
    let rank = ((p / 100.0) * h.count() as f64).ceil().max(1.0) as u64;
    let bounds = h.bounds();
    let mut before = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        if c > 0 && before + c >= rank {
            let Some(&bound) = bounds.get(i) else {
                return h.max() as f64;
            };
            let floor = if i == 0 { 0 } else { bounds[i - 1] + 1 };
            let lo = floor.max(h.min()) as f64;
            let hi = bound.min(h.max()) as f64;
            if hi <= lo {
                return hi;
            }
            let frac = (rank - before) as f64 / c as f64;
            return lo + frac * (hi - lo);
        }
        before += c;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn hist_percentile_agrees_with_the_rounded_one() {
        let mut h = Histogram::latency_us();
        for v in [3u64, 40, 41, 45, 47, 180, 900, 950] {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(hist_percentile(&h, p).round() as u64, h.percentile(p));
        }
    }
}
