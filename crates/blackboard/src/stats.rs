//! Streaming statistics over per-execution communication costs.

use std::fmt;

/// Accumulates count / mean / variance / min / max of a stream of
/// observations (Welford's algorithm), used for communication costs and
/// error indicators.
///
/// # Example
///
/// ```
/// use bci_blackboard::stats::CommStats;
///
/// let mut s = CommStats::new();
/// for bits in [10.0, 12.0, 14.0] {
///     s.record(bits);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 12.0);
/// assert_eq!(s.max(), 14.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl CommStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        CommStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (0 when empty).
    pub fn stderr(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={} max={}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min,
            self.max
        )
    }
}

impl Extend<f64> for CommStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for CommStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = CommStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = CommStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.stderr(), 0.0);
    }

    #[test]
    fn known_moments() {
        let s: CommStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0); // classic example
        assert_eq!(s.stddev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_observation() {
        let s: CommStats = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }
}
