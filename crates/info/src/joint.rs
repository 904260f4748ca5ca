//! Joint distributions over pairs and the mutual-information quantities of
//! Definition 3.

use crate::dist::Dist;
use crate::num::{clamp_nonneg, xlog2_ratio};

/// A joint distribution over `(X, Y)` pairs stored as a dense
/// `|X| × |Y|` matrix of probabilities.
///
/// # Example
///
/// ```
/// use bci_info::joint::Joint2;
///
/// // Perfectly correlated bits: I(X;Y) = 1.
/// let j = Joint2::new(vec![vec![0.5, 0.0], vec![0.0, 0.5]]).unwrap();
/// assert!((j.mutual_information() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Joint2 {
    /// `probs[x][y] = Pr[X = x, Y = y]`.
    probs: Vec<Vec<f64>>,
}

impl Joint2 {
    /// Validates a joint probability matrix (rectangular, non-negative,
    /// summing to one within `1e-9`; residual error renormalized).
    ///
    /// # Errors
    ///
    /// The same failure modes as [`Dist::new`], reported through
    /// [`crate::dist::DistError`].
    pub fn new(probs: Vec<Vec<f64>>) -> Result<Self, crate::dist::DistError> {
        use crate::dist::DistError;
        if probs.is_empty() || probs[0].is_empty() {
            return Err(DistError::Empty);
        }
        let cols = probs[0].len();
        let mut sum = 0.0;
        for (x, row) in probs.iter().enumerate() {
            if row.len() != cols {
                return Err(DistError::Empty);
            }
            for (y, &p) in row.iter().enumerate() {
                if p < 0.0 || p.is_nan() {
                    return Err(DistError::InvalidProbability(x * cols + y, p));
                }
                sum += p;
            }
        }
        if !crate::num::close(sum, 1.0, 1e-9) {
            return Err(DistError::NotNormalized(sum));
        }
        let mut j = Joint2 { probs };
        if sum != 1.0 {
            for row in &mut j.probs {
                for p in row {
                    *p /= sum;
                }
            }
        }
        Ok(j)
    }

    /// Number of `X` outcomes.
    pub fn x_len(&self) -> usize {
        self.probs.len()
    }

    /// Number of `Y` outcomes.
    pub fn y_len(&self) -> usize {
        self.probs[0].len()
    }

    /// `Pr[X = x, Y = y]`.
    pub fn prob(&self, x: usize, y: usize) -> f64 {
        self.probs[x][y]
    }

    /// Marginal distribution of `X`.
    pub fn marginal_x(&self) -> Dist {
        Dist::from_weights(self.probs.iter().map(|row| row.iter().sum()).collect())
            .expect("valid joint has valid marginals")
    }

    /// Marginal distribution of `Y`.
    pub fn marginal_y(&self) -> Dist {
        let mut w = vec![0.0; self.y_len()];
        for row in &self.probs {
            for (acc, &p) in w.iter_mut().zip(row) {
                *acc += p;
            }
        }
        Dist::from_weights(w).expect("valid joint has valid marginals")
    }

    /// Conditional distribution of `Y` given `X = x`, or `None` if
    /// `Pr[X = x] = 0`.
    pub fn conditional_y_given_x(&self, x: usize) -> Option<Dist> {
        Dist::from_weights(self.probs[x].clone()).ok()
    }

    /// Mutual information `I(X; Y) = Σ p(x,y) log₂ p(x,y)/(p(x)p(y))` in bits.
    pub fn mutual_information(&self) -> f64 {
        let px = self.marginal_x();
        let py = self.marginal_y();
        let mut i = 0.0;
        for (x, row) in self.probs.iter().enumerate() {
            for (y, &p) in row.iter().enumerate() {
                i += xlog2_ratio(p, px.prob(x) * py.prob(y));
            }
        }
        clamp_nonneg(i, 1e-9)
    }
}

/// Conditional mutual information `I(X; Y | Z) = Σ_z p(z) · I(X; Y | Z = z)`.
///
/// `slices` holds, for each value of `Z`, its probability and the joint
/// distribution of `(X, Y)` conditioned on that value.
///
/// # Panics
///
/// Panics if the weights do not sum to one within `1e-9`.
pub fn conditional_mutual_information(slices: &[(f64, Joint2)]) -> f64 {
    let total: f64 = slices.iter().map(|(w, _)| w).sum();
    assert!(
        crate::num::close(total, 1.0, 1e-9),
        "Z-weights sum to {total}"
    );
    slices.iter().map(|(w, j)| w * j.mutual_information()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indep_joint() -> Joint2 {
        // X ~ Bern(0.5), Y ~ Bern(0.25), independent.
        Joint2::new(vec![vec![0.375, 0.125], vec![0.375, 0.125]]).unwrap()
    }

    #[test]
    fn independent_variables_have_zero_mi() {
        assert!(indep_joint().mutual_information() < 1e-12);
    }

    #[test]
    fn identical_variables_have_mi_equal_entropy() {
        let j = Joint2::new(vec![
            vec![0.2, 0.0, 0.0],
            vec![0.0, 0.3, 0.0],
            vec![0.0, 0.0, 0.5],
        ])
        .unwrap();
        let h = j.marginal_x().entropy();
        assert!((j.mutual_information() - h).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric_in_chain_rule_sense() {
        // I(X;Y) = H(Y) − H(Y|X).
        let j = Joint2::new(vec![vec![0.1, 0.2], vec![0.4, 0.3]]).unwrap();
        let lhs = j.mutual_information();
        let px = j.marginal_x();
        let h_y_given_x: f64 = (0..j.x_len())
            .map(|x| px.prob(x) * j.conditional_y_given_x(x).unwrap().entropy())
            .sum();
        let rhs = j.marginal_y().entropy() - h_y_given_x;
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn marginals() {
        let j = Joint2::new(vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert!((j.marginal_x().prob(0) - 0.3).abs() < 1e-12);
        assert!((j.marginal_y().prob(1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn conditional_of_zero_mass_row_is_none() {
        let j = Joint2::new(vec![vec![0.0, 0.0], vec![0.5, 0.5]]).unwrap();
        assert!(j.conditional_y_given_x(0).is_none());
        assert!(j.conditional_y_given_x(1).is_some());
    }

    #[test]
    fn binary_symmetric_channel_mi() {
        // Y = X through a binary symmetric channel with flip prob 0.1.
        let j = Joint2::new(vec![vec![0.45, 0.05], vec![0.05, 0.45]]).unwrap();
        // I(X;Y) = 1 − h(0.1) for a BSC with uniform input.
        let h01 = -(0.1f64 * 0.1f64.log2() + 0.9 * 0.9f64.log2());
        assert!((j.mutual_information() - (1.0 - h01)).abs() < 1e-12);
    }

    #[test]
    fn cmi_averages_slices() {
        // Z = X⊕Y with all bits fair: I(X;Y) = 0, but I(X;Y|Z) = 1.
        let given_z0 = Joint2::new(vec![vec![0.5, 0.0], vec![0.0, 0.5]]).unwrap();
        let given_z1 = Joint2::new(vec![vec![0.0, 0.5], vec![0.5, 0.0]]).unwrap();
        let cmi = conditional_mutual_information(&[(0.5, given_z0), (0.5, given_z1)]);
        assert!((cmi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_validation() {
        assert!(Joint2::new(vec![]).is_err());
        assert!(Joint2::new(vec![vec![0.5], vec![0.4]]).is_err());
        assert!(Joint2::new(vec![vec![0.5, -0.1], vec![0.3, 0.3]]).is_err());
    }

    #[test]
    fn data_processing_inequality_spot_check() {
        // Processing Y cannot increase information about X: merge two Y
        // outcomes and verify MI does not go up.
        let j = Joint2::new(vec![vec![0.1, 0.15, 0.25], vec![0.2, 0.25, 0.05]]).unwrap();
        let merged = Joint2::new(vec![vec![0.25, 0.25], vec![0.45, 0.05]]).unwrap();
        assert!(merged.mutual_information() <= j.mutual_information() + 1e-12);
    }
}
