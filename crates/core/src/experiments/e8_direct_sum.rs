//! **E8 — Lemma 1 / Theorem 4**: direct sum by brute-force enumeration.
//!
//! Verifies, with no additivity assumption, that the information cost of the
//! n-fold coordinate-wise protocol equals `n ×` the single-copy cost — for
//! both the unconditional `IC` on product distributions (Theorem 4's
//! equality) and the conditional `CIC` under the n-fold hard distribution
//! (the equality case of Lemma 1). Everything is full joint enumeration
//! over `(D, X, Π)`, exact to float precision.

use bci_lowerbound::cic::cic_hard;
use bci_lowerbound::direct_sum::{disj_cic_exact, nfold_cic_bruteforce, nfold_ic_bruteforce};
use bci_lowerbound::hard_dist::HardDist;
use bci_protocols::and_trees::{noisy_sequential_and, sequential_and};

use super::registry::{Experiment, LabeledTable, Point, PointResult};
use crate::table::{f, Table};

/// One verification row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Human-readable protocol name.
    pub protocol: String,
    /// Which quantity: "IC (product μ)" or "CIC (hard μ)".
    pub quantity: &'static str,
    /// Copies `n`.
    pub n: usize,
    /// The brute-forced n-fold value.
    pub nfold: f64,
    /// `n ×` the exact single-copy value.
    pub n_times_single: f64,
}

impl Row {
    /// Relative additivity error.
    pub fn rel_error(&self) -> f64 {
        (self.nfold - self.n_times_single).abs() / self.n_times_single.max(1e-12)
    }
}

/// One independent verification case of the fixed E8 suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Theorem 4 equality: `IC` of n-fold sequential `AND_k` on product μ.
    SeqIc {
        /// Players per copy.
        k: usize,
        /// Copies.
        n: usize,
    },
    /// Theorem 4 equality on the noisy `AND_2` (flip 0.15) witness.
    NoisyIc {
        /// Copies.
        n: usize,
    },
    /// Lemma 1 equality: `CIC` of n-fold sequential `AND_k` under hard μ.
    SeqCic {
        /// Players per copy.
        k: usize,
        /// Copies.
        n: usize,
    },
    /// The same equality on the full `DISJ_{n,k}` tree over set-valued
    /// inputs (general-alphabet machinery; an entirely separate code path
    /// from the joint enumeration).
    Disj {
        /// Coordinates (copies).
        n: usize,
        /// Players.
        k: usize,
    },
}

impl Case {
    /// Human-readable case description (also the sweep-point label).
    pub fn label(&self) -> String {
        match *self {
            Case::SeqIc { k, n } => format!("IC(product mu), sequential AND_{k}, n={n}"),
            Case::NoisyIc { n } => format!("IC(product mu), noisy AND_2, n={n}"),
            Case::SeqCic { k, n } => format!("CIC(hard mu), sequential AND_{k}, n={n}"),
            Case::Disj { n, k } => format!("CIC(hard mu^n), DISJ_{{n={n},k={k}}}"),
        }
    }
}

/// The verification cases, in table order.
pub fn default_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for n in [1usize, 2, 3, 4] {
        cases.push(Case::SeqIc { k: 3, n });
    }
    for n in [2usize, 3] {
        cases.push(Case::NoisyIc { n });
    }
    for n in [1usize, 2, 3] {
        cases.push(Case::SeqCic { k: 3, n });
    }
    for (n, k) in [(2usize, 3usize), (3, 3), (2, 4)] {
        cases.push(Case::Disj { n, k });
    }
    cases
}

/// Runs one verification case (deterministic; exact to float precision).
pub fn run_case(&case: &Case) -> Row {
    match case {
        Case::SeqIc { k, n } => {
            let tree = sequential_and(k);
            let priors = vec![1.0 - 1.0 / k as f64; k];
            Row {
                protocol: format!("sequential AND_{k}"),
                quantity: "IC (product mu)",
                n,
                nfold: nfold_ic_bruteforce(&tree, &priors, n),
                n_times_single: n as f64 * tree.information_cost_product(&priors),
            }
        }
        Case::NoisyIc { n } => {
            let noisy = noisy_sequential_and(2, 0.15);
            let priors = vec![0.75; 2];
            Row {
                protocol: "noisy AND_2 (eps=0.15)".to_owned(),
                quantity: "IC (product mu)",
                n,
                nfold: nfold_ic_bruteforce(&noisy, &priors, n),
                n_times_single: n as f64 * noisy.information_cost_product(&priors),
            }
        }
        Case::SeqCic { k, n } => {
            let tree = sequential_and(k);
            let mu = HardDist::new(k);
            Row {
                protocol: format!("sequential AND_{k}"),
                quantity: "CIC (hard mu)",
                n,
                nfold: nfold_cic_bruteforce(&tree, &mu, n),
                n_times_single: n as f64 * cic_hard(&tree, &mu),
            }
        }
        Case::Disj { n, k } => Row {
            protocol: format!("coordinate-wise DISJ_{{n={n},k={k}}}"),
            quantity: "CIC (hard mu^n)",
            n,
            nfold: disj_cic_exact(n, k),
            n_times_single: n as f64 * cic_hard(&sequential_and(k), &HardDist::new(k)),
        },
    }
}

/// Runs the full verification suite (thin wrapper over [`run_case`]).
pub fn run() -> Vec<Row> {
    default_cases().iter().map(run_case).collect()
}

/// Builds the E8 table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new([
        "protocol",
        "quantity",
        "n",
        "n-fold (brute force)",
        "n x single",
        "rel. error",
    ]);
    for r in rows {
        t.row([
            r.protocol.clone(),
            r.quantity.to_owned(),
            r.n.to_string(),
            f(r.nfold, 8),
            f(r.n_times_single, 8),
            format!("{:.1e}", r.rel_error()),
        ]);
    }
    t
}

/// Renders the E8 table as text.
pub fn render(rows: &[Row]) -> String {
    table(rows).render()
}

/// E8 as a registry [`Experiment`].
pub struct E8;

impl Experiment for E8 {
    fn id(&self) -> &'static str {
        "e8"
    }

    fn title(&self) -> &'static str {
        "E8 — Lemma 1 / Theorem 4: information is additive across copies"
    }

    fn notes(&self) -> Vec<String> {
        vec!["(full joint enumeration; no additivity assumption)".into()]
    }

    fn grid(&self) -> Vec<Point> {
        default_cases()
            .iter()
            .enumerate()
            .map(|(i, case)| Point::new(i, case.label()))
            .collect()
    }

    fn run_point(&self, point: &Point, _seed: u64) -> PointResult {
        PointResult::new(run_case(&default_cases()[point.index()]))
    }

    fn tables(&self, results: &[PointResult]) -> Vec<LabeledTable> {
        let rows: Vec<Row> = results
            .iter()
            .map(|r| r.downcast::<Row>().clone())
            .collect();
        vec![(String::new(), table(&rows))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additivity_holds_to_float_precision() {
        for r in run() {
            assert!(
                r.rel_error() < 1e-9,
                "{} {} n={}: {} vs {}",
                r.protocol,
                r.quantity,
                r.n,
                r.nfold,
                r.n_times_single
            );
        }
    }
}
