//! Protocol trees over arbitrary finite input alphabets.
//!
//! [`ProtocolTree`](crate::tree::ProtocolTree) fixes one-bit inputs — enough
//! for the paper's `AND_k` analysis. This generalization lets player `i`
//! hold a symbol from an alphabet of size `aᵢ`, so protocols whose inputs
//! are *sets* (e.g. `DISJ_{n,k}` with alphabet `2ⁿ` for small `n`) get the
//! same exact machinery: the Lemma 3 decomposition
//! `Pr[Π = ℓ | X] = ∏ᵢ q_{i,Xᵢ}^ℓ` with `q` now indexed by symbol, product
//! posteriors, and factorized exact information cost in
//! `O(#leaves · Σᵢ aᵢ)`.

use bci_encoding::bitio::BitVec;
use bci_info::dist::Dist;
use bci_info::num::{clamp_nonneg, xlog2_ratio};

use crate::PlayerId;

/// Index of a node inside a [`GeneralTree`].
pub type NodeId = usize;

/// An outgoing edge: a board message with per-symbol probabilities.
#[derive(Debug, Clone)]
pub struct GeneralEdge {
    /// The bits written for this branch.
    pub label: BitVec,
    /// `prob[s] = Pr[this message | speaker's symbol = s]`.
    pub prob: Vec<f64>,
    /// Destination node.
    pub child: NodeId,
}

/// A node of the generalized tree.
#[derive(Debug, Clone)]
pub enum GeneralNode {
    /// Halt with an output.
    Leaf {
        /// The output value.
        output: usize,
    },
    /// A speaking turn.
    Internal {
        /// The speaking player.
        speaker: PlayerId,
        /// The message alternatives.
        edges: Vec<GeneralEdge>,
    },
}

/// Precomputed leaf data: output, path length, and per-player per-symbol
/// `q` factors.
#[derive(Debug, Clone)]
pub struct GeneralLeaf {
    /// The tree node of this leaf.
    pub node: NodeId,
    /// Output at this leaf.
    pub output: usize,
    /// Label bits on the root-to-leaf path.
    pub path_bits: usize,
    /// `q[i][s]`: product of player `i`'s branch probabilities on the path
    /// when holding symbol `s`.
    q: Vec<Vec<f64>>,
}

impl GeneralLeaf {
    /// The Lemma 3 factor `q_{i,s}`.
    pub fn q(&self, player: PlayerId, symbol: usize) -> f64 {
        self.q[player][symbol]
    }

    /// `Pr[Π(x) = ℓ]` for a concrete symbol vector.
    pub fn prob_given_input(&self, x: &[usize]) -> f64 {
        debug_assert_eq!(x.len(), self.q.len());
        x.iter().zip(&self.q).map(|(&s, q)| q[s]).product()
    }

    /// `Pr[Π = ℓ]` under independent per-player symbol distributions.
    pub fn prob_under_product(&self, priors: &[Dist]) -> f64 {
        debug_assert_eq!(priors.len(), self.q.len());
        priors
            .iter()
            .zip(&self.q)
            .map(|(d, q)| d.probs().iter().zip(q).map(|(&p, &qq)| p * qq).sum::<f64>())
            .product()
    }
}

/// Builder for [`GeneralTree`]; mirrors
/// [`TreeBuilder`](crate::tree::TreeBuilder).
#[derive(Debug)]
pub struct GeneralTreeBuilder {
    alphabets: Vec<usize>,
    nodes: Vec<GeneralNode>,
}

impl GeneralTreeBuilder {
    /// Starts a tree where player `i`'s input ranges over
    /// `{0, …, alphabets[i]−1}`.
    ///
    /// # Panics
    ///
    /// Panics if there are no players or an alphabet is empty.
    pub fn new(alphabets: Vec<usize>) -> Self {
        assert!(!alphabets.is_empty(), "need at least one player");
        assert!(
            alphabets.iter().all(|&a| a >= 1),
            "alphabets must be nonempty"
        );
        GeneralTreeBuilder {
            alphabets,
            nodes: Vec::new(),
        }
    }

    /// Adds a leaf.
    pub fn leaf(&mut self, output: usize) -> NodeId {
        self.nodes.push(GeneralNode::Leaf { output });
        self.nodes.len() - 1
    }

    /// Adds an internal node; `edges` are `(label, per-symbol probs, child)`.
    ///
    /// # Panics
    ///
    /// Panics on invalid speaker, wrong probability-vector lengths,
    /// unnormalized columns, unknown children, or non-prefix-free labels.
    pub fn internal(
        &mut self,
        speaker: PlayerId,
        edges: Vec<(BitVec, Vec<f64>, NodeId)>,
    ) -> NodeId {
        assert!(
            speaker < self.alphabets.len(),
            "speaker {speaker} out of range"
        );
        assert!(!edges.is_empty(), "internal node needs an edge");
        let a = self.alphabets[speaker];
        for (label, prob, child) in &edges {
            assert_eq!(prob.len(), a, "probabilities must cover the alphabet");
            assert!(
                prob.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)),
                "probability outside [0,1]"
            );
            assert!(*child < self.nodes.len(), "unknown child {child}");
            assert!(
                !(label.is_empty() && edges.len() > 1),
                "empty label on a branching node"
            );
        }
        for s in 0..a {
            let total: f64 = edges.iter().map(|(_, p, _)| p[s]).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "symbol {s}: edge probabilities sum to {total}"
            );
        }
        for (i, (x, _, _)) in edges.iter().enumerate() {
            for (y, _, _) in edges.iter().skip(i + 1) {
                let min = x.len().min(y.len());
                assert!(
                    !(0..min).all(|j| x.get(j) == y.get(j)),
                    "labels {x} and {y} are not prefix-free"
                );
            }
        }
        self.nodes.push(GeneralNode::Internal {
            speaker,
            edges: edges
                .into_iter()
                .map(|(label, prob, child)| GeneralEdge { label, prob, child })
                .collect(),
        });
        self.nodes.len() - 1
    }

    /// Finalizes the tree rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is unknown or the structure is not a tree.
    pub fn finish(self, root: NodeId) -> GeneralTree {
        assert!(root < self.nodes.len(), "unknown root");
        let mut visited = vec![false; self.nodes.len()];
        let mut leaves = Vec::new();
        let init_q: Vec<Vec<f64>> = self.alphabets.iter().map(|&a| vec![1.0; a]).collect();
        let mut stack = vec![(root, 0usize, init_q)];
        while let Some((id, path_bits, q)) = stack.pop() {
            assert!(!visited[id], "node {id} reachable twice");
            visited[id] = true;
            match &self.nodes[id] {
                GeneralNode::Leaf { output } => leaves.push(GeneralLeaf {
                    node: id,
                    output: *output,
                    path_bits,
                    q,
                }),
                GeneralNode::Internal { speaker, edges } => {
                    for e in edges {
                        let mut q2 = q.clone();
                        for (qs, &ps) in q2[*speaker].iter_mut().zip(&e.prob) {
                            *qs *= ps;
                        }
                        stack.push((e.child, path_bits + e.label.len(), q2));
                    }
                }
            }
        }
        GeneralTree {
            alphabets: self.alphabets,
            nodes: self.nodes,
            root,
            leaves,
        }
    }
}

/// A finalized generalized protocol tree.
#[derive(Debug, Clone)]
pub struct GeneralTree {
    alphabets: Vec<usize>,
    nodes: Vec<GeneralNode>,
    root: NodeId,
    leaves: Vec<GeneralLeaf>,
}

impl GeneralTree {
    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.alphabets.len()
    }

    /// Per-player alphabet sizes.
    pub fn alphabets(&self) -> &[usize] {
        &self.alphabets
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Read access to a node.
    pub fn node(&self, id: NodeId) -> &GeneralNode {
        &self.nodes[id]
    }

    /// The leaves with precomputed `q` factors.
    pub fn leaves(&self) -> &[GeneralLeaf] {
        &self.leaves
    }

    /// Worst-case communication in bits.
    pub fn worst_case_bits(&self) -> usize {
        self.leaves.iter().map(|l| l.path_bits).max().unwrap_or(0)
    }

    /// The exact transcript distribution on a symbol vector.
    pub fn transcript_dist_given_input(&self, x: &[usize]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_players(), "input length mismatch");
        for (i, (&s, &a)) in x.iter().zip(&self.alphabets).enumerate() {
            assert!(s < a, "symbol {s} outside player {i}'s alphabet");
        }
        self.leaves.iter().map(|l| l.prob_given_input(x)).collect()
    }

    /// Exact `I(Π; X)` under independent per-player symbol distributions —
    /// the general-alphabet form of the factorized computation.
    ///
    /// # Panics
    ///
    /// Panics if a prior's support does not match its player's alphabet.
    pub fn information_cost_product(&self, priors: &[Dist]) -> f64 {
        assert_eq!(priors.len(), self.num_players(), "prior count mismatch");
        for (d, &a) in priors.iter().zip(&self.alphabets) {
            assert_eq!(d.len(), a, "prior support does not match alphabet");
        }
        let mut total = 0.0;
        for leaf in &self.leaves {
            let pl = leaf.prob_under_product(priors);
            if pl <= 0.0 {
                continue;
            }
            let mut div = 0.0;
            for (i, prior) in priors.iter().enumerate() {
                // Posterior over player i's symbol given this leaf.
                let mass: f64 = prior
                    .probs()
                    .iter()
                    .zip(&leaf.q[i])
                    .map(|(&p, &q)| p * q)
                    .sum();
                debug_assert!(mass > 0.0);
                for (s, &p) in prior.probs().iter().enumerate() {
                    let post = p * leaf.q[i][s] / mass;
                    div += xlog2_ratio(post, p);
                }
            }
            total += pl * div;
        }
        clamp_nonneg(total, 1e-9)
    }

    /// Samples one execution on symbol vector `x`: returns the leaf index
    /// and the transcript bits.
    pub fn simulate<R: rand::Rng + ?Sized>(&self, x: &[usize], rng: &mut R) -> (usize, BitVec) {
        assert_eq!(x.len(), self.num_players(), "input length mismatch");
        let mut bits = BitVec::new();
        let mut id = self.root;
        loop {
            match &self.nodes[id] {
                GeneralNode::Leaf { .. } => {
                    let idx = self
                        .leaves
                        .iter()
                        .position(|l| l.node == id)
                        .expect("leaf registered");
                    return (idx, bits);
                }
                GeneralNode::Internal { speaker, edges } => {
                    let s = x[*speaker];
                    let d = Dist::from_weights(edges.iter().map(|e| e.prob[s]).collect())
                        .expect("edge probabilities");
                    let choice = d.sample(rng);
                    bits.extend_from(&edges[choice].label);
                    id = edges[choice].child;
                }
            }
        }
    }

    /// Exact `I(Π; X)` by enumerating the full joint input space; for
    /// cross-validation only.
    ///
    /// # Panics
    ///
    /// Panics if `∏ alphabets > 4096`.
    pub fn information_cost_bruteforce(&self, priors: &[Dist]) -> f64 {
        let space: usize = self.alphabets.iter().product();
        assert!(space <= 4096, "joint input space {space} too large");
        let mut rows = Vec::with_capacity(space);
        for idx in 0..space {
            let mut rest = idx;
            let x: Vec<usize> = self
                .alphabets
                .iter()
                .map(|&a| {
                    let s = rest % a;
                    rest /= a;
                    s
                })
                .collect();
            let px: f64 = x.iter().zip(priors).map(|(&s, d)| d.prob(s)).product();
            rows.push(
                self.transcript_dist_given_input(&x)
                    .into_iter()
                    .map(|p| px * p)
                    .collect(),
            );
        }
        bci_info::joint::Joint2::new(rows)
            .expect("joint distribution")
            .mutual_information()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// Converts a binary [`ProtocolTree`](crate::tree::ProtocolTree) into the
    /// generalized form (alphabet 2 for every player) — used to cross-validate
    /// the two implementations.
    fn from_binary(tree: &crate::tree::ProtocolTree) -> GeneralTree {
        use crate::tree::Node;
        let k = tree.num_players();
        let mut b = GeneralTreeBuilder::new(vec![2; k]);
        // Rebuild bottom-up with a node-id map via DFS post-order.
        fn convert(
            tree: &crate::tree::ProtocolTree,
            id: usize,
            b: &mut GeneralTreeBuilder,
        ) -> NodeId {
            match tree.node(id) {
                Node::Leaf { output } => b.leaf(*output),
                Node::Internal { speaker, edges } => {
                    let converted: Vec<(BitVec, Vec<f64>, NodeId)> = edges
                        .iter()
                        .map(|e| {
                            let child = convert(tree, e.child, b);
                            (e.label.clone(), vec![e.prob[0], e.prob[1]], child)
                        })
                        .collect();
                    b.internal(*speaker, converted)
                }
            }
        }
        let root = convert(tree, tree.root(), &mut b);
        b.finish(root)
    }

    fn bit(v: bool) -> BitVec {
        BitVec::from_bools(&[v])
    }

    /// A 1-player protocol announcing a trit in ⌈log₂3⌉ = 2 bits.
    fn trit_announce() -> GeneralTree {
        let mut b = GeneralTreeBuilder::new(vec![3]);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let l2 = b.leaf(2);
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false, false]), vec![1.0, 0.0, 0.0], l0),
                (BitVec::from_bools(&[false, true]), vec![0.0, 1.0, 0.0], l1),
                (bit(true), vec![0.0, 0.0, 1.0], l2),
            ],
        );
        b.finish(root)
    }

    #[test]
    fn deterministic_announcement_reveals_the_entropy() {
        let t = trit_announce();
        let prior = Dist::new(vec![0.5, 0.25, 0.25]).unwrap();
        let ic = t.information_cost_product(std::slice::from_ref(&prior));
        assert!((ic - prior.entropy()).abs() < 1e-12);
        let bf = t.information_cost_bruteforce(&[prior]);
        assert!((ic - bf).abs() < 1e-12);
    }

    #[test]
    fn factorized_matches_bruteforce_on_randomized_general_trees() {
        // 2 players, alphabets (3, 2), randomized messages.
        let mut b = GeneralTreeBuilder::new(vec![3, 2]);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let p1 = b.internal(
            1,
            vec![
                (bit(false), vec![0.7, 0.4], l0),
                (bit(true), vec![0.3, 0.6], l1),
            ],
        );
        let l2 = b.leaf(0);
        let root = b.internal(
            0,
            vec![
                (bit(false), vec![0.9, 0.5, 0.2], l2),
                (bit(true), vec![0.1, 0.5, 0.8], p1),
            ],
        );
        let t = b.finish(root);
        let priors = [
            Dist::new(vec![0.2, 0.5, 0.3]).unwrap(),
            Dist::new(vec![0.6, 0.4]).unwrap(),
        ];
        let fast = t.information_cost_product(&priors);
        let slow = t.information_cost_bruteforce(&priors);
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
        assert!(fast > 0.0);
    }

    #[test]
    fn binary_conversion_preserves_information_cost() {
        // Build a binary tree, convert, compare costs.
        let mut b = TreeBuilder::new(2);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let p1 = b.internal(
            1,
            vec![(bit(false), [0.8, 0.25], l0), (bit(true), [0.2, 0.75], l1)],
        );
        let l2 = b.leaf(0);
        let root = b.internal(
            0,
            vec![(bit(false), [0.6, 0.1], l2), (bit(true), [0.4, 0.9], p1)],
        );
        let binary = b.finish(root);
        let general = from_binary(&binary);
        for (p0, p1) in [(0.5, 0.5), (0.8, 0.3)] {
            let a = binary.information_cost_product(&[p0, p1]);
            let g = general.information_cost_product(&[
                Dist::bernoulli(p0).unwrap(),
                Dist::bernoulli(p1).unwrap(),
            ]);
            assert!((a - g).abs() < 1e-12, "({p0},{p1}): {a} vs {g}");
        }
        assert_eq!(binary.worst_case_bits(), general.worst_case_bits());
    }

    #[test]
    fn transcript_distributions_normalize() {
        let t = trit_announce();
        for s in 0..3 {
            let d = t.transcript_dist_given_input(&[s]);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn simulate_matches_exact_distribution() {
        use rand::SeedableRng;
        let t = trit_announce();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        for s in 0..3usize {
            let exact = t.transcript_dist_given_input(&[s]);
            let mut counts = vec![0usize; t.leaves().len()];
            for _ in 0..2000 {
                let (leaf, bits) = t.simulate(&[s], &mut rng);
                counts[leaf] += 1;
                assert_eq!(bits.len(), t.leaves()[leaf].path_bits);
            }
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64 / 2000.0 - exact[i]).abs() < 0.03,
                    "symbol {s} leaf {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside player")]
    fn rejects_out_of_alphabet_symbols() {
        trit_announce().transcript_dist_given_input(&[3]);
    }

    #[test]
    #[should_panic(expected = "cover the alphabet")]
    fn builder_checks_probability_vector_length() {
        let mut b = GeneralTreeBuilder::new(vec![3]);
        let l = b.leaf(0);
        b.internal(0, vec![(bit(true), vec![1.0, 1.0], l)]);
    }
}
