//! Protocol trees over one-bit inputs, with exact transcript-distribution
//! analysis.
//!
//! A [`ProtocolTree`] represents a randomized broadcast protocol on `k`
//! players whose private inputs are single bits. Each internal node names a
//! speaker and, for each value of the speaker's input bit, a probability
//! distribution over outgoing edges; each edge carries a prefix-free bit
//! label (the message written on the board); each leaf carries the protocol's
//! output.
//!
//! This is exactly the object the paper's Lemma 3 applies to: for every leaf
//! (= transcript) `ℓ`, the probability of reaching `ℓ` on input
//! `X = (X₁, …, X_k)` factors as `Pr[Π(X) = ℓ] = ∏ᵢ q_{i,Xᵢ}^ℓ`, where
//! `q_{i,b}^ℓ` multiplies the branch probabilities of player `i`'s moves
//! along the path. The tree computes all `q` values on first use (lazily:
//! finalizing a tree is linear in its node count, and consumers that only
//! walk the tree — sampling, sparse transcript supports, leaf counting —
//! never pay the `O(#leaves · k)` decomposition), which makes the following
//! *exact* (no sampling):
//!
//! * the transcript distribution under any product input distribution,
//! * per-player posteriors given a transcript (the paper's Lemma 4),
//! * information cost `I(Π; X)` under product priors — using the fact that
//!   the posterior on `X` given a transcript is itself a product
//!   distribution, so the KL divergence splits into per-player terms,
//! * worst-case and expected communication, and worst-case error.
//!
//! # Example
//!
//! ```
//! use bci_blackboard::tree::TreeBuilder;
//! use bci_encoding::bitio::BitVec;
//!
//! // One player announces its bit (deterministically).
//! let mut b = TreeBuilder::new(1);
//! let leaf0 = b.leaf(0);
//! let leaf1 = b.leaf(1);
//! let root = b.internal(
//!     0,
//!     vec![
//!         (BitVec::from_bools(&[false]), [1.0, 0.0], leaf0),
//!         (BitVec::from_bools(&[true]), [0.0, 1.0], leaf1),
//!     ],
//! );
//! let tree = b.finish(root);
//! // A uniform input bit is fully revealed: I(Π; X) = 1.
//! assert!((tree.information_cost_product(&[0.5]) - 1.0).abs() < 1e-12);
//! ```

use std::collections::HashMap;
use std::sync::OnceLock;

use bci_encoding::bitio::BitVec;
use bci_info::num::{clamp_nonneg, xlog2_ratio};
use rand::Rng;

use crate::PlayerId;

/// Index of a node inside a [`ProtocolTree`].
pub type NodeId = usize;

/// Index into [`ProtocolTree::leaves`].
pub type LeafId = usize;

/// An outgoing edge of an internal node.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The bits the speaker writes on the board for this branch.
    pub label: BitVec,
    /// Probability of taking this branch given the speaker's input bit:
    /// `prob[b] = Pr[message = label | input = b]`.
    pub prob: [f64; 2],
    /// The node this branch leads to.
    pub child: NodeId,
}

/// A node of the tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A halting state with the protocol's output.
    Leaf {
        /// The output value announced at this leaf.
        output: usize,
    },
    /// A speaking turn.
    Internal {
        /// Which player speaks at this node.
        speaker: PlayerId,
        /// The possible messages.
        edges: Vec<Edge>,
    },
}

/// Precomputed per-leaf data: output, path length, and the Lemma-3
/// `q`-decomposition.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// The tree node of this leaf.
    pub node: NodeId,
    /// Output value at this leaf.
    pub output: usize,
    /// Total label bits along the root-to-leaf path (communication cost of
    /// this transcript).
    pub path_bits: usize,
    /// `q[i][b]` = product of player `i`'s branch probabilities along the
    /// path when its input is `b`. Players who never speak on the path have
    /// `q[i][b] = 1`.
    q: Vec<[f64; 2]>,
}

impl Leaf {
    /// The Lemma-3 factor `q_{i,b}` for this leaf.
    pub fn q(&self, player: PlayerId, bit: bool) -> f64 {
        self.q[player][usize::from(bit)]
    }

    /// `Pr[Π(x) = ℓ] = ∏ᵢ q_{i,xᵢ}` for a concrete input.
    pub fn prob_given_input(&self, x: &[bool]) -> f64 {
        debug_assert_eq!(x.len(), self.q.len());
        x.iter()
            .zip(&self.q)
            .map(|(&b, q)| q[usize::from(b)])
            .product()
    }

    /// `Pr[Π = ℓ]` under independent priors, where `priors[i] = Pr[Xᵢ = 1]`.
    ///
    /// This is the factorized form `∏ᵢ ((1−pᵢ)·q_{i,0} + pᵢ·q_{i,1})` that
    /// lets information cost be computed in `O(#leaves · k)`.
    pub fn prob_under_product(&self, priors: &[f64]) -> f64 {
        debug_assert_eq!(priors.len(), self.q.len());
        priors
            .iter()
            .zip(&self.q)
            .map(|(&p, q)| (1.0 - p) * q[0] + p * q[1])
            .product()
    }

    /// Posterior `Pr[Xᵢ = 1 | Π = ℓ]` under prior `Pr[Xᵢ = 1] = prior_one`
    /// (Bayes' rule, the paper's Lemma 4). Returns `None` when the leaf is
    /// unreachable under this prior for player `i`.
    pub fn posterior_one(&self, player: PlayerId, prior_one: f64) -> Option<f64> {
        let q = &self.q[player];
        let mass = (1.0 - prior_one) * q[0] + prior_one * q[1];
        if mass <= 0.0 {
            return None;
        }
        Some(prior_one * q[1] / mass)
    }
}

/// Incrementally builds a [`ProtocolTree`]. Create leaves and internal nodes
/// bottom-up, then call [`finish`](TreeBuilder::finish) with the root.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    k: usize,
    nodes: Vec<Node>,
}

impl TreeBuilder {
    /// Starts building a tree for `k` players.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a protocol needs at least one player");
        TreeBuilder {
            k,
            nodes: Vec::new(),
        }
    }

    /// Adds a leaf with the given output; returns its id.
    pub fn leaf(&mut self, output: usize) -> NodeId {
        self.nodes.push(Node::Leaf { output });
        self.nodes.len() - 1
    }

    /// Adds an internal node; returns its id.
    ///
    /// `edges` lists `(label, [Pr | input=0, Pr | input=1], child)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `speaker ≥ k`, `edges` is empty, a probability is outside
    /// `[0,1]`, the probabilities for either input bit do not sum to 1
    /// (within `1e-9`), a child id is unknown, or the labels are not
    /// prefix-free (which would make the board ambiguous).
    pub fn internal(
        &mut self,
        speaker: PlayerId,
        edges: Vec<(BitVec, [f64; 2], NodeId)>,
    ) -> NodeId {
        assert!(speaker < self.k, "speaker {speaker} out of range");
        assert!(!edges.is_empty(), "internal node needs at least one edge");
        for b in 0..2 {
            let sum: f64 = edges.iter().map(|(_, p, _)| p[b]).sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "edge probabilities for input bit {b} sum to {sum}"
            );
        }
        for (label, prob, child) in &edges {
            assert!(
                prob.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)),
                "edge probability outside [0,1]: {prob:?}"
            );
            assert!(*child < self.nodes.len(), "unknown child node {child}");
            assert!(
                !(label.is_empty() && edges.len() > 1),
                "empty label on a branching node"
            );
        }
        // Prefix-freeness: no label may be a prefix of another.
        for (i, (a, _, _)) in edges.iter().enumerate() {
            for (b, _, _) in edges.iter().skip(i + 1) {
                let min = a.len().min(b.len());
                let is_prefix = (0..min).all(|j| a.get(j) == b.get(j));
                assert!(!is_prefix, "labels {a} and {b} are not prefix-free");
            }
        }
        self.nodes.push(Node::Internal {
            speaker,
            edges: edges
                .into_iter()
                .map(|(label, prob, child)| Edge { label, prob, child })
                .collect(),
        });
        self.nodes.len() - 1
    }

    /// Finalizes the tree rooted at `root`, precomputing all leaf data.
    ///
    /// # Panics
    ///
    /// Panics if `root` is unknown or if the structure rooted there is not a
    /// tree (a node reachable twice).
    pub fn finish(self, root: NodeId) -> ProtocolTree {
        assert!(root < self.nodes.len(), "unknown root {root}");
        let mut visited = vec![false; self.nodes.len()];
        let mut metas = Vec::new();
        // Iterative DFS carrying (node, path_bits) — cheap identity data
        // only. The Lemma-3 `q`-decomposition clones a k-sized vector per
        // edge, which is `O(#leaves · k)` work that pure tree-walkers
        // (sampling, sparse supports, Huffman over leaf counts) never
        // need, so it is deferred to the first [`ProtocolTree::leaves`]
        // call. The iterative form avoids recursion limits on deep trees
        // (e.g. sequential AND with k in the thousands).
        let mut stack = vec![(root, 0usize)];
        while let Some((id, path_bits)) = stack.pop() {
            assert!(!visited[id], "node {id} reachable twice: not a tree");
            visited[id] = true;
            match &self.nodes[id] {
                Node::Leaf { .. } => metas.push(LeafMeta {
                    node: id,
                    path_bits,
                }),
                Node::Internal { edges, .. } => {
                    for e in edges {
                        stack.push((e.child, path_bits + e.label.len()));
                    }
                }
            }
        }
        let mut leaf_of_node = vec![None; self.nodes.len()];
        for (idx, meta) in metas.iter().enumerate() {
            leaf_of_node[meta.node] = Some(idx);
        }
        ProtocolTree {
            k: self.k,
            nodes: self.nodes,
            root,
            metas,
            leaf_of_node,
            leaves: OnceLock::new(),
        }
    }
}

/// Per-leaf identity data computed eagerly at [`TreeBuilder::finish`];
/// the output and `q`-decomposition live in [`Leaf`], materialized
/// lazily.
#[derive(Debug, Clone)]
struct LeafMeta {
    node: NodeId,
    path_bits: usize,
}

/// A finalized protocol tree; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ProtocolTree {
    k: usize,
    nodes: Vec<Node>,
    root: NodeId,
    /// Eager per-leaf identity in DFS order.
    metas: Vec<LeafMeta>,
    /// Maps a leaf's `NodeId` to its index in DFS leaf order.
    leaf_of_node: Vec<Option<LeafId>>,
    /// The leaves with their Lemma-3 `q`-decompositions, materialized on
    /// first use (see [`ProtocolTree::leaves`]).
    leaves: OnceLock<Vec<Leaf>>,
}

impl ProtocolTree {
    /// Number of players `k`.
    pub fn num_players(&self) -> usize {
        self.k
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes (leaves included); node ids are `0..num_nodes()`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of leaves. Unlike `leaves().len()`, never materializes the
    /// `q`-decompositions.
    pub fn num_leaves(&self) -> usize {
        self.metas.len()
    }

    /// The leaves with their `q`-decompositions, materialized on first
    /// call.
    ///
    /// The materialization runs the same DFS in the same order, with the
    /// same multiplication order, as an eager build at `finish` time
    /// would — the `q` products are bit-identical whenever they are
    /// computed.
    pub fn leaves(&self) -> &[Leaf] {
        self.leaves.get_or_init(|| {
            let mut leaves = Vec::with_capacity(self.metas.len());
            let mut stack = vec![(self.root, 0usize, vec![[1.0f64; 2]; self.k])];
            while let Some((id, path_bits, q)) = stack.pop() {
                match &self.nodes[id] {
                    Node::Leaf { output } => leaves.push(Leaf {
                        node: id,
                        output: *output,
                        path_bits,
                        q,
                    }),
                    Node::Internal { speaker, edges } => {
                        for e in edges {
                            let mut q2 = q.clone();
                            q2[*speaker][0] *= e.prob[0];
                            q2[*speaker][1] *= e.prob[1];
                            stack.push((e.child, path_bits + e.label.len(), q2));
                        }
                    }
                }
            }
            debug_assert!(leaves
                .iter()
                .zip(&self.metas)
                .all(|(l, m)| l.node == m.node && l.path_bits == m.path_bits));
            leaves
        })
    }

    /// Worst-case communication: the longest root-to-leaf label path, in
    /// bits. This is `CC(Π)`.
    pub fn worst_case_bits(&self) -> usize {
        self.metas.iter().map(|m| m.path_bits).max().unwrap_or(0)
    }

    /// The exact transcript distribution (over leaf indices) on input `x`.
    ///
    /// This is the dense generic path: every leaf is evaluated through its
    /// Lemma-3 `q`-product, at cost `O(#leaves · k)`. When only the
    /// *reachable* leaves are needed — in particular on deterministic trees,
    /// where each input reaches exactly one leaf — use the sparse
    /// [`transcript_support_given_input`](Self::transcript_support_given_input)
    /// fast lane instead; the two agree exactly (cross-checked in tests).
    pub fn transcript_dist_given_input(&self, x: &[bool]) -> Vec<f64> {
        assert_eq!(x.len(), self.k, "input length mismatch");
        self.leaves()
            .iter()
            .map(|l| l.prob_given_input(x))
            .collect()
    }

    /// The support of the transcript distribution on input `x`: the leaves
    /// reachable with positive probability, as `(leaf, Pr[Π(x) = leaf])`
    /// pairs in DFS order.
    ///
    /// Walks the tree from the root and prunes every zero-probability
    /// branch, so the cost is `O(reachable subtree)` rather than
    /// `O(#leaves · k)`. On a *deterministic* tree (see
    /// [`is_deterministic`](Self::is_deterministic)) exactly one branch
    /// survives at every node, so this is a single `O(depth)` root-to-leaf
    /// walk — the fast lane that makes E13's exact transcript analysis of
    /// `sequential_and(k)` quadratic-in-`k` overall instead of cubic.
    ///
    /// The probabilities are products of the same edge probabilities the
    /// dense path multiplies (grouped per player there, along the path
    /// here); on deterministic trees both are exactly `1.0`, and tests
    /// cross-check the two representations on randomized trees.
    pub fn transcript_support_given_input(&self, x: &[bool]) -> Vec<(LeafId, f64)> {
        assert_eq!(x.len(), self.k, "input length mismatch");
        let mut out = Vec::new();
        let mut stack = vec![(self.root, 1.0f64)];
        while let Some((id, p)) = stack.pop() {
            match &self.nodes[id] {
                Node::Leaf { .. } => {
                    let leaf = self.leaf_of_node[id].expect("leaf node is registered");
                    out.push((leaf, p));
                }
                Node::Internal { speaker, edges } => {
                    let b = usize::from(x[*speaker]);
                    for e in edges {
                        if e.prob[b] > 0.0 {
                            stack.push((e.child, p * e.prob[b]));
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether every move is determined by the speaker's input bit (all edge
    /// probabilities are 0 or 1). For such trees each input reaches exactly
    /// one leaf, so
    /// [`transcript_support_given_input`](Self::transcript_support_given_input)
    /// returns a single `(leaf, 1.0)` pair in `O(depth)`.
    pub fn is_deterministic(&self) -> bool {
        self.nodes.iter().all(|n| match n {
            Node::Leaf { .. } => true,
            Node::Internal { edges, .. } => edges
                .iter()
                .all(|e| e.prob.iter().all(|&p| p == 0.0 || p == 1.0)),
        })
    }

    /// Exact external information cost `I(Π; X)` in bits, for independent
    /// player inputs with `priors[i] = Pr[Xᵢ = 1]`.
    ///
    /// Uses the Lemma-3 factorization: given a leaf, the posterior on `X` is
    /// a product distribution, so
    /// `I(Π; X) = Σ_ℓ Pr[ℓ] Σᵢ D(post_i ‖ prior_i)` with *equality* —
    /// computable in `O(#leaves · k)` instead of `O(2ᵏ)`. Validated against
    /// [`information_cost_bruteforce`](Self::information_cost_bruteforce) in
    /// the tests and the ablation bench.
    pub fn information_cost_product(&self, priors: &[f64]) -> f64 {
        self.check_priors(priors);
        let mut total = 0.0;
        for leaf in self.leaves() {
            let pl = leaf.prob_under_product(priors);
            if pl <= 0.0 {
                continue;
            }
            let mut div = 0.0;
            for (i, &p1) in priors.iter().enumerate() {
                let post1 = leaf
                    .posterior_one(i, p1)
                    .expect("leaf has positive probability");
                div += xlog2_ratio(post1, p1) + xlog2_ratio(1.0 - post1, 1.0 - p1);
            }
            total += pl * div;
        }
        clamp_nonneg(total, 1e-9)
    }

    /// Batched [`information_cost_product`](Self::information_cost_product):
    /// evaluates many prior slices against this tree in one pass, returning
    /// one cost per slice. **Bit-for-bit identical** to calling the dense
    /// method per slice (asserted by randomized cross-validation tests) but
    /// asymptotically cheaper: the dense path spends two `log2` calls per
    /// (slice, leaf, player) — `O(k³)` transcendentals for
    /// `sequential_and(k)` under the `cic_hard` slice family — while this
    /// path spends two per (slice, distinct prior, distinct `q`-pair).
    ///
    /// How the work is hoisted, and why every skipped operation is exact:
    ///
    /// 1. **Per-leaf structure → flat SoA, once per call.** Only *writers* —
    ///    players whose Lemma-3 pair `q_{i,·}` differs from the neutral
    ///    `(1,1)` — can contribute to a leaf's probability or divergence.
    ///    Writer `(player, q-pair)` entries are laid out contiguously per
    ///    leaf in player order, with distinct `(q₀,q₁)` pairs interned by bit
    ///    pattern.
    /// 2. **Per-slice tables.** Distinct prior values are deduplicated by
    ///    bit pattern and a `(mass, g)` table is filled per
    ///    (prior, q-pair) cell using the *exact dense-path expressions*
    ///    (`mass = (1−p)·q₀ + p·q₁`, `post₁ = p·q₁/mass`,
    ///    `g = xlog2_ratio(post₁,p) + xlog2_ratio(1−post₁,1−p)`), so each
    ///    cached f64 equals what the dense loop would recompute.
    /// 3. **Fused inner loop.** Per leaf, the probability product and the
    ///    divergence sum run over writer entries only, in player order —
    ///    the same multiply/add sequence as the dense loop minus the
    ///    non-writer steps. Skipping a non-writer's probability factor is
    ///    exact because `x × 1.0 = x` in IEEE 754, *provided* its mass
    ///    `(1−p)·1 + p·1` is exactly `1.0`; skipping its divergence term is
    ///    exact because that term is then exactly `+0.0` (see
    ///    [`xlog2_ratio`]'s guarantees), and a `+0.0` addend can only affect
    ///    the sign of a zero accumulator — a difference that cannot
    ///    propagate (`±0.0 + g = g` for `g ≠ 0`, and `x + ±0.0 = x` in the
    ///    final `total` fold, whose accumulator is never `-0.0`). Both
    ///    conditions are **asserted at runtime per distinct prior**.
    ///    Early-exiting the product at an exact `0.0` is also exact:
    ///    masses are finite and non-negative, so `0.0` absorbs.
    /// 4. **Shared prefixes.** In DFS order a leaf's writer list mostly
    ///    repeats the previous leaf's (for `sequential_and(k)`, all but the
    ///    last entry). The layout records the length of that shared prefix
    ///    per leaf, and the fold keeps the running `(pl, div)` after each
    ///    position of the last computed list. A leaf resumes at its shared
    ///    prefix and multiplies only its own suffix. This is exact: the
    ///    prefix holds the same `(player, q-pair)` cells in the same order,
    ///    so the stored values are the f64s the leaf would compute itself.
    ///    If the last computed list hit an exact `0.0` mass inside the
    ///    shared prefix, the leaf is dead without any work: its own fold
    ///    would stop at that same entry (point 3). A skipped leaf matches the
    ///    last computed list up to that entry, so the stored values stay
    ///    valid for the leaf after it.
    ///
    /// Cost: `O(#writer entries)` once per call for the layout, then per
    /// slice the table plus at most `O(#leaves + Σ(len − shared))` fold
    /// steps, where `len` is a leaf's writer count and `shared` its shared
    /// prefix. For `cic_hard` on `sequential_and(k)` that is `O(k)` per
    /// slice, instead of `O(k²)` when every leaf refolds its whole list.
    ///
    /// The check in fact holds for *every* f64 prior in `[0,1]` — `1−p`
    /// errs by at most a half-ulp (`2⁻⁵⁴`), so `(1−p)+p` ties back to
    /// exactly `1.0` under round-to-even (pinned by a sweep test) — so the
    /// assertion guards against future refactors of the posterior formulas
    /// rather than against any input.
    ///
    /// # Panics
    ///
    /// Panics if a slice has the wrong length or a prior outside `[0,1]`,
    /// or if a prior breaks the exact-skip invariant above.
    pub fn information_cost_product_many<S: AsRef<[f64]>>(&self, slices: &[S]) -> Vec<f64> {
        // --- SoA layout, computed once per call -------------------------
        let mut qpairs: Vec<[f64; 2]> = Vec::new();
        let mut qpair_id: HashMap<(u64, u64), u32> = HashMap::new();
        // (player, q-pair id) per writer, leaves concatenated (CSR layout),
        // and per leaf the length of the prefix its writer list shares with
        // the previous leaf's (point 4).
        let leaves = self.leaves();
        let mut writers: Vec<(u32, u32)> = Vec::new();
        let mut leaf_start: Vec<u32> = Vec::with_capacity(leaves.len() + 1);
        let mut shared: Vec<u32> = Vec::with_capacity(leaves.len());
        let mut longest = 0;
        leaf_start.push(0);
        let mut prev_lo = 0;
        let mut prev_q: &[[f64; 2]] = &[];
        // Player → q-pair id, looked up again only where the player's pair
        // differs from the previous leaf's.
        let mut id_of = vec![0u32; self.k];
        for leaf in leaves {
            let lo = writers.len();
            for (i, q) in leaf.q.iter().enumerate() {
                if q[0] == 1.0 && q[1] == 1.0 {
                    continue;
                }
                let key = (q[0].to_bits(), q[1].to_bits());
                if prev_q.get(i).map(|p| (p[0].to_bits(), p[1].to_bits())) != Some(key) {
                    id_of[i] = *qpair_id.entry(key).or_insert_with(|| {
                        qpairs.push(*q);
                        (qpairs.len() - 1) as u32
                    });
                }
                writers.push((i as u32, id_of[i]));
            }
            prev_q = &leaf.q;
            let (prev, cur) = writers[prev_lo..].split_at(lo - prev_lo);
            shared.push(prev.iter().zip(cur).take_while(|(a, b)| a == b).count() as u32);
            longest = longest.max(cur.len());
            leaf_start.push(writers.len() as u32);
            prev_lo = lo;
        }
        let nq = qpairs.len();

        let mut out = Vec::with_capacity(slices.len());
        // Running `[pl, div]` after each position of the last computed
        // writer list (point 4).
        let mut running = vec![[0.0f64; 2]; longest];
        let mut prior_of = vec![0u32; self.k]; // player → distinct-prior id
        for priors in slices {
            let priors = priors.as_ref();
            self.check_priors(priors);
            // Distinct prior values, deduplicated by bit pattern.
            let mut pvals: Vec<f64> = Vec::new();
            for (i, &p) in priors.iter().enumerate() {
                let id = match pvals.iter().position(|v| v.to_bits() == p.to_bits()) {
                    Some(id) => id,
                    None => {
                        pvals.push(p);
                        pvals.len() - 1
                    }
                };
                prior_of[i] = id as u32;
            }
            // Runtime skip-safety check (point 3 above): every distinct
            // prior must make the neutral q-pair's mass exactly 1.0 and its
            // divergence term exactly +0.0.
            for &p in &pvals {
                let mass = (1.0 - p) * 1.0 + p * 1.0;
                let g = xlog2_ratio(p / mass, p) + xlog2_ratio(1.0 - p / mass, 1.0 - p);
                assert!(
                    mass == 1.0 && g.to_bits() == 0,
                    "prior {p} breaks the exact-skip invariant (mass {mass}, term {g})"
                );
            }
            // (mass, g) per (distinct prior, distinct q-pair) cell — the
            // only transcendentals in this slice.
            let mut tab: Vec<[f64; 2]> = vec![[0.0; 2]; pvals.len() * nq];
            for (a, &p) in pvals.iter().enumerate() {
                for (b, q) in qpairs.iter().enumerate() {
                    let mass = (1.0 - p) * q[0] + p * q[1];
                    let g = if mass > 0.0 {
                        let post1 = p * q[1] / mass;
                        xlog2_ratio(post1, p) + xlog2_ratio(1.0 - post1, 1.0 - p)
                    } else {
                        // Never read: a zero mass zeroes the leaf
                        // probability, which skips the whole leaf.
                        0.0
                    };
                    tab[a * nq + b] = [mass, g];
                }
            }
            let mut total = 0.0;
            // Position where the last computed writer list's mass hit an
            // exact 0.0; `running` is valid below it.
            let mut dead_at: Option<usize> = None;
            for l in 0..leaves.len() {
                let s = shared[l] as usize;
                if dead_at.is_some_and(|d| d < s) {
                    continue; // same dead prefix as the previous leaf
                }
                let [mut pl, mut div] = if s == 0 { [1.0, 0.0] } else { running[s - 1] };
                dead_at = None;
                let list = &writers[leaf_start[l] as usize..leaf_start[l + 1] as usize];
                for (pos, &(player, qp)) in list.iter().enumerate().skip(s) {
                    let cell = &tab[prior_of[player as usize] as usize * nq + qp as usize];
                    pl *= cell[0];
                    if pl == 0.0 {
                        dead_at = Some(pos);
                        break;
                    }
                    div += cell[1];
                    running[pos] = [pl, div];
                }
                if dead_at.is_none() {
                    total += pl * div;
                }
            }
            out.push(clamp_nonneg(total, 1e-9));
        }
        out
    }

    /// Exact `I(Π; X)` by brute-force enumeration of all `2ᵏ` inputs.
    ///
    /// Exists to cross-validate
    /// [`information_cost_product`](Self::information_cost_product); the
    /// ablation bench compares their running times.
    ///
    /// # Panics
    ///
    /// Panics if `k > 20` (the enumeration would be enormous).
    pub fn information_cost_bruteforce(&self, priors: &[f64]) -> f64 {
        self.check_priors(priors);
        assert!(
            self.k <= 20,
            "brute force limited to k ≤ 20, got {}",
            self.k
        );
        let n_inputs = 1usize << self.k;
        let mut rows = Vec::with_capacity(n_inputs);
        for xi in 0..n_inputs {
            let x: Vec<bool> = (0..self.k).map(|i| (xi >> i) & 1 == 1).collect();
            let px: f64 = x
                .iter()
                .zip(priors)
                .map(|(&b, &p)| if b { p } else { 1.0 - p })
                .product();
            let row: Vec<f64> = self
                .leaves()
                .iter()
                .map(|l| px * l.prob_given_input(&x))
                .collect();
            rows.push(row);
        }
        bci_info::joint::Joint2::new(rows)
            .expect("transcript probabilities form a joint distribution")
            .mutual_information()
    }

    /// The chain-rule decomposition of the information cost (the displayed
    /// equation of the paper's Section 6):
    ///
    /// `IC(Π) = I(Π; X) = Σⱼ I(Mⱼ; X | M₍<ⱼ₎)`
    ///
    /// — and since message `Mⱼ` depends only on its speaker's input given
    /// the history, each term is `I(Mⱼ; X_{iⱼ} | M₍<ⱼ₎)`. This method
    /// returns, for every internal node `u`, the pair
    /// `(u, Pr[reach u] · I(M_u; X_speaker | reach u))` under independent
    /// priors. Summing the contributions recovers
    /// [`information_cost_product`](Self::information_cost_product) exactly
    /// (asserted by tests) — the identity Theorem 3's compression charges
    /// round by round.
    pub fn information_by_node(&self, priors: &[f64]) -> Vec<(NodeId, f64)> {
        self.check_priors(priors);
        let mut out = Vec::new();
        // DFS carrying (node, reach probability, per-player q products).
        let mut stack = vec![(self.root, 1.0f64, vec![[1.0f64; 2]; self.k])];
        while let Some((id, p_reach, q)) = stack.pop() {
            if p_reach <= 0.0 {
                continue;
            }
            let Node::Internal { speaker, edges } = &self.nodes[id] else {
                continue;
            };
            // Posterior of the speaker's input bit given the history.
            let w0 = (1.0 - priors[*speaker]) * q[*speaker][0];
            let w1 = priors[*speaker] * q[*speaker][1];
            let mass = w0 + w1;
            debug_assert!(mass > 0.0, "reachable node has positive mass");
            let post = [w0 / mass, w1 / mass];
            // Joint of (speaker bit, message).
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|b| edges.iter().map(|e| post[b] * e.prob[b]).collect())
                .collect();
            let mi = bci_info::joint::Joint2::new(rows)
                .expect("node message joint is a distribution")
                .mutual_information();
            out.push((id, p_reach * mi));
            for e in edges {
                let nu_e = post[0] * e.prob[0] + post[1] * e.prob[1];
                let mut q2 = q.clone();
                q2[*speaker][0] *= e.prob[0];
                q2[*speaker][1] *= e.prob[1];
                stack.push((e.child, p_reach * nu_e, q2));
            }
        }
        out
    }

    /// Aggregates [`information_by_node`](Self::information_by_node) by
    /// tree depth (root = depth 0): `profile[d]` is the information revealed
    /// by round `d`'s messages. Sums to the information cost.
    pub fn information_by_depth(&self, priors: &[f64]) -> Vec<f64> {
        // Compute each node's depth by a cheap DFS.
        let mut depth = vec![0usize; self.nodes.len()];
        let mut stack = vec![(self.root, 0usize)];
        let mut max_depth = 0;
        while let Some((id, d)) = stack.pop() {
            depth[id] = d;
            max_depth = max_depth.max(d);
            if let Node::Internal { edges, .. } = &self.nodes[id] {
                for e in edges {
                    stack.push((e.child, d + 1));
                }
            }
        }
        let mut profile = vec![0.0; max_depth + 1];
        for (node, c) in self.information_by_node(priors) {
            profile[depth[node]] += c;
        }
        while profile.last() == Some(&0.0) && profile.len() > 1 {
            profile.pop();
        }
        profile
    }

    /// Exact `I(Π; X)` for an input distribution given as an explicit
    /// support: `support[j] = (Pr[X = xⱼ], xⱼ)`.
    ///
    /// Unlike [`information_cost_product`](Self::information_cost_product)
    /// this handles *correlated* player inputs (e.g. the two-point Lemma 6
    /// distribution `μ′`, where exactly one player holds 0), at cost
    /// `O(|support| · reachable leaves)` — for deterministic trees each
    /// support input contributes a single `O(depth)` walk (see
    /// [`transcript_support_given_input`](Self::transcript_support_given_input)),
    /// not a dense `O(#leaves · k)` evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the weights do not sum to 1 (within `1e-9`) or an input has
    /// the wrong length.
    pub fn information_cost_support(&self, support: &[(f64, Vec<bool>)]) -> f64 {
        let total: f64 = support.iter().map(|(w, _)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "support weights sum to {total}");
        assert!(
            support.iter().all(|(_, x)| x.len() == self.k),
            "input length mismatch"
        );
        // Marginal transcript distribution, accumulated sparsely. Sorting
        // each conditional by leaf id keeps every f64 accumulation in the
        // order the dense path used (zero terms contribute exactly 0.0
        // there), so this is bit-identical to the dense evaluation.
        let mut marginal = vec![0.0f64; self.num_leaves()];
        let conditionals: Vec<Vec<(LeafId, f64)>> = support
            .iter()
            .map(|(w, x)| {
                let mut d = self.transcript_support_given_input(x);
                d.sort_unstable_by_key(|&(leaf, _)| leaf);
                for &(leaf, p) in &d {
                    marginal[leaf] += w * p;
                }
                d
            })
            .collect();
        let mut mi = 0.0;
        for ((w, _), cond) in support.iter().zip(&conditionals) {
            if *w == 0.0 {
                continue;
            }
            for &(leaf, p) in cond {
                mi += w * xlog2_ratio(p, marginal[leaf]);
            }
        }
        clamp_nonneg(mi, 1e-9)
    }

    /// Worst-case error of the protocol against the target function `f`
    /// (given as `f(x) -> output`), maximized over all `2ᵏ` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k > 20`.
    pub fn worst_case_error(&self, f: impl Fn(&[bool]) -> usize) -> f64 {
        assert!(self.k <= 20, "error enumeration limited to k ≤ 20");
        let mut worst: f64 = 0.0;
        for xi in 0..(1usize << self.k) {
            let x: Vec<bool> = (0..self.k).map(|i| (xi >> i) & 1 == 1).collect();
            worst = worst.max(self.error_on_input(&x, f(&x)));
        }
        worst
    }

    /// Probability that the protocol's output differs from `expected` on
    /// input `x`.
    pub fn error_on_input(&self, x: &[bool], expected: usize) -> f64 {
        self.leaves()
            .iter()
            .filter(|l| l.output != expected)
            .map(|l| l.prob_given_input(x))
            .sum()
    }

    /// Samples one execution on input `x`: returns the leaf index and the
    /// transcript bits written.
    pub fn simulate<R: Rng + ?Sized>(&self, x: &[bool], rng: &mut R) -> (LeafId, BitVec) {
        assert_eq!(x.len(), self.k, "input length mismatch");
        let mut bits = BitVec::new();
        let mut id = self.root;
        loop {
            match &self.nodes[id] {
                Node::Leaf { .. } => {
                    let leaf_idx = self.leaf_of_node[id].expect("leaf node is registered");
                    return (leaf_idx, bits);
                }
                Node::Internal { speaker, edges } => {
                    let b = usize::from(x[*speaker]);
                    // Inline cumulative sampling, float-for-float identical
                    // to `Dist::from_weights(..).sample(rng)` — same
                    // summation order, same per-weight normalization, same
                    // round-off fallback — without allocating a weight
                    // vector and a `Dist` at every node of every walk.
                    let sum: f64 = edges.iter().map(|e| e.prob[b]).sum();
                    assert!(sum > 0.0, "edge probabilities sum to one");
                    let u: f64 = rng.random();
                    let mut acc = 0.0;
                    let mut choice = None;
                    for (i, e) in edges.iter().enumerate() {
                        acc += e.prob[b] / sum;
                        if u < acc {
                            choice = Some(i);
                            break;
                        }
                    }
                    let choice = choice.unwrap_or_else(|| {
                        edges
                            .iter()
                            .rposition(|e| e.prob[b] > 0.0)
                            .expect("distribution has positive mass")
                    });
                    bits.extend_from(&edges[choice].label);
                    id = edges[choice].child;
                }
            }
        }
    }

    fn check_priors(&self, priors: &[f64]) {
        assert_eq!(
            priors.len(),
            self.k,
            "expected {} priors, got {}",
            self.k,
            priors.len()
        );
        assert!(
            priors.iter().all(|p| (0.0..=1.0).contains(p)),
            "priors must lie in [0,1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Deterministic 2-player sequential AND: player 0 announces its bit; if
    /// 1, player 1 announces its bit.
    fn and2() -> ProtocolTree {
        let mut b = TreeBuilder::new(2);
        let out0a = b.leaf(0);
        let out0b = b.leaf(0);
        let out1 = b.leaf(1);
        let p1 = b.internal(
            1,
            vec![
                (BitVec::from_bools(&[false]), [1.0, 0.0], out0b),
                (BitVec::from_bools(&[true]), [0.0, 1.0], out1),
            ],
        );
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [1.0, 0.0], out0a),
                (BitVec::from_bools(&[true]), [0.0, 1.0], p1),
            ],
        );
        b.finish(root)
    }

    #[test]
    fn structure_and_costs() {
        let t = and2();
        assert_eq!(t.num_players(), 2);
        assert_eq!(t.leaves().len(), 3);
        assert_eq!(t.worst_case_bits(), 2);
    }

    #[test]
    fn q_decomposition_on_deterministic_tree() {
        let t = and2();
        // The (1,1) leaf: q_{0,1} = q_{1,1} = 1, q_{·,0} = 0.
        let leaf11 = t
            .leaves()
            .iter()
            .find(|l| l.output == 1)
            .expect("AND leaf exists");
        assert_eq!(leaf11.q(0, true), 1.0);
        assert_eq!(leaf11.q(0, false), 0.0);
        assert_eq!(leaf11.prob_given_input(&[true, true]), 1.0);
        assert_eq!(leaf11.prob_given_input(&[true, false]), 0.0);
    }

    #[test]
    fn transcript_dist_sums_to_one() {
        let t = and2();
        for x in [[false, false], [false, true], [true, false], [true, true]] {
            let d = t.transcript_dist_given_input(&x);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "input {x:?}");
        }
    }

    #[test]
    fn sparse_support_matches_dense_distribution() {
        // Deterministic tree: one leaf, probability exactly 1.
        let t = and2();
        assert!(t.is_deterministic());
        for x in [[false, false], [false, true], [true, false], [true, true]] {
            let dense = t.transcript_dist_given_input(&x);
            let sparse = t.transcript_support_given_input(&x);
            assert_eq!(sparse.len(), 1, "input {x:?}");
            let (leaf, p) = sparse[0];
            assert_eq!(p, 1.0);
            let mut scattered = vec![0.0; dense.len()];
            scattered[leaf] = p;
            assert_eq!(scattered, dense, "input {x:?}");
        }
        // Randomized tree: the sparse walk must scatter back to the dense
        // distribution exactly (the products multiply the same factors).
        let mut b = TreeBuilder::new(2);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let l2 = b.leaf(0);
        let inner = b.internal(
            1,
            vec![
                (BitVec::from_bools(&[false]), [0.7, 0.2], l0),
                (BitVec::from_bools(&[true]), [0.3, 0.8], l1),
            ],
        );
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [0.6, 0.25], l2),
                (BitVec::from_bools(&[true]), [0.4, 0.75], inner),
            ],
        );
        let t = b.finish(root);
        assert!(!t.is_deterministic());
        for x in [[false, false], [false, true], [true, false], [true, true]] {
            let dense = t.transcript_dist_given_input(&x);
            let mut scattered = vec![0.0; dense.len()];
            for (leaf, p) in t.transcript_support_given_input(&x) {
                assert!(p > 0.0);
                scattered[leaf] += p;
            }
            for (s, d) in scattered.iter().zip(&dense) {
                assert!((s - d).abs() < 1e-15, "input {x:?}: {s} vs {d}");
            }
        }
    }

    #[test]
    fn sparse_support_prunes_zero_probability_branches() {
        // A degenerate randomized node (probability-0 edge) must not appear
        // in the support even though the leaf exists.
        let mut b = TreeBuilder::new(1);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [1.0, 0.3], l0),
                (BitVec::from_bools(&[true]), [0.0, 0.7], l1),
            ],
        );
        let t = b.finish(root);
        let support = t.transcript_support_given_input(&[false]);
        assert_eq!(support.len(), 1);
        assert_eq!(support[0].1, 1.0);
        assert_eq!(t.transcript_support_given_input(&[true]).len(), 2);
    }

    #[test]
    fn information_cost_of_deterministic_tree_is_transcript_entropy() {
        // For a deterministic protocol, I(Π; X) = H(Π).
        let t = and2();
        let priors = [0.5, 0.5];
        let probs: Vec<f64> = t
            .leaves()
            .iter()
            .map(|l| l.prob_under_product(&priors))
            .collect();
        let h = bci_info::entropy::entropy(&probs);
        let ic = t.information_cost_product(&priors);
        assert!((ic - h).abs() < 1e-12, "ic={ic} h={h}");
    }

    #[test]
    fn factorized_ic_matches_bruteforce() {
        let t = and2();
        for priors in [[0.5, 0.5], [0.9, 0.1], [1.0 / 3.0, 0.25]] {
            let fast = t.information_cost_product(&priors);
            let slow = t.information_cost_bruteforce(&priors);
            assert!(
                (fast - slow).abs() < 1e-10,
                "priors {priors:?}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn randomized_node_leaks_less() {
        // Player 0 sends its bit through a BSC(0.4): IC should be the BSC
        // capacity-like value, well below 1, and match brute force.
        let mut b = TreeBuilder::new(1);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [0.6, 0.4], l0),
                (BitVec::from_bools(&[true]), [0.4, 0.6], l1),
            ],
        );
        let t = b.finish(root);
        let ic = t.information_cost_product(&[0.5]);
        let bf = t.information_cost_bruteforce(&[0.5]);
        assert!((ic - bf).abs() < 1e-12);
        let h04 = -(0.4f64 * 0.4f64.log2() + 0.6 * 0.6f64.log2());
        assert!((ic - (1.0 - h04)).abs() < 1e-12, "BSC(0.4) information");
    }

    #[test]
    fn zero_and_one_priors_are_degenerate() {
        let t = and2();
        assert_eq!(t.information_cost_product(&[0.0, 0.0]), 0.0);
        assert_eq!(t.information_cost_product(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn posterior_matches_bayes() {
        let t = and2();
        // After the (1,1) transcript, X₀ is certainly 1 whatever the prior.
        let leaf11 = t.leaves().iter().find(|l| l.output == 1).unwrap();
        assert_eq!(leaf11.posterior_one(0, 0.3), Some(1.0));
        // After player 0 says 0 (1-bit transcript), X₁ keeps its prior.
        let leaf0 = t
            .leaves()
            .iter()
            .find(|l| l.path_bits == 1)
            .expect("the short transcript");
        assert_eq!(leaf0.posterior_one(1, 0.3), Some(0.3));
        // Unreachable leaf for a 0/1-prior: posterior is None.
        assert_eq!(leaf11.posterior_one(0, 0.0), None);
    }

    /// A random tree over `k` players: random speakers, 2–3 edges per
    /// internal node, and a mix of deterministic (0/1) and smooth edge
    /// probabilities — exercising neutral `(1,1)` q-pairs, exact-zero leaf
    /// probabilities, and dense randomized paths alike. Each message row is
    /// deterministic (all mass on one edge, exact `0.0` elsewhere) with
    /// probability `det_row`; with probability `coin` a node's message
    /// ignores the speaker's input (row 1 copies row 0), so a leaf's writer
    /// list can be a strict prefix of the next leaf's.
    fn random_tree(
        k: usize,
        depth: usize,
        det_row: f64,
        coin: f64,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> ProtocolTree {
        fn grow(
            b: &mut TreeBuilder,
            k: usize,
            depth: usize,
            (det_row, coin): (f64, f64),
            rng: &mut rand_chacha::ChaCha8Rng,
        ) -> NodeId {
            if depth == 0 || rng.random_bool(0.25) {
                return b.leaf(rng.random_range(0..2));
            }
            let speaker = rng.random_range(0..k);
            let n_edges = 2 + usize::from(rng.random_bool(0.4));
            let mut probs = [[0.0f64; 3]; 2];
            for row in &mut probs {
                if rng.random_bool(det_row) {
                    // Deterministic row: all mass on one edge.
                    row[rng.random_range(0..n_edges)] = 1.0;
                } else {
                    let raw: Vec<f64> = (0..n_edges).map(|_| rng.random::<f64>() + 0.05).collect();
                    let sum: f64 = raw.iter().sum();
                    for (slot, r) in row.iter_mut().zip(&raw) {
                        *slot = r / sum;
                    }
                }
            }
            if coin > 0.0 && rng.random_bool(coin) {
                probs[1] = probs[0];
            }
            let labels = [
                BitVec::from_bools(&[false]),
                BitVec::from_bools(&[true, false]),
                BitVec::from_bools(&[true, true]),
            ];
            let edges: Vec<(BitVec, [f64; 2], NodeId)> = (0..n_edges)
                .map(|e| {
                    let child = grow(b, k, depth - 1, (det_row, coin), rng);
                    (labels[e].clone(), [probs[0][e], probs[1][e]], child)
                })
                .collect();
            b.internal(speaker, edges)
        }
        let mut b = TreeBuilder::new(k);
        // Force at least one internal node so the tree is never a bare leaf.
        let speaker = rng.random_range(0..k);
        let left = grow(&mut b, k, depth, (det_row, coin), rng);
        let right = grow(&mut b, k, depth, (det_row, coin), rng);
        let root = b.internal(
            speaker,
            vec![
                (BitVec::from_bools(&[false]), [1.0, 0.0], left),
                (BitVec::from_bools(&[true]), [0.0, 1.0], right),
            ],
        );
        b.finish(root)
    }

    #[test]
    fn batched_ic_matches_dense_bit_for_bit_on_randomized_trees() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xBA7C);
        for trial in 0..20 {
            let k = 1 + (trial % 5);
            let t = random_tree(k, 4, 0.3, 0.0, &mut rng);
            // Slice families: cic_hard-shaped (one 0.0 prior, rest 1−1/k),
            // degenerate all-0/all-1, uniform, and random mixtures that
            // include exact 0.0/1.0 entries.
            let mut slices: Vec<Vec<f64>> = Vec::new();
            for z in 0..k {
                let mut priors = vec![1.0 - 1.0 / k as f64; k];
                priors[z] = 0.0;
                slices.push(priors);
            }
            slices.push(vec![0.0; k]);
            slices.push(vec![1.0; k]);
            slices.push(vec![0.5; k]);
            for _ in 0..6 {
                slices.push(
                    (0..k)
                        .map(|_| match rng.random_range(0..4) {
                            0 => 0.0,
                            1 => 1.0,
                            2 => 0.25,
                            _ => rng.random::<f64>(),
                        })
                        .collect(),
                );
            }
            let batched = t.information_cost_product_many(&slices);
            assert_eq!(batched.len(), slices.len());
            for (slice, b) in slices.iter().zip(&batched) {
                let dense = t.information_cost_product(slice);
                assert_eq!(
                    b.to_bits(),
                    dense.to_bits(),
                    "trial {trial}, k {k}, slice {slice:?}: batched {b} vs dense {dense}"
                );
            }
        }
    }

    #[test]
    fn batched_ic_matches_dense_bit_for_bit_on_deep_trees_with_dying_prefixes() {
        // Long writer lists (k ≤ 10, depth 8–10) with many exact 0.0/1.0
        // edges, against slices with exact 0.0/1.0 priors: leaf
        // probabilities reach exact zero partway through a writer list,
        // and the next leaf in DFS order sometimes shares that dead prefix
        // and sometimes only a shorter one; input-independent nodes make a
        // live writer list a strict prefix of the next leaf's. The counters
        // below check, from the public leaf data, that all three occur.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xDEE9);
        let (mut dead_partway, mut shares_dead, mut resumes_before_death) = (0, 0, 0);
        let mut extends_live = 0;
        for trial in 0..30 {
            let k = 2 + (trial % 9);
            let t = random_tree(k, 8 + trial % 3, 0.5, 0.3, &mut rng);
            let mut slices: Vec<Vec<f64>> = Vec::new();
            for z in 0..k {
                let mut priors = vec![1.0 - 1.0 / k as f64; k];
                priors[z] = 0.0;
                slices.push(priors);
            }
            for _ in 0..8 {
                slices.push(
                    (0..k)
                        .map(|_| match rng.random_range(0..5) {
                            0 => 0.0,
                            1 => 1.0,
                            2 => 0.5,
                            _ => rng.random::<f64>(),
                        })
                        .collect(),
                );
            }
            let batched = t.information_cost_product_many(&slices);
            assert_eq!(batched.len(), slices.len());
            for (slice, b) in slices.iter().zip(&batched) {
                let dense = t.information_cost_product(slice);
                assert_eq!(
                    b.to_bits(),
                    dense.to_bits(),
                    "trial {trial}, k {k}, slice {slice:?}: batched {b} vs dense {dense}"
                );
            }

            // Coverage: writer lists per leaf, in player order.
            let writers: Vec<Vec<(usize, [u64; 2])>> = t
                .leaves()
                .iter()
                .map(|leaf| {
                    (0..k)
                        .filter(|&i| leaf.q[i] != [1.0, 1.0])
                        .map(|i| (i, leaf.q[i].map(f64::to_bits)))
                        .collect()
                })
                .collect();
            for slice in &slices {
                let mut prev_death: Option<usize> = None;
                for (l, list) in writers.iter().enumerate() {
                    let shared = if l == 0 {
                        0
                    } else {
                        list.iter()
                            .zip(&writers[l - 1])
                            .take_while(|(a, b)| a == b)
                            .count()
                    };
                    match prev_death {
                        Some(d) if d < shared => shares_dead += 1,
                        Some(_) if shared > 0 => resumes_before_death += 1,
                        None if shared > 0 && shared == writers[l - 1].len() => extends_live += 1,
                        _ => {}
                    }
                    let mut pl = 1.0;
                    let death = list.iter().position(|&(i, q)| {
                        let p = slice[i];
                        pl *= (1.0 - p) * f64::from_bits(q[0]) + p * f64::from_bits(q[1]);
                        pl == 0.0
                    });
                    if matches!(death, Some(d) if d > 0) {
                        dead_partway += 1;
                    }
                    prev_death = death;
                }
            }
        }
        assert!(
            dead_partway > 1000,
            "only {dead_partway} leaves die partway"
        );
        assert!(
            shares_dead > 1000,
            "only {shares_dead} leaves share a dead prefix"
        );
        assert!(
            resumes_before_death > 1000,
            "only {resumes_before_death} leaves resume before a death"
        );
        assert!(
            extends_live > 20,
            "only {extends_live} leaves extend a live list"
        );
    }

    #[test]
    fn batched_ic_matches_dense_when_a_writer_list_extends_the_previous_one() {
        // Player 0 tosses an input-independent coin: heads ends the
        // protocol, tails lets player 1 announce its bit. The heads leaf
        // comes first in DFS order with writers [(0, ½½)]; the next leaf's
        // writers [(0, ½½), (1, 01)] repeat that whole list and extend it.
        let mut b = TreeBuilder::new(2);
        let heads = b.leaf(0);
        let zero = b.leaf(0);
        let one = b.leaf(1);
        let announce = b.internal(
            1,
            vec![
                (BitVec::from_bools(&[false]), [1.0, 0.0], zero),
                (BitVec::from_bools(&[true]), [0.0, 1.0], one),
            ],
        );
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [0.5, 0.5], announce),
                (BitVec::from_bools(&[true]), [0.5, 0.5], heads),
            ],
        );
        let t = b.finish(root);
        assert_eq!(t.leaves()[0].node, heads);
        let slices = vec![vec![0.3, 0.6], vec![1.0, 0.25], vec![0.0, 0.0]];
        let batched = t.information_cost_product_many(&slices);
        for (slice, b) in slices.iter().zip(&batched) {
            let dense = t.information_cost_product(slice);
            assert_eq!(b.to_bits(), dense.to_bits(), "slice {slice:?}");
        }
        assert!(batched[0] > 0.0);
    }

    #[test]
    fn skip_check_holds_across_the_prior_range() {
        // Documents the analysis behind the runtime skip check: for every
        // f64 p ∈ [0,1], fl(1−p) errs by at most a half-ulp (2⁻⁵⁴, since
        // 1−p ∈ [0.5, 1] where the ulp is 2⁻⁵³), so fl(fl(1−p)+p) lands
        // within a half-ulp of 1.0 and ties round to even — exactly 1.0.
        // The assertion therefore never fires for valid priors; it guards
        // future refactors of the posterior formulas, not data.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut priors = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.5 - f64::EPSILON / 4.0,
            0.5,
            0.5 + f64::EPSILON / 2.0,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ];
        priors.extend((0..10_000).map(|_| rng.random::<f64>()));
        for p in priors {
            let mass = (1.0 - p) * 1.0 + p * 1.0;
            assert_eq!(mass, 1.0, "p = {p:e}");
            let post1 = p * 1.0 / mass;
            let g = xlog2_ratio(post1, p) + xlog2_ratio(1.0 - post1, 1.0 - p);
            assert_eq!(g.to_bits(), 0, "p = {p:e}");
        }
    }

    #[test]
    fn posterior_one_pins_zero_one_prior_limits() {
        let t = and2();
        let leaf11 = t.leaves().iter().find(|l| l.output == 1).unwrap();
        let leaf0 = t.leaves().iter().find(|l| l.path_bits == 1).unwrap();
        // p = 0: either the leaf is unreachable (None) or the posterior is
        // exactly 0 — a zero prior can never be updated upward.
        assert_eq!(leaf11.posterior_one(0, 0.0), None);
        assert_eq!(leaf0.posterior_one(1, 0.0), Some(0.0));
        // p = 1: symmetric — the posterior is exactly 1 where defined.
        assert_eq!(leaf11.posterior_one(0, 1.0), Some(1.0));
        assert_eq!(leaf0.posterior_one(1, 1.0), Some(1.0));
        // A player with no writes on the path keeps its prior bitwise.
        assert_eq!(leaf0.posterior_one(1, 0.3), Some(0.3));
    }

    #[test]
    fn error_against_and() {
        let t = and2();
        let and = |x: &[bool]| usize::from(x.iter().all(|&b| b));
        assert_eq!(t.worst_case_error(and), 0.0);
        // Against OR it errs on e.g. (1,0).
        let or = |x: &[bool]| usize::from(x.iter().any(|&b| b));
        assert!(t.worst_case_error(or) > 0.99);
    }

    #[test]
    fn simulate_matches_exact_distribution() {
        // Randomized tree: check simulated leaf frequencies against the exact
        // transcript distribution.
        let mut b = TreeBuilder::new(1);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [0.7, 0.2], l0),
                (BitVec::from_bools(&[true]), [0.3, 0.8], l1),
            ],
        );
        let t = b.finish(root);
        let x = [true];
        let exact = t.transcript_dist_given_input(&x);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 100_000;
        let mut counts = vec![0usize; t.leaves().len()];
        for _ in 0..n {
            let (leaf, _) = t.simulate(&x, &mut rng);
            counts[leaf] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 / n as f64 - exact[i]).abs() < 0.01, "leaf {i}");
        }
    }

    #[test]
    fn simulate_transcript_bits_follow_labels() {
        let t = and2();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let (_, bits) = t.simulate(&[true, true], &mut rng);
        assert_eq!(bits.iter().collect::<Vec<_>>(), vec![true, true]);
        let (_, bits) = t.simulate(&[false, true], &mut rng);
        assert_eq!(bits.iter().collect::<Vec<_>>(), vec![false]);
    }

    #[test]
    fn chain_rule_sums_to_information_cost() {
        // Section 6's identity on the deterministic AND tree...
        let t = and2();
        for priors in [[0.5, 0.5], [0.9, 0.2], [0.3, 0.7]] {
            let total: f64 = t.information_by_node(&priors).iter().map(|(_, c)| c).sum();
            let ic = t.information_cost_product(&priors);
            assert!(
                (total - ic).abs() < 1e-12,
                "priors {priors:?}: {total} vs {ic}"
            );
        }
        // ...and on a randomized tree.
        let mut b = TreeBuilder::new(2);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let l2 = b.leaf(0);
        let inner = b.internal(
            1,
            vec![
                (BitVec::from_bools(&[false]), [0.7, 0.2], l0),
                (BitVec::from_bools(&[true]), [0.3, 0.8], l1),
            ],
        );
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [0.6, 0.25], l2),
                (BitVec::from_bools(&[true]), [0.4, 0.75], inner),
            ],
        );
        let t = b.finish(root);
        let priors = [0.45, 0.8];
        let total: f64 = t.information_by_node(&priors).iter().map(|(_, c)| c).sum();
        let ic = t.information_cost_product(&priors);
        assert!((total - ic).abs() < 1e-12, "{total} vs {ic}");
    }

    #[test]
    fn chain_rule_contributions_are_nonnegative_and_localized() {
        let t = and2();
        let contributions = t.information_by_node(&[0.5, 0.5]);
        assert_eq!(contributions.len(), 2, "two internal nodes");
        for (node, c) in &contributions {
            assert!(*c >= 0.0, "node {node}: negative information {c}");
        }
        // The root (player 0's announcement, uniform bit) reveals exactly
        // 1 bit; player 1 speaks with probability ½ and reveals 1 bit then.
        let root_c = contributions
            .iter()
            .find(|(n, _)| *n == t.root())
            .expect("root present")
            .1;
        assert!((root_c - 1.0).abs() < 1e-12);
        let other_c: f64 = contributions
            .iter()
            .filter(|(n, _)| *n != t.root())
            .map(|(_, c)| c)
            .sum();
        assert!((other_c - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depth_profile_sums_to_ic_and_decays_for_sequential_protocols() {
        let t = and2();
        let priors = [0.8, 0.8];
        let profile = t.information_by_depth(&priors);
        let ic = t.information_cost_product(&priors);
        let total: f64 = profile.iter().sum();
        assert!((total - ic).abs() < 1e-12);
        assert_eq!(profile.len(), 2);
        // Later rounds only run conditionally, so they reveal less in
        // expectation (for this protocol and prior).
        assert!(profile[1] < profile[0]);
    }

    #[test]
    fn support_ic_matches_product_ic_on_product_support() {
        let t = and2();
        let priors = [0.7, 0.4];
        let mut support = Vec::new();
        for xi in 0..4u32 {
            let x: Vec<bool> = (0..2).map(|i| (xi >> i) & 1 == 1).collect();
            let w: f64 = x
                .iter()
                .zip(&priors)
                .map(|(&b, &p)| if b { p } else { 1.0 - p })
                .product();
            support.push((w, x));
        }
        let via_support = t.information_cost_support(&support);
        let via_product = t.information_cost_product(&priors);
        assert!((via_support - via_product).abs() < 1e-12);
    }

    #[test]
    fn support_ic_handles_correlated_inputs() {
        // X₀ = X₁ uniformly: the first message already reveals everything
        // about both bits, and the deterministic transcript has entropy 1.
        let t = and2();
        let support = vec![(0.5, vec![false, false]), (0.5, vec![true, true])];
        let ic = t.information_cost_support(&support);
        assert!((ic - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn builder_rejects_unnormalized_edges() {
        let mut b = TreeBuilder::new(1);
        let l = b.leaf(0);
        b.internal(0, vec![(BitVec::from_bools(&[true]), [0.5, 1.0], l)]);
    }

    #[test]
    #[should_panic(expected = "prefix-free")]
    fn builder_rejects_prefix_labels() {
        let mut b = TreeBuilder::new(1);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        b.internal(
            0,
            vec![
                (BitVec::from_bools(&[true]), [0.5, 0.5], l0),
                (BitVec::from_bools(&[true, false]), [0.5, 0.5], l1),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "reachable twice")]
    fn finish_rejects_dags() {
        let mut b = TreeBuilder::new(1);
        let l = b.leaf(0);
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false]), [0.5, 0.5], l),
                (BitVec::from_bools(&[true]), [0.5, 0.5], l),
            ],
        );
        b.finish(root);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_speaker() {
        let mut b = TreeBuilder::new(2);
        let l = b.leaf(0);
        b.internal(2, vec![(BitVec::from_bools(&[true]), [1.0, 1.0], l)]);
    }
}
