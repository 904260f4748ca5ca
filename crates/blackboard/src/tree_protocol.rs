//! Runs a [`ProtocolTree`] as an executable [`Protocol`] (test-only).
//!
//! The adapter closes the loop between the two protocol representations:
//! the tree's edge labels become real board messages, the board alone
//! determines the walk position (hence the next speaker and the output),
//! and the speaker samples its edge from the tree's message distribution.
//! Conformance tests verify that executing the adapter induces exactly the
//! transcript distribution the tree's closed-form analysis predicts.

use bci_encoding::bitio::BitVec;
use bci_info::dist::Dist;
use rand::RngCore;

use crate::board::Board;
use crate::protocol::Protocol;
use crate::tree::{Node, NodeId, ProtocolTree};
use crate::PlayerId;

/// Adapter exposing a [`ProtocolTree`] through the [`Protocol`] trait.
struct TreeProtocol<'a> {
    tree: &'a ProtocolTree,
}

impl<'a> TreeProtocol<'a> {
    fn new(tree: &'a ProtocolTree) -> Self {
        TreeProtocol { tree }
    }

    /// Replays the board from the root, returning the current node.
    ///
    /// # Panics
    ///
    /// Panics if a board message does not match any edge label of the node
    /// it was written at (a board from a different protocol).
    fn walk(&self, board: &Board) -> NodeId {
        let mut id = self.tree.root();
        for msg in board.messages() {
            match self.tree.node(id) {
                Node::Leaf { .. } => panic!("board continues past a leaf"),
                Node::Internal { speaker, edges } => {
                    assert_eq!(*speaker, msg.speaker, "wrong speaker on board");
                    let edge = edges
                        .iter()
                        .find(|e| e.label == msg.bits)
                        .expect("message matches no edge label");
                    id = edge.child;
                }
            }
        }
        id
    }
}

impl Protocol for TreeProtocol<'_> {
    type Input = bool;
    type Output = usize;

    fn num_players(&self) -> usize {
        self.tree.num_players()
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        match self.tree.node(self.walk(board)) {
            Node::Leaf { .. } => None,
            Node::Internal { speaker, .. } => Some(*speaker),
        }
    }

    fn message(
        &self,
        player: PlayerId,
        input: &bool,
        board: &Board,
        rng: &mut dyn RngCore,
    ) -> BitVec {
        match self.tree.node(self.walk(board)) {
            Node::Leaf { .. } => panic!("asked to speak at a leaf"),
            Node::Internal { speaker, edges } => {
                assert_eq!(*speaker, player, "wrong player asked to speak");
                let weights: Vec<f64> = edges.iter().map(|e| e.prob[usize::from(*input)]).collect();
                let d = Dist::from_weights(weights).expect("edge probabilities");
                edges[d.sample(rng)].label.clone()
            }
        }
    }

    fn output(&self, board: &Board) -> usize {
        match self.tree.node(self.walk(board)) {
            Node::Leaf { output } => *output,
            Node::Internal { .. } => panic!("output requested before the protocol halted"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::run;
    use crate::tree::TreeBuilder;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    /// A randomized 2-player tree with multi-bit labels.
    fn noisy_tree() -> ProtocolTree {
        let mut b = TreeBuilder::new(2);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let l2 = b.leaf(0);
        let p1 = b.internal(
            1,
            vec![
                (BitVec::from_bools(&[false]), [0.8, 0.3], l0),
                (BitVec::from_bools(&[true]), [0.2, 0.7], l1),
            ],
        );
        let root = b.internal(
            0,
            vec![
                (BitVec::from_bools(&[false, false]), [0.6, 0.1], l2),
                (BitVec::from_bools(&[true]), [0.4, 0.9], p1),
            ],
        );
        b.finish(root)
    }

    #[test]
    fn executed_transcripts_match_exact_distribution() {
        let tree = noisy_tree();
        let p = TreeProtocol::new(&tree);
        let mut r = rng(1);
        for x in [[false, false], [true, false], [false, true], [true, true]] {
            let exact = tree.transcript_dist_given_input(&x);
            let trials = 40_000;
            let mut counts = vec![0usize; tree.leaves().len()];
            for _ in 0..trials {
                let exec = run(&p, &x, &mut r);
                // Identify the leaf by re-simulating the walk.
                let leaf_node = p.walk(&exec.board);
                let idx = tree
                    .leaves()
                    .iter()
                    .position(|l| l.node == leaf_node)
                    .expect("halted at a leaf");
                counts[idx] += 1;
                assert_eq!(exec.output, tree.leaves()[idx].output);
                assert_eq!(exec.bits_written, tree.leaves()[idx].path_bits);
            }
            for (i, &c) in counts.iter().enumerate() {
                let freq = c as f64 / trials as f64;
                assert!(
                    (freq - exact[i]).abs() < 0.012,
                    "input {x:?} leaf {i}: {freq} vs {}",
                    exact[i]
                );
            }
        }
    }

    #[test]
    fn board_determines_speaker_schedule() {
        let tree = noisy_tree();
        let p = TreeProtocol::new(&tree);
        let mut r = rng(2);
        for _ in 0..100 {
            let x = [r.random_bool(0.5), r.random_bool(0.5)];
            let exec = run(&p, &x, &mut r);
            // Replay: at each prefix next_speaker matches what happened.
            let mut replay = Board::new();
            for m in exec.board.messages() {
                assert_eq!(p.next_speaker(&replay), Some(m.speaker));
                replay.write(m.speaker, m.bits.clone());
            }
            assert_eq!(p.next_speaker(&replay), None);
        }
    }

    #[test]
    #[should_panic(expected = "matches no edge label")]
    fn foreign_boards_are_rejected() {
        let tree = noisy_tree();
        let p = TreeProtocol::new(&tree);
        let mut bad = Board::new();
        bad.write(0, BitVec::from_bools(&[false, true])); // not a label
        p.next_speaker(&bad);
    }
}
