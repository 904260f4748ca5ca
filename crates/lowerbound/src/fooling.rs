//! Generic fooling-set machinery for deterministic protocols (test-only:
//! E4 runs [`counting`](crate::counting); this harness checks Lemma 6's
//! collision directly on executable protocols).
//!
//! Lemma 6's proof is a collision argument: two inputs with different
//! correct answers but identical transcripts force an error. This module
//! makes the argument *executable* for any deterministic protocol: feed it
//! a list of inputs, it runs the protocol on each (with a fixed dummy RNG —
//! determinism is the caller's promise), groups them by transcript, and
//! reports any colliding pair whose reference outputs differ.
//!
//! For [`TruncatedAnd`](bci_protocols::and::TruncatedAnd) the collision is
//! exactly the one Lemma 6 exhibits: the all-ones input versus an input
//! whose only zero belongs to a silent player.

use std::collections::HashMap;

use bci_blackboard::protocol::{run, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A witnessed collision: two input indices with identical transcripts but
/// different reference outputs.
#[derive(Debug)]
struct Collision {
    /// Index (into the supplied input list) of the first input.
    first: usize,
    /// Index of the second input.
    second: usize,
    /// The shared transcript key.
    transcript: String,
}

/// Runs a deterministic protocol on every input and searches for a fooling
/// collision against `reference`.
///
/// Returns the first collision found (in input order), or `None` if every
/// transcript class is output-consistent — in which case no fooling-set
/// lower bound arises from this input list.
///
/// # Panics
///
/// Panics if the protocol misbehaves under [`run`] (wrong speaker, etc.).
fn find_collision<P, F>(protocol: &P, inputs: &[Vec<P::Input>], reference: F) -> Option<Collision>
where
    P: Protocol,
    P::Input: Clone,
    F: Fn(&[P::Input]) -> bool,
{
    let mut by_transcript: HashMap<String, (usize, bool)> = HashMap::new();
    for (idx, input) in inputs.iter().enumerate() {
        // Deterministic protocols ignore the RNG; a fixed seed keeps the
        // contract honest for accidental randomness.
        let mut rng = StdRng::seed_from_u64(0);
        let exec = run(protocol, input, &mut rng);
        let key = exec.board.transcript_key();
        let answer = reference(input);
        match by_transcript.get(&key) {
            Some(&(first, prev_answer)) if prev_answer != answer => {
                return Some(Collision {
                    first,
                    second: idx,
                    transcript: key,
                });
            }
            Some(_) => {}
            None => {
                by_transcript.insert(key, (idx, answer));
            }
        }
    }
    None
}

/// The Lemma 6 input family: the all-ones input plus, for each player, the
/// input whose only zero is that player's.
fn lemma6_inputs(k: usize) -> Vec<Vec<bool>> {
    let mut inputs = vec![vec![true; k]];
    for z in 0..k {
        let mut x = vec![true; k];
        x[z] = false;
        inputs.push(x);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_protocols::and::{and_function, SequentialAnd, TruncatedAnd};

    #[test]
    fn truncated_protocols_collide_exactly_as_lemma6_predicts() {
        let k = 12;
        for speakers in 0..=k {
            let p = TruncatedAnd::new(k, speakers);
            let collision = find_collision(&p, &lemma6_inputs(k), and_function);
            if speakers < k {
                let c = collision
                    .unwrap_or_else(|| panic!("speakers={speakers}: expected a collision"));
                // The collision pairs the all-ones input (index 0) with a
                // silent-zero input (index z+1 with z ≥ speakers).
                assert_eq!(c.first, 0);
                assert!(c.second > speakers, "collision at {c:?}");
            } else {
                assert!(collision.is_none(), "full protocol cannot be fooled");
            }
        }
    }

    #[test]
    fn correct_protocols_have_no_collisions() {
        let k = 8;
        let p = SequentialAnd::new(k);
        assert!(find_collision(&p, &lemma6_inputs(k), and_function).is_none());
    }

    #[test]
    fn collision_transcript_is_the_all_ones_prefix() {
        let k = 6;
        let speakers = 3;
        let p = TruncatedAnd::new(k, speakers);
        let c = find_collision(&p, &lemma6_inputs(k), and_function).expect("collision exists");
        // On both colliding inputs every speaker announced 1.
        assert_eq!(c.transcript.matches(":1;").count(), speakers);
    }

    #[test]
    fn lemma6_inputs_shape() {
        let inputs = lemma6_inputs(5);
        assert_eq!(inputs.len(), 6);
        assert!(inputs[0].iter().all(|&b| b));
        for (z, x) in inputs[1..].iter().enumerate() {
            assert_eq!(x.iter().filter(|&&b| !b).count(), 1);
            assert!(!x[z]);
        }
    }
}
