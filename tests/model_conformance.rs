//! Conformance of protocols to the blackboard model's ground rules:
//! executable protocols and their tree forms induce the same behaviour,
//! speaker schedules are board-determined, and transcripts are prefix-free
//! decodable.

use broadcast_ic::blackboard::protocol::run;
use broadcast_ic::blackboard::runner::monte_carlo_seeded;
use broadcast_ic::info::estimate::FreqTable;
use broadcast_ic::lowerbound::hard_dist::HardDist;
use broadcast_ic::protocols::and::{and_function, AllSpeakAnd, SequentialAnd, TruncatedAnd};
use broadcast_ic::protocols::and_trees::{all_speak_and, sequential_and, truncated_and};
use rand::SeedableRng;

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// `input → (output, bits written)` of one executable protocol.
type ExecFn = Box<dyn Fn(&[bool]) -> (bool, usize)>;

#[test]
fn executable_and_tree_forms_agree_on_every_input() {
    let k = 6;
    let pairs: Vec<(ExecFn, _)> = vec![
        (
            Box::new({
                let p = SequentialAnd::new(k);
                move |x: &[bool]| {
                    let e = run(&p, x, &mut rng(0));
                    (e.output, e.bits_written)
                }
            }),
            sequential_and(k),
        ),
        (
            Box::new({
                let p = AllSpeakAnd::new(k);
                move |x: &[bool]| {
                    let e = run(&p, x, &mut rng(0));
                    (e.output, e.bits_written)
                }
            }),
            all_speak_and(k),
        ),
        (
            Box::new({
                let p = TruncatedAnd::new(k, 4);
                move |x: &[bool]| {
                    let e = run(&p, x, &mut rng(0));
                    (e.output, e.bits_written)
                }
            }),
            truncated_and(k, 4),
        ),
    ];
    for (exec, tree) in &pairs {
        for xi in 0..(1u32 << k) {
            let x: Vec<bool> = (0..k).map(|i| (xi >> i) & 1 == 1).collect();
            let (out, bits) = exec(&x);
            let dist = tree.transcript_dist_given_input(&x);
            let leaf_idx = dist
                .iter()
                .position(|&p| p > 0.999)
                .expect("deterministic protocols have a certain leaf");
            let leaf = &tree.leaves()[leaf_idx];
            assert_eq!(leaf.output, usize::from(out), "input {x:?}");
            assert_eq!(leaf.path_bits, bits, "input {x:?}");
        }
    }
}

#[test]
fn speaker_schedule_is_a_function_of_the_board_alone() {
    // Replay the final boards of many executions: at every prefix, the
    // protocol's next_speaker must name exactly the player who actually
    // spoke next. This is the blackboard-model legality check.
    use broadcast_ic::blackboard::board::Board;
    use broadcast_ic::blackboard::protocol::Protocol;
    let k = 7;
    let p = SequentialAnd::new(k);
    let mu = HardDist::new(k);
    let mut r = rng(4);
    for _ in 0..200 {
        let (_, x) = mu.sample(&mut r);
        let exec = run(&p, &x, &mut r);
        let mut replay = Board::new();
        for msg in exec.board.messages() {
            assert_eq!(
                p.next_speaker(&replay),
                Some(msg.speaker),
                "schedule must be derivable from the board"
            );
            replay.write(msg.speaker, msg.bits.clone());
        }
        assert_eq!(p.next_speaker(&replay), None, "halting is board-determined");
        assert_eq!(p.output(&replay), exec.output);
    }
}

#[test]
fn transcript_keys_injective_over_protocol_runs() {
    // Different executions that differ in any message must get different
    // keys (prefix-freeness of the whole-board encoding).
    let k = 5;
    let p = SequentialAnd::new(k);
    let mut r = rng(9);
    let mut by_key: std::collections::HashMap<String, bool> = Default::default();
    for xi in 0..(1u32 << k) {
        let x: Vec<bool> = (0..k).map(|i| (xi >> i) & 1 == 1).collect();
        let exec = run(&p, &x, &mut r);
        let key = exec.board.transcript_key();
        if let Some(&prev) = by_key.get(&key) {
            assert_eq!(prev, exec.output, "same transcript must imply same output");
        }
        by_key.insert(key, exec.output);
    }
    // Sequential AND has exactly k+1 distinct transcripts.
    assert_eq!(by_key.len(), k + 1);
}

#[test]
fn deterministic_protocol_transcript_entropy_equals_exact_ic() {
    // H(Π) from sampled transcripts ≈ exact I(Π; X) for deterministic
    // protocols — ties the runner/estimator path to the tree/exact path.
    let k = 6;
    let p = SequentialAnd::new(k);
    let tree = sequential_and(k);
    let prior = 1.0 - 1.0 / k as f64;
    let mut r = rng(12);
    let mut table: FreqTable<String> = FreqTable::new();
    for _ in 0..150_000 {
        let x: Vec<bool> = (0..k)
            .map(|_| rand::Rng::random_bool(&mut r, prior))
            .collect();
        table.record(run(&p, &x, &mut r).board.transcript_key());
    }
    let exact = tree.information_cost_product(&vec![prior; k]);
    let estimated = table.entropy_miller_madow();
    assert!(
        (estimated - exact).abs() < 0.01,
        "estimated {estimated} vs exact {exact}"
    );
}

#[test]
fn monte_carlo_error_matches_exact_tree_error_for_truncated_and() {
    let k = 9;
    let speakers = 6;
    let p = TruncatedAnd::new(k, speakers);
    let tree = truncated_and(k, speakers);
    let prior = 0.8;
    let report = monte_carlo_seeded::<_, _, _, rand_chacha::ChaCha8Rng>(
        &p,
        |rng| (0..k).map(|_| rand::Rng::random_bool(rng, prior)).collect(),
        and_function,
        120_000,
        21,
    );
    // Exact distributional error under the product prior.
    let mut exact = 0.0;
    for xi in 0..(1u32 << k) {
        let x: Vec<bool> = (0..k).map(|i| (xi >> i) & 1 == 1).collect();
        let px: f64 = x
            .iter()
            .map(|&b| if b { prior } else { 1.0 - prior })
            .product();
        exact += px * tree.error_on_input(&x, usize::from(and_function(&x)));
    }
    assert!(
        (report.error_rate() - exact).abs() < 0.01,
        "MC {} vs exact {exact}",
        report.error_rate()
    );
}
