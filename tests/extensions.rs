//! Integration tests of the extension modules: union/pointwise-OR, the
//! Håstad–Wigderson sparse protocol, Huffman transcript recoding, and
//! internal information — including the cross-cutting claims that tie them
//! back to the paper's main results.

use broadcast_ic::encoding::bitset::{BitSet, SparseBitSet};
use broadcast_ic::encoding::huffman::HuffmanCode;
use broadcast_ic::info::estimate::FreqTable;
use broadcast_ic::lowerbound::internal::{
    external_ic_two_party_joint, internal_ic_two_party_joint,
};
use broadcast_ic::protocols::and_trees::sequential_and;
use broadcast_ic::protocols::sparse;
use broadcast_ic::protocols::union::{batched, naive, union_function};
use broadcast_ic::protocols::workload;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn union_agrees_and_decodes_across_workloads() {
    let mut r = rng(1);
    for trial in 0..30 {
        let n = 50 + trial * 41;
        let k = 2 + trial % 8;
        let density = [0.1, 0.5, 0.9][trial % 3];
        let inputs = workload::random_sets(n, k, density, &mut r);
        let expect = union_function(&inputs);
        let nv = naive::run(&inputs);
        let bt = batched::run(&inputs);
        assert_eq!(nv.output, expect, "trial {trial}");
        assert_eq!(bt.output, expect, "trial {trial}");
        assert_eq!(naive::decode(n, k, &nv.board), expect);
        assert_eq!(batched::decode(n, k, &bt.board), expect, "trial {trial}");
        assert_eq!(batched::cost(&inputs), bt.bits, "trial {trial}");
    }
}

#[test]
fn union_and_disjointness_batching_share_the_same_economics() {
    // The per-element price of the subset code is the same log₂(e·k) in
    // both protocols — they are complement views of the same machinery.
    let mut r = rng(2);
    let n = 2048;
    let k = 8;
    let disj_inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
    let union_inputs: Vec<BitSet> = disj_inputs.iter().map(BitSet::complement).collect();
    let disj_bits = broadcast_ic::protocols::disj::batched::run(&disj_inputs).bits;
    let union_run = batched::run(&union_inputs);
    // The disjointness run publishes zeros of X = members of the complement:
    // identical coverage task, so costs land in the same ballpark.
    let ratio = disj_bits as f64 / union_run.bits as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "disj {} vs union {}",
        disj_bits,
        union_run.bits
    );
}

#[test]
fn sparse_protocol_is_zero_error_over_many_instances() {
    let mut r = rng(3);
    let n = 1 << 14;
    for trial in 0..60 {
        let s = 5 + trial % 40;
        let mut x = SparseBitSet::new(n);
        let mut y = SparseBitSet::new(n);
        while x.len() < s {
            x.insert(r.random_range(0..n));
        }
        while y.len() < s {
            y.insert(r.random_range(0..n));
        }
        let expect = x.intersection(&y).is_empty();
        let out = sparse::run_sparse(&x, &y, &mut r);
        assert_eq!(out.output, expect, "trial {trial}");
    }
}

#[test]
fn huffman_recodes_real_transcripts_at_entropy() {
    // Sample transcripts of the executable sequential AND, build a Huffman
    // code over the observed transcript keys, and verify single-shot
    // compression lands in [H, H+1) — the classical baseline the paper's
    // Section 6 contrasts against.
    use broadcast_ic::blackboard::protocol::run;
    use broadcast_ic::protocols::and::SequentialAnd;
    let k = 10;
    let p = SequentialAnd::new(k);
    let mut r = rng(4);
    let prior = 1.0 - 1.0 / k as f64;
    let mut table: FreqTable<String> = FreqTable::new();
    let mut keys = Vec::new();
    for _ in 0..60_000 {
        let x: Vec<bool> = (0..k).map(|_| r.random_bool(prior)).collect();
        let exec = run(&p, &x, &mut r);
        let key = exec.board.transcript_key();
        table.record(key.clone());
        keys.push(key);
    }
    // Build the code over the observed alphabet.
    let alphabet: Vec<String> = {
        let mut seen: Vec<String> = Vec::new();
        for key in &keys {
            if !seen.contains(key) {
                seen.push(key.clone());
            }
        }
        seen
    };
    let probs: Vec<f64> = alphabet.iter().map(|a| table.freq(a)).collect();
    let code = HuffmanCode::from_probs(&probs);
    let mean = code.expected_len(&probs);
    let h = table.entropy_plugin();
    assert!(mean >= h - 1e-9, "mean {mean} < H {h}");
    assert!(mean < h + 1.0, "mean {mean} ≥ H+1");
    // And the exact protocol-tree entropy matches the sampled one.
    let exact = sequential_and(k).information_cost_product(&vec![prior; k]);
    assert!((h - exact).abs() < 0.02, "sampled {h} vs exact {exact}");
}

#[test]
fn internal_information_summary_matrix() {
    // Product inputs: internal = external. X=Y: internal = 0 < external.
    // Partial correlation: strictly between.
    let tree = sequential_and(2);
    let product = [[0.25, 0.25], [0.25, 0.25]];
    let partial = [[0.35, 0.15], [0.15, 0.35]];
    let identical = [[0.5, 0.0], [0.0, 0.5]];
    let cases = [
        ("product", product, 0.0),
        ("partial", partial, 0.0),
        ("identical", identical, 0.0),
    ];
    let mut gaps = Vec::new();
    for (name, joint, _) in cases {
        let int = internal_ic_two_party_joint(&tree, &joint);
        let ext = external_ic_two_party_joint(&tree, &joint);
        assert!(int <= ext + 1e-9, "{name}");
        gaps.push(ext - int);
    }
    assert!(gaps[0].abs() < 1e-9, "product gap {}", gaps[0]);
    assert!(gaps[1] > 1e-6 && gaps[1] < gaps[2], "gaps {gaps:?}");
}

#[test]
fn union_handles_single_player_and_identical_sets() {
    let mut r = rng(6);
    let x = workload::random_sets(100, 1, 0.3, &mut r);
    assert_eq!(batched::run(&x).output, x[0]);
    let same = vec![x[0].clone(); 5];
    let run = batched::run(&same);
    assert_eq!(run.output, x[0]);
    // Only the first player publishes anything beyond flags.
    assert_eq!(batched::decode(100, 5, &run.board), x[0]);
}
