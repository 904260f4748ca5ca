//! End-to-end tests of the set-disjointness stack: protocol agreement,
//! board decodability, cost-model equivalence, and the Theorem 2 bound.

use broadcast_ic::encoding::bitset::BitSet;
use broadcast_ic::protocols::disj::{batched, disj_function, naive};
use broadcast_ic::protocols::workload;
use rand::SeedableRng;

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn protocols_agree_with_reference_across_workload_spectrum() {
    let mut r = rng(100);
    for trial in 0..60 {
        let n = 16 + (trial * 37) % 500;
        let k = 2 + trial % 9;
        let density = [0.0, 0.2, 0.5, 0.8, 0.95, 1.0][trial % 6];
        let inputs = workload::random_sets(n, k, density, &mut r);
        let expect = disj_function(&inputs);
        let nv = naive::run(&inputs);
        let bt = batched::run(&inputs);
        assert_eq!(nv.output, expect, "naive trial {trial}");
        assert_eq!(bt.output, expect, "batched trial {trial}");
        // Boards always replay without inputs.
        assert_eq!(naive::decode(n, k, &nv.board).output, expect);
        assert_eq!(batched::decode(n, k, &bt.board).output, expect);
    }
}

#[test]
fn cost_model_is_bit_identical_to_exact_protocol() {
    let mut r = rng(200);
    for trial in 0..25 {
        let n = 64 + trial * 97;
        let k = 2 + trial % 12;
        let inputs = match trial % 3 {
            0 => workload::planted_zero_cover(n, k, 0.1, &mut r),
            1 => workload::planted_intersection(n, k, 1 + trial % 4, 0.5, &mut r),
            _ => workload::random_sets(n, k, 0.7, &mut r),
        };
        let exact = batched::run(&inputs);
        let model = batched::cost(&inputs);
        assert_eq!(exact.bits, model.bits, "trial {trial} (n={n}, k={k})");
        assert_eq!(exact.output, model.output);
        assert_eq!(exact.cycles, model.cycles);
    }
}

#[test]
fn theorem2_total_bound_holds_across_grid() {
    // CC ≤ n·log2(e·k) + cycles·k + naive-tail + k, per the paper's
    // accounting (fat batches + passes + final cycle).
    let mut r = rng(300);
    for &(n, k) in &[(512usize, 4usize), (2048, 8), (2048, 32), (8192, 16)] {
        let inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
        let run = batched::cost(&inputs);
        assert!(run.output);
        let tail = (k * k) as f64 * (2.0 * (k as f64).log2().max(1.0) + 2.0);
        let bound = n as f64 * batched::per_coordinate_bound(k) + (run.cycles * k) as f64 + tail;
        assert!(
            (run.bits as f64) <= bound,
            "n={n} k={k}: {} > {bound}",
            run.bits
        );
    }
}

/// The cycle-count stressor: player 0 holds the empty set (all zeros), every
/// other player holds all of `[n]`. Disjoint for `k ≥ 1`, and only player 0
/// can ever publish, `⌈z/k⌉` coordinates per cycle.
fn single_holder(n: usize, k: usize) -> Vec<BitSet> {
    let mut sets = vec![BitSet::full(n); k];
    sets[0] = BitSet::new(n);
    sets
}

#[test]
fn single_holder_shape() {
    let inputs = single_holder(30, 4);
    assert!(disj_function(&inputs));
    assert!(inputs[0].is_empty());
    assert!(inputs[1..].iter().all(|s| s.len() == 30));
}

#[test]
fn single_holder_exercises_many_cycles_and_stays_correct() {
    // One player owns all zeros: the batched protocol advances only z/k
    // coordinates per cycle — the cycle-count worst case.
    for &(n, k) in &[(400usize, 4usize), (1000, 8)] {
        let inputs = single_holder(n, k);
        let run = batched::run(&inputs);
        assert!(run.output, "single-holder instances are disjoint");
        assert!(
            run.cycles >= 3,
            "n={n} k={k}: expected a long run, got {} cycles",
            run.cycles
        );
        let dec = batched::decode(n, k, &run.board);
        assert_eq!(dec.output, run.output);
        assert_eq!(dec.covered.len(), n);
    }
}

#[test]
fn batched_advantage_grows_with_n_over_k() {
    let mut r = rng(400);
    let k = 8;
    let mut last_ratio = 0.0;
    for &n in &[256usize, 1024, 4096] {
        let inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
        let nv = naive::run(&inputs);
        let bt = batched::cost(&inputs);
        let ratio = nv.bits as f64 / bt.bits as f64;
        assert!(
            ratio > last_ratio,
            "advantage must grow with n: {last_ratio} → {ratio}"
        );
        last_ratio = ratio;
    }
    assert!(last_ratio > 2.0, "at n=4096, k=8 the saving is ≥ 2×");
}

#[test]
fn intersection_of_one_common_element_is_always_caught() {
    // Adversarial near-miss: sets are disjoint except for a single planted
    // coordinate.
    let mut r = rng(500);
    for trial in 0..10 {
        let n = 200;
        let k = 5;
        let mut inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
        // Plant one common coordinate by inserting it everywhere.
        let j = trial * 19 % n;
        for s in &mut inputs {
            s.insert(j);
        }
        assert!(!disj_function(&inputs));
        assert!(!naive::run(&inputs).output, "trial {trial}");
        assert!(!batched::run(&inputs).output, "trial {trial}");
    }
}

#[test]
fn degenerate_universes() {
    // n = 1: disjoint iff someone lacks the single element.
    let a = BitSet::from_elements(1, [0]);
    let b = BitSet::new(1);
    assert!(batched::run(&[a.clone(), b.clone()]).output);
    assert!(!batched::run(&[a.clone(), a.clone()]).output);
    assert!(naive::run(&[a.clone(), b]).output);
    assert!(!naive::run(&[a.clone(), a]).output);
}
