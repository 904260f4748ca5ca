//! Two replicas with small diff sets checking for conflicts — the
//! Håstad–Wigderson sparse-disjointness protocol in its natural habitat.
//!
//! Two datacenters each accumulated a small set of locally-modified keys
//! (out of a huge keyspace). Before reconciling, they want to know whether
//! any key was modified on *both* sides (a write conflict). That is
//! two-player set disjointness with `|X| = |Y| = s ≪ n`, and the paper's
//! introduction points out the surprising fact: it costs `O(s)` bits, not
//! `O(s log n)` — the log-factor intuition fails.
//!
//! Run with: `cargo run --release --example sparse_sync`

use broadcast_ic::core::table::{f, Table};
use broadcast_ic::encoding::bitset::SparseBitSet;
use broadcast_ic::protocols::sparse;
use rand::{Rng, SeedableRng};

fn random_disjoint(n: usize, s: usize, rng: &mut impl Rng) -> (SparseBitSet, SparseBitSet) {
    let mut x = SparseBitSet::new(n);
    let mut y = SparseBitSet::new(n);
    while x.len() < s {
        x.insert(rng.random_range(0..n));
    }
    while y.len() < s {
        let e = rng.random_range(0..n);
        if !x.contains(e) {
            y.insert(e);
        }
    }
    (x, y)
}

fn main() {
    let n = 1 << 24; // 16M-key keyspace
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    println!("Write-conflict detection between two replicas");
    println!("keyspace n = {n} keys; modified-set size s varies\n");

    let mut t = Table::new([
        "s (diff size)",
        "naive bits (send the set)",
        "HW bits (mean of 25)",
        "saving",
        "verdict",
    ]);
    for &s in &[64usize, 256, 1024] {
        let trials = 25;
        let mut bits = 0.0;
        for _ in 0..trials {
            let (x, y) = random_disjoint(n, s, &mut rng);
            let out = sparse::run_sparse(&x, &y, &mut rng);
            assert!(out.output, "these diffs are conflict-free");
            bits += out.bits;
        }
        let hw = bits / trials as f64;
        let naive = sparse::naive_bits(n, s);
        t.row([
            s.to_string(),
            f(naive, 0),
            f(hw, 0),
            format!("{:.1}x", naive / hw),
            "no conflict".to_owned(),
        ]);
    }
    println!("{}", t.render());

    // And one conflicting pair: still always correct.
    let (mut x, y) = random_disjoint(n, 256, &mut rng);
    let shared = y.iter().next().expect("nonempty");
    x.insert(shared);
    let out = sparse::run_sparse(&x, &y, &mut rng);
    assert!(!out.output);
    println!(
        "planted one conflicting key → detected in {:.0} bits (fallback: {})",
        out.bits, out.fallback
    );
    println!(
        "\nPer modified key the protocol pays ≈ 2 bits + o(1), independent of\n\
         the {}-bit key width — the index-into-shared-randomness trick that\n\
         also powers the paper's Lemma 7 compression sampler.",
        (n as f64).log2() as u32
    );
}
